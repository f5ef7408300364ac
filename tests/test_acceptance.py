"""Acceptance gate: every advertised guarantee at its advertised scale.

One test per criterion.  Each prints a single pass/fail line naming the
guarantee, pins the tolerance it promises (so a silently loosened band
fails here, not in review), and then asserts the underlying reports.

The Monte Carlo criteria run at full scale -- the largest is the runs
model at n = 10^6 with 10^4 repetitions -- so this module dominates the
suite's runtime.  The checks run with two worker processes: sweeps and the
parabola sampler give bit-identical results for any worker count, and two
workers halve the wall time on a two-core machine (about eleven minutes on
one core).  Seeds are fixed (base seed 0 throughout); there is no retry
logic anywhere.

One criterion is red by design of honesty rather than by accident: the
queue maximum's variance band (criterion 7) is tighter than the model's
measured finite-size behaviour at the pinned size.  The comment on that
test has the numbers; the band was not widened to make it pass.
"""

import math

import pytest

from runslab.stats import ks_critical_value
from runslab.verify import (
    REFERENCES,
    VerifyContext,
    _check_covariance_grids,
    _check_desk_scale,
    _check_exact_moments,
    _check_parabola_mean,
    _check_pattern_closed_forms,
    _check_pattern_max_mc,
    _check_queues,
    _check_random_routes,
    _check_reference_maxima,
    _check_small_max_exact,
    _check_small_max_mc,
)

CTX = VerifyContext(base_seed=0, jobs=2)

V_REF = 0.996193  # drifted-path max constant used by every correction band


def _gate(label, reports):
    ok = all(r.passed for r in reports)
    print(f"[{'pass' if ok else 'FAIL'}] {label}")
    assert ok, "; ".join(r.describe() for r in reports if not r.passed)


def _by_quantity(reports):
    return {r.quantity: r for r in reports}


def test_criterion_1_exact_identities_all_n_through_8_under_10s():
    reports = _check_exact_moments(CTX)
    rows = _by_quantity(reports)
    for name in (
        "exact-pmf-enumeration-failures",
        "exact-mean-identity-failures",
        "exact-variance-identity-failures",
        "time-mixture-identity-failures",
    ):
        assert rows[name].band == 0  # identities, not approximations
    assert rows["exact-moments-runtime-seconds"].band == 10.0
    _gate("exact pmf / moment / time-mixture identities, n <= 8, < 10 s", reports)


def test_criterion_2_small_n_maxima_exact_and_within_4_se():
    reports = _check_small_max_exact(CTX) + _check_small_max_mc(CTX)
    rows = _by_quantity(reports)
    mean3 = rows["small-max-mean-3"]
    assert mean3.reference == pytest.approx(4 / 3) and mean3.band == 0
    for n in range(3, 10):
        row = rows[f"small-max-mc-mean-{n}"]
        assert row.reps == 1_000_000
        assert row.band == pytest.approx(4 * row.se)
    _gate("small-n maxima: enumeration vs DP, 10^6-rep means within 4 SE", reports)


def test_criterion_3_published_means_at_13_and_52_under_5min():
    reports = _check_reference_maxima(CTX)
    rows = _by_quantity(reports)
    r13 = rows["reference-max-mean-13"]
    assert (r13.reference, r13.band, r13.reps) == (4.22, 0.03, 1_000_000)
    r52 = rows["reference-max-mean-52"]
    assert (r52.reference, r52.band, r52.reps) == (14.66, 0.08, 1_000_000)
    exact13 = rows["reference-max-mc-vs-exact-13"]
    assert exact13.reference == 82491109 / 19459440  # the gap DP's exact mean
    assert exact13.band == pytest.approx(4 * exact13.se) and exact13.reps == 1_000_000
    assert rows["reference-max-runtime-seconds"].band == 300.0
    _gate("published maxima means: 4.22 +- 0.03 (n=13), 14.66 +- 0.08 (n=52);"
          " n=13 within 4 SE of the exact mean", reports)


def test_criterion_4_cube_root_correction_at_n_one_million():
    reports = _check_desk_scale(CTX)
    rows = _by_quantity(reports)
    n = 1_000_000
    correction = 0.5 * V_REF * n ** (1 / 3)
    mean_row = rows["desk-scale-max-mean"]
    assert mean_row.reference == pytest.approx(n / 4 + correction)
    assert mean_row.band == pytest.approx(0.15 * correction)  # ~7.47 around ~49.8
    var_row = rows["desk-scale-max-variance"]
    assert var_row.reference == pytest.approx(n / 16)
    assert var_row.band == pytest.approx(0.05 * n / 16)
    assert rows["desk-scale-runtime-seconds"].band == 1800.0
    _gate("n=10^6 max: mean within 15% of the n^(1/3) term, var within 5% of n/16", reports)


def test_criterion_5_parabola_max_constant_with_step_self_check():
    reports = _check_parabola_mean(CTX)
    rows = _by_quantity(reports)
    mean_row = rows["parabola-max-mean"]
    assert (mean_row.reference, mean_row.band) == (V_REF, 0.02)
    assert mean_row.reps == 100_000  # 10^5 paths at step 1e-3, horizon 4
    assert rows["parabola-step-drift"].reference == 0.0
    _gate("drifted-path max mean 0.996193 +- 0.02; half-step check consistent", reports)


def test_criterion_6_covariance_grids_match_and_swap_fails_as_designed():
    reports = _check_covariance_grids(CTX)
    rows = _by_quantity(reports)
    for label in ("cov-runs-discrete", "cov-runs-time"):
        assert rows[f"{label}-violations"].band == 0
        assert rows[f"{label}-violations"].n == 10_000
        assert rows[f"{label}-violations"].reps == 10_000
    assert rows["cov-swap-sensitivity-detected"].reference == 1.0
    _gate("covariance grids within 3 SE (floor 0.01); swapped references rejected", reports)


def test_criterion_7_queue_moments_and_matching_implementations():
    # Known red: the variance row promises n/4 within 5% at n = 10^4, but the
    # limit carries a finite-size deficit of roughly 1.3 * n^(-1/3) -- about
    # 6% here, reproduced across seeds and by the independent lazy-hash
    # construction (n = 10^3 shows ~12%, in line with the same coefficient).
    # The band is kept as promised rather than widened to fit; see the
    # README's acceptance notes.
    reports = _check_queues(CTX)
    rows = _by_quantity(reports)
    n = 10_000
    correction = V_REF * n ** (1 / 3)
    mean_row = rows["queue-max-mean"]
    assert mean_row.reference == pytest.approx(n / 2 + correction)
    assert mean_row.band == pytest.approx(0.15 * correction)
    var_row = rows["queue-max-variance"]
    assert var_row.reference == pytest.approx(n / 4)
    assert var_row.band == pytest.approx(0.05 * n / 4)
    ks_row = rows["queue-implementations-ks"]
    # alpha = 0.01: c(alpha) = sqrt(-ln(alpha / 2) / 2)
    c = math.sqrt(-0.5 * math.log(0.01 / 2))
    assert ks_row.band == ks_critical_value(100_000, 100_000)
    assert ks_row.band == pytest.approx(c * math.sqrt(2 / 100_000), rel=1e-12)
    assert (ks_row.n, ks_row.reps) == (100, 100_000)
    _gate("queue max moments at n=10^4; the two constructions agree by KS", reports)


def test_criterion_8_isolated_run_constants_and_cube_root_prediction():
    # The three advertised constants in closed form first.
    beta = 2 ** (7 / 3) * 3 ** (-8 / 3) * 5 ** (2 / 3)
    assert REFERENCES["run-length-1-variance-rate"] == pytest.approx(76 / 729, abs=1e-15)
    assert REFERENCES["run-length-1-jump-variance"] == pytest.approx(80 / 81, abs=1e-15)
    assert REFERENCES["run-length-1-correction-scale"] == pytest.approx(beta, abs=1e-15)
    reports = _check_pattern_closed_forms(CTX) + _check_pattern_max_mc(CTX)
    rows = _by_quantity(reports)
    for name in (
        "run-length-1-variance-rate",
        "run-length-1-jump-variance",
        "run-length-1-correction-scale",
    ):
        assert rows[name].band == 1e-12
    assert rows["run-length-closed-form-max-gap"].band == 1e-10  # d <= 6 routes
    mc = rows["pattern-max-mean"]
    n = 100_000
    correction = beta * V_REF * n ** (1 / 3)
    assert mc.reference == pytest.approx(4 * n / 27 + correction)
    assert mc.band == pytest.approx(0.15 * correction)
    assert (mc.n, mc.reps) == (n, 10_000)
    _gate("isolated-run constants 76/729, 80/81, beta to 1e-12; max MC within 15%", reports)


def test_criterion_9_dual_routes_agree_on_100_random_windows():
    reports = _check_random_routes(CTX)
    rows = _by_quantity(reports)
    count = rows["random-window-count"]
    assert (count.reference, count.band) == (100.0, 0.0)
    assert rows["random-window-route-failures"].band == 0
    assert rows["random-window-derivative-failures"].band == 0
    _gate("100 random windows: variance routes to 1e-10, g_1 = g0' exactly", reports)
