"""Verification harness plumbing at the quick scale.

The full scale is exercised (and timed) by the acceptance suite; here we
only need the quick tier green, the override hook live, and the check
registry stable.
"""

import functools
import hashlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from runslab import asymptotics, cli, patterns, stats, verify
from runslab._rng import mix_key
from runslab.asymptotics import VSamplerConfig, sample_parabola_max
from runslab.evolve import run_sweep
from runslab.patterns import run_length_pattern
from runslab.verify import REFERENCES, run_checks

QUICK_NAMES = [
    "exact-moments",
    "small-max-exact",
    "pattern-closed-forms",
    "random-route-agreement",
    "limit-model-identities",
]


def test_check_registry_names():
    full = [name for name, _, _ in verify.CHECKS]
    assert [name for name, tier, _ in verify.CHECKS if tier == "quick"] == QUICK_NAMES
    assert full[: len(QUICK_NAMES)] == QUICK_NAMES
    assert set(full) - set(QUICK_NAMES) == {
        "small-max-mc",
        "reference-maxima",
        "desk-scale-max",
        "parabola-mean",
        "covariance-grids",
        "queues",
        "pattern-max-mc",
    }


def test_quick_scale_passes():
    result = run_checks("quick")
    assert result.passed, [r.describe() for r in result.failures]
    assert {r.quantity for r in result.reports} >= {
        "exact-pmf-enumeration-failures",
        "small-max-enumeration-vs-dp-failures",
        "runs-peak-mean",
        "random-window-route-failures",
        "exact-moments-runtime-seconds",
    }


def test_progress_callback_sees_every_check():
    seen = []
    run_checks("quick", progress=lambda name, reports: seen.append(name))
    assert seen == QUICK_NAMES


def test_override_injects_a_failure():
    # Shifting a closed-form reference must break the comparison: the
    # harness is not allowed to pass vacuously.
    result = run_checks("quick", overrides={"runs-variance-rate": 1 / 8})
    assert not result.passed
    failing = {r.quantity for r in result.failures}
    assert "runs-variance-rate" in failing


def test_unknown_override_and_scale_rejected():
    with pytest.raises(ValueError, match="no-such-reference; choose from brownian-parabola-mean, "):
        run_checks("quick", overrides={"no-such-reference": 1.0})
    with pytest.raises(ValueError):
        run_checks("medium")


@pytest.mark.parametrize("scale", ["quick", "full"])
@pytest.mark.parametrize("jobs", [0, -2])
def test_run_checks_refuses_jobs_below_one_before_any_check(scale, jobs):
    seen = []
    with pytest.raises(ValueError, match=f"need jobs >= 1, got {jobs}"):
        run_checks(scale, jobs=jobs, progress=lambda name, reports: seen.append(name))
    assert seen == []


def test_references_table_spot_values():
    assert REFERENCES["brownian-parabola-mean"] == pytest.approx(0.996193)
    assert REFERENCES["runs-variance-rate"] == pytest.approx(1 / 16)
    assert REFERENCES["run-length-1-variance-rate"] == pytest.approx(76 / 729)
    assert REFERENCES["run-length-1-jump-variance"] == pytest.approx(80 / 81)


# -- row pins ----------------------------------------------------------------
#
# The Monte Carlo checks are too slow for this tier at their agreed sizes,
# so their row assembly is pinned on the same sweeps shrunk to n <= 60 and
# reps <= 40: each row keeps the full-scale model, n, reps and seed it
# names, and only the sampled values come from the small sweep.

MC_CHECKS = (
    verify._check_small_max_mc,
    verify._check_reference_maxima,
    verify._check_desk_scale,
    verify._check_queues,
    verify._check_pattern_max_mc,
)

# The report fields a row pin reads.
ROW_FIELDS = ("quantity", "value", "reference", "band", "se", "model", "n", "reps", "seed")

# SHA-256 over ROW_FIELDS of the rows of MC_CHECKS (wall-time rows dropped),
# recorded while every report still carried a `source` tag.  The digest
# before it, over whole reports, was recorded while each check still built
# its sweep and its cube-root term inline; both read the same rows.  It was
# re-recorded (from 213f1322...) when orders of up to 31 cells became the
# sorted order of the rep's uniforms: only the runs rows at n = 3..9 and 13
# moved.
MC_ROWS_DIGEST = "44d887152de2130b54a36e12b5fd7ccb402b296c136565c891aa53b58ad704d0"


def row_record(report):
    return tuple(getattr(report, name) for name in ROW_FIELDS)


def _shrunk_sweep(config):
    return run_sweep(replace(config, n=min(config.n, 60), reps=min(config.reps, 40)))


def test_monte_carlo_rows_match_golden_digest(monkeypatch):
    monkeypatch.setattr(verify, "run_sweep", _shrunk_sweep)
    ctx = verify.VerifyContext(base_seed=0)
    reports = [
        report
        for check in MC_CHECKS
        for report in check(ctx)
        if not report.quantity.endswith("-runtime-seconds")
    ]
    # The MC-vs-exact row came after the digest; it is pinned on its own.
    added = {r.quantity: r for r in reports if r.quantity == "reference-max-mc-vs-exact-13"}
    rows = [repr(row_record(r)) for r in reports if r.quantity not in added]
    assert len(rows) == 15
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == MC_ROWS_DIGEST
    (exact_row,) = added.values()
    (quoted_row,) = [r for r in reports if r.quantity == "reference-max-mean-13"]
    assert exact_row.reference == 82491109 / 19459440
    assert (exact_row.value, exact_row.se) == (quoted_row.value, quoted_row.se)
    assert exact_row.band == 4 * exact_row.se
    assert (exact_row.n, exact_row.reps) == (13, 1_000_000)


def test_covariance_grid_rows_match_golden_values(monkeypatch):
    # The check's rows with both grids swept at n = 400 over 300 reps,
    # recorded while the check still named its grids in three places.
    def small(model, *, n, reps, grid, seed, jobs=1):
        return stats.empirical_covariance_grid(model, n=400, reps=300, grid=grid, seed=seed,
                                               jobs=jobs)

    monkeypatch.setattr(verify, "empirical_covariance_grid", small)
    rows = verify._check_covariance_grids(verify.VerifyContext(base_seed=0))
    assert [row_record(r) for r in rows] == [
        ("cov-runs-discrete-violations", 0.0, 0.0, 0.0, None, "runs-linear", 10000, 10000,
         9215069760937974895),
        ("cov-runs-discrete-worst-band-ratio", 0.8394046555838568, 0.0, 1.0, None,
         "runs-linear", 10000, None, None),
        ("cov-runs-time-violations", 0.0, 0.0, 0.0, None, "runs-time", 10000, 10000,
         7259628554680249319),
        ("cov-runs-time-worst-band-ratio", 0.6833457008622904, 0.0, 1.0, None, "runs-time",
         10000, None, None),
        ("cov-swap-sensitivity-detected", 1.0, 1.0, 0.0, None, None, None, None, None),
    ]


def test_parabola_rows_match_golden_values(monkeypatch):
    # The check's two rows on 2,000 paths at step 0.01 and horizon 3 (the
    # fine run at step 0.005), recorded while asymptotics still ran the
    # half-step sibling for verify: value, se, band, reps and seed.
    small = functools.partial(VSamplerConfig, step=0.01, horizon=3.0, paths=2000)
    monkeypatch.setattr(verify, "VSamplerConfig", small)
    rows = verify._check_parabola_mean(verify.VerifyContext(base_seed=0))
    assert [(r.quantity, r.value, r.se, r.band, r.reps, r.seed) for r in rows] == [
        ("parabola-max-mean", 0.9618688410678716, 0.013190832114090934, 0.02, 2000, 0),
        ("parabola-step-drift", 0.0011016675494652794, None, 0.07913810672662161, 2000, 0),
    ]


def test_parabola_step_drift_runs_the_half_step_sibling(monkeypatch):
    # The fine run is the sampler at step/2 on the sibling stream family
    # mix_key(seed, 1), and the band is 3 times the two SEs summed; two
    # worker processes give the same rows as one (64-path key blocks, so
    # they really split the 150 paths).
    small = functools.partial(VSamplerConfig, step=0.01, horizon=3.0, paths=150)
    monkeypatch.setattr(verify, "VSamplerConfig", small)
    monkeypatch.setattr(asymptotics, "_KEY_BLOCK", 64)
    rows = verify._check_parabola_mean(verify.VerifyContext(base_seed=7))
    coarse = sample_parabola_max(small(base_seed=7))
    fine = sample_parabola_max(small(step=0.005, base_seed=mix_key(7, 1)))
    assert (rows[0].value, rows[0].se) == (coarse.mean, coarse.se)
    assert rows[1].value == abs(coarse.mean - fine.mean)
    assert rows[1].band == 3.0 * (coarse.se + fine.se)
    assert verify._check_parabola_mean(verify.VerifyContext(base_seed=7, jobs=2)) == rows


def _count_calls(monkeypatch, name):
    """Count every call of patterns.<name> that returns, under each name it has."""
    calls = []
    exact = getattr(patterns, name)

    def counted(pattern):
        result = exact(pattern)
        calls.append(pattern)
        return result

    for module in (patterns, cli, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_pattern_report_decomposes_once(monkeypatch, capsys):
    decompositions = _count_calls(monkeypatch, "decompose_fluctuations")
    assert cli.main(["pattern", "--run-length", "2", "--report"]) == 0
    assert "variance-share-" in capsys.readouterr().out
    assert len(decompositions) == 1


@pytest.mark.parametrize(
    "check,extra", [(verify._check_random_routes, 0), (verify._check_limit_models, 1)]
)
def test_checks_decompose_once_per_summary(monkeypatch, check, extra):
    # one decomposition per admissible summary: a window with no interior
    # peak is rejected before it is decomposed.  Limit models: those, plus
    # one for the runs covariance points.
    decompositions = _count_calls(monkeypatch, "decompose_fluctuations")
    summaries = _count_calls(monkeypatch, "summarize")
    check(verify.VerifyContext(base_seed=0))
    assert summaries
    assert len(decompositions) == len(summaries) + extra


def test_quick_scale_summarizes_run_length_1_once(monkeypatch):
    # the closed-form constants, d = 1 of the closed-form loop and the drift
    # row all read one summary
    summaries = _count_calls(monkeypatch, "summarize")
    assert run_checks("quick").passed
    assert summaries.count(run_length_pattern(1)) == 1


def grid_violations_loop(empirical, se, reference):
    """The cell-by-cell form of `_grid_violations`, with Python's max."""
    violations = 0
    worst = 0.0
    for i in range(empirical.shape[0]):
        for j in range(empirical.shape[1]):
            ratio = abs(empirical[i, j] - reference[i, j]) / max(3.0 * se[i, j], 0.01)
            worst = max(worst, ratio)
            if ratio > 1.0:
                violations += 1
    return violations, worst


def test_grid_violations_match_the_loop_form():
    rng = np.random.default_rng(3)
    empirical = rng.normal(size=(7, 7))
    reference = empirical + rng.normal(scale=0.03, size=(7, 7))
    se = rng.uniform(0.0, 0.02, size=(7, 7))
    se[0, 0] = se[3, 4] = np.nan  # a NaN ratio, first and inside the grid
    se[1, 1] = 0.0  # the 0.01 floor
    got = verify._grid_violations(empirical, se, reference)
    assert got == grid_violations_loop(empirical, se, reference)
    assert 0 < got[0] < 47 and got[1] > 1.0
    assert verify._grid_violations(empirical, np.full((7, 7), np.nan), reference) == (0, 0.0)


def random_pattern_per_value(rng):
    """The window draw with one `integers` call per value, as it was written first."""
    ell = int(rng.integers(1, 5))
    values = tuple(Fraction(int(rng.integers(-8, 9)), 8) for _ in range(1 << ell))
    return patterns.PatternFunctional(ell, values)


def test_random_window_draws_match_per_value_draws():
    # one call of 2^ell values consumes the stream as 2^ell scalar calls,
    # so verify's random windows, and the quick digest, stay the same
    for seed in range(50):
        one, each = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            assert verify._random_pattern(one) == random_pattern_per_value(each)
