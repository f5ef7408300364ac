"""Named verification checks behind the acceptance suite and the CLI.

Two scales: "quick" runs only exact identities (rational arithmetic against
independent enumerations, dual-route agreement, closed-form constants) and
finishes in well under two minutes; "full" adds the Monte Carlo reproduction
runs at their agreed sizes.  Every check emits ComparisonReport rows with the
band pinned next to the reference, so a report is the complete record of what
was compared against what.

Reference constants live in the REFERENCES table and can be overridden per
run; injecting a wrong value (say a runs variance rate of 1/8) must make the
suite fail, which is how we test that the harness is actually sensitive to
the numbers it claims to check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ._rng import mix_key
from .combinatorics import (
    MAX_DP_CELLS,
    brute_force_max_pmf,
    max_pmf_gap_dp,
    max_pmf_subset_dp,
    mean_runs_discrete,
    mean_runs_time,
    run_count_pmf,
    run_count_pmf_enumerated,
    var_runs_discrete,
    var_runs_time,
)
from .patterns import (
    AsymptoticSummary,
    NoInteriorPeakError,
    PatternFunctional,
    decompose_fluctuations,
    fluctuation_covariance,
    mean_rate,
    run_length_pattern,
    run_length_reference_constants,
    runs_pattern,
    summarize,
)
from .asymptotics import (
    VSamplerConfig,
    correction_scale_from_drift,
    limit_covariance,
    local_drift_model,
    sample_parabola_max,
    COVARIANCE_MODELS,
)
from .evolve import SimConfig, run_sweep
from .stats import (
    ComparisonReport,
    empirical_covariance_grid,
    ks_critical_value,
    ks_statistic,
    se_band,
)

__all__ = [
    "REFERENCES",
    "VerificationResult",
    "run_checks",
]


# Every number the suite compares against, by name.  Values are plain floats
# so a command-line override can replace any of them; the checks themselves
# never hard-code these constants.
REFERENCES: Dict[str, float] = {
    "brownian-parabola-mean": 0.996193,
    "runs-peak-mean": 0.25,
    "runs-variance-rate": 1.0 / 16.0,
    "runs-jump-variance": 0.5,
    "runs-correction-scale": 0.5,
    "queue-correction-scale": 1.0,
    "run-length-1-variance-rate": 76.0 / 729.0,
    "run-length-1-jump-variance": 80.0 / 81.0,
    "run-length-1-correction-scale": 0.7871544956908231,
    "runs-max-13-mean": 4.22,
    "runs-max-52-mean": 14.66,
}

# Ids feeding mix_key(base_seed, id) so each check owns an independent
# stream family; the parabola sampler uses base_seed itself because its
# configuration (step, horizon, paths, seed) is the protocol being checked.
_SEED_IDS = {
    "small-max-mc": 2,
    "reference-maxima": 3,
    "desk-scale-max": 4,
    "cov-runs-discrete": 6,
    "cov-runs-time": 7,
    "queue-sweep": 8,
    "queue-ks-pq": 9,
    "queue-ks-lazy": 10,
    "pattern-max-mc": 11,
    "random-windows": 12,
}


@dataclass
class VerifyContext:
    """Shared knobs for one verification run."""

    base_seed: int = 0
    jobs: int = 1
    overrides: Mapping[str, float] = field(default_factory=dict)

    @cached_property
    def run_length_1(self) -> AsymptoticSummary:
        """The run-length-1 window summary, worked out once per run."""
        return summarize(run_length_pattern(1))

    def reference(self, name: str) -> float:
        if name in self.overrides:
            return float(self.overrides[name])
        return REFERENCES[name]

    def seed(self, label: str) -> int:
        return mix_key(self.base_seed, _SEED_IDS[label])


@dataclass
class VerificationResult:
    reports: List[ComparisonReport]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def failures(self) -> List[ComparisonReport]:
        return [r for r in self.reports if not r.passed]


# -- exact identities (quick scale) ------------------------------------------


def _check_exact_moments(ctx: VerifyContext) -> List[ComparisonReport]:
    """Counting pmf vs enumeration, closed-form moments, time mixtures."""
    t0 = time.perf_counter()
    bad_pmf = bad_mean = bad_var = bad_mix = 0
    for n in range(1, 9):
        for m in range(n + 1):
            pmf = run_count_pmf(n, m)
            if pmf.probs != run_count_pmf_enumerated(n, m).probs:
                bad_pmf += 1
            if pmf.mean() != mean_runs_discrete(n, m):
                bad_mean += 1
            if pmf.variance() != var_runs_discrete(n, m):
                bad_var += 1
        for t in (Fraction(1, 5), Fraction(1, 2), Fraction(3, 4)):
            mix_mean = Fraction(0)
            mix_second = Fraction(0)
            for m in range(n + 1):
                w = math.comb(n, m) * t**m * (1 - t) ** (n - m)
                mu = mean_runs_discrete(n, m)
                mix_mean += w * mu
                mix_second += w * (var_runs_discrete(n, m) + mu * mu)
            if mix_mean != mean_runs_time(n, t):
                bad_mix += 1
            if mix_second - mix_mean**2 != var_runs_time(n, t):
                bad_mix += 1
    elapsed = time.perf_counter() - t0
    return [
        ComparisonReport("exact-pmf-enumeration-failures", bad_pmf, 0, 0, n=8),
        ComparisonReport("exact-mean-identity-failures", bad_mean, 0, 0, n=8),
        ComparisonReport("exact-variance-identity-failures", bad_var, 0, 0, n=8),
        ComparisonReport("time-mixture-identity-failures", bad_mix, 0, 0, n=8),
        ComparisonReport("exact-moments-runtime-seconds", elapsed, 0.0, 10.0),
    ]


def _check_small_max_exact(ctx: VerifyContext) -> List[ComparisonReport]:
    """Exhaustive max-distribution enumeration vs the subset and gap DPs."""
    bad = 0
    mean3 = None
    for n in range(1, 10):
        brute = brute_force_max_pmf(n)
        if not brute == max_pmf_subset_dp(n) == max_pmf_gap_dp(n):
            bad += 1
        if n == 3:
            mean3 = sum(k * p for k, p in brute.items())
    return [
        ComparisonReport("small-max-enumeration-vs-dp-failures", bad, 0, 0, n=9),
        ComparisonReport("small-max-mean-3", float(mean3), float(Fraction(4, 3)), 0.0, n=3),
    ]


def _check_pattern_closed_forms(ctx: VerifyContext) -> List[ComparisonReport]:
    """Window-functional constants against their closed forms."""
    out: List[ComparisonReport] = []
    runs = summarize(runs_pattern())
    for name, value in (
        ("runs-peak-mean", runs.peak_mean),
        ("runs-variance-rate", runs.variance_rate),
        ("runs-jump-variance", runs.jump_variance),
        ("runs-correction-scale", runs.correction_scale),
    ):
        out.append(
            ComparisonReport(name, value, ctx.reference(name), 1e-12, model="runs-linear")
        )
    out.append(ComparisonReport("runs-peak-time", runs.peak_time, 0.5, 0.0, model="runs-linear"))

    rl1 = ctx.run_length_1
    for name, value in (
        ("run-length-1-variance-rate", rl1.variance_rate),
        ("run-length-1-jump-variance", rl1.jump_variance),
        ("run-length-1-correction-scale", rl1.correction_scale),
    ):
        out.append(ComparisonReport(name, value, ctx.reference(name), 1e-12, model="pattern"))

    # General d: both computation routes (summarize cross-checks them
    # internally) against the closed-form constants.
    worst = 0.0
    route_failures = 0
    for d in range(1, 7):
        refs = run_length_reference_constants(d)
        try:
            summary = rl1 if d == 1 else summarize(run_length_pattern(d))
        except ArithmeticError:
            route_failures += 1
            continue
        for key, got in (
            ("peak_time", summary.peak_time),
            ("peak_mean", summary.peak_mean),
            ("variance_rate", summary.variance_rate),
            ("jump_variance", summary.jump_variance),
        ):
            worst = max(worst, abs(got - float(refs[key])))
        worst = max(
            worst,
            abs(summary.correction_scale**3 - float(refs["correction_scale_cubed"])),
        )
    out.append(ComparisonReport("run-length-route-failures", route_failures, 0, 0, n=6))
    out.append(ComparisonReport("run-length-closed-form-max-gap", worst, 0.0, 1e-10, n=6))
    return out


_EIGHTHS = tuple(Fraction(k, 8) for k in range(-8, 9))  # a random window's values


def _random_pattern(rng: np.random.Generator) -> PatternFunctional:
    ell = int(rng.integers(1, 5))
    values = tuple(_EIGHTHS[k + 8] for k in rng.integers(-8, 9, size=1 << ell).tolist())
    return PatternFunctional(ell, values)


def _check_random_routes(ctx: VerifyContext) -> List[ComparisonReport]:
    """Dual-route agreement and the derivative identity on random windows."""
    rng = np.random.default_rng(ctx.seed("random-windows"))
    admissible = 0
    route_failures = 0
    derivative_failures = 0
    attempts = 0
    while admissible < 100 and attempts < 3000:
        attempts += 1
        pattern = _random_pattern(rng)
        try:
            summary = summarize(pattern)
        except NoInteriorPeakError:
            continue
        except ArithmeticError:
            route_failures += 1
            admissible += 1
            continue
        admissible += 1
        # the popcount route's mean rate, which the butterfly's g_1 is
        # checked against; the summary does not carry it
        deriv = mean_rate(pattern).derivative()
        g1 = summary.decomposition.terms.get("1")
        if g1 is None:
            if not deriv.is_zero():
                derivative_failures += 1
        elif g1 != deriv:
            derivative_failures += 1
    return [
        ComparisonReport(
            "random-window-count", admissible, 100, 0, seed=ctx.seed("random-windows")
        ),
        ComparisonReport("random-window-route-failures", route_failures, 0, 0),
        ComparisonReport("random-window-derivative-failures", derivative_failures, 0, 0),
    ]


def _check_limit_models(ctx: VerifyContext) -> List[ComparisonReport]:
    """Registry covariances: shape, positive semidefiniteness, drift scales."""
    out: List[ComparisonReport] = []
    grid = [k / 10 for k in range(1, 10)]

    model = limit_covariance("runs-time")
    worst = 0.0
    dec = decompose_fluctuations(runs_pattern())
    for i in range(1, 10, 2):
        for j in range(1, 10, 2):
            s, t = Fraction(i, 10), Fraction(j, 10)
            exact = float(fluctuation_covariance(dec, s, t))
            worst = max(worst, abs(exact - model(float(s), float(t))))
    out.append(ComparisonReport("runs-time-covariance-identity-gap", worst, 0.0, 1e-12))

    deficit = 0.0
    for cov in COVARIANCE_MODELS.values():
        deficit = max(deficit, max(0.0, -cov.min_grid_eigenvalue(grid)))
    out.append(ComparisonReport("limit-covariance-psd-deficit", deficit, 0.0, 1e-9))

    for label, model_name, summary, ref_name in (
        ("runs-drift-correction-scale", "runs", None, "runs-correction-scale"),
        ("queue-drift-correction-scale", "queue", None, "queue-correction-scale"),
        (
            "run-length-1-drift-correction-scale",
            "pattern",
            ctx.run_length_1,
            "run-length-1-correction-scale",
        ),
    ):
        sigma, curvature = local_drift_model(model_name, summary=summary)
        value = correction_scale_from_drift(sigma, curvature)
        out.append(ComparisonReport(label, value, ctx.reference(ref_name), 1e-12))
    return out


# -- Monte Carlo reproductions (full scale) ----------------------------------


def _sweep(ctx: VerifyContext, model: str, n: int, reps: int, seed: int, **kw):
    """Run one sweep; return it with the row context (model, n, reps, seed)."""
    res = run_sweep(SimConfig(model=model, n=n, reps=reps, base_seed=seed, jobs=ctx.jobs, **kw))
    return res, dict(model=model, n=n, reps=reps, seed=seed)


def _limit_rows(
    ctx: VerifyContext, label: str, res, meta: dict, leading: float, scale: str,
    var_ref: Optional[float] = None,
) -> List[ComparisonReport]:
    """`label`-mean of the sweep's max against `leading` plus the predicted
    n^(1/3) term (scale * parabola-max mean * n^(1/3)), within 0.15 of that
    term; and, given `var_ref`, `label`-variance against it within 5%."""
    n = meta["n"]
    correction = ctx.reference(scale) * ctx.reference("brownian-parabola-mean") * n ** (1.0 / 3.0)
    rows = [ComparisonReport(f"{label}-mean", res.max_stats.mean, leading + correction,
                             0.15 * correction, se=res.max_stats.se(), **meta)]
    if var_ref is not None:
        rows.append(ComparisonReport(f"{label}-variance", res.max_stats.variance(), var_ref,
                                     0.05 * var_ref, **meta))
    return rows


def _mc_vs_exact(quantity: str, res, exact: float, meta: dict) -> ComparisonReport:
    """The sweep's mean max against an exact value, within 4 SE."""
    se = res.max_stats.se()
    return ComparisonReport(quantity, res.max_stats.mean, exact, 4.0 * se, se=se, **meta)


def _exact_max_mean(n: int) -> Fraction:
    return sum(k * p for k, p in max_pmf_gap_dp(n).items())


def _check_small_max_mc(ctx: VerifyContext) -> List[ComparisonReport]:
    """Mean of the trajectory max at n = 3..9 vs the exact value, 4 SE."""
    out: List[ComparisonReport] = []
    base = ctx.seed("small-max-mc")
    for n in range(3, 10):
        res, meta = _sweep(ctx, "runs-linear", n, 1_000_000, mix_key(base, n))
        out.append(_mc_vs_exact(f"small-max-mc-mean-{n}", res, float(_exact_max_mean(n)), meta))
    return out


def _check_reference_maxima(ctx: VerifyContext) -> List[ComparisonReport]:
    """Published mean-of-max values at n = 13 and n = 52.

    The n = 13 sweep is also held to the exact mean within 4 SE.  The quoted
    4.22 lies about 25 SE below that mean, inside its own 0.03 band.
    """
    t0 = time.perf_counter()
    out: List[ComparisonReport] = []
    base = ctx.seed("reference-maxima")
    for n, ref_name, band in ((13, "runs-max-13-mean", 0.03), (52, "runs-max-52-mean", 0.08)):
        res, meta = _sweep(ctx, "runs-linear", n, 1_000_000, mix_key(base, n))
        out.append(
            ComparisonReport(
                f"reference-max-mean-{n}",
                res.max_stats.mean,
                ctx.reference(ref_name),
                band,
                se=res.max_stats.se(),
                **meta,
            )
        )
        if n <= MAX_DP_CELLS:
            exact = float(_exact_max_mean(n))
            out.append(_mc_vs_exact(f"reference-max-mc-vs-exact-{n}", res, exact, meta))
    out.append(
        ComparisonReport("reference-max-runtime-seconds", time.perf_counter() - t0, 0.0, 300.0)
    )
    return out


def _check_desk_scale(ctx: VerifyContext) -> List[ComparisonReport]:
    """Cube-root correction to the runs max at n = 10^6."""
    t0 = time.perf_counter()
    n = 1_000_000
    res, meta = _sweep(ctx, "runs-linear", n, 10_000, ctx.seed("desk-scale-max"))
    var_ref = ctx.reference("runs-variance-rate") * n
    rows = _limit_rows(ctx, "desk-scale-max", res, meta, n / 4, "runs-correction-scale", var_ref)
    seconds = time.perf_counter() - t0
    return rows + [ComparisonReport("desk-scale-runtime-seconds", seconds, 0.0, 1800.0)]


def _check_parabola_mean(ctx: VerifyContext) -> List[ComparisonReport]:
    """Discretized drifted-path max mean, plus the half-step self-check: the
    sampler again at step/2 on a stream family of its own, whose mean must
    lie within 3 times the two estimates' summed SEs of the first."""
    config = VSamplerConfig(base_seed=ctx.base_seed, jobs=ctx.jobs)
    est = sample_parabola_max(config)
    fine = sample_parabola_max(
        replace(config, step=config.step / 2, base_seed=mix_key(config.base_seed, 1))
    )
    return [
        ComparisonReport(
            "parabola-max-mean",
            est.mean,
            ctx.reference("brownian-parabola-mean"),
            0.02,
            se=est.se,
            reps=config.paths,
            seed=config.base_seed,
        ),
        ComparisonReport(
            "parabola-step-drift",
            abs(est.mean - fine.mean),
            0.0,
            3.0 * (est.se + fine.se),
            reps=config.paths,
            seed=config.base_seed,
        ),
    ]


def _grid_violations(
    empirical: np.ndarray, se: np.ndarray, reference: np.ndarray
) -> Tuple[int, float]:
    """(count outside band, worst |gap|/band) with the 3 SE / 0.01 floor.

    A NaN ratio is neither counted nor the worst (`fmax` skips it).
    """
    ratio = np.abs(empirical - reference) / se_band(se)
    return int(np.count_nonzero(ratio > 1.0)), float(np.fmax.reduce(ratio, axis=None, initial=0.0))


def _check_covariance_grids(ctx: VerifyContext) -> List[ComparisonReport]:
    """Empirical covariance grids against the limit forms, plus the swap test.

    The swap run compares each empirical grid against the *other* model's
    reference; the suite passes only if that deliberately wrong comparison
    fails, which pins down that the bands are tight enough to tell the two
    covariances apart.
    """
    n, reps = 10_000, 10_000
    grid = tuple(k / 10 for k in range(2, 9))
    # label -> (swept model, limit covariance it is held to)
    grids = {"cov-runs-discrete": ("runs-linear", "runs-discrete"),
             "cov-runs-time": ("runs-time", "runs-time")}
    swept = [
        (label, model_tag,
         empirical_covariance_grid(model_tag, n=n, reps=reps, grid=grid, seed=ctx.seed(label),
                                   jobs=ctx.jobs),
         limit_covariance(kernel).grid_matrix(grid))
        for label, (model_tag, kernel) in grids.items()
    ]

    out: List[ComparisonReport] = []
    for label, model_tag, res, reference in swept:
        violations, worst = _grid_violations(res.covariance, res.se, reference)
        out.append(ComparisonReport(f"{label}-violations", violations, 0, 0, model=model_tag,
                                    n=n, reps=reps, seed=ctx.seed(label)))
        out.append(
            ComparisonReport(f"{label}-worst-band-ratio", worst, 0.0, 1.0, model=model_tag, n=n)
        )

    # each grid against the other grid's reference
    swap_detected = all(
        _grid_violations(res.covariance, res.se, other)[0] > 0
        for (_, _, res, _), (_, _, _, other) in zip(swept, reversed(swept))
    )
    out.append(
        ComparisonReport("cov-swap-sensitivity-detected", 1.0 if swap_detected else 0.0, 1.0, 0.0)
    )
    return out


def _check_queues(ctx: VerifyContext) -> List[ComparisonReport]:
    """Queue-size max moments and the two-implementation KS comparison."""
    n = 10_000
    res, meta = _sweep(ctx, "priority-queue", n, 10_000, ctx.seed("queue-sweep"))
    out = _limit_rows(ctx, "queue-max", res, meta, n / 2, "queue-correction-scale", n / 4)

    ks_n, ks_reps = 100, 100_000
    pq, meta = _sweep(
        ctx, "priority-queue", ks_n, ks_reps, ctx.seed("queue-ks-pq"), keep_max_samples=True
    )
    lazy, _ = _sweep(
        ctx, "lazy-hash", ks_n, ks_reps, ctx.seed("queue-ks-lazy"), keep_max_samples=True
    )
    out.append(
        ComparisonReport(
            "queue-implementations-ks",
            ks_statistic(pq.max_samples, lazy.max_samples),
            0.0,
            ks_critical_value(ks_reps, ks_reps),
            **meta,
        )
    )
    return out


def _check_pattern_max_mc(ctx: VerifyContext) -> List[ComparisonReport]:
    """Run-length-1 window max at n = 10^5 vs its cube-root prediction."""
    n = 100_000
    res, meta = _sweep(
        ctx, "pattern", n, 10_000, ctx.seed("pattern-max-mc"), pattern=run_length_pattern(1)
    )
    return _limit_rows(ctx, "pattern-max", res, meta, 4 * n / 27, "run-length-1-correction-scale")


# -- harness -----------------------------------------------------------------


_Check = Callable[[VerifyContext], List[ComparisonReport]]

CHECKS: Tuple[Tuple[str, str, _Check], ...] = (
    ("exact-moments", "quick", _check_exact_moments),
    ("small-max-exact", "quick", _check_small_max_exact),
    ("pattern-closed-forms", "quick", _check_pattern_closed_forms),
    ("random-route-agreement", "quick", _check_random_routes),
    ("limit-model-identities", "quick", _check_limit_models),
    ("small-max-mc", "full", _check_small_max_mc),
    ("reference-maxima", "full", _check_reference_maxima),
    ("desk-scale-max", "full", _check_desk_scale),
    ("parabola-mean", "full", _check_parabola_mean),
    ("covariance-grids", "full", _check_covariance_grids),
    ("queues", "full", _check_queues),
    ("pattern-max-mc", "full", _check_pattern_max_mc),
)


def run_checks(
    scale: str = "quick",
    *,
    base_seed: int = 0,
    jobs: int = 1,
    overrides: Optional[Mapping[str, float]] = None,
    progress: Optional[Callable[[str, Sequence[ComparisonReport]], None]] = None,
) -> VerificationResult:
    """Run the named checks at the given scale and collect their reports.

    Bad arguments raise ValueError before any check runs.
    """
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - set(REFERENCES))
    if unknown:
        known = ", ".join(sorted(REFERENCES))
        raise ValueError(f"unknown reference constant(s): {', '.join(unknown)}; choose from {known}")
    ctx = VerifyContext(base_seed=base_seed, jobs=jobs, overrides=overrides)
    reports: List[ComparisonReport] = []
    for name, tier, func in CHECKS:
        if scale == "quick" and tier != "quick":
            continue
        rows = func(ctx)
        reports.extend(rows)
        if progress is not None:
            progress(name, rows)
    return VerificationResult(reports)
