"""Streaming moments, covariance grids, and empirical-vs-reference reports.

Accumulators here are the aggregation side of the simulation sweeps: single
writer, fed one batch at a time in a fixed order (a sweep's chunks, in chunk
order), with stable Welford-style updates so that batched feeding agrees
with one long accumulation to near machine precision.  Comparison reports
are the common currency between the verification harness and the
command-line output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MomentAccumulator",
    "CoMomentAccumulator",
    "jackknife_covariance",
    "CovarianceGridResult",
    "empirical_covariance_grid",
    "ks_statistic",
    "ks_critical_value",
    "ComparisonReport",
    "compare",
    "se_band",
]


@dataclass
class MomentAccumulator:
    """Running count, mean, and sum of squared deviations."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def add_batch(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        count = values.size
        bmean = float(values.mean())
        bm2 = float(((values - bmean) ** 2).sum())
        total = self.count + count
        delta = bmean - self.mean
        self.mean += delta * count / total
        self.m2 += bm2 + delta * delta * self.count * count / total
        self.count = total

    def variance(self) -> float:
        """Sample variance (divisor count - 1); nan below two values."""
        if self.count <= 1:
            return float("nan")
        return self.m2 / (self.count - 1)

    def sd(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def se(self) -> float:
        return self.sd() / math.sqrt(self.count)


@dataclass
class CoMomentAccumulator:
    """Vector-valued analogue tracking a full co-moment matrix."""

    dim: int
    count: int = 0
    mean: Optional[np.ndarray] = None
    comoment: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mean is None:
            self.mean = np.zeros(self.dim, dtype=np.float64)
        if self.comoment is None:
            self.comoment = np.zeros((self.dim, self.dim), dtype=np.float64)

    def add_batch(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"expected rows of width {self.dim}, got shape {rows.shape}")
        k = rows.shape[0]
        if k == 0:
            return
        bmean = rows.mean(axis=0)
        centered = rows - bmean
        bcm = centered.T @ centered
        total = self.count + k
        delta = bmean - self.mean
        self.mean = self.mean + delta * (k / total)
        self.comoment = (
            self.comoment + bcm + np.outer(delta, delta) * (self.count * k / total)
        )
        self.count = total

    def covariance(self) -> np.ndarray:
        """Sample covariance matrix (divisor count - 1)."""
        if self.count <= 1:
            raise ValueError(f"need at least 2 samples, have {self.count}")
        return self.comoment / (self.count - 1)


def jackknife_covariance(samples: np.ndarray, scale: float = 1.0):
    """Sample covariance of the rows with leave-one-out standard errors.

    Returns (covariance, se), both dim x dim and multiplied by `scale`.
    The leave-one-out estimates come from downdated sums, so the cost is
    O(reps * dim^2) rather than reps full recomputations.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ValueError(f"need a 2-d sample with at least 3 rows, got shape {x.shape}")
    reps = x.shape[0]
    total = x.sum(axis=0)
    prods = x.T @ x
    cov = (prods - np.outer(total, total) / reps) / (reps - 1)
    loo_total = total[None, :] - x
    loo_prods = prods[None, :, :] - x[:, :, None] * x[:, None, :]
    loo_cov = (
        loo_prods - loo_total[:, :, None] * loo_total[:, None, :] / (reps - 1)
    ) / (reps - 2)
    center = loo_cov.mean(axis=0)
    se = np.sqrt((reps - 1) / reps * ((loo_cov - center) ** 2).sum(axis=0))
    return cov * scale, se * scale


@dataclass(frozen=True)
class CovarianceGridResult:
    """Empirical per-cell covariance of process values on a time grid."""

    model: str
    n: int
    reps: int
    seed: int
    grid: Tuple[float, ...]
    covariance: np.ndarray  # n^-1 times the sample covariance across reps
    se: np.ndarray          # jackknife standard errors, same scaling


def empirical_covariance_grid(
    model: str,
    n: int,
    reps: int,
    grid: Sequence[float],
    seed: int,
    *,
    jobs: int = 1,
) -> CovarianceGridResult:
    """Sweep the model and estimate n^-1 Cov of its values on the grid.

    Grid entries are fill fractions in (0, 1); discrete-step models sample
    at step round(t * n).  Standard errors are jackknife-over-reps.
    """
    from .evolve import SimConfig, run_sweep  # deferred: evolve depends on stats

    config = SimConfig(
        model=model,
        n=n,
        reps=reps,
        base_seed=seed,
        grid=tuple(float(t) for t in grid),
        jobs=jobs,
        keep_grid_samples=True,
    )
    result = run_sweep(config)
    cov, se = jackknife_covariance(result.grid_samples, scale=1.0 / n)
    skew = float(np.abs(cov - cov.T).max())
    if skew > 1e-12:
        raise ArithmeticError(f"covariance grid asymmetric by {skew}")
    return CovarianceGridResult(
        model=model,
        n=n,
        reps=reps,
        seed=seed,
        grid=config.grid,
        covariance=cov,
        se=se,
    )


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("need non-empty samples")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ks_critical_value(n1: int, n2: int) -> float:
    """Asymptotic two-sample KS critical value at level 0.01 (conservative
    for ties)."""
    c = math.sqrt(-0.5 * math.log(0.01 / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def se_band(se: float) -> float:
    """Comparison band: 3 SE with an absolute floor of 0.01."""
    return max(3.0 * se, 0.01)


@dataclass(frozen=True)
class ComparisonReport:
    """One empirical value against one reference with an agreed band."""

    quantity: str
    value: float
    reference: float
    band: float
    se: Optional[float] = None
    source: str = "exact"  # exact | limit | quoted-constant
    model: Optional[str] = None
    n: Optional[int] = None
    reps: Optional[int] = None
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return abs(self.value - self.reference) <= self.band

    @property
    def z_score(self) -> float:
        if not self.se:
            return float("nan")
        return (self.value - self.reference) / self.se

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.quantity}: {self.value:.6g} vs {self.reference:.6g}"
            f" (band {self.band:.3g})"
        )


def compare(
    quantity: str,
    value: float,
    reference: float,
    band: float,
    *,
    se: Optional[float] = None,
    source: str = "exact",
    model: Optional[str] = None,
    n: Optional[int] = None,
    reps: Optional[int] = None,
    seed: Optional[int] = None,
) -> ComparisonReport:
    """Package a comparison; the pass flag is derived, never stored."""
    return ComparisonReport(
        quantity=quantity,
        value=float(value),
        reference=float(reference),
        band=float(band),
        se=None if se is None else float(se),
        source=source,
        model=model,
        n=n,
        reps=reps,
        seed=seed,
    )
