"""Limit-theory predictions for process maxima and their covariances.

Three ingredients:

* a Monte Carlo sampler for the mean of max_t (B(t) - t^2/2) over two-sided
  Brownian motion -- the constant that multiplies every n^(1/3) second-order
  correction; the literature value 0.996193 is kept as a reference in
  `verify.REFERENCES` and the sampler is the in-house oracle for it (verify
  also runs it at half the step, its discretization self-check);
* first- and second-order predictions for the mean and variance of the
  maxima of the runs, queue, and general window-pattern processes, all read
  off one limit law per family (`_limit_law`): peak mean, variance rate,
  correction scale, and the diffusion and curvature of the local limit --
  literals for runs and queues, a pattern's `AsymptoticSummary` otherwise;
* the closed-form limit covariances of the centered processes, as
  comparison targets for empirical covariance grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._rng import StreamPool, mix_keys, ordered_map
from .evolve import MODEL_ALIASES
from .patterns import AsymptoticSummary
from .stats import MomentAccumulator

__all__ = [
    "VSamplerConfig",
    "VEstimate",
    "parabola_path_max",
    "sample_parabola_max",
    "predict_max_mean",
    "predict_max_var",
    "local_drift_model",
    "correction_scale_from_drift",
    "CovarianceModel",
    "limit_covariance",
    "COVARIANCE_MODELS",
]


# A path holds about 40 bytes a step (draws, both sides, drift table): 170 MB.
MAX_PATH_STEPS = 1 << 22


@dataclass(frozen=True)
class VSamplerConfig:
    """Discretization and sampling plan for the parabola-max constant.

    The negative quadratic drift confines the argmax; with horizon >= 3 the
    mass beyond the truncation is negligible next to the +-0.02 use case,
    and the step bound keeps the discretization bias O(sqrt(step)) small.
    Both limits are validated, not silently accepted, and so is the path's
    size (MAX_PATH_STEPS).  `jobs` worker processes share the paths; the
    estimate does not depend on it.
    """

    step: float = 1e-3
    horizon: float = 4.0
    paths: int = 100_000
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if not 0.0 < self.step <= 0.01:
            raise ValueError(f"step must be in (0, 0.01], got {self.step}")
        if not 3.0 <= self.horizon < math.inf:  # refuses nan and inf too
            raise ValueError(f"horizon must be finite and >= 3, got {self.horizon}")
        if self.horizon / self.step > MAX_PATH_STEPS:
            raise ValueError(f"need horizon/step <= {MAX_PATH_STEPS}, got {self.horizon / self.step:.6g}")
        if self.paths < 2:
            raise ValueError(f"need at least 2 paths, got {self.paths}")
        if self.jobs < 1:
            raise ValueError(f"need jobs >= 1, got {self.jobs}")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.step))


@dataclass(frozen=True)
class VEstimate:
    mean: float
    sd: float
    se: float

    def ci(self) -> Tuple[float, float]:
        """The mean plus and minus 3 SE."""
        return self.mean - 3.0 * self.se, self.mean + 3.0 * self.se


@functools.lru_cache(maxsize=4)
def _parabola(steps: int, step: float) -> np.ndarray:
    """t^2/2 at t = step, 2 step, ..., steps * step, made once per grid."""
    t = step * np.arange(1, steps + 1)
    drift = 0.5 * t * t
    drift.flags.writeable = False
    return drift


def parabola_path_max(rng: np.random.Generator, steps: int, step: float) -> float:
    """Max of B(t) - t^2/2 on one two-sided discretized path (>= 0: t=0 term).

    Increments are drawn step-major (a (steps, 2) draw), so extending the
    horizon on the same stream extends the same path -- the basis of the
    horizon-monotonicity property test.  Each side is scaled and summed as
    a contiguous row of the draw's transpose, with the same bits.
    """
    draws = rng.standard_normal((steps, 2))
    both_sides = np.multiply(draws.T, math.sqrt(step), out=np.empty((2, steps)))
    np.cumsum(both_sides, axis=1, out=both_sides)
    both_sides -= _parabola(steps, step)
    return max(0.0, float(both_sides.max()))


# Path keys are derived this many at a time, so memory stays flat in the
# number of paths; a block is also the unit of work a worker process takes.
_KEY_BLOCK = 1 << 12


def _path_maxima(config: VSamplerConfig, lo: int, count: int) -> List[float]:
    """The maxima of paths lo..lo+count-1, each on its own stream."""
    pool = StreamPool(config.base_seed)
    return [
        parabola_path_max(pool.rekey(key), config.steps, config.step)
        for key in mix_keys(config.base_seed, lo, count).tolist()
    ]


def sample_parabola_max(config: VSamplerConfig) -> VEstimate:
    """Monte Carlo estimate of the parabola-max mean, one stream per path.

    Blocks of paths may run in worker processes, but their maxima enter the
    accumulator one at a time in path order, so the estimate is bit-identical
    for every `jobs`.
    """
    starts = range(0, config.paths, _KEY_BLOCK)
    args = [(config, lo, min(_KEY_BLOCK, config.paths - lo)) for lo in starts]
    acc = MomentAccumulator()
    for block in ordered_map(_path_maxima, args, config.jobs):
        for value in block:
            acc.add(value)
    return VEstimate(mean=acc.mean, sd=acc.sd(), se=acc.se())


# -- first/second-order predictions ------------------------------------------

def _family(model: str) -> str:
    """The family (runs, queue or pattern) of any name `MODEL_ALIASES` accepts."""
    try:
        tag = MODEL_ALIASES[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}") from None
    return "runs" if tag.startswith("runs") else "pattern" if tag == "pattern" else "queue"


# (peak mean, variance rate, correction scale, diffusion, curvature
# coefficient) of the families whose limit law is known in closed form
_LIMIT_LAWS = {
    "runs": (0.25, 0.0625, 0.5, 1.0 / math.sqrt(2.0), 1.0),
    "queue": (0.5, 0.25, 1.0, math.sqrt(2.0), 2.0),
}


def _limit_law(model: str, summary: Optional[AsymptoticSummary]):
    """The model's (peak mean, variance rate, correction scale, diffusion,
    curvature coefficient): the family's literals for runs and queues, the
    summary's values for a pattern, which must come with its summary.  A
    summary given with a runs or queue name is refused, not ignored."""
    family = _family(model)
    if family != "pattern":
        if summary is not None:
            raise ValueError(f"model {model!r} takes no AsymptoticSummary")
        return _LIMIT_LAWS[family]
    if summary is None:
        raise ValueError("pattern predictions need an AsymptoticSummary")
    return (summary.peak_mean, summary.variance_rate, summary.correction_scale,
            math.sqrt(summary.jump_variance), abs(summary.peak_curvature) / 2.0)


def predict_max_mean(
    model: str,
    n: int,
    *,
    summary: Optional[AsymptoticSummary] = None,
    v_mean: float,
) -> float:
    """Leading term plus the n^(1/3) correction for the expected maximum:
    peak mean * n + correction scale * v * n^(1/3).

    runs: n/4 + (1/2) v n^(1/3); queue: n/2 + v n^(1/3); pattern: from the
    given summary.  `v_mean` is the parabola-max mean v, for instance
    `REFERENCES["brownian-parabola-mean"]` or a `sample_parabola_max` estimate.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    peak_mean, _, scale, _, _ = _limit_law(model, summary)
    return peak_mean * n + scale * v_mean * float(n) ** (1.0 / 3.0)


def predict_max_var(
    model: str, n: int, *, summary: Optional[AsymptoticSummary] = None
) -> float:
    """Leading-order variance of the maximum: n/16, n/4, or variance_rate*n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _limit_law(model, summary)[1] * n


def local_drift_model(model, *, summary: Optional[AsymptoticSummary] = None):
    """(diffusion, curvature coefficient) of the n^(1/3)-scale local limit.

    Near its peak the centered process looks like diffusion * B(x) minus
    curvature_coefficient * x^2.  Accepts the family names; a pattern
    summary supplies the general case.
    """
    return _limit_law(model, summary)[3:]


def correction_scale_from_drift(diffusion: float, curvature_coefficient: float) -> float:
    """Scale of the cube-root correction implied by a local drift model.

    (diffusion^4 / (2 * curvature_coefficient))^(1/3); with the runs model's
    (2^-1/2, 1) this is 1/2, with the queue's (2^1/2, 2) it is 1.
    """
    if curvature_coefficient <= 0:
        raise ValueError("curvature coefficient must be positive")
    return (diffusion**4 / (2.0 * curvature_coefficient)) ** (1.0 / 3.0)


# -- limit covariance models -------------------------------------------------


@dataclass(frozen=True)
class CovarianceModel:
    """A closed-form bivariate covariance on [0,1]^2, symmetric by design."""

    func: Callable[[float, float], float]

    def __call__(self, s: float, t: float) -> float:
        if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
            raise ValueError(f"times must lie in [0,1], got ({s}, {t})")
        lo, hi = (s, t) if s <= t else (t, s)
        return self.func(lo, hi)

    def grid_matrix(self, grid: Sequence[float]) -> np.ndarray:
        pts = [float(t) for t in grid]
        return np.array([[self(s, t) for t in pts] for s in pts])

    def min_grid_eigenvalue(self, grid: Sequence[float]) -> float:
        return float(np.linalg.eigvalsh(self.grid_matrix(grid)).min())


# Arguments arrive ordered, s <= t (CovarianceModel.__call__ sorts them).
COVARIANCE_MODELS: Dict[str, CovarianceModel] = {
    # centered occupancy sum (bridge-like)
    "centered-products-1": CovarianceModel(lambda s, t: s * (1.0 - t)),
    # step-indexed run counts sampled at steps round(t*n)
    "runs-discrete": CovarianceModel(lambda s, t: (s * (1.0 - t)) ** 2),
    # third-order centered product sum
    "centered-products-3": CovarianceModel(lambda s, t: (s * (1.0 - t)) ** 3),
    # run counts under independent uniform arrival times
    "runs-time": CovarianceModel(
        lambda s, t: s * (1.0 - t) * (1.0 - s - 2.0 * t + 3.0 * s * t)
    ),
    # queue occupancy sampled at steps round(t*2n)
    "queue-discrete": CovarianceModel(lambda s, t: 4.0 * (s * (1.0 - t)) ** 2),
    # queue occupancy at fixed times
    "queue-time": CovarianceModel(
        lambda s, t: 2.0 * s * (1.0 - t) - 4.0 * s * (1.0 - s) * t * (1.0 - t)
    ),
}


def limit_covariance(name: str) -> CovarianceModel:
    try:
        return COVARIANCE_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown covariance model {name!r}; choose from {sorted(COVARIANCE_MODELS)}"
        ) from None

