"""Exact analysis and simulation of runs in randomly evolving sequences.

The package splits into an exact layer (counting distributions, window
functionals with rational arithmetic, limit covariances) and a simulation
layer (incremental model sweeps, the drifted-path max sampler), tied
together by a verification harness and a command-line front end.
"""

__version__ = "0.1.0"

from ._rng import mix_key, stream, StreamPool
from .combinatorics import (
    RunCountPmf,
    brute_force_max_pmf,
    brute_force_pattern_moments,
    count_runs,
    max_pmf_subset_dp,
    mean_runs_discrete,
    mean_runs_time,
    run_count_pmf,
    run_count_pmf_enumerated,
    var_runs_discrete,
    var_runs_time,
)
from .polys import Polynomial, real_roots_in_interval
from .patterns import (
    AsymptoticSummary,
    FluctuationDecomposition,
    NoInteriorPeakError,
    PatternFunctional,
    constant_pattern,
    decompose_fluctuations,
    fluctuation_covariance,
    load_pattern,
    mean_rate,
    run_length_pattern,
    run_length_reference_constants,
    runs_pattern,
    save_pattern,
    summarize,
    window_lag_covariance,
)
from .evolve import (
    MODELS,
    SimConfig,
    SweepResult,
    Trajectory,
    pattern_from_order,
    run_sweep,
    runs_from_order,
    simulate_lazy_hash,
    simulate_pattern,
    simulate_priority_queue,
    simulate_runs,
    simulate_runs_randomized_time,
)
from .stats import (
    ComparisonReport,
    CoMomentAccumulator,
    CovarianceGridResult,
    MomentAccumulator,
    compare,
    empirical_covariance_grid,
    jackknife_covariance,
    ks_critical_value,
    ks_statistic,
    se_band,
)
from .asymptotics import (
    COVARIANCE_MODELS,
    CovarianceModel,
    DiscretizationCheck,
    VEstimate,
    VSamplerConfig,
    correction_scale_from_drift,
    discretization_self_check,
    limit_covariance,
    local_drift_model,
    predict_max_mean,
    predict_max_var,
    sample_parabola_max,
)
from .verify import REFERENCES, VerificationResult, run_checks

__all__ = [
    "__version__",
    # rng
    "mix_key",
    "stream",
    "StreamPool",
    # combinatorics
    "RunCountPmf",
    "brute_force_max_pmf",
    "brute_force_pattern_moments",
    "count_runs",
    "max_pmf_subset_dp",
    "mean_runs_discrete",
    "mean_runs_time",
    "run_count_pmf",
    "run_count_pmf_enumerated",
    "var_runs_discrete",
    "var_runs_time",
    # polynomials
    "Polynomial",
    "real_roots_in_interval",
    # window functionals
    "AsymptoticSummary",
    "FluctuationDecomposition",
    "NoInteriorPeakError",
    "PatternFunctional",
    "constant_pattern",
    "decompose_fluctuations",
    "fluctuation_covariance",
    "load_pattern",
    "mean_rate",
    "run_length_pattern",
    "run_length_reference_constants",
    "runs_pattern",
    "save_pattern",
    "summarize",
    "window_lag_covariance",
    # simulation
    "MODELS",
    "SimConfig",
    "SweepResult",
    "Trajectory",
    "pattern_from_order",
    "run_sweep",
    "runs_from_order",
    "simulate_lazy_hash",
    "simulate_pattern",
    "simulate_priority_queue",
    "simulate_runs",
    "simulate_runs_randomized_time",
    # statistics
    "ComparisonReport",
    "CoMomentAccumulator",
    "CovarianceGridResult",
    "MomentAccumulator",
    "compare",
    "empirical_covariance_grid",
    "jackknife_covariance",
    "ks_critical_value",
    "ks_statistic",
    "se_band",
    # asymptotics
    "COVARIANCE_MODELS",
    "CovarianceModel",
    "DiscretizationCheck",
    "VEstimate",
    "VSamplerConfig",
    "correction_scale_from_drift",
    "discretization_self_check",
    "limit_covariance",
    "local_drift_model",
    "predict_max_mean",
    "predict_max_var",
    "sample_parabola_max",
    # verification
    "REFERENCES",
    "VerificationResult",
    "run_checks",
]
