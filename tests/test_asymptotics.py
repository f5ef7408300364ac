"""Parabola-max sampler, second-order predictions, and limit covariances.

The sampler tests lean on two structural facts: streams are per-path (so
estimates are reproducible and merge-order free), and increments are drawn
step-major (so a longer horizon extends the same discretized path, making
the path maximum monotone in the horizon).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from runslab import asymptotics
from runslab.asymptotics import (
    COVARIANCE_MODELS,
    VSamplerConfig,
    correction_scale_from_drift,
    limit_covariance,
    local_drift_model,
    parabola_path_max,
    predict_max_mean,
    predict_max_var,
    sample_parabola_max,
)
from runslab.evolve import MODEL_ALIASES
from runslab.patterns import run_length_pattern, runs_pattern, summarize
from runslab.verify import REFERENCES

SMALL = VSamplerConfig(step=0.01, horizon=3.0, paths=150, base_seed=7)
V = REFERENCES["brownian-parabola-mean"]


# -- parabola-max sampler ----------------------------------------------------


def test_sampler_is_deterministic_per_config():
    first = sample_parabola_max(SMALL)
    second = sample_parabola_max(SMALL)
    assert first == second
    assert sample_parabola_max(replace(SMALL, base_seed=8)).mean != first.mean


def test_path_max_nonnegative_and_monotone_in_horizon():
    # Same stream, longer draw: the first rows coincide, so the max over the
    # longer path dominates the max over the shorter one.
    for seed in range(5):
        short = parabola_path_max(np.random.default_rng(seed), 300, 0.01)
        long = parabola_path_max(np.random.default_rng(seed), 600, 0.01)
        assert 0.0 <= short <= long


def test_path_max_equals_the_step_major_formula():
    # The sampler sums each side as a row of the draw's transpose against a
    # drift table made once per grid; the (steps, 2) column form must give
    # the same bits, whatever grid came before.
    for seed, steps, step in ((0, 300, 0.01), (1, 4000, 1e-3), (2, 300, 0.01), (3, 301, 0.005)):
        increments = np.random.default_rng(seed).standard_normal((steps, 2)) * math.sqrt(step)
        both_sides = np.cumsum(increments, axis=0)
        t = step * np.arange(1, steps + 1)
        both_sides -= (0.5 * t * t)[:, None]
        expected = max(0.0, float(both_sides.max()))
        assert parabola_path_max(np.random.default_rng(seed), steps, step) == expected


def test_small_sample_lands_near_reference():
    # 150 paths is deliberately rough; just confirm the right ballpark and
    # that the spread fields are coherent.
    est = sample_parabola_max(SMALL)
    assert 0.7 < est.mean < 1.3
    assert est.se == pytest.approx(est.sd / math.sqrt(SMALL.paths))
    lo, hi = est.ci()
    assert lo == pytest.approx(est.mean - 3 * est.se)
    assert hi == pytest.approx(est.mean + 3 * est.se)
    assert hi - lo == pytest.approx(6 * est.se)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        VSamplerConfig(step=0.0)
    with pytest.raises(ValueError):
        VSamplerConfig(step=0.02)  # too coarse for the bias budget
    with pytest.raises(ValueError):
        VSamplerConfig(horizon=2.0)
    with pytest.raises(ValueError):
        VSamplerConfig(paths=1)
    with pytest.raises(ValueError):
        VSamplerConfig(jobs=0)
    # paths of 4e9 and 1e12 steps, refused before any is drawn
    with pytest.raises(ValueError, match=r"horizon/step <= 4194304, got 4e\+09"):
        VSamplerConfig(step=1e-9)
    with pytest.raises(ValueError, match=r"horizon/step <= 4194304, got 1e\+12"):
        VSamplerConfig(horizon=1e9)
    assert asymptotics.MAX_PATH_STEPS == 1 << 22
    assert VSamplerConfig(step=4.0 / (1 << 22)).steps == 1 << 22  # the cap itself
    assert VSamplerConfig(step=1e-3, horizon=4.0).steps == 4000
    assert SMALL.steps == 300


def test_sampler_bit_identical_across_jobs():
    # Three key blocks, so two workers really split the paths.  The pinned
    # mean and sd are what the serial per-path loop gave before the blocks
    # could run in worker processes.
    config = VSamplerConfig(step=0.01, horizon=3.0, paths=9000, base_seed=7)
    serial = sample_parabola_max(config)
    assert (serial.mean, serial.sd) == (0.9411636593014734, 0.5812356775771468)
    parallel = replace(config, jobs=2)
    assert sample_parabola_max(parallel) == serial


# -- mean / variance predictions ---------------------------------------------


def test_predicted_mean_formulas():
    n = 1000
    cube = n ** (1 / 3)
    runs = predict_max_mean("runs", n, v_mean=V)
    assert runs == pytest.approx(n / 4 + 0.5 * V * cube)
    assert predict_max_mean("runs-linear", n, v_mean=V) == runs
    assert predict_max_mean("runs-cyclic", n, v_mean=V) == runs
    assert predict_max_mean("runs-time", n, v_mean=V) == runs
    queue = predict_max_mean("queue", n, v_mean=V)
    assert queue == pytest.approx(n / 2 + V * cube)
    assert predict_max_mean("pq", n, v_mean=V) == queue
    assert predict_max_mean("priority-queue", n, v_mean=V) == queue
    assert predict_max_mean("lazy-hash", n, v_mean=V) == queue
    # changing the constant shifts only the correction term
    bumped = predict_max_mean("runs", n, v_mean=1.0)
    assert bumped - runs == pytest.approx(0.5 * (1.0 - V) * cube)
    with pytest.raises(TypeError):
        predict_max_mean("runs", n)  # the constant has one home: the caller passes it


def test_model_names_and_families():
    # One table of names serves the CLI and the predictions.
    families = {
        "runs": "runs", "runs-linear": "runs", "runs-cyclic": "runs", "runs-time": "runs",
        "queue": "queue", "pq": "queue", "priority-queue": "queue", "lazy-hash": "queue",
        "pattern": "pattern",
    }
    assert set(MODEL_ALIASES) == set(families)
    for name, family in families.items():
        assert asymptotics._family(name) == family
    with pytest.raises(ValueError, match=r"^unknown model 'runs-queue'$"):
        predict_max_var("runs-queue", 100)


def test_predicted_variance_formulas():
    assert predict_max_var("runs", 160) == 10.0
    assert predict_max_var("queue", 160) == 40.0
    summary = summarize(run_length_pattern(1))
    assert predict_max_var("pattern", 729, summary=summary) == pytest.approx(76.0)


def test_pattern_predictions_require_summary():
    with pytest.raises(ValueError):
        predict_max_mean("pattern", 100, v_mean=V)
    with pytest.raises(ValueError):
        predict_max_var("pattern", 100)
    with pytest.raises(ValueError):
        predict_max_mean("no-such-model", 100, v_mean=V)
    with pytest.raises(ValueError):
        predict_max_mean("runs", 0, v_mean=V)
    with pytest.raises(ValueError):
        predict_max_var("runs", 0)
    # a summary belongs to a pattern: with a runs or queue name it is refused
    summary = summarize(runs_pattern())
    with pytest.raises(ValueError, match=r"^model 'runs' takes no AsymptoticSummary$"):
        predict_max_mean("runs", 100, summary=summary, v_mean=V)
    with pytest.raises(ValueError, match=r"^model 'queue' takes no AsymptoticSummary$"):
        predict_max_var("queue", 100, summary=summary)


def test_pattern_mean_prediction_uses_summary_scale():
    summary = summarize(runs_pattern())
    n = 8000
    via_pattern = predict_max_mean("pattern", n, summary=summary, v_mean=V)
    assert via_pattern == pytest.approx(predict_max_mean("runs", n, v_mean=V), rel=1e-12)


# Exact predictions at n = 1, 10^3 and 10^6, and the drift model, for each
# family, recorded while each function still spelled its family's constants
# out itself.  The pattern's come from the run-length-1 summary.
PREDICTION_SIZES = (1, 10**3, 10**6)
PREDICTION_PINS = {
    "runs": (
        (0.7480964999999999, 254.980965, 250049.80965),
        (0.0625, 62.5, 62500.0),
        (0.7071067811865475, 1.0),
    ),
    "queue": (
        (1.4961929999999999, 509.96193, 500099.6193),
        (0.25, 250.0, 250000.0),
        (1.4142135623730951, 2.0),
    ),
    "pattern": (
        (0.9323059466738762, 155.98972613340544, 148226.56392800072),
        (0.10425240054869685, 104.25240054869684, 104252.40054869685),
        (0.9938079899999065, 1.0),
    ),
}


def test_predictions_match_pinned_values():
    run_length_1 = summarize(run_length_pattern(1))
    for name, tag in MODEL_ALIASES.items():
        family = "pattern" if tag == "pattern" else "runs" if tag.startswith("runs") else "queue"
        summary = run_length_1 if family == "pattern" else None
        means, variances, drift = PREDICTION_PINS[family]
        got = tuple(predict_max_mean(name, n, summary=summary, v_mean=V) for n in PREDICTION_SIZES)
        assert got == means, name
        got = tuple(predict_max_var(name, n, summary=summary) for n in PREDICTION_SIZES)
        assert got == variances, name
        assert local_drift_model(name, summary=summary) == drift, name


# -- local drift models and the correction scale -----------------------------


def test_drift_models_reproduce_known_scales():
    d, c = local_drift_model("runs")
    assert (d, c) == (1 / math.sqrt(2), 1.0)
    assert correction_scale_from_drift(d, c) == pytest.approx(0.5, rel=1e-12)
    d, c = local_drift_model("queue")
    assert (d, c) == (math.sqrt(2), 2.0)
    assert correction_scale_from_drift(d, c) == pytest.approx(1.0, rel=1e-12)
    # run-length-1 from its summary: the closed forms sqrt(80/81) and 1,
    # bit for bit
    d, c = local_drift_model("pattern", summary=summarize(run_length_pattern(1)))
    assert (d, c) == (math.sqrt(80 / 81), 1.0)


def test_drift_model_from_summary_closes_the_loop():
    # summary -> (diffusion, curvature) -> correction scale must reproduce
    # the summary's own correction scale.
    for pattern in (runs_pattern(), run_length_pattern(1), run_length_pattern(3)):
        summary = summarize(pattern)
        d, c = local_drift_model("pattern", summary=summary)
        assert correction_scale_from_drift(d, c) == pytest.approx(
            summary.correction_scale, rel=1e-12
        )


def test_drift_model_validation():
    with pytest.raises(ValueError):
        local_drift_model("pattern")
    with pytest.raises(ValueError):
        local_drift_model("run-length-1")  # a pattern: pass its summary
    with pytest.raises(ValueError, match=r"^model 'runs' takes no AsymptoticSummary$"):
        local_drift_model("runs", summary=summarize(runs_pattern()))
    with pytest.raises(ValueError):
        correction_scale_from_drift(1.0, 0.0)
    with pytest.raises(ValueError):
        correction_scale_from_drift(1.0, -2.0)


# -- limit covariance models -------------------------------------------------

GRID9 = [k / 10 for k in range(1, 10)]


def test_registry_contents():
    assert set(COVARIANCE_MODELS) == {
        "centered-products-1",
        "runs-discrete",
        "centered-products-3",
        "runs-time",
        "queue-discrete",
        "queue-time",
    }
    with pytest.raises(ValueError):
        limit_covariance("no-such-kernel")


@pytest.mark.parametrize("name", sorted(COVARIANCE_MODELS))
def test_models_are_symmetric_and_psd_on_grid(name):
    model = limit_covariance(name)
    for s in GRID9:
        for t in GRID9:
            assert model(s, t) == model(t, s)
    assert model.min_grid_eigenvalue(GRID9) > -1e-10
    matrix = model.grid_matrix(GRID9)
    assert matrix.shape == (9, 9)
    assert np.all(np.diag(matrix) >= 0)


def test_model_closed_forms_spot_values():
    assert limit_covariance("runs-discrete")(0.2, 0.6) == pytest.approx(0.0064)
    assert limit_covariance("centered-products-1")(0.2, 0.6) == pytest.approx(0.08)
    assert limit_covariance("centered-products-3")(0.2, 0.6) == pytest.approx(0.08**3)
    s, t = 0.3, 0.7
    assert limit_covariance("runs-time")(s, t) == pytest.approx(
        s * (1 - t) * (1 - s - 2 * t + 3 * s * t)
    )
    assert limit_covariance("queue-discrete")(s, t) == pytest.approx(
        4 * (s * (1 - t)) ** 2
    )
    assert limit_covariance("queue-time")(s, t) == pytest.approx(
        2 * s * (1 - t) - 4 * s * (1 - s) * t * (1 - t)
    )


def test_model_rejects_times_outside_unit_interval():
    model = limit_covariance("runs-time")
    with pytest.raises(ValueError):
        model(-0.1, 0.5)
    with pytest.raises(ValueError):
        model(0.5, 1.2)
