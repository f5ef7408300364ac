"""Accumulators, jackknife errors, KS machinery, and comparison reports.

Oracles: numpy's mean/var/cov for the streaming accumulators, scipy's
ks_2samp for the KS statistic, and the classic normal-theory standard
error of a sample variance for the jackknife sanity check.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runslab.stats import (
    CoMomentAccumulator,
    ComparisonReport,
    MomentAccumulator,
    empirical_covariance_grid,
    jackknife_covariance,
    ks_critical_value,
    ks_statistic,
    se_band,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


# -- scalar accumulator ------------------------------------------------------


@given(st.lists(finite_floats, min_size=2, max_size=60))
def test_moment_accumulator_matches_numpy(values):
    acc = MomentAccumulator()
    for v in values:
        acc.add(v)
    arr = np.asarray(values)
    assert acc.count == len(values)
    assert math.isclose(acc.mean, float(arr.mean()), rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(
        acc.variance(), float(arr.var(ddof=1)), rel_tol=1e-9, abs_tol=1e-6
    )


@given(st.lists(st.lists(finite_floats, max_size=30), min_size=1, max_size=6))
def test_merged_parts_equal_one_long_accumulation(parts):
    # A sweep feeds its chunks' batches in chunk order; empty parts are no-ops.
    merged = MomentAccumulator()
    for part in parts:
        merged.add_batch(np.asarray(part))
    direct = MomentAccumulator()
    direct.add_batch(np.asarray([v for part in parts for v in part]))
    assert merged.count == direct.count
    assert math.isclose(merged.mean, direct.mean, rel_tol=1e-12, abs_tol=1e-9)
    assert math.isclose(merged.m2, direct.m2, rel_tol=1e-12, abs_tol=1e-9)


@given(st.lists(finite_floats, min_size=3, max_size=40), st.integers(0, 40))
def test_batch_and_single_adds_agree(values, cut):
    cut = min(cut, len(values))
    acc = MomentAccumulator()
    acc.add_batch(np.asarray(values[:cut]))
    for v in values[cut:]:
        acc.add(v)
    direct = MomentAccumulator()
    direct.add_batch(np.asarray(values))
    assert math.isclose(acc.mean, direct.mean, rel_tol=1e-12, abs_tol=1e-9)
    assert math.isclose(acc.m2, direct.m2, rel_tol=1e-12, abs_tol=1e-9)


def test_moment_accumulator_edge_cases():
    acc = MomentAccumulator()
    assert math.isnan(acc.variance())
    acc.add(3.0)
    assert math.isnan(acc.variance())  # the sample variance needs two points
    assert (acc.mean, acc.m2) == (3.0, 0.0)
    acc.add_batch(np.asarray([]))  # no-op
    assert acc.count == 1
    acc.add(5.0)
    assert acc.variance() == pytest.approx(2.0)
    assert acc.sd() == pytest.approx(math.sqrt(2.0))
    assert acc.se() == pytest.approx(1.0)


def test_moment_accumulator_merge_empty_is_noop():
    acc = MomentAccumulator()
    acc.add_batch(np.asarray([1.0, 2.0, 4.0]))
    before = (acc.count, acc.mean, acc.m2)
    acc.add_batch(np.asarray([]))
    assert (acc.count, acc.mean, acc.m2) == before


# -- vector accumulator ------------------------------------------------------


def test_comoment_matches_numpy_cov():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(400, 3))
    acc = CoMomentAccumulator(dim=3)
    acc.add_batch(rows)
    np.testing.assert_allclose(acc.covariance(), np.cov(rows, rowvar=False), rtol=1e-12)
    np.testing.assert_allclose(acc.mean, rows.mean(axis=0), rtol=1e-12)


def test_comoment_merge_equals_concatenation():
    rng = np.random.default_rng(6)
    chunks = [rng.normal(size=(k, 2)) for k in (1, 7, 50, 3)]
    merged = CoMomentAccumulator(dim=2)
    for chunk in chunks:
        merged.add_batch(chunk)
    direct = CoMomentAccumulator(dim=2)
    direct.add_batch(np.concatenate(chunks))
    assert merged.count == direct.count
    np.testing.assert_allclose(merged.mean, direct.mean, rtol=1e-12)
    np.testing.assert_allclose(merged.comoment, direct.comoment, rtol=1e-12)


def test_comoment_validation():
    acc = CoMomentAccumulator(dim=2)
    with pytest.raises(ValueError):
        acc.add_batch(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        acc.add_batch(np.zeros(4))
    with pytest.raises(ValueError):
        acc.add_batch(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        acc.covariance()  # no samples yet


# -- jackknife ---------------------------------------------------------------


def test_jackknife_covariance_matches_numpy():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(250, 4))
    cov, se = jackknife_covariance(rows, scale=2.5)
    np.testing.assert_allclose(cov, 2.5 * np.cov(rows, rowvar=False), rtol=1e-10)
    assert se.shape == (4, 4)
    assert np.all(se > 0)


def test_jackknife_se_tracks_normal_theory():
    # For iid N(0,1) the sample variance has SE ~ sqrt(2/(reps-1)).
    rng = np.random.default_rng(8)
    reps = 4000
    rows = rng.normal(size=(reps, 2))
    cov, se = jackknife_covariance(rows)
    theory = math.sqrt(2.0 / (reps - 1))
    for i in range(2):
        assert 0.6 * theory < se[i, i] < 1.6 * theory
    # independent columns: off-diagonal consistent with zero at 5 sigma
    assert abs(cov[0, 1]) < 5 * se[0, 1]


def test_jackknife_input_validation():
    with pytest.raises(ValueError):
        jackknife_covariance(np.zeros(10))
    with pytest.raises(ValueError):
        jackknife_covariance(np.zeros((2, 3)))


# -- empirical covariance grids ----------------------------------------------


def test_empirical_grid_is_jackknife_of_sweep_samples():
    # The rows read another way: one trajectory a rep, each off its own
    # stream, as test_evolve's sweep-against-trajectories test reads them.
    # They go in column-major, as the sweep hands its rows over: the
    # jackknife sums over reps in memory order, so the SE's last bit
    # follows the layout.
    from test_evolve import single_trajectories

    grid = (0.3, 0.6)
    result = empirical_covariance_grid("runs-linear", 100, 200, grid, seed=42)
    samples = [row[3] for row in single_trajectories("runs-linear", 100, 42, 200, grid)]
    cov, se = jackknife_covariance(np.asfortranarray(samples, dtype=np.float64), scale=1.0 / 100)
    np.testing.assert_array_equal(result.covariance, cov)
    np.testing.assert_array_equal(result.se, se)
    assert result.covariance.shape == (2, 2)
    assert result.covariance[0, 0] > 0
    np.testing.assert_allclose(result.covariance, result.covariance.T, atol=1e-15)


def test_runs_time_grid_matches_golden_digest():
    # SHA-256 of the float64 bytes, recorded while the runs-time kernel still
    # ordered each row by a stable (timsort) argsort, before it moved to the
    # tie-checked default sort: the estimate must not change by one bit.
    result = empirical_covariance_grid("runs-time", 2000, 300, (0.2, 0.4, 0.6, 0.8), seed=13)
    assert hashlib.sha256(result.covariance.tobytes()).hexdigest() == (
        "6eae9a44c9bb1d52577665a0edf7ace0ec7c4d602e124f1570c0e9008d127867"
    )
    assert hashlib.sha256(result.se.tobytes()).hexdigest() == (
        "8a9841c66d16762b321e3a8bdcc60ae755bcc0081ede619bc9f5b32c637d34c5"
    )


@pytest.mark.parametrize(
    "model,cov_digest,se_digest",
    [
        (
            "priority-queue",
            "e266827fa6d3a877626774c0df73bf2879ada04287cf83367dd158454497bba8",
            "1e6be8233f0cc58014f11e8fb976ec9c410f881e8d3fc7488148f895b410a44f",
        ),
        (
            "lazy-hash",
            "27c0fdcdc60f25e210e63176634b54892c72802bf8f1bf56c850d4da47b61fb7",
            "e2b94f462ceb67ba83628e143afc4f3331f17bbaea7438d656fbc1723980a77f",
        ),
    ],
)
def test_queue_grids_match_golden_digest(model, cov_digest, se_digest):
    # Recorded while the queue kernel ordered its events by argsort and a
    # gather, before it sorted packed (time, event kind) keys.
    result = empirical_covariance_grid(model, 1000, 300, (0.2, 0.4, 0.6, 0.8), seed=17)
    assert hashlib.sha256(result.covariance.tobytes()).hexdigest() == cov_digest
    assert hashlib.sha256(result.se.tobytes()).hexdigest() == se_digest


# The next three digests were recorded while every model's grid values were
# read off its sorted path: they pin the grid reads bit for bit.


def test_runs_time_grid_at_benchmark_shape_matches_golden_digest():
    # n = 10^4 on the benchmark's seven points: 20 blocks of 3 rows
    grid = tuple(k / 10 for k in range(2, 9))
    result = empirical_covariance_grid("runs-time", 10_000, 60, grid, seed=21)
    assert hashlib.sha256(result.covariance.tobytes()).hexdigest() == (
        "14ee910ac1094e42b039fb2fb92d16649f5f1fd94ea122d82a456be64eabaa16"
    )
    assert hashlib.sha256(result.se.tobytes()).hexdigest() == (
        "080d40b684ae91b115f5f0e916460f73e11408489fcfd002d8ce4e01507206ae"
    )


@pytest.mark.parametrize(
    "model,cov_digest,se_digest",
    [
        (
            "runs-linear",
            "065f6fed812644f9f9261b54817c95743932b4793cd01878377fd6ebce131810",
            "62826f2fe75b52ef67f3ef82262c27d19cb94a323b2006dbf0f83327b2c1d416",
        ),
        (
            "runs-cyclic",
            "6dcdc0e54576bafc7a0537b5cb019334d835686f0c356af90733b6ef5deac168",
            "b81c05145f04c78465d685c62938dbe2632dec9e4e17934616fef12d79e50260",
        ),
    ],
)
def test_insertion_order_grids_match_golden_digest(model, cov_digest, se_digest):
    result = empirical_covariance_grid(model, 1000, 300, (0.2, 0.4, 0.6, 0.8), seed=23)
    assert hashlib.sha256(result.covariance.tobytes()).hexdigest() == cov_digest
    assert hashlib.sha256(result.se.tobytes()).hexdigest() == se_digest


def test_runs_time_grid_on_two_workers_equals_one():
    # 900 reps at n = 10^4 are three chunks (419, 419 and 62 reps)
    args = ("runs-time", 10_000, 900, (0.25, 0.5, 0.75))
    serial = empirical_covariance_grid(*args, seed=25)
    parallel = empirical_covariance_grid(*args, seed=25, jobs=2)
    np.testing.assert_array_equal(parallel.covariance, serial.covariance)
    np.testing.assert_array_equal(parallel.se, serial.se)


# -- Kolmogorov-Smirnov ------------------------------------------------------


def test_ks_statistic_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(9)
    cases = [
        (rng.normal(size=300), rng.normal(0.3, 1.0, size=200)),
        (rng.integers(0, 6, size=150).astype(float), rng.integers(0, 6, size=90).astype(float)),
        (rng.exponential(size=77), rng.exponential(size=77)),
    ]
    for a, b in cases:
        expected = scipy_stats.ks_2samp(a, b).statistic
        assert ks_statistic(a, b) == pytest.approx(expected, abs=1e-12)


def test_ks_statistic_extremes():
    a = np.arange(10.0)
    assert ks_statistic(a, a) == 0.0
    assert ks_statistic(a, a + 1000.0) == 1.0
    with pytest.raises(ValueError):
        ks_statistic(a, np.array([]))


def test_ks_critical_value_spot_check():
    # c(0.01) = sqrt(-ln(0.005)/2) ~ 1.6276; with n1 = n2 = 1e5 the
    # threshold is c * sqrt(2/1e5) ~ 0.00728.
    assert ks_critical_value(100_000, 100_000) == pytest.approx(0.00728, abs=2e-5)
    c = math.sqrt(-math.log(0.005) / 2)
    assert ks_critical_value(100, 400) == pytest.approx(c * math.sqrt(500 / 40_000), rel=1e-12)


@settings(max_examples=40)
@given(
    st.lists(finite_floats, min_size=1, max_size=50),
    st.lists(finite_floats, min_size=1, max_size=50),
)
def test_ks_statistic_bounds_and_symmetry(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    d = ks_statistic(a, b)
    assert 0.0 <= d <= 1.0
    assert ks_statistic(b, a) == pytest.approx(d, abs=1e-15)


# -- bands and reports -------------------------------------------------------


def test_se_band_floor_and_multiple():
    assert se_band(0.001) == 0.01  # floor wins
    assert se_band(1.0) == 3.0
    assert se_band(0.0) == 0.01
    assert se_band(0.004) == pytest.approx(0.012)  # just past the floor


def test_comparison_report_pass_logic():
    assert ComparisonReport("q", 1.5, 1.0, 0.5).passed  # boundary counts as pass
    assert not ComparisonReport("q", 1.5625, 1.0, 0.5).passed
    report = ComparisonReport("q", 1.2, 1.0, 0.5, se=0.1)
    assert report.z_score == pytest.approx(2.0)
    assert math.isnan(ComparisonReport("q", 1.0, 1.0, 0.1).z_score)
    assert "pass" in ComparisonReport("q", 1.0, 1.0, 0.1).describe()
    assert "FAIL" in ComparisonReport("q", 9.0, 1.0, 0.1).describe()


def test_compare_coerces_and_records_context():
    report = ComparisonReport(
        "mean", 3, 2, 1, se=0, model="runs-linear", n=10, reps=5, seed=1
    )
    assert all(
        type(x) is float for x in (report.value, report.reference, report.band, report.se)
    )
    assert ComparisonReport("q", 1, 1, 0).se is None
    assert math.isnan(report.z_score)  # se of zero cannot normalise
    assert (report.model, report.n, report.reps, report.seed) == ("runs-linear", 10, 5, 1)
