"""Simulation layer: kernels vs direct counting, sweeps, queue paths."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runslab.combinatorics import (
    brute_force_max_pmf,
    brute_force_pattern_moments,
    count_runs,
    mean_runs_discrete,
)
from runslab import evolve
from runslab._rng import stream
from runslab.evolve import (
    MODELS,
    SimConfig,
    _pattern_values,
    _queue_summary,
    _runs_time_summary,
    _runs_values,
    _time_order,
    pattern_from_order,
    run_sweep,
    runs_from_order,
    simulate_lazy_hash,
    simulate_pattern,
    simulate_priority_queue,
    simulate_runs,
    simulate_runs_randomized_time,
)
from runslab.patterns import run_length_pattern, runs_pattern
from runslab.stats import MomentAccumulator


perms = st.permutations(range(8))


# -- bitmask oracles ---------------------------------------------------------
#
# Plain per-step loops over an occupancy bitmask, written independently of
# the block kernels; the kernels must match them exactly.


def runs_values_loop(order, cyclic):
    n = len(order)
    values = np.zeros(n + 1, dtype=np.int64)
    occupied = 0
    x = 0
    if cyclic:
        for m, c in enumerate(order, 1):
            x += 1 - ((occupied >> ((c - 1) % n)) & 1) - ((occupied >> ((c + 1) % n)) & 1)
            values[m] = x
            occupied |= 1 << c
    else:
        for m, c in enumerate(order, 1):
            left = (occupied >> (c - 1)) & 1 if c > 0 else 0
            right = (occupied >> (c + 1)) & 1 if c < n - 1 else 0
            x += 1 - left - right
            values[m] = x
            occupied |= 1 << int(c)
    return values


def pattern_values_loop(table, ell, order, cyclic):
    n = len(order)
    values = np.empty(n + 1, dtype=np.float64)
    running = table[0] * (n if cyclic else n - ell + 1)
    values[0] = running
    occupied = 0
    for m, c in enumerate(order, 1):
        delta = 0.0
        for o in range(ell):
            start = c - o
            if not cyclic and not 0 <= start <= n - ell:
                continue
            mask = 0
            for i in range(ell):
                if i == o:
                    continue
                if (occupied >> ((start + i) % n)) & 1:
                    mask |= 1 << (ell - 1 - i)
            delta += table[mask | (1 << (ell - 1 - o))] - table[mask]
        running += delta
        values[m] = running
        occupied |= 1 << int(c)
    return values


def random_block(rng, rows, n):
    """Random insertion orders, one a row, as the kernels take them: row r
    holds flat cell indices r*n + cell."""
    orders = np.stack([rng.permutation(n) for _ in range(rows)])
    return orders, orders + n * np.arange(rows)[:, None]


# -- runs kernels ------------------------------------------------------------


@given(perms, st.booleans())
def test_replay_matches_direct_count(order, cyclic):
    traj = runs_from_order(list(order), cyclic=cyclic, keep_values=True)
    occ = [0] * len(order)
    for step, cell in enumerate(order, start=1):
        occ[cell] = 1
        assert traj.values[step] == count_runs(occ, cyclic=cyclic)
    assert traj.values[0] == 0


@given(perms)
def test_linear_and_cyclic_within_one(order):
    lin = runs_from_order(list(order), cyclic=False, keep_values=True)
    cyc = runs_from_order(list(order), cyclic=True, keep_values=True)
    assert np.all(np.abs(lin.values - cyc.values) <= 1)


def test_identity_order_keeps_one_run():
    traj = runs_from_order(range(30), keep_values=True)
    assert traj.max_value == 1
    assert list(traj.values[1:]) == [1] * 30


def test_alternating_then_filling():
    # insert evens first (n/2 isolated runs), then odds (merging down to 1)
    order = list(range(0, 10, 2)) + list(range(1, 10, 2))
    traj = runs_from_order(order, keep_values=True)
    assert traj.max_value == 5
    assert traj.argmax == 5
    assert traj.values[-1] == 1


def test_loop_and_vectorized_kernels_identical():
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3, 17, 127, 128, 129, 400):
        for cyclic in (False, True):
            if cyclic and n < 2:
                continue
            for rows in (1, 2, 7):
                orders, flat = random_block(rng, rows, n)
                block = _runs_values(flat, cyclic)
                assert block.shape == (rows, n + 1)
                for order, values in zip(orders, block):
                    np.testing.assert_array_equal(
                        runs_values_loop(order.tolist(), cyclic), values
                    )


def test_order_must_be_permutation():
    with pytest.raises(ValueError):
        runs_from_order([0, 0, 2])
    with pytest.raises(ValueError):
        runs_from_order([1, 2, 3])


def test_cyclic_needs_two_cells():
    with pytest.raises(ValueError):
        simulate_runs(1, seed=0, cyclic=True)
    with pytest.raises(ValueError):
        SimConfig(model="runs-cyclic", n=1, reps=1, base_seed=0)


def test_exact_max_distribution_over_all_orders():
    n = 5
    counts = {}
    for order in itertools.permutations(range(n)):
        traj = runs_from_order(order)
        counts[traj.max_value] = counts.get(traj.max_value, 0) + 1
    total = math.factorial(n)
    empirical = {k: Fraction(v, total) for k, v in counts.items()}
    assert empirical == brute_force_max_pmf(n)


def test_exact_step_means_over_all_orders():
    n = 6
    sums = [Fraction(0)] * (n + 1)
    for order in itertools.permutations(range(n)):
        traj = runs_from_order(order, keep_values=True)
        for m in range(n + 1):
            sums[m] += int(traj.values[m])
    total = math.factorial(n)
    for m in range(n + 1):
        assert sums[m] / total == mean_runs_discrete(n, m)


def test_simulate_runs_deterministic_and_sampled():
    a = simulate_runs(200, seed=7, grid=[0, 50, 200], keep_values=True)
    b = simulate_runs(200, seed=7, grid=[0, 50, 200])
    assert a.max_value == b.max_value and a.argmax == b.argmax
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.samples[0] == 0
    assert a.samples[1] == a.values[50]
    assert a.mid_value == a.values[100]


def test_step_grid_validated():
    with pytest.raises(ValueError):
        simulate_runs(10, seed=0, grid=[11])


# -- randomized-time model ---------------------------------------------------


def test_time_model_max_equals_step_max():
    for seed in range(5):
        traj = simulate_runs_randomized_time(300, seed=seed, keep_values=True)
        assert traj.max_value == traj.values.max()
        assert 0.0 <= traj.argmax < 1.0


def test_time_model_samples_count_arrivals():
    traj = simulate_runs_randomized_time(50, seed=3, grid=[0.25, 0.75], keep_values=True)
    assert traj.samples.shape == (2,)
    # each sample is a state the step path actually visited
    for s in traj.samples:
        assert s in traj.values


def test_time_model_argmax_at_zero_start():
    # n=1 linear: the single insertion is the (first) max step
    traj = simulate_runs_randomized_time(1, seed=0)
    assert traj.max_value == 1


# -- time order --------------------------------------------------------------
#
# The time-ordered kernels sort with numpy's default (unstable) argsort and
# re-sort only rows with ties; the oracle is a stable argsort of the block.


def tie_blocks():
    rng = np.random.default_rng(21)
    one_tied = rng.random((6, 200))
    one_tied[3, 17] = one_tied[3, 150]
    many_nans = rng.random((2, 600))
    many_nans[:, ::3] = np.nan
    return {
        "all-equal": np.full((3, 50), 0.5),
        "all-equal-one-row": np.full((1, 9), 0.25),
        "eighths": rng.integers(0, 8, size=(5, 40)) / 8,
        "few-values-long-rows": rng.integers(0, 4, size=(2, 5000)) / 4,
        "one-tied-row": one_tied,
        "one-row": rng.random((1, 300)),
        "one-row-tied": np.array([[0.3, 0.1, 0.3, 0.2, 0.1, 0.3]]),
        "length-1": rng.random((4, 1)),
        "length-2": np.array([[0.5, 0.5], [0.7, 0.1], [0.1, 0.7]]),
        "signed-zeros": np.array([[0.0, -0.0, 0.0, -0.0, -1.0]]),
        "nans": np.array([[np.nan, 0.3, np.nan, 0.1], [0.4, 0.2, 0.9, 0.6]]),
        "many-nans": many_nans,
    }


def assert_stable_time_order(keys):
    order, ranked = _time_order(keys)
    stable = np.argsort(keys, axis=1, kind="stable")
    np.testing.assert_array_equal(order, stable)
    expected = np.take_along_axis(keys, stable, axis=1)
    np.testing.assert_array_equal(ranked.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("name", sorted(tie_blocks()))
def test_time_order_equals_stable_argsort(name):
    assert_stable_time_order(tie_blocks()[name])


tie_prone = st.sampled_from([0.0, -0.0, 0.125, 0.5, 0.875, 1.0])


@given(
    st.integers(1, 4).flatmap(
        lambda rows: st.lists(
            st.lists(tie_prone, min_size=rows, max_size=rows), min_size=1, max_size=40
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_time_order_equals_stable_argsort_on_random_ties(columns):
    assert_stable_time_order(np.array(columns).T.copy())


def test_runs_time_summary_follows_stable_order_on_ties():
    times = np.array([[0.5, 0.5, 0.2, 0.5, 0.9, 0.2], [0.6, 0.1, 0.4, 0.3, 0.8, 0.7]])
    pts = (0.2, 0.5)
    values, maxv, argmax_t, mid, samples = _runs_time_summary(times, pts)
    for r, row in enumerate(times):
        order = np.argsort(row, kind="stable")
        path = runs_values_loop(order.tolist(), cyclic=False)
        np.testing.assert_array_equal(values[r], path)
        assert maxv[r] == path.max()
        first = int(np.argmax(path))
        assert argmax_t[r] == (row[order[first - 1]] if first else 0.0)
        assert mid[r] == path[np.sum(row <= 0.5)]
        assert list(samples[r]) == [path[np.sum(row <= t)] for t in pts]


# -- pattern model -----------------------------------------------------------


def test_pattern_run_length_full_row_scores_zero():
    # all cells filled: no isolated 1 remains (cyclic)
    traj = simulate_pattern(run_length_pattern(1), 6, seed=11, keep_values=True)
    assert traj.values[-1] == 0


def test_pattern_runs_window_matches_cyclic_runs():
    # the ascent window summed cyclically is the cyclic run count, step by step
    rng = np.random.default_rng(5)
    for n in (4, 9, 40):
        order = rng.permutation(n)
        pat_traj = pattern_from_order(runs_pattern(), order, keep_values=True)
        run_traj = runs_from_order(order, cyclic=True, keep_values=True)
        np.testing.assert_array_equal(pat_traj.values, run_traj.values)


def test_pattern_linear_mode_drops_boundary_windows():
    # one isolated 1 at the left edge: the linear mode window 0..2 sees it
    # only when a window fits entirely inside 1..n
    order = [0, 2, 4, 6, 1, 3, 5]
    lin = pattern_from_order(run_length_pattern(1), order, cyclic=False, keep_values=True)
    cyc = pattern_from_order(run_length_pattern(1), order, cyclic=True, keep_values=True)
    # cell 0 sits at the boundary: cyclically it wraps, linearly it has no
    # left neighbor window, so the counts may differ but never by more
    # than the two boundary windows
    assert np.all(np.abs(lin.values - cyc.values) <= 2)


def test_pattern_exact_step_means_over_all_orders():
    pat = run_length_pattern(1)
    n = 6
    sums = [Fraction(0)] * (n + 1)
    for order in itertools.permutations(range(n)):
        traj = pattern_from_order(pat, order, keep_values=True)
        for m in range(n + 1):
            sums[m] += int(traj.values[m])  # 0/1 table, integer-valued path
    total = math.factorial(n)
    for m in range(n + 1):
        exact = brute_force_pattern_moments(pat, n, m, cyclic=True).mean
        assert sums[m] / total == exact


def test_pattern_needs_room_for_windows():
    with pytest.raises(ValueError):
        simulate_pattern(run_length_pattern(2), 7, seed=0)  # n < 2*window


def test_pattern_float_tables_loop_equals_vectorized():
    pat = run_length_pattern(1)
    table = pat.table_float()
    rng = np.random.default_rng(8)
    for n in (6, 127, 128, 200):
        for rows in (1, 3):
            orders, flat = random_block(rng, rows, n)
            for cyclic in (True, False):
                block = _pattern_values(table, pat.length, flat, cyclic)
                for order, values in zip(orders, block):
                    np.testing.assert_array_equal(
                        pattern_values_loop(table, pat.length, order.tolist(), cyclic),
                        values,
                    )


# -- queue models ------------------------------------------------------------


@pytest.mark.parametrize("simulate", [simulate_priority_queue, simulate_lazy_hash])
def test_queue_paths_are_excursions(simulate):
    for seed in range(4):
        traj = simulate(30, seed=seed, keep_values=True)
        values = traj.values
        assert values[0] == 0 and values[-1] == 0
        assert values.min() >= 0
        steps = np.diff(values)
        assert set(np.unique(steps)) <= {-1, 1}
        assert traj.max_value == values.max()
        assert traj.mid_value == values[30]
        assert 1 <= traj.max_value <= 30


def test_queue_overlap_probability_two_jobs():
    # two service intervals built from two uniform pairs overlap with
    # probability 2/3; both event constructions must agree with it
    reps = 30_000
    for simulate in (simulate_priority_queue, simulate_lazy_hash):
        hits = sum(simulate(2, seed=s).max_value == 2 for s in range(reps))
        assert abs(hits / reps - 2 / 3) < 5 * math.sqrt(2 / 9 / reps)


def test_queue_grid_samples_count_in_system():
    traj = simulate_priority_queue(40, seed=9, grid=[0.1, 0.5, 0.9])
    assert traj.samples.shape == (3,)
    assert all(0 <= s <= 40 for s in traj.samples)


def queue_reference(arrive, depart, pts):
    """One row's occupancy path from a stable argsort of the 2n event times
    (arrivals are indices 0..n-1, so at equal times they come first), and
    its max, first argmax, value after n events and value at each of `pts`."""
    n = len(arrive)
    times = np.concatenate([arrive, depart])
    order = np.argsort(times, kind="stable")
    path = np.concatenate([[0], np.cumsum(np.where(order < n, 1, -1))])
    samples = [path[np.sum(times <= t)] for t in pts]
    return path, path.max(), int(np.argmax(path)), path[n], samples


def assert_queue_rows_match_reference(arrive, depart, pts):
    values, maxv, argmax, mid, samples = _queue_summary(arrive, depart, pts)
    for r in range(arrive.shape[0]):
        path, pmax, pargmax, pmid, psamples = queue_reference(arrive[r], depart[r], pts)
        np.testing.assert_array_equal(values[r], path)
        assert (maxv[r], argmax[r], mid[r]) == (pmax, pargmax, pmid)
        assert list(samples[r]) == psamples


def test_queue_summary_on_tied_event_times():
    # Row 0: item 1 arrives and departs at 0.5, item 0 departs at 0.5 when
    # items 1 and 2 arrive.  Row 1 has no ties.
    arrive = np.array([[0.2, 0.5, 0.5, 0.1], [0.15, 0.6, 0.35, 0.05]])
    depart = np.array([[0.5, 0.5, 0.9, 0.3], [0.7, 0.65, 0.4, 0.95]])
    pts = (0.05, 0.3, 0.5, 0.95)
    values = _queue_summary(arrive, depart, pts)[0]
    np.testing.assert_array_equal(values[0], [0, 1, 2, 1, 2, 3, 2, 1, 0])
    assert_queue_rows_match_reference(arrive, depart, pts)


def test_queue_summary_on_many_tied_event_times():
    # Long rows of times on a 1/16 grid: ties everywhere, including items
    # that arrive and depart at once, so an unstable sort would reorder them.
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 17, size=(2, 3, 400)) / 16
    assert_queue_rows_match_reference(pairs.min(axis=0), pairs.max(axis=0), (0.25, 0.5, 0.75))


# -- sweep harness -----------------------------------------------------------


@pytest.mark.parametrize("block_cells", [256, evolve._BLOCK_CELL_BUDGET])
@pytest.mark.parametrize(
    "model,n",
    [
        (model, n)
        for model in ("runs-linear", "runs-cyclic")
        for n in (1, 2, 3, 9, 13, 52, 127, 128, 129)
        if not (model == "runs-cyclic" and n < 2)
    ],
)
def test_sweep_matches_individual_trajectories(monkeypatch, model, n, block_cells):
    # 301 reps: with 256-cell blocks, a count that is not a multiple of the
    # block's rows (except for one-row blocks) and spans several blocks.
    monkeypatch.setattr(evolve, "_BLOCK_CELL_BUDGET", block_cells)
    reps, seed, grid = 301, 21, (0.25, 0.5, 0.75)
    config = SimConfig(
        model=model, n=n, reps=reps, base_seed=seed, grid=grid,
        keep_max_samples=True, keep_grid_samples=True,
    )
    result = run_sweep(config)
    steps = [int(round(t * n)) for t in grid]
    trajs = [
        runs_from_order(
            stream(seed, rep).permutation(n), cyclic=model == "runs-cyclic", grid=steps
        )
        for rep in range(reps)
    ]
    np.testing.assert_array_equal(result.max_samples, [t.max_value for t in trajs])
    np.testing.assert_array_equal(result.grid_samples, [t.samples for t in trajs])
    for stats, field in ((result.argmax_stats, "argmax"), (result.mid_stats, "mid_value")):
        expected = MomentAccumulator.from_values([float(getattr(t, field)) for t in trajs])
        assert (stats.count, stats.mean, stats.m2) == (expected.count, expected.mean, expected.m2)


def test_sweep_models_all_run():
    pat = run_length_pattern(1)
    for model in MODELS:
        config = SimConfig(
            model=model,
            n=12,
            reps=5,
            base_seed=3,
            pattern=pat if model == "pattern" else None,
            grid=(0.25, 0.75),
            keep_grid_samples=True,
        )
        result = run_sweep(config)
        assert result.max_stats.count == 5
        assert result.grid_samples.shape == (5, 2)


def test_sweep_jobs_bit_identical():
    # n large enough that the rep budget splits into several chunks
    n = 1 << 21
    base = SimConfig(model="runs-linear", n=n, reps=5, base_seed=9, keep_max_samples=True)
    parallel = SimConfig(
        model="runs-linear", n=n, reps=5, base_seed=9, jobs=3, keep_max_samples=True
    )
    a = run_sweep(base)
    b = run_sweep(parallel)
    assert a.max_stats.mean == b.max_stats.mean
    assert a.max_stats.m2 == b.max_stats.m2
    np.testing.assert_array_equal(a.max_samples, b.max_samples)


def test_sweep_seed_changes_results():
    a = run_sweep(SimConfig(model="priority-queue", n=50, reps=30, base_seed=1))
    b = run_sweep(SimConfig(model="priority-queue", n=50, reps=30, base_seed=2))
    assert a.max_stats.mean != b.max_stats.mean


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SimConfig(model="bogus", n=5, reps=1, base_seed=0)
    with pytest.raises(ValueError):
        SimConfig(model="runs-linear", n=0, reps=1, base_seed=0)
    with pytest.raises(ValueError):
        SimConfig(model="runs-linear", n=5, reps=0, base_seed=0)
    with pytest.raises(ValueError):
        SimConfig(model="runs-linear", n=5, reps=1, base_seed=0, grid=(0.0,))
    with pytest.raises(ValueError):
        SimConfig(model="pattern", n=10, reps=1, base_seed=0)  # no pattern given
    with pytest.raises(ValueError):
        SimConfig(
            model="runs-linear", n=10, reps=1, base_seed=0,
            pattern=run_length_pattern(1),
        )


def test_sweep_grid_stats_match_closed_form_loosely():
    # mean run count at half fill is about n/4
    config = SimConfig(model="runs-linear", n=400, reps=400, base_seed=17, grid=(0.5,))
    result = run_sweep(config)
    se = math.sqrt(result.grid_stats.covariance()[0, 0] / 400)
    assert abs(result.grid_stats.mean[0] - 100.25) < 6 * se + 1
