"""Simulation layer: kernels vs direct counting, sweeps, queue paths."""

import functools
import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_pattern_moments
from runslab.combinatorics import brute_force_max_pmf, count_runs, mean_runs_discrete
from runslab import evolve
from runslab._rng import StreamPool, mix_keys, stream
from runslab.evolve import (
    DEFAULT_TIME_GRID,
    MODELS,
    SimConfig,
    _runs_values,
    _time_path,
    pattern_from_order,
    run_sweep,
    runs_from_order,
    simulate_lazy_hash,
    simulate_pattern,
    simulate_priority_queue,
    simulate_runs,
    simulate_runs_randomized_time,
)
from runslab.patterns import PatternFunctional, run_length_pattern, runs_pattern
from runslab.stats import CoMomentAccumulator, MomentAccumulator, empirical_covariance_grid


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
    # Increments are summed from 0 and the empty row's value added after, so
    # float tables with table[0] != 0 round as the kernel does.
    n = len(order)
    values = np.zeros(n + 1, dtype=np.float64)
    running = 0.0
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
    return values + table[0] * (n if cyclic else n - ell + 1)


def random_block(rng, rows, n):
    """Random insertion orders, one a row, as the kernels take them: row r
    holds flat cell indices r*n + cell."""
    orders = np.stack([rng.permutation(n) for _ in range(rows)])
    return orders, orders + n * np.arange(rows)[:, None]


@functools.cache
def zero_pattern(ell):
    """The all-zero window of `ell` cells, made once per length."""
    return PatternFunctional(ell, (0,) * (1 << ell))


def workspace(model, n, rows, ell=3):
    """A workspace for `rows` rows of the model's kernel (windows of `ell`
    cells for the pattern).  Tests size it for more rows than their block,
    so the kernels run in its leading rows, as a sweep's last block does."""
    pattern = zero_pattern(ell) if model == "pattern" else None
    config = SimConfig(model=model, n=n, reps=1, base_seed=0, pattern=pattern)
    return evolve._workspace(config, rows)


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
    # int32 paths, in the leading rows of a workspace, against the int64 loop
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3, 17, 127, 128, 129, 400):
        for cyclic in (False, True):
            if cyclic and n < 2:
                continue
            model = "runs-cyclic" if cyclic else "runs-linear"
            for rows in (1, 2, 7):
                orders, flat = random_block(rng, rows, n)
                block = _runs_values(flat, cyclic, workspace(model, n, rows + 2))
                assert block.shape == (rows, n + 1) and block.dtype == np.int32
                for order, values in zip(orders, block):
                    np.testing.assert_array_equal(runs_values_loop(order.tolist(), cyclic), values)


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
# The time-ordered kernels sort packed (time, step) keys with numpy's default
# sort and re-sort stably only rows whose times are tied or out of the packed
# range; the oracle is a stable argsort of the block.


def tie_blocks():
    rng = np.random.default_rng(21)
    one_tied = rng.random((6, 200))
    one_tied[3, 17] = one_tied[3, 150]
    many_nans = rng.random((2, 600))
    many_nans[:, ::3] = np.nan
    mixed = rng.random((8, 100))
    mixed[1, 5] = mixed[1, 60]       # tie
    mixed[3, 7] = np.nan
    mixed[4, 9] = 2.5                # past the packed range
    mixed[6, 11] = -0.0              # sign bit
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
        "infinities": np.array([[np.inf, 0.3, 0.1], [0.2, -np.inf, 0.6], [0.4, 0.5, 0.6]]),
        "one-two-and-above": np.array([
            [1.0, 0.5, np.nextafter(2.0, 0.0), 0.25],
            [2.0, 0.5, 0.75, 0.1],
            [np.nextafter(2.0, 3.0), 1.0, 0.5, 0.0],
            [3.0, 1e300, 0.5, 1.5],
        ]),
        "subnormals": np.array([
            [5e-324, 0.0, 1e-310, 2.2250738585072014e-308, 1e-320],
            [1e-320, 5e-324, 1e-310, 0.5, 1e-300],
        ]),
        "fast-and-fallback-rows": mixed,
    }


def assert_stable_time_path(times):
    # random steps, one per time or one row broadcast to every row
    rng = np.random.default_rng(times.size)
    stable = np.argsort(times, axis=1, kind="stable")
    expected = np.take_along_axis(times, stable, axis=1)
    for steps in (
        rng.integers(-1, 2, size=times.shape).astype(np.int8),
        rng.integers(-1, 2, size=times.shape[1]).astype(np.int8),
    ):
        ws = workspace("runs-time", times.shape[1], len(times) + 2)
        ranked, path = _time_path(times, steps, ws)
        np.testing.assert_array_equal(ranked.view(np.uint64), expected.view(np.uint64))
        full = np.broadcast_to(steps, times.shape)
        np.testing.assert_array_equal(path[:, 0], 0)
        np.testing.assert_array_equal(
            path[:, 1:], np.cumsum(np.take_along_axis(full, stable, axis=1), axis=1)
        )


@pytest.mark.parametrize("name", sorted(tie_blocks()))
def test_time_order_equals_stable_argsort(name):
    assert_stable_time_path(tie_blocks()[name])


tie_prone = st.sampled_from([0.0, -0.0, 5e-324, 0.125, 0.5, 0.875, 1.0, 2.0, np.inf, np.nan])


@given(
    st.integers(1, 4).flatmap(
        lambda rows: st.lists(
            st.lists(tie_prone, min_size=rows, max_size=rows), min_size=1, max_size=40
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_time_order_equals_stable_argsort_on_random_ties(columns):
    assert_stable_time_path(np.array(columns).T.copy())


def time_summary(model, block, pts, ws):
    """`_kernel_summary` of a block of runs-time arrival times, or of a
    queue's arrival then departure times."""
    n = block.shape[1] if model == "runs-time" else block.shape[1] // 2
    config = SimConfig(model=model, n=n, reps=len(block), base_seed=0)
    return evolve._kernel_summary(config, block, evolve._sweep_tables(config), pts, ws)


def test_runs_time_summary_follows_stable_order_on_ties():
    # Ties, NaNs, a signed zero, an infinity and a time past 2, each in its
    # own row of one block with rows the packed-key sort orders.
    times = np.array([
        [0.5, 0.5, 0.2, 0.5, 0.9, 0.2],
        [0.6, 0.1, 0.4, 0.3, 0.8, 0.7],
        [np.nan, 0.1, np.nan, np.nan, 0.8, 0.2],
        [0.3, 0.1, 0.4, 0.2, 0.8, np.nan],
        [0.0, 0.6, -0.0, 0.1, 0.0, 0.9],
        [0.35, 0.1, np.inf, 0.3, 0.8, 0.7],
        [2.5, 0.1, 0.4, 1.0, 0.8, 0.7],
        [0.15, 0.95, 0.4, 0.55, 0.05, 0.75],
    ])
    pts = (0.2, 0.5)
    ws = workspace("runs-time", times.shape[1], len(times) + 2)
    values, maxv, argmax_t, mid, samples = time_summary("runs-time", times, pts, ws)
    for r, row in enumerate(times):
        order = np.argsort(row, kind="stable")
        path = runs_values_loop(order.tolist(), cyclic=False)
        np.testing.assert_array_equal(values[r], path)
        assert maxv[r] == path.max()
        first = int(np.argmax(path))
        np.testing.assert_array_equal(argmax_t[r], row[order[first - 1]] if first else 0.0)
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
    rng = np.random.default_rng(8)
    # run-length 1, then dense random tables: one- and two-cell windows,
    # and on both sides of the 16/32-bit code boundary and at the window cap
    cases = [(run_length_pattern(1).table_float(), (6, 127, 128, 200))]
    cases += [(None, (2 * ell, 61)) for ell in (1, 2, 8, 9, 10, 16)]
    for table, sizes in cases:
        if table is None:
            table = rng.standard_normal(1 << (sizes[0] // 2))
        ell = table.size.bit_length() - 1
        pattern = PatternFunctional(ell, tuple(table))  # floats convert exactly
        for n in sizes:
            for rows in (1, 3):
                orders, flat = random_block(rng, rows, n)
                for cyclic in (True, False):
                    config = SimConfig(model="pattern", n=n, reps=rows, base_seed=0,
                                       pattern=pattern, cyclic=cyclic)
                    ws = workspace("pattern", n, rows + 2, ell)
                    tables = evolve._sweep_tables(config)
                    block = evolve._kernel_summary(config, flat, tables, None, ws)[0]
                    for order, values in zip(orders, block):
                        np.testing.assert_array_equal(
                            pattern_values_loop(table, ell, order.tolist(), cyclic),
                            values,
                        )


@pytest.mark.parametrize("ell", [3, 9, 10, 16])
def test_every_head_width_gives_the_loop_bits(ell):
    # The head table sums as many of the first offsets as keep it to one
    # sum per 8 cells of a chunk, 2^8 to 2^16 sums: from a single offset up
    # to all ell of them (8 of 10, 2 of 16) as the chunk grows.  Each width
    # gives the loop's bits, in both row flavours.
    rng = np.random.default_rng(ell)
    table = rng.standard_normal(1 << ell)
    pattern = PatternFunctional(ell, tuple(table))
    widths = set()
    for n in (2 * ell, 61):
        orders, flat = random_block(rng, 2, n)
        expected = {cyclic: np.array([pattern_values_loop(table, ell, order.tolist(), cyclic)
                                      for order in orders]) for cyclic in (True, False)}
        ws = workspace("pattern", n, 4, ell)
        # one rep (a trajectory), then chunks of about 2^11 to 2^19 cells
        for reps in sorted({1, *(-(-(1 << b) // n) for b in range(11, 20))}):
            config = SimConfig(model="pattern", n=n, reps=reps, base_seed=0, pattern=pattern)
            tables = evolve._sweep_tables(config)
            for cyclic in (True, False):
                values = evolve._pattern_values(*tables, flat, cyclic, ws)
                np.testing.assert_array_equal(expected[cyclic], values)
            cells = n * evolve._chunk_size(n, reps)
            assert tables[1].size <= max(1 << (ell - 1), min(max(1 << 8, cells // 8), 1 << 16))
            widths.add(tables[1].size.bit_length() + 1 - ell)
    assert widths == set(range(min(ell, max(1, 10 - ell)), min(ell, 18 - ell) + 1))


@pytest.mark.parametrize("ell", [2, 3, 9, 10])
def test_linear_boundary_cells_sum_only_their_own_windows(ell):
    # A linear row's first and last ell-1 cells sit in fewer than ell
    # windows.  Fill them first, then last, with jumps of widely spread
    # magnitudes, so that a sum over another set of offsets, or in another
    # order, would round differently.
    rng = np.random.default_rng(ell)
    table = rng.choice([-1.0, 1.0], 1 << ell) * 2.0 ** rng.integers(-60, 60, 1 << ell)
    pattern = PatternFunctional(ell, tuple(table))
    for n in (2 * ell, 2 * ell + 5):
        edge = [*range(ell - 1), *range(n - ell + 1, n)]
        inner = list(range(ell - 1, n - ell + 1))
        orders = [rng.permutation(edge).tolist() + rng.permutation(inner).tolist(),
                  rng.permutation(inner).tolist() + rng.permutation(edge).tolist()]
        config = SimConfig(model="pattern", n=n, reps=2, base_seed=0, pattern=pattern,
                           cyclic=False)
        flat = np.array(orders) + n * np.arange(2)[:, None]
        block = evolve._kernel_summary(config, flat, evolve._sweep_tables(config), None,
                                       workspace("pattern", n, 2, ell))[0]
        for order, values in zip(orders, block):
            np.testing.assert_array_equal(pattern_values_loop(table, ell, order, False), values)


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


def test_queue_overlap_probability_two_items():
    # two service intervals built from two uniform pairs overlap with
    # probability 2/3; both event constructions must agree with it
    reps = 30_000
    for model in ("priority-queue", "lazy-hash"):
        config = SimConfig(model=model, n=2, reps=reps, base_seed=0, keep_max_samples=True)
        hits = np.count_nonzero(run_sweep(config).max_samples == 2)
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


def queue_summary(arrive, depart, pts):
    """The kernel summary of the rows of arrive | depart times."""
    ws = workspace("priority-queue", arrive.shape[1], len(arrive) + 2)
    return time_summary("priority-queue", np.concatenate([arrive, depart], axis=1), pts, ws)


def assert_queue_rows_match_reference(arrive, depart, pts):
    values, maxv, argmax, mid, samples = queue_summary(arrive, depart, pts)
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
    values = queue_summary(arrive, depart, pts)[0]
    np.testing.assert_array_equal(values[0], [0, 1, 2, 1, 2, 3, 2, 1, 0])
    assert_queue_rows_match_reference(arrive, depart, pts)


def test_queue_summary_on_many_tied_event_times():
    # Long rows of times on a 1/16 grid: ties everywhere, including items
    # that arrive and depart at once, so an unstable sort would reorder them.
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 17, size=(2, 3, 400)) / 16
    assert_queue_rows_match_reference(pairs.min(axis=0), pairs.max(axis=0), (0.25, 0.5, 0.75))


# -- count read --------------------------------------------------------------
#
# Covariance grids read the time-ordered models' grid values by counting
# each rep's unsorted draws (`_count_read`); `_kernel_summary` reads them off
# the sorted path.  The two routes must agree bit for bit.

TIME_MODELS = ("runs-time", "priority-queue", "lazy-hash")


def time_block(model, times):
    """A block of `times` as the model's kernel takes it: runs-time arrival
    times, or a queue's rows whose items arrive at `times` and depart at
    them in reverse order (ties between arrivals and departures)."""
    return times if model == "runs-time" else np.concatenate([times, times[:, ::-1]], axis=1)


def assert_count_read_is_path_read(model, block, pts):
    # grid points equal to drawn times too, each time's own included
    drawn = block[~np.isnan(block)]
    pts = (*pts, *drawn[:: max(1, drawn.size // 16)].tolist())
    n = block.shape[1] if model == "runs-time" else block.shape[1] // 2
    config = SimConfig(model=model, n=n, reps=len(block), base_seed=0)
    counted = evolve._count_read(config, block, pts, workspace(model, n, len(block) + 2))
    read = time_summary(model, block, pts, workspace(model, n, len(block) + 2))[4]
    assert counted.shape == read.shape == (len(block), len(pts))
    np.testing.assert_array_equal(counted, read)


# 20 grid points, unsorted and repeated, at and past the ends of [0, 1]:
# several passes of the count read, the last one short.
MANY_PASS_GRID = (0.9, 0.1, 0.5, 0.5, 0.0, 1.0, 0.25, 0.75, -0.0, 0.1,
                  2.0, 0.6, 0.45, 0.9, 0.05, 0.99, 0.7, 0.5, np.inf, 0.35)


@pytest.mark.parametrize("model", TIME_MODELS)
@pytest.mark.parametrize("name", sorted(tie_blocks()))
def test_count_read_equals_path_read(model, name):
    # all-equal rows, k/8 times, NaNs, signed zeros, infinities, times >= 2,
    # and rows of 1 and 2 cells (a queue of 1 and 2 items)
    assert_count_read_is_path_read(model, time_block(model, tie_blocks()[name]), MANY_PASS_GRID)


@pytest.mark.parametrize("model", TIME_MODELS)
def test_count_read_equals_path_read_past_16_bit_counts(model):
    # 70,000 cells or items a row, so counts pass 2^16, and at t = 0.94
    # (runs-time) or 0.8 (a queue's min | max times) only the ups do.
    u, v = np.random.default_rng(6).random((2, 2, 70_000))
    u[1, ::7] = u[1, 3]  # ties
    block = u if model == "runs-time" else np.concatenate([np.minimum(u, v), np.maximum(u, v)], 1)
    assert_count_read_is_path_read(model, block, (0.5, 0.8, 0.94, 0.99))
    # One tied row of 10^5 cells (2 * 10^5 steps for a queue): more cells
    # than a pass of four points takes, so each pass holds one or two.
    times = np.random.default_rng(8).integers(0, 1 << 12, size=(1, 100_000)) / (1 << 12)
    assert_count_read_is_path_read(model, time_block(model, times), MANY_PASS_GRID)


@given(
    st.sampled_from(TIME_MODELS),
    st.integers(1, 4).flatmap(
        lambda rows: st.lists(
            st.lists(tie_prone, min_size=rows, max_size=rows), min_size=1, max_size=40
        )
    ),
    st.lists(tie_prone.filter(lambda t: not math.isnan(t)), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_count_read_equals_path_read_on_random_ties(model, columns, pts):
    times = np.array(columns).T.copy()
    assert_count_read_is_path_read(model, time_block(model, times), tuple(pts))


@pytest.mark.parametrize("model", MODELS)
def test_grid_samples_equal_the_sweeps_kept_rows(monkeypatch, model):
    # The rows each of run_sweep's chunks reads off its paths and keeps for
    # grid_stats.  Chunks of 20 reps in blocks of 3 rows at n = 52, so each
    # chunk ends on a 2-row block; the last chunk has 10 reps.
    monkeypatch.setattr(evolve, "_CHUNK_CELL_BUDGET", 20 * 52)
    monkeypatch.setattr(evolve, "_BLOCK_CELL_BUDGET", 3 * 52)
    config = sweep_config(model, 52, 50, seed=31, grid=(0.1, 0.5, 0.9))
    kept = np.concatenate([evolve._sweep_chunk(*args)[3]
                           for args in evolve._chunk_args(config, grid_only=False)])
    samples = evolve.grid_samples(config)
    assert samples.dtype == kept.dtype == np.float64
    np.testing.assert_array_equal(samples, kept)
    with pytest.raises(ValueError, match="needs a grid"):
        evolve.grid_samples(replace(config, grid=None))


@pytest.mark.parametrize("model", MODELS)
def test_grid_samples_in_the_sweeps_chunks_accumulate_to_its_grid_stats(monkeypatch, model):
    # The count read against the sweep's own (path-read) accumulator: 50
    # reps in chunks of 20 and 20 and 10, each made of 3-row blocks, so
    # every chunk ends on a short block.
    monkeypatch.setattr(evolve, "_CHUNK_CELL_BUDGET", 20 * 52)
    monkeypatch.setattr(evolve, "_BLOCK_CELL_BUDGET", 3 * 52)
    config = sweep_config(model, 52, 50, seed=31, grid=(0.1, 0.5, 0.9))
    samples = evolve.grid_samples(config)
    assert samples.dtype == np.float64 and samples.shape == (50, 3)
    expected = CoMomentAccumulator(3)
    for _, lo, count, _ in evolve._chunk_args(config, grid_only=True):
        expected.add_batch(samples[lo:lo + count])
    assert expected.count == 50
    assert_same_comoments(run_sweep(config).grid_stats, expected)


@pytest.mark.parametrize("model", MODELS)
def test_grid_samples_row_layout_per_model(model):
    # The last bit of stats.jackknife_covariance's SE follows its input's
    # memory layout, so the recorded covariance-grid digests pin it: the
    # counted rows are C-ordered, the rows read off the paths F-ordered.
    samples = evolve.grid_samples(sweep_config(model, 52, 50, seed=31, grid=(0.1, 0.5, 0.9)))
    counted = model in TIME_MODELS
    assert (samples.flags.c_contiguous, samples.flags.f_contiguous) == (counted, not counted)


@pytest.mark.parametrize("model", ["runs-linear", "priority-queue"])
def test_grid_samples_on_two_workers_equal_one(model):
    # 900 reps at n = 10^4 are three chunks (419, 419 and 62 reps).
    config = sweep_config(model, 10_000, 900, seed=25, grid=(0.25, 0.5, 0.75))
    np.testing.assert_array_equal(
        evolve.grid_samples(replace(config, jobs=2)), evolve.grid_samples(config))


@pytest.mark.parametrize("model", TIME_MODELS)
def test_time_model_grids_make_no_path(monkeypatch, model):
    def no_path(*args):
        raise AssertionError("the count read sorts no times")

    monkeypatch.setattr(evolve, "_time_path", no_path)
    result = empirical_covariance_grid(model, 300, 40, (0.25, 0.5, 0.75), seed=3)
    assert result.covariance.shape == (3, 3)
    with pytest.raises(AssertionError, match="sorts no times"):  # the patch is in force
        run_sweep(SimConfig(model=model, n=300, reps=2, base_seed=3))


def test_queue_events_in_place_match_the_out_of_place_formulas():
    # The draws overwrite the u | v block; each element must get the bits
    # the out-of-place expressions give.
    uv = np.random.default_rng(5).random((4, 2 * 300))
    u, v = uv[:, :300], uv[:, 300:]
    arrive = 1.0 - np.sqrt(1.0 - u)
    want = {
        evolve._queue_events_minmax: np.concatenate([np.minimum(u, v), np.maximum(u, v)], axis=1),
        evolve._queue_events_inverse: np.concatenate([arrive, arrive + (1.0 - arrive) * v], axis=1),
    }
    for draw, expected in want.items():
        block = uv.copy()
        assert draw(block, workspace("priority-queue", 300, 6)) is block
        np.testing.assert_array_equal(block.view(np.uint64), expected.view(np.uint64))


# -- single-trajectory goldens -----------------------------------------------


def eighths_pattern(ell):
    """A window table of random eighths, nonzero on the empty window."""
    values = np.random.default_rng(ell).integers(-8, 9, size=1 << ell)
    values[0] = 3
    return PatternFunctional(ell, tuple(Fraction(int(v), 8) for v in values))


def golden_trajectories():
    """Every single-trajectory function, over the sizes where the kernels
    change shape: one and two cells, the batch-order boundary 31/32, and a
    row of 1000; both flavors, both grids, and a negative seed."""
    for n in (1, 2, 31, 32, 1000):
        steps = [0, n // 3, n]
        yield simulate_runs(n, 11, grid=steps, keep_values=True)
        if n > 1:
            yield simulate_runs(n, 12, cyclic=True, grid=steps, keep_values=True)
        yield runs_from_order(np.random.default_rng(n).permutation(n), cyclic=n > 1, grid=steps)
    yield simulate_runs(1000, -5, keep_values=True)
    for ell, n in ((3, 6), (3, 1000), (16, 32), (16, 1000)):
        pattern = eighths_pattern(ell)
        for cyclic in (True, False):
            yield simulate_pattern(pattern, n, 13, cyclic=cyclic, grid=[1, n // 2], keep_values=True)
        order = np.random.default_rng(n).permutation(n)
        yield pattern_from_order(pattern, order, cyclic=False, keep_values=True)
    for n in (1, 2, 1000):
        yield simulate_runs_randomized_time(n, 14, keep_values=True)
        yield simulate_runs_randomized_time(n, 15, grid=(0.05, 0.5, 0.95), keep_values=True)
    for simulate in (simulate_priority_queue, simulate_lazy_hash):
        for n in (1, 2, 1000):
            yield simulate(n, 16, keep_values=True)
            yield simulate(n, 17, grid=(0.1, 0.5, 0.9), keep_values=True)
        yield simulate(1000, -1)


def trajectory_record(traj):
    """A `Trajectory` as text: its fields, with each scalar's type and each
    array's dtype, shape and bytes."""
    scalars = [(type(x).__name__, repr(x)) for x in (traj.max_value, traj.argmax, traj.mid_value)]
    arrays = [
        None if a is None else (a.dtype.str, a.shape, a.tobytes().hex())
        for a in (traj.samples, traj.values)
    ]
    return repr((traj.model, type(traj.n).__name__, traj.n, traj.grid, scalars, arrays))


# SHA-256 over `golden_trajectories`, recorded before the single-trajectory
# functions ran as rep 0 of a sweep keyed by their seed.
TRAJECTORY_DIGEST = "f66aab7f6d991e875b89d61bdbbbf66a1ff09195e73509270a43f4c324932c54"


def test_trajectories_match_golden_digest():
    records = [trajectory_record(traj) for traj in golden_trajectories()]
    assert len(records) == 47
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == TRAJECTORY_DIGEST


@pytest.mark.parametrize("seed", [0, 7, -3])
def test_trajectories_draw_from_the_seeds_stream(seed):
    # The single-trajectory contract, against numpy's own draws: orders are
    # stream(seed).permutation(n), arrival times stream(seed).random(n), and
    # a queue's items random((2, n)): row 0 is u, row 1 is v.
    n, steps = 40, [5, 20, 40]
    pattern = eighths_pattern(3)
    for cyclic in (False, True):
        order = stream(seed).permutation(n)
        assert trajectory_record(
            simulate_runs(n, seed, cyclic=cyclic, grid=steps, keep_values=True)
        ) == trajectory_record(runs_from_order(order, cyclic=cyclic, grid=steps, keep_values=True))
        assert trajectory_record(
            simulate_pattern(pattern, n, seed, cyclic=cyclic, grid=steps, keep_values=True)
        ) == trajectory_record(
            pattern_from_order(pattern, order, cyclic=cyclic, grid=steps, keep_values=True))
    pts = (0.25, 0.5, 0.75)
    traj = simulate_runs_randomized_time(n, seed, grid=pts, keep_values=True)
    times = stream(seed).random(n)[None, :]
    summary = time_summary("runs-time", times, pts, workspace("runs-time", n, 1))
    assert_summary_is_trajectory(summary, traj)
    u, v = stream(seed).random((2, n))
    arrive = {
        simulate_priority_queue: np.minimum(u, v),
        simulate_lazy_hash: 1.0 - np.sqrt(1.0 - u),
    }
    depart = {
        simulate_priority_queue: np.maximum(u, v),
        simulate_lazy_hash: arrive[simulate_lazy_hash] + (1.0 - arrive[simulate_lazy_hash]) * v,
    }
    for simulate in arrive:
        traj = simulate(n, seed, grid=pts, keep_values=True)
        assert_summary_is_trajectory(queue_summary(arrive[simulate][None], depart[simulate][None], pts), traj)


def assert_summary_is_trajectory(summary, traj):
    values, maxv, argmax, mid, samples = summary
    np.testing.assert_array_equal(values[0], traj.values)
    assert (maxv[0], argmax[0], mid[0]) == (traj.max_value, traj.argmax, traj.mid_value)
    np.testing.assert_array_equal(samples[0], traj.samples)


# -- sweep harness -----------------------------------------------------------


def single_trajectories(case, n, seed, reps, grid):
    """(max, argmax, mid value, grid samples) per rep, one rep at a time.

    Rep 0 goes through the public single-trajectory function; rep r > 0
    through the model's draw on stream(seed, r) and its kernel on a one-row
    block.  Step-indexed models sample steps round(t * n).
    """
    steps = [int(round(t * n)) for t in grid]
    pattern = run_length_pattern(1)
    cyclic = case in ("runs-cyclic", "pattern-cyclic")
    draws = {
        "priority-queue": evolve._queue_events_minmax,
        "lazy-hash": evolve._queue_events_inverse,
    }
    out = []
    for rep in range(reps):
        rng = stream(seed, rep)
        if case in ("runs-linear", "runs-cyclic"):
            traj = (
                simulate_runs(n, seed, cyclic=cyclic, grid=steps) if rep == 0
                else runs_from_order(rng.permutation(n), cyclic=cyclic, grid=steps)
            )
        elif case.startswith("pattern"):
            traj = (
                simulate_pattern(pattern, n, seed, cyclic=cyclic, grid=steps) if rep == 0
                else pattern_from_order(pattern, rng.permutation(n), cyclic=cyclic, grid=steps)
            )
        elif rep == 0:
            simulate = {
                "runs-time": simulate_runs_randomized_time,
                "priority-queue": simulate_priority_queue,
                "lazy-hash": simulate_lazy_hash,
            }[case]
            traj = simulate(n, seed, grid=grid)
        else:
            ws = workspace(case, n, 1)
            if case == "runs-time":
                summary = time_summary(case, rng.random(n)[None, :], grid, ws)
            else:
                # The per-row protocol: all n draws of u, then all n of v.
                u = rng.random(n)
                v = rng.random(n)
                uv = draws[case](np.concatenate([u, v])[None, :], ws)
                summary = time_summary(case, uv, grid, ws)
            out.append(tuple(part[0] for part in summary[1:]))
            continue
        out.append((traj.max_value, traj.argmax, traj.mid_value, traj.samples))
    return out


# -- insertion-order draws ---------------------------------------------------


def per_row_orders(keys, n):
    """The oracle: re-key one Philox per row and shuffle that row."""
    pool = StreamPool(0)
    orders = np.arange(len(keys) * n, dtype=np.int64).reshape(len(keys), n)
    for row, key in zip(orders, keys.tolist()):
        pool.rekey(key).shuffle(row)
    return orders


BATCH_MAX_N = evolve._BATCH_ORDER_MAX_N


@pytest.mark.parametrize("n", range(1, BATCH_MAX_N + 2))
def test_batch_orders_equal_per_row_shuffle(n):
    # Blocks of 1 and 2 rows take the per-row shuffle in sweeps; the pass
    # itself is checked on them directly.
    for rows in (1, 2, evolve._BLOCK_CELL_BUDGET // n):
        keys = mix_keys(n, 3 * rows, rows)
        expected = per_row_orders(keys, n)
        orders, covered = evolve._batch_orders(
            keys, n, evolve._shuffle_draw_blocks(n), np.empty((rows, n), dtype=np.int64))
        np.testing.assert_array_equal(orders[covered], expected[covered])
        orders = evolve._draw_orders(StreamPool(0), keys, n, workspace("runs-linear", n, rows + 2))
        np.testing.assert_array_equal(orders, expected)


def test_batch_orders_only_on_blocks_of_min_rows(monkeypatch):
    taken = []
    batch = evolve._batch_orders
    monkeypatch.setattr(evolve, "_batch_orders", lambda *a: taken.append(a) or batch(*a))
    min_rows = evolve._BATCH_ORDER_MIN_ROWS
    for rows in (min_rows - 1, min_rows):
        keys = mix_keys(9, 0, rows)
        orders = evolve._draw_orders(StreamPool(0), keys, 9, workspace("runs-linear", 9, rows))
        np.testing.assert_array_equal(orders, per_row_orders(keys, 9))
    assert [a[0].size for a in taken] == [min_rows]


@pytest.mark.parametrize("n", [2, 3, 5, 9, 13, 17, BATCH_MAX_N])
def test_batch_orders_equal_per_row_shuffle_on_one_block_budget(monkeypatch, n):
    # One Philox block is 8 draws.  At n = 9 a row is covered only when all
    # 8 steps accept their first draw (about 1 row in 6), and above it no
    # row is: those rows are redrawn row by row.
    monkeypatch.setattr(evolve, "_shuffle_draw_blocks", lambda n: 1)
    rows = evolve._BLOCK_CELL_BUDGET // n
    keys = mix_keys(-n, 0, rows)
    _, covered = evolve._batch_orders(keys, n, 1, np.empty((rows, n), dtype=np.int64))
    if n == 9:
        assert 0 < covered.sum() < rows // 4
    elif n > 9:
        assert not covered.any()
    orders = evolve._draw_orders(StreamPool(0), keys, n, workspace("runs-linear", n, rows))
    np.testing.assert_array_equal(orders, per_row_orders(keys, n))


@pytest.mark.parametrize("n", [2, 9, 13, BATCH_MAX_N, 52, 100])
def test_batch_orders_cover_most_rows_on_default_budget(n):
    # Also past the crossover, where sweeps do not take the batch pass.
    rows = evolve._BLOCK_CELL_BUDGET // n
    keys = mix_keys(5, 0, rows)
    orders, covered = evolve._batch_orders(
        keys, n, evolve._shuffle_draw_blocks(n), np.empty((rows, n), dtype=np.int64))
    assert covered.mean() > 0.99
    np.testing.assert_array_equal(orders[covered], per_row_orders(keys, n)[covered])


@pytest.mark.parametrize("block_cells", [256, evolve._BLOCK_CELL_BUDGET])
@pytest.mark.parametrize(
    "case,n",
    [
        (case, n)
        for case in ("runs-linear", "runs-cyclic")
        for n in (1, 2, 3, 9, 13, 52, 127, 128, 129)
        if not (case == "runs-cyclic" and n < 2)
    ]
    + [
        (case, n)
        for case in ("runs-time", "priority-queue", "lazy-hash")
        for n in (1, 2, 9, 52, 129)
    ]
    + [(case, n) for case in ("pattern-linear", "pattern-cyclic") for n in (6, 9, 52, 129)],
)
def test_sweep_matches_individual_trajectories(monkeypatch, case, n, block_cells):
    # 301 reps: with 256-cell blocks, a count that is not a multiple of the
    # block's rows (except for one-row blocks) and spans several blocks.
    monkeypatch.setattr(evolve, "_BLOCK_CELL_BUDGET", block_cells)
    reps, seed, grid = 301, 21, (0.25, 0.5, 0.75)
    pattern = case.startswith("pattern")
    config = SimConfig(
        model="pattern" if pattern else case, n=n, reps=reps, base_seed=seed, grid=grid,
        pattern=run_length_pattern(1) if pattern else None, cyclic=case != "pattern-linear",
        keep_max_samples=True,
    )
    result = run_sweep(config)
    maxes, argmaxes, mids, samples = zip(*single_trajectories(case, n, seed, reps, grid))
    np.testing.assert_array_equal(result.max_samples, maxes)
    # The trajectories read their paths; runs-time and the queues' grid_samples
    # count off their draws.
    np.testing.assert_array_equal(evolve.grid_samples(config), samples)
    # One chunk holds every rep, so its per-rep argmax, mid value and grid
    # row are the ones run_sweep accumulated.
    assert evolve._chunk_size(n, reps) == reps
    _, chunk_argmaxes, chunk_mids, chunk_rows = evolve._sweep_chunk(config, 0, reps)
    np.testing.assert_array_equal(chunk_argmaxes, argmaxes)
    np.testing.assert_array_equal(chunk_mids, mids)
    np.testing.assert_array_equal(chunk_rows, samples)
    for stats, field in ((result.argmax_stats, argmaxes), (result.mid_stats, mids)):
        expected = MomentAccumulator()
        expected.add_batch(np.asarray(field, dtype=np.float64))
        assert (stats.count, stats.mean, stats.m2) == (expected.count, expected.mean, expected.m2)
    expected = CoMomentAccumulator(len(grid))
    expected.add_batch(np.asarray(samples, dtype=np.float64))
    assert_same_comoments(result.grid_stats, expected)


def golden_chunks():
    """`_sweep_chunk`'s per-rep rows for every model at n = 2 and 40, with
    and without a grid.  1,000 reps: n = 2 takes the batch order pass, and
    n = 40 spans two blocks.  Windows are of 1 and 3 cells, both ways."""
    for model in MODELS:
        for n in (2, 40):
            for grid in (None, (0.25, 0.5, 0.75)):
                for cyclic in (True, False) if model == "pattern" else (True,):
                    pattern = eighths_pattern(1 if n == 2 else 3) if model == "pattern" else None
                    config = SimConfig(model=model, n=n, reps=1000, base_seed=n + 3, grid=grid,
                                       pattern=pattern, cyclic=cyclic)
                    yield evolve._sweep_chunk(config, 0, config.reps)


# SHA-256 over `golden_chunks`, recorded while each kernel still read its own
# max, argmax, mid value and grid samples.
CHUNK_DIGEST = "c34f18d6dc63095c15f4229005f37f605c0a54910a984eab12d715fccc039af6"


def test_sweep_chunk_rows_match_golden_digest():
    records = [
        repr([None if a is None else (a.dtype.str, a.shape, a.tobytes().hex()) for a in chunk])
        for chunk in golden_chunks()
    ]
    assert len(records) == 28
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == CHUNK_DIGEST


def sweep_config(model, n, reps, seed, grid=None):
    return SimConfig(
        model=model, n=n, reps=reps, base_seed=seed, grid=grid,
        pattern=run_length_pattern(1) if model == "pattern" else None,
    )


def assert_same_comoments(got, want):
    """Two CoMomentAccumulators hold the same count, mean and comoment bits."""
    assert got.count == want.count
    np.testing.assert_array_equal(got.mean, want.mean)
    np.testing.assert_array_equal(got.comoment, want.comoment)


@pytest.mark.parametrize("model", MODELS)
def test_sweep_rows_from_short_blocks_equal_one_row_blocks(monkeypatch, model):
    # Blocks of 3 rows at n = 52 over 2 chunks of 20 reps: each chunk ends
    # on a 2-row block, which runs in the leading rows of the workspace.
    monkeypatch.setattr(evolve, "_CHUNK_CELL_BUDGET", 20 * 52)
    monkeypatch.setattr(evolve, "_BLOCK_CELL_BUDGET", 3 * 52)
    config = sweep_config(model, 52, 40, 8, grid=(0.25, 0.5))
    made = []
    workspace = evolve._workspace
    monkeypatch.setattr(evolve, "_workspace", lambda *a: made.append(a[1]) or workspace(*a))
    blocks = [evolve._sweep_chunk(config, lo, 20) for lo in (0, 20)]
    assert made == [3, 3]  # once a chunk, for its first block
    monkeypatch.setattr(evolve, "_BLOCK_CELL_BUDGET", 52)
    rows = [evolve._sweep_chunk(config, lo, 20) for lo in (0, 20)]
    assert made[2:] == [1, 1]
    for got, want in zip(blocks, rows):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float64
            np.testing.assert_array_equal(a, b)


def block_summary(config, keys, tables, pts, ws):
    """A sweep block of the reps keyed `keys`: their draws, then the kernel."""
    block = evolve._draw_block(config, StreamPool(config.base_seed), keys, ws)
    return evolve._kernel_summary(config, block, tables, pts, ws)


@pytest.mark.parametrize("model", MODELS)
def test_block_paths_live_in_the_workspace(model):
    # A short block and a full one: no block allocates its own paths.
    n = 40
    config = sweep_config(model, n, 9, 2)
    ws = evolve._workspace(config, 5)
    tables = evolve._sweep_tables(config)
    steps = 2 * n if model in ("priority-queue", "lazy-hash") else n
    for lo, rows in ((0, 5), (5, 4)):
        paths = block_summary(config, mix_keys(config.base_seed, lo, rows), tables, None, ws)[0]
        assert paths.shape == (rows, steps + 1)
        assert paths.base is not None and np.shares_memory(paths, ws["paths"])


@pytest.mark.parametrize("model", MODELS)
def test_warmed_block_allocates_under_five_bytes_a_cell(model):
    # After a first block has run in the workspace, a block of 32 rows at
    # n = 1000 allocates only per-row results and window-sized tables.
    n, rows = 1000, 32
    grid = (0.25, 0.5)
    config = sweep_config(model, n, rows, 4, grid=grid)
    ws = evolve._workspace(config, rows)
    tables = evolve._sweep_tables(config)
    pts = np.array([250, 500]) if model in ("runs-linear", "runs-cyclic", "pattern") else grid
    keys = mix_keys(config.base_seed, 0, rows)
    block_summary(config, keys, tables, pts, ws)
    tracemalloc.start()
    try:
        block_summary(config, keys, tables, pts, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * rows * n


@pytest.mark.parametrize("model", TIME_MODELS)
def test_warmed_count_read_allocates_under_five_bytes_a_cell(model):
    # The count read's masks and run starts live in the workspace at any
    # grid length; what it allocates is numpy's fixed-size ufunc buffers and
    # per-row counts.  A one-row block of 10^5 cells, whose passes hold one
    # or two points, allocates less than one mask plane (a byte a cell).
    for n, rows, bound in ((1000, 32, 5 * 32 * 1000), (100_000, 1, 100_000)):
        config = sweep_config(model, n, rows, 4, grid=DEFAULT_TIME_GRID)
        ws = evolve._workspace(config, rows)
        block = evolve._draw_block(config, StreamPool(4), mix_keys(4, 0, rows), ws)
        evolve._count_read(config, block, config.grid, ws)
        tracemalloc.start()
        try:
            evolve._count_read(config, block, config.grid, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, rows)


def test_trajectory_value_dtypes(monkeypatch):
    # The public paths keep their dtypes: the runs kernel's int32 paths are
    # widened for the single-trajectory API.  Paths and samples are copies
    # that share no memory with the workspace the kernel ran in.
    made = []
    workspace = evolve._workspace
    monkeypatch.setattr(evolve, "_workspace", lambda *a: made.append(workspace(*a)) or made[-1])
    pattern = run_length_pattern(1)
    grid = (3, 10)
    for simulate, dtype in (
        (lambda: simulate_runs(20, 1, grid=grid, keep_values=True), np.int64),
        (lambda: simulate_runs(20, 1, cyclic=True, grid=grid, keep_values=True), np.int64),
        (lambda: runs_from_order(range(20), grid=grid, keep_values=True), np.int64),
        (lambda: simulate_pattern(pattern, 20, 1, grid=grid, keep_values=True), np.float64),
        (lambda: pattern_from_order(pattern, range(20), grid=grid, keep_values=True), np.float64),
        (lambda: simulate_runs_randomized_time(20, 1, keep_values=True), np.int64),
        (lambda: simulate_priority_queue(20, 1, grid=(0.5,), keep_values=True), np.int64),
        (lambda: simulate_lazy_hash(20, 1, grid=(0.5,), keep_values=True), np.int64),
    ):
        made.clear()
        traj = simulate()
        assert traj.values.dtype == dtype and traj.samples.dtype == dtype
        assert len(made) == 1
        for region in made[0].values():
            assert not np.shares_memory(traj.values, region)
            assert not np.shares_memory(traj.samples, region)


def wide_path_outputs(model, n):
    """The dtype of a block's paths, `_sweep_chunk`'s rows and one
    `Trajectory`'s record, with a grid."""
    grid = (0.25, 0.5, 0.75)
    config = SimConfig(model=model, n=n, reps=300, base_seed=n + 5, grid=grid)
    ws = evolve._workspace(config, 3)
    paths = block_summary(config, mix_keys(0, 0, 3), evolve._sweep_tables(config), None, ws)[0]
    if model in ("runs-linear", "runs-cyclic"):
        steps = [int(round(t * n)) for t in grid]
        traj = simulate_runs(n, 6, cyclic=model == "runs-cyclic", grid=steps, keep_values=True)
    else:
        simulate = {"runs-time": simulate_runs_randomized_time,
                    "priority-queue": simulate_priority_queue, "lazy-hash": simulate_lazy_hash}
        traj = simulate[model](n, 6, grid=grid, keep_values=True)
    return paths.dtype, evolve._sweep_chunk(config, 0, config.reps), trajectory_record(traj)


@pytest.mark.parametrize("n", [2, 40])
@pytest.mark.parametrize(
    "model", ["runs-linear", "runs-cyclic", "runs-time", "priority-queue", "lazy-hash"]
)
def test_wide_paths_equal_the_int32_ones(monkeypatch, model, n):
    # Past n = 2^31 - 1 the steps, ramps and integer paths are int64; forced
    # here at small n, every sweep row and trajectory is the int32 one.
    dtype, rows, record = wide_path_outputs(model, n)
    monkeypatch.setattr(evolve, "_index_dtype", lambda n: np.int64)
    wide_dtype, wide_rows, wide_record = wide_path_outputs(model, n)
    assert (dtype, wide_dtype) == (np.int32, np.int64)
    assert wide_record == record
    for got, want in zip(wide_rows, rows):
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def test_pattern_table_built_once_per_chunk(monkeypatch):
    # 2 chunks of 20 reps, each 5 blocks of 4 rows at n = 52: the float
    # table and the jump tables made from it are built once a chunk.
    monkeypatch.setattr(evolve, "_CHUNK_CELL_BUDGET", 20 * 52)
    monkeypatch.setattr(evolve, "_BLOCK_CELL_BUDGET", 4 * 52)
    calls, tables = [], []
    table_float = PatternFunctional.table_float
    sweep_tables = evolve._sweep_tables

    def counted(pattern):
        calls.append(pattern)
        return table_float(pattern)

    monkeypatch.setattr(PatternFunctional, "table_float", counted)
    monkeypatch.setattr(evolve, "_sweep_tables", lambda config: tables.append(config) or
                        sweep_tables(config))
    config = SimConfig(model="pattern", n=52, reps=40, base_seed=3, pattern=run_length_pattern(1))
    run_sweep(config)
    assert len(calls) == 2
    assert tables == [config, config]


def test_trajectory_scalars_are_python_numbers():
    pattern = run_length_pattern(1)
    for traj, value_type, argmax_type in (
        (simulate_runs(20, 1), int, int),
        (simulate_pattern(pattern, 20, 1), float, int),
        (simulate_runs_randomized_time(20, 1), int, float),  # argmax is a time
        (simulate_priority_queue(20, 1), int, int),
        (simulate_lazy_hash(20, 1), int, int),
    ):
        assert type(traj.n) is int
        assert type(traj.max_value) is value_type and type(traj.mid_value) is value_type
        assert type(traj.argmax) is argmax_type


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
        )
        result = run_sweep(config)
        assert result.max_stats.count == 5
        assert result.grid_stats.count == 5 and result.grid_stats.mean.shape == (2,)
        assert evolve.grid_samples(config).shape == (5, 2)


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


def test_sweep_jobs_bit_identical_at_desk_scale():
    # The acceptance gate's criterion-4 shape, which it runs with two
    # workers: n = 10^6 puts 4 reps in a chunk, so 12 reps make 3 chunks.
    config = SimConfig(
        model="runs-linear", n=10**6, reps=12, base_seed=0, grid=(0.25, 0.5),
        keep_max_samples=True,
    )
    a = run_sweep(config)
    b = run_sweep(replace(config, jobs=2))
    np.testing.assert_array_equal(a.max_samples, b.max_samples)
    for name in ("max_stats", "argmax_stats", "mid_stats"):
        assert getattr(a, name) == getattr(b, name)
    assert a.grid_stats.count == 12
    assert_same_comoments(a.grid_stats, b.grid_stats)


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


@pytest.mark.parametrize("model", [m for m in MODELS if m != "pattern"])
def test_cyclic_false_is_refused_outside_the_pattern_model(model):
    # The runs flavor is in the model tag; cyclic=False used to run cyclic
    # runs without a word.
    message = f"^cyclic=False only applies to the pattern model, not '{model}'$"
    with pytest.raises(ValueError, match=message):
        SimConfig(model=model, n=10, reps=1, base_seed=0, cyclic=False)
    linear = SimConfig(model="pattern", n=10, reps=1, base_seed=0,
                       pattern=run_length_pattern(1), cyclic=False)
    assert not linear.cyclic


def test_sweep_grid_stats_match_closed_form_loosely():
    # mean run count at half fill is about n/4
    config = SimConfig(model="runs-linear", n=400, reps=400, base_seed=17, grid=(0.5,))
    result = run_sweep(config)
    se = math.sqrt(result.grid_stats.covariance()[0, 0] / 400)
    assert abs(result.grid_stats.mean[0] - 100.25) < 6 * se + 1
