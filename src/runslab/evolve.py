"""Simulators for evolving runs, window patterns, and queue occupancy.

Three model families share one sweep harness:

* runs of 1s in a 0/1 row filled in random order (linear or cyclic), driven
  by the constant-time increment 1 - occupied(left) - occupied(right);
* an arbitrary window functional summed over the row, updated incrementally
  through the <= 2L-1 windows that contain the inserted cell;
* queue occupancy: n insert/delete pairs swept in event order, equivalently
  a hash table with lazy deletions whose arrival/departure pairs are the
  ordered statistics of two uniforms.

Every repetition draws from its own counter-based stream keyed by
(base seed, repetition index), so sweeps are reproducible bit for bit and
independent of how work is chunked across processes.

Each model has one kernel, and it works on a block: a (rows, n) array whose
rows are the draws of separate repetitions (insertion orders, arrival
times, or event times).  The single-trajectory functions pass a one-row
block.  A sweep derives the keys of a chunk's repetitions in one vectorized
pass (``mix_keys``) and fills the block with exactly the draws
``stream(base_seed, rep)`` would give: for insertion orders of up to
``_BATCH_ORDER_MAX_N`` cells in blocks of at least ``_BATCH_ORDER_MIN_ROWS``
rows, from every row's Philox words at once (``philox_words``) run through
numpy's shuffle algorithm for all rows together; otherwise by re-keying one
Philox instance per row.  It then
runs the kernel once over the block and reads max, argmax, mid value and
grid samples off the block of paths.  Blocks hold at most
``_BLOCK_CELL_BUDGET`` cells, so small-n sweeps amortize numpy's per-call
cost over hundreds of repetitions while large-n sweeps keep one
repetition, and one path, in memory at a time.

The time-ordered models (runs-time and the queues) sweep each row in
ascending time, ties broken by index, which is the order a stable argsort
gives.  They need only the times in that order and each event's step, so
they sort packed (time bits, step) uint64 keys with numpy's default sort
and read both back off the keys; no index is sorted or gathered.  Rows
whose times are tied, or not all in [0, 2), are sorted again stably.  A
row of distinct times has exactly one ascending order, so the result is
the stable order bit for bit whatever algorithm numpy's default sort
uses: its SIMD integer sort gives the speed, not the correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._rng import StreamPool, mix_keys, ordered_map, philox_words, stream
from .patterns import PatternFunctional
from .stats import CoMomentAccumulator, MomentAccumulator

__all__ = [
    "MODELS",
    "DEFAULT_TIME_GRID",
    "Trajectory",
    "SimConfig",
    "SweepResult",
    "simulate_runs",
    "runs_from_order",
    "simulate_runs_randomized_time",
    "simulate_pattern",
    "pattern_from_order",
    "simulate_priority_queue",
    "simulate_lazy_hash",
    "run_sweep",
]

MODELS = (
    "runs-linear",
    "runs-cyclic",
    "runs-time",
    "pattern",
    "priority-queue",
    "lazy-hash",
)

DEFAULT_TIME_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# Reps per chunk are chosen from (n, reps) alone -- never from the worker
# count -- so chunk boundaries, and therefore accumulated floating-point
# results, do not depend on parallelism.
_CHUNK_CELL_BUDGET = 1 << 22

# Cells per kernel block (at least one row).  Per-rep results do not depend
# on it; it bounds the kernel's working arrays to a few hundred KB each,
# which keeps them in cache and keeps peak memory where one large-n rep
# puts it.
_BLOCK_CELL_BUDGET = 1 << 15


@dataclass(frozen=True)
class Trajectory:
    """One realized evolution, summarized.

    `argmax` is the first step index attaining the maximum for step-indexed
    models, and the first attaining arrival time for "runs-time".
    `mid_value` is the value at step ceil(n/2) (runs/pattern), after the
    n-th event (queues), or at t = 1/2 (runs-time).  `values` holds the full
    path (length n+1, or 2n+1 for queues) when requested.
    """

    model: str
    n: int
    max_value: float
    argmax: float
    mid_value: float
    grid: Optional[Tuple[float, ...]] = None
    samples: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")


def _check_cyclic_size(cyclic: bool, n: int) -> None:
    # A lone occupied cell on a 1-cycle is its own neighbor, so the ascent
    # count and the insertion increments stop agreeing; rule the case out.
    if cyclic and n < 2:
        raise ValueError("cyclic mode needs n >= 2")


def _check_order(order: Sequence[int]) -> np.ndarray:
    order = np.asarray(order, dtype=np.int64)
    n = order.size
    if not np.array_equal(np.bincount(order, minlength=n), np.ones(n, dtype=np.int64)):
        raise ValueError("order must be a permutation of 0..n-1")
    return order


# -- block helpers -----------------------------------------------------------
#
# A block is a (rows, n) array, one repetition per row.  Insertion orders
# hold flat cell indices: row r is a permutation of r*n .. r*n+n-1, so one
# flat index array scatters and gathers a whole block (two index arrays
# would cost ~24 ms more per rep at n = 10^6).  For one row it is just the
# order.


def _filled_at(orders: np.ndarray) -> np.ndarray:
    """The step at which each cell of the block fills."""
    n = orders.shape[1]
    # Only compared, so 32 bits do while they fit: half the bytes to scatter.
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    # Scatter through 1-d views: numpy's 1-d fancy assignment is ~40%
    # faster than one with a 2-d index.  For one row nothing is copied.
    steps = np.broadcast_to(np.arange(n, dtype=dtype), orders.shape)
    filled_at = np.empty(orders.shape, dtype=dtype)
    filled_at.reshape(-1)[orders.reshape(-1)] = steps.reshape(-1)
    return filled_at


def _accumulate(delta: np.ndarray, orders: np.ndarray, dtype) -> np.ndarray:
    """Paths from 0 along each row's order: value after m steps is the sum
    of the increments of the first m cells filled."""
    rows, n = delta.shape
    values = np.zeros((rows, n + 1), dtype=dtype)
    np.cumsum(delta.reshape(-1)[orders], axis=1, dtype=dtype, out=values[:, 1:])
    return values


def _first_max(values: np.ndarray):
    """Per row: the max and the first index attaining it."""
    argmax = values.argmax(axis=1)
    return values[np.arange(values.shape[0]), argmax], argmax


def _step_summary(values: np.ndarray, step_idx: Optional[np.ndarray]):
    """A step-indexed block of paths and, per row: max, first argmax, value
    at step ceil(n/2), and the values at the grid steps (None without a
    grid).  The per-row parts are copies, so the paths can be freed."""
    n = values.shape[1] - 1
    maxv, argmax = _first_max(values)
    samples = values[:, step_idx] if step_idx is not None else None
    return values, maxv, argmax, values[:, (n + 1) // 2].copy(), samples


# A time-sort key is a float64 time's bits shifted up past a 2-bit code.  For
# non-negative doubles below 2.0 the bits increase with the value and stay
# under 2^62, so the keys of distinct times sort exactly as the times do.
_CODE_BITS = np.uint64(2)
_CODE_MASK = np.uint64(3)
_TIME_BITS_LIMIT = np.float64(2.0).view(np.uint64)  # 2^62


def _time_path(times: np.ndarray, steps: np.ndarray):
    """Per row of `times`: the times in the order `argsort(kind="stable")`
    gives, and the path from 0 that adds steps[k] (-1, 0 or 1, broadcast to
    the shape of `times`) as time k passes.

    Rows of distinct times in [0, 2) sort packed (time, step + 1) keys,
    which carry each step with its time, so no index is sorted or gathered.
    Such a row has one ascending order, so any sort finds it.  Rows with a
    tie, a NaN, a set sign bit (-0.0 too), an infinity or a time >= 2 are
    sorted again with a stable argsort.
    """
    rows, m = times.shape
    bits = times.view(np.uint64)
    # In place where it can be: a fresh block-sized array costs page faults.
    codes = np.empty(times.shape, dtype=np.uint8)
    np.add(steps, 1, out=codes, casting="unsafe")
    keys = bits << _CODE_BITS
    keys |= codes
    keys.sort(axis=1)
    np.bitwise_and(keys, _CODE_MASK, out=codes, casting="unsafe")
    keys >>= _CODE_BITS
    ranked = keys.view(np.float64)
    redo = (bits >= _TIME_BITS_LIMIT).any(axis=1) | ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
    if redo.any():
        order = np.argsort(times[redo], axis=1, kind="stable")
        ranked[redo] = np.take_along_axis(times[redo], order, axis=1)
        redo_steps = np.broadcast_to(steps, times.shape)[redo]
        codes[redo] = np.take_along_axis(redo_steps, order, axis=1) + 1
    path = np.empty((rows, m + 1), dtype=np.int64)
    path[:, 0] = 0
    np.cumsum(codes, axis=1, dtype=np.int64, out=path[:, 1:])
    path[:, 1:] -= np.arange(1, m + 1)  # each code is its step + 1
    return ranked, path


def _count_at_most(sorted_rows: np.ndarray, pts) -> np.ndarray:
    """Per sorted row, how many entries are <= each point of `pts`."""
    return np.array([np.searchsorted(row, pts, side="right") for row in sorted_rows])


def _check_step_grid(grid: Optional[Sequence[int]], n: int) -> Optional[np.ndarray]:
    if grid is None:
        return None
    idx = np.asarray(grid, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() > n):
        raise ValueError(f"step grid must lie in 0..{n}")
    return idx


def _trajectory(
    model: str, n: int, summary, grid: Optional[Sequence], keep_values: bool
) -> Trajectory:
    """Row 0 of a kernel summary (paths, max, argmax, mid value, samples).

    ``.item()`` gives Python ints for the integer paths and floats for the
    float ones (pattern values, runs-time arrival times).
    """
    values, maxv, argmax, mid, samples = summary
    return Trajectory(
        model=model,
        n=n,
        max_value=maxv[0].item(),
        argmax=argmax[0].item(),
        mid_value=mid[0].item(),
        grid=tuple(grid) if grid is not None else None,
        samples=samples[0] if samples is not None else None,
        values=values[0] if keep_values else None,
    )


# -- runs kernel -------------------------------------------------------------


def _runs_steps(e: np.ndarray, cyclic: bool) -> np.ndarray:
    """Each cell's run-count increment, from the int8 block e[k] = [cell k
    fills before cell k+1] (k+1 mod n when cyclic; k < n-1 when linear)."""
    # Filling cell k adds 1 - [left neighbor present] - [right neighbor
    # present].  The left neighbor is present iff e[k-1] and the right one
    # iff not e[k], so the increment is e[k] - e[k-1] (cyclic: indices mod
    # n); a linear row's last cell has no right neighbor and gets 1 - e[n-2].
    if cyclic:
        return e - np.roll(e, 1, axis=1)
    delta = np.zeros((e.shape[0], e.shape[1] + 1), dtype=np.int8)
    delta[:, :-1] += e
    delta[:, 1:] -= e
    delta[:, -1] += 1
    return delta


def _runs_values(orders: np.ndarray, cyclic: bool) -> np.ndarray:
    """Run counts after 0..n insertions, one row per (flat) insertion order."""
    filled_at = _filled_at(orders)
    if cyclic:
        e = (filled_at < np.roll(filled_at, -1, axis=1)).view(np.int8)
    else:
        e = (filled_at[:, :-1] < filled_at[:, 1:]).view(np.int8)
    return _accumulate(_runs_steps(e, cyclic), orders, np.int64)


def _runs_time_summary(times: np.ndarray, pts: Optional[Sequence[float]]):
    """Runs with independent arrival times, one row of `times` per rep.

    Returns the step-indexed paths (in arrival order) and, per row: max,
    first attaining arrival time, value at t = 1/2, and the values at the
    fill fractions `pts` (None without them).
    """
    # Cell k fills before k+1 in stable time order when its time is earlier
    # or tied (index order), or when k+1's is a NaN, which sorts last.
    e = ((times[:, :-1] <= times[:, 1:]) | np.isnan(times[:, 1:])).view(np.int8)
    sorted_times, values = _time_path(times, _runs_steps(e, cyclic=False))
    maxv, argmax_step = _first_max(values)
    rows = np.arange(times.shape[0])
    argmax_t = np.where(argmax_step == 0, 0.0, sorted_times[rows, argmax_step - 1])
    at = values[rows[:, None], _count_at_most(sorted_times, (0.5, *(pts or ())))]
    return values, maxv, argmax_t, at[:, 0], (at[:, 1:] if pts is not None else None)


def runs_from_order(
    order: Sequence[int], *, cyclic: bool = False, grid: Optional[Sequence[int]] = None,
    keep_values: bool = False,
) -> Trajectory:
    """Run counts along an explicit insertion order (the identity order
    keeps a single growing run, which pins the increment logic in tests)."""
    order = _check_order(order)
    n = order.size
    _require_positive(n)
    _check_cyclic_size(cyclic, n)
    summary = _step_summary(_runs_values(order[None, :], cyclic), _check_step_grid(grid, n))
    return _trajectory("runs-cyclic" if cyclic else "runs-linear", n, summary, grid, keep_values)


def simulate_runs(
    n: int, seed: int, *, cyclic: bool = False, grid: Optional[Sequence[int]] = None,
    keep_values: bool = False,
) -> Trajectory:
    """One uniformly random insertion order; summary per `Trajectory`."""
    _require_positive(n)
    _check_cyclic_size(cyclic, n)
    order = stream(seed).permutation(n)
    return runs_from_order(order, cyclic=cyclic, grid=grid, keep_values=keep_values)


def simulate_runs_randomized_time(
    n: int, seed: int, *, grid: Optional[Sequence[float]] = None, keep_values: bool = False,
) -> Trajectory:
    """Runs process (linear row) with independent uniform arrival times per cell.

    The path visits exactly the states of the step-indexed process (in
    arrival order), so its max equals the step-indexed max; samples are
    taken at fill fractions t by counting arrivals up to t.
    """
    _require_positive(n)
    times = stream(seed).random(n)
    grid_t = DEFAULT_TIME_GRID if grid is None else tuple(float(t) for t in grid)
    summary = _runs_time_summary(times[None, :], grid_t)
    return _trajectory("runs-time", n, summary, grid_t, keep_values)


# -- window-pattern kernel ---------------------------------------------------


def _pattern_values(
    table: np.ndarray, ell: int, orders: np.ndarray, cyclic: bool
) -> np.ndarray:
    """Windowed sums after 0..n insertions, one row per (flat) insertion order."""
    rows, n = orders.shape
    filled_at = _filled_at(orders)
    # The masks are window values, so 8 bits hold them up to 8 cells and 16
    # bits up to MAX_WINDOW_LEN: an eighth or a quarter of int64's traffic.
    dtype = np.uint8 if ell <= 8 else np.uint16
    earlier = {}
    for d in range(-(ell - 1), ell):
        if d:
            # cell k+d (mod n) occupied before cell k's own insertion
            earlier[d] = (np.roll(filled_at, -d, axis=1) < filled_at).astype(dtype)
    windows = np.arange(table.size)
    delta = np.zeros((rows, n), dtype=np.float64)
    for o in range(ell):
        inserted_bit = 1 << (ell - 1 - o)
        # the jump of every window value when cell o fills: the float
        # subtraction the loop makes per cell, made once per value
        jump = table[windows | inserted_bit] - table[windows]
        mask = np.zeros((rows, n), dtype=dtype)
        for i in range(ell):
            if i != o:
                mask |= earlier[i - o] << dtype(ell - 1 - i)
        if cyclic:
            delta += jump[mask]
        else:
            # window start k-o must stay within 0..n-ell
            cells = slice(o, n - ell + o + 1)
            delta[:, cells] += jump[mask[:, cells]]
    values = _accumulate(delta, orders, np.float64)
    values += table[0] * (n if cyclic else n - ell + 1)
    return values


def _check_pattern_size(pattern: PatternFunctional, n: int) -> None:
    if n < 2 * pattern.length:
        raise ValueError(
            f"need n >= twice the window length ({2 * pattern.length}), got {n}"
        )


def pattern_from_order(
    pattern: PatternFunctional, order: Sequence[int], *, cyclic: bool = True,
    grid: Optional[Sequence[int]] = None, keep_values: bool = False,
) -> Trajectory:
    """Windowed sum along an explicit insertion order."""
    order = _check_order(order)
    n = order.size
    _check_pattern_size(pattern, n)
    values = _pattern_values(pattern.table_float(), pattern.length, order[None, :], cyclic)
    summary = _step_summary(values, _check_step_grid(grid, n))
    return _trajectory("pattern", n, summary, grid, keep_values)


def simulate_pattern(
    pattern: PatternFunctional, n: int, seed: int, *, cyclic: bool = True,
    grid: Optional[Sequence[int]] = None, keep_values: bool = False,
) -> Trajectory:
    """One random insertion order for an arbitrary window functional."""
    _check_pattern_size(pattern, n)
    order = stream(seed).permutation(n)
    return pattern_from_order(pattern, order, cyclic=cyclic, grid=grid, keep_values=keep_values)


# -- queue kernel ------------------------------------------------------------


def _queue_events_minmax(u: np.ndarray, v: np.ndarray):
    return np.minimum(u, v), np.maximum(u, v)


def _queue_events_inverse(u: np.ndarray, v: np.ndarray):
    # Arrival is the min of two uniforms drawn by inverse CDF; departure is
    # then uniform on (arrival, 1).  Same joint law as the min/max pairing,
    # by an independent construction.
    arrive = 1.0 - np.sqrt(1.0 - u)
    depart = arrive + (1.0 - arrive) * v
    return arrive, depart


def _queue_summary(arrive: np.ndarray, depart: np.ndarray, pts: Optional[Sequence[float]]):
    """Occupancy paths over the 2n events in time order, one row per rep.

    Returns the paths and, per row: max, first attaining event index, value
    after the n-th event, and the occupancy at times `pts` (None without
    them).  The occupancy at t is the path after the events up to t.
    """
    rows, n = arrive.shape
    times = np.concatenate([arrive, depart], axis=1)
    steps = np.repeat(np.array([1, -1], dtype=np.int8), n)  # arrivals, then departures
    event_times, values = _time_path(times, steps)
    maxv, argmax = _first_max(values)
    samples = None
    if pts is not None:
        counts = _count_at_most(event_times, pts)
        samples = values[np.arange(rows)[:, None], counts]
    return values, maxv, argmax, values[:, n].copy(), samples


def _queue_trajectory(
    model: str, arrive: np.ndarray, depart: np.ndarray,
    grid: Optional[Sequence[float]], keep_values: bool,
) -> Trajectory:
    grid_t = tuple(float(t) for t in grid) if grid is not None else None
    summary = _queue_summary(arrive[None, :], depart[None, :], grid_t)
    return _trajectory(model, arrive.size, summary, grid_t, keep_values)


def simulate_priority_queue(
    n: int, seed: int, *, grid: Optional[Sequence[float]] = None, keep_values: bool = False,
) -> Trajectory:
    """Occupancy of a queue under n insert/delete pairs in random order.

    Each item holds two independent uniform times; it enters at the earlier
    and leaves at the later.  The 2n events are swept exactly in time order
    (no discretization); the path starts and ends at 0.
    """
    _require_positive(n)
    arrive, depart = _queue_events_minmax(*stream(seed).random((2, n)))
    return _queue_trajectory("priority-queue", arrive, depart, grid, keep_values)


def simulate_lazy_hash(
    n: int, seed: int, *, grid: Optional[Sequence[float]] = None, keep_values: bool = False,
) -> Trajectory:
    """Hash-table-with-lazy-deletion occupancy; same law as the queue model.

    Kept as a genuinely independent implementation (inverse-CDF draw of the
    arrival, conditional draw of the departure) so the distributional
    equivalence stays a testable claim rather than shared code.
    """
    _require_positive(n)
    arrive, depart = _queue_events_inverse(*stream(seed).random((2, n)))
    return _queue_trajectory("lazy-hash", arrive, depart, grid, keep_values)


# -- sweep harness -----------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """One sweep: model, size, repetitions, seed, and what to collect.

    `grid` entries are fill fractions in (0, 1); step-indexed models sample
    step round(t * n).  `cyclic` only affects the pattern model (the runs
    flavor is in the model tag).
    """

    model: str
    n: int
    reps: int
    base_seed: int
    grid: Optional[Tuple[float, ...]] = None
    pattern: Optional[PatternFunctional] = None
    cyclic: bool = True
    jobs: int = 1
    keep_max_samples: bool = False
    keep_grid_samples: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        _require_positive(self.n)
        _check_cyclic_size(self.model == "runs-cyclic", self.n)
        if self.reps < 1:
            raise ValueError(f"need reps >= 1, got {self.reps}")
        if self.jobs < 1:
            raise ValueError(f"need jobs >= 1, got {self.jobs}")
        if self.model == "pattern":
            if self.pattern is None:
                raise ValueError("pattern model needs a PatternFunctional")
            _check_pattern_size(self.pattern, self.n)
        elif self.pattern is not None:
            raise ValueError(f"model {self.model!r} does not take a pattern")
        if self.grid is not None:
            grid = tuple(float(t) for t in self.grid)
            if any(not 0.0 < t < 1.0 for t in grid):
                raise ValueError("grid entries must lie strictly between 0 and 1")
            object.__setattr__(self, "grid", grid)


@dataclass
class SweepResult:
    """Aggregates over one sweep; raw samples only when asked for."""

    config: SimConfig
    max_stats: MomentAccumulator
    argmax_stats: MomentAccumulator
    mid_stats: MomentAccumulator
    grid_stats: Optional[CoMomentAccumulator] = None
    max_samples: Optional[np.ndarray] = None
    grid_samples: Optional[np.ndarray] = None


def _chunk_size(n: int, reps: int) -> int:
    return max(1, min(reps, _CHUNK_CELL_BUDGET // max(n, 1)))


def _grid_step_indices(grid: Tuple[float, ...], n: int) -> np.ndarray:
    return np.asarray([int(round(t * n)) for t in grid], dtype=np.int64)


# A block's insertion orders come from one vectorized pass over its rows
# (`_batch_orders`) when rows have at most _BATCH_ORDER_MAX_N cells and the
# block has at least _BATCH_ORDER_MIN_ROWS rows; otherwise numpy shuffles
# row by row.  The pass's cost per row grows with the draws a row makes,
# while the per-row shuffle's is mostly call overhead, about 2 us.  On full
# 2^15-cell blocks (2-core Xeon, numpy 2.4) the pass drew the orders 3.0x
# as fast as the per-row shuffle at n = 9, 2.1x at n = 13, 1.1x at n = 31,
# 0.96-1.06x at n = 32 and 0.66x at n = 52.  The pass also has a fixed cost
# of about 0.4-0.6 ms a block, so it broke even at about 190 rows for
# n = 2, 255 for n = 9, 320 for n = 13, 480 for n = 20 and 740 for n = 31;
# smaller blocks (a chunk's last block, or a sweep of few reps) keep the
# per-row shuffle.
_BATCH_ORDER_MAX_N = 31
_BATCH_ORDER_MIN_ROWS = 768


def _shuffle_draw_blocks(n: int) -> int:
    """Philox blocks (8 uint32 draws each) that cover the mean plus 3 SD of
    the uint32 draws numpy's shuffle of n cells makes.

    Step i takes a geometric number of draws, each accepted with
    probability (i + 1) / (mask_i + 1).
    """
    mean = var = 0.0
    for i in range(1, n):
        p = (i + 1) / (1 << i.bit_length())
        mean += 1 / p
        var += (1 - p) / p**2
    return max(1, math.ceil((mean + 3 * math.sqrt(var)) / 8))


def _batch_orders(keys: np.ndarray, n: int, blocks: int):
    """Insertion orders for a block, row r keyed keys[r], from the first
    `blocks` Philox blocks of each row's stream; and which rows they cover.

    Numpy's shuffle of an n-cell array swaps cell i with cell j for i = n-1
    down to 1, j drawn by `random_interval(i)`: uint32 draws u (the low,
    then the high half of each 64-bit word), masked to the smallest
    all-ones value >= i, until u & mask <= i.  The scan below carries every
    row's step i through the draw positions at once, then applies the swaps
    to an (n, rows) array.  A row is covered when all its steps are done
    within those draws; an uncovered row holds some other permutation.
    """
    rows = keys.size
    words = philox_words(keys, blocks).T
    draws = np.empty((2 * words.shape[0], rows), dtype=np.uint32)
    np.bitwise_and(words, np.uint64(0xFFFFFFFF), out=draws[0::2], casting="unsafe")
    np.right_shift(words, np.uint64(32), out=draws[1::2], casting="unsafe")
    # masks[i] for i = 0..n-1.  A row whose step reaches 0 accepts once more
    # and rests at step -1, which reads masks[-1] and never accepts again.
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(n)], dtype=np.uint32)
    step = np.full(rows, n - 1, dtype=np.int64)
    # picks[(i + 1) * rows + r] is row r's j at step i; its first two rows
    # take the writes of steps -1 and 0.
    picks = np.empty((n + 1) * rows, dtype=np.uint32)
    slot = np.arange(n * rows, (n + 1) * rows)
    for u in draws:
        v = u & masks[step]
        picks[slot] = v  # a rejected draw is overwritten by the accepted one
        accept = v <= step
        step -= accept
        np.subtract(slot, rows, out=slot, where=accept)
    covered = step <= 0
    # An uncovered row's picks are partial; any in-range value will do.
    picks.reshape(n + 1, rows)[:, ~covered] = 0
    perm = np.empty((n, rows), dtype=np.int64)
    perm[...] = np.arange(n)[:, None]
    flat = perm.reshape(-1)
    cols = np.arange(rows)
    for i in range(n - 1, 0, -1):
        j = picks[(i + 1) * rows : (i + 2) * rows] * rows + cols
        moved = flat[j]
        flat[j] = perm[i]
        perm[i] = moved
    orders = np.empty((rows, n), dtype=np.int64)
    np.add(perm.T, (cols * n)[:, None], out=orders)
    return orders, covered


def _shuffle_rows(pool: StreamPool, orders: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Shuffle row r of `orders` in place on the stream keyed keys[r]."""
    for row, key in zip(orders, keys.tolist()):  # Python ints re-key fastest
        pool.rekey(key).shuffle(row)
    return orders


def _draw_orders(pool: StreamPool, keys: np.ndarray, n: int) -> np.ndarray:
    """Flat insertion orders; row r is r*n + the order the rep keyed keys[r]
    draws by `permutation(n)`, which is a shuffle of arange (the shuffle's
    draws do not depend on the values it moves).  Rows the batch pass does
    not cover are shuffled one by one, so no row depends on its budget."""
    rows = keys.size
    if n > _BATCH_ORDER_MAX_N or rows < _BATCH_ORDER_MIN_ROWS:
        orders = np.arange(rows * n, dtype=np.int64).reshape(rows, n)
        return _shuffle_rows(pool, orders, keys)
    orders, covered = _batch_orders(keys, n, _shuffle_draw_blocks(n))
    redo = np.flatnonzero(~covered)
    orders[redo] = _shuffle_rows(pool, redo[:, None] * n + np.arange(n), keys[redo])
    return orders


def _draw_uniforms(pool: StreamPool, keys: np.ndarray, n: int) -> np.ndarray:
    """Row r: `random(n)` on the stream keyed keys[r]."""
    times = np.empty((keys.size, n), dtype=np.float64)
    for row, key in zip(times, keys.tolist()):
        pool.rekey(key).random(out=row)
    return times


def _block_summary(
    config: SimConfig, pool: StreamPool, keys: np.ndarray, table: Optional[np.ndarray]
):
    """The block of paths of the reps keyed `keys`, then their per-rep max,
    argmax, mid value and grid samples (None without a grid).  `table` is
    the pattern's float table (None for the other models)."""
    model, n, grid = config.model, config.n, config.grid
    if model in ("runs-linear", "runs-cyclic", "pattern"):
        orders = _draw_orders(pool, keys, n)
        if model == "pattern":
            values = _pattern_values(table, config.pattern.length, orders, config.cyclic)
        else:
            values = _runs_values(orders, model == "runs-cyclic")
        step_idx = _grid_step_indices(grid, n) if grid is not None else None
        return _step_summary(values, step_idx)
    if model == "runs-time":
        return _runs_time_summary(_draw_uniforms(pool, keys, n), grid)
    draw = _queue_events_minmax if model == "priority-queue" else _queue_events_inverse
    u = _draw_uniforms(pool, keys, 2 * n)  # a rep's n draws of u, then its n of v
    return _queue_summary(*draw(u[:, :n], u[:, n:]), grid)


def _sweep_chunk(config: SimConfig, start: int, count: int):
    """Run reps start..start+count-1 and return their per-rep summaries."""
    pool = StreamPool(config.base_seed)
    # A 16-cell window's table takes tens of ms to build: once a chunk.
    table = config.pattern.table_float() if config.pattern is not None else None
    rows = max(1, _BLOCK_CELL_BUDGET // config.n)
    stop = start + count
    blocks = []
    for lo in range(start, stop, rows):
        keys = mix_keys(config.base_seed, lo, min(rows, stop - lo))
        # `paths` stays bound until the next block's paths replace it.
        # Holding one block of paths across the next kernel call stops
        # glibc from trimming the heap top and faulting it back in every
        # block: 5x fewer page faults, and a third less time, for the
        # run-length-1 pattern sweep at n = 10^5.
        paths, *summary = _block_summary(config, pool, keys, table)
        blocks.append(summary)
    maxes, argmaxes, mids, grid_rows = (
        None if parts[0] is None else np.concatenate(parts).astype(np.float64)
        for parts in zip(*blocks)
    )
    return maxes, argmaxes, mids, grid_rows


def run_sweep(config: SimConfig) -> SweepResult:
    """Execute the sweep; deterministic for fixed config regardless of jobs.

    Work is split into chunks whose boundaries depend only on (n, reps);
    chunk outputs are accumulated in chunk order, so the result is
    bit-identical whether chunks run serially or across a process pool.
    """
    result = SweepResult(
        config=config,
        max_stats=MomentAccumulator(),
        argmax_stats=MomentAccumulator(),
        mid_stats=MomentAccumulator(),
        grid_stats=CoMomentAccumulator(len(config.grid)) if config.grid else None,
        max_samples=None,
        grid_samples=None,
    )
    kept_max = [] if config.keep_max_samples else None
    kept_grid = [] if config.keep_grid_samples and config.grid else None

    size = _chunk_size(config.n, config.reps)
    args = [(config, lo, min(size, config.reps - lo)) for lo in range(0, config.reps, size)]
    for maxes, argmaxes, mids, grid_rows in ordered_map(_sweep_chunk, args, config.jobs):
        result.max_stats.add_batch(maxes)
        result.argmax_stats.add_batch(argmaxes)
        result.mid_stats.add_batch(mids)
        if result.grid_stats is not None and grid_rows is not None:
            result.grid_stats.add_batch(grid_rows)
        if kept_max is not None:
            kept_max.append(maxes)
        if kept_grid is not None and grid_rows is not None:
            kept_grid.append(grid_rows)

    if kept_max is not None:
        result.max_samples = np.concatenate(kept_max)
    if kept_grid is not None:
        result.grid_samples = np.concatenate(kept_grid)
    return result
