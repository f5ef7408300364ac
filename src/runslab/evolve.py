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

Each model has one draw step (``_draw_block``) and one kernel step
(``_kernel_summary``), and both work on a block: a (rows, n) array whose
rows are the draws of separate repetitions (insertion orders, arrival
times, or event times).  A sweep derives the keys of a chunk's repetitions
in one vectorized pass (``mix_keys``) and fills the block with exactly the
draws ``stream(base_seed, rep)`` would give: for insertion orders of up to
``_BATCH_ORDER_MAX_N`` cells in blocks of at least ``_BATCH_ORDER_MIN_ROWS``
rows, from every row's Philox words at once (``philox_words``) run through
numpy's shuffle algorithm for all rows together; otherwise by re-keying one
Philox instance per row.  It then runs the kernel once over the block.
Each kernel returns its block of paths, the time-ordered ones with their
times in order; ``_kernel_summary`` reads every model's max, first argmax,
mid value and grid samples off the paths in one place, at the steps the
model names for each row.
Blocks hold at most ``_BLOCK_CELL_BUDGET`` cells, so small-n sweeps
amortize numpy's per-call cost over hundreds of repetitions while large-n
sweeps keep one repetition, and one path, in memory at a time.

A single trajectory is rep 0 of a one-rep sweep keyed by its seed, so it
draws what ``stream(seed)`` gives; the ``*_from_order`` functions hand
their order to the kernel step instead.

Every kernel writes its block-sized arrays into one workspace
(``_workspace``) made for a sweep chunk's first block, so later blocks
allocate none and, below the size `_workspace` states, fault in no pages.
A single trajectory runs in a one-row workspace and copies what it keeps.
Every integer path (runs, runs-time and the queues) is int32 while its
step count fits, since no run count exceeds ceil(n/2) and no queue holds
more than n; a `Trajectory` widens them to int64.  What a kernel reads
beyond its block (a pattern's jump tables, a queue's step row) is made
once a chunk (``_sweep_tables``).

The time-ordered models (runs-time and the queues) sweep each row in
ascending time, ties broken by index, which is the order a stable argsort
gives.  They need only the times in that order and each event's step, so
they sort packed (time bits, step) uint64 keys with numpy's default sort
and read both back off the keys; no index is sorted or gathered.  Rows
whose times are tied, or not all in [0, 2), are sorted again stably.  A
row of distinct times has exactly one ascending order, so the result is
the stable order bit for bit whatever algorithm numpy's default sort
uses: its SIMD integer sort gives the speed, not the correctness.

Covariance grids (``grid_samples``) need only each rep's values at the
grid times, which the time-ordered models count off their unsorted draws
(``_count_read``): no sort and no path.  This count read and the path read
(``run_sweep``'s ``grid_stats``) are a deliberate dual route, pinned equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np

from ._rng import StreamPool, mix_keys, ordered_map, philox_words
from ._rng import stream  # noqa: F401 -- no draw here; perfbench's tracer test rebinds it
from .patterns import PatternFunctional
from .stats import CoMomentAccumulator, MomentAccumulator

__all__ = [
    "MODELS",
    "MODEL_ALIASES",
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
    "grid_samples",
]

MODELS = (
    "runs-linear",
    "runs-cyclic",
    "runs-time",
    "pattern",
    "priority-queue",
    "lazy-hash",
)

# Names accepted anywhere a model tag is: the tags, and short ones for them.
MODEL_ALIASES = {"runs": "runs-linear", "pq": "priority-queue", "queue": "priority-queue",
                 **{name: name for name in MODELS}}

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

# Grid points and mask cells per count-read pass (`_count_read`).  Four
# points keep a pass's masks, and a runs-time pass's run starts, inside the
# sort's regions of the workspace, so counting does not enlarge it; 2^18
# cells, passed only by a pass of one point, keep them in cache.
_COUNT_PASS_POINTS = 4
_COUNT_PASS_CELLS = 1 << 18


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
#
# Every kernel takes a workspace (`_workspace`): named byte regions, made
# once a sweep chunk (a single trajectory is a one-rep chunk) and sized for
# its first block, which has the most rows.  A kernel takes each
# block-sized array as a view of the leading bytes of a region, so a shorter
# last block fits, and arrays whose lives do not overlap can share a region.


def _scratch(ws: dict, region: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized view of the leading bytes of the workspace's `region`."""
    return np.ndarray(shape, dtype, buffer=ws[region])


def _index_dtype(n: int):
    """32 bits while they hold 0..n (steps, and the values of an integer
    path of n steps): half the bytes of int64 to scatter, gather and scan."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _filled_at(orders: np.ndarray, ws: dict) -> np.ndarray:
    """The step at which each cell of the block fills."""
    ramp = _scratch(ws, "ramp", orders.shape, _index_dtype(orders.shape[1]))
    # dead before the paths are written, so it shares their region
    filled_at = _scratch(ws, "paths", orders.shape, ramp.dtype)
    # Scatter through 1-d views: numpy's 1-d fancy assignment is ~40%
    # faster than one with a 2-d index.  For one row nothing is copied.
    filled_at.reshape(-1)[orders.reshape(-1)] = ramp.reshape(-1)
    return filled_at


def _paths(steps: np.ndarray, ws: dict) -> np.ndarray:
    """Per row, the path from 0 that adds its steps in turn: float64 for
    float steps, `_index_dtype` of the row length for integer ones."""
    rows, m = steps.shape
    dtype = np.float64 if steps.dtype.kind == "f" else _index_dtype(m)
    values = _scratch(ws, "paths", (rows, m + 1), dtype)
    values[:, 0] = 0
    # Widen into the paths, then sum them in place: a cumsum that casts
    # (int8 steps to int32 paths) first copies its whole input.
    np.copyto(values[:, 1:], steps)
    np.cumsum(values[:, 1:], axis=1, out=values[:, 1:])
    return values


def _accumulate(delta: np.ndarray, orders: np.ndarray, ws: dict) -> np.ndarray:
    """Paths from 0 along each row's order: value after m steps is the sum
    of the increments of the first m cells filled."""
    gathered = _scratch(ws, "gathered", delta.shape, delta.dtype)
    # mode="clip" writes straight into `gathered`; the default mode buffers
    # through a fresh array.  Every index is in range, so nothing is clipped.
    np.take(delta.reshape(-1), orders, out=gathered, mode="clip")
    return _paths(gathered, ws)


# A time-sort key is a float64 time's bits shifted up past a 2-bit code.  For
# non-negative doubles below 2.0 the bits increase with the value and stay
# under 2^62, so the keys of distinct times sort exactly as the times do.
_CODE_BITS = np.uint64(2)
_CODE_MASK = np.uint64(3)
_TIME_BITS_LIMIT = np.float64(2.0).view(np.uint64)  # 2^62


def _time_path(times: np.ndarray, steps: np.ndarray, ws: dict):
    """Per row of `times`: the times in the order `argsort(kind="stable")`
    gives, and the path from 0 that adds steps[k] (-1, 0 or 1, broadcast to
    the shape of `times`) as time k passes.

    Rows of distinct times in [0, 2) sort packed (time, step + 1) keys,
    which carry each step with its time, so no index is sorted or gathered.
    Such a row has one ascending order, so any sort finds it.  Rows with a
    tie, a NaN, a set sign bit (-0.0 too), an infinity or a time >= 2 are
    sorted again with a stable argsort.
    """
    bits = times.view(np.uint64)
    codes = _scratch(ws, "codes", times.shape, np.uint8)
    np.add(steps, 1, out=codes, casting="unsafe")
    keys = _scratch(ws, "keys", times.shape, np.uint64)
    np.left_shift(bits, _CODE_BITS, out=keys)
    keys |= codes
    keys.sort(axis=1)
    np.bitwise_and(keys, _CODE_MASK, out=codes, casting="unsafe")
    keys >>= _CODE_BITS
    ranked_steps = codes.view(np.int8)
    ranked_steps -= 1  # each code was its step + 1
    ranked = keys.view(np.float64)
    # dead before the path is written, so it shares its region
    rising = _scratch(ws, "paths", times[:, 1:].shape, np.bool_)
    np.greater(ranked[:, 1:], ranked[:, :-1], out=rising)
    redo = (bits.max(axis=1) >= _TIME_BITS_LIMIT) | ~rising.all(axis=1)
    if redo.any():
        order = np.argsort(times[redo], axis=1, kind="stable")
        ranked[redo] = np.take_along_axis(times[redo], order, axis=1)
        redo_steps = np.broadcast_to(steps, times.shape)[redo]
        ranked_steps[redo] = np.take_along_axis(redo_steps, order, axis=1)
    return ranked, _paths(ranked_steps, ws)


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


# -- runs kernel -------------------------------------------------------------


def _runs_steps(e: np.ndarray, cyclic: bool, out: np.ndarray) -> np.ndarray:
    """Each cell's run-count increment, from the int8 block e[k] = [cell k
    fills before cell k+1] (k+1 mod n when cyclic; k < n-1 when linear),
    into the int8 block `out`."""
    # Filling cell k adds 1 - [left neighbor present] - [right neighbor
    # present].  The left neighbor is present iff e[k-1] and the right one
    # iff not e[k], so the increment is e[k] - e[k-1] (cyclic: indices mod
    # n); a linear row's last cell has no right neighbor and gets 1 - e[n-2].
    if cyclic:
        np.subtract(e[:, 1:], e[:, :-1], out=out[:, 1:])
        np.subtract(e[:, :1], e[:, -1:], out=out[:, :1])
        return out
    out[:, :-1] = e
    out[:, -1] = 1
    out[:, 1:] -= e
    return out


def _runs_values(orders: np.ndarray, cyclic: bool, ws: dict) -> np.ndarray:
    """Run counts after 0..n insertions, one row per (flat) insertion order."""
    filled_at = _filled_at(orders, ws)
    # [cell k fills before cell k+1], written as bools into int8 bytes; read
    # before the gather, so it shares the gathered increments' region
    ahead = _scratch(ws, "gathered", orders.shape, np.int8)
    np.less(filled_at[:, :-1], filled_at[:, 1:], out=ahead[:, :-1].view(np.bool_))
    if cyclic:
        np.less(filled_at[:, -1:], filled_at[:, :1], out=ahead[:, -1:].view(np.bool_))
    e = ahead if cyclic else ahead[:, :-1]
    delta = _runs_steps(e, cyclic, _scratch(ws, "steps", orders.shape, np.int8))
    return _accumulate(delta, orders, ws)


def _runs_time_values(times: np.ndarray, ws: dict):
    """Runs with independent arrival times, one row of `times` per rep: each
    row's times in arrival order, and its step-indexed path in that order."""
    # Cell k fills before k+1 in stable time order when its time is earlier
    # or tied (index order), or when k+1's is a NaN, which sorts last.  Both
    # tests are dead before `_time_path` writes the codes and paths regions.
    ahead = _scratch(ws, "codes", times[:, 1:].shape, np.bool_)
    np.less_equal(times[:, :-1], times[:, 1:], out=ahead)
    ahead |= np.isnan(times[:, 1:], out=_scratch(ws, "paths", ahead.shape, np.bool_))
    steps = _runs_steps(ahead.view(np.int8), False, _scratch(ws, "steps", times.shape, np.int8))
    return _time_path(times, steps, ws)


def runs_from_order(
    order: Sequence[int], *, cyclic: bool = False, grid: Optional[Sequence[int]] = None,
    keep_values: bool = False,
) -> Trajectory:
    """Run counts along an explicit insertion order (the identity order
    keeps a single growing run, which pins the increment logic in tests)."""
    order = _check_order(order)
    model = "runs-cyclic" if cyclic else "runs-linear"
    return _trajectory(model, order.size, 0, grid, keep_values, order)


def simulate_runs(
    n: int, seed: int, *, cyclic: bool = False, grid: Optional[Sequence[int]] = None,
    keep_values: bool = False,
) -> Trajectory:
    """One uniformly random insertion order; summary per `Trajectory`."""
    return _trajectory("runs-cyclic" if cyclic else "runs-linear", n, seed, grid, keep_values)


def simulate_runs_randomized_time(
    n: int, seed: int, *, grid: Optional[Sequence[float]] = None, keep_values: bool = False,
) -> Trajectory:
    """Runs process (linear row) with independent uniform arrival times per cell.

    The path visits exactly the states of the step-indexed process (in
    arrival order), so its max equals the step-indexed max; samples are
    taken at fill fractions t by counting arrivals up to t.
    """
    grid = DEFAULT_TIME_GRID if grid is None else grid
    return _trajectory("runs-time", n, seed, grid, keep_values)


# -- window-pattern kernel ---------------------------------------------------


def _pattern_values(
    empty: float, head: np.ndarray, jumps: np.ndarray, orders: np.ndarray, cyclic: bool,
    ws: dict,
) -> np.ndarray:
    """Windowed sums after 0..n insertions, one row per (flat) insertion
    order, from the empty window's value and the tables of `_sweep_tables`,
    each cell's increment summed as the loop sums it: from +0.0, its
    windows in offset order."""
    rows, n = orders.shape
    ell = len(jumps)
    g = head.size.bit_length() + 1 - ell  # the offsets the head table sums
    filled_at = _filled_at(orders, ws)
    # Bit 2*ell - 3 - i of a cell's code: [cell k+d (mod n) filled before
    # cell k], for the i-th offset d of 1-ell..-1, 1..ell-1.  Offset o reads
    # bits o..o+ell-2, the window's cells but its own.
    code = _scratch(ws, "code", (rows, n), np.uint16 if ell <= 9 else np.uint32)
    earlier = _scratch(ws, "gathered", (rows, n), np.bool_)
    code.fill(0)
    for d in (*range(1 - ell, 0), *range(1, ell)):
        j = d % n
        np.less(filled_at[:, j:], filled_at[:, :n - j], out=earlier[:, :n - j])
        np.less(filled_at[:, :j], filled_at[:, n - j:], out=earlier[:, n - j:])
        code <<= 1
        code |= earlier
    # The indices np.take would otherwise copy to, in filled_at's dead region.
    index = _scratch(ws, "paths", (rows, n), np.intp)
    delta = _scratch(ws, "steps", (rows, n), np.float64)
    np.bitwise_and(code, head.size - 1, out=index)
    np.take(head, index, out=delta, mode="clip")  # as in `_accumulate`
    gathered = _scratch(ws, "gathered", (rows, n), np.float64)
    low = (1 << (ell - 1)) - 1
    for o in range(g, ell):
        np.right_shift(code, o, out=index)
        index &= low
        np.take(jumps[o], index, out=gathered, mode="clip")
        delta += gathered
    if not cyclic:
        # A linear row's window start k-o must stay within 0..n-ell, so its
        # first and last ell-1 cells sum only their own offsets.
        edge = np.r_[0:ell - 1, n - ell + 1:n]
        sums = np.zeros((rows, edge.size))
        for o, jump in enumerate(jumps):
            cols = (o <= edge) & (edge <= n - ell + o)
            sums[:, cols] += jump[(code[:, edge[cols]] >> o) & low]
        delta[:, edge] = sums
    values = _accumulate(delta, orders, ws)
    values += empty * (n if cyclic else n - ell + 1)
    return values


def pattern_from_order(
    pattern: PatternFunctional, order: Sequence[int], *, cyclic: bool = True,
    grid: Optional[Sequence[int]] = None, keep_values: bool = False,
) -> Trajectory:
    """Windowed sum along an explicit insertion order."""
    order = _check_order(order)
    return _trajectory("pattern", order.size, 0, grid, keep_values, order, pattern, cyclic)


def simulate_pattern(
    pattern: PatternFunctional, n: int, seed: int, *, cyclic: bool = True,
    grid: Optional[Sequence[int]] = None, keep_values: bool = False,
) -> Trajectory:
    """One random insertion order for an arbitrary window functional."""
    return _trajectory("pattern", n, seed, grid, keep_values, pattern=pattern, cyclic=cyclic)


# -- queue kernel ------------------------------------------------------------


# The draws make a (rows, 2n) block of u | v draws arrive | depart times in
# place, via the keys' region (free until `_time_path`), not ufuncs between
# the block's halves, which copy their input.
def _queue_events_minmax(uv: np.ndarray, ws: dict) -> np.ndarray:
    """Arrival is the min of the item's two uniforms, departure the max."""
    u, v = uv.reshape(len(uv), 2, -1).swapaxes(0, 1)  # each row's halves
    arrive, depart = _scratch(ws, "keys", (2, *u.shape), np.float64)
    np.minimum(u, v, out=arrive)
    np.maximum(u, v, out=depart)
    u[...] = arrive
    v[...] = depart
    return uv


def _queue_events_inverse(uv: np.ndarray, ws: dict) -> np.ndarray:
    """Arrival is the min of two uniforms drawn by inverse CDF; departure is
    then uniform on (arrival, 1).  Same joint law as the min/max pairing,
    by an independent construction.
    """
    arrive, v = uv.reshape(len(uv), 2, -1).swapaxes(0, 1)  # each row's halves
    np.subtract(1.0, arrive, out=arrive)
    np.sqrt(arrive, out=arrive)
    np.subtract(1.0, arrive, out=arrive)  # 1 - sqrt(1 - u)
    scratch = _scratch(ws, "keys", v.shape, np.float64)
    v *= np.subtract(1.0, arrive, out=scratch)
    v[...] = np.add(arrive, v, out=scratch)  # arrive + (1 - arrive) * v
    return uv


def simulate_priority_queue(
    n: int, seed: int, *, grid: Optional[Sequence[float]] = None, keep_values: bool = False,
) -> Trajectory:
    """Occupancy of a queue under n insert/delete pairs in random order.

    Each item holds two independent uniform times; it enters at the earlier
    and leaves at the later.  The 2n events are swept exactly in time order
    (no discretization); the path starts and ends at 0.
    """
    return _trajectory("priority-queue", n, seed, grid, keep_values)


def simulate_lazy_hash(
    n: int, seed: int, *, grid: Optional[Sequence[float]] = None, keep_values: bool = False,
) -> Trajectory:
    """Hash-table-with-lazy-deletion occupancy; same law as the queue model.

    Kept as a genuinely independent implementation (inverse-CDF draw of the
    arrival, conditional draw of the departure) so the distributional
    equivalence stays a testable claim rather than shared code.
    """
    return _trajectory("lazy-hash", n, seed, grid, keep_values)


# -- sweep harness -----------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """One sweep: model, size, repetitions, seed, and what to collect.

    `grid` entries are fill fractions in (0, 1); step-indexed models sample
    step round(t * n).  `cyclic` only applies to the pattern model (the runs
    flavor is in the model tag); the other models refuse cyclic=False.
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

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        # A lone occupied cell on a 1-cycle is its own neighbor, so the ascent
        # count and the insertion increments stop agreeing; rule the case out.
        if self.model == "runs-cyclic" and self.n < 2:
            raise ValueError("cyclic mode needs n >= 2")
        if self.reps < 1:
            raise ValueError(f"need reps >= 1, got {self.reps}")
        if self.jobs < 1:
            raise ValueError(f"need jobs >= 1, got {self.jobs}")
        if self.model == "pattern":
            if self.pattern is None:
                raise ValueError("pattern model needs a PatternFunctional")
            if self.n < 2 * self.pattern.length:
                raise ValueError(
                    f"need n >= twice the window length ({2 * self.pattern.length}), got {self.n}"
                )
        elif self.pattern is not None:
            raise ValueError(f"model {self.model!r} does not take a pattern")
        elif not self.cyclic:
            raise ValueError(f"cyclic=False only applies to the pattern model, not {self.model!r}")
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


def _chunk_size(n: int, reps: int) -> int:
    return max(1, min(reps, _CHUNK_CELL_BUDGET // max(n, 1)))


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


def _batch_orders(keys: np.ndarray, n: int, blocks: int, out: np.ndarray):
    """Insertion orders for a block, row r keyed keys[r], from the first
    `blocks` Philox blocks of each row's stream (into `out`); and which rows
    they cover.

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
    np.add(perm.T, (cols * n)[:, None], out=out)
    return out, covered


def _shuffle_rows(pool: StreamPool, orders: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Shuffle row r of `orders` in place on the stream keyed keys[r]."""
    for row, key in zip(orders, keys.tolist()):  # Python ints re-key fastest
        pool.rekey(key).shuffle(row)
    return orders


def _draw_orders(pool: StreamPool, keys: np.ndarray, n: int, ws: dict) -> np.ndarray:
    """Flat insertion orders; row r is r*n + the order the rep keyed keys[r]
    draws by `permutation(n)`, which is a shuffle of arange (the shuffle's
    draws do not depend on the values it moves).  Rows the batch pass does
    not cover are shuffled one by one, so no row depends on its budget."""
    rows = keys.size
    orders = _scratch(ws, "orders", (rows, n), np.int64)
    if n > _BATCH_ORDER_MAX_N or rows < _BATCH_ORDER_MIN_ROWS:
        # the flat arange, from the row ramp: no n-sized temporary
        ramp = _scratch(ws, "ramp", (rows, n), _index_dtype(n))
        np.add(ramp, np.arange(0, rows * n, n)[:, None], out=orders)
        return _shuffle_rows(pool, orders, keys)
    _, covered = _batch_orders(keys, n, _shuffle_draw_blocks(n), orders)
    redo = np.flatnonzero(~covered)
    orders[redo] = _shuffle_rows(pool, redo[:, None] * n + np.arange(n), keys[redo])
    return orders


def _draw_uniforms(pool: StreamPool, keys: np.ndarray, n: int, ws: dict) -> np.ndarray:
    """Row r: `random(n)` on the stream keyed keys[r]."""
    times = _scratch(ws, "times", (keys.size, n), np.float64)
    for row, key in zip(times, keys.tolist()):
        pool.rekey(key).random(out=row)
    return times


_ORDER_MODELS = ("runs-linear", "runs-cyclic", "pattern")  # step-indexed, on insertion orders
_QUEUE_MODELS = ("priority-queue", "lazy-hash")


def _workspace(config: SimConfig, rows: int) -> dict:
    """Byte regions for `rows` rows of the model's kernel, by name, with the
    ramp filled in.  Each kernel says which of its arrays share a region.
    Every integer-path model's `paths` region holds `_index_dtype` of the
    steps in a row (n, or 2n for a queue), as `_paths` writes them.  A
    counted block (`_count_read`) holds its draws in `times`, its masks in
    `keys` and a runs-time block's run starts in `paths`, and touches no
    other region.

    The regions are carved from one allocation.  When glibc frees a mapped
    block it raises its mmap threshold to that size and its trim threshold
    to twice that, so after a chunk or two the workspace comes from the heap
    and stays there for the next chunk's (with one allocation per array, the
    largest set a trim threshold below their sum).  The threshold is capped
    at 32 MB, so runs sweeps above n = 1.8e6 (18 bytes a cell), runs-time
    and queue sweeps above 1.5e6 steps (22 bytes a step; a queue's n is
    half its steps) and pattern sweeps above n = 8.8e5 (38 bytes; 40 past
    9-cell windows) map it afresh each chunk: a warmed 8-rep runs sweep
    took 412 minor faults at n = 2e6, against none at 10^6.
    """
    n, model = config.n, config.model
    m = 2 * n if model in _QUEUE_MODELS else n  # steps in a row
    index = np.dtype(_index_dtype(m)).itemsize
    if model in ("runs-time", *_QUEUE_MODELS):  # integer paths, like the runs models'
        sizes = {"times": 8 * m, "keys": 8 * m, "codes": m, "steps": m, "paths": index * (m + 1)}
    elif model == "pattern":  # float64 increments and paths
        sizes = {"orders": 8 * n, "ramp": index * n, "paths": 8 * (n + 1), "steps": 8 * n,
                 "gathered": 8 * n, "code": (2 if config.pattern.length <= 9 else 4) * n}
    else:  # int8 increments
        sizes = {"orders": 8 * n, "ramp": index * n, "paths": index * (n + 1), "steps": n,
                 "gathered": n}
    # each region starts on a 64-byte boundary, so every view is aligned
    starts = list(accumulate((-(-rows * size // 64) * 64 for size in sizes.values()), initial=0))
    arena = np.empty(starts[-1], dtype=np.uint8)
    ws = {name: arena[at:end] for name, at, end in zip(sizes, starts, starts[1:])}
    if "ramp" in ws:
        _scratch(ws, "ramp", (rows, n), _index_dtype(n))[...] = np.arange(n, dtype=_index_dtype(n))
    return ws


def _sweep_tables(config: SimConfig):
    """What the model's kernel reads beyond its block, made once a sweep
    chunk: the pattern's empty-window value, its head table, and per window
    cell its jump when it fills, for each value of the other cells (the
    float subtraction the loop makes, once per value); a queue's step row,
    its n arrivals up then its n departures down; None for runs."""
    if config.model == "pattern":
        table, ell = config.pattern.table_float(), config.pattern.length
        others = np.arange(1 << (ell - 1))
        jumps = np.empty((ell, others.size))
        for o, jump in enumerate(jumps):
            cell = 1 << (ell - 1 - o)  # the window bit of the cell at offset o
            windows = (others & (cell - 1)) | (others & -cell) << 1
            np.subtract(table[windows | cell], table[windows], out=jump)
        # The head table sums the first g offsets' jumps, from +0.0, for
        # each value of the ell + g - 2 code bits they read.  A sum costs
        # about what a later offset costs a cell, so g is the most offsets
        # that keep it to a sum per 8 cells of the chunk, 2^8 to 2^16 sums.
        cells = config.n * _chunk_size(config.n, config.reps)
        g = max(1, min(ell, min(max(cells.bit_length() - 4, 8), 16) + 2 - ell))
        codes = np.arange(1 << (ell + g - 2))
        head = np.zeros(codes.size)
        for o in range(g):
            head += jumps[o][(codes >> o) & (others.size - 1)]
        return table[0], head, jumps
    if config.model in _QUEUE_MODELS:
        return np.repeat(np.array([1, -1], dtype=np.int8), config.n)
    return None


def _draw_block(config: SimConfig, pool: StreamPool, keys: np.ndarray, ws: dict) -> np.ndarray:
    """Row r: the draws of the rep keyed keys[r], as the model's kernel
    takes them -- a flat insertion order, n arrival times, or a queue's n
    arrival then n departure times."""
    model, n = config.model, config.n
    if model in _ORDER_MODELS:
        return _draw_orders(pool, keys, n, ws)
    if model == "runs-time":
        return _draw_uniforms(pool, keys, n, ws)
    uv = _draw_uniforms(pool, keys, 2 * n, ws)  # a rep's n draws of u, then its n of v
    return (_queue_events_minmax if model == "priority-queue" else _queue_events_inverse)(uv, ws)


def _kernel_summary(config: SimConfig, block: np.ndarray, tables, pts, ws: dict):
    """The model's kernel over a block of draws, then the block of paths and
    their per-rep max, argmax, mid value and values at `pts` (step indices
    for the step-indexed models, times for the others; None for none).
    `tables` is what `_sweep_tables` gives for the model; the kernel fills
    the block-sized arrays of the workspace `ws`, so the paths live until
    the next block overwrites them; the per-rep parts are copies.

    The model names the steps to read: the insertion-order models the same
    steps in every row, ceil(n/2) and `pts`; the queues step n and the
    number of events up to each time of `pts`; runs-time the number of
    arrivals up to 1/2 and up to each time of `pts`.  The argmax of
    runs-time is the arrival time of the first step that attains the max
    (0 for step 0).
    """
    model, n = config.model, config.n
    grid = () if pts is None else pts
    if model in _ORDER_MODELS:
        values = (_pattern_values(*tables, block, config.cyclic, ws) if model == "pattern"
                  else _runs_values(block, model == "runs-cyclic", ws))
        # the same steps in every row: a column gather, not a per-row one
        picked = values[:, np.array([(n + 1) // 2, *grid], dtype=np.intp)]
    else:
        if model == "runs-time":
            times, values = _runs_time_values(block, ws)
            at = _count_at_most(times, (0.5, *grid))
        else:  # a queue: each rep's n arrivals step up, then its n departures down
            times, values = _time_path(block, tables, ws)
            at = np.full((len(block), 1 + len(grid)), n)
            if grid:
                at[:, 1:] = _count_at_most(times, grid)
        picked = np.take_along_axis(values, at, axis=1)
    rows = np.arange(len(values))
    argmax = values.argmax(axis=1)  # the first step attaining each row's max
    maxv = values[rows, argmax]
    if model == "runs-time":
        argmax = np.where(argmax == 0, 0.0, times[rows, argmax - 1])
    return values, maxv, argmax, picked[:, 0], (picked[:, 1:] if pts is not None else None)


def _byte_sums(mask: np.ndarray) -> np.ndarray:
    """The number of True cells along the mask's last axis.  Its bytes are
    summed in 16 bits (4-7 times as fast as in 64 bits, or as
    `count_nonzero`, on rows of 2e4 to 2e6 bytes), over spans of 2^15 cells
    when a row holds 2^16 or more, whose sums are then added in 64 bits."""
    cells, width = mask.view(np.uint8), mask.shape[-1]
    if width < 1 << 16:
        return cells.sum(axis=-1, dtype=np.uint16)
    spans = width >> 15
    head = cells[..., :spans << 15].reshape(*cells.shape[:-1], spans, 1 << 15)
    return (head.sum(axis=-1, dtype=np.uint16).sum(axis=-1, dtype=np.int64)
            + cells[..., spans << 15:].sum(axis=-1, dtype=np.uint16))


def _count_read(config: SimConfig, block: np.ndarray, pts, ws: dict) -> np.ndarray:
    """Per row of a time-ordered model's draws, C-ordered, its values at the
    times `pts` (those `_kernel_summary` reads off the path), counted off
    the masks x <= t.  A queue's is its arrivals <= t less its departures
    <= t.  A runs-time row's is its cells <= t less its neighbor pairs
    whose later time is <= t, which is the number of runs of its mask: a
    run starts at each set cell whose left neighbor is not set.  The mask
    is one comparison a cell, which meets ties, -0.0 and times >= 2 as the
    sort does; a NaN is never <= t.

    A pass compares the block with each of up to `_COUNT_PASS_POINTS`
    points into its own plane of one (points, rows, cells) mask, in the
    sort's `keys` region; the run starts (in `paths`) and the sums then
    take one call for all its points.
    """
    rows, m = block.shape
    runs = config.model == "runs-time"
    width = m + 1 if runs else m  # a runs-time row's mask leads with a False
    step = max(1, min(_COUNT_PASS_POINTS, _COUNT_PASS_CELLS // (rows * m)))
    values = np.empty((rows, len(pts)), dtype=np.int64)
    for lo in range(0, len(pts), step):
        part = pts[lo:lo + step]
        cols = slice(lo, lo + len(part))
        mask = _scratch(ws, "keys", (len(part), rows, width), np.bool_)
        for plane, t in zip(mask, part):
            np.less_equal(block, t, out=plane[:, width - m:])
        if runs:
            mask[:, :, 0] = False
            # A cell starts a run iff it is set and the byte before it is
            # not: one shifted comparison down the whole flat mask, where
            # each row's last cell meets the next row's leading False.
            flat = mask.reshape(-1)
            starts = _scratch(ws, "paths", flat.shape, np.bool_)
            np.greater(flat[1:], flat[:-1], out=starts[:-1])
            starts[-1] = False
            values[:, cols] = _byte_sums(starts.reshape(mask.shape)).T
        else:  # a queue: each rep's n arrival times, then its n departure times
            values[:, cols] = _byte_sums(mask[..., :m // 2]).T
            values[:, cols] -= _byte_sums(mask[..., m // 2:]).T
    return values


def _trajectory(
    model: str, n: int, seed: int, grid: Optional[Sequence], keep_values: bool,
    order: Optional[np.ndarray] = None, pattern: Optional[PatternFunctional] = None,
    cyclic: bool = True,
) -> Trajectory:
    """Rep 0 of a one-rep sweep keyed by `seed` (mix_keys(seed, 0, 1) is
    stream(seed)'s key), or the model's kernel on the given insertion
    `order`; `grid` holds steps for the step-indexed models, times for the
    others.

    ``.item()`` gives Python ints for the integer paths and floats for the
    float ones (pattern values, runs-time arrival times).  The path and
    samples are copies off the workspace; int32 ones are widened to int64.
    """
    config = SimConfig(model=model, n=n, reps=1, base_seed=seed, pattern=pattern, cyclic=cyclic)
    if model in _ORDER_MODELS:
        pts = _check_step_grid(grid, n)
    else:
        grid = pts = tuple(float(t) for t in grid) if grid is not None else None
    ws = _workspace(config, 1)
    block = (order[None, :] if order is not None
             else _draw_block(config, StreamPool(seed), mix_keys(seed, 0, 1), ws))
    values, maxv, argmax, mid, samples = _kernel_summary(config, block, _sweep_tables(config),
                                                         pts, ws)
    dtype = np.promote_types(values.dtype, np.int64)
    return Trajectory(
        model=model, n=n, max_value=maxv[0].item(), argmax=argmax[0].item(),
        mid_value=mid[0].item(), grid=tuple(grid) if grid is not None else None,
        samples=samples[0].astype(dtype) if samples is not None else None,
        values=values[0].astype(dtype) if keep_values else None,
    )


def _sweep_chunk(config: SimConfig, start: int, count: int, grid_only: bool = False):
    """Run reps start..start+count-1 and return their per-rep summaries
    (maxes, argmaxes, mids, grid rows); with `grid_only`, their grid rows
    alone, which the time-ordered models count off their draws
    (`_count_read`) and the others read off their paths."""
    pool = StreamPool(config.base_seed)
    tables = _sweep_tables(config)
    pts = config.grid  # fill fractions; step-indexed models sample step round(t * n)
    if pts is not None and config.model in _ORDER_MODELS:
        pts = np.asarray([int(round(t * config.n)) for t in pts], dtype=np.int64)
    rows = max(1, _BLOCK_CELL_BUDGET // config.n)
    keys = mix_keys(config.base_seed, start, count)  # the chunk's, sliced per block
    ws = _workspace(config, min(rows, count))
    counted = grid_only and config.model not in _ORDER_MODELS
    blocks = []
    for lo in range(0, count, rows):
        block = _draw_block(config, pool, keys[lo:lo + rows], ws)
        if counted:
            blocks.append((_count_read(config, block, pts, ws),))
        else:
            summary = _kernel_summary(config, block, tables, pts, ws)[1:]
            blocks.append(summary[3:] if grid_only else summary)
    return tuple(  # maxes, argmaxes, mids, grid rows; or grid rows
        None if parts[0] is None else np.concatenate(parts).astype(np.float64)
        for parts in zip(*blocks)
    )


def _chunk_args(config: SimConfig, grid_only: bool):
    """`_sweep_chunk`'s arguments for each chunk of the sweep, in order."""
    size = _chunk_size(config.n, config.reps)
    return [(config, lo, min(size, config.reps - lo), grid_only)
            for lo in range(0, config.reps, size)]


def grid_samples(config: SimConfig) -> np.ndarray:
    """Every rep's values at `config.grid`, one row per rep in rep order, for
    any `jobs`: the rows `run_sweep` reads off the paths into `grid_stats`,
    bit for bit.  Runs-time and the queues count them off their unsorted
    draws, one comparison pass a grid point (`_count_read`), in C order;
    the insertion-order models read them off their paths, in F order."""
    if not config.grid:
        raise ValueError("grid_samples needs a grid")
    chunks = ordered_map(_sweep_chunk, _chunk_args(config, grid_only=True), config.jobs)
    return np.concatenate([grid_rows for grid_rows, in chunks])


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
    )
    kept_max = [] if config.keep_max_samples else None

    chunks = ordered_map(_sweep_chunk, _chunk_args(config, grid_only=False), config.jobs)
    for maxes, argmaxes, mids, grid_rows in chunks:
        result.max_stats.add_batch(maxes)
        result.argmax_stats.add_batch(argmaxes)
        result.mid_stats.add_batch(mids)
        if result.grid_stats is not None:
            result.grid_stats.add_batch(grid_rows)
        if kept_max is not None:
            kept_max.append(maxes)

    if kept_max is not None:
        result.max_samples = np.concatenate(kept_max)
    return result
