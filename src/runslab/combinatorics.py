"""Exact finite-n distribution theory for runs in randomly filled 0/1 rows.

A row of n cells is filled one cell at a time in uniformly random order; after
m insertions the configuration is a uniformly random m-subset of cells.  This
module gives exact (rational) answers about the number of runs of occupied
cells at a fixed step m and about the running maximum over the whole fill --
by closed form where one exists, and by exhaustive enumeration as an
independent baseline.

All probabilities and moments are `fractions.Fraction`; nothing here samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Sequence

import numpy as np

__all__ = [
    "MAX_DP_CELLS",
    "MAX_ORDER_CELLS",
    "MAX_PMF_CELLS",
    "MAX_SUBSET_CELLS",
    "MAX_SUBSET_DP_CELLS",
    "RunCountPmf",
    "run_count_pmf",
    "run_count_pmf_enumerated",
    "mean_runs_discrete",
    "var_runs_discrete",
    "mean_runs_time",
    "var_runs_time",
    "count_runs",
    "brute_force_max_pmf",
    "max_pmf_subset_dp",
    "max_pmf_gap_dp",
]

# Hard enumeration budgets.  Order-by-order enumeration walks n! insertion
# orders; subset enumeration walks C(n, m) configurations.  Beyond these the
# functions refuse rather than silently taking hours.
MAX_ORDER_CELLS = 10
MAX_SUBSET_CELLS = 22

# The run-count pmf's probabilities have denominators up to C(n, n/2), which
# has 3,009 digits at n = 10^4: under Python's 4,300-digit limit on printing
# an int, which C(n, n/2) passes near n = 14,300.  The table then takes about
# 10 s and prints 24 MB.
MAX_PMF_CELLS = 10_000

# The max-run DPs count insertion orders in int64, and every count is at most
# n!, so both stay exact while n! < 2^63, that is for n <= 20.  The gap DP
# reaches that limit (746 states at most at 20 cells); the subset-lattice DP
# updates a histogram row per (subset, empty cell), 16 * 2^15 of them at 16
# cells, and stops there.
MAX_DP_CELLS = 20
MAX_SUBSET_DP_CELLS = 16
assert math.factorial(MAX_DP_CELLS) < 2**63

# brute_force_max_pmf walks the orders in blocks of this many trailing cells.
_ORDER_BLOCK_TAIL = 8


@dataclass(frozen=True)
class RunCountPmf:
    """Exact distribution of the run count after m of n cells are filled."""

    n: int
    m: int
    probs: Dict[int, Fraction]

    def mean(self) -> Fraction:
        return sum((k * p for k, p in self.probs.items()), Fraction(0))

    def variance(self) -> Fraction:
        mu = self.mean()
        return sum((p * (k - mu) ** 2 for k, p in self.probs.items()), Fraction(0))


def _check_nm(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")


def run_count_pmf(n: int, m: int) -> RunCountPmf:
    """Exact pmf of the number of runs of occupied cells, m filled out of n.

    The count of m-subsets forming exactly k runs is
    C(m-1, k-1) * C(n-m+1, k); dividing by C(n, m) normalizes (the
    Vandermonde convolution sums the counts back to C(n, m)).
    """
    _check_nm(n, m)
    if n > MAX_PMF_CELLS:
        raise ValueError(f"run-count pmf capped at n <= {MAX_PMF_CELLS}, got {n}")
    if m == 0:
        return RunCountPmf(n, m, {0: Fraction(1)})
    total = comb(n, m)
    probs: Dict[int, Fraction] = {}
    for k in range(1, min(m, n - m + 1) + 1):
        c = comb(m - 1, k - 1) * comb(n - m + 1, k)
        if c:
            probs[k] = Fraction(c, total)
    assert sum(probs.values()) == 1
    return RunCountPmf(n, m, probs)


def count_runs(cells: Sequence[int], cyclic: bool = False) -> int:
    """Number of maximal blocks of 1s in a 0/1 sequence.

    In cyclic mode a block is a maximal arc of 1s; the all-ones row has no
    0->1 ascent and counts 0, which keeps the cyclic count within 1 of the
    linear one for every configuration.
    """
    n = len(cells)
    runs = 0
    if not cyclic:
        prev = 0
        for c in cells:
            if c and not prev:
                runs += 1
            prev = c
        return runs
    for k in range(n):
        if cells[k] and not cells[k - 1]:
            runs += 1
    return runs


def run_count_pmf_enumerated(n: int, m: int, cyclic: bool = False) -> RunCountPmf:
    """The run-count pmf by walking every m-subset of n cells.

    Independent baseline for `run_count_pmf`; also the only exact route for
    the cyclic count.  Subject to the subset enumeration budget.
    """
    _check_nm(n, m)
    if n > MAX_SUBSET_CELLS:
        raise ValueError(f"subset enumeration capped at n <= {MAX_SUBSET_CELLS}, got {n}")
    counts: Dict[int, int] = {}
    for chosen in itertools.combinations(range(n), m):
        row = [0] * n
        for j in chosen:
            row[j] = 1
        k = count_runs(row, cyclic=cyclic)
        counts[k] = counts.get(k, 0) + 1
    total = comb(n, m)
    return RunCountPmf(n, m, {k: Fraction(c, total) for k, c in counts.items()})


def mean_runs_discrete(n: int, m: int) -> Fraction:
    """E[run count] = m(n-m+1)/n, exactly."""
    _check_nm(n, m)
    return Fraction(m * (n - m + 1), n)


def var_runs_discrete(n: int, m: int) -> Fraction:
    """Var[run count] = m(m-1)(n-m)(n-m+1) / (n^2 (n-1)), exactly."""
    _check_nm(n, m)
    if n == 1:
        return Fraction(0)
    return Fraction(m * (m - 1) * (n - m) * (n - m + 1), n * n * (n - 1))


def mean_runs_time(n: int, t):
    """Mean run count at fill fraction t with binomially many cells filled.

    Equals n t(1-t) + t^2.  Exact for rational t (returns Fraction), float
    otherwise; the identity with the binomial mixture of `mean_runs_discrete`
    over m is tested exactly.
    """
    return n * t * (1 - t) + t * t


def var_runs_time(n: int, t):
    """Variance of the run count at fill fraction t.

    n t(1-t)(1-3t+3t^2) + t^2 (1-t)(3-5t); both terms matter -- at t = 1/2
    this is n/16 + 1/16, and the law-of-total-variance mixture over the
    binomial number of filled cells reproduces it exactly.  The closed form
    needs an interior adjacent pair, so a single cell is just Bernoulli(t).
    """
    if n == 1:
        return t * (1 - t)
    return n * t * (1 - t) * (1 - 3 * t + 3 * t * t) + t * t * (1 - t) * (3 - 5 * t)


def _popcount(x: np.ndarray, bits: int) -> np.ndarray:
    """Set bits of each entry of x below 2^bits (`np.bitwise_count` is numpy 2)."""
    return sum((x >> b) & 1 for b in range(bits))


def _permutation_columns(k: int) -> np.ndarray:
    """Every permutation of range(k) as a column of a (k, k!) int8 array."""
    cols = np.zeros((0, 1), dtype=np.int8)
    for m in range(1, k + 1):
        # first value f, then a permutation of the others: those of m - 1
        # with every value >= f moved up by one
        cols = np.concatenate(
            [np.vstack([np.full((1, cols.shape[1]), f, dtype=np.int8), cols + (cols >= f)])
             for f in range(m)],
            axis=1,
        )
    return cols


def brute_force_max_pmf(n: int) -> Dict[int, Fraction]:
    """Exact distribution of the maximal run count over the whole fill.

    Walks all n! insertion orders; capped by the order enumeration budget.
    The run count of every occupied set is read from a table of 2^n entries
    filled by `count_runs`.  The orders go in blocks that share their first
    n - 8 cells; a block holds every order of the remaining (tail) cells as
    (step, order) int8 columns of tail positions.  A prefix OR of each
    column's position bits down the steps gives, as int16 masks, the tail
    positions each order has filled after each step.  Those masks are the
    same for every block, so they are built once; each block relabels the
    table to its own tail cells and folds every step's run counts into a
    running max per order.  Memory stays at one block of 8! orders
    whatever n is.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_ORDER_CELLS:
        raise ValueError(f"order enumeration capped at n <= {MAX_ORDER_CELLS}, got {n}")
    table = np.array(
        [count_runs([(mask >> j) & 1 for j in range(n)]) for mask in range(1 << n)],
        dtype=np.int8,
    )
    tail = min(n, _ORDER_BLOCK_TAIL)
    occ = np.left_shift(1, _permutation_columns(tail), dtype=np.int16)
    for step in range(1, tail):
        occ[step] |= occ[step - 1]
    tail_sets = np.arange(1 << tail)
    counts = np.zeros((n + 1) // 2 + 1, dtype=np.int64)
    for prefix in itertools.permutations(range(n), n - tail):
        mask = start = 0
        for cell in prefix:
            mask |= 1 << cell
            start = max(start, int(table[mask]))
        rest = [cell for cell in range(n) if not mask >> cell & 1]
        # full[s]: the prefix's cells plus the cells at the tail positions in s
        full = np.full(1 << tail, mask)
        for i, cell in enumerate(rest):
            full |= (tail_sets >> i & 1) << cell
        local = table[full]
        best = np.full(occ.shape[1], start, dtype=np.int8)
        for filled in occ:
            np.maximum(best, local.take(filled), out=best)
        counts += np.bincount(best, minlength=counts.size)
    total = math.factorial(n)
    assert counts.sum() == total
    return {h: Fraction(int(c), total) for h, c in enumerate(counts) if c}


def max_pmf_subset_dp(n: int) -> Dict[int, Fraction]:
    """Exact max-run-count distribution by dynamic programming over subsets.

    Counts insertion orders by walking the subset lattice instead of the n!
    orders: the run count depends only on the occupied set, so orders that
    reach the same (occupied set, running max) state are interchangeable.
    Independent of `brute_force_max_pmf` and of `max_pmf_gap_dp`, and
    feasible to n = 16; kept as their oracle.

    The lattice is walked one popcount layer at a time, and only two layers
    are held: row i of a layer's int64 histogram counts the insertion orders
    of its i-th subset by running max, and `rank` maps a subset to its row.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_SUBSET_DP_CELLS:
        raise ValueError(f"subset DP capped at n <= {MAX_SUBSET_DP_CELLS}, got {n}")

    subsets = np.arange(1 << n, dtype=np.int32)
    size = _popcount(subsets, n)
    runs_of = _popcount(subsets & ~(subsets << 1), n)  # cells with an empty left neighbour
    rank = np.empty(1 << n, dtype=np.int32)
    heights = np.arange((n + 1) // 2 + 1, dtype=np.int32)

    layer = subsets[:1]
    hist = (heights == 0).astype(np.int64)[None, :]
    for k in range(1, n + 1):
        nxt_layer = np.flatnonzero(size == k).astype(np.int32)
        rank[nxt_layer] = np.arange(nxt_layer.size)
        nxt = np.zeros((nxt_layer.size, heights.size), dtype=np.int64)
        for j in range(n):
            free = (layer >> j) & 1 == 0
            dest = layer[free] | (1 << j)
            r = runs_of[dest][:, None]
            # mass at a running max h <= r moves to r; above r it stays
            moved = hist[free]
            at_most = np.cumsum(moved, axis=1)
            moved[heights < r] = 0
            np.copyto(moved, at_most, where=heights == r)
            nxt[rank[dest]] += moved
        layer, hist = nxt_layer, nxt
    total = math.factorial(n)
    assert hist.sum() == total
    return {h: Fraction(int(c), total) for h, c in enumerate(hist[0]) if c}


def _gap_moves(interior: tuple, a: int, b: int) -> list:
    """Every way to fill one empty cell of a gap state, as (state, weight).

    A state is the sorted tuple of interior gap lengths and the sorted pair
    (a, b) of boundary gaps.  The weight counts the cells that lead to the
    same state; the same state may appear more than once.
    """
    moves = []
    prev = 0
    for i, g in enumerate(interior):
        if g == prev:
            continue
        prev = g
        c = interior.count(g)
        rest = interior[:i] + interior[i + 1 :]
        if g == 1:  # two runs merge
            moves.append(((rest, a, b), c))
            continue
        # either end cell shrinks the gap; an inner cell splits it (one more run)
        moves.append(((tuple(sorted(rest + (g - 1,))), a, b), 2 * c))
        for left in range(1, (g + 1) // 2):
            right = g - 1 - left
            moves.append(((tuple(sorted(rest + (left, right))), a, b),
                          c if left == right else 2 * c))
    for side, other in ((a, b), (b, a)):
        if side:
            # the cell next to the run shrinks the gap; cell p < side - 1
            # leaves a boundary gap p and a new interior gap (one more run)
            moves.append(((interior, *sorted((side - 1, other))), 1))
            for p in range(side - 1):
                moves.append(((tuple(sorted(interior + (side - 1 - p,))),
                               *sorted((p, other))), 1))
    return moves


def max_pmf_gap_dp(n: int) -> Dict[int, Fraction]:
    """Exact max-run-count distribution by dynamic programming over gap multisets.

    The run count and its whole future depend on the occupied set only
    through the multiset of interior gap lengths and the unordered pair of
    boundary gaps, and runs = interior gaps + 1 on a non-empty row.  So the
    walk is over those states, far fewer than subsets (257 at most at
    n = 16, 746 at n = 20), one insertion layer at a time.  Row i of a
    layer's int64 histogram counts the insertion orders that reach its i-th
    state by running max, as in `max_pmf_subset_dp`, which it equals for
    every n both accept.  Nothing is kept between calls.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_DP_CELLS:
        raise ValueError(f"gap DP capped at n <= {MAX_DP_CELLS}, got {n}")

    heights = np.arange((n + 1) // 2 + 1)
    # the first cell i leaves boundary gaps i - 1 and n - i and one run
    layer = [((), *sorted((i - 1, n - i))) for i in range(1, n + 1)]
    hist = np.zeros((n, heights.size), dtype=np.int64)
    hist[:, 1] = 1
    for _ in range(1, n):
        index: Dict[tuple, int] = {}
        src, dst, weight = [], [], []
        for s, state in enumerate(layer):
            for key, w in _gap_moves(*state):
                src.append(s)
                dst.append(index.setdefault(key, len(index)))
                weight.append(w)
        r = np.array([len(key[0]) + 1 for key in index])[dst][:, None]
        # mass at a running max h <= r moves to r; above r it stays
        moved = hist[src] * np.array(weight, dtype=np.int64)[:, None]
        at_most = np.cumsum(moved, axis=1)
        moved[heights < r] = 0
        np.copyto(moved, at_most, where=heights == r)
        hist = np.zeros((len(index), heights.size), dtype=np.int64)
        np.add.at(hist, dst, moved)
        layer = list(index)
    total = math.factorial(n)
    assert hist.sum() == total
    return {h: Fraction(int(c), total) for h, c in enumerate(hist[0]) if c}

