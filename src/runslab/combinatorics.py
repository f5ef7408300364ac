"""Exact finite-n distribution theory for runs in randomly filled 0/1 rows.

A row of n cells is filled one cell at a time in uniformly random order; after
m insertions the configuration is a uniformly random m-subset of cells.  This
module gives exact (rational) answers about the number of runs of occupied
cells at a fixed step m, about the running maximum over the whole fill, and
about exact moments of window-pattern statistics -- by closed form where one
exists, and by exhaustive enumeration as an independent baseline.

All probabilities and moments are `fractions.Fraction`; nothing here samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, Sequence

__all__ = [
    "MAX_ORDER_CELLS",
    "MAX_SUBSET_CELLS",
    "RunCountPmf",
    "ExactMoments",
    "run_count_pmf",
    "run_count_pmf_enumerated",
    "mean_runs_discrete",
    "var_runs_discrete",
    "mean_runs_time",
    "var_runs_time",
    "count_runs",
    "brute_force_max_pmf",
    "max_pmf_subset_dp",
    "brute_force_pattern_moments",
]

# Hard enumeration budgets.  Order-by-order enumeration walks n! insertion
# orders; subset enumeration walks C(n, m) configurations.  Beyond these the
# functions refuse rather than silently taking hours.
MAX_ORDER_CELLS = 10
MAX_SUBSET_CELLS = 22

# The subset-lattice DP visits 2^n * O(n) states; 16 cells is ~4M updates.
MAX_DP_CELLS = 16


@dataclass(frozen=True)
class ExactMoments:
    """Exact first and second central moments of a discrete statistic."""

    mean: Fraction
    variance: Fraction


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


def _max_runs_over_order(order: Sequence[int], n: int) -> int:
    """Running maximum of the linear run count along one insertion order."""
    occ = 0
    x = 0
    best = 0
    last = n - 1
    for cell in order:
        d = 1
        if cell > 0 and (occ >> (cell - 1)) & 1:
            d -= 1
        if cell < last and (occ >> (cell + 1)) & 1:
            d -= 1
        occ |= 1 << cell
        x += d
        if x > best:
            best = x
    return best


def brute_force_max_pmf(n: int) -> Dict[int, Fraction]:
    """Exact distribution of the maximal run count over the whole fill.

    Walks all n! insertion orders; capped by the order enumeration budget.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_ORDER_CELLS:
        raise ValueError(f"order enumeration capped at n <= {MAX_ORDER_CELLS}, got {n}")
    counts: Dict[int, int] = {}
    for order in itertools.permutations(range(n)):
        h = _max_runs_over_order(order, n)
        counts[h] = counts.get(h, 0) + 1
    total = math.factorial(n)
    return {h: Fraction(c, total) for h, c in sorted(counts.items())}


def max_pmf_subset_dp(n: int) -> Dict[int, Fraction]:
    """Exact max-run-count distribution by dynamic programming over subsets.

    Counts insertion orders by walking the subset lattice instead of the n!
    orders: the run count depends only on the occupied set, so orders that
    reach the same (occupied set, running max) state are interchangeable.
    Independent of `brute_force_max_pmf` and feasible to n = 16.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_DP_CELLS:
        raise ValueError(f"subset DP capped at n <= {MAX_DP_CELLS}, got {n}")

    runs_of = [0] * (1 << n)
    for s in range(1, 1 << n):
        r = 0
        prev = 0
        ss = s
        for _ in range(n):
            bit = ss & 1
            if bit and not prev:
                r += 1
            prev = bit
            ss >>= 1
        runs_of[s] = r

    # layer[s][h] = number of insertion orders of the cells of s whose
    # running max equals h.  Advance one inserted cell at a time.
    layer: Dict[int, Dict[int, int]] = {0: {0: 1}}
    for _ in range(n):
        nxt: Dict[int, Dict[int, int]] = {}
        for s, hist in layer.items():
            for j in range(n):
                bit = 1 << j
                if s & bit:
                    continue
                s2 = s | bit
                r2 = runs_of[s2]
                dest = nxt.setdefault(s2, {})
                for h, c in hist.items():
                    h2 = r2 if r2 > h else h
                    dest[h2] = dest.get(h2, 0) + c
        layer = nxt
    (final,) = layer.values()
    total = math.factorial(n)
    assert sum(final.values()) == total
    return {h: Fraction(c, total) for h, c in sorted(final.items())}


def brute_force_pattern_moments(pattern, n: int, m: int, cyclic: bool = True) -> ExactMoments:
    """Exact mean and variance of a window-pattern sum over all m-subsets.

    `pattern` is a `PatternFunctional`; its value is summed over every length
    window of the configuration (wrapping around in cyclic mode, dropping
    windows that stick out past the boundary otherwise).  Exhaustive over
    C(n, m) subsets, subject to the subset enumeration budget.
    """
    _check_nm(n, m)
    if n > MAX_SUBSET_CELLS:
        raise ValueError(f"subset enumeration capped at n <= {MAX_SUBSET_CELLS}, got {n}")
    ell = pattern.length
    if n < ell:
        raise ValueError(f"need n >= window length {ell}, got {n}")
    values = pattern.values
    starts = range(n) if cyclic else range(n - ell + 1)

    total = Fraction(0)
    total_sq = Fraction(0)
    ncfg = comb(n, m)
    for chosen in itertools.combinations(range(n), m):
        row = [0] * n
        for j in chosen:
            row[j] = 1
        x = Fraction(0)
        for k in starts:
            w = 0
            for i in range(ell):
                w = (w << 1) | row[(k + i) % n]
            x += values[w]
        total += x
        total_sq += x * x
    mean = total / ncfg
    return ExactMoments(mean, total_sq / ncfg - mean * mean)
