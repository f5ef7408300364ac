"""Collection order for the whole suite, and the window-table helpers,
exhaustive oracles and root-isolation entry point that only tests use.

The acceptance gate (``test_acceptance.py``) runs every Monte Carlo
criterion at full scale and takes minutes; the other modules together take
under a minute.  The gate runs last, so the unit tests report first.  The
order changes no test's outcome: every test draws from its own fixed seeds.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from runslab.combinatorics import MAX_SUBSET_CELLS
from runslab.patterns import PatternFunctional
from runslab.polys import _as_fraction, _bisect, _isolate


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def real_roots_in_interval(p, lo, hi, width=Fraction(1, 10**18)):
    """All real roots of the `Polynomial` p strictly inside (lo, hi), to the
    requested width: polys' isolation brackets, each bisected.

    Returns disjoint pairs (a, b), in increasing order, one per root: either
    a == b and the root is exactly that rational, or b - a < width with the
    root strictly inside.  Roots sitting exactly at lo or hi are excluded.
    Multiplicities are erased (isolation runs on the squarefree part).
    """
    ints, brackets = _isolate(p, lo, hi)
    return [_bisect(ints, a, b, _as_fraction(width)) for a, b in brackets]


def constant_pattern(c, length=1):
    return PatternFunctional(length, tuple([c] * (1 << length)))


def format_pattern_text(pattern):
    """The text that `runslab.patterns.load_pattern` reads: the window
    length, then one 'bitstring value' line per window."""
    ell = pattern.length
    lines = [str(ell)]
    for w, v in enumerate(pattern.values):
        lines.append(f"{format(w, f'0{ell}b')} {v}")
    return "\n".join(lines) + "\n"


def save_pattern(pattern, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pattern_text(pattern))


@dataclass(frozen=True)
class ExactMoments:
    """Exact first and second central moments of a discrete statistic."""

    mean: Fraction
    variance: Fraction


def brute_force_pattern_moments(pattern, n: int, m: int, cyclic: bool = True) -> ExactMoments:
    """Exact mean and variance of a window-pattern sum over all m-subsets.

    `pattern` is a `PatternFunctional`; its value is summed over every length
    window of the configuration (wrapping around in cyclic mode, dropping
    windows that stick out past the boundary otherwise).  Exhaustive over
    C(n, m) subsets, subject to the subset enumeration budget.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
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
