"""Window functionals of 0/1 rows and their random-fill asymptotics.

A window functional assigns a real value to every 0/1 window of a fixed
length and is summed over all windows of a row (cyclically by default).  As
the row fills in random order the summed statistic rises and falls; this
module computes, exactly over the rationals, the quantities that govern its
behaviour at large n:

* the per-cell mean rate as a polynomial in the fill fraction t, and the
  interior peak t* of that polynomial (certified unique via Sturm chains);
* the decomposition of the statistic into centered window-product sums
  indexed by support patterns, an exact algebraic identity per realization;
* the per-cell variance rate of values near the peak and the variance of the
  single-insertion jump at the peak -- each by two independent routes that
  must agree;
* the scale of the cube-root correction to the running maximum.

Everything returned to the caller is plain float; internally the arithmetic
is exact (`fractions.Fraction`, or Python integers over one common
denominator) so route agreement is not at the mercy of rounding.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

import numpy as np

from .polys import Polynomial, _as_fraction, _cleared, _horner_int, _isolate

__all__ = [
    "MAX_WINDOW_LEN",
    "MAX_ANALYSIS_WINDOW",
    "PatternFunctional",
    "NoInteriorPeakError",
    "runs_pattern",
    "run_length_pattern",
    "parse_pattern_text",
    "load_pattern",
    "mean_rate",
    "FluctuationDecomposition",
    "decompose_fluctuations",
    "centered_product_sum",
    "insertion_jump_moments",
    "fluctuation_covariance",
    "window_lag_covariance",
    "AsymptoticSummary",
    "summarize",
    "run_length_reference_constants",
]

MAX_WINDOW_LEN = 16       # table size cap for simulation (2^16 window values)
MAX_ANALYSIS_WINDOW = 10  # cap for the exact decomposition machinery
MAX_JUMP_WINDOW = 8       # cap for the jump-enumeration route (2^(2l-2) configs)

_ROOT_WIDTH = Fraction(1, 10**24)
_PEAK_MARGIN = Fraction(1, 10**9)
_TINY = Fraction(1, 10**18)

Rational = Union[int, float, Fraction]


class NoInteriorPeakError(ValueError):
    """The mean rate has no admissible strict interior maximum."""


@dataclass(frozen=True)
class PatternFunctional:
    """A real-valued function on 0/1 windows of a fixed length.

    `values[w]` is the value of the window whose cells, read left to right,
    are the binary digits of w (most significant digit = leftmost cell).
    Values are stored as exact rationals; floats are converted exactly.
    """

    length: int
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        if not 1 <= self.length <= MAX_WINDOW_LEN:
            raise ValueError(f"window length must be in 1..{MAX_WINDOW_LEN}, got {self.length}")
        if len(self.values) != 1 << self.length:
            raise ValueError(
                f"need {1 << self.length} window values for length {self.length}, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(_as_fraction(v) for v in self.values))

    def table_float(self) -> np.ndarray:
        """The values as a read-only float64 array, converted on the first call."""
        floats = self.__dict__.get("_floats")
        if floats is None:
            floats = np.array([float(v) for v in self.values], dtype=np.float64)
            floats.flags.writeable = False
            object.__setattr__(self, "_floats", floats)
        return floats

    def __getstate__(self):
        # a pickled array comes back writeable, so the table is not sent
        return {k: v for k, v in self.__dict__.items() if k != "_floats"}


def runs_pattern() -> PatternFunctional:
    """Ascent counter: value 1 on the window 01, else 0.

    Summed cyclically this counts maximal blocks of 1s (the all-ones row
    scores 0); summed linearly it misses a left-boundary block.
    """
    return PatternFunctional(2, (0, 1, 0, 0))

def run_length_pattern(d: int) -> PatternFunctional:
    """Counter of runs of 1s of length exactly d: value 1 on 0 1^d 0."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    ell = d + 2
    if ell > MAX_WINDOW_LEN:
        raise ValueError(f"run length {d} needs window {ell} > cap {MAX_WINDOW_LEN}")
    values = [0] * (1 << ell)
    values[((1 << d) - 1) << 1] = 1
    return PatternFunctional(ell, tuple(values))


# -- text format -------------------------------------------------------------
#
# Line 1: the window length L.  Then 2^L lines "bitstring value", bitstrings
# in lexicographic order.  Values may be rationals ("3/4"), decimals, or
# scientific notation.

def parse_pattern_text(text: str) -> PatternFunctional:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty window-table text")
    try:
        ell = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the window length, got {lines[0]!r}") from None
    if not 1 <= ell <= MAX_WINDOW_LEN:
        raise ValueError(f"window length must be in 1..{MAX_WINDOW_LEN}, got {ell}")
    body = lines[1:]
    if len(body) != 1 << ell:
        raise ValueError(f"expected {1 << ell} table lines, got {len(body)}")
    values = []
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"table line {i + 1} must be 'bits value', got {ln!r}")
        bits, raw = parts
        expected = format(i, f"0{ell}b")
        if bits != expected:
            raise ValueError(f"table line {i + 1}: expected bitstring {expected}, got {bits}")
        try:
            values.append(Fraction(raw))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"table line {i + 1}: cannot parse value {raw!r}") from None
    return PatternFunctional(ell, tuple(values))


def load_pattern(path: Union[str, os.PathLike]) -> PatternFunctional:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern_text(fh.read())


# -- exact decomposition -----------------------------------------------------


@dataclass(frozen=True)
class FluctuationDecomposition:
    """Exact split of the windowed sum into mean part and centered products.

    For any row and any t, the windowed sum over n cyclic windows equals

        n * mean_rate(t) + sum over patterns a of terms[a](t) * S_a(row, t)

    where S_a is the cyclic sum over start cells of the product of
    (cell value - t) at the 1-positions of a.  Pattern keys are 0/1 strings
    that begin and end with '1'.
    """

    window_length: int
    mean_rate: Polynomial
    terms: Mapping[str, Polynomial]


def _check_analysis_length(ell: int) -> None:
    if ell > MAX_ANALYSIS_WINDOW:
        raise ValueError(
            f"exact analysis capped at window length {MAX_ANALYSIS_WINDOW}, got {ell}"
        )


def decompose_fluctuations(pattern: PatternFunctional) -> FluctuationDecomposition:
    """Expand the window value in centered cell variables, exactly.

    Writes each cell indicator as t + (indicator - t) and multilinearly
    expands; one in-place butterfly pass per cell, entries are polynomials
    in t.  The empty-product coefficient is the mean rate.  The butterfly
    only adds, subtracts and multiplies by t, so it runs on the integer
    coefficients of den * entry, den the values' common denominator.
    """
    ell = pattern.length
    _check_analysis_length(ell)
    den, ints = _cleared(pattern.values)
    # coeffs[mask][i]: coefficient of t^i, times den; degree stays <= ell
    coeffs = [[v] + [0] * ell for v in ints]
    for cell in range(ell):
        bit = 1 << (ell - 1 - cell)
        for mask in range(1 << ell):
            if mask & bit:
                continue
            lo = coeffs[mask]
            step = [h - l for h, l in zip(coeffs[mask | bit], lo)]
            # (1 - t) * lo + t * hi = lo + t * step
            coeffs[mask] = [lo[0]] + [l + d for l, d in zip(lo[1:], step)]
            coeffs[mask | bit] = step

    sums: Dict[str, list] = {}
    for mask in range(1, 1 << ell):
        if not any(coeffs[mask]):
            continue
        bits = [(mask >> (ell - 1 - i)) & 1 for i in range(ell)]
        first = bits.index(1)
        last = ell - 1 - bits[::-1].index(1)
        alpha = "".join("1" if bits[i] else "0" for i in range(first, last + 1))
        acc = sums.setdefault(alpha, [0] * (ell + 1))
        for i, c in enumerate(coeffs[mask]):
            acc[i] += c

    terms = {a: Polynomial(c, den) for a, c in sums.items() if any(c)}
    return FluctuationDecomposition(ell, Polynomial(coeffs[0], den), terms)


def mean_rate(pattern: PatternFunctional) -> Polynomial:
    """Expected window value at fill fraction t, as an exact polynomial.

    The sum over windows of value * t^ones * (1 - t)^(ell - ones), with the
    values summed by popcount first and (1 - t)^j expanded binomially, on
    integers over the values' common denominator.
    """
    ell = pattern.length
    _check_analysis_length(ell)
    den, ints = _cleared(pattern.values)
    out = [0] * (ell + 1)
    for ones, v in enumerate(_sums_by_ones(ints, ell)):
        for i in range(ell - ones + 1):
            out[ones + i] += (-1) ** i * math.comb(ell - ones, i) * v
    return Polynomial(out, den)


def _sums_by_ones(ints: Sequence[int], ell: int) -> list:
    """sums[k]: the total of the integer window values with k occupied cells."""
    sums = [0] * (ell + 1)
    for w, v in enumerate(ints):
        sums[bin(w).count("1")] += v
    return sums


def centered_product_sum(row: Sequence[int], alpha: str, t: Rational) -> Fraction:
    """S_a(row, t): cyclic sum of products of (cell - t) over a's 1-cells."""
    tf = _as_fraction(t)
    n = len(row)
    offsets = [j for j, ch in enumerate(alpha) if ch == "1"]
    total = Fraction(0)
    for k in range(n):
        prod = Fraction(1)
        for j in offsets:
            prod *= row[(k + j) % n] - tf
        total += prod
    return total


# -- peak of the mean rate ---------------------------------------------------


def _peak_point(g: Polynomial) -> Tuple[Fraction, Fraction]:
    """The unique admissible interior maximizer of g on (0, 1), exactly, and
    the curvature g'' there.

    The point is either the exact rational root of g' or the midpoint of a
    bracket of width < 1e-24.  Raises NoInteriorPeakError when the peak is
    absent, non-unique within a 1e-9 value margin, attained at the boundary,
    or has non-negative curvature.
    """
    d1 = g.derivative()
    if d1.is_zero():
        raise NoInteriorPeakError("mean rate is constant; no interior peak")
    roots = _isolate(d1, 0, 1, _ROOT_WIDTH)
    if not roots:
        raise NoInteriorPeakError("mean rate has no interior critical point")
    points = [(a + b) / 2 for a, b in roots]
    vals = [g(pt) for pt in points]
    best = max(range(len(points)), key=vals.__getitem__)
    for i, v in enumerate(vals):
        if i != best and v > vals[best] - _PEAK_MARGIN:
            raise NoInteriorPeakError(
                "mean rate has multiple near-maximal critical values; peak not unique"
            )
    if vals[best] <= max(g(Fraction(0)), g(Fraction(1))) + _TINY:
        raise NoInteriorPeakError("mean rate is maximized at the boundary, not inside (0, 1)")
    curv = d1.derivative()(points[best])
    if curv >= -_TINY:
        raise NoInteriorPeakError("degenerate curvature at the mean-rate peak")
    return points[best], curv


# -- variance rate and jump variance, two routes each ------------------------


def _term_numerators(dec: FluctuationDecomposition, x: Fraction) -> Tuple[int, list]:
    """(den, [(nu(a), num_a)]) with terms[a](x) == num_a / den for every a.

    Each term is evaluated on integers by Horner's rule at x = N/M and
    brought to the common denominator lcm(term denominators) * M^ell, so the
    callers' sums stay on integers and build one Fraction at the end.
    """
    ell = dec.window_length
    lcd = math.lcm(*(p.den for p in dec.terms.values()))
    num, m = x.numerator, x.denominator
    nums = [
        (alpha.count("1"), _horner_int(p.ints, num, m) * m ** (ell - p.degree) * (lcd // p.den))
        for alpha, p in dec.terms.items()
    ]
    return lcd * m**ell, nums


def _jump_variance_from_terms(dec: FluctuationDecomposition, t: Fraction) -> Fraction:
    """Sum over patterns a of nu(a) * terms[a](t)^2 * (t(1-t))^(nu(a)-1)."""
    ell = dec.window_length
    den, nums = _term_numerators(dec, t)
    # t(1 - t) = b / c; every power is brought to c^(ell - 1)
    b = t.numerator * (t.denominator - t.numerator)
    c = t.denominator**2
    total = sum(nu * v * v * b ** (nu - 1) * c ** (ell - nu) for nu, v in nums)
    return Fraction(total, den * den * c ** (ell - 1))


def _pair_expectation(ints: Sequence[int], ell: int, lag: int, tl: Fraction, tr: Fraction) -> int:
    """m^(ell + min(lag, ell)) times E[left window value at fill tl  *  value
    lag cells right at fill tr], for the integer window values `ints` and m
    the common denominator of tl and tr.

    Cells fill at independent uniform times, so a cell seen at two fill
    fractions is (1,1) with probability min, (0,0) with 1 - max, and only
    the earlier look can be 0 when the later is 1.

    Each window's own cells are summed out first, leaving a vector over the
    shared cells, indexed by their bits; the joint law is then applied one
    shared cell at a time (a butterfly).  The cost is (shared cells) times
    the vector's support -- at most ell * 2^ell, and the number of nonzero
    values when tl == tr, where the law is diagonal -- rather than one term
    per pair of window values.  The probabilities run on integer numerators
    over m.
    """
    m = math.lcm(tl.denominator, tr.denominator)
    nl = tl.numerator * (m // tl.denominator)
    nr = tr.numerator * (m // tr.denominator)
    joint = (
        (m - max(nl, nr), max(0, nr - nl)),  # left bit 0: right 0 / 1
        (max(0, nl - nr), min(nl, nr)),      # left bit 1: right 0 / 1
    )
    own = min(lag, ell)  # cells in one window only
    shared = ell - own   # the left window's last cells, the right one's first
    left_weight = [nl**k * (m - nl) ** (own - k) for k in range(own + 1)]
    right_weight = [nr**k * (m - nr) ** (own - k) for k in range(own + 1)]
    left: Dict[int, int] = {}
    right: Dict[int, int] = {}
    for w, v in enumerate(ints):
        if v:
            # the left window's own cells lead its bits, the right's trail
            a = w & ((1 << shared) - 1)
            left[a] = left.get(a, 0) + v * left_weight[bin(w >> shared).count("1")]
            b = w >> own
            right[b] = right.get(b, 0) + v * right_weight[bin(w & ((1 << own) - 1)).count("1")]
    for cell in range(shared):  # bit `cell` of both indices is one cell
        bit = 1 << cell
        moved: Dict[int, int] = {}
        for a, v in left.items():
            x = (a & bit) >> cell
            for y in (0, 1):
                if joint[x][y]:
                    c = a ^ ((x ^ y) << cell)
                    moved[c] = moved.get(c, 0) + v * joint[x][y]
        left = moved
    return sum(v * right.get(b, 0) for b, v in left.items())


def window_lag_covariance(pattern: PatternFunctional, s: Rational, t: Rational) -> Fraction:
    """Bivariate covariance rate by direct summation over window lags.

    Sum over lags j of Cov(window value at cell 0 and fill s, window value
    at cell j and fill t).  Independent of the decomposition machinery; for
    rows of length at least twice the window this is exactly n^-1 times the
    covariance of the two windowed sums in the randomized-time model.

    Every lag's pair expectation and the product of the two window means
    are summed as integer numerators over den^2 * m^(2 ell), den the
    values' common denominator and m that of s and t, into one Fraction.
    """
    sf = _as_fraction(s)
    tf = _as_fraction(t)
    ell = pattern.length
    den, ints = _cleared(pattern.values)
    m = math.lcm(sf.denominator, tf.denominator)
    sums = _sums_by_ones(ints, ell)
    means = [  # den * m^ell times the window mean at fill n / m
        sum(v * n**ones * (m - n) ** (ell - ones) for ones, v in enumerate(sums))
        for n in (sf.numerator * (m // sf.denominator), tf.numerator * (m // tf.denominator))
    ]
    same = sf == tf  # then lag -j's call repeats lag j's, and lag j counts twice
    pairs = 0
    for j in range(0 if same else -(ell - 1), ell):
        lag = abs(j)
        tl, tr = (sf, tf) if j >= 0 else (tf, sf)
        times = 2 if same and lag else 1
        pairs += times * _pair_expectation(ints, ell, lag, tl, tr) * m ** (ell - lag)
    return Fraction(pairs - (2 * ell - 1) * means[0] * means[1], den * den * m ** (2 * ell))


def fluctuation_covariance(dec: FluctuationDecomposition, s: Rational, t: Rational) -> Fraction:
    """The same covariance rate from the centered decomposition.

    Sum over patterns a of terms[a](s) * terms[a](t) * (min(s,t)(1-max(s,t)))^nu(a).
    Agrees with `window_lag_covariance` identically; the pair is kept as a
    deliberate cross-check.
    """
    sf = _as_fraction(s)
    tf = _as_fraction(t)
    ell = dec.window_length
    den_s, at_s = _term_numerators(dec, sf)
    den_t, at_t = (den_s, at_s) if sf == tf else _term_numerators(dec, tf)
    # min(s, t) (1 - max(s, t)) = b / c; every power is brought to c^ell
    lo, hi = min(sf, tf), max(sf, tf)
    b = lo.numerator * (hi.denominator - hi.numerator)
    c = lo.denominator * hi.denominator
    total = sum(u * v * b**nu * c ** (ell - nu) for (nu, u), (_, v) in zip(at_s, at_t))
    return Fraction(total, den_s * den_t * c**ell)


def insertion_jump_moments(pattern: PatternFunctional, t: Rational) -> Tuple[float, float]:
    """Mean and variance of the windowed-sum jump when one empty cell fills.

    The 2(L-1) neighbor cells are independently occupied with probability t;
    the jump is the sum over the L windows through the filled cell of the
    value change 0 -> 1.  Plain enumeration of all neighbor configurations,
    in float64 -- this is the check route, kept deliberately naive.
    """
    ell = pattern.length
    if ell > MAX_JUMP_WINDOW:
        raise ValueError(f"jump enumeration capped at window length {MAX_JUMP_WINDOW}, got {ell}")
    tval = float(t)
    values = pattern.table_float()
    if ell == 1:
        jump = float(values[1] - values[0])
        return jump, 0.0

    nb = 2 * ell - 2  # neighbor cells, relative positions -(L-1)..-1, 1..L-1

    def cfg_index(rel: int) -> int:
        return rel + ell - 1 if rel < 0 else rel + ell - 2

    cfgs = np.arange(1 << nb, dtype=np.int64)
    jump = np.zeros(cfgs.size, dtype=np.float64)
    for o in range(ell):  # window starting o cells left of the filled cell
        sub = np.zeros(cfgs.size, dtype=np.int64)
        center_bit = 1 << (ell - 1 - o)
        for j in range(ell - 1):  # the window's non-center cells
            i = j if j < o else j + 1
            idx = cfg_index(i - o)
            sub |= ((cfgs >> idx) & 1) << (ell - 1 - i)
        jump += values[sub | center_bit] - values[sub]
    ones = sum((cfgs >> bit) & 1 for bit in range(nb))  # popcount, any numpy
    probs = tval**ones * (1.0 - tval) ** (nb - ones)
    e1 = float(np.dot(probs, jump))
    e2 = float(np.dot(probs, jump * jump))
    return e1, e2 - e1 * e1


def _check_routes(quantity: str, a: float, b: float) -> None:
    if abs(a - b) / max(1.0, abs(a), abs(b)) > 1e-10:
        raise ArithmeticError(f"{quantity} routes disagree: {a} vs {b}")


@dataclass(frozen=True)
class AsymptoticSummary:
    """Everything the limit theory needs about one window functional."""

    peak_time: float
    peak_mean: float        # mean rate at the peak (leading coefficient per cell)
    peak_curvature: float   # second derivative of the mean rate there (< 0)
    variance_rate: float    # per-cell variance of values at the peak
    jump_variance: float    # variance of the single-insertion jump at the peak
    correction_scale: float  # multiplies the parabola-max mean times n^(1/3)
    # the exact decomposition the numbers above come from
    decomposition: FluctuationDecomposition = field(compare=False, repr=False)


def summarize(pattern: PatternFunctional) -> AsymptoticSummary:
    """Full asymptotic summary with both routes cross-checked.

    The variance rate comes from the centered decomposition and,
    independently, from the window-lag covariance sum; the jump variance
    from the decomposition and, when the window is small enough to
    enumerate, from plain neighbor enumeration.  Routes that disagree
    beyond 1e-10 raise ArithmeticError.
    """
    # The peak comes first, so that a window without one is never decomposed;
    # mean_rate equals the decomposition's mean rate exactly.
    g = mean_rate(pattern)
    t0, curv = _peak_point(g)
    dec = decompose_fluctuations(pattern)

    vr_a = fluctuation_covariance(dec, t0, t0)
    _check_routes("variance-rate", float(vr_a), float(window_lag_covariance(pattern, t0, t0)))

    jv_a = _jump_variance_from_terms(dec, t0)
    if pattern.length <= MAX_JUMP_WINDOW:
        _check_routes("jump-variance", float(jv_a), insertion_jump_moments(pattern, float(t0))[1])

    scale_cubed = jv_a * jv_a / (-curv)
    return AsymptoticSummary(
        peak_time=float(t0),
        peak_mean=float(g(t0)),
        peak_curvature=float(curv),
        variance_rate=float(vr_a),
        jump_variance=float(jv_a),
        correction_scale=float(scale_cubed) ** (1.0 / 3.0),
        decomposition=dec,
    )


def run_length_reference_constants(d: int) -> Dict[str, Fraction]:
    """Closed-form summary constants for the run-length-d counter.

    Used as an independent reference for `summarize(run_length_pattern(d))`;
    exact rationals, `correction_scale` given cubed to stay rational.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    dd = d**d
    base = d + 2
    peak_mean = Fraction(4 * dd, base ** (d + 2))
    ratio = Fraction(dd, base ** (d + 1))
    return {
        "peak_time": Fraction(d, base),
        "peak_mean": peak_mean,
        "peak_curvature": -Fraction(2 * d ** (d - 1), base ** (d - 1)),
        "variance_rate": peak_mean * (1 - (d + 1) * peak_mean),
        "jump_variance": 8 * ratio * (1 + ratio),
        "correction_scale_cubed": Fraction(32 * d ** (d + 1), base ** (d + 3)) * (1 + ratio) ** 2,
    }
