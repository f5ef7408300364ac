"""Exact univariate polynomials over the rationals, with real-root isolation.

A polynomial is integer numerators over one positive denominator, in lowest
terms, and nothing else: every kernel that builds one (the window
decomposition, the mean rate) works on integers already, so it hands them
over as they are.  Evaluation at an int or a Fraction N/M runs Horner's rule
on the integers, den * M^d * p(N/M), and builds a single Fraction from the
result.  Root isolation uses a Sturm chain on the squarefree part plus exact
bisection -- enough machinery to certify that a polynomial has exactly one
critical point of interest inside (0, 1) and to pin it to any requested
width.  It needs only signs, so it works on integer coefficient lists from
start to finish and builds no Fraction to count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["Polynomial"]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact dyadic value of the float
    raise TypeError(f"cannot use {type(x).__name__} as a number")


def _cleared(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(L, [L * c for c in coeffs]) with L the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _horner_int(ints: Sequence[int], num: int, den: int) -> int:
    """sum(ints[i] * num^i * den^(d-i)): den^d times the polynomial at num/den."""
    acc = 0
    scale = 1
    for c in reversed(ints):
        acc = acc * num + c * scale
        scale *= den
    return acc


class Polynomial:
    """The polynomial sum(ints[i] * x**i) / den, in lowest terms.

    `ints` has no trailing zero and shares no factor with `den`, so two
    polynomials are equal exactly when their fields are.
    """

    __slots__ = ("den", "ints")

    def __init__(self, ints: Iterable[int] = (), den: int = 1):  # ascending degree
        if den <= 0:
            raise ValueError(f"need a positive denominator, got {den}")
        ints = list(ints)
        while ints and ints[-1] == 0:
            ints.pop()
        g = math.gcd(den, *ints)
        self.den = den // g
        self.ints = tuple(c // g for c in ints)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending; derived, not stored."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.den == other.den and self.ints == other.ints
        return NotImplemented

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.ints) if i], self.den)

    def __call__(self, x) -> Fraction:
        """The exact value at an int or a Fraction."""
        num, xden = x.numerator, x.denominator
        return Fraction(_horner_int(self.ints, num, xden), self.den * xden ** max(self.degree, 0))


# -- root machinery ---------------------------------------------------------
#
# Root isolation clears p to a primitive integer coefficient list once and
# stays on integers: every polynomial below is a list of ints in ascending
# degree, with no trailing zero.  Each step keeps a positive multiple of the
# polynomial that Fraction arithmetic would give -- the squarefree part, the
# deflated polynomial and each Sturm chain element -- so every sign, and with
# it every root count, split point and bracket, is the same.


def _primitive(ints: list[int]) -> list[int]:
    """ints divided by their positive content."""
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _int_derivative(ints: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(ints) if i]


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of the remainder of a by b.

    Each elimination step scales the partial remainder by |lc(b)| before it
    cancels the leading term, so no division is needed.
    """
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    scale = abs(lead)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem.pop()
        if c:
            f = c if lead > 0 else -c  # scale * c - f * lead == 0
            if scale != 1:
                rem = [scale * r for r in rem]
            for j in range(db):
                rem[i - db + j] -= f * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b, for a primitive b that divides a.

    By Gauss's lemma the quotient has integer coefficients, so each step's
    division by lc(b) is exact.
    """
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            f = c // lead
            q[i - db] = f
            for j in range(db):
                rem[i - db + j] -= f * b[j]
    return q


def _squarefree(p: list[int]) -> list[int]:
    """p divided by gcd(p, p'): same roots, all simple (p primitive)."""
    if len(p) <= 2:
        return p
    a, b = p, _primitive(_int_derivative(p))
    while b:  # primitive remainder sequence
        a, b = b, _primitive(_pseudo_rem(a, b))
    if len(a) == 1:
        return p
    if a[-1] < 0:  # a positive multiple of the monic gcd
        a = [-c for c in a]
    return _primitive(_exact_quotient(p, a))


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', then negated pseudo-remainders, each over its positive content."""
    chain = [p, _primitive(_int_derivative(p))]
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def _sign_at(ints: Sequence[int], x: Fraction) -> int:
    """The sign of the polynomial at x: -1, 0 or 1."""
    v = _horner_int(ints, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _sign_variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    changes = 0
    last = 0
    for q in chain:
        sign = _sign_at(q, x)
        if sign:
            if sign == -last:
                changes += 1
            last = sign
    return changes


def _count_roots_halfopen(chain, a: Fraction, b: Fraction) -> int:
    """Number of roots in (a, b] for the squarefree chain head, p(a) != 0."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def _split_point(p: Sequence[int], a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside (a, b) where p does not vanish.

    Tries the midpoint first, then nudges by shrinking powers of two; p has
    finitely many roots, so one of the distinct candidates must work.
    """
    half = Fraction(1, 2)
    gap = b - a
    candidates = [half]
    for j in range(6, 6 + len(p) + 1):  # degree + 2 nudges each way
        candidates.append(half + Fraction(1, 2**j))
        candidates.append(half - Fraction(1, 2**j))
    for q in candidates:
        point = a + gap * q
        if _sign_at(p, point):
            return point
    raise AssertionError("no admissible split point found")  # pragma: no cover


def _isolate(p: Polynomial, lo, hi) -> tuple[list[int], list[tuple[Fraction, Fraction]]]:
    """The integer polynomial that root isolation brackets -- p's squarefree
    part with roots at lo or hi divided out -- and one bracket (a, b) per
    root strictly inside (lo, hi), disjoint, in increasing order, with a
    sign change across it.

    `_bisect` on that polynomial narrows a bracket; narrowing it to one
    width and then to a smaller one gives what narrowing it to the smaller
    one at once gives.
    """
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if p.is_zero():
        raise ValueError("zero polynomial has no isolated roots")
    ints = _squarefree(_primitive(list(p.ints)))
    if len(ints) <= 1:
        return ints, []
    # Deflate roots sitting exactly on the boundary so Sturm counting can
    # anchor there; they are excluded from the open interval anyway.
    for point in (lo, hi):
        if not _sign_at(ints, point):
            ints = _exact_quotient(ints, [-point.numerator, point.denominator])
    if len(ints) <= 1:
        return ints, []
    chain = _sturm_chain(ints)

    brackets: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, _count_roots_halfopen(chain, lo, hi))]
    while stack:
        a, b, count = stack.pop()
        if count == 0:
            continue
        if count == 1 and _sign_at(ints, a) * _sign_at(ints, b) < 0:
            brackets.append((a, b))
            continue
        mid = _split_point(ints, a, b)
        left = _count_roots_halfopen(chain, a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, count - left))
    brackets.sort()
    return ints, brackets


def _bisect(ints: Sequence[int], a: Fraction, b: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink a bracketing interval (p(a)p(b) < 0) below `width` by bisection,
    for the polynomial p with integer coefficients `ints`.

    Exact rational roots hit by a bisection point are returned as (r, r).
    The bracket is kept as integer numerators lo, hi over one denominator q,
    which doubles with each halving, and only the sign of p is tested.
    """
    if a == b:
        return a, b
    sa = _sign_at(ints, a)
    if sa == 0:
        return a, a
    if sa * _sign_at(ints, b) >= 0:
        raise ValueError("interval does not bracket a sign change")
    rising = sa < 0  # p(lo) keeps the sign of p(a): p rises through the root
    q = math.lcm(a.denominator, b.denominator)
    lo = a.numerator * (q // a.denominator)
    hi = b.numerator * (q // b.denominator)
    while (hi - lo) * width.denominator > width.numerator * q:
        mid = lo + hi
        q *= 2
        fm = _horner_int(ints, mid, q)
        if fm == 0:
            return Fraction(mid, q), Fraction(mid, q)
        if (fm < 0) == rising:
            lo, hi = mid, 2 * hi
        else:
            lo, hi = 2 * lo, mid
    return Fraction(lo, q), Fraction(hi, q)
