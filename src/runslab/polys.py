"""Dense univariate polynomials over the rationals, with real-root isolation.

Coefficients are `fractions.Fraction` end to end; evaluation preserves the
argument type, so feeding a Fraction in gets an exact value out.  Root
isolation uses a Sturm chain on the squarefree part plus exact bisection --
enough machinery to certify that a polynomial has exactly one critical point
of interest inside (0, 1) and to pin it to any requested width.

Exact evaluation and bisection run on Python integers underneath: the
coefficients are cleared to a common denominator L, a rational point N/M is
kept as its two integers, and Horner's rule works on L * M^d * p(N/M); a
single Fraction is built from the result.  Exact arithmetic does not depend
on the order of operations, so every value equals the one that Fraction
arithmetic step by step would give.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["Polynomial", "real_roots_in_interval", "refine_root", "squarefree_part"]


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
    """A polynomial sum(c[i] * x**i), coefficients exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # ascending degree order
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def identity(cls) -> "Polynomial":
        return cls((0, 1))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Polynomial.constant(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        c = _as_fraction(other)
        return Polynomial(tuple(a * c for a in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x):
        """Horner evaluation; exact when x is a Fraction or int."""
        if self.coeffs and isinstance(x, (int, Fraction)):
            den, ints = _cleared(self.coeffs)
            num, xden = x.numerator, x.denominator
            return Fraction(_horner_int(ints, num, xden), den * xden ** self.degree)
        acc = 0 * x  # keeps the caller's numeric type
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# -- root machinery ---------------------------------------------------------


def _divmod_poly(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, a.degree - b.degree + 1)
    rem = list(a.coeffs)
    db = b.degree
    lead = b.coeffs[-1]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c / lead
        q[i - db] = f
        for j, bc in enumerate(b.coeffs):
            rem[i - db + j] -= f * bc
    return Polynomial(q), Polynomial(rem)


def _gcd_poly(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        a, b = b, _divmod_poly(a, b)[1]
    if a.is_zero():
        return a
    return a * (1 / a.coeffs[-1])  # monic


def squarefree_part(p: Polynomial) -> Polynomial:
    """p divided by gcd(p, p'); same roots, all simple."""
    if p.degree <= 1:
        return p
    g = _gcd_poly(p, p.derivative())
    if g.degree <= 0:
        return p
    return _divmod_poly(p, g)[0]


def _sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = _divmod_poly(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]


def _sign_variations(chain: Sequence[Polynomial], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v > 0:
            signs.append(1)
        elif v < 0:
            signs.append(-1)
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            changes += 1
    return changes


def _count_roots_halfopen(chain, a: Fraction, b: Fraction) -> int:
    """Number of roots in (a, b] for the squarefree chain head, p(a) != 0."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def _split_point(p: Polynomial, a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside (a, b) where p does not vanish.

    Tries the midpoint first, then nudges by shrinking powers of two; p has
    finitely many roots, so one of the distinct candidates must work.
    """
    half = Fraction(1, 2)
    gap = b - a
    candidates = [half]
    for j in range(6, 6 + max(p.degree, 0) + 2):
        candidates.append(half + Fraction(1, 2**j))
        candidates.append(half - Fraction(1, 2**j))
    for q in candidates:
        point = a + gap * q
        if p(point) != 0:
            return point
    raise AssertionError("no admissible split point found")  # pragma: no cover


def real_roots_in_interval(p: Polynomial, lo, hi, width=Fraction(1, 10**18)) -> list[tuple[Fraction, Fraction]]:
    """All real roots of p strictly inside (lo, hi), to the requested width.

    Returns disjoint pairs (a, b), in increasing order, one per root: either
    a == b and the root is exactly that rational, or b - a < width with the
    root strictly inside.  Roots sitting exactly at lo or hi are excluded.
    Multiplicities are erased (isolation runs on the squarefree part).
    """
    lo = _as_fraction(lo)
    hi = _as_fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if p.is_zero():
        raise ValueError("zero polynomial has no isolated roots")
    p = squarefree_part(p)
    if p.degree <= 0:
        return []
    # Deflate roots sitting exactly on the boundary so Sturm counting can
    # anchor there; they are excluded from the open interval anyway.
    for point in (lo, hi):
        if p(point) == 0:
            p = _divmod_poly(p, Polynomial((-point, 1)))[0]
    if p.degree <= 0:
        return []
    chain = _sturm_chain(p)

    brackets: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, _count_roots_halfopen(chain, lo, hi))]
    while stack:
        a, b, count = stack.pop()
        if count == 0:
            continue
        if count == 1 and p(a) * p(b) < 0:
            brackets.append((a, b))
            continue
        mid = _split_point(p, a, b)
        left = _count_roots_halfopen(chain, a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, count - left))

    out = [refine_root(p, a, b, width) for a, b in brackets]
    out.sort()
    return out


def refine_root(p: Polynomial, a, b, width=Fraction(1, 10**18)) -> tuple[Fraction, Fraction]:
    """Shrink a bracketing interval (p(a)p(b) < 0) below `width` by bisection.

    Exact rational roots hit by a bisection point are returned as (r, r).
    The bracket is kept as integer numerators lo, hi over one denominator q,
    which doubles with each halving, and only the sign of p is tested.
    """
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == b:
        return a, b
    fa = p(a)
    if fa == 0:
        return a, a
    if fa * p(b) >= 0:
        raise ValueError("interval does not bracket a sign change")
    width = _as_fraction(width)
    _, ints = _cleared(p.coeffs)
    rising = fa < 0  # p(lo) keeps the sign of p(a): p rises through the root
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
