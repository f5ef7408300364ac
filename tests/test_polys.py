"""Exact polynomials as integers over one denominator, and Sturm-chain root
isolation.

`Polynomial` has no arithmetic operators, so the tests build their inputs
from coefficient lists: `poly` for one list, `times` for a product of
lists.  The Fraction oracles below work on the `coeffs` tuples.
"""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from runslab import patterns
from runslab.cli import main
from runslab.patterns import PatternFunctional, mean_rate
from runslab.polys import (
    Polynomial,
    _bisect,
    _cleared,
    _primitive,
    _squarefree,
    _sturm_chain,
)
from runslab.verify import _random_pattern

from conftest import real_roots_in_interval


def poly(cs):
    """The Polynomial with int or Fraction coefficients cs, ascending."""
    den, ints = _cleared([Fraction(c) for c in cs])
    return Polynomial(ints, den)


def times(*factors):
    """The Polynomial that is the product of coefficient lists."""
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return poly(out)


def refine_root(p, a, b, width=Fraction(1, 10**18)):
    """The bisection that root isolation runs, on p's integer coefficients."""
    return _bisect(p.ints, Fraction(a), Fraction(b), Fraction(width))


def test_construction_trims_leading_zeros():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0]).is_zero()
    assert Polynomial().degree == -1


def test_construction_reduces_to_lowest_terms():
    p = Polynomial([6, -4, 0], 8)
    assert (p.ints, p.den) == ((3, -2), 4)
    assert p == Polynomial([3, -2], 4) == poly([Fraction(3, 4), Fraction(-1, 2)])
    assert (Polynomial([0], 5).ints, Polynomial([0], 5).den) == ((), 1)
    with pytest.raises(ValueError):
        Polynomial([1], 0)


@given(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=4),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=4),
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
)
def test_equality_is_equality_of_fraction_coefficients(a, b, ka, kb, same):
    # whatever common multiple of the denominators a polynomial is built on
    if same:
        b = a + [Fraction(0)] * len(b)  # equal up to trailing zeros
    def build(cs, k):
        den, ints = _cleared(cs)
        return Polynomial([k * c for c in ints], k * den)

    def trimmed(cs):
        cs = list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    p, q = build(a, ka), build(b, kb)
    assert p.coeffs == trimmed(a)
    assert (p == q) == (trimmed(a) == trimmed(b))


def test_evaluation_is_exact():
    p = poly([Fraction(1, 3), Fraction(-1, 7), 2])
    t = Fraction(5, 11)
    assert p(t) == Fraction(1, 3) - Fraction(1, 7) * t + 2 * t * t


def test_derivative():
    p = Polynomial([5, 0, 3, 1])  # 5 + 3x^2 + x^3
    assert p.derivative() == Polynomial([0, 6, 3])
    assert Polynomial([7]).derivative().is_zero()


coeffs = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=5
)


@given(coeffs, st.fractions(min_value=-2, max_value=2, max_denominator=8))
def test_evaluation_matches_horner_by_hand(a, x):
    p = poly(a)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    assert p(x) == acc


# -- Fraction oracles ----------------------------------------------------------
#
# Root isolation runs on integer coefficient lists.  These are the Fraction
# loops it replaced -- division, the monic gcd, the squarefree part, the
# Sturm chain and the whole isolation pipeline -- kept as the oracle whose
# brackets it must reproduce.


def _divmod_poly(a, b):
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
    return poly(q), poly(rem)


def _gcd_poly(a, b):
    while not b.is_zero():
        a, b = b, _divmod_poly(a, b)[1]
    if a.is_zero():
        return a
    return poly([c / a.coeffs[-1] for c in a.coeffs])  # monic


def squarefree_part(p):
    """p divided by gcd(p, p'); same roots, all simple."""
    if p.degree <= 1:
        return p
    g = _gcd_poly(p, p.derivative())
    if g.degree <= 0:
        return p
    return _divmod_poly(p, g)[0]


def sturm_chain_oracle(p):
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = _divmod_poly(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(poly([-c for c in rem.coeffs]))
    return [q for q in chain if not q.is_zero()]


def sign_variations_oracle(chain, x):
    signs = [1 if v > 0 else -1 for v in (q(x) for q in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def split_point_oracle(p, a, b):
    half = Fraction(1, 2)
    candidates = [half]
    for j in range(6, 6 + max(p.degree, 0) + 2):
        candidates += [half + Fraction(1, 2**j), half - Fraction(1, 2**j)]
    return next(a + (b - a) * q for q in candidates if p(a + (b - a) * q) != 0)


def real_roots_oracle(p, lo, hi, width=Fraction(1, 10**18)):
    lo, hi = Fraction(lo), Fraction(hi)
    p = squarefree_part(p)
    if p.degree <= 0:
        return []
    for point in (lo, hi):
        if p(point) == 0:
            p = _divmod_poly(p, poly((-point, 1)))[0]
    if p.degree <= 0:
        return []
    chain = sturm_chain_oracle(p)

    def count(a, b):
        return sign_variations_oracle(chain, a) - sign_variations_oracle(chain, b)

    brackets = []
    stack = [(lo, hi, count(lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1 and p(a) * p(b) < 0:
            brackets.append((a, b))
            continue
        mid = split_point_oracle(p, a, b)
        left = count(a, mid)
        stack += [(a, mid, left), (mid, b, n - left)]
    return sorted(refine_root_oracle(p, a, b, width) for a, b in brackets)


def int_form(p):
    """p's coefficients cleared to a primitive integer list."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _primitive([int(c * den) for c in p.coeffs])


def is_positive_multiple(ints, p):
    """ints == c * p's coefficients for some rational c > 0."""
    if len(ints) != len(p.coeffs):
        return False
    c = Fraction(ints[-1]) / p.coeffs[-1]
    return c > 0 and all(Fraction(i) == c * pc for i, pc in zip(ints, p.coeffs))


def test_squarefree_part_drops_multiplicity():
    p = times([-1, 1], [-1, 1], [-1, 1], [2, 1])  # (x - 1)^3 (x + 2)
    sf = squarefree_part(p)
    assert sf(1) == 0 and sf(-2) == 0
    assert sf.degree == 2


def test_roots_of_quadratic():
    p = times([-1, 2], [-2, 3])  # roots 1/2, 2/3
    roots = real_roots_in_interval(p, 0, 1)
    assert len(roots) == 2
    for (a, b), r in zip(roots, (Fraction(1, 2), Fraction(2, 3))):
        assert a <= r <= b
        assert b - a == 0 or b - a < Fraction(1, 10**18)


def test_root_hit_exactly_by_bisection():
    roots = real_roots_in_interval(Polynomial([-1, 2]), 0, 1)
    assert roots == [(Fraction(1, 2), Fraction(1, 2))]


def test_endpoint_roots_excluded():
    p = Polynomial([0, -1, 1])  # x (x - 1)
    assert real_roots_in_interval(p, 0, 1) == []


def test_no_real_roots():
    assert real_roots_in_interval(Polynomial([1, 0, 1]), -10, 10) == []


def test_multiple_root_isolated_once():
    p = times([Fraction(-1, 3), 1], [Fraction(-1, 3), 1])
    roots = real_roots_in_interval(p, 0, 1)
    assert len(roots) == 1
    a, b = roots[0]
    assert a <= Fraction(1, 3) <= b


def test_close_roots_separated():
    r1, r2 = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**6)
    p = times([-r1, 1], [-r2, 1])
    roots = real_roots_in_interval(p, 0, 1)
    assert len(roots) == 2
    (a1, b1), (a2, b2) = roots
    assert b1 <= a2  # disjoint brackets
    assert a1 <= r1 <= b1 and a2 <= r2 <= b2


def test_degree_five_root_count():
    # x(x^2-1)(x^2-4) has roots -2,-1,0,1,2
    p = times([0, 1], [-1, 0, 1], [-4, 0, 1])
    assert len(real_roots_in_interval(p, -3, 3)) == 5
    assert len(real_roots_in_interval(p, Fraction(-3, 2), 3)) == 4


def test_requested_width_honored():
    width = Fraction(1, 10**24)
    (a, b), = real_roots_in_interval(Polynomial([-2, 0, 1]), 0, 2, width=width)
    assert b - a < width
    # sqrt(2) truncated to 25 digits; the bracket midpoint must agree
    sqrt2 = Fraction(14142135623730950488016887, 10**25)
    assert abs((a + b) / 2 - sqrt2) < 2 * width


def test_refine_root_shrinks_bracket():
    p = Polynomial([-2, 0, 0, 1])
    a, b = refine_root(p, 1, 2, width=Fraction(1, 10**12))
    assert b - a < Fraction(1, 10**12)
    assert p(a) <= 0 <= p(b)


def test_refine_root_needs_sign_change():
    with pytest.raises(ValueError):
        refine_root(Polynomial([1, 0, 1]), 0, 1)


# -- integer kernels against Fraction oracles --------------------------------
#
# Evaluation and bisection run on integer numerators; these are the plain
# Fraction loops they replaced, which must give the same values and types.


def horner_oracle(p, x):
    acc = 0 * x
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def refine_root_oracle(p, a, b, width=Fraction(1, 10**18)):
    a, b, width = Fraction(a), Fraction(b), Fraction(width)
    if a == b:
        return a, b
    fa = p(a)
    if fa == 0:
        return a, a
    if fa * p(b) >= 0:
        raise ValueError("interval does not bracket a sign change")
    while b - a > width:
        mid = (a + b) / 2
        fm = p(mid)
        if fm == 0:
            return mid, mid
        if (fa > 0) == (fm > 0):
            a, fa = mid, fm
        else:
            b = mid
    return a, b


points = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**9),
)


@given(st.lists(st.fractions(max_denominator=10**6), max_size=7), points)
def test_evaluation_matches_fraction_horner(cs, x):
    p = poly(cs)
    got = p(x)
    assert got == horner_oracle(p, x) and type(got) is Fraction


# distinct rational roots, some dyadic so that a bisection midpoint can hit
# one exactly, times a factor with no real root
roots = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=50),
    st.builds(lambda k, j: Fraction(k, 2**j), st.integers(-2**8, 2**8), st.integers(0, 8)),
)
gaps = st.fractions(min_value=0, max_value=2, max_denominator=64)
widths = st.sampled_from([Fraction(1, 10**6), Fraction(1, 10**18), Fraction(1, 10**24), Fraction(3, 7)])


@settings(deadline=None)
@given(
    st.lists(roots, min_size=1, max_size=5, unique=True),
    st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(bool),
    st.booleans(),
    gaps,
    gaps,
    widths,
)
def test_refine_root_matches_fraction_bisection(rs, lead, quadratic, left, right, width):
    p = times([lead], *([-r, 1] for r in rs), *([[1, 1, 1]] if quadratic else []))
    assert squarefree_part(p) == p
    a, b = rs[0] - left, rs[0] + right  # around the first root
    assume(p(a) * p(b) < 0)
    assert refine_root(p, a, b, width) == refine_root_oracle(p, a, b, width)


@given(st.integers(1, 2**40 - 1), st.integers(1, 40))
def test_refine_root_lands_on_dyadic_root(k, j):
    # a root k/2^j in (0, 1) is a bisection midpoint of [0, 1]
    root = Fraction(k, 2**j)
    assume(root < 1)
    p = times([-root, 1], [2, 1])
    got = refine_root(p, 0, 1)
    assert got == refine_root_oracle(p, 0, 1)
    assert got == (root, root)


# -- integer root isolation against the Fraction pipeline ----------------------


# roots p/q for the factors (q x - p): small denominators, dyadic ones that
# a bisection midpoint can hit, and the interval ends 0 and 1
factor_roots = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.builds(lambda k, j: Fraction(k, 2**j), st.integers(-2**6, 2**7), st.integers(0, 7)),
    st.sampled_from([Fraction(0), Fraction(1)]),
)
isolation_widths = st.sampled_from([Fraction(1, 10**6), Fraction(1, 10**24)])


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.tuples(factor_roots, st.integers(1, 3)), min_size=1, max_size=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [1, -1, 3]]),  # 1, x^2 + 1, x^2 - 2, 3x^2 - x + 1
    st.sampled_from([(0, 1), (Fraction(-1, 2), Fraction(3, 2)), (Fraction(1, 4), 1)]),
    isolation_widths,
)
def test_roots_match_fraction_pipeline(factors, lead, extra, bounds, width):
    # repeated roots come from mult > 1 and repeats
    p = times([lead], extra, *([-r.numerator, r.denominator] for r, mult in factors for _ in range(mult)))
    lo, hi = bounds
    assert real_roots_in_interval(p, lo, hi, width) == real_roots_oracle(p, lo, hi, width)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.tuples(factor_roots, st.integers(1, 3)), min_size=1, max_size=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [1, -1, 3]]),
)
def test_integer_chain_is_a_positive_multiple_of_the_fraction_chain(factors, lead, extra):
    p = times([lead], extra, *([-r.numerator, r.denominator] for r, mult in factors for _ in range(mult)))
    sf = _squarefree(int_form(p))
    assert is_positive_multiple(sf, squarefree_part(p))
    if len(sf) > 1:
        chain = _sturm_chain(sf)
        oracle = sturm_chain_oracle(squarefree_part(p))
        assert len(chain) == len(oracle)
        assert all(is_positive_multiple(c, q) for c, q in zip(chain, oracle))


def test_mean_rate_derivatives_match_fraction_pipeline():
    # the polynomials the peak search really sees: g' of seeded random windows
    rng = np.random.default_rng(17)
    for _ in range(300):
        d1 = mean_rate(_random_pattern(rng)).derivative()
        if d1.is_zero():
            continue
        width = Fraction(1, 10**24)
        assert real_roots_in_interval(d1, 0, 1, width) == real_roots_oracle(d1, 0, 1, width)


# -- the brackets the exact layer requests -------------------------------------


def requested_brackets(monkeypatch, capsys):
    """Every (ints, a, b, width) that the peak search hands to `_bisect`, with
    its result, over one `verify --scale quick --seed 0` run, the six
    run-length reports and 8 admissible random windows of each length 2, 3
    and 4 drawn as the exact benchmark workload draws them at seed 2331
    (values k/8, k uniform in -8..8)."""
    calls = []
    bisect = patterns._bisect

    def recorded(ints, a, b, width):
        got = bisect(ints, a, b, width)
        calls.append((tuple(ints), a, b, width, got))
        return got

    monkeypatch.setattr(patterns, "_bisect", recorded)
    assert main(["verify", "--scale", "quick", "--seed", "0"]) == 0
    capsys.readouterr()
    for d in range(1, 7):
        patterns.summarize(patterns.run_length_pattern(d))
    rng = random.Random("exact:2331")
    for ell in (2, 3, 4):
        found = 0
        while found < 8:
            values = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(1 << ell))
            try:
                patterns.summarize(PatternFunctional(ell, values))
                found += 1
            except patterns.NoInteriorPeakError:
                pass
    return calls


def test_bisect_keeps_its_results_on_the_brackets_the_exact_layer_requests(monkeypatch, capsys):
    # 310 isolating brackets, each narrowed to 1e-24 and each equal to the
    # Fraction bisection.
    peaks = set()
    peak_point = patterns._peak_point

    def recorded(g):
        got = peak_point(g)
        peaks.add(got[0])
        return got

    monkeypatch.setattr(patterns, "_peak_point", recorded)
    calls = requested_brackets(monkeypatch, capsys)
    widths = [width for _, _, _, width, _ in calls]
    assert (len(calls), widths.count(Fraction(1, 2**16)), widths.count(Fraction(1, 10**24))) == (310, 0, 310)
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == (
        "b11daa88b347f56c7807a915808afdc79511050df1ea41dc412219d5e8c1d7e3"
    )
    for ints, a, b, width, got in calls:
        assert got == refine_root_oracle(Polynomial(ints), a, b, width)
    # When the search narrowed every bracket to 2^-16 first, it refined only
    # the winning one to 1e-24; those 137 calls gave these 109 results.
    winners = sorted({got for *_, got in calls if (got[0] + got[1]) / 2 in peaks})
    assert len(winners) == 109
    assert hashlib.sha256(repr(winners).encode()).hexdigest() == (
        "3d1e3beb6cddac906a1f4a6c73fde5ed0336e2d9c0262c4b2db736567062d012"
    )


@pytest.mark.parametrize(
    "a,b,width,root",
    [
        # 3/8 is a point of the third halving of (0, 1), the last one a
        # width of 1/8 asks for
        (0, 1, Fraction(1, 8), Fraction(3, 8)),
        # 3/4 = 1/3 + 5 * (2/3) / 8 on the bracket's own grid, not a dyadic one
        (Fraction(1, 3), 1, Fraction(1, 12), Fraction(3, 4)),
        # a point of the fourth halving only: the third leaves it inside a cell
        (0, 1, Fraction(1, 8), Fraction(5, 16)),
    ],
)
def test_a_root_on_the_last_grid_is_returned_exactly_only_when_the_grid_has_it(a, b, width, root):
    p = times([-root, 1], [2, 1])
    got = refine_root(p, a, b, width)
    assert got == refine_root_oracle(p, a, b, width)
    on_grid = ((root - a) / (b - a) * 8).denominator == 1
    assert (got == (root, root)) is on_grid


@pytest.mark.parametrize("width", [Fraction(1, 10**6), Fraction(1, 10**24)])
def test_a_flat_point_inside_the_bracket_is_stepped_over(width):
    # x^3 - 3x - 1 has one root in (0, 2), near 1.8794, and p'(1) = 0 at the
    # bracket's midpoint, where a Newton step has no direction.  The other
    # roots, near -1.532 and -0.347, lie outside.
    p = poly([-1, -3, 0, 1])
    got = refine_root(p, 0, 2, width)
    assert got == refine_root_oracle(p, 0, 2, width)
    assert Fraction(18793, 10000) < got[1] and got[0] < Fraction(18794, 10000)


@pytest.mark.parametrize("a,b", [(0, 1), (Fraction(1, 3), Fraction(2, 3))])
def test_a_bracket_already_narrower_than_the_width_is_returned_as_it_is(a, b):
    p = times([Fraction(-1, 2) + Fraction(1, 7), 1], [2, 1])  # root 5/14
    for width in (Fraction(b) - Fraction(a), Fraction(1)):
        assert refine_root(p, a, b, width) == (Fraction(a), Fraction(b))
