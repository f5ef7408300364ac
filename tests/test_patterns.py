"""Window functionals: decomposition, peak finding, the two variance routes."""

import functools
import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runslab import patterns
from runslab.patterns import (
    MAX_ANALYSIS_WINDOW,
    MAX_JUMP_WINDOW,
    NoInteriorPeakError,
    PatternFunctional,
    centered_product_sum,
    decompose_fluctuations,
    fluctuation_covariance,
    insertion_jump_moments,
    load_pattern,
    mean_rate,
    parse_pattern_text,
    run_length_pattern,
    run_length_reference_constants,
    runs_pattern,
    summarize,
    window_lag_covariance,
)
from runslab.polys import Polynomial, _cleared
from runslab.verify import VerifyContext, _random_pattern

from conftest import constant_pattern, format_pattern_text, real_roots_in_interval, save_pattern


# -- construction and the text format ----------------------------------------


def value_at(pat, window):
    """The oracle for the table's orientation: the window's cells, read left
    to right, are the binary digits of its index."""
    w = 0
    for bit in window:
        w = (w << 1) | (1 if bit else 0)
    return pat.values[w]


def test_window_table_orientation():
    pat = runs_pattern()
    assert value_at(pat, [0, 1]) == 1
    assert value_at(pat, [1, 0]) == 0
    assert value_at(pat, [1, 1]) == 0


def test_run_length_table():
    pat = run_length_pattern(2)
    assert pat.length == 4
    assert value_at(pat, [0, 1, 1, 0]) == 1
    assert sum(pat.values) == 1


def test_table_size_validation():
    with pytest.raises(ValueError):
        PatternFunctional(2, (0, 1, 0))
    with pytest.raises(ValueError):
        PatternFunctional(17, tuple([0] * (1 << 17)))
    with pytest.raises(ValueError):
        run_length_pattern(0)


def test_text_round_trip(tmp_path):
    pat = PatternFunctional(2, (Fraction(1, 3), -2, 0, Fraction(7, 2)))
    text = format_pattern_text(pat)
    assert parse_pattern_text(text) == pat
    path = tmp_path / "w.psi"
    save_pattern(pat, path)
    assert load_pattern(path) == pat


def test_text_format_shape():
    lines = format_pattern_text(runs_pattern()).strip().splitlines()
    assert lines[0] == "2"
    assert lines[1].split() == ["00", "0"]
    assert lines[2].split() == ["01", "1"]


@pytest.mark.parametrize(
    "text",
    [
        "",                      # no header
        "2\n00 0\n01 1\n10 0\n",  # missing row
        "2\n00 0\n01 1\n10 0\n11 x\n",  # bad value
        "2\n00 0\n10 1\n01 0\n11 0\n",  # out of order
        "1\n0 0\n00 1\n",        # wrong bitstring width
    ],
)
def test_malformed_text_rejected(text):
    with pytest.raises(ValueError):
        parse_pattern_text(text)


# -- mean rate and the exact decomposition -----------------------------------


def test_mean_rate_runs():
    # ascent probability (1-t) t
    assert mean_rate(runs_pattern()) == Polynomial([0, 1, -1])


def test_mean_rate_run_length_one():
    # isolated 1: t (1-t)^2
    assert mean_rate(run_length_pattern(1)) == Polynomial([0, 1, -2, 1])


def test_decomposition_keys_are_trimmed():
    dec = decompose_fluctuations(run_length_pattern(1))
    for alpha in dec.terms:
        assert alpha[0] == "1" and alpha[-1] == "1"
        assert len(alpha) <= 3


def test_runs_decomposition_terms():
    dec = decompose_fluctuations(runs_pattern())
    assert dec.terms["1"] == Polynomial([1, -2])   # g0' = 1 - 2t
    assert dec.terms["11"] == Polynomial([-1])
    assert set(dec.terms) == {"1", "11"}


def test_analysis_window_cap():
    too_wide = constant_pattern(0, length=MAX_ANALYSIS_WINDOW + 1)
    with pytest.raises(ValueError):
        decompose_fluctuations(too_wide)


# Polynomials as Fraction coefficient lists, ascending, for the oracles
# below; `poly` turns one into the Polynomial that the kernels return.


def add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    return out


def mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly(cs):
    den, ints = _cleared([Fraction(c) for c in cs])
    return Polynomial(ints, den)


T, ONE_MINUS_T = [0, 1], [1, -1]


def decompose_oracle(pattern):
    """The Fraction butterfly that the integer-coefficient one replaced."""
    ell = pattern.length
    coeffs = [[v] for v in pattern.values]
    for cell in range(ell):
        bit = 1 << (ell - 1 - cell)
        for mask in range(1 << ell):
            if not mask & bit:
                lo, hi = coeffs[mask], coeffs[mask | bit]
                coeffs[mask] = add(mul(ONE_MINUS_T, lo), mul(T, hi))
                coeffs[mask | bit] = add(hi, [-c for c in lo])
    terms = {}
    for mask in range(1, 1 << ell):
        if any(coeffs[mask]):
            alpha = format(mask, f"0{ell}b").strip("0")
            terms[alpha] = add(terms.get(alpha, []), coeffs[mask])
    return poly(coeffs[0]), {a: poly(p) for a, p in terms.items() if any(p)}


def mean_rate_oracle(pattern):
    ell = pattern.length
    out = []
    for w, v in enumerate(pattern.values):
        ones = bin(w).count("1")
        term = [v]
        for factor in [T] * ones + [ONE_MINUS_T] * (ell - ones):
            term = mul(term, factor)
        out = add(out, term)
    return poly(out)


window_values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=10**6),
    st.floats(-2, 2).map(Fraction),
)


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda ell: st.lists(window_values, min_size=1 << ell, max_size=1 << ell)
))
def test_integer_kernels_match_polynomial_oracles(values):
    pattern = PatternFunctional(len(values).bit_length() - 1, tuple(values))
    dec = decompose_fluctuations(pattern)
    mean, terms = decompose_oracle(pattern)
    assert dec.mean_rate == mean == mean_rate(pattern) == mean_rate_oracle(pattern)
    assert list(dec.terms) == list(terms)
    assert all(dec.terms[a] == terms[a] for a in terms)


rows = st.lists(st.integers(0, 1), min_size=4, max_size=10)
rationals = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=12)


@settings(deadline=None, max_examples=60)
@given(rows, rationals, st.sampled_from(["runs", "rl1", "random"]))
def test_reconstruction_identity(row, t, which):
    # the decomposition must reproduce the cyclic window sum exactly,
    # for every configuration and every rational t
    if which == "runs":
        pat = runs_pattern()
    elif which == "rl1":
        pat = run_length_pattern(1)
    else:
        pat = PatternFunctional(2, (Fraction(1, 2), -1, Fraction(3, 7), 2))
    n = len(row)
    direct = sum(
        value_at(pat, [row[(k + j) % n] for j in range(pat.length)]) for k in range(n)
    )
    dec = decompose_fluctuations(pat)
    rebuilt = n * mean_rate(pat)(t)
    for alpha, poly in dec.terms.items():
        rebuilt += poly(t) * centered_product_sum(row, alpha, t)
    assert rebuilt == direct


def test_centered_product_sum_single_site():
    row = [1, 0, 1, 1]
    t = Fraction(1, 4)
    assert centered_product_sum(row, "1", t) == sum(c - t for c in row)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**16 - 1), rationals)
def test_derivative_identity_all_length_two(table_bits, t):
    # g_1 = g0' holds coefficient by coefficient for every window table
    values = [Fraction((table_bits >> (4 * i)) % 16 - 8, 4) for i in range(4)]
    pat = PatternFunctional(2, tuple(values))
    dec = decompose_fluctuations(pat)
    g1 = dec.terms.get("1", Polynomial())
    assert g1 == mean_rate(pat).derivative()


# -- peak finding ------------------------------------------------------------


def test_peak_time_runs_is_exact_half():
    assert summarize(runs_pattern()).peak_time == 0.5


@pytest.mark.parametrize("d", range(1, 7))
def test_peak_time_run_length(d):
    assert summarize(run_length_pattern(d)).peak_time == pytest.approx(d / (d + 2), abs=1e-15)


def test_constant_pattern_has_no_peak():
    with pytest.raises(NoInteriorPeakError):
        summarize(constant_pattern(Fraction(3, 4), length=2))


def test_boundary_maximum_rejected():
    # 1 - t + t^2 peaks at both boundaries, interior point is a minimum
    pat = PatternFunctional(2, (1, 1, 0, 1))
    assert mean_rate(pat) == Polynomial([1, -1, 1])
    with pytest.raises(NoInteriorPeakError):
        summarize(pat)


def test_twin_peaks_rejected():
    # symmetric two-hump mean rate: no unique interior peak
    pat = _pattern_with_bernstein([0, 1, -1, 1, 0])
    with pytest.raises(NoInteriorPeakError):
        summarize(pat)


def test_degenerate_flat_peak_rejected():
    # (1-2t)^3 derivative: single critical point but zero curvature
    pat = _pattern_with_bernstein([0, 1, 0, 1, 0])
    with pytest.raises(NoInteriorPeakError):
        summarize(pat)


# The five ways to have no admissible peak, with the messages they raised
# while every window was decomposed before its peak was tested.
INADMISSIBLE = {
    "constant": ("mean rate is constant; no interior peak", lambda: constant_pattern(Fraction(3, 4), length=2)),
    "monotone": ("mean rate has no interior critical point", lambda: PatternFunctional(2, (0, 0, 1, 1))),
    "boundary": (
        "mean rate is maximized at the boundary, not inside (0, 1)",
        lambda: PatternFunctional(2, (1, 1, 0, 1)),
    ),
    "twin": (
        "mean rate has multiple near-maximal critical values; peak not unique",
        lambda: _pattern_with_bernstein([0, 1, -1, 1, 0]),
    ),
    "flat": ("degenerate curvature at the mean-rate peak", lambda: _pattern_with_bernstein([0, 1, 0, 1, 0])),
}


@pytest.mark.parametrize("case", sorted(INADMISSIBLE))
def test_inadmissible_window_is_rejected_before_decomposition(monkeypatch, case):
    message, build = INADMISSIBLE[case]

    def never(pattern):
        raise AssertionError("decomposed a window with no admissible peak")

    monkeypatch.setattr(patterns, "decompose_fluctuations", never)
    with pytest.raises(NoInteriorPeakError) as info:
        summarize(build())
    assert str(info.value) == message


def peak_point_oracle(g):
    """The peak search that refined every critical point to 1e-24 before it
    tested any: `_peak_point` must return, or raise, exactly what it did."""
    d1 = g.derivative()
    if d1.is_zero():
        raise NoInteriorPeakError("mean rate is constant; no interior peak")
    roots = real_roots_in_interval(d1, 0, 1, width=patterns._ROOT_WIDTH)
    if not roots:
        raise NoInteriorPeakError("mean rate has no interior critical point")
    points = [(a + b) / 2 for a, b in roots]
    vals = [g(pt) for pt in points]
    best = max(range(len(points)), key=vals.__getitem__)
    for i, v in enumerate(vals):
        if i != best and v > vals[best] - patterns._PEAK_MARGIN:
            raise NoInteriorPeakError(
                "mean rate has multiple near-maximal critical values; peak not unique"
            )
    if vals[best] <= max(g(Fraction(0)), g(Fraction(1))) + patterns._TINY:
        raise NoInteriorPeakError("mean rate is maximized at the boundary, not inside (0, 1)")
    curv = d1.derivative()(points[best])
    if curv >= -patterns._TINY:
        raise NoInteriorPeakError("degenerate curvature at the mean-rate peak")
    return points[best], curv


def peak_outcome(search, g):
    """(point, curvature), or the message of the NoInteriorPeakError raised."""
    try:
        return search(g)
    except NoInteriorPeakError as exc:
        return str(exc)


def counting_coarse_verdicts(monkeypatch):
    """Wrap `_coarse_peak`; the list records each call's outcome."""
    seen = []
    coarse_peak = patterns._coarse_peak

    def counted(g, brackets):
        try:
            best = coarse_peak(g, brackets)
        except NoInteriorPeakError:
            seen.append("raised")
            raise
        seen.append("undecided" if best is None else "decided")
        return best

    monkeypatch.setattr(patterns, "_coarse_peak", counted)
    return seen


@pytest.mark.parametrize("coarse", [patterns._COARSE_WIDTH, Fraction(1, 4)])
def test_peak_point_matches_oracle_on_verify_windows(monkeypatch, coarse):
    # verify --scale quick's seeded windows: 446 draws give its 100
    # admissible ones.  Quarter-width brackets leave many tests undecided,
    # so the fallback to 1e-24 brackets runs too.
    default = coarse == patterns._COARSE_WIDTH
    monkeypatch.setattr(patterns, "_COARSE_WIDTH", coarse)
    seen = counting_coarse_verdicts(monkeypatch)
    rng = np.random.default_rng(VerifyContext(base_seed=0).seed("random-windows"))
    for _ in range(446):
        g = mean_rate(_random_pattern(rng))
        assert peak_outcome(patterns._peak_point, g) == peak_outcome(peak_point_oracle, g)
    if default:
        # every window with a critical point is decided on coarse brackets,
        # 108 of them rejected there without refining a point
        assert (seen.count("decided"), seen.count("raised"), seen.count("undecided")) == (100, 108, 0)
    else:
        assert seen.count("undecided") > 20


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 4).flatmap(
        lambda ell: st.lists(window_values, min_size=1 << ell, max_size=1 << ell)
    ),
    st.sampled_from([Fraction(1, 2**16), Fraction(1, 2**6), Fraction(1, 2)]),
)
def test_peak_point_matches_oracle_on_random_windows(values, coarse):
    g = mean_rate(PatternFunctional(len(values).bit_length() - 1, tuple(values)))
    old = patterns._COARSE_WIDTH
    patterns._COARSE_WIDTH = coarse
    try:
        got = peak_outcome(patterns._peak_point, g)
    finally:
        patterns._COARSE_WIDTH = old
    assert got == peak_outcome(peak_point_oracle, g)


def test_boundary_rejection_refines_no_point(monkeypatch):
    widths = []
    bisect = patterns._bisect
    monkeypatch.setattr(patterns, "_bisect", lambda ints, a, b, w: widths.append(w) or bisect(ints, a, b, w))
    with pytest.raises(NoInteriorPeakError, match="boundary"):
        patterns._peak_point(mean_rate(PatternFunctional(2, (1, 1, 0, 1))))
    assert widths and patterns._ROOT_WIDTH not in widths


def test_window_lag_covariance_calls_each_lag_once_on_the_diagonal(monkeypatch):
    calls = []
    pair = patterns._pair_expectation
    monkeypatch.setattr(patterns, "_pair_expectation", lambda *a: calls.append(a[2:]) or pair(*a))
    pattern = run_length_pattern(2)  # 4 cells
    s, t = Fraction(1, 3), Fraction(2, 5)
    diagonal = window_lag_covariance(pattern, s, s)
    assert [c[0] for c in calls] == [0, 1, 2, 3]
    assert diagonal == window_lag_covariance_oracle(pattern, s, s)
    calls.clear()
    window_lag_covariance(pattern, s, t)
    assert len(calls) == 7  # lags -3..3: the fills swap sides with the sign


def test_mean_rate_is_the_decomposition_mean_rate():
    # summarize tests the peak of mean_rate before it decomposes
    rng = np.random.default_rng(31)
    for _ in range(3000):
        pattern = _random_pattern(rng)
        assert mean_rate(pattern) == decompose_fluctuations(pattern).mean_rate


def _pattern_with_bernstein(weights):
    """A window functional whose mean rate is the given Bernstein polynomial.

    Scoring w_k on every window with k ones makes the expectation
    sum_k comb(l, k) w_k t^k (1-t)^(l-k).
    """
    ell = len(weights) - 1
    values = [Fraction(weights[bin(mask).count("1")]) for mask in range(1 << ell)]
    return PatternFunctional(ell, tuple(values))


def test_bernstein_helper_mean_rate():
    pat = _pattern_with_bernstein([0, 1, 0])  # 2t(1-t)
    assert mean_rate(pat) == Polynomial([0, 2, -2])


# -- variance and jump routes ------------------------------------------------


def test_runs_summary_exact():
    s = summarize(runs_pattern())
    assert s.peak_time == 0.5
    assert s.peak_mean == 0.25
    assert s.peak_curvature == -2.0
    assert s.variance_rate == 1 / 16
    assert s.jump_variance == 0.5
    assert s.correction_scale == 0.5


def test_run_length_one_constants():
    s = summarize(run_length_pattern(1))
    assert abs(s.variance_rate - 76 / 729) < 1e-15
    assert abs(s.jump_variance - 80 / 81) < 1e-15
    assert abs(s.correction_scale**3 - 3200 / 6561) < 1e-14


# d = 7, 8: windows past the jump-enumeration cap, checked by one route
@pytest.mark.parametrize("d", range(1, 9))
def test_run_length_closed_forms(d):
    refs = run_length_reference_constants(d)
    s = summarize(run_length_pattern(d))
    assert s.peak_time == pytest.approx(float(refs["peak_time"]), abs=1e-12)
    assert s.peak_mean == pytest.approx(float(refs["peak_mean"]), abs=1e-12)
    assert s.peak_curvature == pytest.approx(float(refs["peak_curvature"]), abs=1e-12)
    assert s.variance_rate == pytest.approx(float(refs["variance_rate"]), abs=1e-12)
    assert s.jump_variance == pytest.approx(float(refs["jump_variance"]), abs=1e-12)
    assert s.correction_scale**3 == pytest.approx(
        float(refs["correction_scale_cubed"]), abs=1e-12
    )


def test_summary_is_shift_invariant():
    # adding a constant to every window value moves the mean rate but not
    # the peak location, fluctuations, or the correction scale
    pattern = run_length_pattern(1)
    base = summarize(pattern)
    shift = Fraction(5, 3)
    shifted = summarize(PatternFunctional(pattern.length, tuple(v + shift for v in pattern.values)))
    assert shifted.peak_time == base.peak_time
    assert shifted.variance_rate == base.variance_rate
    assert shifted.jump_variance == base.jump_variance
    assert shifted.correction_scale == base.correction_scale
    assert shifted.peak_mean == pytest.approx(base.peak_mean + 5 / 3, abs=1e-15)


def test_jump_moments_runs_at_half():
    mean, var = insertion_jump_moments(runs_pattern(), Fraction(1, 2))
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert var == pytest.approx(0.5, abs=1e-15)


def test_jump_moments_mean_tracks_derivative():
    # away from the peak the expected jump is g0'(t)
    t = Fraction(1, 4)
    mean, _ = insertion_jump_moments(runs_pattern(), t)
    assert mean == pytest.approx(float(mean_rate(runs_pattern()).derivative()(t)), abs=1e-12)


def test_jump_window_cap():
    wide = run_length_pattern(MAX_JUMP_WINDOW - 1)  # window just past the cap
    with pytest.raises(ValueError):
        insertion_jump_moments(wide, Fraction(1, 2))


def test_summary_carries_its_decomposition():
    pat = run_length_pattern(2)
    s = summarize(pat)
    dec = decompose_fluctuations(pat)
    assert s.decomposition.mean_rate == dec.mean_rate
    assert dict(s.decomposition.terms) == dict(dec.terms)
    # carried along, not part of the summary's value: it stays out of
    # equality, hashing and repr
    other = replace(s, decomposition=decompose_fluctuations(runs_pattern()))
    assert other == s and hash(other) == hash(s)
    assert "decomposition" not in repr(s)


@pytest.mark.parametrize(
    "route,quantity",
    [("fluctuation_covariance", "variance-rate"), ("_jump_variance_from_terms", "jump-variance")],
)
def test_route_disagreement_raises(monkeypatch, route, quantity):
    exact = getattr(patterns, route)
    monkeypatch.setattr(patterns, route, lambda *args: exact(*args) + Fraction(1, 10**6))
    with pytest.raises(ArithmeticError, match=f"{quantity} routes disagree"):
        summarize(run_length_pattern(1))


# -- two-time covariance routes ----------------------------------------------


@settings(deadline=None, max_examples=40)
@given(rationals, rationals)
def test_covariance_routes_agree_everywhere(s, t):
    # pattern-sum route vs joint-fill lag enumeration, exact rationals
    for pat in (runs_pattern(), run_length_pattern(1)):
        dec = decompose_fluctuations(pat)
        assert fluctuation_covariance(dec, s, t) == window_lag_covariance(pat, s, t)


def pair_expectation_oracle(values, ell, lag, tl, tr):
    """The Fraction loop that _pair_expectation's integer sum replaced."""
    joint = (
        (1 - max(tl, tr), max(Fraction(0), tr - tl)),
        (max(Fraction(0), tl - tr), min(tl, tr)),
    )
    total = Fraction(0)
    for w1, v1 in enumerate(values):
        for w2, v2 in enumerate(values):
            if v1 == 0 or v2 == 0:
                continue
            prob = Fraction(1)
            for c in range(lag, ell):
                prob *= joint[(w1 >> (ell - 1 - c)) & 1][(w2 >> (ell - 1 - (c - lag))) & 1]
            for c in range(0, min(lag, ell)):
                prob *= tl if (w1 >> (ell - 1 - c)) & 1 else 1 - tl
            for c in range(max(ell - lag, 0), ell):
                prob *= tr if (w2 >> (ell - 1 - c)) & 1 else 1 - tr
            total += v1 * v2 * prob
    return total


fill_times = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.builds(lambda k: Fraction(k, 2**80), st.integers(0, 2**80)),
)


@settings(deadline=None)
@given(st.data(), st.integers(1, 4), fill_times, fill_times, st.booleans())
def test_pair_expectation_matches_fraction_oracle(data, ell, tl, tr, same_time):
    values = data.draw(st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=50)),
        min_size=1 << ell, max_size=1 << ell,
    ))
    lag = data.draw(st.integers(0, ell + 1))
    if same_time:
        tr = tl
    den, ints = _cleared(values)
    got = patterns._pair_expectation(ints, ell, lag, tl, tr)
    m = math.lcm(tl.denominator, tr.denominator)
    assert type(got) is int
    assert Fraction(got, den * den * m ** (ell + min(lag, ell))) == (
        pair_expectation_oracle(values, ell, lag, tl, tr)
    )


def pair_expectation_loop(ints, ell, lag, tl, tr):
    """The double loop over pairs of nonzero window values that
    _pair_expectation's fold-and-butterfly replaced, on the same integers."""
    m = math.lcm(tl.denominator, tr.denominator)
    nl = tl.numerator * (m // tl.denominator)
    nr = tr.numerator * (m // tr.denominator)
    joint = (
        (m - max(nl, nr), max(0, nr - nl)),
        (max(0, nl - nr), min(nl, nr)),
    )
    nonzero = [(w, v) for w, v in enumerate(ints) if v]
    total = 0
    for w1, v1 in nonzero:
        for w2, v2 in nonzero:
            prob = 1
            for c in range(lag, ell):  # overlap: cells lag..ell-1 of the left window
                prob *= joint[(w1 >> (ell - 1 - c)) & 1][(w2 >> (ell - 1 - (c - lag))) & 1]
                if prob == 0:
                    break
            if prob == 0:
                continue
            for c in range(0, min(lag, ell)):  # cells only in the left window
                prob *= nl if (w1 >> (ell - 1 - c)) & 1 else m - nl
            for c in range(max(ell - lag, 0), ell):  # cells only in the right window
                prob *= nr if (w2 >> (ell - 1 - c)) & 1 else m - nr
            total += v1 * v2 * prob
    return total  # over m^(ell + min(lag, ell))


@pytest.mark.parametrize("ell", range(2, 9))
def test_pair_expectation_matches_pair_loop(ell):
    # Sparse run-length windows (the runs window at ell = 2) and a dense
    # random window, every lag and both orders of three fill pairs: apart,
    # equal, and with 2^80 denominators.  The loop is quadratic in the
    # window's values, so dense windows past 6 cells take the first pair.
    rng = np.random.default_rng(ell)
    sparse = runs_pattern() if ell == 2 else run_length_pattern(ell - 2)
    dense = [int(k) for k in rng.integers(-50, 51, 1 << ell)]
    fills = [
        (Fraction(1, 3), Fraction(2, 5)),
        (Fraction(3, 7), Fraction(3, 7)),
        (Fraction(2**79 + 12345, 2**80), Fraction(2**78 - 999, 2**80)),
    ]
    for ints in (_cleared(sparse.values)[1], dense):
        for s, t in fills if ints is not dense or ell <= 6 else fills[:1]:
            for tl, tr in ((s, t), (t, s)):
                for lag in range(ell + 1):
                    assert patterns._pair_expectation(ints, ell, lag, tl, tr) == (
                        pair_expectation_loop(ints, ell, lag, tl, tr)
                    )


def fluctuation_covariance_oracle(dec, s, t):
    """The Fraction sum that the integer `fluctuation_covariance` replaced."""
    base = min(s, t) * (1 - max(s, t))
    total = Fraction(0)
    for alpha, poly in dec.terms.items():
        total += poly(s) * poly(t) * base ** alpha.count("1")
    return total


def jump_variance_oracle(dec, t):
    """The Fraction sum that the integer `_jump_variance_from_terms` replaced."""
    q = t * (1 - t)
    total = Fraction(0)
    for alpha, poly in dec.terms.items():
        nu = alpha.count("1")
        total += nu * poly(t) ** 2 * q ** (nu - 1)
    return total


@functools.cache
def peak_midpoints():
    """Peaks of seeded random windows that are midpoints of 1e-24 brackets,
    not exact roots: the points summarize evaluates the terms at."""
    rng = np.random.default_rng(5)
    out = []
    while len(out) < 12:
        try:
            t0, _ = patterns._peak_point(mean_rate(_random_pattern(rng)))
        except NoInteriorPeakError:
            continue
        if t0.denominator > 10**24:
            out.append(t0)
    return out


term_times = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.integers(0, 11).map(lambda i: peak_midpoints()[i]),
)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda ell: st.lists(window_values, min_size=1 << ell, max_size=1 << ell)
    ),
    term_times,
    term_times,
    st.booleans(),
)
def test_integer_term_sums_match_fraction_oracles(values, s, t, same_time):
    if same_time:
        t = s
    dec = decompose_fluctuations(PatternFunctional(len(values).bit_length() - 1, tuple(values)))
    got = fluctuation_covariance(dec, s, t)
    assert type(got) is Fraction and got == fluctuation_covariance_oracle(dec, s, t)
    got = patterns._jump_variance_from_terms(dec, t)
    assert type(got) is Fraction and got == jump_variance_oracle(dec, t)


def window_lag_covariance_oracle(pattern, s, t):
    """The per-lag Fraction sum that `window_lag_covariance`'s one integer
    sum over den^2 * m^(2 ell) replaced."""
    s, t = Fraction(s), Fraction(t)
    ell = pattern.length

    def window_mean(x):
        return sum(
            v * x ** bin(w).count("1") * (1 - x) ** (ell - bin(w).count("1"))
            for w, v in enumerate(pattern.values)
        )

    den, ints = _cleared(pattern.values)
    m = math.lcm(s.denominator, t.denominator)
    pairs = Fraction(0)
    for j in range(-(ell - 1), ell):
        tl, tr = (s, t) if j >= 0 else (t, s)
        pairs += Fraction(patterns._pair_expectation(ints, ell, abs(j), tl, tr), m ** (ell + abs(j)))
    return pairs / (den * den) - (2 * ell - 1) * window_mean(s) * window_mean(t)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda ell: st.lists(window_values, min_size=1 << ell, max_size=1 << ell)
    ),
    term_times,
    term_times,
    st.booleans(),
)
def test_window_lag_covariance_matches_per_lag_fraction_sum(values, s, t, same_time):
    # s == t and s != t; peak midpoints put denominators above 10^24 in m
    if same_time:
        t = s
    pattern = PatternFunctional(len(values).bit_length() - 1, tuple(values))
    got = window_lag_covariance(pattern, s, t)
    assert type(got) is Fraction and got == window_lag_covariance_oracle(pattern, s, t)


@pytest.mark.parametrize("d", range(1, 5))  # windows of 3 to 6 cells
def test_window_lag_covariance_matches_oracle_at_the_peak(d):
    pattern = run_length_pattern(d)
    t0, _ = patterns._peak_point(mean_rate(pattern))
    for s in peak_midpoints()[:3]:
        for a, b in ((t0, t0), (s, t0), (t0, s)):
            assert window_lag_covariance(pattern, a, b) == window_lag_covariance_oracle(pattern, a, b)


def test_covariance_symmetric_and_diagonal():
    dec = decompose_fluctuations(run_length_pattern(1))
    s, t = Fraction(1, 3), Fraction(2, 3)
    assert fluctuation_covariance(dec, s, t) == fluctuation_covariance(dec, t, s)
    assert fluctuation_covariance(dec, s, s) > 0


def test_runs_covariance_closed_form():
    # s(1-t)(1-s-2t+3st) for s <= t
    dec = decompose_fluctuations(runs_pattern())
    for num_s in range(1, 10):
        for num_t in range(num_s, 10):
            s, t = Fraction(num_s, 10), Fraction(num_t, 10)
            closed = s * (1 - t) * (1 - s - 2 * t + 3 * s * t)
            assert fluctuation_covariance(dec, s, t) == closed


# -- golden digest of summaries ----------------------------------------------


def test_random_window_summaries_match_golden_digest():
    # SHA-256 over 200 seeded random windows of verify's kind: the six
    # summary floats, or the type of the exception.  Recorded while every
    # evaluation, bisection and pair expectation ran in Fraction arithmetic.
    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()
    for _ in range(200):
        try:
            s = summarize(_random_pattern(rng))
        except ValueError as exc:  # NoInteriorPeakError among them
            record = type(exc).__name__
        except ArithmeticError as exc:
            record = type(exc).__name__
        else:
            record = repr((
                s.peak_time, s.peak_mean, s.peak_curvature,
                s.variance_rate, s.jump_variance, s.correction_scale,
            ))
        digest.update((record + "\n").encode())
    assert digest.hexdigest() == (
        "245d31aa21c2896a17d17d95b5f5fc3ec91bcc0af04575994bbe3e7cc624f9c6"
    )
