"""Window functionals: decomposition, peak finding, the two variance routes."""

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
    constant_pattern,
    decompose_fluctuations,
    fluctuation_covariance,
    format_pattern_text,
    insertion_jump_moments,
    load_pattern,
    mean_rate,
    parse_pattern_text,
    run_length_pattern,
    run_length_reference_constants,
    runs_pattern,
    save_pattern,
    summarize,
    window_lag_covariance,
)
from runslab.polys import Polynomial, _cleared
from runslab.verify import _random_pattern


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


def decompose_oracle(pattern):
    """The Polynomial butterfly that the integer-coefficient one replaced."""
    ell = pattern.length
    t = Polynomial.identity()
    coeffs = [Polynomial.constant(v) for v in pattern.values]
    for cell in range(ell):
        bit = 1 << (ell - 1 - cell)
        for mask in range(1 << ell):
            if not mask & bit:
                lo, hi = coeffs[mask], coeffs[mask | bit]
                coeffs[mask] = (1 - t) * lo + t * hi
                coeffs[mask | bit] = hi - lo
    terms = {}
    for mask in range(1, 1 << ell):
        if coeffs[mask]:
            alpha = format(mask, f"0{ell}b").strip("0")
            terms[alpha] = terms.get(alpha, Polynomial()) + coeffs[mask]
    return coeffs[0], {a: p for a, p in terms.items() if p}


def mean_rate_oracle(pattern):
    ell = pattern.length
    t = Polynomial.identity()
    out = Polynomial()
    for w, v in enumerate(pattern.values):
        ones = bin(w).count("1")
        out = out + v * t**ones * (1 - t) ** (ell - ones)
    return out


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
        assert fluctuation_covariance(pat, s, t) == window_lag_covariance(pat, s, t)


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
    assert type(got) is Fraction
    assert got / (den * den) == pair_expectation_oracle(values, ell, lag, tl, tr)


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
    return Fraction(total, m ** (ell + min(lag, ell)))


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


def test_covariance_symmetric_and_diagonal():
    pat = run_length_pattern(1)
    s, t = Fraction(1, 3), Fraction(2, 3)
    assert fluctuation_covariance(pat, s, t) == fluctuation_covariance(pat, t, s)
    assert fluctuation_covariance(pat, s, s) > 0


def test_runs_covariance_closed_form():
    # s(1-t)(1-s-2t+3st) for s <= t
    pat = runs_pattern()
    for num_s in range(1, 10):
        for num_t in range(num_s, 10):
            s, t = Fraction(num_s, 10), Fraction(num_t, 10)
            closed = s * (1 - t) * (1 - s - 2 * t + 3 * s * t)
            assert fluctuation_covariance(pat, s, t) == closed


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
