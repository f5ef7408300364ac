"""Exact counting layer: pmf vs enumeration, closed-form moments, maxima."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runslab import combinatorics
from runslab.combinatorics import (
    MAX_DP_CELLS,
    MAX_ORDER_CELLS,
    MAX_PMF_CELLS,
    MAX_SUBSET_DP_CELLS,
    brute_force_max_pmf,
    count_runs,
    max_pmf_gap_dp,
    max_pmf_subset_dp,
    mean_runs_discrete,
    mean_runs_time,
    run_count_pmf,
    run_count_pmf_enumerated,
    var_runs_discrete,
    var_runs_time,
)
from conftest import brute_force_pattern_moments
from runslab.evolve import SimConfig, run_sweep
from runslab.patterns import run_length_pattern, runs_pattern


# -- run counting ------------------------------------------------------------


def test_count_runs_basics():
    assert count_runs([]) == 0
    assert count_runs([0, 0, 0]) == 0
    assert count_runs([1, 1, 1]) == 1
    assert count_runs([1, 0, 1, 1, 0, 1]) == 3


def test_count_runs_cyclic_wraps():
    assert count_runs([1, 0, 1], cyclic=True) == 1  # wraps into one arc
    assert count_runs([1, 0, 1]) == 2
    assert count_runs([1, 1, 1], cyclic=True) == 0  # full circle, no ascent


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_cyclic_and_linear_counts_within_one(cells):
    assert abs(count_runs(cells) - count_runs(cells, cyclic=True)) <= 1


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_count_runs_complement_of_reversal(cells):
    # runs of 1s in the reversal = runs of 1s, and 0-runs relate by +-1
    assert count_runs(cells[::-1]) == count_runs(cells)


# -- the fixed-m distribution ------------------------------------------------


def test_pmf_small_case_by_hand():
    # n=4, m=2: six configurations; 1100/0110/0011 one run, 1010/1001/0101 two
    pmf = run_count_pmf(4, 2)
    assert pmf.probs[1] == Fraction(1, 2)
    assert pmf.probs[2] == Fraction(1, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_pmf_matches_enumeration(n):
    for m in range(n + 1):
        assert run_count_pmf(n, m).probs == run_count_pmf_enumerated(n, m).probs


def test_pmf_sums_to_one():
    for n in range(1, 10):
        for m in range(n + 1):
            assert sum(run_count_pmf(n, m).probs.values()) == 1


def test_closed_form_moments_match_pmf():
    for n in range(1, 9):
        for m in range(n + 1):
            pmf = run_count_pmf(n, m)
            assert pmf.mean() == mean_runs_discrete(n, m)
            assert pmf.variance() == var_runs_discrete(n, m)


def test_discrete_moment_examples():
    assert mean_runs_discrete(4, 2) == Fraction(3, 2)
    assert var_runs_discrete(4, 2) == Fraction(1, 4)
    assert mean_runs_discrete(5, 0) == 0
    assert mean_runs_discrete(5, 5) == 1
    assert var_runs_discrete(5, 5) == 0


def test_invalid_ranges_rejected():
    with pytest.raises(ValueError):
        run_count_pmf(0, 0)
    with pytest.raises(ValueError):
        run_count_pmf(4, 5)
    with pytest.raises(ValueError):
        mean_runs_discrete(3, -1)


# -- randomized fill times ---------------------------------------------------


@pytest.mark.parametrize("t", [Fraction(1, 5), Fraction(1, 2), Fraction(3, 4)])
def test_time_moments_are_binomial_mixtures(t):
    for n in range(1, 9):
        mix_mean = Fraction(0)
        mix_second = Fraction(0)
        for m in range(n + 1):
            w = math.comb(n, m) * t**m * (1 - t) ** (n - m)
            mu = mean_runs_discrete(n, m)
            mix_mean += w * mu
            mix_second += w * (var_runs_discrete(n, m) + mu * mu)
        assert mix_mean == mean_runs_time(n, t)
        assert mix_second - mix_mean**2 == var_runs_time(n, t)


def test_time_variance_single_cell_is_bernoulli():
    # the adjacent-pair closed form does not apply at n=1
    t = Fraction(3, 4)
    assert var_runs_time(1, t) == t * (1 - t)
    assert var_runs_time(1, Fraction(1, 2)) == Fraction(1, 4)


def test_time_variance_at_half():
    # n/16 + 1/16 at t = 1/2
    for n in range(2, 12):
        assert var_runs_time(n, Fraction(1, 2)) == Fraction(n, 16) + Fraction(1, 16)


# -- maximum over the insertion history --------------------------------------
#
# Plain-Python oracles for the two numpy routes: a per-order loop over an
# occupancy bitmask, and a subset DP that keeps one dict per subset.


def max_runs_over_order(order, n):
    occ = 0
    x = 0
    best = 0
    for cell in order:
        d = 1
        if cell > 0 and (occ >> (cell - 1)) & 1:
            d -= 1
        if cell < n - 1 and (occ >> (cell + 1)) & 1:
            d -= 1
        occ |= 1 << cell
        x += d
        best = max(best, x)
    return best


def brute_force_max_pmf_loop(n):
    counts = {}
    for order in itertools.permutations(range(n)):
        h = max_runs_over_order(order, n)
        counts[h] = counts.get(h, 0) + 1
    total = math.factorial(n)
    return {h: Fraction(c, total) for h, c in sorted(counts.items())}


def max_pmf_subset_dp_dict(n):
    runs_of = [count_runs([(s >> j) & 1 for j in range(n)]) for s in range(1 << n)]
    # layer[s][h] = insertion orders of the cells of s with running max h
    layer = {0: {0: 1}}
    for _ in range(n):
        nxt = {}
        for s, hist in layer.items():
            for j in range(n):
                if s >> j & 1:
                    continue
                s2 = s | 1 << j
                dest = nxt.setdefault(s2, {})
                for h, c in hist.items():
                    h2 = max(h, runs_of[s2])
                    dest[h2] = dest.get(h2, 0) + c
        layer = nxt
    (final,) = layer.values()
    total = math.factorial(n)
    return {h: Fraction(c, total) for h, c in sorted(final.items())}


@pytest.mark.parametrize("n", range(1, 15))
def test_subset_dp_matches_dict_oracle(n):
    # every n up to 14, so exhaustive rather than sampled; keys in order too
    got = max_pmf_subset_dp(n)
    want = max_pmf_subset_dp_dict(n)
    assert got == want and list(got) == list(want)


@pytest.mark.parametrize("n", range(1, 9))
def test_brute_force_matches_loop_oracle(n):
    got = brute_force_max_pmf(n)
    want = brute_force_max_pmf_loop(n)
    assert got == want and list(got) == list(want)


@pytest.mark.parametrize(
    "func,n",
    [
        (max_pmf_subset_dp, MAX_SUBSET_DP_CELLS),
        (brute_force_max_pmf, 9),
        (brute_force_max_pmf, 10),
        (max_pmf_gap_dp, MAX_DP_CELLS),
    ],
)
def test_exact_max_tables_stay_in_memory_budget(func, n):
    # two DP layers at a time; one block of 8! orders at a time
    tracemalloc.start()
    try:
        func(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_brute_force_at_the_order_cap_matches_both_dps():
    # n = 10 walks 90 blocks of 8! orders; n <= 8 takes a single block
    assert brute_force_max_pmf(10) == max_pmf_subset_dp(10) == max_pmf_gap_dp(10)


def test_permutation_columns_are_every_order():
    for k in range(1, 7):
        cols = combinatorics._permutation_columns(k)
        assert cols.dtype == np.int8
        assert [tuple(c) for c in cols.T] == list(itertools.permutations(range(k)))


def test_brute_force_budget_enforced():
    with pytest.raises(ValueError, match="capped"):
        brute_force_max_pmf(MAX_ORDER_CELLS + 1)


def test_max_pmf_three_cells():
    assert brute_force_max_pmf(3) == {1: Fraction(2, 3), 2: Fraction(1, 3)}


def test_max_mean_three_cells():
    pmf = brute_force_max_pmf(3)
    assert sum(k * p for k, p in pmf.items()) == Fraction(4, 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_subset_dp_matches_brute_force(n):
    assert max_pmf_subset_dp(n) == brute_force_max_pmf(n)


def test_max_pmf_is_a_distribution():
    for n in (5, 10, 13):
        pmf = max_pmf_subset_dp(n)
        assert sum(pmf.values()) == 1
        assert all(1 <= k <= (n + 1) // 2 for k in pmf)


def test_max_mean_thirteen_frozen():
    # enumeration result pinned; the published simulation value is 4.22
    for dp in (max_pmf_subset_dp, max_pmf_gap_dp):
        pmf = dp(13)
        assert sum(k * p for k, p in pmf.items()) == Fraction(82491109, 19459440)


def test_max_dominates_final_count():
    # max over history >= number of runs at full occupancy (which is 1)
    for n in range(1, 8):
        assert min(max_pmf_subset_dp(n)) >= 1


def test_subset_dp_budget_enforced():
    with pytest.raises(ValueError):
        max_pmf_subset_dp(40)
    with pytest.raises(ValueError, match="capped"):
        max_pmf_subset_dp(MAX_SUBSET_DP_CELLS + 1)


@pytest.mark.parametrize("n", range(1, MAX_SUBSET_DP_CELLS + 1))
def test_gap_dp_matches_subset_dp(n):
    # every n the oracle takes; keys in order too
    got = max_pmf_gap_dp(n)
    want = max_pmf_subset_dp(n)
    assert got == want and list(got) == list(want)


@pytest.mark.parametrize("n", range(1, 10))
def test_gap_dp_matches_brute_force(n):
    assert max_pmf_gap_dp(n) == brute_force_max_pmf(n)


@pytest.mark.parametrize("n", range(MAX_SUBSET_DP_CELLS + 1, MAX_DP_CELLS + 1))
def test_gap_dp_past_the_oracle_matches_a_sweep(n):
    # No exact oracle reaches these n: the pmf must be a distribution on
    # 1..ceil(n/2), and its mean must agree with a seeded sweep, whose
    # 200,000 reps take the batch insertion-order draw.
    pmf = max_pmf_gap_dp(n)
    assert sum(pmf.values()) == 1
    assert set(pmf) <= set(range(1, (n + 1) // 2 + 1))
    exact = float(sum(k * p for k, p in pmf.items()))
    res = run_sweep(SimConfig(model="runs-linear", n=n, reps=200_000, base_seed=n))
    assert abs(res.max_stats.mean - exact) < 4 * res.max_stats.se()


def test_run_count_pmf_cap():
    # At the cap the largest denominator, C(n, n/2), still prints as text.
    assert len(str(math.comb(MAX_PMF_CELLS, MAX_PMF_CELLS // 2))) == 3009
    pmf = run_count_pmf(MAX_PMF_CELLS, 3)
    assert sum(pmf.probs.values()) == 1 and pmf.mean() == mean_runs_discrete(MAX_PMF_CELLS, 3)
    with pytest.raises(ValueError, match="capped"):
        run_count_pmf(MAX_PMF_CELLS + 1, 3)


def test_gap_dp_budget_enforced():
    with pytest.raises(ValueError):
        max_pmf_gap_dp(0)
    with pytest.raises(ValueError, match="capped"):
        max_pmf_gap_dp(MAX_DP_CELLS + 1)


# -- exhaustive pattern moments ----------------------------------------------


def test_pattern_moments_match_runs_closed_form():
    # the ascent window reproduces the cyclic run count; for 0 < m < n the
    # cyclic and linear counts have the same mean shift of zero only in the
    # cyclic convention, so compare within the cyclic world
    pat = runs_pattern()
    for n in (4, 6):
        for m in range(n + 1):
            got = brute_force_pattern_moments(pat, n, m, cyclic=True)
            ref = run_count_pmf_enumerated(n, m, cyclic=True)
            assert got.mean == ref.mean()
            assert got.variance == ref.variance()


def test_pattern_moments_uniform_window_is_constant():
    # a window that always scores 1 sums to n in cyclic mode, variance 0
    from conftest import constant_pattern

    pat = constant_pattern(1, length=2)
    res = brute_force_pattern_moments(pat, 5, 3, cyclic=True)
    assert res.mean == 5
    assert res.variance == 0


def test_pattern_moments_run_length_one_small():
    # isolated 1s among n=4, m=2, cyclic: 1010 and 0101 score 2, the four
    # adjacent pairs score 0, so the mean is 4/6 and E[X^2] = 8/6
    pat = run_length_pattern(1)
    res = brute_force_pattern_moments(pat, 4, 2, cyclic=True)
    assert res.mean == Fraction(2, 3)
    assert res.variance == Fraction(8, 9)


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 7), st.data())
def test_pattern_moments_nonnegative_variance(n, data):
    m = data.draw(st.integers(0, n))
    res = brute_force_pattern_moments(run_length_pattern(1), n, m, cyclic=True)
    assert res.variance >= 0
