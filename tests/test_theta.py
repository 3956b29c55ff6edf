from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest

import cphi.qseries
import cphi.theta
from cphi.arith import divisors, is_squarefree
from cphi.eta_partition import partition_count
from cphi.gauss_sums import gauss_sum_closed
from cphi.radicals import QuarterRadical
from cphi.theta import (
    MILLER_LEVEL,
    MillerPowers,
    coset_counts_dp,
    cphi_series,
    lane_bits,
    theta_cusp_constant,
    theta_series,
)
from oracles import (
    cphi_constant_term,
    miller_lane_lists,
    theta_counts_dfs,
    theta_series_half_dp,
    theta_series_lane_dp,
    theta_series_mod_n,
)


def test_theta_series_small_values():
    s = theta_series(5, 1)
    assert s.coefficients() == [1, 20]
    assert theta_series(1, 6) .coefficients() == [1, 0, 0, 0, 0, 0, 0]


def test_theta_first_coefficient_is_n_squared_minus_n():
    for level in (5, 7, 11, 13):
        assert theta_series(level, 1).coefficient(1) == level * level - level


def test_theta_dp_matches_dfs_enumeration():
    for level, n_max in ((5, 30), (7, 30), (11, 6), (13, 4)):
        dp = theta_series(level, n_max).coefficients()
        dfs = theta_counts_dfs(level - 1, n_max)
        assert dp == dfs, level


@pytest.mark.parametrize(
    "level,n_max",
    [(1, 200), (5, 200), (7, 200), (11, 200), (13, 200), (17, 160), (19, 140),
     (23, 120), (29, 100), (31, 80), (35, 60), (13, 400)],
)
def test_theta_matches_lane_dp(level, n_max):
    new = theta_series(level, n_max).coefficients()
    old = theta_series_lane_dp(level, n_max).coefficients()
    assert len(new) == len(old) == n_max + 1
    for n, (a, b) in enumerate(zip(new, old)):
        assert a == b, (level, n)


LEVELS = [n for n in range(1, 36) if gcd(n, 6) == 1 and is_squarefree(n)]


def coset_counts_miller(level: int, n_max: int) -> list:
    """Miller's counts from a fresh MillerPowers, as theta_series reads them."""
    return MillerPowers(level).counts(n_max)


def coset_lanes(theta: list, level: int) -> list:
    """sum_m theta(j - 2N m^2) over m in Z: the counts both routes give."""
    step = 2 * level
    return [sum(theta[j - step * m * m] for m in range(-isqrt(j // step), isqrt(j // step) + 1))
            for j in range(len(theta))]


@pytest.mark.parametrize("level", LEVELS + [55, 65, 77])
def test_theta_matches_both_oracles_where_the_coset_terms_enter(level):
    # the lanes hold theta * sum_m q^(2N m^2): m = 1 enters at n = 2N, m = 2 at
    # 8N.  The oracles run once at 8N+1; their coefficients do not depend on
    # the truncation, while theta_series' lane width and entry range do.  Both
    # routes run at every level, whichever one theta_series takes there.
    top = 8 * level + 1
    half = theta_series_half_dp(level, top).coefficients()
    assert theta_series_mod_n(level, top).coefficients() == half
    if level < 55:  # the full-length lane DP needs minutes at the composite levels
        assert theta_series_lane_dp(level, top).coefficients() == half
    lanes = coset_lanes(half, level)
    for n in (0, 1, 2 * level - 1, 2 * level, 2 * level + 1, 8 * level, top):
        assert theta_series(level, n).coefficients() == half[: n + 1], (level, n)
        assert coset_counts_dp(level, n) == lanes[: n + 1], (level, n)
        assert coset_counts_miller(level, n) == lanes[: n + 1], (level, n)


def test_route_is_chosen_by_level_alone(monkeypatch):
    # a route that raises shows which one theta_series called; an empty store
    # makes it compute
    def refuse(level, *args):
        raise LookupError(level)

    for level in (11, MILLER_LEVEL):
        taken = "MillerPowers" if level >= MILLER_LEVEL else "coset_counts_dp"
        monkeypatch.setattr(cphi.qseries, "_STORES", {})
        monkeypatch.setattr(cphi.theta, taken, refuse)
        with pytest.raises(LookupError):
            theta_series.__wrapped__(level, 30)
        monkeypatch.undo()
    assert MILLER_LEVEL == 13


@lru_cache(maxsize=None)
def _ball_points(dim: int, budget: int) -> int:
    """#{y in Z^dim : |y|^2 <= budget}, entry by entry."""
    if dim == 0:
        return 1
    return sum(_ball_points(dim - 1, budget - u * u)
               for u in range(-isqrt(budget), isqrt(budget) + 1))


@pytest.mark.parametrize("level", LEVELS + [55, 65, 77])
def test_lane_bits_hold_every_vector_of_norm_at_most_2n(level):
    for n in list(range(13)) + [40, 100]:
        assert lane_bits(level, n) >= _ball_points(level, 2 * n).bit_length(), (level, n)


@pytest.mark.parametrize("level", LEVELS + [55, 65, 77])
def test_lane_bits_never_wider_than_the_entry_box(level):
    # the width the mod-N DP used: N entries in [-v, v]
    for n in list(range(60)) + [200, 600, 1600, 5000]:
        box = level * (2 * isqrt(2 * n) + 1).bit_length()
        assert lane_bits(level, n) % 8 == 0
        assert lane_bits(level, n) <= -(-box // 8) * 8, (level, n)


@pytest.mark.parametrize("level,n_max", [(5, 120), (13, 60), (35, 40)])
def test_theta_fails_one_byte_below_the_largest_lane(monkeypatch, level, n_max):
    # the DP's join, lane j, counts y with sum y = 0 mod 2N and |y|^2 = 2j, that
    # is sum_m theta(j - 2N m^2) over m in Z; one byte below its largest value,
    # a lane overflows and the counts go wrong
    lanes = coset_lanes(theta_series_mod_n(level, n_max).coefficients(), level)
    narrow = -(-max(lanes).bit_length() // 8) * 8 - 8
    assert narrow < lane_bits(level, n_max)
    assert coset_counts_dp(level, n_max) == lanes
    monkeypatch.setattr(cphi.theta, "lane_bits", lambda level, n_max: narrow)
    assert coset_counts_dp(level, n_max) != lanes


@pytest.mark.parametrize("level,n_max", [(17, 60), (35, 40), (77, 30)])
def test_miller_fails_one_byte_below_the_largest_accumulator_lane(monkeypatch, level, n_max):
    # Miller's accumulators hold (N+1)m^2 - s times g, unfolded over lanes
    # 0..2N-2; one byte below their largest lane, a carry crosses the fold
    # and the counts go wrong
    g, top = miller_lane_lists(level, n_max)
    lanes = [g[2 * j][0] for j in range(n_max + 1)]
    assert lanes == coset_lanes(theta_series_mod_n(level, n_max).coefficients(), level)
    narrow = -(-top.bit_length() // 8) * 8 - 8
    assert narrow < cphi.theta.accumulator_bits(level, n_max)
    assert coset_counts_miller(level, n_max) == lanes
    monkeypatch.setattr(cphi.theta, "accumulator_bits", lambda level, n_max: narrow)
    assert coset_counts_miller(level, n_max) != lanes
    monkeypatch.setattr(cphi.theta, "accumulator_bits", lambda level, n_max: narrow + 8)
    assert coset_counts_miller(level, n_max) == lanes


@pytest.mark.parametrize("level,ladder", [(13, (20, 60, 40, 100)), (35, (10, 30, 50))])
def test_miller_continues_across_a_width_change(monkeypatch, level, ladder):
    # each rung's width holds its own largest accumulator lane and no more, so
    # a longer rung must rewrite the held g_s at its wider lanes; one byte
    # narrower, the counts go wrong
    top = max(ladder)
    lanes = coset_lanes(theta_series_mod_n(level, top).coefficients(), level)
    widths = {n: -(-miller_lane_lists(level, n)[1].bit_length() // 8) * 8 for n in ladder}
    assert len(set(widths.values())) > 1
    for narrower, equal in ((0, True), (8, False)):
        monkeypatch.setattr(cphi.theta, "accumulator_bits", lambda level, n: widths[n] - narrower)
        powers = MillerPowers(level)
        try:
            got = [powers.counts(n) == lanes[: n + 1] for n in ladder]
        except OverflowError:  # a wrong g_s no longer fits its lanes at the rewrite
            got = [False]
        assert all(got) if equal else not all(got), (narrower, got)


@pytest.mark.parametrize("level,n_max", [(5, 1600), (13, 600), (35, 200)])
def test_theta_matches_half_dp_at_workload_sizes(level, n_max):
    new = theta_series(level, n_max).coefficients()
    assert new == theta_series_half_dp(level, n_max).coefficients()


@pytest.mark.parametrize("level", [55, 65, 77])
def test_theta_matches_half_dp_at_composite_levels(level):
    assert theta_series(level, 40).coefficients() == theta_series_half_dp(level, 40).coefficients()


def test_theta_rejects_negative_truncation():
    with pytest.raises(ValueError):
        theta_series(5, -1)


def test_theta_coefficients_nonnegative_with_unit_constant():
    for level in (5, 7, 11, 13):
        coeffs = theta_series(level, 40).coefficients()
        assert coeffs[0] == 1
        assert all(isinstance(c, int) and c >= 0 for c in coeffs)


def test_theta_rejects_bad_level():
    with pytest.raises(ValueError):
        theta_series(15, 10)
    with pytest.raises(ValueError):
        theta_series(9, 10)
    with pytest.raises(ValueError):
        theta_series(50, 10)


def test_cphi_values():
    for level in (5, 7, 11, 13):
        s = cphi_series(level, 2)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == level * level
    assert cphi_series(5, 2).coefficient(2) == 150  # 5 P(9) = 150
    assert partition_count(9) == 30


def test_cphi_level_one_is_partition_function():
    s = cphi_series(1, 50)
    assert s.coefficients() == [partition_count(n) for n in range(51)]


def test_cphi_coefficients_nonnegative_integers():
    for level, n_max in ((5, 200), (7, 200), (11, 200), (13, 200)):
        coeffs = cphi_series(level, n_max).coefficients()
        assert all(isinstance(c, int) and c >= 0 for c in coeffs)


def test_theta_cusp_constant_values():
    assert theta_cusp_constant(5, 5) == QuarterRadical.one()  # i^(-12)
    assert theta_cusp_constant(5, 1) == QuarterRadical(Fraction(-1, 5), 0, 5)
    with pytest.raises(ValueError):
        theta_cusp_constant(5, 2)


def test_theta_cusp_constant_two_routes():
    # i^((1-Nd)/2) sqrt(d/N) = (-i/d)^((N-1)/2) G_{N-1}(1,d) / sqrt(N)
    for level in (5, 7, 11, 13, 35):
        for d in divisors(level):
            k = (level - 1) // 2
            route2 = (
                QuarterRadical(1, (3 * k) % 4)  # (-i)^k
                * Fraction(1, d**k)
                * gauss_sum_closed(level, 1, d)
                * QuarterRadical(Fraction(1, level), 0, level)  # 1/sqrt(N)
            )
            assert theta_cusp_constant(level, d) == route2, (level, d)


@pytest.mark.parametrize(
    "level,n_max",
    [(1, 40), (5, 40), (7, 40), (11, 30), (13, 30), (23, 25), (35, 20), (55, 30), (65, 30), (77, 30)],
)
def test_cphi_matches_andrews_constant_term(level, n_max):
    # the independent test of cphi: b is cphi - main, so the main identity
    # holds by construction and the report does not check it
    assert cphi_series(level, n_max).coefficients() == cphi_constant_term(level, n_max)
