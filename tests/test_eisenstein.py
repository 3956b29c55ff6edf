import random
from fractions import Fraction
from math import gcd

import pytest

import cphi.eisenstein
from cphi.arith import divisors, is_squarefree
from cphi.characters import bernoulli_chi, eisenstein_sign, kronecker
from cphi.eisenstein import (
    eisenstein_coefficient_factored,
    eisenstein_profile,
    theta_eisenstein_series,
)
from cphi.eta_partition import eta_quotient_series
from cphi.qseries import QSeries
from cphi.theta import theta_series
from lemmas import eta_eisenstein_series, partition_eisenstein_series
from oracles import crop, eisenstein_coefficient, u_operator


def test_profile_shape():
    prefactor, signs = eisenstein_profile(35)
    assert prefactor == Fraction(-34) / bernoulli_chi(17, 35)
    assert tuple(signs) == (1, 5, 7, 35)
    assert all(sign == eisenstein_sign(d, 35) for d, sign in signs.items())
    with pytest.raises(ValueError):
        eisenstein_profile(1)


def test_constant_terms():
    assert theta_eisenstein_series(5, 3).coefficient(0) == 1
    assert theta_eisenstein_series(13, 0) == QSeries.one(0)
    for level in (5, 7, 13):
        for d in divisors(level):
            c0 = eta_eisenstein_series(level, d, 3).coefficient(0)
            assert c0 == (1 if d == level else 0)
            c0 = partition_eisenstein_series(level, d, 3).coefficient(0)
            assert c0 == (1 if d == level else 0)


def test_level5_eisenstein_equals_theta_series():
    # S_2(Gamma_0(5), chi_5) is trivial, so the Eisenstein part is everything
    assert theta_eisenstein_series(5, 200) == theta_series(5, 200)


def test_level5_eta_quotients_are_pure_eisenstein():
    for d in (1, 5):
        assert eta_eisenstein_series(5, d, 200) == eta_quotient_series(5, d, 200)


def test_level13_eisenstein_differs_from_theta():
    # a nonzero cusp component exists at level 13
    assert theta_eisenstein_series(13, 20) != theta_series(13, 20)


def test_divisor_sum_reassembles_theta_expansion():
    for level in (5, 7, 13, 35):
        n_max = 60
        total = QSeries.zero(n_max)
        for d in divisors(level):
            total = total + partition_eisenstein_series(level, d, n_max)
        assert total == theta_eisenstein_series(level, n_max), level


def test_u_operator_intertwining():
    # (N/d) * U(N/d) | eta-side series = partition-side series, exactly;
    # the N/d factor is absorbed by chi_{N/d}(0) at the constant term
    depth = 40
    for level in (5, 7, 13, 35):
        for d in divisors(level):
            m = level // d
            eta_side = eta_eisenstein_series(level, d, depth * m)
            lhs = u_operator(eta_side, m).scale(m)
            rhs = partition_eisenstein_series(level, d, depth)
            assert lhs == crop(rhs, lhs.trunc), (level, d)


def test_coefficient_routes_agree_exactly():
    rng = random.Random(101)
    for _ in range(100):
        level = rng.choice((5, 7, 11, 13, 35))
        n = rng.randint(1, 400)
        assert eisenstein_coefficient(level, n) == eisenstein_coefficient_factored(
            level, n
        ), (level, n)


@pytest.mark.parametrize("level", [55, 77, 119])
def test_coefficient_routes_agree_at_composite_levels(level):
    for n in range(1, 201):
        assert eisenstein_coefficient(level, n) == eisenstein_coefficient_factored(
            level, n
        ), (level, n)


def test_factored_sweep_reads_signs_from_the_profile(monkeypatch):
    # the profile checks every divisor's sign once; a sweep neither recomputes
    # a sign nor factorizes n more than once
    eisenstein_profile(35)
    signs, factorized = [], []
    sign, factorize = cphi.eisenstein.eisenstein_sign, cphi.eisenstein.factorize
    monkeypatch.setattr(cphi.eisenstein, "eisenstein_sign",
                        lambda d, level: signs.append(d) or sign(d, level))
    monkeypatch.setattr(cphi.eisenstein, "factorize",
                        lambda n: factorized.append(n) or factorize(n))
    for n in range(1, 601):
        eisenstein_coefficient_factored(35, n)
    assert signs == []
    assert factorized == list(range(1, 601))


def _assert_sieve_matches_oracle(level, n_max):
    coeffs = theta_eisenstein_series(level, n_max).coefficients()
    assert coeffs[0] == 1 and type(coeffs[0]) is int
    for n in range(1, n_max + 1):
        expected = QSeries(0, [eisenstein_coefficient(level, n)], 0).coefficient(0)
        # value and type (int where integral): the CLI prints each with str
        assert (coeffs[n], type(coeffs[n])) == (expected, type(expected)), (level, n)


def test_sieve_matches_per_n_oracle_at_every_level_to_129():
    for level in (n for n in range(5, 130) if gcd(n, 6) == 1 and is_squarefree(n)):
        _assert_sieve_matches_oracle(level, 100)


@pytest.mark.parametrize("level", [13, 35])
def test_sieve_matches_per_n_oracle_at_long_prefixes(level):
    _assert_sieve_matches_oracle(level, 2000)


def test_aggregate_coefficient_matches_series():
    for level in (5, 13):
        series = theta_eisenstein_series(level, 10)
        for n in range(1, 11):
            assert series.coefficient(n) == eisenstein_coefficient(level, n)


def test_positivity():
    for level in (5, 7, 11, 13, 35):
        for n in range(1, 501):
            assert eisenstein_coefficient(level, n) > 0, (level, n)


def test_growth_floor_level13():
    values = [
        eisenstein_coefficient(13, n) / Fraction(n**5) for n in range(50, 501)
    ]
    floor = min(values)
    assert floor > 0
    # the constant is reported by the acceptance suite; here it just exists


def test_bernoulli_prefactor_sign():
    for level in (5, 7, 11, 13):
        k = (level - 1) // 2
        combo = (
            kronecker(-8, level)
            * Fraction(1 - level)
            / bernoulli_chi(k, level)
            * level ** ((level - 3) // 2)
        )
        assert combo > 0


def test_integrality_diagnostic():
    # the aggregate coefficients are integral for the residual-free levels;
    # at level 13 non-integral values appear (cusp corrections are not
    # integral), which is why integrality is only a diagnostic
    for n in range(1, 30):
        assert eisenstein_coefficient(5, n).denominator == 1
    non_integral = [
        n for n in range(1, 30) if eisenstein_coefficient(13, n).denominator != 1
    ]
    assert non_integral, "expected non-integral aggregate coefficients at level 13"
