import random
from fractions import Fraction
from math import gcd

import pytest

from cphi import arith, characters, eisenstein
from cphi.arith import divisors, is_squarefree
from cphi.characters import (
    BERNOULLI_INDEX_BOUND,
    bernoulli_chi,
    chi,
    context,
    eisenstein_sign,
    epsilon_c,
    kronecker,
    sigma_twisted,
)
from cphi.radicals import QuarterRadical
from lemmas import eisenstein_sign_by_unit, gauss_w, unit_a
from oracles import (
    BERNOULLI_MINUS,
    bernoulli_chi_polynomial_route,
    bernoulli_chi_series_route,
    bernoulli_chi_term_division,
    classical_bernoulli_minus,
    kronecker_factored,
    twisted_divisor_sums,
)


def test_kronecker_spec_values():
    assert kronecker(5, 2) == -1  # chi_5(2): 2 is a nonresidue mod 5
    assert all(chi(1, b) == 1 for b in range(-6, 7))
    assert all(kronecker(a, 1) == 1 for a in range(-20, 21))


def test_kronecker_against_factored_oracle():
    rng = random.Random(3)
    for _ in range(2500):
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        assert kronecker(a, b) == kronecker_factored(a, b), (a, b)


def test_kronecker_multiplicative():
    rng = random.Random(5)
    for _ in range(500):
        b = rng.randint(1, 80)
        a1 = rng.randint(-50, 50)
        a2 = rng.randint(-50, 50)
        assert kronecker(a1 * a2, b) == kronecker(a1, b) * kronecker(a2, b)
        b2 = rng.randint(1, 80)
        assert kronecker(a1, b * b2) == kronecker(a1, b) * kronecker(a1, b2)


def test_chi_factors_over_primes():
    for level, parts in ((15, (3, 5)), (35, (5, 7)), (77, (7, 11))):
        for b in range(1, 201):
            product = 1
            for p in parts:
                product *= chi(p, b)
            assert chi(level, b) == product


def test_chi_at_zero_convention():
    assert chi(1, 0) == 1
    for a in (3, 5, 7, 11, 35):
        assert chi(a, 0) == 0


def test_epsilon_values_and_identity():
    assert epsilon_c(3) == QuarterRadical(1, 1, 1)
    assert epsilon_c(5) == QuarterRadical.one()
    with pytest.raises(ValueError):
        epsilon_c(4)
    # epsilon_p = i^((1-p)/2) ((p+1)/2 | p) for odd primes
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        rhs = QuarterRadical(1, ((1 - p) // 2) % 4) * kronecker((p + 1) // 2, p)
        assert epsilon_c(p) == rhs, p


def test_unit_a_case_table():
    i = QuarterRadical(1, 1)
    one = QuarterRadical.one()
    # four cases by (d mod 4, N mod 4)
    assert unit_a(1, 5) == one
    assert unit_a(5, 65) == one  # d = 1, N = 1 (mod 4)
    assert unit_a(7, 77) == i  # d = 3, N = 1 (mod 4)
    assert unit_a(5, 35) == -1 * i  # d = 1, N = 3 (mod 4)
    assert unit_a(7, 91) == one  # d = 3, N = 3 (mod 4)
    for level in (5, 7, 11, 13, 35, 55, 77, 91):
        for d in divisors(level):
            m = level // d
            expected = {
                (1, 1): one,
                (3, 1): i,
                (1, 3): -1 * i,
                (3, 3): one,
            }[(d % 4, level % 4)]
            assert unit_a(d, level) == expected, (d, level)
            # and the defining formula
            exp = ((d + 1) * (m - 1)) // 4
            assert unit_a(d, level) == (-1) ** (exp % 2) * epsilon_c(m)


def test_eisenstein_sign_formulas_agree():
    # the Kronecker product against the definition i^((1-Nd)/2) / A(d, N) at
    # every valid level N < 2000, far past the N <= 129 that bernoulli_chi's
    # index bound lets eisenstein_profile reach
    levels = [n for n in range(1, 2000) if gcd(n, 6) == 1 and is_squarefree(n)]
    assert len(levels) == 609 and levels[-1] == 1999
    for level in levels:
        for d in divisors(level):
            assert eisenstein_sign(d, level) == eisenstein_sign_by_unit(d, level), (d, level)
    with pytest.raises(ValueError):
        eisenstein_sign(2, 10)
    with pytest.raises(ValueError):
        eisenstein_sign(3, 5)


def test_eisenstein_sign_spec_value():
    assert eisenstein_sign(5, 5) == 1


def test_gauss_w():
    assert gauss_w(5) == QuarterRadical(1, 0, 5)
    assert gauss_w(3) == QuarterRadical(1, 1, 3)
    # multiplicative route: W(chi_15) = (-1)^((3-1)(5-1)/4) W(chi_3) W(chi_5)
    assert gauss_w(15) == (-1) ** (2 * 4 // 4) * gauss_w(3) * gauss_w(5)
    assert gauss_w(15) == QuarterRadical(1, 1, 15)
    with pytest.raises(ValueError):
        gauss_w(9)
    with pytest.raises(ValueError):
        gauss_w(4)


def test_bernoulli_classical():
    expected = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(5, 66),
    ]
    for k in range(11):
        assert bernoulli_chi(k, 1) == expected[k], k


def test_bernoulli_against_polynomial_route():
    for level in (1, 5, 7, 11, 13, 35):
        for k in range(0, 9):
            assert bernoulli_chi(k, level) == bernoulli_chi_polynomial_route(
                k, level, chi
            ), (k, level)


@pytest.mark.parametrize("level", [1, 5, 13, 35])
def test_bernoulli_matches_series_route(level):
    for k in range(BERNOULLI_INDEX_BOUND + 1):
        assert bernoulli_chi(k, level) == bernoulli_chi_series_route(k, level), k


@pytest.mark.parametrize("level", [1, 5, 7, 11, 13, 35, 55, 77])
def test_bernoulli_table_matches_both_oracles_in_any_order(monkeypatch, level):
    ks = list(range(BERNOULLI_INDEX_BOUND + 1))
    expected = [bernoulli_chi_term_division(k, level) for k in ks]
    assert expected == [bernoulli_chi_polynomial_route(k, level, chi) for k in ks]
    shuffled = ks[:]
    random.Random(level).shuffle(shuffled)
    for order in (ks, ks[::-1], shuffled):
        monkeypatch.setattr(characters, "_BERNOULLI_TABLES", {})
        for k in order:
            assert bernoulli_chi(k, level) == expected[k], (level, k)


def test_bernoulli_table_computes_each_index_once(monkeypatch):
    computed = []

    class Recording(list):
        def append(self, value):
            computed.append(len(self))
            super().append(value)

    monkeypatch.setattr(characters, "_BERNOULLI_TABLES", {35: Recording()})
    for k in range(BERNOULLI_INDEX_BOUND + 1):
        bernoulli_chi(k, 35)
    for k in (64, 0, 17, 40, 3):
        bernoulli_chi(k, 35)
    assert computed == list(range(BERNOULLI_INDEX_BOUND + 1))


def test_classical_bernoulli_oracle_matches_known_values():
    assert classical_bernoulli_minus(len(BERNOULLI_MINUS)) == BERNOULLI_MINUS


def test_bernoulli_known_value_and_nonvanishing():
    assert bernoulli_chi(2, 5) == Fraction(4, 5)
    for level in (5, 7, 11, 13):
        assert bernoulli_chi((level - 1) // 2, level) != 0


def test_bernoulli_sign_combination():
    # (-8|N) (1-N)/B_{(N-1)/2} N^((N-3)/2) > 0
    for level in (5, 7, 11, 13):
        k = (level - 1) // 2
        value = (
            kronecker(-8, level)
            * Fraction(1 - level)
            / bernoulli_chi(k, level)
            * level ** ((level - 3) // 2)
        )
        assert value > 0, level


def test_bernoulli_bound():
    with pytest.raises(ValueError):
        bernoulli_chi(65, 5)


def test_sigma_twisted_examples():
    assert sigma_twisted(1, 5, 5, 1) == 1
    # sigma_1(chi_5, chi_1; 2) = chi_5(2) * 1 + chi_5(1) * 2 = 1
    assert sigma_twisted(1, 5, 1, 2) == 1


def test_sigma_twisted_multiplicative():
    rng = random.Random(9)
    pairs = 0
    while pairs < 200:
        m = rng.randint(1, 60)
        n = rng.randint(1, 60)
        if gcd(m, n) != 1:
            continue
        pairs += 1
        for level, d in ((35, 5), (13, 13), (5, 1)):
            k = (level - 3) // 2
            k = min(k, 6)  # keep the integers small; multiplicativity holds per k
            assert sigma_twisted(k, level, d, m * n) == sigma_twisted(
                k, level, d, m
            ) * sigma_twisted(k, level, d, n)


def test_sigma_twisted_scaling_law():
    # sigma_k(chi_{N/d}, chi_d; n N/d) = chi_d(N/d) (N/d)^k sigma_k(...; n)
    rng = random.Random(11)
    for level, d in ((35, 5), (13, 13)):
        k = (level - 3) // 2
        m = level // d
        for _ in range(25):
            n = rng.randint(1, 40)
            assert sigma_twisted(k, level, d, n * m) == chi(
                d, m
            ) * m**k * sigma_twisted(k, level, d, n)


@pytest.mark.parametrize("level", [13, 35, 55, 77])
def test_twisted_divisor_sums_match_sigma_twisted(level):
    k = (level - 3) // 2
    for n in range(1, 601):
        sums = twisted_divisor_sums(k, level, n)
        assert list(sums) == list(divisors(level))
        for d in divisors(level):
            assert sums[d] == sigma_twisted(k, level, d, n), (level, d, n)
    with pytest.raises(ValueError):
        twisted_divisor_sums(k, level, 0)
    with pytest.raises(ValueError):
        twisted_divisor_sums(-1, level, 5)


def test_eisenstein_sieve_reads_fixed_character_tables(monkeypatch):
    # one table of chi_d mod d and one of chi_{N/d} mod N/d per d | N: 2 sigma(N)
    # chi values whatever nMax, and no divisors or factorization of any n
    eisenstein.eisenstein_profile(35)
    calls = {"chi": 0, "divisors": 0, "factorize": 0}

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    for module in (arith, characters, eisenstein):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    counts = []
    for n_max in (60, 600):
        calls.update(chi=0)
        eisenstein.theta_eisenstein_series(35, n_max)
        counts.append(calls["chi"])
    assert counts == [2 * (1 + 5 + 7 + 35)] * 2
    assert calls["divisors"] == calls["factorize"] == 0


def test_context_validation():
    assert context(35) == ((1, 5, 7, 35), (5, 7))
    with pytest.raises(ValueError):
        context(15)
    with pytest.raises(ValueError):
        context(25)
    with pytest.raises(ValueError):
        context(0)
