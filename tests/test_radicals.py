import math
import random
from fractions import Fraction

import pytest

from cphi.radicals import QuarterRadical
from oracles import approx_complex


def random_radical(rng):
    coeff = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return QuarterRadical(coeff, rng.randint(0, 3), rng.randint(1, 60))


def test_spec_products():
    a = QuarterRadical(1, 1, 3)
    assert a * a == QuarterRadical(-3)
    b = QuarterRadical(1, 0, 5)
    assert b * b == QuarterRadical(5)
    c = QuarterRadical(2, 3, Fraction(1, 5)) * QuarterRadical(1, 1, 5)
    assert c == QuarterRadical(2)


def test_normalization_folds_i_squared():
    assert QuarterRadical(1, 2, 1) == QuarterRadical(-1, 0, 1)
    assert QuarterRadical(1, 0, Fraction(20, 4)) == QuarterRadical(1, 0, 5)
    assert QuarterRadical(1, 1, 3) != QuarterRadical(1, 3, 3)
    # square parts and denominators leave the radicand
    assert QuarterRadical(1, 0, 12) == QuarterRadical(2, 0, 3)
    assert QuarterRadical(1, 0, Fraction(1, 5)) == QuarterRadical(Fraction(1, 5), 0, 5)


def test_normalization_idempotent():
    rng = random.Random(7)
    for _ in range(300):
        x = random_radical(rng)
        again = QuarterRadical(x.coeff, x.i_exp, x.radicand)
        assert (again.coeff, again.i_exp, again.radicand) == (
            x.coeff,
            x.i_exp,
            x.radicand,
        )


def test_zero_normal_form():
    z = QuarterRadical(0, 3, 7)
    assert (z.coeff, z.i_exp, z.radicand) == (0, 0, 1)
    assert z == QuarterRadical(0)


def test_mul_associative_commutative():
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (random_radical(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_product_matches_the_general_constructor_on_a_grid():
    # the product of two normal forms skips factoring; the general constructor
    # re-normalizes coeff * i**m * sqrt(r1 * r2) from scratch
    coeffs = (Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(10, 9))
    grid = [QuarterRadical(c, m, r) for c in coeffs for m in range(4)
            for r in (1, 2, 3, 5, 6, 12, 15, 30, 49, 105, Fraction(7, 18))]
    for a in grid:
        for b in grid:
            want = QuarterRadical(a.coeff * b.coeff, a.i_exp + b.i_exp,
                                  a.radicand * b.radicand)
            got = a * b
            assert (got, tuple(map(type, got))) == (want, tuple(map(type, want))), (a, b)
        for scalar in (0, -2, Fraction(5, 6)):
            want = QuarterRadical(a.coeff * scalar, a.i_exp, a.radicand)
            assert a * scalar == scalar * a == want and type((a * scalar).coeff) is Fraction


def test_approx_values():
    re, im = QuarterRadical(1, 1, 3).approx()
    assert re == 0.0
    assert abs(im - math.sqrt(3)) < 1e-12
    re, im = QuarterRadical(-25, 0, 5).approx()
    assert abs(re + 25 * math.sqrt(5)) < 1e-9
    assert im == 0.0
    assert QuarterRadical(0).approx() == (0.0, 0.0)


def test_approx_respects_products():
    rng = random.Random(13)
    for _ in range(300):
        a, b = random_radical(rng), random_radical(rng)
        left = approx_complex(a * b)
        right = approx_complex(a) * approx_complex(b)
        assert abs(left - right) <= 1e-9 * max(abs(left), abs(right), 1.0)


def test_rejects_nonpositive_radicand():
    with pytest.raises(ValueError):
        QuarterRadical(1, 0, 0)
    with pytest.raises(ValueError):
        QuarterRadical(1, 0, -3)
