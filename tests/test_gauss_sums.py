import tracemalloc
from itertools import product
from math import gcd, sqrt

import pytest

from cphi.arith import divisors
from cphi.characters import kronecker
from cphi.gauss_sums import (
    PHASE_GUARD,
    GaussSumQuery,
    _theta_residue_counts,
    gauss_sum_by_reduction,
    gauss_sum_closed,
    gauss_sum_numeric,
    gauss_sum_prime_closed,
    twist_map,
)
from cphi.radicals import QuarterRadical
from lemmas import coprime_split, gauss_sum_by_steps, reduce_step, reduction_unit, twist_orbit
from oracles import (
    approx_complex,
    evaluate_numeric,
    gauss_naive,
    theta_residue_counts_mod_2c,
    theta_value,
    twisted_gauss_naive,
)


def approx_equal(z, w, tol=1e-6):
    return abs(z - w) <= tol * max(abs(z), abs(w), 1.0)


def test_theta_form_values():
    assert theta_value((3,)) == 9
    assert theta_value((1, 1)) == 3
    assert theta_value((1, 0, 0, 0)) == 1
    assert theta_value(()) == 0
    # exhaustive scan: 20 vectors in Z^4 with theta = 1
    hits = sum(
        1
        for x in product(range(-2, 3), repeat=4)
        if theta_value(x) == 1
    )
    assert hits == 20


def test_counting_oracle_matches_naive_sum():
    # the residue-counting oracle and the literal term-by-term sum agree
    for dim, c in ((0, 3), (1, 3), (2, 5), (3, 4), (2, 6), (3, 7), (1, 12)):
        for a in range(1, c + 1):
            if gcd(a, c) == 1:
                assert approx_equal(
                    gauss_sum_numeric(dim, a, c), gauss_naive(dim, a, c), 1e-9
                ), (dim, a, c)


def test_residue_counts_match_mod_2c_oracle():
    # every (dim, c) with c <= 12 and c**dim <= 2*10**4, dim 0 and c = 1 included
    cases = [(dim, c) for c in range(1, 13) for dim in range(15) if c**dim <= 2 * 10**4]
    assert (0, 1) in cases and (1, 12) in cases and (14, 2) in cases
    for dim, c in cases:
        counts = _theta_residue_counts(dim, c)
        assert counts == theta_residue_counts_mod_2c(dim, c), (dim, c)
        assert sum(counts) == c**dim


def test_residue_counts_memory():
    # the state (sum, theta) mod c has at most c**2 values; at dim 2 only c of
    # them are stored, the last coordinate adding straight into the c counts
    tracemalloc.start()
    try:
        _theta_residue_counts(2, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20, peak


def test_numeric_examples():
    assert approx_equal(gauss_sum_numeric(1, 1, 3), complex(0, sqrt(3)))
    assert approx_equal(gauss_sum_numeric(4, 1, 5), complex(-25 * sqrt(5), 0))
    assert gauss_sum_numeric(0, 3, 7) == 1
    assert gauss_sum_numeric(2, 1, 1) == 1


def test_numeric_guard():
    with pytest.raises(ValueError):
        gauss_sum_numeric(12, 1, 13)  # 13**12 far beyond the guard
    assert 5**10 <= PHASE_GUARD
    # G_10(1,5) = 3125 by Prop-style evaluation; the oracle agrees
    assert approx_equal(gauss_sum_numeric(10, 1, 5), complex(3125, 0))


def test_query_validation():
    with pytest.raises(ValueError):
        GaussSumQuery(2, 2, 4)
    with pytest.raises(ValueError):
        GaussSumQuery(-1, 1, 3)


def test_multiplicativity_split_examples():
    q1, q2 = coprime_split(2, 1, 3, 5)
    lhs = gauss_sum_numeric(2, 1, 15)
    assert approx_equal(lhs, evaluate_numeric(q1) * evaluate_numeric(q2))
    q1, q2 = coprime_split(1, 1, 5, 7)
    assert approx_equal(
        gauss_sum_numeric(1, 1, 35), evaluate_numeric(q1) * evaluate_numeric(q2)
    )


def test_multiplicativity_all_feasible_triples():
    # all pairwise-coprime (alpha, beta, gamma) with alpha*beta <= 35, dim <= 3
    for alpha in range(2, 35):
        for beta in range(alpha + 1, 36):
            if alpha * beta > 35 or gcd(alpha, beta) != 1:
                continue
            for gamma in range(1, 11):
                if gcd(gamma, alpha * beta) != 1:
                    continue
                for dim in (1, 2, 3):
                    whole = gauss_sum_numeric(dim, gamma, alpha * beta)
                    qa, qb = coprime_split(dim, gamma, alpha, beta)
                    split = evaluate_numeric(qa) * evaluate_numeric(qb)
                    assert approx_equal(whole, split), (alpha, beta, gamma, dim)


def test_twist_orbit_values():
    assert twist_orbit(5, 0) == 0
    assert twist_orbit(5, 1) == 4
    assert twist_orbit(5, 3) == 1
    assert (4 * 4) % 5 == 1  # 4 = 1/4 mod 5


def test_twist_orbit_formula_and_coverage():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        seen = []
        for t in range(p - 1):
            value = twist_orbit(p, t)
            expected = t * pow(2 * t + 2, -1, p) % p
            assert value == expected, (p, t)
            seen.append(value)
        assert twist_orbit(p, p - 2) == 1
        expected_orbit = set(range((p - 1) // 2 + 1)) | set(
            range((p + 3) // 2, p)
        )
        assert set(seen) == expected_orbit, p


def test_twist_fixed_point():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        fixed = (p + 1) // 2
        assert twist_map(p, fixed) == fixed


def test_reduce_step_cases():
    step = reduce_step(4, 1, 5, 0)
    assert step.case == "drop-one"
    assert step.factor == QuarterRadical(1, 0, 5)  # epsilon_5 sqrt5 (1|5)
    assert step.next_dim == 3 and step.next_twist == 4
    step = reduce_step(2, 1, 5, 1)
    assert step.case == "terminal"
    assert step.factor == QuarterRadical(5)
    step = reduce_step(7, 2, 5, 6)  # twist = 1 mod 5, dim > 2
    assert step.case == "drop-two"
    assert step.factor == QuarterRadical(5)
    assert step.next_dim == 5 and step.next_twist == 0


def test_reduce_step_matches_twisted_sums():
    # one elimination step preserves the twisted sum, numerically
    for p in (3, 5):
        for dim in (1, 2, 3, 4):
            for twist in range(p):
                for a in (1, 2):
                    if gcd(a, p) != 1:
                        continue
                    lhs = twisted_gauss_naive(dim, a, p, twist)
                    step = reduce_step(dim, a, p, twist)
                    if step.case == "terminal":
                        rhs = approx_complex(step.factor)
                    else:
                        rhs = approx_complex(step.factor) * twisted_gauss_naive(
                            step.next_dim, a, p, step.next_twist
                        )
                    assert approx_equal(lhs, rhs, 1e-9), (p, dim, twist, a)


def test_reduction_chain_g45():
    assert gauss_sum_by_reduction(4, 1, 5) == QuarterRadical(-25, 0, 5)


def test_reduction_loop_matches_composed_steps():
    # 10,800 inputs: every odd prime p <= 23, every a < 2p prime to p, every dim < 60
    grid = [(dim, a, p) for p in (3, 5, 7, 11, 13, 17, 19, 23)
            for a in range(1, 2 * p) if a % p for dim in range(60)]
    assert len(grid) == 10800
    for dim, a, p in grid:
        assert gauss_sum_by_reduction(dim, a, p) == gauss_sum_by_steps(dim, a, p), (dim, a, p)


@pytest.mark.parametrize("dim,a,p", [(-3, 1, 5), (0, 1, 4), (0, 5, 5), (0, 1, 1), (3, 1, 2),
                                     (3, 1, 9), (3, 3, 3), (2, 1, -3)])
def test_reduction_validates_without_a_step(dim, a, p):
    # dim >= 0, p an odd prime and gcd(a, p) = 1, also where no coordinate is eliminated
    with pytest.raises(ValueError):
        gauss_sum_by_reduction(dim, a, p)


def test_reduction_chain_matches_prime_closed_form():
    for p in (3, 5, 7):
        for a in (1, 2, 3):
            if gcd(a, p) != 1:
                continue
            for m in (p - 1, p):
                value, residual = gauss_sum_prime_closed(m, a, p)
                assert residual is None
                assert gauss_sum_by_reduction(m, a, p) == value, (p, a, m)
            # beyond p: closed form leaves a residual factor
            for m in range(p + 1, 3 * p + 1):
                value, residual = gauss_sum_prime_closed(m, a, p)
                chain = gauss_sum_by_reduction(m, a, p)
                if residual is None:
                    assert chain == value
                else:
                    rest = gauss_sum_by_reduction(
                        residual.dim, residual.a, residual.modulus
                    )
                    assert chain == value * rest, (p, a, m)


def test_prime_closed_form_examples():
    value, residual = gauss_sum_prime_closed(4, 1, 5)
    assert residual is None and value == QuarterRadical(-25, 0, 5)
    value, residual = gauss_sum_prime_closed(6, 1, 7)
    assert residual is None
    assert approx_equal(approx_complex(value), gauss_sum_numeric(6, 1, 7))
    value, residual = gauss_sum_prime_closed(10, 1, 5)
    assert residual == GaussSumQuery(5, 1, 5)
    inner, none = gauss_sum_prime_closed(5, 1, 5)
    assert none is None
    assert value * inner == QuarterRadical(3125)
    with pytest.raises(ValueError):
        gauss_sum_prime_closed(3, 1, 5)


def test_product_identity_of_orbit_symbols():
    # prod_{t=1}^{p-2} ((1 - C^(t-1)(0)) | p) = (-1)^((p-1)/2) ((p+1)/2 | p)
    for p in (3, 5, 7, 11, 13):
        lhs = 1
        for t in range(1, p - 1):
            lhs *= kronecker(1 - twist_orbit(p, t - 1), p)
        rhs = (-1) ** ((p - 1) // 2) * kronecker((p + 1) // 2, p)
        assert lhs == rhs, p


def test_closed_form_full_level():
    assert gauss_sum_closed(5, 1, 5) == QuarterRadical(-25, 0, 5)
    assert gauss_sum_closed(5, 1, 1) == QuarterRadical.one()
    # G_6(2,7) = (2|7) i^(-21) 343 sqrt7 = -343 i sqrt7
    assert gauss_sum_closed(7, 2, 7) == QuarterRadical(-343, 1, 7)
    assert approx_equal(
        approx_complex(gauss_sum_closed(7, 2, 7)), gauss_sum_numeric(6, 2, 7)
    )
    with pytest.raises(ValueError):
        gauss_sum_closed(5, 1, 3)


def test_closed_form_vs_oracle_small_levels():
    for level in (5, 7):
        for d in divisors(level):
            for a in range(1, max(d, 2)):
                if gcd(a, d) != 1:
                    continue
                exact = gauss_sum_closed(level, a, d)
                numeric = gauss_sum_numeric(level - 1, a, d)
                assert approx_equal(approx_complex(exact), numeric), (level, d, a)


def test_closed_form_vs_reduction_chain_exact():
    for level in (5, 7):
        for d in divisors(level):
            if d == 1:
                continue
            for a in range(1, d):
                if gcd(a, d) != 1:
                    continue
                assert gauss_sum_closed(level, a, d) == gauss_sum_by_reduction(
                    level - 1, a, d
                )


def test_reduction_unit_is_one():
    for level in (5, 7, 11, 13, 35, 55, 77, 91, 143, 1001):
        for d in divisors(level):
            assert reduction_unit(d, level) == QuarterRadical.one(), (d, level)


def test_galois_twist():
    # G_{N-1}(a, d) = (a|d) G_{N-1}(1, d)
    for level, a, d in ((5, 2, 5), (7, 3, 7), (5, 1, 5)):
        lhs = gauss_sum_numeric(level - 1, a, d)
        assert approx_equal(lhs, kronecker(a, d) * gauss_sum_numeric(level - 1, 1, d)), (level, a, d)
    # explicit value: G_4(2,5) = (2|5) G_4(1,5) = +25 sqrt5
    assert approx_equal(
        gauss_sum_numeric(4, 2, 5), complex(25 * sqrt(5), 0)
    )
