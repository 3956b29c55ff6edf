import pytest

from cphi.arith import (
    TRIAL_DIVISION_LIMIT,
    divisors,
    factorize,
    is_prime,
    is_squarefree,
    prime_factors,
    squarefree_split,
    validate_level,
)
from cphi.characters import sigma_twisted
from cphi.eta_partition import eta_cusp_constant, eta_quotient_series, scaled_partition_term
from cphi.gauss_sums import gauss_sum_closed
from cphi.theta import theta_cusp_constant
from lemmas import cusp_vanishing_order, reduction_unit, unit_a


def factorize_brute(n):
    """(prime, exponent) pairs by dividing out the smallest divisor > 1 until 1 is left."""
    out = []
    while n > 1:
        p = next(d for d in range(2, n + 1) if n % d == 0)
        if out and out[-1][0] == p:
            out[-1] = (p, out[-1][1] + 1)
        else:
            out.append((p, 1))
        n //= p
    return out


def test_factorize_matches_brute_force():
    # and every helper derived from factorize, against divisor lists and
    # primes from sieves, which divide nothing by trial
    top = 10**4
    divs = [[] for _ in range(top + 1)]
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            divs[m].append(d)
    prime = [len(ds) == 2 for ds in divs]
    for n in range(1, top + 1):
        assert factorize(n) == factorize_brute(n), n
        assert divisors(n) == divs[n], n
        assert is_prime(n) == prime[n], n
        assert prime_factors(n) == [p for p in divs[n] if prime[p]], n
        square_divisors = [d for d in divs[n] if n % (d * d) == 0]
        assert is_squarefree(n) == (square_divisors == [1]), n
        assert squarefree_split(n) == (square_divisors[-1], n // square_divisors[-1] ** 2), n


def test_factorize_refuses_cofactor_beyond_trial_division():
    # 1000003 is prime and above the limit, so its square has no factor the
    # trial division reaches; it must not come back as a prime
    with pytest.raises(ValueError, match=str(TRIAL_DIVISION_LIMIT)) as refused:
        factorize(1000003**2)
    with pytest.raises(ValueError, match=str(TRIAL_DIVISION_LIMIT)):
        validate_level(1000003**2)
    # the helpers derived from factorize refuse with its message, not loop to sqrt(n)
    for helper in (is_prime, divisors):
        with pytest.raises(ValueError) as exc:
            helper(1000003**2)
        assert str(exc.value) == str(refused.value), helper
    assert factorize(5 * 1000003) == [(5, 1), (1000003, 1)]


# every function of a divisor d | N, called at N = 5: (name of the slot, call with d in it)
DIVISOR_SITES = {
    "unit_a": ("d", lambda d: unit_a(d, 5)),
    "sigma_twisted": ("d", lambda d: sigma_twisted(1, 5, d, 1)),
    "eta_quotient_series": ("d", lambda d: eta_quotient_series(5, d, 1)),
    "cusp_vanishing_order": ("d", lambda d: cusp_vanishing_order(5, d, 1)),
    "cusp_vanishing_order-c": ("c", lambda c: cusp_vanishing_order(5, 5, c)),
    "eta_cusp_constant": ("d", lambda d: eta_cusp_constant(5, d)),
    "scaled_partition_term": ("d", lambda d: scaled_partition_term(5, d, 1)),
    "gauss_sum_closed": ("d", lambda d: gauss_sum_closed(5, 1, d)),
    "reduction_unit": ("d", lambda d: reduction_unit(d, 5)),
    "theta_cusp_constant": ("d", lambda d: theta_cusp_constant(5, d)),
}


@pytest.mark.parametrize("d", [0, -5, 2])
@pytest.mark.parametrize("site", sorted(DIVISOR_SITES))
def test_divisor_sites_refuse_nondivisors(site, d):
    # d = -5 divides 5 as an integer, and d = 0 must not reach a division
    slot, call = DIVISOR_SITES[site]
    with pytest.raises(ValueError, match=f"^{slot}={d} does not divide N=5$"):
        call(d)
