import pytest

from cphi.arith import TRIAL_DIVISION_LIMIT, factorize, validate_level


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
    for n in range(1, 10**4 + 1):
        assert factorize(n) == factorize_brute(n), n


def test_factorize_refuses_cofactor_beyond_trial_division():
    # 1000003 is prime and above the limit, so its square has no factor the
    # trial division reaches; it must not come back as a prime
    with pytest.raises(ValueError, match=str(TRIAL_DIVISION_LIMIT)):
        factorize(1000003**2)
    with pytest.raises(ValueError, match=str(TRIAL_DIVISION_LIMIT)):
        validate_level(1000003**2)
    assert factorize(5 * 1000003) == [(5, 1), (1000003, 1)]
