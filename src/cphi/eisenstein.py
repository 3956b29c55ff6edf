"""The Eisenstein part of the theta series.

For a valid level N with k = (N-1)/2, the Eisenstein component attached to a
divisor d carries the coefficient C(d,N) (N/d)^((N-3)/2) (1-N)/B_{k,chi_N}
against the twisted divisor sums sigma_{(N-3)/2}(chi_{N/d}, chi_d; n).  The
aggregate coefficient of q^n in the theta decomposition has a second,
multiplicative evaluation route used as a cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import factorize
from .characters import (
    bernoulli_chi,
    chi,
    context,
    eisenstein_sign,
    kronecker,
    twisted_divisor_sums,
)
from .qseries import QSeries


@lru_cache(maxsize=None)
def eisenstein_profile(level: int) -> tuple:
    """(prefactor (1-N)/B_{(N-1)/2,chi_N}, {d: C(d, N)} over the divisors of N)."""
    level_divisors, _ = context(level)
    if level < 5:
        raise ValueError(f"N={level}: Eisenstein weight (N-1)/2 needs N >= 5")
    k = (level - 1) // 2
    bern = bernoulli_chi(k, level)
    if bern == 0:
        raise ArithmeticError(f"B_({k}, chi_{level}) vanishes")
    return Fraction(1 - level) / bern, {d: eisenstein_sign(d, level) for d in level_divisors}


def eisenstein_coefficient(level: int, n: int) -> Fraction:
    """Coefficient of q**n (n >= 1) in the theta Eisenstein part, divisor-sum route."""
    if n < 1:
        raise ValueError("coefficients start at n = 1")
    prefactor, signs = eisenstein_profile(level)
    k = (level - 3) // 2
    sums = twisted_divisor_sums(k, level, n)
    # prefactor * C(d,N) * (N/d)^k per divisor, summed in integers
    return prefactor * sum(sign * (level // d) ** k * sums[d] for d, sign in signs.items())


def eisenstein_coefficient_factored(level: int, n: int) -> Fraction:
    """Same coefficient by the multiplicative factorization over primes.

    Splits off (-8|N) (1-N)/B N^k, a geometric factor per prime of n, and a
    product over primes s | N with the signs C(s, N) of the profile; exact
    agreement with the divisor-sum route is a structural cross-check.
    """
    if n < 1:
        raise ValueError("coefficients start at n = 1")
    prefactor, signs = eisenstein_profile(level)
    k = (level - 3) // 2
    sign8 = kronecker(-8, level)
    lead = sign8 * prefactor * level**k
    factors = factorize(n)
    geom = Fraction(1)
    for p, e in factors:
        if level % p == 0:
            geom *= p ** (k * e)
        else:
            x = chi(level, p)
            geom *= Fraction(p ** (k * (e + 1)) - x ** (e + 1), p**k - x)
    local = Fraction(1)
    for s in context(level)[1]:
        t = Fraction(1)
        for p, e in factors:
            if p == s:
                t *= Fraction(chi(level // s, p**e), p ** (k * e))
            else:
                t *= chi(s, p**e)
        local *= 1 + sign8 * signs[s] * Fraction(1, s**k) * t
    return lead * geom * local


def theta_eisenstein_series(level: int, n_max: int) -> QSeries:
    """1 + sum of aggregate Eisenstein coefficients; the cusp-free part of theta."""
    coeffs = [Fraction(1)]
    coeffs += [eisenstein_coefficient(level, n) for n in range(1, n_max + 1)]
    return QSeries(0, coeffs, n_max)
