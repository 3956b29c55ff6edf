"""Eisenstein-part expansions of the theta, eta-quotient and partition series.

For a valid level N with k = (N-1)/2, the Eisenstein component attached to a
divisor d carries the coefficient C(d,N) (N/d)^((N-3)/2) (1-N)/B_{k,chi_N}
against the twisted divisor sums sigma_{(N-3)/2}(chi_{N/d}, chi_d; n).  The
aggregate coefficient of q^n in the theta decomposition has a second,
multiplicative evaluation route used as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import factorize
from .characters import (
    bernoulli_chi,
    chi,
    context,
    eisenstein_sign,
    kronecker,
    sigma_twisted,
    twisted_divisor_sums,
)
from .qseries import QSeries


@dataclass(frozen=True)
class DivisorTerm:
    d: int
    sign: int  # C(d, N)
    sigma_scale: Fraction  # (1-N)/B * C(d,N) * (N/d)^((N-3)/2)
    eta_scale: Fraction  # (1-N)/B * (N/d|d) * C(d,N) * d/N


@dataclass(frozen=True)
class EisensteinProfile:
    level: int
    weight_index: int  # (N-1)/2
    bernoulli: Fraction  # B_{(N-1)/2, chi_N}
    prefactor: Fraction  # (1-N)/B
    terms: tuple  # DivisorTerm per divisor of N


@lru_cache(maxsize=None)
def eisenstein_profile(level: int) -> EisensteinProfile:
    ctx = context(level)
    if level < 5:
        raise ValueError(f"N={level}: Eisenstein weight (N-1)/2 needs N >= 5")
    k = (level - 1) // 2
    bern = bernoulli_chi(k, level)
    if bern == 0:
        raise ArithmeticError(f"B_({k}, chi_{level}) vanishes")
    prefactor = Fraction(1 - level) / bern
    terms = []
    for d in ctx.divisors:
        sign = eisenstein_sign(d, level)
        m = level // d
        terms.append(
            DivisorTerm(
                d=d,
                sign=sign,
                sigma_scale=prefactor * sign * m ** ((level - 3) // 2),
                eta_scale=prefactor * kronecker(m, d) * sign * Fraction(d, level),
            )
        )
    return EisensteinProfile(level, k, bern, prefactor, tuple(terms))


def eisenstein_coefficient(level: int, n: int) -> Fraction:
    """Coefficient of q**n (n >= 1) in the theta Eisenstein part, divisor-sum route."""
    if n < 1:
        raise ValueError("coefficients start at n = 1")
    profile = eisenstein_profile(level)
    k = (level - 3) // 2
    sums = twisted_divisor_sums(k, level, n)
    # sigma_scale = prefactor * C(d,N) * (N/d)^k, summed in integers
    return profile.prefactor * sum(t.sign * (level // t.d) ** k * sums[t.d] for t in profile.terms)


def eisenstein_coefficient_factored(level: int, n: int) -> Fraction:
    """Same coefficient by the multiplicative factorization over primes.

    Splits off (-8|N) (1-N)/B N^k, a geometric factor per prime of n, and a
    product over primes s | N with the signs C(s, N) of the profile; exact
    agreement with the divisor-sum route is a structural cross-check.
    """
    if n < 1:
        raise ValueError("coefficients start at n = 1")
    profile = eisenstein_profile(level)
    k = (level - 3) // 2
    sign8 = kronecker(-8, level)
    lead = sign8 * profile.prefactor * level**k
    factors = factorize(n)
    geom = Fraction(1)
    for p, e in factors:
        if level % p == 0:
            geom *= p ** (k * e)
        else:
            x = chi(level, p)
            geom *= Fraction(p ** (k * (e + 1)) - x ** (e + 1), p**k - x)
    signs = {term.d: term.sign for term in profile.terms}
    local = Fraction(1)
    for s in context(level).prime_factors:
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


def _divisor_series(level: int, d: int, n_max: int, eta: bool) -> QSeries:
    """[d = N] + sum_n scale * sigma_{(N-3)/2}(chi_{N/d}, chi_d; n) q^n for divisor d."""
    term = next(t for t in eisenstein_profile(level).terms if t.d == d)
    scale = term.eta_scale if eta else term.sigma_scale
    coeffs = [Fraction(1 if d == level else 0)]
    coeffs += [scale * sigma_twisted((level - 3) // 2, level, d, n) for n in range(1, n_max + 1)]
    return QSeries(0, coeffs, n_max)


def eta_eisenstein_series(level: int, d: int, n_max: int) -> QSeries:
    """Eisenstein part of the eta quotient for divisor d."""
    return _divisor_series(level, d, n_max, eta=True)


def partition_eisenstein_series(level: int, d: int, n_max: int) -> QSeries:
    """Eisenstein series equal (mod cusp forms) to (N/d)(q;q)^N sum P(...) q^n."""
    return _divisor_series(level, d, n_max, eta=False)
