"""The Eisenstein part of the theta series.

For a valid level N with k = (N-1)/2, the Eisenstein component attached to a
divisor d carries the coefficient C(d,N) (N/d)^((N-3)/2) (1-N)/B_{k,chi_N}
against the twisted divisor sums sigma_{(N-3)/2}(chi_{N/d}, chi_d; n).  Those
sums are Dirichlet convolutions, so theta_eisenstein_series takes them for
every n <= nMax from one divisor sieve per d | N: chi_d(t) t^k is added,
times chi_{N/d}(u), into the entry t*u, about nMax ln(nMax) integer steps per
d, with chi_d and chi_{N/d} read from tables mod d and mod N/d (2 sigma(N)
character values in all, whatever nMax).  The aggregate coefficient of q^n
has a second, multiplicative route over the primes of n, in integers; the
per-n divisor-sum route is a test oracle (tests/oracles.py).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import factorize
from .characters import bernoulli_chi, chi, context, eisenstein_sign, kronecker
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


def eisenstein_coefficient_factored(level: int, n: int) -> Fraction:
    """Coefficient of q**n (n >= 1) in the theta Eisenstein part, by its factorization over primes.

    Splits off (-8|N) (1-N)/B N^k, a geometric factor per prime of n, and a
    factor per prime s | N with the signs C(s, N) of the profile, all as one
    integer numerator over one integer denominator; exact agreement with the
    sieve is a structural cross-check.
    """
    if n < 1:
        raise ValueError("coefficients start at n = 1")
    prefactor, signs = eisenstein_profile(level)
    k = (level - 3) // 2
    sign8 = kronecker(-8, level)
    num, den = sign8 * prefactor.numerator * level**k, prefactor.denominator
    exponents = dict(factorize(n))
    for p, e in exponents.items():
        if level % p == 0:
            num *= p ** (k * e)
        else:  # (p^(k(e+1)) - x^(e+1)) / (p^k - x), a geometric sum
            x = chi(level, p)
            num *= (p ** (k * (e + 1)) - x ** (e + 1)) // (p**k - x)
    for s in context(level)[1]:
        # s^e || n: 1 + (-8|N) C(s,N) chi_{N/s}(s^e) chi_s(n/s^e) / s^(k(e+1))
        e = exponents.get(s, 0)
        top = s ** (k * (e + 1))
        num *= top + sign8 * signs[s] * chi(level // s, s**e) * chi(s, n // s**e)
        den *= top
    return Fraction(num, den)


def theta_eisenstein_series(level: int, n_max: int) -> QSeries:
    """1 + sum of aggregate Eisenstein coefficients; the cusp-free part of theta."""
    prefactor, signs = eisenstein_profile(level)
    k = (level - 3) // 2
    powers = [t**k for t in range(n_max + 1)]
    total = [0] * (n_max + 1)  # sum_d C(d,N) (N/d)^k sigma_k(chi_{N/d}, chi_d; n)
    for d, sign in signs.items():
        m = level // d
        chi_d = [chi(d, t) for t in range(d)]
        chi_m = [chi(m, u) for u in range(m)]
        row = (chi_m * (n_max // m + 2))[1 : n_max + 1]  # chi_m(u) for u = 1..n_max
        scale = sign * m**k
        for t in range(1, n_max + 1):
            if c := chi_d[t % d]:
                w = c * scale * powers[t]
                total[t::t] = [s + w * x for s, x in zip(total[t::t], row)]
    p, q = prefactor.numerator, prefactor.denominator
    return QSeries(0, [Fraction(1)] + [Fraction(p * s, q) for s in total[1:]], n_max)
