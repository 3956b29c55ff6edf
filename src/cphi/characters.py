"""Kronecker symbols, quadratic characters and their attached constants.

chi_a is the real character chi_a(b) = kronecker((-1)^((a-1)/2) * a, b),
primitive mod a for odd squarefree a.  This module also provides the
epsilon_c units, the sign C(d, N) of the Eisenstein decomposition as a
product of Kronecker symbols, generalized Bernoulli numbers and the twisted
divisor sum sigma_twisted of one n.  chi_a is periodic mod a, so the
Eisenstein series reads it from a table of a values and sums over divisors
with one sieve for all n at once (eisenstein.py); the per-n sums over all
d | N are a test oracle (tests/oracles.py).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .arith import check_divides, divisors, prime_factors, validate_level
from .radicals import QuarterRadical


def kronecker(a: int, b: int) -> int:
    """Kronecker symbol (a|b) on the full domain, including b <= 0."""
    if b == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    sign = 1
    if b < 0:
        b = -b
        if a < 0:
            sign = -sign
    twos = 0
    while b % 2 == 0:
        b //= 2
        twos += 1
    if twos % 2 and a % 8 in (3, 5):
        sign = -sign
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                sign = -sign
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            sign = -sign
        a %= b
    return sign if b == 1 else 0


def chi(a: int, b: int) -> int:
    """The quadratic character chi_a(b), a odd positive."""
    if a < 1 or a % 2 == 0:
        raise ValueError(f"chi_a needs odd positive a, got {a}")
    if (a - 1) // 2 % 2:
        return kronecker(-a, b)
    return kronecker(a, b)


def epsilon_c(c: int) -> QuarterRadical:
    """1 for c = 1 mod 4, i for c = 3 mod 4; rejects even c."""
    if c % 2 == 0 or c < 1:
        raise ValueError(f"epsilon_c needs odd positive c, got {c}")
    return QuarterRadical(Fraction(1), 0 if c % 4 == 1 else 1, 1)


def eisenstein_sign(d: int, level: int) -> int:
    """The sign C(d, N) = (-8|N) (8|d) (-4|d)^((N-1)/2) in {+1, -1}, for d | N, N odd.

    The Eisenstein decomposition defines C(d, N) as i^((1-N*d)/2) / A(d, N),
    A(d, N) = (-1)^((d+1)(N/d-1)/4) * epsilon_{N/d}; the Kronecker symbols
    give the same sign without fourth roots of unity.
    """
    check_divides(d, level)
    if level % 2 == 0:
        raise ValueError(f"the Eisenstein sign needs odd N, got {level}")
    return kronecker(-8, level) * kronecker(8, d) * kronecker(-4, d) ** ((level - 1) // 2)


BERNOULLI_INDEX_BOUND = 64
# level N -> [B_{0,chi_N}, B_{1,chi_N}, ...], continued in place on a miss
_BERNOULLI_TABLES: dict = {}


def bernoulli_chi(k: int, level: int) -> Fraction:
    """Generalized Bernoulli number B_{k, chi_level}, from one table per level.

    Comparing t^(n+1) in sum_{a=1}^{N} chi_N(a) t e^{at} = (e^{Nt} - 1) sum_k
    B_{k,chi} t^k / k! gives, with S_n = sum_a chi_N(a) a^n, the recurrence
    N (n+1) B_n = (n+1) S_n - sum_{m=2}^{n+1} C(n+1,m) N^m B_{n+1-m}.  The table
    continues it from its first missing index, so each index is computed once.
    """
    if k < 0 or k > BERNOULLI_INDEX_BOUND:
        raise ValueError(f"index {k} outside supported range 0..{BERNOULLI_INDEX_BOUND}")
    if level < 1 or level % 2 == 0:
        raise ValueError(f"needs odd positive modulus, got {level}")
    table = _BERNOULLI_TABLES.setdefault(level, [])
    start = len(table)
    if k < start:
        return table[k]
    # running chi(a) a^n over the a with chi(a) != 0
    powers = [(a, c * a**start) for a in range(1, level + 1) if (c := chi(level, a))]
    for n in range(start, k + 1):
        den = lcm(*(b.denominator for b in table))
        num = (n + 1) * den * sum(p for _, p in powers)
        for m in range(2, n + 2):
            b = table[n + 1 - m]
            if b:
                num -= comb(n + 1, m) * level**m * b.numerator * (den // b.denominator)
        table.append(Fraction(num, den * level * (n + 1)))
        powers = [(a, p * a) for a, p in powers]
    return table[k]


def sigma_twisted(k: int, level: int, d: int, n: int) -> int:
    """Twisted divisor sum sum_{t|n} chi_{N/d}(n/t) chi_d(t) t**k."""
    check_divides(d, level)
    if n < 1:
        raise ValueError(f"twisted divisor sum needs n >= 1, got {n}")
    if k < 0:
        raise ValueError("negative weight exponent")
    m = level // d
    total = 0
    for t in divisors(n):
        ct = chi(d, t)
        if ct:
            cq = chi(m, n // t)
            if cq:
                total += cq * ct * t**k
    return total


@lru_cache(maxsize=None)
def context(level: int) -> tuple:
    """(divisors, prime factors) of a valid level N, as tuples."""
    validate_level(level)
    return tuple(divisors(level)), tuple(prime_factors(level))
