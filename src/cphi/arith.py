"""Small integer-arithmetic helpers shared across modules."""

from __future__ import annotations

from math import gcd

# All radicands and moduli in this project are desk scale (divisors of
# levels up to ~1000 and their products), so trial division is plenty; a
# cofactor with no factor up to the limit is refused, not called prime.
# factorize is the only trial-division loop: every other helper reads it.
TRIAL_DIVISION_LIMIT = 10**6


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    original, out = n, []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        if f > TRIAL_DIVISION_LIMIT:
            raise ValueError(f"cannot factorize {original}: cofactor {n} has no factor "
                             f"up to the trial-division limit {TRIAL_DIVISION_LIMIT}")
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n >= 1."""
    return [p for p, _ in factorize(n)]


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n >= 1, expanded from its factorization."""
    if n < 1:
        raise ValueError(f"divisors of {n} undefined")
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == [(n, 1)]


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return all(e == 1 for _, e in factorize(n))


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (m, s) with n = m*m*s and s squarefree, n >= 1."""
    m, s = 1, 1
    for p, e in factorize(n):
        m *= p ** (e // 2)
        if e % 2:
            s *= p
    return m, s


def check_divides(d: int, level: int, name: str = "d") -> None:
    """Raise ValueError unless d is a positive divisor of the level N."""
    if d < 1 or level % d:
        raise ValueError(f"{name}={d} does not divide N={level}")


def validate_level(n: int) -> None:
    """Check that n is a valid level: positive, squarefree, coprime to 6."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"N={n}: must be a positive integer")
    if gcd(n, 6) != 1:
        raise ValueError(f"N={n}: must be coprime to 6")
    if not is_squarefree(n):
        raise ValueError(f"N={n}: must be squarefree")
