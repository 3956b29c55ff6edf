"""Quadratic Gauss sums for the form theta_N and their closed forms.

G_N(a, c) = sum over x in (Z/c)^N of e(2 pi i a theta_N(x) / c), where
theta_N(x) = sum x_i^2 + sum_{i<j} x_i x_j, so 2 theta_N = (sum x_i)^2 + sum x_i^2.

The numeric oracle aggregates exact counts of theta values per residue class
before one floating phase sum.  The exact value at an odd prime p comes from
one loop that eliminates one coordinate at a time, tracking the twist residue
R in the map R -> 1/(4(1-R)) mod p; the closed forms, for dim >= p - 1 and
for G_{N-1}(a, d) with d | N, are what that elimination multiplies out to.
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from math import gcd, pi

from .arith import check_divides, is_prime, is_squarefree
from .radicals import QuarterRadical
from .characters import epsilon_c, kronecker

# guard on the conceptual term count c**dim of the defining sum
PHASE_GUARD = 10**7


class GaussSumQuery(namedtuple("GaussSumQuery", "dim a modulus")):
    """A sum G_dim(a, modulus); gcd(a, modulus) must be 1."""

    __slots__ = ()

    def __new__(cls, dim: int, a: int, modulus: int):
        if dim < 0:
            raise ValueError("negative dimension")
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if gcd(a, modulus) != 1:
            raise ValueError(f"gcd({a}, {modulus}) != 1")
        return super().__new__(cls, dim, a, modulus)


def _theta_residue_counts(dim: int, modulus: int) -> tuple:
    """Exact counts of theta(x) mod `modulus` over x in (Z/modulus)^dim.

    Appending a coordinate u gives theta(x, u) = theta(x) + u^2 + u*sum(x), so
    the state (sum(x), theta(x)) mod modulus steps on its own, through at
    most modulus^2 states; the last coordinate adds straight into the counts.
    """
    table = {(0, 0): 1}
    for _ in range(dim - 1):
        nxt: dict = {}
        for (s, t), cnt in table.items():
            for u in range(modulus):
                key = ((s + u) % modulus, (t + u * (u + s)) % modulus)
                nxt[key] = nxt.get(key, 0) + cnt
        table = nxt
    counts = [0] * modulus
    for (s, t), cnt in table.items():
        # at dim 0 there is no coordinate to add: u = 0 leaves theta as it is
        for u in range(modulus if dim else 1):
            counts[(t + u * (u + s)) % modulus] += cnt
    return tuple(counts)


def gauss_sum_numeric(dim: int, a: int, modulus: int) -> complex:
    """Brute-force value of G_dim(a, modulus) in floating point.

    Rejects requests with modulus**dim beyond PHASE_GUARD; use the closed
    forms or the reduction chain there instead.
    """
    query = GaussSumQuery(dim, a, modulus)
    if modulus**dim > PHASE_GUARD:
        raise ValueError(
            f"{modulus}**{dim} exceeds the {PHASE_GUARD} term guard; "
            "use a closed form or the reduction chain"
        )
    counts = _theta_residue_counts(query.dim, query.modulus)
    total = 0j
    for r, cnt in enumerate(counts):
        if cnt:
            total += cnt * cmath.exp(2j * pi * ((a * r) % modulus) / modulus)
    return total


def twist_map(p: int, r: int) -> int:
    """One step of the twist recursion: R -> 1/(4(1-R)) mod p, R != 1."""
    if (r - 1) % p == 0:
        raise ValueError("twist map undefined at R = 1")
    return pow(4 * (1 - r), -1, p)


def gauss_sum_by_reduction(dim: int, a: int, p: int) -> QuarterRadical:
    """Exact G_dim(a, p) for odd prime p, eliminating coordinates one at a time.

    The sum over x of e(a(theta_dim(x) - R x_dim^2)/p) starts at twist R = 0.
    R != 1: factor epsilon_p sqrt(p) (a(1-R)|p), one coordinate fewer, and R
    advances to 1/(4(1-R)).  R = 1: factor p, two coordinates fewer and R = 0
    again; with at most two coordinates left the rest is the empty sum 1.
    """
    GaussSumQuery(dim, a, p)  # dim >= 0, gcd(a, p) = 1
    if p == 2 or not is_prime(p):
        raise ValueError(f"p={p} must be an odd prime")
    root = epsilon_c(p) * QuarterRadical.sqrt_of(p)
    acc, sign, twist = QuarterRadical.one(), 1, 0
    while dim > 0:
        if twist == 1:
            acc, dim, twist = acc * p, dim - 2, 0
        else:
            sign *= kronecker(a * (1 - twist), p)
            acc, dim, twist = acc * root, dim - 1, twist_map(p, twist)
    return acc * sign


def gauss_sum_prime_closed(dim: int, a: int, p: int):
    """Closed form for G_dim(a, p), dim >= p - 1.

    Returns (value, residual): for dim in {p-1, p} the residual is None and
    value = G_{p-1}(a, p) = i^((p-p^2)/2) (a|p) p^(p/2), gauss_sum_closed at
    N = d = p; for dim > p the same factor multiplies a residual query
    G_{dim-p}(a, p).
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p={p} must be an odd prime")
    value = gauss_sum_closed(p, a, p)
    if dim < p - 1:
        raise ValueError(f"closed form needs dimension >= {p - 1}, got {dim}")
    if dim in (p - 1, p):
        return value, None
    return value, GaussSumQuery(dim - p, a, p)


def gauss_sum_closed(level: int, a: int, d: int) -> QuarterRadical:
    """Closed form G_{N-1}(a, d) = (a|d) i^((N-Nd)/2) d^(N/2), d | N odd squarefree."""
    if level < 1 or level % 2 == 0 or not is_squarefree(level):
        raise ValueError(f"N={level} must be odd positive squarefree")
    check_divides(d, level)
    if gcd(a, d) != 1:
        raise ValueError(f"gcd({a}, {d}) != 1")
    return QuarterRadical(
        kronecker(a, d) * d ** ((level - 1) // 2),
        ((level - level * d) // 2) % 4,
        d,
    )
