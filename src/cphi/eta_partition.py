"""Eta-quotient expansions, eta cusp constants, and partition-number machinery.

The eta quotient studied here is eta(z (N/d))^N / eta(dz) for d | N, whose
q-expansion is q^((N^2-d^2)/(24d)) (q^(N/d); q^(N/d))^N / (q^d; q^d).
Partition numbers P(n) use the convention P(x) = 0 for negative or
non-integral x, which is what makes terms like P(n/5) meaningful.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import check_divides, validate_level
from .characters import context, kronecker
from .qseries import QSeries, eta_power, pentagonal_stage, pentagonal_terms, times_eta_power
from .radicals import QuarterRadical


def eta_quotient_series(level: int, d: int, n_max: int) -> QSeries:
    """Exact expansion of eta((N/d)z)^N / eta(dz) through q**n_max, d | N.

    Two eta factors applied to 1: (q^(N/d);q^(N/d))^N, then 1/(q^d;q^d),
    each by times_eta_power with its own d, shifted by the q-power prefix.
    """
    validate_level(level)
    check_divides(d, level)
    prefix, rem = divmod(level**2 - d**2, 24 * d)
    if rem:
        raise ValueError(f"(N^2-d^2)/(24d) is not an integer for N={level}, d={d}")
    if prefix > n_max:
        return QSeries.zero(n_max)
    numerator = times_eta_power(QSeries.one(n_max - prefix), level, level // d)
    return times_eta_power(numerator, -1, d).shift(prefix)


def eta_cusp_constant(level: int, d: int) -> QuarterRadical:
    """Constant term of the eta quotient at the cusp 1/d; at the other cusps 1/c, c | N, it is 0."""
    validate_level(level)
    check_divides(d, level)
    coeff = kronecker(level // d, d) * Fraction(d, level) ** ((level - 1) // 2)
    return QuarterRadical(coeff, ((1 - level * d) // 2) % 4, Fraction(d, level))


# -- partition numbers -------------------------------------------------------

_partition_table = [1]


def partition_numbers(n_max: int) -> list:
    """P(0..n_max) by Euler's recurrence, the pentagonal quotient stage for 1/(q;q).

    The table only grows, by continuing the stage from its first missing
    entry; the stage only appends finished entries, so an interrupted
    extension leaves a correct, shorter table.
    """
    stop = n_max + 1
    if stop > len(_partition_table):
        # the source is 1 = 1 + 0 q + ..., and the stage reads it from q**1 on
        pentagonal_stage([0] * stop, _partition_table, stop, pentagonal_terms(n_max), True)
    return _partition_table[:stop]


def partition_count(x) -> int:
    """P(x) with P = 0 at negative or non-integral arguments."""
    if x.denominator != 1 or x < 0:
        return 0
    x = x.numerator
    if x >= len(_partition_table):
        # double the length (P(0..m) has m + 1 entries): O(log x) extensions
        partition_numbers(max(x, 2 * len(_partition_table) - 1))
    return _partition_table[x]


def scaled_partition_term(level: int, d: int, n: int) -> int:
    """(N/d) * P(N n / d^2 - (N^2 - d^2)/(24 d^2)) with the P convention."""
    check_divides(d, level)
    arg, rem = divmod(24 * level * n - (level**2 - d**2), 24 * d * d)
    return 0 if rem else (level // d) * partition_count(arg)


def main_term(level: int, n: int) -> int:
    """The partition side of the main identity: sum over d | N of scaled terms."""
    return sum(scaled_partition_term(level, d, n) for d in context(level)[0])


def multi_partition_series(r: int, n_max: int) -> QSeries:
    """1/(q;q)^r: coefficients count r-colored partitions."""
    if r < 0:
        raise ValueError("negative color count")
    return eta_power(-r, n_max)
