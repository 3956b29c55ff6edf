"""Paper-lemma helpers that only the tests call.

These are the Kolitsch and Chan-Wang-Yan proof steps behind the identity
cphi_N(n) = sum_{d|N} (N/d) P(Nn/d^2 - (N^2-d^2)/(24d^2)) + b(n): the
classical Gauss sum W(chi_d), the coprime splitting of Gauss sums, the twist
orbit, the single variable-elimination step and the reduction unit of the
closed forms, the defining route of the Eisenstein sign C(d, N) through the
fourth-root unit A(d, N), the vanishing orders of the eta quotients at the
cusps, and the per-divisor Eisenstein parts.  No `cphi` command reaches them;
the acceptance criteria and the unit tests check them against the library.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from cphi.arith import check_divides, is_prime, is_squarefree, prime_factors, validate_level
from cphi.characters import epsilon_c, kronecker, sigma_twisted
from cphi.eisenstein import eisenstein_profile
from cphi.gauss_sums import GaussSumQuery, twist_map
from cphi.qseries import QSeries
from cphi.radicals import QuarterRadical


def gauss_w(d: int) -> QuarterRadical:
    """Classical Gauss sum of chi_d: epsilon_d * sqrt(d), d odd squarefree."""
    if d < 1 or d % 2 == 0:
        raise ValueError(f"gauss_w needs odd positive d, got {d}")
    if not is_squarefree(d):
        raise ValueError(f"gauss_w needs squarefree d, got {d}")
    return epsilon_c(d) * QuarterRadical.sqrt_of(d)


def coprime_split(dim: int, gamma: int, alpha: int, beta: int):
    """Factor queries per G_N(gamma, alpha*beta) = G_N(beta*gamma, alpha) * G_N(alpha*gamma, beta).

    alpha, beta and gamma must be pairwise coprime.
    """
    return (
        GaussSumQuery(dim, beta * gamma, alpha),
        GaussSumQuery(dim, alpha * gamma, beta),
    )


def twist_orbit(p: int, t: int) -> int:
    """t-fold iterate of the twist map at 0 mod p, 0 <= t <= p - 2.

    Lands on t/(2t+2) mod p and reaches 1 exactly at t = p - 2; hitting 1
    earlier would mean the recursion is broken, so that raises.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p={p} must be an odd prime")
    if t < 0 or t > p - 2:
        raise ValueError(f"orbit index {t} outside 0..{p - 2}")
    r = 0
    for step in range(t):
        if r % p == 1 % p:
            raise ArithmeticError(
                f"twist orbit hit 1 mod {p} after {step} steps, before {p - 2}"
            )
        r = twist_map(p, r)
    return r % p


class ReduceStep(NamedTuple):
    """Outcome of eliminating coordinates from a twisted Gauss sum."""

    case: str  # "terminal", "drop-two" or "drop-one"
    factor: QuarterRadical
    next_dim: int | None
    next_twist: int | None


def reduce_step(dim: int, a: int, p: int, twist: int) -> ReduceStep:
    """One variable-elimination step for sum_x e(a(theta_dim(x) - R x_dim^2)/p).

    R = 1, dim <= 2: the sum collapses to p.  R = 1, dim > 2: factor p and a
    plain Gauss sum in dim-2 variables remains (twist 0).  R != 1: factor
    epsilon_p sqrt(p) (a(1-R)|p) and the twist advances to 1/(4(1-R)).
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p={p} must be an odd prime")
    if gcd(a, p) != 1:
        raise ValueError(f"gcd({a}, {p}) != 1")
    if dim < 1:
        raise ValueError("nothing to reduce in dimension 0")
    if (twist - 1) % p == 0:
        if dim <= 2:
            return ReduceStep("terminal", QuarterRadical(p), None, None)
        return ReduceStep("drop-two", QuarterRadical(p), dim - 2, 0)
    factor = epsilon_c(p) * QuarterRadical.sqrt_of(p)
    factor = factor * kronecker(a * (1 - twist), p)
    return ReduceStep("drop-one", factor, dim - 1, twist_map(p, twist))


def gauss_sum_by_steps(dim: int, a: int, p: int) -> QuarterRadical:
    """G_dim(a, p) for odd prime p as the product of the reduce_step factors from twist 0."""
    acc = QuarterRadical.one()
    twist = 0
    while dim > 0:
        step = reduce_step(dim, a, p, twist)
        acc = acc * step.factor
        if step.case == "terminal":
            return acc
        dim, twist = step.next_dim, step.next_twist
    return acc


def reduction_unit(d: int, level: int) -> QuarterRadical:
    """prod_{p|d} i^((N-Np)/2) (d/p|p) divided by i^((N-Nd)/2); always 1."""
    check_divides(d, level)
    acc = QuarterRadical.one()
    for p in prime_factors(d):
        acc = acc * QuarterRadical(
            kronecker(d // p, p), ((level - level * p) // 2) % 4, 1
        )
    return acc * QuarterRadical(1, ((level * d - level) // 2) % 4)


def unit_a(d: int, level: int) -> QuarterRadical:
    """The fourth-root unit A(d, N) = (-1)^((d+1)(N/d-1)/4) * epsilon_{N/d} for d | N."""
    check_divides(d, level)
    m = level // d
    if d % 2 == 0 or m % 2 == 0:
        raise ValueError("unit_a needs odd d and N")
    exp = ((d + 1) * (m - 1)) // 4
    return QuarterRadical(Fraction((-1) ** (exp % 2)), 0 if m % 4 == 1 else 1, 1)


def eisenstein_sign_by_unit(d: int, level: int) -> int:
    """C(d, N) by its definition, the sign s with s * A(d, N) = i^((1-N*d)/2)."""
    target = QuarterRadical(1, ((1 - level * d) // 2) % 4)
    for sign in (1, -1):
        if sign * unit_a(d, level) == target:
            return sign
    raise ArithmeticError(f"i^((1-Nd)/2) / A(d, N) is not a sign at d={d}, N={level}")


def cusp_vanishing_order(level: int, d: int, c: int) -> Fraction:
    """Order of vanishing of the eta quotient eta((N/d)z)^N / eta(dz) at the cusp 1/c, c | N."""
    validate_level(level)
    check_divides(d, level)
    check_divides(c, level, "c")
    return Fraction(level, 24 * c) * Fraction(
        d * d * gcd(level // d, c) ** 2 - gcd(d, c) ** 2, d
    )


def _divisor_series(level: int, d: int, n_max: int, eta: bool) -> QSeries:
    """[d = N] + sum_n scale * sigma_{(N-3)/2}(chi_{N/d}, chi_d; n) q^n for divisor d."""
    prefactor, signs = eisenstein_profile(level)
    m = level // d
    # (1-N)/B * C(d,N) times (N/d|d) d/N for the eta quotient, (N/d)^((N-3)/2) otherwise
    weight = kronecker(m, d) * Fraction(d, level) if eta else m ** ((level - 3) // 2)
    scale = prefactor * signs[d] * weight
    coeffs = [Fraction(1 if d == level else 0)]
    coeffs += [scale * sigma_twisted((level - 3) // 2, level, d, n) for n in range(1, n_max + 1)]
    return QSeries(0, coeffs, n_max)


def eta_eisenstein_series(level: int, d: int, n_max: int) -> QSeries:
    """Eisenstein part of the eta quotient for divisor d."""
    return _divisor_series(level, d, n_max, eta=True)


def partition_eisenstein_series(level: int, d: int, n_max: int) -> QSeries:
    """Eisenstein series equal (mod cusp forms) to (N/d)(q;q)^N sum P(...) q^n."""
    return _divisor_series(level, d, n_max, eta=False)
