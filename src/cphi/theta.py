"""Representation counts of the quadratic form theta and the cphi series.

For x in Z^(N-1), y = (x, -sum x) lies in the root lattice A_{N-1} and
|y|^2 = 2 theta(x), so the coefficient of q^n in f_{theta_{N-1}} counts zero-sum
y in Z^N of norm 2n.  theta_series counts all y in Z^N with sum y = 0 mod N
instead, and divides the surplus out.  If sum y = mN, then y = x + m(1,...,1)
with x in A_{N-1} and |y|^2 = |x|^2 + N m^2; N is odd (coprime to 6), so the
norm is even exactly when m is, and the counts at norm 2j are
theta * sum_m q^(2N m^2).  The pass theta(j) -= 2 sum_{m>=1} theta(j - 2N m^2),
walking j upwards, recovers theta.

The DP runs over the entries of y and keeps only the partial sum mod N.  A
residue t stands for t and -t, whose counts are equal, so there are N//2 + 1
states; each is one big integer whose lane k counts partial norm k, for
k = 0..2n.  An entry u moves t to t + u and the norm up by u^2, |u| <= v =
isqrt(2n).  The DP stops after ceil(N/2) entries and pairs those states with
the ones after floor(N/2) entries: sum_t (2 - [t = 0]) P_t * P'_t, one
big-integer (Kronecker) product per residue.  Every vector counted in a lane
read has entries in [-v, v], so a lane holds at most (2v+1)^N and is
N * bits(2v+1) bits wide, rounded up to bytes.  Cost: ceil(N/2) layers of
N//2 + 1 residues of v shifted adds each, on integers of (2n+1) lanes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .arith import check_divides, validate_level
from .qseries import QSeries, times_eta_power
from .radicals import QuarterRadical


@lru_cache(maxsize=None)
def theta_series(level: int, n_max: int) -> QSeries:
    """Coefficient of q**n is #{x in Z^(N-1) : theta(x) = n}, exact."""
    validate_level(level)
    if n_max < 0:
        raise ValueError("negative truncation")
    v_cap = isqrt(2 * n_max)
    lane_bits = -(-level * (2 * v_cap + 1).bit_length() // 8) * 8
    lanes = 2 * n_max + 1
    mask = (1 << lane_bits * lanes) - 1
    residues = range(level // 2 + 1)
    fold = {r: min(r % level, -r % level) for r in range(-v_cap, level // 2 + v_cap + 1)}
    state = [1] + [0] * (level // 2)
    for layer in range((level + 1) // 2):
        if layer == level // 2:
            half = state
        state = [
            (state[t] + sum((state[fold[t - u]] + state[fold[t + u]]) << lane_bits * u * u
                            for u in range(1, v_cap + 1))) & mask
            for t in residues
        ]
    total = sum((p * h) << (t != 0) for t, p, h in zip(residues, state, half)) & mask
    nbytes = lane_bits // 8
    data = total.to_bytes(nbytes * lanes, "little")
    coeffs = [int.from_bytes(data[i : i + nbytes], "little")
              for i in range(0, len(data), 2 * nbytes)]
    step = 2 * level
    for j in range(step, n_max + 1):
        coeffs[j] -= 2 * sum(coeffs[j - step * m * m] for m in range(1, isqrt(j // step) + 1))
    return QSeries(0, coeffs, n_max)


@lru_cache(maxsize=None)
def cphi_series(level: int, n_max: int) -> QSeries:
    """Generating series of N-colored generalized Frobenius partition counts.

    cphi_N has generating function f_{theta_{N-1}} / (q;q)_infinity^N; the
    coefficients must come out as nonnegative integers.
    """
    series = times_eta_power(theta_series(level, n_max), -level)
    for n, c in enumerate(series.coefficients()):
        if not isinstance(c, int) or c < 0:
            raise ArithmeticError(f"cphi_{level}({n}) = {c} is not a nonnegative integer")
    return series


def theta_cusp_constant(level: int, d: int) -> QuarterRadical:
    """Constant term of f_{theta_{N-1}} at the cusp 1/d: i^((1-Nd)/2) sqrt(d/N)."""
    validate_level(level)
    check_divides(d, level)
    return QuarterRadical(1, ((1 - level * d) // 2) % 4, Fraction(d, level))
