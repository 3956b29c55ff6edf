"""Representation counts of the quadratic form theta and the cphi series.

For x in Z^(N-1), y = (x, -sum x) lies in the root lattice A_{N-1} and
|y|^2 = 2 theta(x), so the coefficient of q^n in f_{theta_{N-1}} counts zero-sum
y in Z^N of norm 2n.  theta_series counts all y in Z^N with sum y = 0 mod 2N
instead, and divides the surplus out.  If sum y = mN, then y = x + m(1,...,1)
with x in A_{N-1} and |y|^2 = |x|^2 + N m^2; N is odd (coprime to 6), so the
norm is even exactly when m is, and the counts at norm 2j are
theta * sum_m q^(2N m^2).  The pass theta(j) -= 2 sum_{m>=1} theta(j - 2N m^2),
walking j upwards, recovers theta.

The DP runs over the entries of y and keeps only the partial sum mod 2N.  A
residue t stands for t and -t, whose counts are equal, so there are N + 1
states.  Since u^2 = u mod 2, the partial norm has the parity of the partial
sum, so each state is one big integer of n + 1 lanes, lane i counting partial
norm 2i + (t mod 2).  An entry u, |u| <= v = isqrt(2n), moves s = t - u to t
and lane i to lane i + ((s mod 2) + u^2 - (t mod 2))/2.  The DP stops after
ceil(N/2) entries and pairs those states with the ones after floor(N/2):
sum_t c_t P_t * P'_t, shifted up by (t mod 2) lanes, with c_t = 1 for t in
{0, N} and 2 otherwise; lane j of the sum is norm 2j.  lane_bits gives the
lane width.  Cost: ceil(N/2) layers of N + 1 residues of v shifted adds each,
on integers of n + 1 lanes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

from .arith import check_divides, validate_level
from .qseries import QSeries, times_eta_power
from .radicals import QuarterRadical


def lane_bits(level: int, n_max: int) -> int:
    """Width of one lane in theta_series, in whole bytes.

    Lane k <= 2n of a state or of the join counts distinct y in Z^N with
    |y|^2 = k (entries not yet placed are 0), and |y|_1 <= sqrt(N k) <= R =
    isqrt(2nN) by Cauchy-Schwarz: at most sum_j C(N,j) 2^j C(R,j) vectors (j
    nonzero entries), and at most (2v+1)^N, all entries in [-v, v].  The top
    lane of an odd residue (norm 2n+1) is never read and feeds no lane read,
    and a carry out of a lane only moves upward.
    """
    v_cap = isqrt(2 * n_max)
    radius = isqrt(2 * n_max * level)
    ball = sum(comb(level, j) * comb(radius, j) << j for j in range(min(level, radius) + 1))
    return -(-min(ball, (2 * v_cap + 1) ** level).bit_length() // 8) * 8


@lru_cache(maxsize=None)
def theta_series(level: int, n_max: int) -> QSeries:
    """Coefficient of q**n is #{x in Z^(N-1) : theta(x) = n}, exact."""
    validate_level(level)
    if n_max < 0:
        raise ValueError("negative truncation")
    v_cap = isqrt(2 * n_max)
    width = lane_bits(level, n_max)
    lanes = n_max + 1
    mask = (1 << width * lanes) - 1
    residues = range(level + 1)
    fold = {r: min(r % (2 * level), -r % (2 * level)) for r in range(-v_cap, level + v_cap + 1)}
    # entries +-u reach t from t -+ u, both of the parity of t + u: shifts[t mod 2][u]
    shifts = [[width * (((t + u) & 1) + u * u - t) // 2 for u in range(v_cap + 1)] for t in (0, 1)]
    state = [1] + [0] * level
    for layer in range((level + 1) // 2):
        if layer == level // 2:
            half = state
        state = [
            (state[t] + sum((state[fold[t - u]] + state[fold[t + u]]) << shifts[t & 1][u]
                            for u in range(1, v_cap + 1))) & mask
            for t in residues
        ]
    total = sum((p * h) << (t % level != 0) << width * (t & 1)
                for t, p, h in zip(residues, state, half)) & mask
    nbytes = width // 8
    data = total.to_bytes(nbytes * lanes, "little")
    coeffs = [int.from_bytes(data[i : i + nbytes], "little") for i in range(0, len(data), nbytes)]
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
