"""Representation counts of the quadratic form theta and the cphi series.

theta_series(N, n) expands f_{theta_{N-1}} = sum_x q^theta(x) by dynamic
programming over coordinates on the state (s, ss) = (sum, sum of squares):
2*theta = s^2 + ss, every coordinate satisfies v^2 <= ss <= 2n, and states
with ss beyond 2n can never come back.  Counts across the s-axis are packed
into one big integer per s (fixed-width lanes indexed by ss), which turns a
coordinate step into a handful of shift-and-add operations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .arith import validate_level
from .qseries import QSeries, eta_power
from .radicals import QuarterRadical


@lru_cache(maxsize=None)
def theta_series(level: int, n_max: int) -> QSeries:
    """Coefficient of q**n is #{x in Z^(N-1) : theta(x) = n}, exact."""
    validate_level(level)
    if n_max < 0:
        raise ValueError("negative truncation")
    dim = level - 1
    if dim == 0:
        return QSeries.one(n_max)
    v_cap = isqrt(2 * n_max)
    width = 2 * v_cap + 1
    lanes = 2 * n_max + 1
    # lane width: final counts are below width**dim; pad and round to bytes
    lane_bits = ((dim * width.bit_length() + 8 + 7) // 8) * 8
    full_mask = (1 << (lane_bits * lanes)) - 1
    shifts = [(v, lane_bits * v * v) for v in range(-v_cap, v_cap + 1)]
    state = {0: 1}
    for layer in range(dim):
        s_cap = (dim - layer) * v_cap  # beyond this |s| cannot return to v_cap
        nxt: dict = {}
        for s, packed in state.items():
            for v, shift in shifts:
                ns = s + v
                if ns > s_cap or ns < -s_cap:
                    continue
                contrib = (packed << shift) & full_mask
                if contrib:
                    if ns in nxt:
                        nxt[ns] += contrib
                    else:
                        nxt[ns] = contrib
        state = nxt
    coeffs = [0] * (n_max + 1)
    nbytes = lane_bits // 8
    for s, packed in state.items():
        s2 = s * s
        if s2 > 2 * n_max:
            continue
        data = packed.to_bytes(nbytes * lanes, "little")
        for ss in range(2 * n_max - s2 + 1):
            lane = int.from_bytes(data[ss * nbytes : (ss + 1) * nbytes], "little")
            if lane:
                coeffs[(s2 + ss) // 2] += lane
    return QSeries(0, coeffs, n_max)


@lru_cache(maxsize=None)
def cphi_series(level: int, n_max: int) -> QSeries:
    """Generating series of N-colored generalized Frobenius partition counts.

    cphi_N has generating function f_{theta_{N-1}} / (q;q)_infinity^N; the
    coefficients must come out as nonnegative integers.
    """
    series = theta_series(level, n_max) * eta_power(-level, n_max)
    for n, c in enumerate(series.coefficients()):
        if not isinstance(c, int) or c < 0:
            raise ArithmeticError(f"cphi_{level}({n}) = {c} is not a nonnegative integer")
    return series


def theta_cusp_constant(level: int, d: int) -> QuarterRadical:
    """Constant term of f_{theta_{N-1}} at the cusp 1/d: i^((1-Nd)/2) sqrt(d/N)."""
    validate_level(level)
    if d < 1 or level % d:
        raise ValueError(f"d={d} does not divide N={level}")
    return QuarterRadical(1, ((1 - level * d) // 2) % 4, Fraction(d, level))
