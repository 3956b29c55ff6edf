"""Representation counts of the quadratic form theta and the cphi series.

For x in Z^(N-1), y = (x, -sum x) lies in the root lattice A_{N-1} and
|y|^2 = 2 theta(x), so the coefficient of q^n in f_{theta_{N-1}} counts zero-sum
y in Z^N of norm 2n: the zeta-constant term of (sum_m zeta^m Q^(m^2))^N at
Q^(2n).  theta_series runs a DP over the entries of y on (s, ss) = (partial
sum, partial norm); the counts for one s are packed into one big integer, lane
j holding ss = 2j + (s mod 2).  With r entries to come, which sum to -s, the
norm ends at least ss + s^2/r, so lanes past 2n - ceil(s^2/r) are dropped; the
counts at -s equal those at s, so only s >= 0 is kept; and the DP stops after
ceil(N/2) entries, pairing those states with the ones after floor(N/2):
theta = sum_s (2 - [s = 0]) P_s * P'_s, one big-integer (Kronecker) product per s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .arith import validate_level
from .qseries import QSeries, times_eta_power
from .radicals import QuarterRadical


@lru_cache(maxsize=None)
def theta_series(level: int, n_max: int) -> QSeries:
    """Coefficient of q**n is #{x in Z^(N-1) : theta(x) = n}, exact."""
    validate_level(level)
    if n_max < 0:
        raise ValueError("negative truncation")
    if level == 1:
        return QSeries.one(n_max)
    v_cap = isqrt(2 * n_max)
    # A lane counts distinct vectors with entries in [-v_cap, v_cap]: at most
    # w**layers in a state and w**(N-1) in a product (N-1 entries fix a zero-sum
    # y), w = 2 v_cap + 1, which lane_bits holds; a carry out of a lane, if any,
    # could only move upward, away from the lanes read.
    lane_bits = -(-(level - 1) * (2 * v_cap + 1).bit_length() // 8) * 8
    low, high = level // 2, (level + 1) // 2

    def lane_mask(s: int, rest: int, shift: int) -> int:
        """Lanes at sum s that, moved up by `shift`, can still reach norm 2n."""
        lanes = (2 * n_max + (-s * s // rest) - (s & 1)) // 2 + 1 - shift
        return (1 << lane_bits * max(lanes, 0)) - 1

    state = {0: 1}
    for layer in range(1, high + 1):
        rest = level - layer
        nxt: dict = {}
        for s, packed in state.items():
            for u in range(v_cap + 1):
                shift = ((s & 1) + u * u - ((s + u) & 1)) // 2
                # steps +-u from s, and from its mirror -s, folded back to >= 0
                targets = [s + u] + [s - u] * (0 < u <= s) + [u - s] * (0 < s <= u)
                step = packed & lane_mask(min(targets), rest, shift)
                step <<= lane_bits * shift
                for t in targets:
                    nxt[t] = nxt.get(t, 0) + step
        state = {t: kept for t, p in nxt.items() if (kept := p & lane_mask(t, rest, 0))}
        if layer == low:
            half = state
    total = sum(
        ((2 - (s == 0)) * p * half[s]) << lane_bits * (s & 1)
        for s, p in state.items() if s in half
    )
    nbytes, lanes = lane_bits // 8, n_max + 1
    data = (total & ((1 << lane_bits * lanes) - 1)).to_bytes(nbytes * lanes, "little")
    coeffs = [int.from_bytes(data[i : i + nbytes], "little")
              for i in range(0, len(data), nbytes)]
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
    if d < 1 or level % d:
        raise ValueError(f"d={d} does not divide N={level}")
    return QuarterRadical(1, ((1 - level * d) // 2) % 4, Fraction(d, level))
