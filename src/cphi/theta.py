"""Representation counts of the quadratic form theta and the cphi series.

For x in Z^(N-1), y = (x, -sum x) lies in the root lattice A_{N-1} and
|y|^2 = 2 theta(x), so the coefficient of q^n in f_{theta_{N-1}} counts zero-sum
y in Z^N of norm 2n.  theta_series counts all y in Z^N with sum y = 0 mod 2N
instead, and divides the surplus out.  If sum y = mN, then y = x + m(1,...,1)
with x in A_{N-1} and |y|^2 = |x|^2 + N m^2; N is odd (coprime to 6), so the
norm is even exactly when m is, and the counts at norm 2j are
theta * sum_m q^(2N m^2).  The pass theta(j) -= 2 sum_{m>=1} theta(j - 2N m^2),
walking j upwards, recovers theta.  Two routes give those counts; which one
runs depends on N alone.  Each level holds its theta at the longest prefix
computed so far (qseries.held): a shorter request crops it, a longer one
continues the pass from the first missing j, with the counts from Miller's
held g_s continued in place, or from the DP recomputed.

The DP (N < MILLER_LEVEL) runs over the entries of y and keeps only the
partial sum mod 2N.  A residue t stands for t and -t, whose counts are equal,
so there are N + 1 states.  Since u^2 = u mod 2, the partial norm has the
parity of the partial sum, so each state is one big integer of n + 1 lanes,
lane i counting partial norm 2i + (t mod 2).  An entry u, |u| <= v = isqrt(2n),
moves s = t - u to t and lane i to lane i + ((s mod 2) + u^2 - (t mod 2))/2.
The DP stops after ceil(N/2) entries and pairs those states with the ones
after floor(N/2): sum_t c_t P_t * P'_t, shifted up by (t mod 2) lanes, with
c_t = 1 for t in {0, N} and 2 otherwise; lane j of the sum is norm 2j.
lane_bits gives the lane width.  Cost: ceil(N/2) (N + 1) v shifted adds on
integers of n + 1 lanes, which grows like N^2.

Miller's route (N >= MILLER_LEVEL) writes f = sum_m X^m q^(m^2), X the
generator of Z/N, so lane r of g_s in g = f^N counts y with sum y = r mod N
and |y|^2 = s.  Lane 0 at s = 2j is the count above: sum y = mN with m odd
would make the norm odd, as |y|^2 = sum y mod 2 and N is odd.  J.C.P.
Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7), from f q dg/dq =
N g q df/dq, gives

    s g_s = sum_{m >= 1, m^2 <= s} ((N+1) m^2 - s) (X^m + X^-m) g_(s - m^2).

Each g_s is one big integer of N lanes, and X^(+-m) g moves g up by
(+-m mod N) lanes, into lanes 0..2N-2.  Terms with a positive factor go into
one accumulator and those with a negative factor into another, so both have
nonnegative lanes; each is folded, lane r + N onto lane r, and their
difference is s g_s(r) >= 0 lane by lane, so the subtraction borrows across
no lane and // s is exact.  accumulator_bits gives the lane width: lane_bits
plus the bits of 2n (N+2) (v+1), plus 1, in whole bytes; a carry out of
unfolded lane N - 1 would cross the fold.  Cost: sum_{s <= 2n} isqrt(s),
about (2/3) (2n)^1.5, terms of a multiply, two shifts and two adds on
N-lane integers, nearly independent of N.  Each g_s depends only on earlier
terms, so MillerPowers keeps g and appends to it; when a longer prefix
widens accumulator_bits, the held g_s are first rewritten at the new width.

Seconds for the counts in one process, best of 5 (Intel Xeon, x86_64,
CPython 3.11):

    N@n      DP      Miller  |  N@n      DP      Miller
    5@200    0.0005  0.0016  |  19@200   0.0100  0.0039
    5@1600   0.0107  0.0380  |  23@200   0.0170  0.0052
    11@600   0.0136  0.0123  |  35@200   0.0523  0.0091
    13@200   0.0041  0.0027  |  55@162   0.1098  0.0128
    13@600   0.0214  0.0144  |  77@304   0.7306  0.0597
    17@200   0.0080  0.0032  |  95@470   2.7766  0.1702

The DP wins at N = 5 (and at 11@600: 0.0165 against 0.0238 s, best of 7 in
another run, while Miller won at 11@200), Miller wins at 13 by 1.4-1.5x, and
from 17 on by 2.5x or more, a gap that grows like N.  So Miller's route
starts at 13, where it also continues in place to a longer prefix; 11 stays
on the DP.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

from .arith import check_divides, validate_level
from .qseries import LEVELS_HELD, EtaChain, QSeries, held
from .radicals import QuarterRadical

MILLER_LEVEL = 13  # theta_series takes Miller's route from this level up


def lane_bits(level: int, n_max: int) -> int:
    """Width of one lane of the DP's states and join and of Miller's g_s, in whole bytes.

    A lane counts distinct y in Z^N with |y|^2 = k <= 2n (entries not yet
    placed are 0), and |y|_1 <= sqrt(N k) <= R = isqrt(2nN) by Cauchy-Schwarz:
    at most sum_j C(N,j) 2^j C(R,j) vectors (j nonzero entries), and at most
    (2v+1)^N, all entries in [-v, v].  The one exception is the DP's top lane
    at an odd residue, norm 2n + 1: it is never read, and what overflows it
    leaves through the mask.
    """
    v_cap = isqrt(2 * n_max)
    radius = isqrt(2 * n_max * level)
    ball = sum(comb(level, j) * comb(radius, j) << j for j in range(min(level, radius) + 1))
    return -(-min(ball, (2 * v_cap + 1) ** level).bit_length() // 8) * 8


def accumulator_bits(level: int, n_max: int) -> int:
    """Width of one lane of Miller's accumulators, in whole bytes.

    Per lane, a step adds c g_(s-m^2)(r') at most twice for each m <= M =
    isqrt(s), every g below 2^lane_bits.  The positive factors sum to at most
    (N+1) M(M+1)(2M+1)/6 <= (N+1)(M+1) s/2 and the negative ones to at most
    M s, so twice either sum is at most 2n (N+2) (v+1); one bit more is slack.
    """
    v_cap = isqrt(2 * n_max)
    bits = lane_bits(level, n_max) + (2 * n_max * (level + 2) * (v_cap + 1)).bit_length() + 1
    return -(-bits // 8) * 8


def coset_counts_dp(level: int, n_max: int) -> list[int]:
    """#{y in Z^N : sum y = 0 mod 2N, |y|^2 = 2j} for j <= n, by the DP over entries."""
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
    return [int.from_bytes(data[i : i + nbytes], "little") for i in range(0, len(data), nbytes)]


class MillerPowers:
    """g = f^N by Miller's recurrence, g_s for s <= len(g) - 1, continued on request.

    Each g_s depends only on earlier terms, so a longer prefix appends to g.
    When accumulator_bits grows, the stored g_s are rewritten at the new
    width first: every lane moves up to its new offset.
    """

    __slots__ = ("level", "width", "g")

    def __init__(self, level: int):
        # g_0 = 1 is lane 0 = 1 at any width
        self.level, self.width, self.g = level, 8, [1]

    def counts(self, n_max: int) -> list:
        """#{y in Z^N : sum y = 0 mod N, |y|^2 = 2j} for j <= n."""
        level, g = self.level, self.g
        width = accumulator_bits(level, n_max)
        if width > self.width:
            old, new = self.width // 8, width // 8
            pad = bytes(new - old)
            for s, x in enumerate(g):
                data = x.to_bytes(old * level, "little")
                g[s] = int.from_bytes(b"".join(data[i : i + old] + pad
                                                for i in range(0, len(data), old)), "little")
            self.width = width
        span = level * width
        mask = (1 << span) - 1
        # X^m and X^-m, m taken mod N, as left shifts into lanes 0..2N-2
        shifts = [((m % level) * width, (-m % level) * width) for m in range(isqrt(2 * n_max) + 1)]
        for s in range(len(g), 2 * n_max + 1):
            pos = neg = 0
            for m in range(1, isqrt(s) + 1):
                c = (level + 1) * m * m - s
                h = c * g[s - m * m]
                up, down = shifts[m]
                if c > 0:
                    pos += (h << up) + (h << down)
                else:
                    neg -= (h << up) + (h << down)
            # fold lane r + N onto lane r; pos - neg = s g_s lane by lane
            g.append(((pos & mask) + (pos >> span) - (neg & mask) - (neg >> span)) // s)
        lane = (1 << width) - 1
        return [g[2 * j] & lane for j in range(n_max + 1)]


@lru_cache(maxsize=LEVELS_HELD)
def theta_series(level: int, n_max: int) -> QSeries:
    """Coefficient of q**n is #{x in Z^(N-1) : theta(x) = n}, exact."""
    validate_level(level)
    if n_max < 0:
        raise ValueError("negative truncation")
    theta = held(level, "theta", list)
    if len(theta) <= n_max:
        if level >= MILLER_LEVEL:
            counts = held(level, "miller", lambda: MillerPowers(level)).counts(n_max)
        else:
            counts = coset_counts_dp(level, n_max)
        # the coset pass walks up, so it continues where the held prefix ends
        step = 2 * level
        for j in range(len(theta), n_max + 1):
            theta.append(counts[j] - 2 * sum(theta[j - step * m * m]
                                             for m in range(1, isqrt(j // step) + 1)))
    return QSeries(0, theta[: n_max + 1], n_max)


def cphi_series(level: int, n_max: int) -> QSeries:
    """Generating series of N-colored generalized Frobenius partition counts.

    cphi_N has generating function f_{theta_{N-1}} / (q;q)_infinity^N; the
    coefficients must come out as nonnegative integers.  The quotient is the
    level's held EtaChain, continued from its first missing coefficient; that
    store is the only cache, so a repeated call copies the held prefix.
    """
    theta = theta_series(level, n_max).coeffs
    chain = held(level, "cphi", lambda: EtaChain(-level))
    known = len(chain.stages[-1])
    cphi = chain.extend(theta)
    for n in range(known, n_max + 1):
        c = cphi[n]
        if not isinstance(c, int) or c < 0:
            raise ArithmeticError(f"cphi_{level}({n}) = {c} is not a nonnegative integer")
    return QSeries(0, cphi[: n_max + 1], n_max)


def theta_cusp_constant(level: int, d: int) -> QuarterRadical:
    """Constant term of f_{theta_{N-1}} at the cusp 1/d: i^((1-Nd)/2) sqrt(d/N)."""
    validate_level(level)
    check_divides(d, level)
    return QuarterRadical(1, ((1 - level * d) // 2) % 4, Fraction(d, level))
