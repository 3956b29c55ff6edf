"""Independent brute-force oracles and helpers used only by the test suite.

Each oracle computes the same quantity as a library routine through a
different route (literal enumeration, factorization, classical closed
formulas), so agreement is meaningful.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import product
from math import comb, factorial, isqrt, pi

from cphi.arith import divisors, validate_level
from cphi.characters import chi, context
from cphi.eisenstein import eisenstein_profile
from cphi.eta_partition import partition_count
from cphi.gauss_sums import GaussSumQuery, gauss_sum_numeric
from cphi.qseries import QSeries, euler_coefficients
from cphi.radicals import QuarterRadical
from cphi.theta import theta_series
from cphi.verify import main_term_series


def approx_complex(value: QuarterRadical) -> complex:
    """Floating complex value of an exact radical."""
    re, im = value.approx()
    return complex(re, im)


def evaluate_numeric(query: GaussSumQuery) -> complex:
    """The Gauss sum G_dim(a, modulus) of a query, by the numeric oracle."""
    return gauss_sum_numeric(query.dim, query.a, query.modulus)


def monomial(c, power: int, trunc: int) -> QSeries:
    """c * q**power known through q**trunc."""
    if power > trunc:
        return QSeries.zero(trunc)
    return QSeries(power, [c] + [0] * (trunc - power), trunc)


def crop(series: QSeries, trunc: int) -> QSeries:
    """series known only through q**trunc <= series.trunc."""
    if trunc > series.trunc:
        raise ValueError("crop cannot extend the guaranteed range")
    return QSeries(series.valuation, series.coefficients()[series.valuation : trunc + 1], trunc)


def from_coefficients(seq, trunc: int | None = None, valuation: int = 0) -> QSeries:
    """QSeries with the given coefficients from q**valuation, zero-padded to trunc."""
    seq = list(seq)
    if trunc is None:
        trunc = valuation + len(seq) - 1 if seq else 0
    need = trunc - valuation + 1
    if len(seq) > need:
        raise ValueError("more coefficients than the truncation admits")
    return QSeries(valuation, seq + [0] * (need - len(seq)), trunc)


def from_json_dict(d: dict) -> QSeries:
    """Inverse of QSeries.to_json_dict."""
    coeffs = [Fraction(int(num), int(den)) for num, den in d["coeffs"]]
    return QSeries(d["valuation"], coeffs, d["trunc"])


def rescale(series: QSeries, m: int) -> QSeries:
    """Substitute q -> q**m."""
    if m < 1:
        raise ValueError("rescale requires m >= 1")
    out = [0] * (len(series.coeffs) * m)
    out[::m] = series.coeffs
    return QSeries(series.valuation * m, out, (series.trunc + 1) * m - 1)


def u_operator(series: QSeries, m: int) -> QSeries:
    """U(m): coefficient n of the result is coefficient n*m of series."""
    if m < 1:
        raise ValueError("U(m) requires m >= 1")
    t = series.trunc // m
    return QSeries(0, [series.coefficient(n * m) for n in range(t + 1)], t)


def decimal_str_fraction(value: Fraction, digits: int = 12) -> str:
    """verify.decimal_str by Fraction arithmetic: round the fractional part half up."""
    f = Fraction(value)
    sign = "-" if f < 0 else ""
    f = abs(f)
    whole = f.numerator // f.denominator
    scaled = (f - whole) * 10**digits
    frac = scaled.numerator // scaled.denominator
    if 2 * (scaled - frac) >= 1:
        frac += 1
    if frac == 10**digits:
        whole += 1
        frac = 0
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


def convolve_schoolbook(a: list, b: list, out_len: int) -> list:
    """Schoolbook product of coefficient lists, truncated to out_len entries."""
    out = [0] * out_len
    # run the sparser operand on the outside
    if sum(1 for x in a if x) > sum(1 for x in b if x):
        a, b = b, a
    lb = len(b)
    for i, ai in enumerate(a):
        if not ai or i >= out_len:
            continue
        jmax = min(lb, out_len - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def partitions_brute(n: int) -> int:
    """Count partitions of n by explicit recursion over the largest part."""
    if n < 0:
        return 0

    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(
            count(remaining - part, part)
            for part in range(min(remaining, largest), 0, -1)
        )

    return count(n, n)


def euler_coefficients_product(trunc: int) -> list:
    """Coefficients 0..trunc of prod_{n=1}^{trunc} (1 - q**n), multiplied out.

    Factors beyond trunc cannot change the retained coefficients, so this is
    (q;q)_infinity through q**trunc without the pentagonal number theorem.
    """
    c = [1] + [0] * trunc
    for n in range(1, trunc + 1):
        for k in range(trunc, n - 1, -1):
            c[k] -= c[k - n]
    return c


def euler_product(trunc: int) -> QSeries:
    """(q;q)_infinity as a QSeries exact through q**trunc."""
    if trunc < 0:
        raise ValueError("negative truncation")
    return QSeries(0, list(euler_coefficients(trunc)), trunc)


def eta_power_miller(k: int, trunc: int) -> QSeries:
    """(q;q)_infinity**k by J.C.P. Miller's power recurrence, eta_power's route before the passes.

    Knuth, TAOCP vol. 2, 4.7: for b = a**k with a_0 = 1,
    n b_n = sum_{j>=1} ((k + 1) j - n) a_j b_{n-j}.  The Euler product a is +-1
    at the O(sqrt n) pentagonal numbers and 0 elsewhere, and b has integer
    coefficients, so the division by n is exact.
    """
    a = euler_product(trunc).coeffs
    terms = [(j, (k + 1) * j * aj, aj) for j, aj in enumerate(a) if j and aj]
    b = [1]
    for n in range(1, trunc + 1):
        acc = 0
        for j, kj, aj in terms:
            if j > n:
                break
            acc += (kj - aj * n) * b[n - j]
        b.append(acc // n)
    return QSeries(0, b, trunc)


def pentagonal_lists(trunc: int) -> tuple[list, list]:
    """The j in 1..trunc where (q;q)_infinity has coefficient +1, and where it has -1."""
    a = euler_coefficients(trunc)
    return tuple([j for j in range(1, len(a)) if a[j] == sign] for sign in (1, -1))


def eta_pass(part: list, plus: list, minus: list, k: int, start: int = 1) -> None:
    """One in-place pass multiplying part by (q;q)_infinity (k > 0) or dividing by it.

    The library's kernel before the walk-up stages.  plus, minus =
    pentagonal_lists(m) for some m >= len(part) - 1.  A product walks n down,
    c_n += sum_j a_j c_{n-j} with c_{n-j} not yet updated; a quotient walks n
    up from start, c_n -= the same sum, taking the entries below start as
    already divided.
    """
    for n in range(len(part) - 1, 0, -1) if k > 0 else range(start, len(part)):
        acc = 0
        for j in plus:
            if j > n:
                break
            acc += part[n - j]
        for j in minus:
            if j > n:
                break
            acc -= part[n - j]
        part[n] += acc if k > 0 else -acc


def cube_pass(part: list, terms: list, k: int) -> None:
    """eta_pass's in-place walk for (q;q)_infinity**3, terms = cube_terms(m), m >= len(part) - 1."""
    for n in range(len(part) - 1, 0, -1) if k > 0 else range(1, len(part)):
        acc = 0
        for j, a in terms:
            if j > n:
                break
            acc += a * part[n - j]
        part[n] += acc if k > 0 else -acc


def times_eta_power_pentagonal(series: QSeries, k: int, d: int = 1) -> QSeries:
    """times_eta_power before the cube passes: |k| add-only pentagonal passes per class."""
    if d < 1:
        raise ValueError(f"(q^d;q^d) needs d >= 1, got d={d}")
    c = list(series.coeffs)
    plus, minus = pentagonal_lists(max((len(c) - 1) // d, 0))
    for r in range(min(d, len(c))):
        part = c[r::d]
        if not any(part):
            continue
        for _ in range(abs(k)):
            eta_pass(part, plus, minus, k)
        c[r::d] = part
    return QSeries(series.valuation, c, series.trunc)


def prefix_exponent(level: int, d: int) -> int:
    """(N^2 - d^2) / (24 d), the power of q that the eta quotient starts at."""
    return (level**2 - d**2) // (24 * d)


def eta_quotient_by_product(level: int, d: int, n_max: int) -> QSeries:
    """eta_quotient_series by the series product it used before the residue-class passes.

    The numerator (q^(N/d);q^(N/d))^N times 1/(q^d;q^d), both rescaled from
    Miller's recurrence, so that no pentagonal pass is involved.
    """
    prefix = prefix_exponent(level, d)
    if prefix > n_max:
        return QSeries.zero(n_max)
    rest = n_max - prefix
    m = level // d
    numerator = rescale(eta_power_miller(level, rest // m), m)
    denominator_inv = rescale(eta_power_miller(-1, rest // d), d)
    return crop(numerator * denominator_inv, rest).shift(prefix)


def scaled_partition_term_fraction(level: int, d: int, n: int) -> int:
    """scaled_partition_term by the two-Fraction formula it replaced."""
    arg = Fraction(level * n, d * d) - Fraction(level**2 - d**2, 24 * d * d)
    return (level // d) * partition_count(arg)


def kronecker_factored(a: int, b: int) -> int:
    """Kronecker symbol via factorization of b and Euler's criterion.

    Independent of the reciprocity-based implementation under test.
    """
    if b == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if b < 0:
        b = -b
        if a < 0:
            sign = -sign
    result = sign
    # factor b completely, including 2
    n = b
    factors = []
    for p in [2] + list(range(3, isqrt(n) + 2, 2)):
        while n % p == 0:
            factors.append(p)
            n //= p
    if n > 1:
        factors.append(n)
    for p in factors:
        if p == 2:
            if a % 2 == 0:
                return 0
            result *= 1 if a % 8 in (1, 7) else -1
        else:
            am = a % p
            if am == 0:
                return 0
            ls = pow(am, (p - 1) // 2, p)
            result *= -1 if ls == p - 1 else 1
    return result


def theta_value(x) -> int:
    """Literal definition: sum of squares plus pairwise products."""
    total = sum(v * v for v in x)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            total += x[i] * x[j]
    return total


def theta_counts_dfs(dim: int, n_max: int) -> list:
    """Representation counts of theta by depth-first lattice enumeration."""
    counts = [0] * (n_max + 1)
    cap2 = 2 * n_max

    def rec(remaining, s, ss):
        if remaining == 0:
            total2 = s * s + ss
            if total2 <= cap2:
                counts[total2 // 2] += 1
            return
        v_cap = isqrt(cap2 - ss)
        for v in range(-v_cap, v_cap + 1):
            rec(remaining - 1, s + v, ss + v * v)

    rec(dim, 0, 0)
    return counts


def theta_series_lane_dp(level: int, n_max: int) -> QSeries:
    """theta_series by the lane DP it replaced, kept as a differential oracle.

    The DP runs over x in Z^(N-1) on the state (s, ss) = (sum, sum of
    squares), 2*theta = s^2 + ss, with no symmetry, no feasibility bound
    beyond |s| <= (coordinates left) * v_cap and a per-lane decode.
    """
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


def theta_series_mod_n(level: int, n_max: int) -> QSeries:
    """theta_series by the mod-N residue DP it replaced, kept as a differential oracle.

    N//2 + 1 folded residues, each one big integer whose lane k counts
    partial norm k for k = 0..2n, N * bits(2v+1) bits wide; the join is one
    product of (2n+1)-lane integers per residue, read at the even lanes.
    """
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


def theta_series_half_dp(level: int, n_max: int) -> QSeries:
    """theta_series by the half-length DP it replaced, kept as a differential oracle.

    A DP over the entries of y = (x, -sum x) on (s, ss) = (partial sum,
    partial norm); the counts for one s are packed into one big integer, lane
    j holding ss = 2j + (s mod 2).  With r entries to come, which sum to -s,
    the norm ends at least ss + s^2/r, so lanes past 2n - ceil(s^2/r) are
    dropped; the counts at -s equal those at s, so only s >= 0 is kept; and
    the DP stops after ceil(N/2) entries, pairing those states with the ones
    after floor(N/2): theta = sum_s (2 - [s = 0]) P_s * P'_s.
    """
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


def miller_lane_lists(level: int, n_max: int) -> tuple[list, int]:
    """g = f^N in Z[Z/N][q] by Miller's recurrence on lists, f = sum_m X^m q^(m^2).

    Returns g_s as N counts per s <= 2n, lane r counting y in Z^N with
    sum y = r mod N and |y|^2 = s, and the largest lane of the two
    accumulators before they are folded: lanes 0..2N-2, X^m and X^-m placed
    at m mod N and -m mod N above r, as `theta.coset_counts_miller` packs them.
    """
    g = [[1] + [0] * (level - 1)]
    top = 0
    for s in range(1, 2 * n_max + 1):
        pos, neg = [0] * (2 * level), [0] * (2 * level)
        for m in range(1, isqrt(s) + 1):
            c = (level + 1) * m * m - s
            acc = pos if c > 0 else neg
            for r, x in enumerate(g[s - m * m]):
                acc[r + m % level] += abs(c) * x
                acc[r + -m % level] += abs(c) * x
        top = max(top, *pos, *neg)
        lanes = []
        for r in range(level):
            q, rem = divmod(pos[r] + pos[r + level] - neg[r] - neg[r + level], s)
            if rem or q < 0:
                raise ArithmeticError(f"step {s} lane {r} is not a count")
            lanes.append(q)
        g.append(lanes)
    return g, top


def _frobenius_half(level: int, n_max: int, first: int) -> dict:
    """prod_{m >= first} (1 + w q^m)^N as {k: coefficients of w^k at q^0..q^n_max}."""
    half = {0: [1] + [0] * n_max}
    for m in range(first, n_max + 1):
        nxt: dict = {}
        for k, poly in half.items():
            for j in range(level + 1):
                if j * m > n_max:
                    break
                c = comb(level, j)
                target = nxt.setdefault(k + j, [0] * (n_max + 1))
                for d in range(n_max + 1 - j * m):
                    target[d + j * m] += c * poly[d]
        half = nxt
    return half


def cphi_constant_term(level: int, n_max: int) -> list:
    """cphi_N(0..n_max) from Andrews' definition (Mem. AMS 301, 1984).

    CPhi_N(q) = CT_z prod_{m>=0} (1 + z q^(m+1))^N (1 + z^-1 q^m)^N.  The
    first product is sum_k z^k A_k(q), the second sum_k z^-k B_k(q), so the
    constant term is sum_k A_k B_k.  Plain lists and dicts: no lattice DP,
    no Jacobi triple product, no eta_power and no Kronecker product.
    """
    a = _frobenius_half(level, n_max, 1)
    b = _frobenius_half(level, n_max, 0)
    out = [0] * (n_max + 1)
    for k in a.keys() & b.keys():
        for i, x in enumerate(a[k]):
            if x:
                for j in range(n_max + 1 - i):
                    out[i + j] += x * b[k][j]
    return out


def residual_by_partition_side(level: int, n_max: int) -> QSeries:
    """C = f_theta - (q;q)^N * main, the route residual_series used before (q;q)^N * b.

    The lattice count minus the partition side times Miller's (q;q)^N, by one
    series product.
    """
    main = main_term_series(level, n_max)
    return theta_series(level, n_max) - crop(eta_power_miller(level, n_max) * main, n_max)


def correction_series_by_division(level: int, n_max: int) -> QSeries:
    """b = C / (q;q)^N, with C from the partition-side route, by one series product."""
    return crop(residual_by_partition_side(level, n_max) * eta_power_miller(-level, n_max), n_max)


def theta_residue_counts_mod_2c(dim: int, modulus: int) -> tuple:
    """Exact counts of theta(x) mod `modulus` over x in (Z/modulus)^dim.

    Tracks (s, ss) = (sum, sum of squares) mod 2*modulus; s^2 + ss is always
    even, so theta mod modulus is determined.
    """
    m2 = 2 * modulus
    table = {(0, 0): 1}
    values = [(v % m2, (v * v) % m2) for v in range(modulus)]
    for _ in range(dim):
        nxt: dict = {}
        for (s, ss), cnt in table.items():
            for dv, dss in values:
                key = ((s + dv) % m2, (ss + dss) % m2)
                if key in nxt:
                    nxt[key] += cnt
                else:
                    nxt[key] = cnt
        table = nxt
    counts = [0] * modulus
    for (s, ss), cnt in table.items():
        counts[((s * s + ss) % m2) // 2] += cnt
    return tuple(counts)


def gauss_naive(dim: int, a: int, c: int) -> complex:
    """Literal term-by-term Gauss sum over (Z/c)^dim; keep c**dim small."""
    total = 0j
    for x in product(range(c), repeat=dim):
        total += cmath.exp(2j * pi * ((a * theta_value(x)) % c) / c)
    return total


def twisted_gauss_naive(dim: int, a: int, p: int, twist: int) -> complex:
    """sum over x of e(a (theta(x) - twist * x_dim^2)/p), literal."""
    total = 0j
    for x in product(range(p), repeat=dim):
        value = theta_value(x) - twist * x[-1] * x[-1] if dim else 0
        total += cmath.exp(2j * pi * ((a * value) % p) / p)
    return total


# classical Bernoulli numbers, minus convention (B_1 = -1/2)
BERNOULLI_MINUS = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
    Fraction(0),
    Fraction(7, 6),
    Fraction(0),
    Fraction(-3617, 510),
    Fraction(0),
    Fraction(43867, 798),
]


def classical_bernoulli_minus(count: int) -> list:
    """B_0 .. B_{count-1}, minus convention, from sum_{j=0}^{m} C(m+1, j) B_j = 0 (m >= 1)."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


CLASSICAL_BERNOULLI = classical_bernoulli_minus(65)


def bernoulli_chi_polynomial_route(k: int, level: int, chi) -> Fraction:
    """B_{k,chi} = f^(k-1) sum_{a=1}^{f} chi(a) B_k(a/f), classical formula.

    With B_k(x) = sum_j C(k,j) B_j x^(k-j) (minus convention) and the sum over
    a taken first: B_{k,chi} = sum_j C(k,j) B_j f^(j-1) sum_a chi(a) a^(k-j).
    """
    power_sums = [sum(chi(level, a) * a**m for a in range(1, level + 1)) for m in range(k + 1)]
    total = sum(
        comb(k, j) * CLASSICAL_BERNOULLI[j] * level**j * power_sums[k - j]
        for j in range(k + 1)
    )
    return Fraction(total) / level


def multi_partition_sigma_route(r: int, n_max: int) -> list:
    """Coefficients of 1/(q;q)^r by the divisor-sum recurrence.

    Logarithmic differentiation of prod (1-q^k)^(-r) gives
    n V_r(n) = r sum_{k=1}^{n} sigma(k) V_r(n-k), with V_r(0) = 1.
    """
    sigma = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            sigma[m] += d
    coeffs = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = r * sum(sigma[k] * coeffs[n - k] for k in range(1, n + 1))
        coeffs[n] = total // n
    return coeffs


def bernoulli_chi_series_route(k: int, level: int) -> Fraction:
    """bernoulli_chi by QSeries.inverse and one product, the route before term-by-term division."""
    power_sums = [0] * (k + 1)
    for a in range(1, level + 1):
        ca = chi(level, a)
        if ca:
            aj = 1
            for j in range(k + 1):
                power_sums[j] += ca * aj
                aj *= a
    num = QSeries(0, [Fraction(s, factorial(j)) for j, s in enumerate(power_sums)], k)
    den = QSeries(
        0, [Fraction(level ** (j + 1), factorial(j + 1)) for j in range(k + 1)], k
    )
    series = num * den.inverse()
    return Fraction(series.coefficient(k)) * factorial(k)


def bernoulli_chi_term_division(k: int, level: int) -> Fraction:
    """Generalized Bernoulli number B_{k, chi_level} by exact series division.

    Expands sum_{a=1}^{N} chi_N(a) t e^{at} / (e^{Nt} - 1) as a power series
    in t with rational coefficients and reads off k! times the t^k term.  The
    division is term by term: b_n = (num_n - sum_{j>=1} den_j b_{n-j}) / den_0.
    The N = 1 case reproduces the classical numbers with B_1 = +1/2.  This was
    bernoulli_chi before the per-level table and its recurrence.
    """
    # numerator: sum_a chi(a) e^{at} = sum_j (sum_a chi(a) a^j) t^j / j!
    power_sums = [0] * (k + 1)
    for a in range(1, level + 1):
        ca = chi(level, a)
        if ca:
            aj = 1
            for j in range(k + 1):
                power_sums[j] += ca * aj
                aj *= a
    num = [Fraction(s, factorial(j)) for j, s in enumerate(power_sums)]
    # denominator: (e^{Nt} - 1)/t = sum_j N^{j+1} t^j / (j+1)!
    den = [Fraction(level ** (j + 1), factorial(j + 1)) for j in range(k + 1)]
    b = []
    for n in range(k + 1):
        b.append((num[n] - sum(den[j] * b[n - j] for j in range(1, n + 1))) / den[0])
    return b[k] * factorial(k)


def twisted_divisor_sums(k: int, level: int, n: int) -> dict:
    """{d: sigma_twisted(k, level, d, n)} for every d | N, N a valid level.

    chi_d = prod_{p | d} chi_p, so divisors(n) once and chi_p(t) once per prime
    p | N and t | n give chi_d(t) and chi_{N/d}(n/t) for every d.  This was the
    library's per-n route before the divisor sieve of theta_eisenstein_series.
    """
    if k < 0:
        raise ValueError("negative weight exponent")
    level_divisors, level_primes = context(level)
    chis = {t: {1: 1} for t in divisors(n)}  # chis[t][d] = chi_d(t); divisors rejects n < 1
    for p in level_primes:
        for t, row in chis.items():
            c = chi(p, t)
            row.update([(d * p, s * c) for d, s in row.items()])
    return {d: sum(row[d] * chis[n // t][level // d] * t**k for t, row in chis.items())
            for d in level_divisors}


def eisenstein_coefficient(level: int, n: int) -> Fraction:
    """Coefficient of q**n (n >= 1) in the theta Eisenstein part, divisor-sum route of one n."""
    if n < 1:
        raise ValueError("coefficients start at n = 1")
    prefactor, signs = eisenstein_profile(level)
    k = (level - 3) // 2
    sums = twisted_divisor_sums(k, level, n)
    # prefactor * C(d,N) * (N/d)^k per divisor, summed in integers
    return prefactor * sum(sign * (level // d) ** k * sums[d] for d, sign in signs.items())
