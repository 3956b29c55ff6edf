"""Exact truncated formal power series in q.

A QSeries stores exact coefficients for q**valuation .. q**trunc and makes no
claim beyond trunc.  Every operation propagates the guaranteed range
pessimistically: a returned coefficient is either exact or absent, never
approximate.  Coefficients are Python ints where integral and Fraction
otherwise; the two mix transparently.

Every eta factor (q^d;q^d)_infinity**k is applied by one primitive,
times_eta_power(series, k, d), without a product.  (q^d;q^d) is a series in
q**d, so it maps the coefficients at exponents = r mod d only to exponents = r
mod d: each residue class is a series in its own right, and the factor acts
on it as (q;q)**k does.  That is an EtaChain of |k| // 3 stages of Jacobi's
cube (q;q)**3 = sum_m (-1)**m (2m+1) q**(m(m+1)/2), about sqrt(2n) weighted
terms, and |k| mod 3 add-only stages over the about 1.63 sqrt(n) pentagonal
terms of (q;q), so three factors cost about a third of three pentagonal
stages.  A stage walks up and only appends: a product is out[n] = in[n] +
sum a_j in[n-j], a quotient out[n] = in[n] - sum a_j out[n-j], each over the
exact prefix of terms with j <= n.  So a chain continues to a longer prefix
from its first missing coefficient; held() keeps such chains, and the
other series of a level, at the longest prefix computed so far.  The
partition table is one pentagonal quotient stage, continued in place.
The product of two series is the plain truncated double loop; pow and the
tests use it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter


def _as_exact(x):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"coefficient must be int or Fraction, got {type(x).__name__}")


def _convolve(a, b, out_len: int) -> list:
    """Product of coefficient lists, truncated to out_len entries."""
    out = [0] * out_len
    for i, x in enumerate(a[:out_len]):
        if x:
            for j, y in enumerate(b[: out_len - i]):
                out[i + j] += x * y
    return out


class QSeries:
    """Truncated power series: coeffs[j] is the coefficient of q**(valuation+j)."""

    __slots__ = ("valuation", "coeffs", "trunc")

    def __init__(self, valuation: int, coeffs, trunc: int):
        if valuation < 0:
            raise ValueError("negative valuation (Laurent series unsupported)")
        if trunc < 0:
            raise ValueError("negative truncation")
        cs = tuple(_as_exact(c) for c in coeffs)
        if cs and not any(cs):
            cs = ()
        if not cs:
            valuation = 0
        else:
            if trunc < valuation:
                raise ValueError("trunc below valuation for a nonzero series")
            if len(cs) != trunc - valuation + 1:
                raise ValueError(
                    f"need {trunc - valuation + 1} coefficients, got {len(cs)}"
                )
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *args):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls(0, (), trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls(0, [1] + [0] * trunc, trunc)

    # -- accessors ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, n: int):
        """Exact coefficient of q**n; raises beyond the guaranteed range."""
        if n > self.trunc:
            raise ValueError(f"coefficient of q^{n} beyond truncation {self.trunc}")
        if n < self.valuation or not self.coeffs:
            return 0
        return self.coeffs[n - self.valuation]

    def coefficients(self) -> list:
        """All coefficients as an absolute list for q**0 .. q**trunc."""
        out = [0] * (self.trunc + 1)
        for j, c in enumerate(self.coeffs):
            out[self.valuation + j] = c
        return out

    def order(self) -> int | None:
        """Smallest power with nonzero coefficient, or None for the zero series."""
        for j, c in enumerate(self.coeffs):
            if c:
                return self.valuation + j
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coefficients() == other.coefficients()

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        more = ", ..." if len(self.coeffs) > 6 else ""
        return f"QSeries(q^{self.valuation}*[{head}{more}], trunc={self.trunc})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.trunc, other.trunc)
        v = min(self.valuation, other.valuation, t)
        out = [0] * (t - v + 1)
        for src in (self, other):
            for j, c in enumerate(src.coeffs):
                n = src.valuation + j
                if n <= t:
                    out[n - v] += c
        return QSeries(v, out, t)

    def __neg__(self) -> "QSeries":
        return QSeries(self.valuation, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, c) -> "QSeries":
        if c == 0:
            return QSeries.zero(self.trunc)
        return QSeries(self.valuation, [c * x for x in self.coeffs], self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.trunc + other.valuation, other.trunc + self.valuation)
        if self.is_zero() or other.is_zero():
            return QSeries.zero(trunc)
        val = self.valuation + other.valuation
        out = _convolve(self.coeffs, other.coeffs, trunc - val + 1)
        return QSeries(val, out, trunc)

    __rmul__ = __mul__

    def pow(self, k: int) -> "QSeries":
        """k-th power by repeated squaring, k >= 0."""
        if k < 0:
            raise ValueError("negative power")
        result = QSeries.one(self.trunc)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    __pow__ = pow

    def inverse(self, trunc: int | None = None) -> "QSeries":
        """Multiplicative inverse up to trunc via b_n = -(1/a_0) sum a_j b_{n-j}."""
        if trunc is None:
            trunc = self.trunc
        if trunc > self.trunc:
            raise ValueError("cannot invert beyond the guaranteed truncation")
        if self.valuation != 0 or not self.coeffs or self.coeffs[0] == 0:
            raise ValueError(
                "inverse requires a nonzero constant term; shift the series first"
            )
        a = self.coefficients()[: trunc + 1]
        a0 = a[0]
        inv0 = _as_exact(Fraction(1) / Fraction(a0))
        nonzero = [(j, aj) for j, aj in enumerate(a) if j and aj]
        b = [inv0]
        for n in range(1, trunc + 1):
            acc = 0
            for j, aj in nonzero:
                if j > n:
                    break
                acc += aj * b[n - j]
            b.append(-acc * inv0)  # QSeries makes integral Fractions ints
        return QSeries(0, b, trunc)

    # -- substitution operators --------------------------------------------

    def shift(self, k: int) -> "QSeries":
        """Multiply by q**k."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero():
            return QSeries.zero(self.trunc + k)
        return QSeries(self.valuation + k, self.coeffs, self.trunc + k)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        coeffs = [[str(c.numerator), str(c.denominator)] for c in self.coeffs]
        return {"valuation": self.valuation, "trunc": self.trunc, "coeffs": coeffs}


# -- the Euler product, its powers, and the series store ----------------------


def euler_coefficients(trunc: int) -> tuple:
    """Coefficients 0..trunc of (q;q)_infinity = prod_{n>=1} (1 - q**n).

    Euler's pentagonal number theorem: the coefficient of q**j is (-1)**m at
    the generalized pentagonal numbers j = m(3m -+ 1)/2 and 0 elsewhere.
    """
    c = [0] * (trunc + 1)
    for j, a in pentagonal_terms(trunc):
        c[j] = a
    if c:
        c[0] = 1
    return tuple(c)


def pentagonal_terms(trunc: int) -> list:
    """The (j, a_j) with 1 <= j <= trunc and a_j != 0 in (q;q)_infinity = 1 + sum a_j q**j, by j.

    a_j = (-1)**m at the generalized pentagonal numbers j = m(3m -+ 1)/2.
    """
    terms, m = [], 1
    while m * (3 * m - 1) // 2 <= trunc:
        a = -1 if m & 1 else 1
        terms.append((m * (3 * m - 1) // 2, a))
        if m * (3 * m + 1) // 2 <= trunc:
            terms.append((m * (3 * m + 1) // 2, a))
        m += 1
    return terms


def cube_terms(trunc: int) -> list:
    """The (j, a_j) with 1 <= j <= trunc and a_j != 0 in (q;q)_infinity**3 = sum a_j q**j.

    Jacobi's identity: a_j = (-1)**m (2m+1) at the triangular numbers
    j = m(m+1)/2, and 0 elsewhere.
    """
    terms, m = [], 1
    while m * (m + 1) // 2 <= trunc:
        terms.append((m * (m + 1) // 2, -(2 * m + 1) if m & 1 else 2 * m + 1))
        m += 1
    return terms


def _exact_prefixes(terms: list, start: int, stop: int):
    """(lo, hi, active) over start..stop-1, where active holds exactly the terms with j <= n
    for every lo <= n < hi; terms are sorted by j and hold every j < stop."""
    i = 0
    while i < len(terms) and terms[i][0] <= start:
        i += 1
    lo = start
    while lo < stop:
        hi = min(terms[i][0], stop) if i < len(terms) else stop
        yield lo, hi, terms[:i]
        lo, i = hi, i + 1


def _gather(offsets: list):
    """seq -> the tuple of seq's entries at offsets (itemgetter gives a bare entry for one)."""
    if len(offsets) == 1:
        (k,) = offsets
        return lambda seq: (seq[k],)
    return itemgetter(*offsets) if offsets else lambda seq: ()


def pentagonal_stage(src, out: list, stop: int, terms: list, quotient: bool) -> None:
    """Append out[len(out):stop] of src * (q;q)_infinity, or of src / (q;q)_infinity.

    terms = pentagonal_terms(m), m >= stop - 1.  A product is out[n] = src[n] +
    sum a_j src[n - j], a quotient out[n] = src[n] - sum a_j out[n - j]; both
    only append, so a stage continues from its first missing entry.  Every
    a_j is +-1, so the sums are adds: the quotient gathers out[n - j] at
    fixed negative offsets, as len(out) = n while out[n] is computed.
    """
    for lo, hi, active in _exact_prefixes(terms, len(out), stop):
        plus = [j for j, a in active if a > 0]
        minus = [j for j, a in active if a < 0]
        if quotient:
            add, subtract = _gather([-j for j in minus]), _gather([-j for j in plus])
            for n in range(lo, hi):
                out.append(src[n] + sum(add(out)) - sum(subtract(out)))
        else:
            for n in range(lo, hi):
                out.append(src[n] + sum([src[n - j] for j in plus]) - sum([src[n - j] for j in minus]))


def cube_stage(src, out: list, stop: int, terms: list, quotient: bool) -> None:
    """Append out[len(out):stop] of src * (q;q)_infinity**3, or of src / (q;q)_infinity**3.

    terms = cube_terms(m), m >= stop - 1; the walk is pentagonal_stage's,
    with each term weighted by its a_j.
    """
    for lo, hi, active in _exact_prefixes(terms, len(out), stop):
        if quotient:
            active = [(-j, -a) for j, a in active]
            for n in range(lo, hi):
                acc = src[n]
                for j, a in active:
                    acc += a * out[j]
                out.append(acc)
        else:
            for n in range(lo, hi):
                acc = src[n]
                for j, a in active:
                    acc += a * src[n - j]
                out.append(acc)


class EtaChain:
    """A coefficient list times (q;q)_infinity**k, kept stage by stage so that it extends.

    |k| // 3 cube stages, each (q;q)**3 by Jacobi's identity, then |k| mod 3
    pentagonal stages; each stage reads the one before it (the first reads
    the source) and only appends, so a longer source continues every stage
    from its first missing entry.  An all-zero source runs no stage: each is
    padded with zeros, which a later nonzero source continues.
    """

    __slots__ = ("k", "stages")

    def __init__(self, k: int):
        self.k = k
        self.stages = [[] for _ in range(abs(k) // 3 + abs(k) % 3)]

    def extend(self, src) -> list:
        """The last stage, holding at least len(src) coefficients of src * (q;q)**k (src if k = 0)."""
        stop, cubes = len(src), abs(self.k) // 3
        if self.stages and not any(src):  # every stage of a zero prefix is zero
            for out in self.stages:
                out += [0] * (stop - len(out))
            return self.stages[-1]
        terms = (cube_terms(stop - 1), pentagonal_terms(stop - 1))
        for i, out in enumerate(self.stages):
            if len(out) < stop:
                stage = cube_stage if i < cubes else pentagonal_stage
                stage(src, out, stop, terms[i >= cubes], self.k < 0)
            src = out
        return src


def times_eta_power(series: QSeries, k: int, d: int = 1) -> QSeries:
    """series * (q^d;q^d)_infinity**k exact through series.trunc, for any integer k.

    (q^d;q^d) = 1 + sum a_j q**(d j) acts on each residue class c[r::d] of the
    coefficients on its own, as (q;q) does on a series; a class with no
    nonzero coefficient stays zero and is skipped.  Each nonzero class runs
    through one EtaChain: |k| // 3 cube stages and |k| mod 3 add-only
    pentagonal stages.
    """
    if d < 1:
        raise ValueError(f"(q^d;q^d) needs d >= 1, got d={d}")
    c = list(series.coeffs)
    for r in range(min(d, len(c))):
        part = c[r::d]
        if any(part):
            c[r::d] = EtaChain(k).extend(part)
    return QSeries(series.valuation, c, series.trunc)


def eta_power(k: int, trunc: int) -> QSeries:
    """(q;q)_infinity**k exact through q**trunc; for k = -1, Euler's partition recurrence."""
    return times_eta_power(QSeries.one(trunc), k)


LEVELS_HELD = 8  # levels held, least recently used dropped first; the `session` benchmark reads 7

_STORES: dict = {}


def held(level: int, kind: str, make):
    """The state of one series kind held for one level, made by make() on first use.

    Each kind is held at the longest prefix computed so far: a shorter
    request crops it, a longer one continues it.  At most LEVELS_HELD levels
    are held; touching one makes it the most recent.
    """
    store = _STORES.pop(level, None)
    _STORES[level] = store = {} if store is None else store
    if len(_STORES) > LEVELS_HELD:
        del _STORES[next(iter(_STORES))]
    if kind not in store:
        store[kind] = make()
    return store[kind]
