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
on it as (q;q)**k does.  That is |k| // 3 passes of Jacobi's cube
(q;q)**3 = sum_m (-1)**m (2m+1) q**(m(m+1)/2), about sqrt(2n) weighted terms,
and |k| mod 3 add-only passes over the about 1.63 sqrt(n) pentagonal terms of
(q;q), so three factors cost about a third of three pentagonal passes.  The
partition table stays on the add-only pentagonal pass: it divides by (q;q)
once per extension, and one weighted kernel for both made it slower.
The product of two series is the plain truncated double loop; pow and the
tests use it.
"""

from __future__ import annotations

from fractions import Fraction


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
    def constant(cls, c, trunc: int) -> "QSeries":
        return cls(0, [c] + [0] * trunc, trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls.constant(1, trunc)

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

    def crop(self, trunc: int) -> "QSeries":
        """Weaken the guarantee to a smaller truncation."""
        if trunc > self.trunc:
            raise ValueError("crop cannot extend the guaranteed range")
        if trunc == self.trunc:
            return self
        if self.is_zero() or trunc < self.valuation:
            return QSeries.zero(trunc)
        return QSeries(
            self.valuation, self.coeffs[: trunc - self.valuation + 1], trunc
        )

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        coeffs = [[str(c.numerator), str(c.denominator)] for c in self.coeffs]
        return {"valuation": self.valuation, "trunc": self.trunc, "coeffs": coeffs}


# -- the Euler product and its powers ---------------------------------------


def euler_coefficients(trunc: int) -> tuple:
    """Coefficients 0..trunc of (q;q)_infinity = prod_{n>=1} (1 - q**n).

    Euler's pentagonal number theorem: the coefficient of q**j is (-1)**m at
    the generalized pentagonal numbers j = m(3m -+ 1)/2 and 0 elsewhere.
    """
    c = [0] * (trunc + 1)
    c[0] = 1
    m = 1
    while m * (3 * m - 1) // 2 <= trunc:
        for j in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if j <= trunc:
                c[j] = -1 if m & 1 else 1
        m += 1
    return tuple(c)


def pentagonal_terms(trunc: int) -> tuple[list, list]:
    """The j in 1..trunc where (q;q)_infinity has coefficient +1, and where it has -1."""
    a = euler_coefficients(trunc)
    return tuple([j for j in range(1, len(a)) if a[j] == sign] for sign in (1, -1))


def eta_pass(part: list, plus: list, minus: list, k: int, start: int = 1) -> None:
    """One pass multiplying the list part in place by (q;q)_infinity (k > 0) or dividing by it.

    plus, minus = pentagonal_terms(m) for some m >= len(part) - 1.  A product
    walks n down, c_n += sum_j a_j c_{n-j} with c_{n-j} not yet updated; a
    quotient walks n up from start, c_n -= the same sum, taking the entries
    below start as already divided, so a quotient can be continued in place.
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


def cube_pass(part: list, terms: list, k: int) -> None:
    """One pass multiplying the list part in place by (q;q)_infinity**3 (k > 0) or dividing by it.

    terms = cube_terms(m) for some m >= len(part) - 1; the walk is eta_pass's,
    with each term weighted by its a_j.
    """
    for n in range(len(part) - 1, 0, -1) if k > 0 else range(1, len(part)):
        acc = 0
        for j, a in terms:
            if j > n:
                break
            acc += a * part[n - j]
        part[n] += acc if k > 0 else -acc


def times_eta_power(series: QSeries, k: int, d: int = 1) -> QSeries:
    """series * (q^d;q^d)_infinity**k exact through series.trunc, for any integer k.

    (q^d;q^d) = 1 + sum a_j q**(d j) acts on each residue class c[r::d] of the
    coefficients on its own, as (q;q) does on a series; a class with no
    nonzero coefficient stays zero and is skipped.  Each nonzero class gets
    |k| // 3 cube_pass calls, each one (q;q)**3 by Jacobi's identity, and
    |k| mod 3 add-only eta_pass calls over the pentagonal terms.  The term
    lists are built once per call and shared by the classes.
    """
    if d < 1:
        raise ValueError(f"(q^d;q^d) needs d >= 1, got d={d}")
    c = list(series.coeffs)
    length = max((len(c) - 1) // d, 0)
    cubes, rest = divmod(abs(k), 3)
    terms, (plus, minus) = cube_terms(length), pentagonal_terms(length)
    for r in range(min(d, len(c))):
        part = c[r::d]
        if not any(part):
            continue
        for _ in range(cubes):
            cube_pass(part, terms, k)
        for _ in range(rest):
            eta_pass(part, plus, minus, k)
        c[r::d] = part
    return QSeries(series.valuation, c, series.trunc)


def eta_power(k: int, trunc: int) -> QSeries:
    """(q;q)_infinity**k exact through q**trunc; for k = -1, Euler's partition recurrence."""
    return times_eta_power(QSeries.one(trunc), k)
