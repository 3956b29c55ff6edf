"""Exact values of the form r * i**m * sqrt(s).

Gauss sums and cusp constants in this project all live in the closed
multiplicative system {rational * i**m * sqrt(squarefree)}: every phase that
occurs is a fourth root of unity (the eighth-root exponents (1 - N*d)/8 that
appear for cusp constants are always even multiples of 1/8 because N and d
are odd).  Keeping the radical one-dimensional avoids cyclotomic arithmetic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .arith import squarefree_split


class QuarterRadical(namedtuple("QuarterRadical", "coeff i_exp radicand")):
    """Normalized value coeff * i**i_exp * sqrt(radicand).

    Normal form: i_exp in {0, 1} (i**2 folded into the sign of coeff),
    radicand a squarefree positive integer (denominators and square parts
    moved into coeff), and the zero value stored as (0, 0, 1).  Equality of
    normal forms is exact value equality.
    """

    __slots__ = ()

    def __new__(cls, coeff, i_exp: int = 0, radicand=1):
        c = Fraction(coeff)
        r = Fraction(radicand)
        if r <= 0:
            raise ValueError(f"radicand must be positive, got {r}")
        m1, s1 = squarefree_split(r.numerator)
        m2, s2 = squarefree_split(r.denominator)
        # sqrt(s1/s2) = sqrt(s1*s2)/s2
        c *= Fraction(m1, m2 * s2)
        rad = s1 * s2
        m = i_exp % 4
        if m >= 2:
            c = -c
            m -= 2
        if c == 0:
            m, rad = 0, 1
        return super().__new__(cls, c, m, rad)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "QuarterRadical":
        return cls(Fraction(1))

    @classmethod
    def sqrt_of(cls, x) -> "QuarterRadical":
        return cls(Fraction(1), 0, x)

    # -- arithmetic --------------------------------------------------------

    @classmethod
    def _normal(cls, c: Fraction, m: int, rad: int) -> "QuarterRadical":
        """c * i**m * sqrt(rad) for a squarefree rad, normalized without factoring."""
        if m % 4 >= 2:
            c = -c
        if c == 0:
            return tuple.__new__(cls, (c, 0, 1))
        return tuple.__new__(cls, (c, m % 2, rad))

    def __mul__(self, other):
        if isinstance(other, QuarterRadical):
            # sqrt(r1) sqrt(r2) = g sqrt((r1/g)(r2/g)), g = gcd(r1, r2): squarefree again
            g = math.gcd(self.radicand, other.radicand)
            return self._normal(self.coeff * other.coeff * g, self.i_exp + other.i_exp,
                                (self.radicand // g) * (other.radicand // g))
        if isinstance(other, (int, Fraction)):
            return self._normal(self.coeff * other, self.i_exp, self.radicand)
        return NotImplemented

    __rmul__ = __mul__

    def approx(self) -> tuple[float, float]:
        """Floating (re, im) approximation; relative error well under 2**-40."""
        mag = float(self.coeff) * math.sqrt(self.radicand)
        if self.i_exp == 0:
            return (mag, 0.0)
        return (0.0, mag)

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        if self.coeff == 0:
            return "0"
        parts = []
        c = self.coeff
        if c == -1 and (self.i_exp or self.radicand != 1):
            parts.append("-")
        elif c != 1 or (self.i_exp == 0 and self.radicand == 1):
            parts.append(str(c))
        if self.i_exp:
            parts.append("i")
        if self.radicand != 1:
            parts.append(f"sqrt({self.radicand})")
        body = "*".join(p for p in parts if p != "-")
        return ("-" + body) if parts and parts[0] == "-" else body

