"""Exact arithmetic kernel: rationals, integer square roots, and surds.

Every bound that this package computes is a value of the form q*sqrt(n)
with q a nonnegative rational and n a squarefree nonnegative integer.
Comparisons between such values decide the published inequalities, and
some of those are far too tight for floating point (0.5842 vs 0.5833
territory), so everything here is integer arithmetic.  Decimal strings
are produced only for display, by truncating the exact value at a
requested number of digits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import isqrt

__all__ = [
    "Surd",
    "isqrt",
    "squarefree_decompose",
    "render_decimal",
]


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = a*a*b with b squarefree; returns (a, b).

    Trial division, while p*p is at most the part of n not yet divided
    out, so the loop runs up to the larger of the second-largest prime
    factor and the square root of the largest.  Radicands are not small:
    generic_lower_value decomposes the reduced (r+2)*k*(r+3)*r, which is
    about 2.5 * 10^14 at k = 997, r = 10^4.  Its prime factors are those
    of the small arguments k, r, r+2 and r+3, which keeps the loop short.
    """
    if n < 1:
        raise ValueError(f"squarefree_decompose requires n >= 1, got {n}")
    square_part, free_part = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            square_part *= p ** (e // 2)
            if e % 2:
                free_part *= p
        p += 1 if p == 2 else 2
    free_part *= m  # leftover factor is prime, hence squarefree
    return square_part, free_part


_SURD_RE = re.compile(r"^\s*(-?\d+)(?:/(\d+))?(?:\*sqrt\((\d+)\))?\s*$")


@total_ordering
@dataclass(frozen=True, eq=False)
class Surd:
    """A nonnegative real of the form coeff * sqrt(radicand).

    Canonical form: radicand is squarefree and >= 1, and coeff == 0
    forces radicand == 1.  With that normalization, two Surds are equal
    as real numbers iff their fields are equal, and order comparison
    reduces to comparing coeff^2 * radicand (both operands being >= 0).

    Sums of distinct radicals are deliberately unsupported; every
    quantity handled here is a single radical term.
    """

    coeff: Fraction
    radicand: int = 1

    def __post_init__(self) -> None:
        coeff = self.coeff if isinstance(self.coeff, Fraction) else Fraction(self.coeff)
        n = self.radicand
        if n < 0:
            raise ValueError(f"radicand must be nonnegative, got {n}")
        if coeff < 0:
            raise ValueError(f"surd values are nonnegative, got coefficient {coeff}")
        if coeff == 0 or n == 0:
            coeff, n = Fraction(0), 1
        elif n > 1:
            a, b = squarefree_decompose(n)
            coeff, n = coeff * a, b
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", n)

    # -- constructors ---------------------------------------------------

    @classmethod
    def sqrt(cls, q: Fraction | int) -> Surd:
        """Exact square root of a nonnegative rational, as a canonical Surd.

        sqrt(p/q) = sqrt(p*q)/q, and the constructor pulls the square part
        of p*q out into the coefficient.
        """
        q = Fraction(q)
        if q < 0:
            raise ValueError(f"sqrt of negative rational {q}")
        if q == 0:
            return cls(Fraction(0), 1)
        return cls(Fraction(1, q.denominator), q.numerator * q.denominator)

    @classmethod
    def from_string(cls, text: str) -> Surd:
        """Parse the canonical rendering "p/q" or "p/q*sqrt(n)"."""
        m = _SURD_RE.match(text)
        if not m:
            raise ValueError(f"not a surd string: {text!r}")
        num, den, rad = m.groups()
        coeff = Fraction(int(num), int(den) if den else 1)
        return cls(coeff, int(rad) if rad else 1)

    # -- structure ------------------------------------------------------

    def squared(self) -> Fraction:
        """The exact square, always rational: coeff^2 * radicand."""
        return self.coeff * self.coeff * self.radicand

    # -- arithmetic (products only; sums of radicals are out of scope) --

    def __mul__(self, other: Surd | Fraction | int) -> Surd:
        if isinstance(other, Surd):
            return Surd(self.coeff * other.coeff, self.radicand * other.radicand)
        if isinstance(other, (Fraction, int)):
            return Surd(self.coeff * Fraction(other), self.radicand)
        return NotImplemented

    __rmul__ = __mul__

    # -- exact total order ----------------------------------------------

    def _coerced(self, other: object) -> Surd | None:
        if isinstance(other, Surd):
            return other
        if isinstance(other, (Fraction, int)):
            if other < 0:
                return None
            return Surd(Fraction(other), 1)
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Fraction, int)) and other < 0:
            return False
        coerced = self._coerced(other)
        if coerced is None:
            return NotImplemented
        return self.coeff == coerced.coeff and self.radicand == coerced.radicand

    def __lt__(self, other: object) -> bool:
        coerced = self._coerced(other)
        if coerced is None:
            if isinstance(other, (Fraction, int)):  # negative rational
                return False
            return NotImplemented
        return self.squared() < coerced.squared()

    def __hash__(self) -> int:
        return hash((self.coeff, self.radicand))

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coeff)
        return f"{self.coeff}*sqrt({self.radicand})"

    def __repr__(self) -> str:
        return f"Surd({self.coeff!r}, {self.radicand})"


def render_decimal(x: Surd, digits: int) -> str:
    """Decimal string of a surd, truncated at a fixed number of fractional digits.

    The result is floor(x * 10^digits) / 10^digits, i.e. never exceeds
    the true value and differs from it by less than 10^-digits.  It is
    computed with integer arithmetic on scaled values; no floating point
    is involved.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    p = x.coeff.numerator
    q = x.coeff.denominator
    scale = 10**digits
    # floor(value * 10^d) = floor(sqrt(p^2 * n * 10^2d)) // q
    scaled = isqrt(p * p * x.radicand * scale * scale) // q
    whole, frac = divmod(scaled, scale)
    return f"{whole}.{frac:0{digits}d}"
