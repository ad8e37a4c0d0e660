"""Exact arithmetic kernel: rationals, integer square roots, and surds.

Every bound that this package computes is a value of the form q*sqrt(n)
with q a nonnegative rational and n a squarefree nonnegative integer.
Comparisons between such values decide the published inequalities, and
some of those are far too tight for floating point (0.5842 vs 0.5833
territory), so everything here is integer arithmetic.  A Surd holds three
ints, num/den*sqrt(radicand), in canonical form, and its operations work
on those ints directly; the order compares cross-multiplied squares.  No
float is accepted as an input.  Decimal strings are produced only for
display, by truncating the exact value at a requested number of digits.

A value reaches canonical form by one of two routes: a root, taken by
_sqrt_ratio(p, q) on the ints the bound layer's formulas produce, or a
product, taken by Surd.__mul__.  Surd.sqrt and the checked constructor
Surd(coeff, radicand) check their arguments and take those routes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt

__all__ = [
    "Surd",
    "isqrt",
    "squarefree_decompose",
    "render_decimal",
]


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = a*a*b with b squarefree; returns (a, b).

    Trial division, while p*p*p is at most the part m of n not yet
    divided out.  When it stops, every prime below p has been divided out
    and p^3 > m, so m has at most two prime factors: it is 1, a prime, a
    product of two distinct primes, or the square of a prime, and one
    isqrt(m) tells the square from the rest.  The loop never passes the
    cube root of n, so a radicand with two large prime factors, such as
    (r+2)*k with r+2 and k primes near 10^8, costs about 10^5 divisions
    where a loop to the square root took 5 * 10^7.
    """
    if n < 1:
        raise ValueError(f"squarefree_decompose requires n >= 1, got {n}")
    square_part, free_part = 1, 1
    m = n
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            square_part *= p ** (e // 2)
            if e % 2:
                free_part *= p
        p += 1 if p == 2 else 2
    s = isqrt(m)
    if s * s == m:  # m is 1 or the square of a prime
        return square_part * s, free_part
    return square_part, free_part * m  # a prime or two distinct primes


# A denominator needs a nonzero digit: "1/0" is not a surd string.
_SURD_RE = re.compile(r"^\s*(-?\d+)(?:/(0*[1-9]\d*))?(?:\*sqrt\((\d+)\))?\s*$")


def _ratio(x: Fraction | int, what: str) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational; anything else, a
    float above all, is a TypeError."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"{what} must be an int or a Fraction, got {type(x).__name__} {x!r}")


def _sqrt_ratio(p: int, q: int) -> Surd:
    """sqrt(p/q) for ints p >= 0 and q >= 1, not necessarily coprime.

    With g = gcd(p, q), p/g = a1^2*b1 and q/g = a2^2*b2 (b1, b2
    squarefree), sqrt(p/q) = a1*sqrt(b1*b2)/(a2*b2).  p/g and q/g are
    coprime, so a1 is coprime to a2*b2 and b1*b2 is squarefree: the
    result is canonical as it stands.
    """
    if p == 0:
        return _ZERO
    g = gcd(p, q)
    a1, b1 = squarefree_decompose(p // g)
    a2, b2 = squarefree_decompose(q // g)
    return _surd(a1, a2 * b2, b1 * b2)


def _surd(num: int, den: int, rad: int) -> Surd:
    """A Surd from fields that are already canonical; nothing is checked."""
    s = _new(Surd)
    s._num, s._den, s._rad = num, den, rad
    return s


@total_ordering
class Surd:
    """A nonnegative real of the form num/den * sqrt(radicand), held as ints.

    Canonical form: num >= 0 and den >= 1 are coprime, radicand is
    squarefree and >= 1, and num == 0 forces den == radicand == 1.  With
    that normalization, two Surds are equal as real numbers iff their
    fields are equal, and order comparison reduces to comparing the
    squares num^2 * radicand / den^2, cross-multiplied (both operands
    being >= 0).

    A value reaches the form by one of two routes, with no general
    reduction.  A root sqrt(p/q) factors the reduced p and q apart (see
    _sqrt_ratio) and is in lowest terms as it stands.  A product cancels
    its coefficients with cross gcds, and with g = gcd(a, b) of two
    squarefree radicands, sqrt(a)*sqrt(b) = g*sqrt((a/g)*(b/g)), so
    nothing is factored; one more gcd cancels g against the denominator.
    Surd(coeff, radicand) checks its arguments, then takes the root of
    the radicand and multiplies it by coeff.

    coeff is the rational num/den as a Fraction.  A Surd with radicand 1
    hashes like that Fraction, as it compares equal to it.  Only ints
    and Fractions are accepted, never floats.  Sums of distinct radicals
    are deliberately unsupported; every quantity handled here is a
    single radical term.
    """

    __slots__ = ("_num", "_den", "_rad")

    def __init__(self, coeff: Fraction | int, radicand: int = 1) -> None:
        self.__post_init__(coeff, radicand)

    def __post_init__(self, coeff: Fraction | int, radicand: int) -> None:
        # The checks live here rather than in __init__ because
        # perfbench/tracing.py counts constructions by wrapping this method.
        num, den = _ratio(coeff, "surd coefficient")
        if not isinstance(radicand, int):
            raise TypeError(f"radicand must be an int, got {type(radicand).__name__} {radicand!r}")
        n = int(radicand)
        if n < 0:
            raise ValueError(f"radicand must be nonnegative, got {n}")
        if num < 0:
            raise ValueError(f"surd values are nonnegative, got coefficient {Fraction(num, den)}")
        value = _sqrt_ratio(n, 1) * coeff
        self._num, self._den, self._rad = value._num, value._den, value._rad

    # -- constructors ---------------------------------------------------

    @classmethod
    def sqrt(cls, q: Fraction | int) -> Surd:
        """Exact square root of a nonnegative rational, as a canonical Surd.

        Only an int or a Fraction is accepted, and a negative one is a
        ValueError; the root itself is _sqrt_ratio's.
        """
        p, d = _ratio(q, "sqrt argument")
        if p < 0:
            raise ValueError(f"sqrt of negative rational {Fraction(p, d)}")
        return _sqrt_ratio(p, d)

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

    @property
    def coeff(self) -> Fraction:
        """The rational coefficient num/den."""
        return Fraction(self._num, self._den)

    @property
    def num(self) -> int:
        """Numerator of the coefficient, in lowest terms."""
        return self._num

    @property
    def den(self) -> int:
        """Denominator of the coefficient, in lowest terms."""
        return self._den

    @property
    def radicand(self) -> int:
        """The squarefree radicand (1 for a rational value)."""
        return self._rad

    # -- arithmetic (products only; sums of radicals are out of scope) --

    def __mul__(self, other: Surd | Fraction | int) -> Surd:
        if isinstance(other, Surd):
            n2, d2, b = other._num, other._den, other._rad
        elif isinstance(other, (Fraction, int)):
            n2, d2, b = other.numerator, other.denominator, 1
            if n2 < 0 and self._num:
                raise ValueError(f"surd values are nonnegative, got coefficient {self.coeff * other}")
        else:
            return NotImplemented
        n1, d1, a = self._num, self._den, self._rad
        if n1 == 0 or n2 == 0:
            return _ZERO
        g1, g2 = gcd(n1, d2), gcd(n2, d1)
        num, den = (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)
        g = gcd(a, b)
        if g > 1:
            h = gcd(g, den)
            num, den = num * (g // h), den // h
        return _surd(num, den, (a // g) * (b // g))

    __rmul__ = __mul__

    # -- exact total order ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Surd):
            return self._num == other._num and self._den == other._den and self._rad == other._rad
        if isinstance(other, (Fraction, int)):
            # A negative rational never matches: num >= 0, and 0 is 0/1.
            return self._rad == 1 and self._num == other.numerator and self._den == other.denominator
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Surd):
            n2, d2, b = other._num, other._den, other._rad
        elif isinstance(other, (Fraction, int)):
            n2, d2, b = other.numerator, other.denominator, 1
            if n2 < 0:
                return False
        else:
            return NotImplemented
        n1, d1 = self._num, self._den
        return n1 * n1 * self._rad * d2 * d2 < n2 * n2 * b * d1 * d1

    def __hash__(self) -> int:
        if self._rad == 1:
            return hash(self.coeff)
        return hash((self.coeff, self._rad))

    def __str__(self) -> str:
        coeff = str(self._num) if self._den == 1 else f"{self._num}/{self._den}"
        if self._rad == 1:
            return coeff
        return f"{coeff}*sqrt({self._rad})"

    def __repr__(self) -> str:
        return f"Surd({self.coeff!r}, {self._rad})"

    def __reduce__(self) -> tuple:
        return _surd, (self._num, self._den, self._rad)


_new = object.__new__
_ZERO = _surd(0, 1, 1)


def render_decimal(x: Surd, digits: int) -> str:
    """Decimal string of a surd, truncated at a fixed number of fractional digits.

    The result is floor(x * 10^digits) / 10^digits, i.e. never exceeds
    the true value and differs from it by less than 10^-digits.  It is
    computed with integer arithmetic on scaled values; no floating point
    is involved.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    p, q, n = x._num, x._den, x._rad
    scale = 10**digits
    # floor(value * 10^d) = floor(sqrt(p^2 * n * 10^2d)) // q
    scaled = isqrt(p * p * n * scale * scale) // q
    whole, frac = divmod(scaled, scale)
    return f"{whole}.{frac:0{digits}d}"
