"""Pell equation machinery for single-point bounds.

For a non-square k >= 2, the fundamental solution (p0, q0) of

    q^2 - k * p^2 = 1

yields the single-point lower bound p0*k/q0 (Szemberg's conjectured
bound, a theorem when k has the form n^2 - 1 or n^2 + 1).  The solution
is computed from the periodic continued fraction

    sqrt(k) = [a_0; a_1, ..., a_(P-1), 2*a_0, a_1, ...]

of period P.  Write the complete quotients as x_n = (sqrt(k) + m_n)/d_n,
with small integers m_n, d_n and partial quotients a_n = floor(x_n), and
the convergents as h_n/q_n.  With A_a = [[a, 1], [1, 0]],

    A_(a_0) A_(a_1) ... A_(a_n) = [[h_n, h_(n-1)], [q_n, q_(n-1)]],

and (h_(P-1), q_(P-1)) solves h^2 - k*q^2 = (-1)^P.

Half the period is enough.  The quotients a_1, ..., a_(P-1) read the same
backwards, and so do d_0, ..., d_P and m_1, ..., m_P (Lenstra, "Solving
the Pell equation", Notices AMS 49, 2002).  The walk steps the small m, d
and stops at the centre, the first n where

    d_(n+1) = d_n:  P = 2n + 1 is odd, or
    m_(n+1) = m_n:  P = 2n is even.

Each A_a is symmetric, so the reversed product A_n ... A_1 is the
transpose of W = A_1 ... A_n.  For odd P the quotients after the centre
are those before it in reverse, A_1 ... A_(P-1) = W W^T, and the first
column of (A_0 W) W^T gives

    h_(P-1) = h_n q_n + h_(n-1) q_(n-1),  q_(P-1) = q_n^2 + q_(n-1)^2.

For even P the centre quotient a_n stands alone,
A_1 ... A_(P-1) = V A_n V^T with V = A_1 ... A_(n-1), and the first
column of (A_0 V A_n) V^T gives, with q_(n-2) = q_n - a_n q_(n-1),

    h_(P-1) = h_n q_(n-1) + h_(n-1) q_(n-2),
    q_(P-1) = q_n q_(n-1) + q_(n-1) q_(n-2) = q_(n-1) (q_n + q_(n-2)).

(h_(P-1), q_(P-1)) is the smallest solution of h^2 - k*q^2 = +-1, and
every solution is a power of it.  An even period gives norm +1, so it is
the fundamental solution.  An odd period gives x + y*sqrt(k) of norm -1,
whose odd powers have norm -1 and even powers norm +1, so the fundamental
solution is its square, q0 + p0*sqrt(k) = 2x^2 + 1 + 2xy*sqrt(k), as
k*y^2 = x^2 + 1.

The half walk is small-integer work, and so is most of the product.  The
walk goes in blocks of up to 256 quotients a_i, ..., a_j, and each block
steps only the bottom row of its product

    A_(a_i) ... A_(a_j) = [[H, H'], [Q, Q']],

with the two-term recurrence of the convergents' denominators.  The top
row follows from the bottom row and the block's two ends.  Write m', d'
for m_(j+1), d_(j+1).  Since x_n = a_n + 1/x_(n+1), the product maps
x_(j+1) to x_i, so x_i (Q x_(j+1) + Q') = H x_(j+1) + H'.  Multiply by
d_i d' and compare the sqrt(k) parts and the rational parts:

    d_i H       = Q (m_i + m') + Q' d',
    d_i d' H'   = Q (k + m_i m') + Q' d' m_i - d_i m' H,

two exact divisions by small integers.  The blocks are then merged in
balanced pairs, a product tree (Bernstein, "Fast multiplication and its
applications", MSRI Publ. 44, 2008): the bottom row of L R needs L's
bottom row and R's top row, four products of equal size, which CPython
multiplies by Karatsuba.  At the root, x_0 = sqrt(k) gives m_0 = 0 and
d_0 = 1, and the same identities give (h_n, h_(n-1)).

The block size was measured.  q grows along a block, so each step of a
long block costs more; short blocks pay for more merges, each a few
exact divisions and small products besides its four big ones.  Over
the 96 k of the benchmark's PELL_K and OVERFLOW_K tables (solutions of
about 2,600 and 4,500 digits), the mean of each k's best of 9 solves,
on one core of a 2-core Intel Xeon with Python 3.11.7, read: blocks of
32 quotients 1.002 ms, 64 0.959, 128 0.935, 192 0.936, 256 0.930,
320 0.943, 384 0.959, 512 0.970, and one block for the whole half walk
1.39 ms.  Hence 256.

CPython squares an int faster than it multiplies two ints of its size,
so the closings and the identity check of PellSolution square where
they can: k*(p0*p0) in place of (k*p0)*p0 (75 against 107
microseconds at 15,048 bits), 2*(x*x) in place of (2*x)*x, and one
product q_(n-1) (q_n + q_(n-2)) in place of two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from . import _public
from .exact import Surd, _surd, isqrt

__all__ = _public(__name__)


def _sizes(p0: int, q0: int, k: int) -> str:
    """k and the bit lengths of p0 and q0, for an error message: a solution
    can have more digits than str(int) writes under the default limit."""
    return f"k={k}, p0 of {p0.bit_length()} bits, q0 of {q0.bit_length()} bits"


class PellSolution:
    """Fundamental solution of q^2 - k*p^2 = 1 for non-square k.

    p0 plays the role of the sqrt-coefficient and q0 the rational part,
    so p0/q0 approximates 1/sqrt(k) from below.  Immutable; equal when
    (p0, q0, k) are.
    """

    __slots__ = ("p0", "q0", "k")
    __match_args__ = ("p0", "q0", "k")

    def __init__(self, p0: int, q0: int, k: int) -> None:
        for name, value in (("p0", p0), ("q0", q0), ("k", k)):
            object.__setattr__(self, name, value)
        if p0 < 1 or q0 < 2:
            raise ValueError(f"not a nontrivial Pell solution: {_sizes(p0, q0, k)}")
        if q0 * q0 - k * (p0 * p0) != 1:
            raise ValueError(f"Pell identity fails: {_sizes(p0, q0, k)}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"PellSolution(p0={self.p0!r}, q0={self.q0!r}, k={self.k!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p0, self.q0, self.k) == (other.p0, other.q0, other.k)

    def __hash__(self) -> int:
        return hash((self.p0, self.q0, self.k))

    def __reduce__(self) -> tuple:
        return PellSolution, (self.p0, self.q0, self.k)

    @property
    def single_point_bound(self) -> Surd:
        """The single-point lower bound p0*k/q0, a rational Surd.

        No gcd is taken: q0^2 - k*p0^2 = 1, checked when the solution is
        built, makes any common prime of q0 and p0*k divide 1, so p0*k/q0
        is in lowest terms as it stands.
        """
        return _surd(self.p0 * self.k, self.q0, 1)


class FsstWitness(NamedTuple):
    """Whether k = n^2 - 1 or k = n^2 + 1 for some positive integer n; the
    sign of k - n^2 tells the two forms apart."""

    applicable: bool
    n: Optional[int]


@lru_cache(maxsize=None)
def pell_fundamental(k: int) -> PellSolution:
    """Fundamental solution of q^2 - k*p^2 = 1, via continued fractions.

    Raises ValueError when k <= 1 or k is a perfect square (the equation
    then has only the trivial solutions p = 0).
    """
    if k <= 1:
        raise ValueError(f"Pell equation needs k >= 2, got {k}")
    a0 = isqrt(k)
    if a0 * a0 == k:
        raise ValueError(
            f"Pell equation q^2 - {k}p^2 = 1 has only trivial solutions (k is a square)"
        )
    # Step n holds x_n = (sqrt(k) + m)/d and a = a_n.  A block of _LEAF
    # quotients a_i .. a_j steps only the bottom row (q, q_prev) of its
    # product, and is stored with its ends (m_i, d_i) and (m_(j+1), d_(j+1)).
    # The last block ends at the centre, n = j, where the walk stops.
    blocks = []
    m, d, a = 0, 1, a0
    centre = False
    while not centre:
        start = m, d
        q, q_prev = 0, 1
        for _ in range(_LEAF):
            q, q_prev = a * q + q_prev, q
            m_next = d * a - m
            d_next = (k - m_next * m_next) // d
            if d_next == d or m_next == m:
                centre = True
                break
            m, d = m_next, d_next
            a = (a0 + m) // d
        blocks.append((q, q_prev, *start, m_next, d_next))
    # Merge neighbours in balanced pairs.  The bottom row of L R takes the
    # top row (e, f) of R, which R's bottom row and ends fix.
    while len(blocks) > 1:
        merged = []
        for left, right in zip(blocks[::2], blocks[1::2]):
            c, c_prev, m_start, d_start, _, _ = left
            g, g_prev, m_mid, d_mid, m_end, d_end = right
            e = (g * (m_mid + m_end) + g_prev * d_end) // d_mid
            f = g * (k + m_mid * m_end) + g_prev * (d_end * m_mid) - (d_mid * m_end) * e
            f //= d_mid * d_end
            bottom = c * e + c_prev * g, c * f + c_prev * g_prev
            merged.append((*bottom, m_start, d_start, m_end, d_end))
        blocks = merged + blocks[2 * len(merged) :]
    # The root starts at x_0 = sqrt(k), where m_0 = 0 and d_0 = 1.
    q, q_prev, _, _, m_end, d_end = blocks[0]
    h = q * m_end + q_prev * d_end
    h_prev = (q * k - m_end * h) // d_end
    if d_next == d:  # odd period
        x, y = h * q + h_prev * q_prev, q * q + q_prev * q_prev
        return PellSolution(p0=2 * x * y, q0=2 * (x * x) + 1, k=k)
    q_prev2 = q - a * q_prev
    return PellSolution(
        p0=q_prev * (q + q_prev2), q0=h * q_prev + h_prev * q_prev2, k=k
    )


_LEAF = 256  # quotients per block of the product tree


def szemberg_single_point_bound(k: int) -> Fraction:
    """Exact lower bound p0*k/q0 for the single-point constant at L^2 = k."""
    return pell_fundamental(k).single_point_bound.coeff


def fsst_applicable(k: int) -> FsstWitness:
    """Check whether k is n^2 - 1 or n^2 + 1 (the verified-conjecture cases).

    The two forms are mutually exclusive (n^2 - m^2 = 2 has no integer
    solutions), so the witness is unique when it exists.
    """
    if k < 2:
        raise ValueError(f"fsst_applicable needs k >= 2, got {k}")
    t = isqrt(k - 1)
    if t * t + 1 == k:
        return FsstWitness(True, t)
    t = isqrt(k + 1)
    if t * t == k + 1:
        return FsstWitness(True, t)
    return FsstWitness(False, None)
