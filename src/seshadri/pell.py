"""Pell equation machinery for single-point bounds.

For a non-square k >= 2, the fundamental solution (p0, q0) of

    q^2 - k * p^2 = 1

yields the single-point lower bound p0*k/q0 (Szemberg's conjectured
bound, a theorem when k has the form n^2 - 1 or n^2 + 1).  The solution
is computed from the periodic continued fraction of sqrt(k).  Write the
complete quotients as x_n = (sqrt(k) + m_n)/d_n, with small integers
m_n, d_n and partial quotients a_n = floor(x_n), and the convergents as
h_n/q_n.  Then

    h_n^2 - k*q_n^2 = (-1)^(n+1) * d_(n+1),

and d_(n+1) = 1 exactly when n + 1 is a multiple of the period.  So the
first convergent with h^2 - k*q^2 = 1 is the first n with d_(n+1) = 1
and n odd, and it is the fundamental (minimal) solution.  The test reads
the small d the expansion carries anyway, so each step costs two
big-integer multiply-adds and no squaring of the convergents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .exact import isqrt

__all__ = [
    "PellSolution",
    "FsstWitness",
    "pell_fundamental",
    "szemberg_single_point_bound",
    "fsst_applicable",
]


@dataclass(frozen=True)
class PellSolution:
    """Fundamental solution of q^2 - k*p^2 = 1 for non-square k.

    p0 plays the role of the sqrt-coefficient and q0 the rational part,
    so p0/q0 approximates 1/sqrt(k) from below.
    """

    p0: int
    q0: int
    k: int

    def __post_init__(self) -> None:
        if self.p0 < 1 or self.q0 < 2:
            raise ValueError(f"not a nontrivial Pell solution: {self}")
        if self.q0 * self.q0 - self.k * self.p0 * self.p0 != 1:
            raise ValueError(f"Pell identity fails: {self}")


class FsstWitness(NamedTuple):
    """Whether k = n^2 - 1 or k = n^2 + 1 for some positive integer n."""

    applicable: bool
    n: Optional[int]
    form: Optional[str]  # "n^2-1" | "n^2+1"


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
    # Continued fraction of sqrt(k): x_n = (sqrt(k) + m)/d, next term a.
    # h/q is the convergent h_n/q_n; odd says whether n is odd.
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0  # convergent numerators
    q_prev, q = 0, 1  # convergent denominators
    odd = False
    while True:
        m = d * a - m
        d = (k - m * m) // d  # d_(n+1), so h^2 - k*q^2 = (-1)^(n+1) * d
        if d == 1 and odd:
            break
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        q_prev, q = q, a * q + q_prev
        odd = not odd
    return PellSolution(p0=q, q0=h, k=k)


def szemberg_single_point_bound(k: int) -> Fraction:
    """Exact lower bound p0*k/q0 for the single-point constant at L^2 = k."""
    sol = pell_fundamental(k)
    return Fraction(sol.p0 * k, sol.q0)


def fsst_applicable(k: int) -> FsstWitness:
    """Check whether k is n^2 - 1 or n^2 + 1 (the verified-conjecture cases).

    The two forms are mutually exclusive (n^2 - m^2 = 2 has no integer
    solutions), so the witness is unique when it exists.
    """
    if k < 2:
        raise ValueError(f"fsst_applicable needs k >= 2, got {k}")
    t = isqrt(k - 1)
    if t >= 1 and t * t + 1 == k:
        return FsstWitness(True, t, "n^2+1")
    t = isqrt(k + 1)
    if t * t == k + 1:
        return FsstWitness(True, t, "n^2-1")
    return FsstWitness(False, None, None)
