"""The integer inequalities behind the multi-point bounds, each written once.

Arguments are plain integers (d2k stands for d^2*k), so every decision
is exact and no caller needs fractions to make it.
"""

from __future__ import annotations

from .exact import isqrt

__all__ = ["el_xu_feasible", "is_subgeneric", "han_applies", "han_margin", "han_floor", "is_square"]


def el_xu_feasible(d2k: int, sum_sq: int, last: int) -> bool:
    """Ein-Lazarsfeld-Xu: a curve in |dL| with multiplicities m_1 >= ... >= m_s
    at very general points needs d^2*k >= sum(m_i^2) - m_s (last = m_s)."""
    return d2k >= sum_sq - last


def is_subgeneric(d2k: int, total: int, r: int) -> bool:
    """d*k/total below the generic value sqrt((r+2)/(r+3)) * sqrt(k/r),
    cleared of denominators: d^2*k * r*(r+3) < (r+2) * total^2."""
    return d2k * r * (r + 3) < (r + 2) * total * total


def han_margin(s: int, total: int, sum_sq: int, last: int) -> int:
    """Left side minus right side of Han's inequality
    (s+3)*s*(sum(m_i^2) - m_s) >= (s+2)*(sum m_i)^2 for a vector of
    length s with sum(m_i) = total, sum(m_i^2) = sum_sq and m_s = last;
    the inequality holds iff the margin is >= 0.

    Remark: since s*sum(m_i^2) - (sum m_i)^2 = sum_{i<j} (m_i - m_j)^2,
    the margin equals (s+2)*sum_{i<j} (m_i - m_j)^2
    + s*(sum(m_i^2) - (s+3)*m_s).  For s equal entries c the first term
    vanishes and the margin is s*c*(s*(c-1) - 3): zero at (2, 2, 2),
    negative at (2, 2).  The Han scan bounds its loops with the weaker
    han_floor, which drops the first term, and decides each group it
    visits by this margin.
    """
    return (s + 3) * s * (sum_sq - last) - (s + 2) * total * total


def han_floor(s: int, total: int, last: int) -> int:
    """A lower bound on han_margin(s, total, sum_sq, last) for every
    vector of length s with sum(m_i) = total and m_s = last, whatever its
    sum(m_i^2): total^2 - s*(s+3)*last.

    Proof: s*sum(m_i^2) >= (sum m_i)^2 by Cauchy-Schwarz, so
    (s+3)*s*(sum(m_i^2) - m_s) >= (s+3)*total^2 - (s+3)*s*m_s, and
    subtracting (s+2)*total^2 leaves the floor.  Equality holds iff all
    entries are equal, as at (2, 2, 2), where margin and floor are 0.
    """
    return total * total - s * (s + 3) * last


def han_applies(s: int, total: int, sum_sq: int) -> bool:
    """Whether Han's inequality applies to a vector of length s with
    sum(m_i) = total and sum(m_i^2) = sum_sq: iff m_1 >= 2 (total > s)
    and s >= 3, or s = 2 with m != (2, 2).  The pair (2, 2), the only one
    with total 4 and sum_sq 8, fails it, which is why it is excluded."""
    return total > s and (s >= 3 or (s == 2 and (total, sum_sq) != (4, 8)))


def is_square(n: int) -> bool:
    """Whether the nonnegative integer n is the square of an integer."""
    return isqrt(n) ** 2 == n
