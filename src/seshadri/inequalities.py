"""The integer inequalities behind the multi-point bounds, each written once.

Arguments are plain integers (d2k stands for d^2*k), so every decision
is exact and no caller needs fractions to make it.
"""

from __future__ import annotations

from .exact import isqrt

__all__ = ["el_xu_feasible", "is_subgeneric", "han_inequality", "is_square"]


def el_xu_feasible(d2k: int, sum_sq: int, last: int) -> bool:
    """Ein-Lazarsfeld-Xu: a curve in |dL| with multiplicities m_1 >= ... >= m_s
    at very general points needs d^2*k >= sum(m_i^2) - m_s (last = m_s)."""
    return d2k >= sum_sq - last


def is_subgeneric(d2k: int, total: int, r: int) -> bool:
    """d*k/total below the generic value sqrt((r+2)/(r+3)) * sqrt(k/r),
    cleared of denominators: d^2*k * r*(r+3) < (r+2) * total^2."""
    return d2k * r * (r + 3) < (r + 2) * total * total


def han_inequality(m: tuple[int, ...]) -> tuple[bool, int]:
    """(applicable, margin) of (s+3)*s*(sum(m_i^2) - m_s) >= (s+2)*(sum m_i)^2.

    margin is the left side minus the right, so the inequality holds iff
    margin >= 0.  It applies iff m_1 >= 2 and (s >= 3, or s = 2 with
    m != (2, 2)); the pair (2, 2) fails it, which is why it is excluded.
    """
    s = len(m)
    applicable = m[0] >= 2 and (s >= 3 or (s == 2 and m != (2, 2)))
    margin = (s + 3) * s * (sum(e * e for e in m) - m[-1]) - (s + 2) * sum(m) ** 2
    return applicable, margin


def is_square(n: int) -> bool:
    """Whether the nonnegative integer n is the square of an integer."""
    return isqrt(n) ** 2 == n
