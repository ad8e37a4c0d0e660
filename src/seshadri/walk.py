"""Feasible multiplicity vectors and the minimum-ratio search.

A candidate curve numerically equivalent to d*L through s <= r very
general points with multiplicities m_1 >= ... >= m_s >= 1 must satisfy
the Ein-Lazarsfeld-Xu inequality

    d^2 * k  >=  m_1^2 + ... + m_s^2 - m_s        (k = L^2)

and contributes the ratio d*k/(m_1 + ... + m_s) to the infimum defining
the constant.  The infimum may be taken over irreducible curves alone:
since (a + b)/(c + d) >= min(a/c, b/d), a sum of curves never does
better than its best component.  This module holds what every scan over
such vectors shares: their validation, the EL-Xu test, the trichotomy
that labels each configuration, the walk over the EL-Xu tree, and the
closed form for its largest feasible sum.  On them it builds the
minimum-ratio search, which walks only towards the vectors that reach
the largest feasible sum for the d that attain the minimum, and
enumerates nothing else.

The verification suites (theorem, Han, K3) live in .oracle.  This
module defines no dataclass, so the search command loads neither the
suites nor dataclasses.

The minima computed here are candidate-level quantities over enumerated
configurations, not the true constants: whether a configuration is
realized by an actual curve is geometric input beyond exact arithmetic.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from . import _public
from .inequalities import el_xu_feasible, is_subgeneric

__all__ = _public(__name__)

Multiplicities = tuple[int, ...]


def validate_multiplicities(m: Sequence[int]) -> Multiplicities:
    """Normalize to a tuple and check: nonempty, nonincreasing, entries >= 1.

    Trailing zeros are never stored; points the curve misses simply do
    not appear.
    """
    t = tuple(m)
    if not t:
        raise ValueError("multiplicity vector must be nonempty")
    for i, e in enumerate(t):
        if e < 1:
            raise ValueError(f"multiplicities must be >= 1, got {t}")
        if i and e > t[i - 1]:
            raise ValueError(f"multiplicities must be nonincreasing, got {t}")
    return t


class CaseLabel(Enum):
    """Trichotomy for an EL-Xu-feasible configuration."""

    GENERIC = "generic"  # satisfies the generic bound (case 1)
    UNIT_MULTIPLICITY = "unit-multiplicity"  # m_1 = 1: reduced curve, case 2
    TWO_SIX = "two-six"  # (d, k, m) = (1, 6, (2, 2)): the single true exception
    INFEASIBLE = "infeasible"  # EL-Xu fails; no such curve


class TheoremViolation(Exception):
    """A feasible configuration with m_1 >= 2, not the (1,6,(2,2)) triple,
    whose ratio is below the generic bound.  Never expected; raising one
    means either the implementation or the trichotomy is wrong."""

    def __init__(self, d: int, k: int, r: int, m: Multiplicities):
        self.config = (d, k, r, m)
        super().__init__(f"trichotomy violated at d={d}, k={k}, r={r}, m={m}")


def check_el_xu(d: int, k: int, m: Sequence[int]) -> bool:
    """Exact test of d^2*k >= sum(m_i^2) - m_s."""
    if d < 1 or k < 1:
        raise ValueError(f"need d, k >= 1, got d={d}, k={k}")
    m = validate_multiplicities(m)
    return el_xu_feasible(d * d * k, sum(e * e for e in m), m[-1])


def _is_two_six(d: int, k: int, m: Multiplicities) -> bool:
    return d == 1 and k == 6 and m == (2, 2)


def classify_case(d: int, k: int, r: int, m: Sequence[int]) -> CaseLabel:
    """Classify a configuration at r points.

    INFEASIBLE when EL-Xu fails; UNIT_MULTIPLICITY when m_1 = 1; TWO_SIX
    for (d, k, m) = (1, 6, (2, 2)).  Anything else must not be
    sub-generic, i.e. its ratio meets the generic bound; a failure raises
    TheoremViolation.
    """
    if r < 2:
        raise ValueError(f"classification needs r >= 2, got {r}")
    m = validate_multiplicities(m)
    if len(m) > r:
        raise ValueError(f"s = {len(m)} exceeds r = {r}")
    if not check_el_xu(d, k, m):
        return CaseLabel.INFEASIBLE
    if m[0] == 1:
        return CaseLabel.UNIT_MULTIPLICITY
    if _is_two_six(d, k, m):
        return CaseLabel.TWO_SIX
    if is_subgeneric(d * d * k, sum(m), r):
        raise TheoremViolation(d, k, r, m)
    return CaseLabel.GENERIC


# _walk and _best_sum cover the EL-Xu tree: a vector whose prefix leaves
# `room` = budget - sum(prefix^2) extends by an entry e <= cap with
# e^2 - e <= room, and descends further only while e^2 <= room, since
# appending entries can only grow sum(m_i^2) - m_s.  _walk, an innermost
# loop, tests the room inline; oracle._count_feasible counts the whole
# tree without walking it.


def _best_sum(cap: int, length: int, room: int) -> int:
    """The largest sum(m) over what _walk(cap, length, room) yields;
    cap, length >= 1 and room >= 0.

    For s entries and one sum, the balanced vector (entries q and q + 1)
    has the least sum(m_i^2) and the largest m_s, and its sum(m_i^2) - m_s
    rises with the sum.  Moving a unit off a largest entry a onto a new
    last entry 1 adds 1 - 2a + m_s <= 0, so s is the most room allows.
    s entries q fit iff s*q^2 - q <= room; below cap, fewer than s fit at
    q + 1, since all s fail.
    """
    s = min(length, room + 1)
    q = min(cap, (1 + math.isqrt(1 + 4 * s * room)) // (2 * s))
    if q == cap:
        return s * q
    return s * q + (room - s * q * q + q) // (2 * q + 1)


def _walk(cap: int, length: int, room: int, need: int = 0) -> Iterator[tuple[Multiplicities, int]]:
    """Yield (m, sum(m)) for every nonincreasing vector with entries in
    [1, cap], at most length of them, sum(m_i^2) - m_s <= room and
    sum(m) >= need.

    Vectors come depth first, each before its extensions, entries in
    increasing order: Python's tuple order.  While a prefix is still
    short of need, the walk enters a subtree only when _best_sum's
    total below it reaches need, so with need set to the largest sum it
    visits only prefixes of the vectors it yields.  A free bound comes
    first: with n entries left after a total t, none above the last, an
    entry e lifts the sum to at most t + n*e.  So each frame starts at
    max(1, ceil((need - t)/n)): no vector through an entry below that
    reaches need, so the walk neither yields it nor asks _best_sum about
    the subtree below it.  It keeps its own stack, one frame per entry,
    so a long vector cannot exhaust the interpreter's recursion limit.
    """

    def choices(n: int, total: int, last: int) -> Iterator[int]:
        return iter(range(max(1, -((total - need) // n)), last + 1))

    entries: list[int] = []
    frames = [(choices(length, 0, cap), length, room, 0)]  # (next entries, length, room, total)
    while frames:
        next_entries, length, room, total = frames[-1]
        for e in next_entries:
            if e * e - e > room:
                break  # increasing in e, so larger e fail too
            entries.append(e)
            reached = total + e
            if reached >= need:
                yield tuple(entries), reached
            if length > 1 and e * e <= room and (
                reached >= need or reached + _best_sum(e, length - 1, room - e * e) >= need
            ):
                frames.append((choices(length - 1, reached, e), length - 1, room - e * e, reached))
                break  # extend first; this frame resumes at e + 1
            entries.pop()
        if frames[-1][0] is next_entries:  # the frame is done
            frames.pop()
            if entries:
                entries.pop()


def feasible_multiplicities(d: int, k: int, max_points: int, m_max: int) -> Iterator[Multiplicities]:
    """All EL-Xu-feasible multiplicity vectors for curves in |dL|."""
    if d < 1 or k < 1:
        raise ValueError(f"need d, k >= 1, got d={d}, k={k}")
    if max_points < 1 or m_max < 1:
        return
    for m, _ in _walk(m_max, max_points, d * d * k):
        yield m


class SearchResult(NamedTuple):
    minimum: Fraction
    witnesses: tuple[tuple[int, Multiplicities], ...]


def min_ratio_search(k: int, r: int, d_max: int, m_max: int) -> SearchResult:
    """Minimum of d*k/sum(m) over the feasible box, with all witnesses.

    For each d the smallest ratio comes from the largest feasible sum(m),
    which _best_sum computes without enumerating vectors; only
    the d that attain the minimum are walked, and only down to the
    vectors that reach that largest sum.  Witnesses are reported in
    lexicographic (d, s, entries) order.
    """
    if k < 1 or r < 1 or d_max < 1 or m_max < 1:
        raise ValueError(
            f"empty search box: k={k}, r={r}, d_max={d_max}, m_max={m_max}"
        )
    bests = [(d, _best_sum(m_max, r, d * d * k)) for d in range(1, d_max + 1)]
    # d*k/best is least where d/best is: compare d/best across d by
    # cross-multiplying, and build one Fraction
    d0, best0 = bests[0]
    for d, best in bests:
        if d * best0 < d0 * best:
            d0, best0 = d, best
    witnesses = [
        (d, m)
        for d, best in bests
        if d * best0 == d0 * best
        for m, _ in _walk(m_max, r, d * d * k, need=best)
    ]
    if not witnesses:
        raise RuntimeError(f"no vector reaches the minimum at k={k}, r={r}, yet one attains it")
    witnesses.sort(key=lambda w: (w[0], len(w[1]), w[1]))
    return SearchResult(Fraction(d0 * k, best0), tuple(witnesses))
