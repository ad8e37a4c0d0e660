"""Brute-force verification engine for the bound machinery.

A candidate curve numerically equivalent to d*L through s <= r very
general points with multiplicities m_1 >= ... >= m_s >= 1 must satisfy
the Ein-Lazarsfeld-Xu inequality

    d^2 * k  >=  m_1^2 + ... + m_s^2 - m_s        (k = L^2)

and contributes the ratio d*k/(m_1 + ... + m_s) to the infimum defining
the constant.  This module covers every feasible configuration in a
finite box: it classifies each one against the trichotomy behind the
main bound, searches for the minimum ratio, and replays the
dimension-count argument that excludes the unit-multiplicity alternative
(referred to as "case 2" throughout) on K3 surfaces.

The minima computed here are candidate-level quantities over enumerated
configurations, not the true constants: whether a configuration is
realized by an actual curve is geometric input beyond exact arithmetic.

Enumeration is deterministic.  The theorem scan and the minimum search
walk only the vectors that can change their results, and count or bound
the rest with memoized recursions that enumerate nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .inequalities import el_xu_feasible, han_inequality, is_subgeneric

__all__ = [
    "Multiplicities",
    "CaseLabel",
    "TheoremViolation",
    "SearchResult",
    "Violation",
    "TheoremScan",
    "HanScan",
    "K3TraceRow",
    "K3Exclusion",
    "validate_multiplicities",
    "check_el_xu",
    "classify_case",
    "feasible_multiplicities",
    "min_ratio_search",
    "verify_theorem",
    "verify_han_exhaustive",
    "k3_h0",
    "k3_case2_excluded",
]

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


# _walk and the memoized counts below cover one tree, the EL-Xu tree: a
# vector whose prefix leaves `room` = budget - sum(prefix^2) extends by an
# entry e <= cap with e^2 - e <= room, and descends further only while
# e^2 <= room, since appending entries can only grow sum(m_i^2) - m_s.
# Both test the prefix's room inline rather than call el_xu_feasible on
# whole vectors, because they are the innermost loops of the theorem scan
# and the minimum search.  Every vector with at most `length` entries
# <= cap has sum(m_i^2) - m_s < length * cap^2, so a larger room changes
# nothing and is clamped, which lets many budgets share one memo entry.
# The memo is an argument, not a closure or a module-level cache, so it
# is freed as soon as the call that made it returns.

_Memo = dict[tuple[int, int, int], tuple[int, int]]

_TALLY_DEPTH = 256  # deepest recursion _tally_rec may reach


class _TooDeep(Exception):
    """_tally_rec needs the entry args[0], which lies deeper than it may recurse."""


def _tally(cap: int, length: int, room: int, memo: _Memo) -> tuple[int, int]:
    """(number of vectors, largest sum(m)) over what
    _walk(cap, length, room, memo) yields; (0, 0) when it yields none.

    The recursion is one level per entry, so a long vector would pass the
    interpreter's recursion limit.  _tally_rec stops at _TALLY_DEPTH and
    names the entry it could not reach; that entry is computed first, from
    depth 0, and the interrupted one is started again.  Everything either
    stored stays in the memo, so each restart gets further than the last,
    and no recursion is more than _TALLY_DEPTH + 1 levels deep.
    """
    pending = []  # interrupted entries, innermost last
    while True:
        try:
            tally = _tally_rec(cap, length, room, memo, 0)
        except _TooDeep as deep:
            pending.append((cap, length, room))
            cap, length, room = deep.args[0]
            continue
        if not pending:
            return tally
        cap, length, room = pending.pop()


def _tally_rec(cap: int, length: int, room: int, memo: _Memo, depth: int) -> tuple[int, int]:
    """_tally's recursion, depth levels below the entry _tally asked for."""
    room = min(room, length * cap * cap)
    key = (cap, length, room)
    tally = memo.get(key)
    if tally is None:
        if depth > _TALLY_DEPTH:
            raise _TooDeep(key)
        count = best = 0
        for e in range(1, cap + 1):
            if e * e - e > room:
                break
            count += 1
            total = e
            if length > 1 and e * e <= room:
                tail_count, tail_best = _tally_rec(e, length - 1, room - e * e, memo, depth + 1)
                count += tail_count
                total += tail_best
            if total > best:
                best = total
        memo[key] = tally = (count, best)
    return tally


def _walk(
    cap: int, length: int, room: int, memo: _Memo, lo: int = 1, need: int = 0
) -> Iterator[tuple[Multiplicities, int]]:
    """Yield (m, sum(m)) for every nonincreasing vector with entries in
    [lo, cap], at most length of them, sum(m_i^2) - m_s <= room and
    sum(m) >= need.

    Vectors come depth first, each before its extensions, entries in
    increasing order: Python's tuple order.  While a prefix is still
    short of need, the walk enters a subtree only when _tally's best
    total below it reaches need, so with need set to the largest sum it
    visits only prefixes of the vectors it yields.  It keeps its own
    stack, one frame per entry, so a long vector cannot exhaust the
    interpreter's recursion limit.
    """
    entries: list[int] = []
    frames = [(iter(range(lo, cap + 1)), length, room, 0)]  # (next entries, length, room, total)
    while frames:
        choices, length, room, total = frames[-1]
        for e in choices:
            if e * e - e > room:
                break  # increasing in e, so larger e fail too
            entries.append(e)
            reached = total + e
            if reached >= need:
                yield tuple(entries), reached
            if length > 1 and e * e <= room and (
                reached >= need or reached + _tally(e, length - 1, room - e * e, memo)[1] >= need
            ):
                frames.append((iter(range(lo, e + 1)), length - 1, room - e * e, reached))
                break  # extend first; this frame resumes at e + 1
            entries.pop()
        if frames[-1][0] is choices:  # the frame is done
            frames.pop()
            if entries:
                entries.pop()


def feasible_multiplicities(d: int, k: int, max_points: int, m_max: int) -> Iterator[Multiplicities]:
    """All EL-Xu-feasible multiplicity vectors for curves in |dL|."""
    if d < 1 or k < 1:
        raise ValueError(f"need d, k >= 1, got d={d}, k={k}")
    if max_points < 1 or m_max < 1:
        return
    for m, _ in _walk(m_max, max_points, d * d * k, {}):
        yield m


class SearchResult(NamedTuple):
    minimum: Fraction
    witnesses: tuple[tuple[int, Multiplicities], ...]


def min_ratio_search(k: int, r: int, d_max: int, m_max: int) -> SearchResult:
    """Minimum of d*k/sum(m) over the feasible box, with all witnesses.

    For each d the smallest ratio comes from the largest feasible sum(m),
    which a memoized recursion finds without enumerating vectors; only
    the d that attain the minimum are walked, and only down to the
    vectors that reach that largest sum.  Witnesses are reported in
    lexicographic (d, s, entries) order.
    """
    if k < 1 or r < 1 or d_max < 1 or m_max < 1:
        raise ValueError(
            f"empty search box: k={k}, r={r}, d_max={d_max}, m_max={m_max}"
        )
    memo: _Memo = {}
    bests = [(d, _tally(m_max, r, d * d * k, memo)[1]) for d in range(1, d_max + 1)]
    minimum = min(Fraction(d * k, best) for d, best in bests)
    witnesses = [
        (d, m)
        for d, best in bests
        if Fraction(d * k, best) == minimum
        for m, _ in _walk(m_max, r, d * d * k, memo, need=best)
    ]
    if not witnesses:
        raise RuntimeError(f"no vector reaches the minimum at k={k}, r={r}, yet one attains it")
    witnesses.sort(key=lambda w: (w[0], len(w[1]), w[1]))
    return SearchResult(minimum, tuple(witnesses))


class Violation(NamedTuple):
    d: int
    k: int
    r: int
    m: Multiplicities


@dataclass
class TheoremScan:
    """Exhaustive classification over a finite box.

    subgeneric_counts tallies, per label, the (d, k, r, m) configurations
    whose ratio falls strictly below the generic bound at r; violations
    are the sub-generic ones that are neither unit-multiplicity nor the
    (1, 6, (2, 2)) triple.  An empty violation list verifies the
    trichotomy on the box.
    """

    k_min: int
    k_max: int
    r_min: int
    r_max: int
    d_max: int
    m_max: int
    feasible_vectors: int
    subgeneric_counts: dict[CaseLabel, int]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_theorem(
    k_max: int,
    r_max: int,
    d_max: int,
    m_max: int,
    *,
    k_min: int = 1,
    r_min: int = 2,
) -> TheoremScan:
    """Classify every feasible configuration with k_min <= k <= k_max,
    r_min <= r <= r_max, d <= d_max, entries <= m_max.

    In the sub-generic test d^2*k*r*(r+3) < (r+2)*(sum m)^2 the left side
    grows faster in r than the right, because r*(r+3)/(r+2) increases in
    r.  So each vector is sub-generic on a prefix of r values, and the
    scan stops at the first r that clears the bound.

    Only vectors that can be sub-generic are walked.  Lemma: a feasible
    vector m of length s that is sub-generic at some r >= s has
    m_s*(s+2) > d^2*k.  Proof: sub-generic at r implies sub-generic at s,
    and (sum m)^2 <= s*sum(m_i^2) <= s*(d^2*k + m_s) by Cauchy-Schwarz
    and EL-Xu, so d^2*k*s*(s+3)/(s+2) < s*(d^2*k + m_s), which is
    d^2*k < (s+2)*m_s.  As s <= r_max, every entry of such a vector is at
    least d^2*k // (r_max + 2) + 1, and the walk starts its entries
    there.  The lemma does not use the trichotomy, so a real violation
    is still found.  feasible_vectors counts the whole box with a
    memoized recursion that enumerates nothing.
    """
    if not (1 <= k_min <= k_max and 2 <= r_min <= r_max and d_max >= 1 and m_max >= 1):
        raise ValueError("bad scan box")
    violations: list[Violation] = []
    counts: dict[CaseLabel, int] = {
        CaseLabel.UNIT_MULTIPLICITY: 0,
        CaseLabel.TWO_SIX: 0,
    }
    feasible = 0
    memo: _Memo = {}
    for k in range(k_min, k_max + 1):
        for d in range(1, d_max + 1):
            budget = d * d * k
            feasible += _tally(m_max, r_max, budget, memo)[0]
            for m, total in _walk(m_max, r_max, budget, memo, lo=budget // (r_max + 2) + 1):
                for r in range(max(r_min, len(m)), r_max + 1):
                    if not is_subgeneric(budget, total, r):
                        break  # generic from here on; monotone in r
                    if m[0] == 1:
                        counts[CaseLabel.UNIT_MULTIPLICITY] += 1
                    elif _is_two_six(d, k, m):
                        counts[CaseLabel.TWO_SIX] += 1
                    else:
                        violations.append(Violation(d, k, r, m))
    return TheoremScan(
        k_min=k_min,
        k_max=k_max,
        r_min=r_min,
        r_max=r_max,
        d_max=d_max,
        m_max=m_max,
        feasible_vectors=feasible,
        subgeneric_counts=counts,
        violations=tuple(violations),
    )


@dataclass
class HanScan:
    s_max: int
    m_max: int
    applicable_checked: int
    counterexamples: tuple[Multiplicities, ...]
    equality_witnesses: tuple[Multiplicities, ...]


def verify_han_exhaustive(s_max: int, m_max: int) -> HanScan:
    """Check the combinatorial inequality on every applicable vector with
    s <= s_max and m_1 <= m_max; equality witnesses are recorded."""
    if s_max < 2 or m_max < 2:
        raise ValueError(f"need s_max, m_max >= 2, got {s_max}, {m_max}")
    counterexamples: list[Multiplicities] = []
    equalities: list[Multiplicities] = []
    checked = 0
    for s in range(1, s_max + 1):
        for combo in itertools.combinations_with_replacement(range(1, m_max + 1), s):
            m = combo[::-1]
            applicable, margin = han_inequality(m)
            if not applicable:
                continue
            checked += 1
            if margin < 0:
                counterexamples.append(m)
            elif margin == 0:
                equalities.append(m)
    return HanScan(s_max, m_max, checked, tuple(counterexamples), tuple(equalities))


def k3_h0(d: int, k: int) -> int:
    """Sections of d*L on a K3 surface with L^2 = k: d^2*k/2 + 2.

    The intersection form of a K3 is even, so odd k is rejected.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if k < 2 or k % 2:
        raise ValueError(f"K3 polarization has even self-intersection >= 2, got {k}")
    return d * d * k // 2 + 2


class K3TraceRow(NamedTuple):
    d: int
    s: int
    branch: str  # direct | no-curve | dimension-exact | dimension-excess


@dataclass
class K3Exclusion:
    excluded: bool
    trace: tuple[K3TraceRow, ...]


def k3_case2_excluded(k: int, r: int, d_max: int) -> K3Exclusion:
    """Replay the section-count argument that rules out case 2 on a K3.

    For each d <= d_max and s <= r the goal is C^2 = d^2*k >= s, which
    forces the ratio d*k/s up to the optimal value:
      direct             d^2*k >= s outright;
      no-curve           h0(dL) <= s, the system cannot pass through s
                         general points at all;
      dimension-exact    h0(dL) = s + 1 forces d^2*k = 2s - 2 >= s;
      dimension-excess   h0(dL) > s + 1 yields a curve through s + 1
                         points, and EL-Xu with unit multiplicities gives
                         d^2*k >= s.
    Only the first two settle a row by its own arithmetic, so the pair is
    excluded only when every row is direct or no-curve.  With the true
    h0 = d^2*k/2 + 2 the other two never occur (d^2*k < s forces s >= 3,
    hence h0 <= s); a wrong section count makes the pair fail.
    """
    if r < 3:
        raise ValueError(f"K3 exclusion argument assumes r >= 3, got {r}")
    if d_max < 1:
        raise ValueError(f"need d_max >= 1, got {d_max}")
    rows: list[K3TraceRow] = []
    for d in range(1, d_max + 1):
        d2k = d * d * k
        h0 = k3_h0(d, k)
        for s in range(1, r + 1):
            if d2k >= s:
                branch = "direct"
            elif h0 < s + 1:
                branch = "no-curve"
            elif h0 == s + 1:
                branch = "dimension-exact"
            else:
                branch = "dimension-excess"
            rows.append(K3TraceRow(d, s, branch))
    excluded = all(row.branch in ("direct", "no-curve") for row in rows)
    return K3Exclusion(excluded=excluded, trace=tuple(rows))
