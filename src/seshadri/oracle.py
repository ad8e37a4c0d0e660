"""Brute-force verification engine for the bound machinery.

A candidate curve numerically equivalent to d*L through s <= r very
general points with multiplicities m_1 >= ... >= m_s >= 1 must satisfy
the Ein-Lazarsfeld-Xu inequality

    d^2 * k  >=  m_1^2 + ... + m_s^2 - m_s        (k = L^2)

and contributes the ratio d*k/(m_1 + ... + m_s) to the infimum defining
the constant.  This module covers every feasible configuration in a
finite box: it classifies each one against the trichotomy behind the
main bound, searches for the minimum ratio, and replays the
dimension-count arguments that exclude the unit-multiplicity alternative
(referred to as "case 2" throughout) on K3 surfaces and for large r.

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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .exact import isqrt
from .inequalities import el_xu_feasible, han_inequality, is_subgeneric

__all__ = [
    "Multiplicities",
    "CaseLabel",
    "TheoremViolation",
    "HanCheck",
    "SearchResult",
    "Violation",
    "TheoremScan",
    "HanScan",
    "K3TraceRow",
    "K3Exclusion",
    "AsymptoticTraceRow",
    "AsymptoticScan",
    "validate_multiplicities",
    "check_el_xu",
    "check_han_inequality",
    "classify_case",
    "feasible_multiplicities",
    "min_ratio_search",
    "verify_theorem",
    "verify_han_exhaustive",
    "k3_h0",
    "k3_case2_excluded",
    "case2_asymptotic_infeasible",
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


class HanCheck(NamedTuple):
    applicable: bool
    holds: bool


def check_han_inequality(m: Sequence[int]) -> HanCheck:
    """The combinatorial inequality behind the generic bound (see
    inequalities.han_inequality); holds is evaluated whether or not it
    applies."""
    applicable, margin = han_inequality(validate_multiplicities(m))
    return HanCheck(applicable, margin >= 0)


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


def _iter_feasible(
    budget: int, max_len: int, m_max: int, lo: int = 1
) -> Iterator[tuple[Multiplicities, int]]:
    """Yield (m, sum(m)) for every nonincreasing vector with entries in
    [lo, m_max], length <= max_len, and sum(m_i^2) - m_s <= budget.

    Pruning: appending entries can only grow sum(m_i^2) - m_s, and once
    the prefix's plain square sum exceeds the budget no completion is
    feasible, so the walk descends only while sum(m_i^2) <= budget.
    """
    entries: list[int] = []

    def rec(cap: int, sum_sq: int, total: int) -> Iterator[tuple[Multiplicities, int]]:
        for e in range(lo, cap + 1):
            new_sq = sum_sq + e * e
            if new_sq - e > budget:
                break  # increasing in e, so larger e fail too
            entries.append(e)
            yield tuple(entries), total + e
            if len(entries) < max_len and new_sq <= budget:
                yield from rec(e, new_sq, total + e)
            entries.pop()

    if max_len >= 1 and m_max >= 1 and budget >= 0:
        yield from rec(m_max, 0, 0)


# The memoized recursions below mirror the walk of _iter_feasible: a vector
# whose prefix leaves `room` = budget - sum(prefix^2) extends by an entry
# e <= cap with e^2 - e <= room, and descends further only while
# e^2 <= room.  Every vector with at most `length` entries <= cap has
# sum(m_i^2) - m_s < length * cap^2, so a larger room changes nothing and
# is clamped, which lets many budgets share one memo entry.  The memo is
# an argument, not a closure or a module-level cache, so it is freed as
# soon as the call that made it returns.

_Memo = dict[tuple[int, int, int], tuple[int, int]]


def _tally(cap: int, length: int, room: int, memo: _Memo) -> tuple[int, int]:
    """(number of vectors, largest sum(m)) over what
    _iter_feasible(room, length, cap) yields; (0, 0) when it yields none."""
    room = min(room, length * cap * cap)
    key = (cap, length, room)
    tally = memo.get(key)
    if tally is None:
        count = best = 0
        for e in range(1, cap + 1):
            if e * e - e > room:
                break
            count += 1
            total = e
            if length > 1 and e * e <= room:
                tail_count, tail_best = _tally(e, length - 1, room - e * e, memo)
                count += tail_count
                total += tail_best
            if total > best:
                best = total
        memo[key] = tally = (count, best)
    return tally


def _iter_reaching(
    need: int, cap: int, length: int, room: int, memo: _Memo, prefix: Multiplicities = ()
) -> Iterator[Multiplicities]:
    """Yield prefix + v for every v that _iter_feasible(room, length, cap)
    yields with sum(v) = need, the largest sum _tally(cap, length, room) finds.

    A subtree is entered only when its best total still reaches need, so
    the walk visits only prefixes of the vectors it yields.
    """
    for e in range(1, cap + 1):
        if e * e - e > room:
            break
        if e == need:
            yield prefix + (e,)
        elif (
            length > 1
            and e * e <= room
            and e + _tally(e, length - 1, room - e * e, memo)[1] >= need
        ):
            yield from _iter_reaching(need - e, e, length - 1, room - e * e, memo, prefix + (e,))


def feasible_multiplicities(d: int, k: int, max_points: int, m_max: int) -> Iterator[Multiplicities]:
    """All EL-Xu-feasible multiplicity vectors for curves in |dL|."""
    if d < 1 or k < 1:
        raise ValueError(f"need d, k >= 1, got d={d}, k={k}")
    for m, _ in _iter_feasible(d * d * k, max_points, m_max):
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
        for m in _iter_reaching(best, m_max, r, d * d * k, memo)
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
            for m, total in _iter_feasible(budget, r_max, m_max, budget // (r_max + 2) + 1):
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


class AsymptoticTraceRow(NamedTuple):
    d: int
    s: int
    verdict: str  # above-optimal | too-few-sections | feasible


@dataclass
class AsymptoticScan:
    infeasible: bool
    model: str  # "asymptotic" | "exact"
    d_bound: int
    witnesses: tuple[tuple[int, int], ...]  # (d, s) pairs that survive
    trace: tuple[AsymptoticTraceRow, ...]
    closing_argument: str


_CLOSING = (
    "a case-2 curve below the optimal value needs d^2*k*r <= s^2 and "
    "s <= d^2*k/2, chaining to 2r <= s <= r, a contradiction"
)


def case2_asymptotic_infeasible(
    k: int, r: int, h0: Optional[Callable[[int], int]] = None
) -> AsymptoticScan:
    """Scan for (d, s) pairs allowing a case-2 curve at or below sqrt(k/r).

    Such a pair needs d^2*k <= s^2/r (value at most optimal) together
    with a section-count constraint: s <= d^2*k/2 under the asymptotic
    model, or s < h0(d) when an exact count is supplied.  Since
    d^2 <= s^2/(r*k) <= r/k, only d <= floor(sqrt(r/k)) can qualify; the
    trace records the failing constraint for each (d, s) in that range.
    Under the asymptotic model the two constraints chain to 2r <= s <= r,
    so the scan always comes back empty.
    """
    if k < 1 or r < 2:
        raise ValueError(f"need k >= 1 and r >= 2, got k={k}, r={r}")
    d_bound = isqrt(r // k)
    witnesses: list[tuple[int, int]] = []
    trace: list[AsymptoticTraceRow] = []
    for d in range(1, d_bound + 1):
        d2k = d * d * k
        for s in range(1, r + 1):
            if d2k * r > s * s:
                verdict = "above-optimal"
            elif (s < h0(d)) if h0 is not None else (2 * s <= d2k):
                verdict = "feasible"
                witnesses.append((d, s))
            else:
                verdict = "too-few-sections"
            trace.append(AsymptoticTraceRow(d, s, verdict))
    return AsymptoticScan(
        infeasible=not witnesses,
        model="exact" if h0 is not None else "asymptotic",
        d_bound=d_bound,
        witnesses=tuple(witnesses),
        trace=tuple(trace),
        closing_argument=_CLOSING,
    )
