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

Enumeration is deterministic.  The theorem scan decides each cell
(k, d, length) from the cell's largest feasible sum in closed form, and
walks a cell only when that sum is sub-generic, which on a correct
trichotomy happens at the (1, 6, (2, 2)) cell alone; it counts its whole
box with one exact generating function.  The minimum search walks only
towards the vectors that reach the largest feasible sum.  Neither
enumerates the vectors it does not walk.  The Han scan
visits only the groups of vectors (length, last entry, sum) that a
Cauchy-Schwarz floor on the margin cannot clear, two or three per
length; one margin at a group's least sum of squares, in closed form,
settles Han's inequality for the whole group.  It builds only the
vectors of the groups that can fail it or reach equality, and counts
its applicable vectors in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .inequalities import el_xu_feasible, han_applies, han_floor, han_margin, is_subgeneric

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


# _walk and _best_sum cover the EL-Xu tree: a vector whose prefix leaves
# `room` = budget - sum(prefix^2) extends by an entry e <= cap with
# e^2 - e <= room, and descends further only while e^2 <= room, since
# appending entries can only grow sum(m_i^2) - m_s.  _walk, an innermost
# loop, tests the room inline; _count_feasible counts the whole tree.


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


def _count_feasible(cap: int, length: int, budgets: Sequence[int]) -> list[int]:
    """For each budget, the number of nonincreasing vectors with entries in
    [1, cap], at most length of them and sum(m_i^2) - m_s <= budget:
    everything _walk(cap, length, budget) yields.

    A vector is its last entry e = m_s after a multiset of entries in
    [e, cap], and sum(m_i^2) - m_s is the multiset's sum of squares plus
    e^2 - e.  The counts are exact polynomials in x, packed into ints
    with one `width`-bit slot per degree (Kronecker substitution), so a
    shift by width*j multiplies by x^j.  With e running from cap down,
    polys[l] gains polys[l - 1] * x^(e^2) for l ascending, and then counts
    the multisets of l entries in [e, cap] by sum of squares; their sum,
    times x^(e^2 - e), counts the vectors that end in e.  The count for a
    budget b is the sum of the slots at degrees 0..b, and one modulus
    takes it: since 2^width = 1 mod 2^width - 1, the total cut to its low
    b + 1 slots is congruent to the sum of those slots, which is less
    than 2^width - 1 (see below), so the residue is that sum.  Memory:
    min(length, top + 1) polys of (top + 1)*width bits.
    """
    # Past length*cap^2 no budget admits more vectors, so no slot above top
    # is ever read, and every poly is truncated there.
    top = min(max(budgets), length * cap * cap)
    # Every coefficient, and every sum of them below top, counts distinct
    # vectors of the box, of which there are comb(length + cap, cap) - 1 <=
    # 2^width - 2.  So a slot of this width never carries into the next,
    # and the modulus 2^width - 1 exceeds every count it returns.
    width = math.comb(length + cap, cap).bit_length()
    mask = (1 << width * (top + 1)) - 1
    # A vector of l + 1 entries has sum(m_i^2) - m_s >= l, so multisets of
    # more than top entries never reach a slot that is read.
    polys = [1] + [0] * (min(length, top + 1) - 1)
    total = 0
    for e in range(cap, 0, -1):
        shift = width * e * e
        for l in range(1, min(len(polys), top // (e * e) + 1)):
            polys[l] = (polys[l] + (polys[l - 1] << shift)) & mask
        if e * e - e <= top:
            total += sum(polys) << width * (e * e - e)
    slot = (1 << width) - 1
    return [(total & ((1 << width * (min(budget, top) + 1)) - 1)) % slot for budget in budgets]


def _walk(cap: int, length: int, room: int, need: int = 0) -> Iterator[tuple[Multiplicities, int]]:
    """Yield (m, sum(m)) for every nonincreasing vector with entries in
    [1, cap], at most length of them, sum(m_i^2) - m_s <= room and
    sum(m) >= need.

    Vectors come depth first, each before its extensions, entries in
    increasing order: Python's tuple order.  While a prefix is still
    short of need, the walk enters a subtree only when _best_sum's
    total below it reaches need, so with need set to the largest sum it
    visits only prefixes of the vectors it yields.  Below an entry e
    every entry is at most e, so _best_sum(e, n, room) <= n*e, and a
    subtree that n more entries of e cannot lift to need is passed over
    without calling it; that skips only calls that would fail.  It
    keeps its own stack, one frame per entry, so a long vector cannot
    exhaust the interpreter's recursion limit.
    """
    entries: list[int] = []
    frames = [(iter(range(1, cap + 1)), length, room, 0)]  # (next entries, length, room, total)
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
                reached >= need
                or reached + e * (length - 1) >= need
                and reached + _best_sum(e, length - 1, room - e * e) >= need
            ):
                frames.append((iter(range(1, e + 1)), length - 1, room - e * e, reached))
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
    minimum = min(Fraction(d * k, best) for d, best in bests)
    witnesses = [
        (d, m)
        for d, best in bests
        if Fraction(d * k, best) == minimum
        for m, _ in _walk(m_max, r, d * d * k, need=best)
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
    scan stops at the first r that clears the bound.  The test reads a
    vector only through its sum, and it rises with the sum.

    So the scan decides each cell (k, d, s), s the length, on its own.  A
    vector of length s is tested from r0 = max(r_min, s).  Its all-ones
    vector gives the unit-multiplicity hits, counted by stepping r up
    from r0.  Every other vector has m_1 >= 2 and a sum above s, and the
    largest sum in the cell, _best_sum(m_max, s, d^2*k), decides them
    all: if it is at most s, or not sub-generic at r0, the cell holds no
    violation.  Otherwise the scan walks the cell's vectors whose sum is
    above s, which are those with m_1 >= 2, and classifies each of them.
    The only such cell on a correct trichotomy is (k, d, s) = (6, 1, 2).
    Violations come in the order (k, d), then m as tuples, then r.

    A cell holds vectors iff s <= d^2*k + 1, the all-ones vector's bound,
    and only its longer lengths can hold a hit.  Lemma: a feasible vector
    m of length s that is sub-generic at some r >= s has
    m_s*(s+2) > d^2*k.  Proof: sub-generic at r implies sub-generic at s,
    and (sum m)^2 <= s*sum(m_i^2) <= s*(d^2*k + m_s) by Cauchy-Schwarz
    and EL-Xu, so d^2*k*s*(s+3)/(s+2) < s*(d^2*k + m_s), which is
    d^2*k < (s+2)*m_s.  A floor on s follows, as EL-Xu gives
    s*m_s^2 - m_s <= d^2*k.  With y = d^2*k/(s+2) < m_s, and x*(s*x - 1)
    increasing for x >= 1/(2s), d^2*k >= m_s*(s*m_s - 1) > y*(s*y - 1),
    which is s*d^2*k < (s+2)*(s+3); for y < 1/(2s) that holds outright.
    So d^2*k < s + 5 + 6/s <= s + 11, and s >= d^2*k - 10.  The scan
    starts its lengths at that floor, and since budgets rise with d it
    stops the d loop once d^2*k - 10 exceeds r_max; past
    k = r_max + 10 that holds at d = 1, so the k loop stops there.
    The lemma covers every feasible vector, the all-ones one too, and
    does not use the trichotomy, so no unit hit is lost and a real
    violation is still found.  feasible_vectors counts the whole box
    with one exact generating function over every budget d^2*k of the scan
    (_count_feasible), which enumerates nothing.
    """
    if not (1 <= k_min <= k_max and 2 <= r_min <= r_max and d_max >= 1 and m_max >= 1):
        raise ValueError("bad scan box")
    violations: list[Violation] = []
    counts: dict[CaseLabel, int] = {
        CaseLabel.UNIT_MULTIPLICITY: 0,
        CaseLabel.TWO_SIX: 0,
    }
    budgets = [d * d * k for k in range(k_min, k_max + 1) for d in range(1, d_max + 1)]
    feasible = sum(_count_feasible(m_max, r_max, budgets))
    for k in range(k_min, min(k_max, r_max + 10) + 1):
        for d in range(1, d_max + 1):
            budget = d * d * k
            if budget - 10 > r_max:
                break  # no length reaches the floor, nor at any larger d
            for s in range(max(1, budget - 10), min(r_max, budget + 1) + 1):
                r0 = max(r_min, s)
                r = r0
                while r <= r_max and is_subgeneric(budget, s, r):  # (1,)*s
                    counts[CaseLabel.UNIT_MULTIPLICITY] += 1
                    r += 1
                best = _best_sum(m_max, s, budget)
                if best <= s or not is_subgeneric(budget, best, r0):
                    continue
                for m, total in _walk(m_max, s, budget, need=s + 1):
                    if len(m) != s:
                        continue
                    for r in range(r0, r_max + 1):
                        if not is_subgeneric(budget, total, r):
                            break  # generic from here on; monotone in r
                        if _is_two_six(d, k, m):
                            counts[CaseLabel.TWO_SIX] += 1
                        else:
                            violations.append(Violation(d, k, r, m))
    violations.sort(key=lambda v: (v.k, v.d, v.m))  # tuple order across lengths, stable in r
    return TheoremScan(feasible, counts, tuple(violations))


@dataclass
class HanScan:
    applicable_checked: int
    counterexamples: tuple[Multiplicities, ...]
    equality_witnesses: tuple[Multiplicities, ...]


def verify_han_exhaustive(s_max: int, m_max: int) -> HanScan:
    """Check Han's inequality on every applicable vector with s <= s_max
    and m_1 <= m_max; equality witnesses are recorded.

    A vector applies iff s >= 2, sum(m) > s (not all ones) and it is not
    (2, 2): C(m_max + s_max, s_max) - 1 nonempty vectors, less s_max all
    ones, m_max - 1 single entries >= 2 and (2, 2).

    The scan is a certificate over the groups (length s, last entry
    e = m_s, sum t): it visits only the groups that han_floor cannot
    clear.  Every vector of a group has margin >= han_floor(s, t, e) =
    t^2 - s*(s+3)*e (Cauchy-Schwarz), so a group whose floor is > 0 holds
    no counterexample and no equality.  The floor rises in t, and a
    group has t >= s*e, where the floor s*e*(s*e - s - 3) rises in e.  So
    for each s, e runs up to the last e with floor(s, s*e, e) <= 0 and t
    from s*e up to the last t with floor <= 0 (and t - e <= (s-1)*m_max):
    nothing past the first positive floor can fail.  The groups that
    survive are e = 1 with t <= s + 1, the all-ones vector and
    (2, 1, ..., 1), two for each length, plus (2, 2) and, for s_max >= 3,
    (2, 2, 2).

    Each visited group is decided by han_margin at its least sum of
    squares.  With n = s - 1, that vector is balanced: e, then n - rho
    entries q and rho entries q + 1, (q, rho) = divmod(t - e, n), least
    sum of squares e^2 + n*q^2 + rho*(2q + 1).  The margin's sum(m_i^2)
    coefficient is (s+3)*s > 0, so a group holds a vector with margin
    <= 0 iff its balanced vector does.  Only the groups whose least
    margin is <= 0 are listed, checked against their count (_partitions)
    and least sum of squares, and each listed vector is sorted by its
    own margin.  Counterexamples and equality witnesses come in the order
    of (s, m[::-1]): by length, then as nondecreasing tuples.
    """
    if s_max < 2 or m_max < 2:
        raise ValueError(f"need s_max, m_max >= 2, got {s_max}, {m_max}")
    counterexamples: list[Multiplicities] = []
    equalities: list[Multiplicities] = []
    for s in range(2, s_max + 1):
        n = s - 1
        for e in range(1, m_max + 1):
            if han_floor(s, s * e, e) > 0:
                break
            for total in range(s * e, e + n * m_max + 1):
                if han_floor(s, total, e) > 0:
                    break
                q, rho = divmod(total - e, n)
                least = e * e + n * q * q + rho * (2 * q + 1)
                # han_applies reads sum(m_i^2) only to exclude (s, sum,
                # sum_sq) = (2, 4, 8); the group (s, m_s, sum) = (2, 2, 4)
                # is the singleton {(2, 2)}, so testing the least sum of
                # squares is exact for every vector of the group.
                if han_margin(s, total, least, e) > 0 or not han_applies(s, total, least):
                    continue
                vectors = _han_group(s, e, total, m_max)
                count = _partitions(total - s * e, n, m_max - e)
                if len(vectors) != count:
                    raise RuntimeError(
                        f"group s={s}, m_s={e}, sum={total} "
                        f"lists {len(vectors)} vectors, its count is {count}"
                    )
                squares = [sum(x * x for x in m) for m in vectors]
                if min(squares) != least:
                    raise RuntimeError(
                        f"group s={s}, m_s={e}, sum={total} lists a least sum of "
                        f"squares {min(squares)}, its least is {least}"
                    )
                for m, sum_sq in zip(vectors, squares):
                    margin = han_margin(s, total, sum_sq, e)
                    if margin < 0:
                        counterexamples.append(m)
                    elif margin == 0:
                        equalities.append(m)
    checked = math.comb(m_max + s_max, s_max) - m_max - s_max - 1
    return HanScan(checked, _in_scan_order(counterexamples), _in_scan_order(equalities))


def _partitions(t: int, n: int, k: int) -> int:
    """Partitions of t into at most n parts, each <= k.  The n entries
    after m_s = e exceed e by such a partition of sum(m) - s*e, with
    k = m_max - e, so this counts a group's vectors.  It is the x^t
    coefficient of the Gaussian binomial [n + k, n], symmetric of degree
    n*k: prod_{i=1..n} (1 - x^(k+i)) / (1 - x^i), truncated past x^t.
    """
    t = min(t, n * k - t)
    if t < 0:
        return 0
    coeffs = [1] + [0] * t
    for i in range(1, n + 1):
        for j in range(t, k + i - 1, -1):
            coeffs[j] -= coeffs[j - k - i]
        for j in range(i, t + 1):
            coeffs[j] += coeffs[j - i]
    return coeffs[t]


def _in_scan_order(vectors: list[Multiplicities]) -> tuple[Multiplicities, ...]:
    """By length, then as nondecreasing tuples: the vector-by-vector order."""
    return tuple(sorted(vectors, key=lambda m: (len(m), m[::-1])))


def _han_group(s: int, last: int, total: int, cap: int) -> list[Multiplicities]:
    """Every nonincreasing vector with s entries in [last, cap], m_s = last
    and sum(m) = total, in increasing order of m[::-1].

    s >= 2.  The walk picks entries from the last one up and keeps its
    own stack, so a long group cannot exhaust the interpreter's recursion
    limit.  With n entries still to pick, each in [lo, cap] for lo the
    entry before them, summing to t, the next entry e needs n*e <= t and
    t - e <= (n - 1)*cap.  So it runs over exactly
    [max(lo, t - (n - 1)*cap), min(cap, t // n)], and every entry taken
    leads to a vector.
    """

    def choices(lo: int, n: int, t: int) -> Iterator[int]:
        return iter(range(max(lo, t - (n - 1) * cap), min(cap, t // n) + 1))

    found: list[Multiplicities] = []
    entries = [last]
    frames = [(choices(last, s - 1, total - last), s - 1, total - last)]
    while frames:
        next_entries, n, t = frames[-1]
        for e in next_entries:
            if n == 1:
                found.append((e, *reversed(entries)))
            else:
                entries.append(e)
                frames.append((choices(e, n - 1, t - e), n - 1, t - e))
                break  # extend first; this frame resumes at e + 1
        else:
            frames.pop()
            entries.pop()
    return found


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


class K3Exclusion(NamedTuple):
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
