"""Brute-force verification suites for the bound machinery.

The setting, the EL-Xu inequality and the trichotomy behind the main
bound are in .walk, together with the walk over feasible vectors and
the minimum-ratio search.  This module holds the suites that cover
every feasible configuration in a finite box: the theorem scan
classifies each one against the trichotomy, the Han scan checks Han's
inequality on every applicable vector, and the K3 suite decides the
dimension-count argument that excludes the unit-multiplicity
alternative (referred to as "case 2" throughout) on K3 surfaces in
closed form, each k by its least degree d with h0(dL) >= d^2*k + 2.

Enumeration is deterministic.  The theorem scan decides each cell
(k, d, length) from the cell's largest feasible sum in closed form, and
walks a cell only when that sum is sub-generic, which on a correct
trichotomy happens at the (1, 6, (2, 2)) cell alone; it counts its whole
box with one exact generating function and enumerates no vector it does
not walk.  The Han scan visits only the groups of vectors (length, last
entry, sum) that a Cauchy-Schwarz floor on the margin cannot clear, two
or three per length; one margin at a group's least sum of squares, in
closed form, settles Han's inequality for the whole group.  It builds
only the vectors of the groups that can fail it or reach equality, and
counts its applicable vectors in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from . import _public
from .inequalities import han_applies, han_floor, han_margin, is_subgeneric, subgeneric_unit_length
from .walk import CaseLabel, Multiplicities, _best_sum, _is_two_six, _walk
from .walk import min_ratio_search  # noqa: F401  perfbench calls and traces oracle.min_ratio_search

__all__ = _public(__name__)


def _count_feasible(cap: int, length: int, budgets: Sequence[int]) -> list[int]:
    """For each budget, the number of nonincreasing vectors with entries in
    [1, cap], at most length of them and sum(m_i^2) - m_s <= budget:
    everything _walk(cap, length, budget) yields, counted without walking
    the EL-Xu tree (see the note above _best_sum in .walk).

    A vector is its last entry e = m_s after a multiset of at most
    length - 1 entries in [e, cap], and sum(m_i^2) - m_s is the
    multiset's sum of squares plus e^2 - e.  The counts are exact
    polynomials in x, packed into ints with one `width`-bit slot per
    degree (Kronecker substitution), so a shift by width*j multiplies by
    x^j.  polys[l] counts the multisets of at most l entries by sum of
    squares, which are the multisets of exactly l entries once a zero
    entry is allowed (0^2 = 0); so it starts as [1], and with e running
    from cap down, polys[l] gains polys[l - 1] * x^(e^2) for l ascending.
    Only l <= c_e = min(length - 1, top // e^2) is kept: a multiset of
    more than c_e entries of at least e passes top when c_e < length - 1,
    so polys[-1] stands for every longer l, polys[length - 1] included,
    and polys[-1] * x^(e^2 - e) counts the vectors that end in e.  As e
    falls top // e^2 grows, so c_e never falls, and before each e the
    list is padded with copies of polys[-1] to c_e + 1 entries.  The count for a budget b is
    the sum of the slots at degrees 0..b, and one modulus takes it:
    since 2^width = 1 mod 2^width - 1, the total cut to its low b + 1
    slots is congruent to the sum of those slots, which is less than
    2^width - 1 (see below), so the residue is that sum.  Memory: at
    most min(length, top + 1) polys of (top + 1)*width bits.
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
    polys = [1]
    total = 0
    # An entry e with e^2 - e > top has e^2 > top, so it adds nothing to any
    # poly, and no vector ends in it: e starts at the largest e with
    # e^2 - e <= top, which is (1 + isqrt(1 + 4*top)) // 2.
    for e in range(min(cap, (1 + math.isqrt(1 + 4 * top)) // 2), 0, -1):
        square = e * e
        kept = min(length, top // square + 1)
        polys += [polys[-1]] * (kept - len(polys))
        shift = width * square
        for l in range(1, kept):
            polys[l] = (polys[l] + (polys[l - 1] << shift)) & mask
        total += polys[-1] << width * (square - e)
    slot = (1 << width) - 1
    return [(total & ((1 << width * (min(budget, top) + 1)) - 1)) % slot for budget in budgets]


class Violation(NamedTuple):
    d: int
    k: int
    r: int
    m: Multiplicities


@dataclass(frozen=True)
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
    k_max: int, r_max: int, d_max: int, m_max: int, *, k_min: int = 1
) -> TheoremScan:
    """Classify every feasible configuration with k_min <= k <= k_max,
    2 <= r <= r_max, d <= d_max, entries <= m_max.

    In the sub-generic test d^2*k*r*(r+3) < (r+2)*(sum m)^2 the left side
    grows faster in r than the right, because r*(r+3)/(r+2) increases in
    r.  So each vector is sub-generic on a prefix of r values, and the
    scan stops at the first r that clears the bound.  The test reads a
    vector only through its sum, and it rises with the sum.

    The all-ones vectors give the unit-multiplicity hits: by
    subgeneric_unit_length, (k, d) has them only at r = d^2*k + 1 and
    d^2*k + 2, where the scan asks it.  Every other vector has m_1 >= 2
    and a sum above its length s; they are tested from r0 = max(2, s)
    on, cell (k, d, s) by cell.  The cell's largest sum,
    _best_sum(m_max, s, d^2*k), decides them all: if it is at most s, or
    not sub-generic at r0, the cell holds no violation.  Otherwise the
    scan walks the cell's vectors whose sum is above s, which are those
    with m_1 >= 2, and classifies each of them.  The only such cell on a
    correct trichotomy is (k, d, s) = (6, 1, 2).
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
    Within the loop it tests each length by the lemma's exact form and
    skips, before its _best_sum, every s with s*d^2*k >= (s+2)*(s+3).
    The lemma covers every feasible vector and does not use the
    trichotomy, so a real violation is still found; a unit hit needs
    d^2*k < r <= r_max, so neither cut of the loops loses one.
    feasible_vectors counts the whole box without enumerating it: a budget
    d^2*k >= r_max*m_max^2 admits all comb(r_max + m_max, m_max) - 1
    vectors of the box, and one exact generating function counts every
    smaller budget (_count_feasible), so no k >= r_max*m_max^2 adds work.
    k_min exists for the benchmark, whose verify-box workload scans one
    sub-box per k and whose perfbench/checks.py checks each of them; it
    stays while they do.
    """
    if not (1 <= k_min <= k_max and r_max >= 2 and d_max >= 1 and m_max >= 1):
        raise ValueError("bad scan box")
    violations: list[Violation] = []
    counts: dict[CaseLabel, int] = {CaseLabel.UNIT_MULTIPLICITY: 0, CaseLabel.TWO_SIX: 0}
    # From k = cut on every d reaches the cut, so at most cut*d_max (k, d)
    # are tested, and fewer than 2*cut of them fall below it.
    cut = r_max * m_max * m_max
    budgets = [
        budget
        for k in range(k_min, min(k_max, cut - 1) + 1)
        for d in range(1, d_max + 1)
        if (budget := d * d * k) < cut
    ]
    whole = (k_max + 1 - k_min) * d_max - len(budgets)
    feasible = whole * (math.comb(r_max + m_max, m_max) - 1)
    if budgets:
        feasible += sum(_count_feasible(m_max, r_max, budgets))
    for k in range(k_min, min(k_max, r_max + 10) + 1):
        for d in range(1, d_max + 1):
            budget = d * d * k
            if budget - 10 > r_max:
                break  # no length reaches the floor, nor at any larger d
            for r in range(budget + 1, min(r_max, budget + 2) + 1):
                if subgeneric_unit_length(budget, r):  # (1,)*s, s = min(r, budget + 1)
                    counts[CaseLabel.UNIT_MULTIPLICITY] += 1
            for s in range(max(1, budget - 10), min(r_max, budget + 1) + 1):
                if s * budget >= (s + 2) * (s + 3):
                    continue  # the lemma: no vector of this length is sub-generic
                r0 = max(2, s)
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


@dataclass(frozen=True)
class HanScan:
    """Result of the Han suite over a box: the number of vectors the
    inequality applies to, every applicable vector that fails it, and
    every one that meets it with equality."""

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


class K3Scan(NamedTuple):
    pairs_checked: int
    failures: tuple[tuple[int, int], ...]


def verify_k3(k_max: int, r_max: int, d_max: int) -> K3Scan:
    """Decide, for every even k in [2, k_max] and r in [3, r_max], whether
    the section-count argument excludes case 2.  It does iff every row
    (d, s) with d <= d_max and s <= r is direct, d^2*k >= s, or no-curve,
    h0(d, k) < s + 1, so that dL cannot pass through s general points.
    The argument's other rows, h0 = s + 1 and h0 > s + 1, reach d^2*k >= s
    only through a curve they construct, not by their own arithmetic, so
    one of them fails the pair.

    A row is neither direct nor no-curve iff d^2*k < s <= h0 - 1, so a
    pair (k, r) fails iff some d <= d_max has a row with
    d^2*k < s <= min(r, h0(d, k) - 1), that is iff h0(d, k) >= d^2*k + 2
    and d^2*k < r.  For each k let d* be the least d <= d_max with
    h0(d, k) >= d^2*k + 2.  Since d^2*k rises with d, the pair (k, r)
    fails iff d* exists and d*^2*k < r: exactly the r with
    d*^2*k < r <= r_max fail.  No d with d^2*k >= r_max fails any r of
    the box, so the search for d* stops there, and it reads k3_h0 at most
    once per (k, d); a k >= r_max has d^2*k >= r_max from d = 1 on, so
    the k loop stops at r_max - 1.  The true h0 = d^2*k/2 + 2 reaches
    d^2*k + 2 only at d^2*k <= 0, so no pair fails.  Failures come in
    (k, r) order.
    """
    if k_max < 2 or r_max < 3 or d_max < 1:
        raise ValueError(
            f"empty K3 box: need k_max >= 2, r_max >= 3, d_max >= 1, got {k_max}, {r_max}, {d_max}"
        )
    failures: list[tuple[int, int]] = []
    for k in range(2, min(k_max, r_max - 1) + 1, 2):
        for d in range(1, d_max + 1):
            d2k = d * d * k
            if d2k >= r_max:
                break
            if k3_h0(d, k) >= d2k + 2:
                failures += ((k, r) for r in range(d2k + 1, r_max + 1))
                break
    return K3Scan((k_max // 2) * (r_max - 2), tuple(failures))
