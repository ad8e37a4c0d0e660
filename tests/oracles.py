"""Independent test oracles, kept free of the implementation's code paths."""

import itertools
from fractions import Fraction

from seshadri.bounds import SubmaximalCandidate, ThresholdScan
from seshadri.exact import isqrt
from seshadri.inequalities import el_xu_feasible, han_inequality, is_subgeneric
from seshadri.oracle import CaseLabel, HanScan, SearchResult, TheoremScan, Violation
from seshadri.pell import PellSolution


def pell_brute_force(k: int, q_cap: int) -> tuple[int, int] | None:
    """Scan q = 2..q_cap for the smallest solution of q^2 - k p^2 = 1."""
    for q in range(2, q_cap + 1):
        t = q * q - 1
        if t % k == 0:
            p = isqrt(t // k)
            if p >= 1 and p * p * k == t:
                return p, q
    return None


def pell_convergent_walk(k: int) -> tuple[int, int]:
    """(p0, q0) by walking the convergents h/q of sqrt(k) and squaring each
    one until h^2 - k*q^2 = 1; k must be a non-square >= 2."""
    a0 = isqrt(k)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    q_prev, q = 0, 1
    while h * h - k * q * q != 1:
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        q_prev, q = q, a * q + q_prev
    return q, h


def pell_period_walk(k: int) -> tuple[int, int]:
    """(p0, q0) by stepping the convergents through the whole period of
    sqrt(k): h_n^2 - k*q_n^2 = (-1)^(n+1) * d_(n+1), so it stops at the
    first odd n with d_(n+1) = 1; k must be a non-square >= 2."""
    a0 = isqrt(k)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    q_prev, q = 0, 1
    odd = False
    while True:
        m = d * a - m
        d = (k - m * m) // d
        if d == 1 and odd:
            return q, h
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        q_prev, q = q, a * q + q_prev
        odd = not odd


def dominance_scan_walk(r: int, k_caps) -> dict[int, ThresholdScan]:
    """dominance_scan at each cap in k_caps, by testing every k from 1 to
    the largest cap in one walk."""
    j = 0
    while j * j * r * (r + 3) < (r + 2) * (r * (j + 1) ** 2 + r - 1):
        j += 1
    band_cutoff = r * j * j
    wanted, scans, last_failure = set(k_caps), {}, None
    for k in range(1, max(wanted) + 1):
        floor = isqrt(k // r)
        if floor * floor * (r + 3) * r < (r + 2) * k:
            last_failure = k
        if k in wanted:
            if last_failure is None:
                threshold = 1
            elif last_failure == k:
                threshold = None
            else:
                threshold = last_failure + 1
            scans[k] = ThresholdScan(r, k, threshold, last_failure, band_cutoff, k + 1 >= band_cutoff)
    return scans


def candidates_double_loop(k: int, r: int) -> tuple[SubmaximalCandidate, ...]:
    """enumerate_exceptional_candidates by testing every (d, s), d up to the
    first d where even s = r is not sub-generic."""
    out = []
    d = 1
    while is_subgeneric(d * d * k, r, r):
        d2k = d * d * k
        for s in range(1, r + 1):
            if el_xu_feasible(d2k, s, 1) and is_subgeneric(d2k, s, r):
                out.append(SubmaximalCandidate(d, s, Fraction(d * k, s)))
        d += 1
    out.sort(key=lambda c: (c.value, c.d, c.s))
    return tuple(out)


def pow_unit(a: int, b: int, k: int, j: int) -> tuple[int, int]:
    """(a + b*sqrt(k))^j in Z[sqrt(k)], by binary exponentiation."""
    ra, rb = 1, 0
    base_a, base_b = a, b
    while j:
        if j & 1:
            ra, rb = ra * base_a + rb * base_b * k, ra * base_b + rb * base_a
        base_a, base_b = (
            base_a * base_a + base_b * base_b * k,
            2 * base_a * base_b,
        )
        j >>= 1
    return ra, rb


def is_proper_power_of_smaller_solution(sol: PellSolution) -> bool:
    """Independent minimality certificate.

    The positive solutions of q^2 - k p^2 = 1 form a cyclic group, so
    (q0, p0) fails to be fundamental exactly when q0 + p0*sqrt(k) is a
    j-th power (j >= 2) of a smaller unit a + b*sqrt(k) with
    a^2 - k b^2 = 1.  Candidate a is recovered from a float j-th root
    (a = (u + 1/u)/2 for u the root) and then verified exactly in
    integer arithmetic, so float error cannot produce a wrong positive.
    """
    k, p0, q0 = sol.k, sol.p0, sol.q0
    value = q0 + p0 * (k**0.5)
    j = 2
    while 2.4**j <= value:  # the smallest possible unit exceeds 1 + sqrt(2)
        u = value ** (1.0 / j)
        center = (u + 1.0 / u) / 2.0
        for a in {int(center), int(center) + 1, int(center) - 1}:
            if a < 1:
                continue
            b2, rem = divmod(a * a - 1, k)
            if rem:
                continue
            b = isqrt(b2)
            if b < 1 or b * b != b2:
                continue
            if pow_unit(a, b, k, j) == (q0, p0):
                return True
        j += 1
    return False


def el_xu_vectors(budget, max_len, m_max):
    """Every nonincreasing vector with entries in [1, m_max], at most
    max_len of them and sum(m_i^2) - m_s <= budget, sorted.

    Built one length at a time.  Appending an entry e to a vector with
    last entry m_s changes sum(m_i^2) - m_s by e^2 - e + m_s > 0, so every
    prefix of a feasible vector is feasible, and extending each feasible
    vector by every entry up to its last, keeping the feasible
    extensions, reaches them all.  No recursion, so vectors longer than
    the recursion limit are fine.
    """
    found, level = [], [((), 0)]  # (vector, sum of squares)
    for _ in range(max_len):
        level = [
            (m + (e,), sq + e * e)
            for m, sq in level
            for e in range(1, (m[-1] if m else m_max) + 1)
            if sq + e * e - e <= budget
        ]
        found.extend(m for m, _ in level)
    return sorted(found)


def theorem_scan_walk(
    k_max, r_max, d_max, m_max, *, k_min=1, r_min=2,
    is_exception=lambda d, k, m: (d, k, m) == (1, 6, (2, 2)),
):
    """verify_theorem by the full walk: every feasible vector is enumerated,
    counted and tested at each r until it clears the generic bound.

    The walk is el_xu_vectors, which is checked against an itertools
    re-enumeration.  is_exception(d, k, m) replaces the (1, 6, (2, 2))
    test, so a test can turn that configuration into a violation.
    """
    counts = {CaseLabel.UNIT_MULTIPLICITY: 0, CaseLabel.TWO_SIX: 0}
    violations, feasible = [], 0
    for k in range(k_min, k_max + 1):
        for d in range(1, d_max + 1):
            budget = d * d * k
            for m in el_xu_vectors(budget, r_max, m_max):
                feasible += 1
                total = sum(m)
                for r in range(max(r_min, len(m)), r_max + 1):
                    if budget * r * (r + 3) >= (r + 2) * total * total:
                        break
                    if m[0] == 1:
                        counts[CaseLabel.UNIT_MULTIPLICITY] += 1
                    elif is_exception(d, k, m):
                        counts[CaseLabel.TWO_SIX] += 1
                    else:
                        violations.append(Violation(d, k, r, m))
    return TheoremScan(k_min, k_max, r_min, r_max, d_max, m_max, feasible, counts, tuple(violations))


def min_ratio_walk(k, r, d_max, m_max):
    """min_ratio_search by the full walk over every feasible vector."""
    best, witnesses = None, []
    for d in range(1, d_max + 1):
        for m in el_xu_vectors(d * d * k, r, m_max):
            ratio = Fraction(d * k, sum(m))
            if best is None or ratio < best:
                best, witnesses = ratio, [(d, m)]
            elif ratio == best:
                witnesses.append((d, m))
    witnesses.sort(key=lambda w: (w[0], len(w[1]), w[1]))
    return SearchResult(best, tuple(witnesses))


def han_scan_walk(s_max, m_max, margin=None):
    """verify_han_exhaustive by testing every nonincreasing vector with
    han_inequality, length by length and in itertools order.

    margin(s, total, sum_sq, last), when given, replaces the margin
    han_inequality computes, so a test can make many classes fail or
    reach equality and compare what the scan lists.
    """
    counterexamples, equalities, checked = [], [], 0
    for s in range(1, s_max + 1):
        for combo in itertools.combinations_with_replacement(range(1, m_max + 1), s):
            m = combo[::-1]
            applicable, value = han_inequality(m)
            if not applicable:
                continue
            if margin is not None:
                value = margin(s, sum(m), sum(e * e for e in m), m[-1])
            checked += 1
            if value < 0:
                counterexamples.append(m)
            elif value == 0:
                equalities.append(m)
    return HanScan(s_max, m_max, checked, tuple(counterexamples), tuple(equalities))
