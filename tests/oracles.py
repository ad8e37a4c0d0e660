"""Independent test oracles, kept free of the implementation's code paths."""

from fractions import Fraction

from seshadri.exact import isqrt
from seshadri.oracle import (
    CaseLabel,
    SearchResult,
    TheoremScan,
    Violation,
    feasible_multiplicities,
)
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


def theorem_scan_walk(
    k_max, r_max, d_max, m_max, *, k_min=1, r_min=2,
    is_exception=lambda d, k, m: (d, k, m) == (1, 6, (2, 2)),
):
    """verify_theorem by the full walk: every feasible vector is enumerated,
    counted and tested at each r until it clears the generic bound.

    The walk is feasible_multiplicities, which prunes nothing that can be
    feasible and is itself checked against an itertools re-enumeration.
    is_exception(d, k, m) replaces the (1, 6, (2, 2)) test, so a test can
    turn that configuration into a violation.
    """
    counts = {CaseLabel.UNIT_MULTIPLICITY: 0, CaseLabel.TWO_SIX: 0}
    violations, feasible = [], 0
    for k in range(k_min, k_max + 1):
        for d in range(1, d_max + 1):
            budget = d * d * k
            for m in feasible_multiplicities(d, k, r_max, m_max):
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
        for m in feasible_multiplicities(d, k, r, m_max):
            ratio = Fraction(d * k, sum(m))
            if best is None or ratio < best:
                best, witnesses = ratio, [(d, m)]
            elif ratio == best:
                witnesses.append((d, m))
    witnesses.sort(key=lambda w: (w[0], len(w[1]), w[1]))
    return SearchResult(best, tuple(witnesses))
