"""Independent test oracles, kept free of the implementation's code paths."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache, total_ordering
from math import comb

from seshadri.bounds import (
    BoundEntry,
    BoundReport,
    HarbourneBound,
    MainLowerBound,
    ProductFactors,
    SubmaximalCandidate,
    ThresholdScan,
    enumerate_exceptional_candidates,
    harbourne_bound,
)
from seshadri.exact import Surd, isqrt, squarefree_decompose
from seshadri.inequalities import han_applies, han_margin, is_square, is_subgeneric
from seshadri import oracle
from seshadri.oracle import HanScan, TheoremScan, Violation, k3_h0
from seshadri.pell import PellSolution, fsst_applicable, pell_fundamental, szemberg_single_point_bound
from seshadri.plane import BoundValue, PlaneValue, PlaneValueStatus, nagata_plane_value
from seshadri.walk import CaseLabel, SearchResult


@total_ordering
@dataclass(frozen=True, eq=False)
class FractionSurd:
    """Surd with a Fraction coefficient, renormalized through Fraction
    arithmetic and a squarefree decomposition at every construction.

    sqrt(p/q) is taken as sqrt(p*q)/q, a product multiplies the radicands
    and factors the result again, and the order compares the Fraction
    squares.  A rational value hashes like its Fraction, as it compares
    equal to it.
    """

    coeff: Fraction
    radicand: int = 1

    def __post_init__(self) -> None:
        coeff = self.coeff if isinstance(self.coeff, Fraction) else Fraction(self.coeff)
        n = self.radicand
        if n < 0:
            raise ValueError(f"radicand must be nonnegative, got {n}")
        if coeff < 0:
            raise ValueError(f"surd values are nonnegative, got coefficient {coeff}")
        if coeff == 0 or n == 0:
            coeff, n = Fraction(0), 1
        elif n > 1:
            a, b = squarefree_decompose(n)
            coeff, n = coeff * a, b
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", n)

    @classmethod
    def sqrt(cls, q):
        q = Fraction(q)
        if q < 0:
            raise ValueError(f"sqrt of negative rational {q}")
        if q == 0:
            return cls(Fraction(0), 1)
        return cls(Fraction(1, q.denominator), q.numerator * q.denominator)

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __mul__(self, other):
        if isinstance(other, FractionSurd):
            return FractionSurd(self.coeff * other.coeff, self.radicand * other.radicand)
        if isinstance(other, (Fraction, int)):
            return FractionSurd(self.coeff * Fraction(other), self.radicand)
        return NotImplemented

    __rmul__ = __mul__

    def _coerced(self, other):
        if isinstance(other, FractionSurd):
            return other
        if isinstance(other, (Fraction, int)):
            if other < 0:
                return None
            return FractionSurd(Fraction(other), 1)
        return None

    def __eq__(self, other):
        if isinstance(other, (Fraction, int)) and other < 0:
            return False
        coerced = self._coerced(other)
        if coerced is None:
            return NotImplemented
        return self.coeff == coerced.coeff and self.radicand == coerced.radicand

    def __lt__(self, other):
        coerced = self._coerced(other)
        if coerced is None:
            if isinstance(other, (Fraction, int)):  # negative rational
                return False
            return NotImplemented
        return self.squared() < coerced.squared()

    def __hash__(self):
        if self.radicand == 1:
            return hash(self.coeff)
        return hash((self.coeff, self.radicand))

    def __str__(self):
        if self.radicand == 1:
            return str(self.coeff)
        return f"{self.coeff}*sqrt({self.radicand})"


def fraction_render_decimal(x: FractionSurd, digits: int) -> str:
    """floor(x * 10^digits) / 10^digits as a decimal string, from the
    Fraction coefficient of a FractionSurd."""
    p, q = x.coeff.numerator, x.coeff.denominator
    scale = 10**digits
    scaled = isqrt(p * p * x.radicand * scale * scale) // q
    whole, frac = divmod(scaled, scale)
    return f"{whole}.{frac:0{digits}d}"


def pell_brute_force(k: int, q_cap: int) -> tuple[int, int] | None:
    """Scan q = 2..q_cap for the smallest solution of q^2 - k p^2 = 1."""
    for q in range(2, q_cap + 1):
        t = q * q - 1
        if t % k == 0:
            p = isqrt(t // k)
            if p >= 1 and p * p * k == t:
                return p, q
    return None


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


def squarefree_trial_division(n: int) -> tuple[int, int]:
    """squarefree_decompose by trial division while p*p is at most the part
    of n not yet divided out; what is left over is 1 or a prime."""
    square_part, free_part = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            square_part *= p ** (e // 2)
            if e % 2:
                free_part *= p
        p += 1 if p == 2 else 2
    return square_part, free_part * m


def biran_product_value(k: int, r: int):
    """The product bound at (k, r): the plane value times the single-point
    bound as a Fraction, reduced by its gcd."""
    return nagata_plane_value(r).bound.value * szemberg_single_point_bound(k)


def _sqrt_by_fractions(q: Fraction) -> Surd:
    """sqrt(q) as sqrt(p*d)/d for q = p/d, through Surd's checked
    constructor, which factors p*d and cancels its square part."""
    return Surd(Fraction(1, q.denominator), q.numerator * q.denominator)


# The plane's known values for r <= 8, typed out again.
_PLANE_BY_R = (None, Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
               Fraction(2, 5), Fraction(2, 5), Fraction(3, 8), Fraction(6, 17))


def _plane_value_by_fractions(r: int) -> PlaneValue:
    if r <= 8:
        return PlaneValue(BoundValue(Surd(_PLANE_BY_R[r])), PlaneValueStatus.KNOWN)
    status = PlaneValueStatus.PROVED_SQUARE if is_square(r) else PlaneValueStatus.CONJECTURAL
    return PlaneValue(BoundValue(_sqrt_by_fractions(Fraction(1, r))), status)


def compare_bounds_by_fractions(k: int, r: int, very_ample: bool = False) -> BoundReport:
    """compare_bounds with every value built from a Fraction through Surd's
    checked constructor, and the entries ordered by a comparator on their
    squares, ties by ascending name.  The candidate list, Harbourne's
    elements and the Pell solution come from the library."""
    if r < 2:
        raise ValueError(f"bound comparison needs r >= 2, got {r}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    upper = BoundValue(_sqrt_by_fractions(Fraction(k, r)), attained=False)
    if (r, k) == (2, 6):
        main = MainLowerBound(BoundValue(Surd(Fraction(3, 2)), attained=True, conditional=False), ())
    else:
        generic = _sqrt_by_fractions(Fraction((r + 2) * k, (r + 3) * r))
        main = MainLowerBound(
            BoundValue(generic, attained=True, conditional=True), enumerate_exceptional_candidates(k, r)
        )
    entries = [
        BoundEntry("main", main.bound, candidates=main.candidates, detail=main),
        BoundEntry("szemberg-floor", BoundValue(Surd(Fraction(isqrt(k // r))))),
    ]
    if very_ample:
        elements = harbourne_bound(k, r).elements
        if k <= r and is_square(r * k):
            value = BoundValue(_sqrt_by_fractions(Fraction(k, r)), attained=False)
        else:
            value = BoundValue(Surd(max(e.value for e in elements)))
        harb = HarbourneBound(value, elements)
        entries.append(BoundEntry("harbourne", harb.bound, detail=harb))
    if k >= 2 and not is_square(k):
        plane = _plane_value_by_fractions(r)
        factors = ProductFactors(pell_fundamental(k), fsst_applicable(k), plane)
        entries.append(
            BoundEntry(
                name="biran-product",
                value=BoundValue(plane.bound.value * Surd(factors.single)),
                conjectural=not factors.witness.applicable or plane.status is PlaneValueStatus.CONJECTURAL,
                detail=factors,
            )
        )

    def square(x: Surd) -> Fraction:
        return x.coeff * x.coeff * x.radicand

    upper_sq = square(upper.value)
    for e in entries:
        if not e.value.conditional and square(e.value.value) > upper_sq:
            raise RuntimeError(f"unconditional {e.name} bound exceeds sqrt(k/r) at k={k}, r={r}")

    def descending(x: BoundEntry, y: BoundEntry) -> int:
        xs, ys = square(x.value.value), square(y.value.value)
        return (ys > xs) - (ys < xs) or (x.name > y.name) - (x.name < y.name)

    entries.sort(key=cmp_to_key(descending))
    ranks: list[int] = []
    for i, e in enumerate(entries):
        if i > 0 and e.value.value == entries[i - 1].value.value:
            ranks.append(ranks[-1])
        else:
            ranks.append(i + 1)
    return BoundReport(k=k, r=r, upper=upper, entries=tuple(entries), ranks=tuple(ranks))


@lru_cache(maxsize=None)
def band_cutoff_by_steps(r: int) -> int:
    """r * j*^2 for the least j* with j*^2 r (r+3) >= (r+2)(r (j*+1)^2 + r - 1),
    found by stepping j up from 0."""
    j = 0
    while j * j * r * (r + 3) < (r + 2) * (r * (j + 1) ** 2 + r - 1):
        j += 1
    return r * j * j


def _threshold(last_failure, k_cap):
    return None if last_failure == k_cap else last_failure + 1


def dominance_scan_bands(r: int, k_cap: int) -> ThresholdScan:
    """dominance_scan by testing the last k of every band j^2 r <= k <
    (j+1)^2 r, clipped to k_cap, up to min(k_cap, band cutoff)."""
    band_cutoff = band_cutoff_by_steps(r)
    last_failure = None
    j = 0
    while j * j * r <= min(k_cap, band_cutoff):
        end = min((j + 1) ** 2 * r - 1, k_cap)
        floor = isqrt(end // r)
        if floor * floor * (r + 3) * r < (r + 2) * end:
            last_failure = end
        j += 1
    return ThresholdScan(
        r, k_cap, _threshold(last_failure, k_cap), last_failure, band_cutoff, k_cap + 1 >= band_cutoff
    )


def candidates_by_interval(k: int, r: int) -> tuple[SubmaximalCandidate, ...]:
    """enumerate_exceptional_candidates by one interval of s for each d.

    For fixed d the sub-generic test holds for every s from its least
    solution on, and EL-Xu for every s up to d^2*k + 1, so the admissible s
    form the interval from that least s to min(r, d^2*k + 1).  The least s
    is t + 1 for t = isqrt(d^2*k*r*(r+3) // (r+2)), and the loop steps up
    from t until the test holds.  The d loop stops at the first d for
    which even s = r is not sub-generic.  Sorted ascending by value, ties
    by (d, s).
    """
    out = []
    d = 1
    while is_subgeneric(d * d * k, r, r):
        d2k = d * d * k
        lo = isqrt(d2k * r * (r + 3) // (r + 2))
        while not is_subgeneric(d2k, lo, r):
            lo += 1
        hi = min(r, d2k + 1)  # el_xu_feasible(d2k, s, 1) is s <= d2k + 1
        out.extend(SubmaximalCandidate(d, s, Fraction(d * k, s)) for s in range(lo, hi + 1))
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


def el_xu_tally(cap, length, room, memo):
    """(number of vectors, largest sum(m)) over the nonincreasing vectors
    with entries in [1, cap], at most length of them and
    sum(m_i^2) - m_s <= room; (0, 0) when there are none.

    A memoized recursion over (cap, remaining length, remaining room),
    one level per entry, so for short vectors only: the reference for
    the theorem scan's generating-function count and for the minimum
    search's closed-form largest sum.  A vector extends by
    e <= cap while e^2 - e fits the room, and descends past e only while
    e^2 does.  memo may be shared between calls.
    """
    room = min(room, length * cap * cap)
    key = (cap, length, room)
    if key not in memo:
        count = best = 0
        for e in range(1, cap + 1):
            if e * e - e > room:
                break
            count += 1
            total = e
            if length > 1 and e * e <= room:
                tail_count, tail_best = el_xu_tally(e, length - 1, room - e * e, memo)
                count += tail_count
                total += tail_best
            best = max(best, total)
        memo[key] = (count, best)
    return memo[key]


def count_feasible_by_length(cap, length, budgets):
    """The theorem scan's count as it was before it kept multisets of at
    most l entries: for each budget, the number of nonincreasing vectors
    with entries in [1, cap], at most length of them and
    sum(m_i^2) - m_s <= budget.

    polys[l] counts the multisets of exactly l entries in [e, cap] by sum
    of squares, packed one slot per degree into an int; with e running
    from cap down it gains polys[l - 1] * x^(e^2), and the sum of all
    polys, times x^(e^2 - e), counts the vectors that end in e.  The slot
    width is the bit length of comb(length + cap, cap), so no slot
    carries, and the count for a budget b is the sum of its low b + 1
    slots, read one slot at a time.
    """
    top = min(max(budgets), length * cap * cap)
    width = comb(length + cap, cap).bit_length()
    mask = (1 << width * (top + 1)) - 1
    polys = [1] + [0] * (min(length, top + 1) - 1)
    total = 0
    for e in range(cap, 0, -1):
        shift = width * e * e
        for l in range(1, min(len(polys), top // (e * e) + 1)):
            polys[l] = (polys[l] + (polys[l - 1] << shift)) & mask
        if e * e - e <= top:
            total += sum(polys) << width * (e * e - e)
    slot = (1 << width) - 1
    prefix, running = [], 0
    for degree in range(top + 1):
        running += (total >> width * degree) & slot
        prefix.append(running)
    return [prefix[min(budget, top)] for budget in budgets]


def theorem_scan_walk(
    k_max, r_max, d_max, m_max, *, k_min=1,
    is_exception=lambda d, k, m: (d, k, m) == (1, 6, (2, 2)),
    is_subgeneric=lambda d2k, total, r: d2k * r * (r + 3) < (r + 2) * total * total,
):
    """verify_theorem by the full walk: every feasible vector is enumerated,
    counted and tested at each r until it clears the generic bound.

    The walk is el_xu_vectors, which is checked against an itertools
    re-enumeration.  is_exception(d, k, m) replaces the (1, 6, (2, 2))
    test, so a test can turn that configuration into a violation, and
    is_subgeneric(d2k, total, r) replaces the sub-generic test, so a test
    can loosen it and compare what the scan reports under the same one.
    """
    counts = {CaseLabel.UNIT_MULTIPLICITY: 0, CaseLabel.TWO_SIX: 0}
    violations, feasible = [], 0
    for k in range(k_min, k_max + 1):
        for d in range(1, d_max + 1):
            budget = d * d * k
            for m in el_xu_vectors(budget, r_max, m_max):
                feasible += 1
                total = sum(m)
                for r in range(max(2, len(m)), r_max + 1):
                    if not is_subgeneric(budget, total, r):
                        break
                    if m[0] == 1:
                        counts[CaseLabel.UNIT_MULTIPLICITY] += 1
                    elif is_exception(d, k, m):
                        counts[CaseLabel.TWO_SIX] += 1
                    else:
                        violations.append(Violation(d, k, r, m))
    return TheoremScan(feasible, counts, tuple(violations))


def theorem_scan_floor_walk(k_max, r_max, d_max, m_max, *, k_min=1):
    """verify_theorem by walking every vector whose entries all exceed
    d^2*k // (r_max + 2): the scan's fast path before it decided each
    length in closed form, kept as a second reference for the whole scan.

    By the lemma in verify_theorem's docstring, a sub-generic vector has
    m_s*(s+2) > d^2*k with s <= r_max, so no vector below that entry
    floor can be sub-generic.  The count is el_xu_tally's, so this is for
    boxes whose vectors are short.
    """
    counts = {CaseLabel.UNIT_MULTIPLICITY: 0, CaseLabel.TWO_SIX: 0}
    violations, feasible, memo = [], 0, {}
    for k in range(k_min, k_max + 1):
        for d in range(1, d_max + 1):
            budget = d * d * k
            feasible += el_xu_tally(m_max, r_max, budget, memo)[0]
            for m, total in _entry_floor_walk(m_max, r_max, budget, budget // (r_max + 2) + 1):
                for r in range(max(2, len(m)), r_max + 1):
                    if not is_subgeneric(budget, total, r):
                        break
                    if m[0] == 1:
                        counts[CaseLabel.UNIT_MULTIPLICITY] += 1
                    elif (d, k, m) == (1, 6, (2, 2)):
                        counts[CaseLabel.TWO_SIX] += 1
                    else:
                        violations.append(Violation(d, k, r, m))
    return TheoremScan(feasible, counts, tuple(violations))


def _entry_floor_walk(cap, length, room, lo):
    """Yield (m, sum(m)) for every nonincreasing vector with entries in
    [lo, cap], at most length of them and sum(m_i^2) - m_s <= room, in
    tuple order.

    Depth first, each vector before its extensions, on an explicit stack.
    A prefix that leaves room extends by an entry e with e^2 - e <= room,
    and descends further only while e^2 <= room.
    """
    entries = []
    frames = [(iter(range(lo, cap + 1)), length, room, 0)]  # (next entries, length, room, total)
    while frames:
        choices, length, room, total = frames[-1]
        for e in choices:
            if e * e - e > room:
                break  # increasing in e, so larger e fail too
            entries.append(e)
            yield tuple(entries), total + e
            if length > 1 and e * e <= room:
                frames.append((iter(range(lo, e + 1)), length - 1, room - e * e, total + e))
                break  # extend first; this frame resumes at e + 1
            entries.pop()
        if frames[-1][0] is choices:  # the frame is done
            frames.pop()
            if entries:
                entries.pop()


def min_ratio_walk(k, r, d_max, m_max):
    """min_ratio_search by the full walk over every feasible vector: at
    each d the least ratio d*k/sum(m) is at the largest sum."""
    best, witnesses = None, []
    for d in range(1, d_max + 1):
        vectors = el_xu_vectors(d * d * k, r, m_max)
        sums = [sum(m) for m in vectors]
        top = max(sums)
        ratio = Fraction(d * k, top)
        reaching = [(d, m) for m, total in zip(vectors, sums) if total == top]
        if best is None or ratio < best:
            best, witnesses = ratio, reaching
        elif ratio == best:
            witnesses += reaching
    witnesses.sort(key=lambda w: (w[0], len(w[1]), w[1]))
    return SearchResult(best, tuple(witnesses))


def han_inequality(m):
    """(applicable, margin) of Han's inequality for the vector m; see
    han_applies and han_margin."""
    s, total, sum_sq = len(m), sum(m), sum(e * e for e in m)
    return han_applies(s, total, sum_sq), han_margin(s, total, sum_sq, m[-1])


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
    return HanScan(checked, tuple(counterexamples), tuple(equalities))


def han_group_loop(s_max, m_max, margin=None):
    """verify_han_exhaustive by one margin on every group (s, m_s, sum(m)),
    indexed by its balanced vector: after m_s = e come n - rho entries q
    and rho entries q + 1, n = s - 1, 0 <= rho < n (rho = 0 at q = m_max).

    The scan's loop before the Cauchy-Schwarz floor, kept as the slow
    predecessor: it visits every group, so a fake margin, which has no
    floor, is asked on each of them.  Across rho the sum steps by 1 and
    the least sum of squares by 2q + 1.  Groups whose least margin is
    <= 0 are listed by _group_vectors, and each vector by its own margin.
    margin is as in han_scan_walk.
    """
    margin = margin or han_margin
    counterexamples, equalities = [], []
    for s in range(2, s_max + 1):
        n = s - 1
        for e in range(1, m_max + 1):
            for q in range(e, m_max + 1):
                step = 2 * q + 1
                total = e + n * q - 1
                least = e * e + n * q * q - step
                for _ in range(n if q < m_max else 1):
                    total += 1  # one more entry raised from q to q + 1
                    least += step
                    if margin(s, total, least, e) > 0 or not han_applies(s, total, least):
                        continue
                    for rest in _group_vectors(n, e, total - e, m_max):
                        m = rest[::-1] + (e,)
                        value = margin(s, total, sum(x * x for x in m), e)
                        if value < 0:
                            counterexamples.append(m)
                        elif value == 0:
                            equalities.append(m)

    def in_scan_order(vectors):
        return tuple(sorted(vectors, key=lambda m: (len(m), m[::-1])))

    checked = comb(m_max + s_max, s_max) - m_max - s_max - 1
    return HanScan(checked, in_scan_order(counterexamples), in_scan_order(equalities))


def han_group_table(s_max, m_max):
    """{(s, m_s, sum(m)): (count, least sum(m_i^2))} for every group of the
    nonincreasing vectors with 2 <= s <= s_max entries in [1, m_max].

    A layered DP over s, the scan's fast path before its closed forms:
    the vectors of length s ending in e are those of length s - 1 ending
    in some L >= e, with e appended.  So, with e running from m_max down,
    the groups of layer s - 1 that end in e join one running union
    (counts added, least sums of squares min-ed), whose sums shifted by e
    and least sums of squares shifted by e^2 are the groups of layer s
    that end in e.
    """
    table = {}
    layer = {e: {e: (1, e * e)} for e in range(1, m_max + 1)}  # s = 1
    for s in range(2, s_max + 1):
        running, following = {}, {}
        for e in range(m_max, 0, -1):
            for total, (count, least) in layer.pop(e).items():
                held_count, held_least = running.get(total, (0, least))
                running[total] = (held_count + count, min(held_least, least))
            following[e] = {
                total + e: (count, least + e * e) for total, (count, least) in running.items()
            }
            table.update(((s, e, total), group) for total, group in following[e].items())
        layer = following
    return table


def _group_vectors(n, lo, t, cap):
    """Every nondecreasing tuple of n entries in [lo, cap] summing to t,
    in increasing order, by recursion on the first entry."""
    if n == 0:
        return [()] if t == 0 else []
    return [
        (e, *rest)
        for e in range(lo, min(cap, t // n) + 1)
        for rest in _group_vectors(n - 1, e, t - e, cap)
    ]


def k3_excluded_by_rows(k: int, r: int, d_max: int) -> bool:
    """The section-count argument for one pair, row by row: case 2 is
    excluded at (k, r) iff every row (d, s) with d <= d_max and s <= r is
    direct (d^2*k >= s) or no-curve (h0(dL) < s + 1).  It reads the count
    as oracle.k3_h0, so a patch of that attribute reaches it too."""
    return all(
        d * d * k >= s or oracle.k3_h0(d, k) < s + 1
        for d in range(1, d_max + 1)
        for s in range(1, r + 1)
    )


def k3_failures_by_pair(k_max: int, r_max: int, d_max: int) -> list[tuple[int, int]]:
    """The K3 suite's failing pairs (k, r) in (k, r) order, with one
    row-by-row replay for every pair of the box."""
    pairs = [(k, r) for k in range(2, k_max + 1, 2) for r in range(3, r_max + 1)]
    return [(k, r) for k, r in pairs if not k3_excluded_by_rows(k, r, d_max)]


# Wrong section counts, each a stand-in for oracle.k3_h0 that makes some
# pairs fail the K3 suite or, below d^2*k + 2, none.  They read the true
# count through this module's own binding, so patching oracle.k3_h0 with
# one of them does not recurse.
K3_SECTION_COUNTS = {
    "d2k+100": lambda d, k: d * d * k + 100,
    "18-at-(2,4)": lambda d, k: 18 if (d, k) == (2, 4) else k3_h0(d, k),
    "d2k+2": lambda d, k: d * d * k + 2,
    "d2k+1": lambda d, k: d * d * k + 1,
    "d2k+5-from-d3": lambda d, k: d * d * k + 5 if d >= 3 else k3_h0(d, k),
}
