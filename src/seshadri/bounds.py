"""Named lower and upper bounds for multi-point Seshadri constants.

Setting: a smooth projective surface with Picard number 1, L the ample
generator with self-intersection k = L^2, and r >= 2 very general points.
The optimal (upper-bound) value is sqrt(k/r).  The lower bounds gathered
here:

  main        3/2 when (r, k) = (2, 6); otherwise the generic value
              sqrt((r+2)/(r+3)) * sqrt(k/r), which holds unless some
              curve in |dL| through s <= r of the points with
              multiplicity one each computes the constant as d*k/s.
              Those exceptional candidates form an explicit finite list.
  szemberg    floor(sqrt(k/r)), valid for the ample generator.
  harbourne   the maximum of three explicit finite sets of rationals,
              valid for very ample L, with a supremum-only exceptional
              case when k <= r and r*k is a perfect square.
  biran       product bound: (single-point bound) * (plane value at r),
              conjectural unless both factors are proven.

All values are exact Surds; every comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .exact import Surd, isqrt
from .inequalities import is_square, is_subgeneric
from .pell import FsstWitness, PellSolution, fsst_applicable, pell_fundamental, szemberg_single_point_bound

__all__ = [
    "BoundValue",
    "SubmaximalCandidate",
    "MainLowerBound",
    "HarbourneElement",
    "HarbourneBound",
    "PlaneValueStatus",
    "PlaneValue",
    "ProductFactors",
    "BoundEntry",
    "BoundReport",
    "ThresholdScan",
    "upper_bound",
    "generic_lower_value",
    "main_lower_bound",
    "enumerate_exceptional_candidates",
    "szemberg_floor_bound",
    "harbourne_bound",
    "biran_product_bound",
    "nagata_plane_value",
    "compare_bounds",
    "dominance_scan",
]


@dataclass(frozen=True)
class BoundValue:
    """An exact bound value with its qualifications.

    attained is False when the value is only a supremum (approached but
    not known to be a valid bound itself); conditional is True when the
    bound holds only modulo an enumerated list of exceptional cases.
    """

    value: Surd
    attained: bool = True
    conditional: bool = False


@dataclass(frozen=True)
class SubmaximalCandidate:
    """A potential exceptional curve class: C in |dL| through s points.

    The curve passes through s <= r very general points with multiplicity
    one each, needs s - 1 <= C^2 = d^2*k to exist, and would compute the
    constant as d*k/s, strictly below the generic bound.
    """

    d: int
    s: int
    value: Fraction


@dataclass(frozen=True)
class MainLowerBound:
    """Main theorem bound plus its exceptional-candidate list."""

    bound: BoundValue
    candidates: tuple[SubmaximalCandidate, ...]
    annotation: Optional[str] = None

    @property
    def guaranteed(self) -> Surd:
        """The unconditional lower bound: min of the generic value and the
        smallest exceptional candidate (candidates are below the generic
        value by construction)."""
        if not self.candidates:
            return self.bound.value
        smallest = Surd(self.candidates[0].value)
        return min(self.bound.value, smallest)


@dataclass(frozen=True)
class HarbourneElement:
    """One member of the three-set maximum, with its defining fraction.

    num/den is the fraction exactly as the formula produces it (before
    reduction); source identifies the set:
      floor-multiple   floor(d*sqrt(r*k)) / (d*r)
      unit-reciprocal  1 / ceil(sqrt(r/k))
      ceil-multiple    d*k / ceil(d*sqrt(r*k))
    """

    value: Fraction
    source: str
    d: Optional[int]
    num: int
    den: int


@dataclass(frozen=True)
class HarbourneBound:
    bound: BoundValue
    winner: Optional[HarbourneElement]  # None in the exceptional case
    elements: tuple[HarbourneElement, ...]
    exceptional: bool


class PlaneValueStatus(Enum):
    KNOWN = "known"
    PROVED_SQUARE = "proved-square"
    CONJECTURAL = "conjectural"


@dataclass(frozen=True)
class PlaneValue:
    """Multi-point constant of the plane with its epistemic status."""

    bound: BoundValue
    status: PlaneValueStatus
    note: Optional[str] = None


def upper_bound(k: int, r: int) -> BoundValue:
    """The optimal value sqrt(k/r); an upper bound, attained only in
    optimal cases."""
    if k < 1 or r < 1:
        raise ValueError(f"need k, r >= 1, got k={k}, r={r}")
    return BoundValue(Surd.sqrt(Fraction(k, r)), attained=False)


def generic_lower_value(k: int, r: int) -> Surd:
    """sqrt((r+2)/(r+3)) * sqrt(k/r) as a canonical Surd."""
    if k < 1 or r < 2:
        raise ValueError(f"need k >= 1 and r >= 2, got k={k}, r={r}")
    return Surd.sqrt(Fraction((r + 2) * k, (r + 3) * r))


TWO_SIX_ANNOTATION = (
    "equality case: a curve in the ample class through the two points "
    "with multiplicity two at each"
)


def enumerate_exceptional_candidates(k: int, r: int) -> tuple[SubmaximalCandidate, ...]:
    """All (d, s) whose curve value d*k/s lies below the generic bound.

    Membership: d >= 1, 1 <= s <= r, s - 1 <= d^2*k (EL-Xu for s unit
    multiplicities), and d*k/s strictly below sqrt((r+2)k/((r+3)r)), that
    is d^2*k*r*(r+3) < (r+2)*s^2.  The list is finite: d*k/s >= d*k/r
    grows with d, so the loop stops at the first d for which even s = r
    cannot go below the bound.

    For fixed d the sub-generic test holds for every s from its least
    solution on, and EL-Xu for every s up to d^2*k + 1, so the admissible s
    form the interval from that least s to min(r, d^2*k + 1).  The least s
    is t + 1 for t = isqrt(d^2*k*r*(r+3) // (r+2)): (r+2)*t^2 is at most
    d^2*k*r*(r+3), and an integer s^2 above the integer part of a bound is
    above the bound.  The loop starts at t and steps up until the test
    itself holds, so the cost is O(d_max) plus the size of the output.
    Sorted ascending by value, ties by (d, s).
    """
    if r < 2:
        raise ValueError(f"multi-point candidates need r >= 2, got {r}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
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


def main_lower_bound(k: int, r: int) -> MainLowerBound:
    """The main multi-point lower bound at (k, r).

    (r, k) = (2, 6) is special: the bound is exactly 3/2, unconditional,
    weaker than the generic formula value sqrt(12/5).  Otherwise the
    generic value is returned flagged conditional, together with the
    complete finite list of exceptional candidates; callers that need a
    single unconditional number take .guaranteed.
    """
    if r < 2:
        raise ValueError("multi-point bound needs r >= 2; single-point bounds live in pell")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if (r, k) == (2, 6):
        return MainLowerBound(
            bound=BoundValue(Surd(Fraction(3, 2)), attained=True, conditional=False),
            candidates=(),
            annotation=TWO_SIX_ANNOTATION,
        )
    candidates = enumerate_exceptional_candidates(k, r)
    return MainLowerBound(
        bound=BoundValue(generic_lower_value(k, r), attained=True, conditional=True),
        candidates=candidates,
    )


def szemberg_floor_bound(k: int, r: int) -> int:
    """floor(sqrt(k/r)): the largest integer j with j^2 * r <= k."""
    if k < 1 or r < 1:
        raise ValueError(f"need k, r >= 1, got k={k}, r={r}")
    return isqrt(k // r)


def harbourne_bound(k: int, r: int) -> HarbourneBound:
    """Maximum of the three explicit sets bounding the constant below.

    Sets (d ranges over 1 <= d <= sqrt(r/k), empty when k > r):
      { floor(d*sqrt(r*k)) / (d*r) },  { 1/ceil(sqrt(r/k)) },
      { d*k / ceil(d*sqrt(r*k)) }.

    Exceptional case k <= r with r*k a perfect square: the maximum equals
    sqrt(k/r) and the true statement is only that every value strictly
    below sqrt(k/r) is a bound, so the value is returned with
    attained=False.  The bound needs L very ample; compare_bounds
    includes it only when very-ampleness is asserted.
    """
    if k < 1 or r < 1:
        raise ValueError(f"need k, r >= 1, got k={k}, r={r}")
    elements = []
    d = 1
    while d * d * k <= r:  # d <= sqrt(r/k)
        rk = d * d * r * k
        fl = isqrt(rk)
        elements.append(
            HarbourneElement(Fraction(fl, d * r), "floor-multiple", d, fl, d * r)
        )
        ce = fl if fl * fl == rk else fl + 1
        elements.append(
            HarbourneElement(Fraction(d * k, ce), "ceil-multiple", d, d * k, ce)
        )
        d += 1
    # d is now the least integer with d^2*k > r, so ceil(sqrt(r/k)) is
    # d - 1 when (d - 1)^2*k = r and d otherwise.
    c = d - 1 if (d - 1) ** 2 * k == r else d
    elements.append(HarbourneElement(Fraction(1, c), "unit-reciprocal", None, 1, c))

    exceptional = k <= r and is_square(r * k)
    if exceptional:
        value = BoundValue(Surd.sqrt(Fraction(k, r)), attained=False)
        winner = None
    else:
        best = max(
            elements, key=lambda e: (e.value, e.source, -(e.d or 0))
        )
        value = BoundValue(Surd(best.value), attained=True)
        winner = best
    return HarbourneBound(
        bound=value,
        winner=winner,
        elements=tuple(elements),
        exceptional=exceptional,
    )


def biran_product_bound(eps_single: Surd | Fraction, eps_plane_r: Surd | Fraction) -> Surd:
    """Exact product of a single-point bound and a plane multi-point value."""
    a = eps_single if isinstance(eps_single, Surd) else Surd(Fraction(eps_single))
    b = eps_plane_r if isinstance(eps_plane_r, Surd) else Surd(Fraction(eps_plane_r))
    return a * b


# Exact plane values for few points; 1/sqrt(r) takes over from r = 9 on
# (proved on perfect squares, conjectural otherwise).
_PLANE_SMALL: dict[int, Fraction] = {
    1: Fraction(1),
    2: Fraction(1, 2),
    3: Fraction(1, 2),
    4: Fraction(1, 2),
    5: Fraction(2, 5),
    6: Fraction(2, 5),
    7: Fraction(3, 8),
    8: Fraction(6, 17),
}

_NINE_POINT_NOTE = (
    "value is 1/3 = 1/sqrt(9); comparison tables occasionally misprint it as 3"
)


def nagata_plane_value(r: int) -> PlaneValue:
    """Multi-point constant of the plane with unit line class.

    r <= 8: known exact values.  r >= 9: 1/sqrt(r), proved when r is a
    perfect square and conjectural otherwise.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r <= 8:
        return PlaneValue(BoundValue(Surd(_PLANE_SMALL[r])), PlaneValueStatus.KNOWN)
    value = Surd.sqrt(Fraction(1, r))
    if is_square(r):
        note = _NINE_POINT_NOTE if r == 9 else None
        return PlaneValue(BoundValue(value), PlaneValueStatus.PROVED_SQUARE, note)
    return PlaneValue(BoundValue(value), PlaneValueStatus.CONJECTURAL)


@dataclass(frozen=True)
class ProductFactors:
    """The product bound's factors: the single-point value p0*k/q0 with its
    Pell solution and n^2 +- 1 witness, and the plane value at r."""

    single: Fraction
    pell: PellSolution
    witness: FsstWitness
    plane: PlaneValue


@dataclass(frozen=True)
class BoundEntry:
    """One named bound inside a comparison report; detail is the object it
    was built from (None for the floor bound)."""

    name: str
    value: BoundValue
    applicability: str
    attribution: str
    conjectural: bool = False
    candidates: tuple[SubmaximalCandidate, ...] = ()
    detail: MainLowerBound | HarbourneBound | ProductFactors | None = None


@dataclass(frozen=True)
class BoundReport:
    """All applicable bounds at (k, r), entries sorted by decreasing value.

    Exact ties share a rank (ranks[i] is the 1-based rank of entries[i]).
    Every unconditional entry value is <= upper.value, exactly; entries
    flagged conditional carry their exceptional candidates.
    """

    k: int
    r: int
    upper: BoundValue
    entries: tuple[BoundEntry, ...]
    ranks: tuple[int, ...]


def compare_bounds(k: int, r: int, very_ample: bool = False) -> BoundReport:
    """Assemble and exactly order all applicable bounds at (k, r).

    Included: the main bound (with candidates), the floor bound, the
    very-ample set maximum (only when very_ample is asserted), and the
    product bound when a Pell single-point bound exists (k >= 2, not a
    square).  The product is marked conjectural unless k has the verified
    form n^2 +- 1 and the plane factor is proven.
    """
    if r < 2:
        raise ValueError(f"bound comparison needs r >= 2, got {r}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    upper = upper_bound(k, r)
    main = main_lower_bound(k, r)
    entries = [
        BoundEntry(
            name="main",
            value=main.bound,
            applicability="ample generator, Picard number 1, r >= 2",
            attribution="generic value sqrt((r+2)/(r+3))*sqrt(k/r), or 3/2 at (r,k)=(2,6)",
            candidates=main.candidates,
            detail=main,
        ),
        BoundEntry(
            name="szemberg-floor",
            value=BoundValue(Surd(Fraction(szemberg_floor_bound(k, r)))),
            applicability="ample generator, Picard number 1",
            attribution="Szemberg's floor bound floor(sqrt(k/r))",
        ),
    ]

    if very_ample:
        harb = harbourne_bound(k, r)
        entries.append(
            BoundEntry(
                name="harbourne",
                value=harb.bound,
                applicability="very ample L (asserted by caller)",
                attribution="Harbourne's three-set maximum for very ample line bundles",
                detail=harb,
            )
        )

    if k >= 2 and not is_square(k):
        factors = ProductFactors(
            szemberg_single_point_bound(k), pell_fundamental(k), fsst_applicable(k), nagata_plane_value(r)
        )
        entries.append(
            BoundEntry(
                name="biran-product",
                value=BoundValue(biran_product_bound(factors.single, factors.plane.bound.value)),
                applicability="product of single-point and plane multi-point bounds",
                attribution="Biran-type product bound",
                conjectural=not factors.witness.applicable
                or factors.plane.status is PlaneValueStatus.CONJECTURAL,
                detail=factors,
            )
        )

    # Values are nonnegative, so squares order them.  Each is squared once:
    # the Pell coefficient can run to thousands of digits.
    upper_sq = upper.value.squared()
    square = {e.name: e.value.value.squared() for e in entries}
    # Unconditional, non-supremum entries can never exceed the optimal value.
    for e in entries:
        if not e.value.conditional and square[e.name] > upper_sq:
            raise RuntimeError(f"unconditional {e.name} bound exceeds sqrt(k/r) at k={k}, r={r}")

    entries.sort(key=lambda e: (-square[e.name], e.name))
    ranks: list[int] = []
    for i, e in enumerate(entries):
        if i > 0 and square[e.name] == square[entries[i - 1].name]:
            ranks.append(ranks[-1])
        else:
            ranks.append(i + 1)
    return BoundReport(k=k, r=r, upper=upper, entries=tuple(entries), ranks=tuple(ranks))


@dataclass(frozen=True)
class ThresholdScan:
    """Result of the floor-vs-generic dominance scan for fixed r."""

    r: int
    k_cap: int
    threshold: Optional[int]  # minimal N <= k_cap dominating through k_cap
    last_failure: Optional[int]
    band_cutoff: int  # every k >= band_cutoff provably dominates
    stable_beyond_cap: bool  # k_cap window covers all possible failures


def _floor_dominates(k: int, r: int) -> bool:
    """floor(sqrt(k/r)) >= sqrt((r+2)k/((r+3)r)), exactly (ties dominate:
    at k/r a perfect square the floor equals the optimal value)."""
    j = isqrt(k // r)
    return j * j * (r + 3) * r >= (r + 2) * k


def dominance_scan(r: int, k_cap: int) -> ThresholdScan:
    """Find the last k <= k_cap where the floor bound loses, and certify the tail.

    Bands: on j^2 r <= k < (j+1)^2 r the floor is j, so k fails exactly
    when (r+2) k > j^2 r (r+3).  The failures of a band are therefore its
    upper part, and the band (clipped to k_cap) holds a failure iff its
    last k does; the last failure is the end of the last such band.

    The tail certificate: k <= r (j+1)^2 + r - 1 always, so failures are
    impossible once j^2 r (r+3) >= (r+2)(r (j+1)^2 + r - 1).  With j* the
    smallest such j, every k >= r * j*^2 dominates; when k_cap reaches
    that cutoff, the window contains every failure there is.  Only the
    bands below min(k_cap, cutoff) are visited, so the cost is O(j*),
    about 2r bands, whatever k_cap is.
    """
    if r < 2:
        raise ValueError(f"dominance scan needs r >= 2, got {r}")
    if k_cap < 1:
        raise ValueError(f"need k_cap >= 1, got {k_cap}")
    # As a quadratic in j the certificate margin opens upward, is negative
    # at j = 0, and has its vertex at j = r + 2, so the first nonnegative j
    # lies past the vertex and the margin stays nonnegative from there on.
    j = 0
    while j * j * r * (r + 3) < (r + 2) * (r * (j + 1) ** 2 + r - 1):
        j += 1
    band_cutoff = r * j * j
    stable = k_cap + 1 >= band_cutoff

    last_failure = None
    j = 0
    while j * j * r <= min(k_cap, band_cutoff):
        end = min((j + 1) ** 2 * r - 1, k_cap)
        if not _floor_dominates(end, r):
            last_failure = end
        j += 1

    if last_failure is None:
        threshold: Optional[int] = 1
    elif last_failure == k_cap:
        threshold = None
    else:
        threshold = last_failure + 1
    return ThresholdScan(r, k_cap, threshold, last_failure, band_cutoff, stable)
