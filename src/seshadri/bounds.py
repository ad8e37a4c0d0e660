"""Named lower and upper bounds for multi-point Seshadri constants.

Setting: a smooth projective surface with Picard number 1, L the ample
generator with self-intersection k = L^2, and r >= 2 very general points.
The optimal (upper-bound) value is sqrt(k/r).  The lower bounds gathered
here:

  main        3/2 when (r, k) = (2, 6); otherwise the generic value
              sqrt((r+2)/(r+3)) * sqrt(k/r), which holds unless some
              curve in |dL| through s <= r of the points with
              multiplicity one each computes the constant as d*k/s.
              There is at most one such exceptional candidate.
  szemberg    floor(sqrt(k/r)), valid for the ample generator.
  harbourne   the maximum of three explicit finite sets of rationals,
              valid for very ample L, with a supremum-only exceptional
              case when k <= r and r*k is a perfect square.
  biran       product bound: (single-point bound) * (plane value at r),
              conjectural unless both factors are proven.

All values are exact Surds; every comparison is exact.  The results are
data (values, flags, candidates, set elements, factors and their tags);
the CLI writes every sentence about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from . import _public
from .exact import Surd, _sqrt_ratio, _surd, isqrt
from .inequalities import is_square, is_subgeneric, subgeneric_unit_length
from .pell import FsstWitness, PellSolution, fsst_applicable, pell_fundamental
from .plane import BoundValue, PlaneValue, PlaneValueStatus, nagata_plane_value

__all__ = _public(__name__)


class SubmaximalCandidate(NamedTuple):
    """A potential exceptional curve class: C in |dL| through s points.

    The curve passes through s <= r very general points with multiplicity
    one each, needs s - 1 <= C^2 = d^2*k to exist, and would compute the
    constant as d*k/s, strictly below the generic bound.
    """

    d: int
    s: int
    value: Fraction


class MainLowerBound(NamedTuple):
    """Main theorem bound plus its exceptional-candidate list; the bound is
    unconditional only at (r, k) = (2, 6)."""

    bound: BoundValue
    candidates: tuple[SubmaximalCandidate, ...]

    @property
    def guaranteed(self) -> Surd:
        """The unconditional lower bound: the exceptional candidate's value
        if there is one (there is at most one, and being sub-generic puts
        it below the generic value, so no min is taken), else the bound's."""
        if not self.candidates:
            return self.bound.value
        least = self.candidates[0].value
        return _surd(least.numerator, least.denominator, 1)


class HarbourneElement(NamedTuple):
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


class HarbourneBound(NamedTuple):
    """The three-set maximum with every element; bound.attained is False
    in the exceptional case."""

    bound: BoundValue
    elements: tuple[HarbourneElement, ...]


def upper_bound(k: int, r: int) -> BoundValue:
    """The optimal value sqrt(k/r); an upper bound, attained only in
    optimal cases."""
    if k < 1 or r < 1:
        raise ValueError(f"need k, r >= 1, got k={k}, r={r}")
    return BoundValue(_sqrt_ratio(k, r), attained=False)


def generic_lower_value(k: int, r: int) -> Surd:
    """sqrt((r+2)/(r+3)) * sqrt(k/r) as a canonical Surd."""
    if k < 1 or r < 2:
        raise ValueError(f"need k >= 1 and r >= 2, got k={k}, r={r}")
    return _sqrt_ratio((r + 2) * k, (r + 3) * r)


def enumerate_exceptional_candidates(k: int, r: int) -> tuple[SubmaximalCandidate, ...]:
    """All (d, s) whose curve value d*k/s lies below the generic bound:
    d >= 1, s <= r, s - 1 <= d^2*k (EL-Xu for s unit multiplicities) and
    d^2*k*r*(r+3) < (r+2)*s^2.  By subgeneric_unit_length, d has such an
    s only if d^2*k < r <= d^2*k + 2, and then one, s = min(r, d^2*k + 1).
    Consecutive d^2*k differ by (2d + 1)*k >= 3, so only the largest d
    with d^2*k <= r - 1, isqrt((r - 1) // k), can have one: the list holds
    at most one candidate.
    """
    if r < 2:
        raise ValueError(f"multi-point candidates need r >= 2, got {r}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    d = isqrt((r - 1) // k)
    s = subgeneric_unit_length(d * d * k, r) if d else 0
    return (SubmaximalCandidate(d, s, Fraction(d * k, s)),) if s else ()


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
            bound=BoundValue(_surd(3, 2, 1), attained=True, conditional=False),
            candidates=(),
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

    # The maximum by cross-multiplying the reduced fields, which are the
    # canonical coefficient of the value.  No element exceeds sqrt(k/r),
    # and the maximum reaches it exactly in the exceptional case: then the
    # d = 1 floor-multiple element is sqrt(r*k)/r.
    n, m = 0, 1
    for e in elements:
        v = e.value
        if v.numerator * m > n * v.denominator:
            n, m = v.numerator, v.denominator
    return HarbourneBound(BoundValue(_surd(n, m, 1), attained=n * n * r != m * m * k), tuple(elements))


class ProductFactors(NamedTuple):
    """The product bound's factors: the Pell solution behind the
    single-point value p0*k/q0, its n^2 +- 1 witness, and the plane value
    at r."""

    pell: PellSolution
    witness: FsstWitness
    plane: PlaneValue

    @property
    def single(self) -> Fraction:
        """The single-point value p0*k/q0."""
        return Fraction(self.pell.p0 * self.pell.k, self.pell.q0)


@dataclass(frozen=True)
class BoundEntry:
    """One named bound inside a comparison report; detail is the object it
    was built from (None for the floor bound)."""

    name: str
    value: BoundValue
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
        BoundEntry("main", main.bound, candidates=main.candidates, detail=main),
        BoundEntry("szemberg-floor", BoundValue(_surd(szemberg_floor_bound(k, r), 1, 1))),
    ]

    if very_ample:
        harb = harbourne_bound(k, r)
        entries.append(BoundEntry("harbourne", harb.bound, detail=harb))

    if k >= 2 and not is_square(k):
        sol = pell_fundamental(k)
        factors = ProductFactors(sol, fsst_applicable(k), nagata_plane_value(r))
        # q0^2 - k*p0^2 = 1 makes q0 coprime to p0*k, so p0*k/q0 is in
        # lowest terms as it stands, and each gcd the product takes has a
        # small operand: none is taken on two Pell-sized numbers.
        single = _surd(sol.p0 * k, sol.q0, 1)
        entries.append(
            BoundEntry(
                name="biran-product",
                value=BoundValue(factors.plane.bound.value * single),
                conjectural=not factors.witness.applicable
                or factors.plane.status is PlaneValueStatus.CONJECTURAL,
                detail=factors,
            )
        )

    # Values are nonnegative, so squares order them.  One pass in the order
    # the entries were built squares each value once, as an unreduced pair
    # num^2 * radicand / den^2 of ints, checks it against the optimal value
    # (an unconditional, non-supremum entry can never exceed it) and
    # inserts the entry before the first one that is smaller, or equal
    # with a later name: decreasing value, ties by ascending name.  Pairs
    # are compared by cross-multiplying, since the Pell coefficient can
    # run to thousands of digits and no gcd is taken on it here.
    u = upper.value
    up_n, up_d = u._num * u._num * u._rad, u._den * u._den
    ordered: list[tuple[int, int, BoundEntry]] = []
    for e in entries:
        x = e.value.value
        n, d = x._num * x._num * x._rad, x._den * x._den
        if not e.value.conditional and n * up_d > up_n * d:
            raise RuntimeError(f"unconditional {e.name} bound exceeds sqrt(k/r) at k={k}, r={r}")
        i = 0
        for on, od, o in ordered:
            c = n * od - on * d
            if c > 0 or (c == 0 and e.name < o.name):
                break
            i += 1
        ordered.insert(i, (n, d, e))
    ranks: list[int] = []
    pn, pd = 0, 1
    for i, (n, d, _) in enumerate(ordered, 1):
        ranks.append(ranks[-1] if i > 1 and n * pd == pn * d else i)
        pn, pd = n, d
    return BoundReport(
        k=k, r=r, upper=upper, entries=tuple(e for _, _, e in ordered), ranks=tuple(ranks)
    )


@dataclass(frozen=True)
class ThresholdScan:
    """Result of the floor-vs-generic dominance scan for fixed r."""

    r: int
    k_cap: int
    threshold: Optional[int]  # minimal N <= k_cap dominating through k_cap
    last_failure: int  # k = 1 always fails (its floor is 0), so there is one
    band_cutoff: int  # every k >= band_cutoff provably dominates
    stable_beyond_cap: bool  # k_cap window covers all possible failures


def dominance_scan(r: int, k_cap: int) -> ThresholdScan:
    """Find the last k <= k_cap where the floor bound loses, and certify the tail.

    Bands: on j^2 r <= k < (j+1)^2 r the floor is j, so k fails exactly
    when (r+2) k > j^2 r (r+3).  The failures of a band are therefore its
    upper part, and a band holds a failure iff its last k does.  That k,
    (j+1)^2 r - 1, fails iff r j^2 - 2r(r+2) j - (r+2)(r-1) < 0.  With
    x = r + 2 the larger root of that quadratic is
    x + sqrt(x^2 + x (r-1)/r), and since 0 < x (r-1)/r < 2x + 1 it lies
    strictly between 2x and 2x + 1; the smaller root is negative.  So
    the bands j <= 2r + 4 all fail at their end, and no k from
    band_cutoff = r (2r + 5)^2 on fails: band_cutoff - 1 is the last
    failure there is.  Below the cutoff, the last failure up to k_cap is
    k_cap itself or, when k_cap dominates, the end of the band below
    k_cap's.  The cost is a few big-int steps whatever r and k_cap are.
    """
    if r < 2:
        raise ValueError(f"dominance scan needs r >= 2, got {r}")
    if k_cap < 1:
        raise ValueError(f"need k_cap >= 1, got {k_cap}")
    band_cutoff = r * (2 * r + 5) ** 2
    # The floor bound j at k_cap is the ratio d*k/sum(m) at d = j, sum(m) = k.
    j = szemberg_floor_bound(k_cap, r)
    if k_cap >= band_cutoff:
        last_failure = band_cutoff - 1
    elif not is_subgeneric(j * j * k_cap, k_cap, r):
        # band 0 fails at every k >= 1, so k_cap's band is band 1 or above
        last_failure = j * j * r - 1
    else:
        last_failure = k_cap
    threshold = None if last_failure == k_cap else last_failure + 1
    return ThresholdScan(r, k_cap, threshold, last_failure, band_cutoff, k_cap + 1 >= band_cutoff)
