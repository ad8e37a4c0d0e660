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
  szemberg    floor(sqrt(k/r)), valid for the ample generator (defined,
              with the k from which it beats the generic value, in
              .threshold).
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
from math import gcd
from typing import NamedTuple, Optional

from . import _public
from .exact import Surd, _sqrt_ratio, _surd, isqrt
from .inequalities import is_square, subgeneric_unit_length
from .pell import PellSolution, fsst_applicable, pell_fundamental
from .plane import BoundValue, PlaneValue, PlaneValueStatus, nagata_plane_value
# The floor bound and its dominance scan live in .threshold, which the
# threshold command loads without this module.  compare_bounds uses the
# floor bound, and perfbench calls and traces bounds.dominance_scan.
from .threshold import dominance_scan, szemberg_floor_bound  # noqa: F401

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
    reduction), and value is num/den in lowest terms; source identifies
    the set:
      floor-multiple   floor(d*sqrt(r*k)) / (d*r)
      unit-reciprocal  1 / ceil(sqrt(r/k))
      ceil-multiple    d*k / ceil(d*sqrt(r*k))
    """

    source: str
    d: Optional[int]
    num: int
    den: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


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
    return BoundValue(_sqrt_ratio(k, r), False)


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
        return MainLowerBound(BoundValue(_surd(3, 2, 1), True, False), ())
    candidates = enumerate_exceptional_candidates(k, r)
    return MainLowerBound(BoundValue(generic_lower_value(k, r), True, True), candidates)


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
        elements.append(HarbourneElement("floor-multiple", d, fl, d * r))
        ce = fl if fl * fl == rk else fl + 1
        elements.append(HarbourneElement("ceil-multiple", d, d * k, ce))
        d += 1
    # d is now the least integer with d^2*k > r, so ceil(sqrt(r/k)) is
    # d - 1 when (d - 1)^2*k = r and d otherwise.
    c = d - 1 if (d - 1) ** 2 * k == r else d
    elements.append(HarbourneElement("unit-reciprocal", None, 1, c))

    # The maximum by cross-multiplying the unreduced fractions, reduced by
    # one gcd at the end.  No element exceeds sqrt(k/r), and the maximum
    # reaches it exactly in the exceptional case (n^2*r = m^2*k, reduced or
    # not): then the d = 1 floor-multiple element is sqrt(r*k)/r.
    n, m = 0, 1
    for e in elements:
        if e.num * m > n * e.den:
            n, m = e.num, e.den
    g = gcd(n, m)
    return HarbourneBound(BoundValue(_surd(n // g, m // g, 1), n * n * r != m * m * k), tuple(elements))


class ProductFactors(NamedTuple):
    """The product bound's factors: the Pell solution, whose
    single_point_bound is the single-point value p0*k/q0, the n with
    k = n^2 +- 1 (None when k has neither form), and the plane value at r."""

    pell: PellSolution
    witness: Optional[int]
    plane: PlaneValue


# The two report records are frozen dataclasses with an __init__ of their
# own: the generated one sets each field through object.__setattr__, which
# costs about twice as much as filling the instance dict in one update.
# Equality, hashing, repr, replace, pickling and the frozen-instance error
# are the dataclass's, unchanged.
@dataclass(frozen=True, init=False)
class BoundEntry:
    """One named bound inside a comparison report; detail is the object it
    was built from (None for the floor bound)."""

    name: str
    value: BoundValue
    conjectural: bool = False
    candidates: tuple[SubmaximalCandidate, ...] = ()
    detail: MainLowerBound | HarbourneBound | ProductFactors | None = None

    def __init__(
        self,
        name: str,
        value: BoundValue,
        conjectural: bool = False,
        candidates: tuple[SubmaximalCandidate, ...] = (),
        detail: MainLowerBound | HarbourneBound | ProductFactors | None = None,
    ) -> None:
        self.__dict__.update(
            name=name, value=value, conjectural=conjectural, candidates=candidates, detail=detail
        )


@dataclass(frozen=True, init=False)
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

    def __init__(
        self, k: int, r: int, upper: BoundValue, entries: tuple[BoundEntry, ...], ranks: tuple[int, ...]
    ) -> None:
        self.__dict__.update(k=k, r=r, upper=upper, entries=entries, ranks=ranks)


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
        BoundEntry("main", main.bound, False, main.candidates, main),
        BoundEntry("szemberg-floor", BoundValue(_surd(szemberg_floor_bound(k, r), 1, 1))),
    ]

    if very_ample:
        harb = harbourne_bound(k, r)
        entries.append(BoundEntry("harbourne", harb.bound, False, (), harb))

    if k >= 2 and not is_square(k):
        sol = pell_fundamental(k)
        witness = fsst_applicable(k)
        plane = nagata_plane_value(r)
        entries.append(
            BoundEntry(
                "biran-product",
                BoundValue(plane.bound.value * sol.single_point_bound),
                witness is None or plane.status is PlaneValueStatus.CONJECTURAL,
                (),
                ProductFactors(sol, witness, plane),
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
        value = e.value
        x = value.value
        n, d = x._num * x._num * x._rad, x._den * x._den
        if not value.conditional and n * up_d > up_n * d:
            raise RuntimeError(f"unconditional {e.name} bound exceeds sqrt(k/r) at k={k}, r={r}")
        i = 0
        for on, od, o in ordered:
            c = n * od - on * d
            if c > 0 or (c == 0 and e.name < o.name):
                break
            i += 1
        ordered.insert(i, (n, d, e))
    ranks: list[int] = []
    i, pn, pd = 0, 0, 1
    for n, d, _ in ordered:
        i += 1
        ranks.append(i if i == 1 or n * pd != pn * d else ranks[-1])
        pn, pd = n, d
    return BoundReport(k, r, upper, tuple([o[2] for o in ordered]), tuple(ranks))
