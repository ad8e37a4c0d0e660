"""Multi-point Seshadri constants of the projective plane, and the bound
value record they share with the bound layer.

The plane's r-point constant with the unit line class is known exactly
for r <= 8 and is 1/sqrt(r) on perfect squares; Nagata's conjecture puts
it at 1/sqrt(r) for every r >= 9.  This module needs only the exact
kernel and the perfect-square test, so a process that only tabulates
plane values loads neither the bound layer nor the Pell solver.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .exact import Surd, _sqrt_ratio, _surd
from .inequalities import is_square

__all__ = ["BoundValue", "PlaneValueStatus", "PlaneValue", "nagata_plane_value"]


class BoundValue(NamedTuple):
    """An exact bound value with its qualifications.

    attained is False when the value is only a supremum (approached but
    not known to be a valid bound itself); conditional is True when the
    bound holds only modulo an enumerated list of exceptional cases.
    """

    value: Surd
    attained: bool = True
    conditional: bool = False


class PlaneValueStatus(Enum):
    KNOWN = "known"
    PROVED_SQUARE = "proved-square"
    CONJECTURAL = "conjectural"


class PlaneValue(NamedTuple):
    """Multi-point constant of the plane with its epistemic status."""

    bound: BoundValue
    status: PlaneValueStatus


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


def nagata_plane_value(r: int) -> PlaneValue:
    """Multi-point constant of the plane with unit line class.

    r <= 8: known exact values.  r >= 9: 1/sqrt(r), proved when r is a
    perfect square and conjectural otherwise.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r <= 8:
        known = _PLANE_SMALL[r]
        return PlaneValue(BoundValue(_surd(known.numerator, known.denominator, 1)), PlaneValueStatus.KNOWN)
    value = _sqrt_ratio(1, r)
    if is_square(r):
        return PlaneValue(BoundValue(value), PlaneValueStatus.PROVED_SQUARE)
    return PlaneValue(BoundValue(value), PlaneValueStatus.CONJECTURAL)
