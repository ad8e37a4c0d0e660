"""Multi-point Seshadri constants of the projective plane.

The plane's r-point constant with the unit line class is known exactly
for r <= 8 and is 1/sqrt(r) on perfect squares; Nagata's conjecture puts
it at 1/sqrt(r) for every r >= 9.  This module needs only the exact
kernel and the perfect-square test, so a process that only tabulates
plane values loads neither the bound layer nor the Pell solver.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import _public
from .exact import Surd, _sqrt_ratio, _surd
from .inequalities import is_square

__all__ = _public(__name__)


class PlaneValueStatus(Enum):
    KNOWN = "known"
    PROVED_SQUARE = "proved-square"
    CONJECTURAL = "conjectural"


class PlaneValue(NamedTuple):
    """Multi-point constant of the plane with its epistemic status."""

    value: Surd
    status: PlaneValueStatus


# Exact plane values for r = 1, ..., 8 points, at index r - 1, as ready
# Surds; 1/sqrt(r) takes over from r = 9 on (proved on perfect squares,
# conjectural otherwise).
_PLANE_SMALL: tuple[Surd, ...] = tuple(
    _surd(num, den, 1)
    for num, den in ((1, 1), (1, 2), (1, 2), (1, 2), (2, 5), (2, 5), (3, 8), (6, 17))
)


def nagata_plane_value(r: int) -> PlaneValue:
    """Multi-point constant of the plane with unit line class.

    r <= 8: known exact values.  r >= 9: 1/sqrt(r), proved when r is a
    perfect square and conjectural otherwise.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r <= 8:
        return PlaneValue(_PLANE_SMALL[r - 1], PlaneValueStatus.KNOWN)
    value = _sqrt_ratio(1, r)
    if is_square(r):
        return PlaneValue(value, PlaneValueStatus.PROVED_SQUARE)
    return PlaneValue(value, PlaneValueStatus.CONJECTURAL)
