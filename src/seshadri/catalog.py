"""Stock surfaces with Picard number 1 and their known exact values.

Each descriptor pins down k = L^2 for the ample generator L and whether
very-ampleness may be asserted (the very-ample bound is computed only
with it).  Exact multi-point values are on record only for the plane;
every other kind returns None from known_value.  Descriptors are data
only: the caveats that go with a kind are written by the CLI.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from . import _public
from .plane import PlaneValue, nagata_plane_value

__all__ = _public(__name__)


class SurfaceSyntaxError(ValueError):
    """Malformed surface string (as opposed to an invalid parameter value)."""


class SurfaceKind(Enum):
    PROJECTIVE_PLANE = "p2"
    GENERAL_K3 = "k3"
    HYPERSURFACE_P3 = "hyp"
    ABELIAN_TYPE_1D = "ab"
    CUSTOM = "custom"


class SurfaceSpec(NamedTuple):
    kind: SurfaceKind
    k: int  # self-intersection of the ample generator
    very_ample: bool

    def label(self) -> str:
        if self.kind is SurfaceKind.PROJECTIVE_PLANE:
            return "p2"
        suffix = ",va" if self.kind is SurfaceKind.CUSTOM and self.very_ample else ""
        param = self.k
        if self.kind is SurfaceKind.ABELIAN_TYPE_1D:
            param = self.k // 2
        return f"{self.kind.value}:{param}{suffix}"


def make_surface(
    kind: SurfaceKind, parameter: Optional[int] = None, very_ample: bool = False
) -> SurfaceSpec:
    """Build a validated surface descriptor.

    Parameter meaning by kind: none for the plane; k = L^2 (even, >= 2)
    for a general K3; the degree t >= 4 for a general hypersurface in P^3
    (then k = t); d >= 1 for an abelian surface with polarization of type
    (1, d) (then k = 2d); k itself for custom.  very_ample is honored
    only for custom surfaces; the other kinds fix it.
    """
    if kind is SurfaceKind.PROJECTIVE_PLANE:
        return SurfaceSpec(kind, k=1, very_ample=True)
    if parameter is None:
        raise ValueError(f"{kind.value} surface needs a parameter")
    if kind is SurfaceKind.GENERAL_K3:
        if parameter < 2 or parameter % 2:
            raise ValueError(
                f"K3 polarization has even self-intersection >= 2, got {parameter}"
            )
        # The ample generator is very ample once k >= 4; at k = 2 the
        # associated map is a double cover of the plane.
        return SurfaceSpec(kind, k=parameter, very_ample=parameter >= 4)
    if kind is SurfaceKind.HYPERSURFACE_P3:
        if parameter < 4:
            raise ValueError(
                f"Noether-Lefschetz requires degree >= 4 for Picard number 1, got {parameter}"
            )
        return SurfaceSpec(kind, k=parameter, very_ample=True)
    if kind is SurfaceKind.ABELIAN_TYPE_1D:
        if parameter < 1:
            raise ValueError(f"polarization type (1, d) needs d >= 1, got {parameter}")
        return SurfaceSpec(kind, k=2 * parameter, very_ample=False)
    if kind is SurfaceKind.CUSTOM:
        if parameter < 1:
            raise ValueError(f"need k >= 1, got {parameter}")
        # Picard number 1 is assumed, not checked.
        return SurfaceSpec(kind, k=parameter, very_ample=very_ample)
    raise ValueError(f"unknown surface kind {kind!r}")


def known_value(spec: SurfaceSpec, r: int) -> Optional[PlaneValue]:
    """Exact multi-point value when one is on record (plane only)."""
    if spec.kind is SurfaceKind.PROJECTIVE_PLANE:
        return nagata_plane_value(r)
    return None


def parse_surface(text: str) -> SurfaceSpec:
    """Parse the CLI syntax: p2 | k3:<k> | hyp:<deg> | ab:<d> | custom:<k>[,va]."""
    head, sep, rest = text.partition(":")
    try:
        kind = SurfaceKind(head)
    except ValueError:
        raise SurfaceSyntaxError(f"unknown surface {text!r}") from None
    if kind is SurfaceKind.PROJECTIVE_PLANE:
        if sep:
            raise SurfaceSyntaxError("p2 takes no parameter")
        return make_surface(kind)
    very_ample = False
    if kind is SurfaceKind.CUSTOM and rest.endswith(",va"):
        very_ample = True
        rest = rest[: -len(",va")]
    if not rest.isdecimal() or int(rest) < 1:
        raise SurfaceSyntaxError(f"surface parameter must be a positive integer: {text!r}")
    return make_surface(kind, int(rest), very_ample=very_ample)
