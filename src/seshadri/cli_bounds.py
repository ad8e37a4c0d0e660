"""The bounds subcommand: its table, and every sentence it writes about a
bound.

Only `seshadri bounds` imports this module, so no other subcommand
compiles the bounds table's words, notes and surface checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .cli import NINE_POINT_NOTE, NOTE_DIGITS, Entry, Record, UsageError, _n2_pm_1
from .exact import Surd, render_decimal

if TYPE_CHECKING:
    import argparse

    from .bounds import BoundEntry
    from .catalog import SurfaceSpec


# (applicability, attribution) of each row of the bounds table, by name
BOUND_WORDS = {
    "upper": ("any nef line bundle", "optimal value sqrt(k/r)"),
    "main": (
        "ample generator, Picard number 1, r >= 2",
        "generic value sqrt((r+2)/(r+3))*sqrt(k/r), or 3/2 at (r,k)=(2,6)",
    ),
    "szemberg-floor": ("ample generator, Picard number 1", "Szemberg's floor bound floor(sqrt(k/r))"),
    "harbourne": (
        "very ample L (asserted by caller)",
        "Harbourne's three-set maximum for very ample line bundles",
    ),
    "biran-product": ("product of single-point and plane multi-point bounds", "Biran-type product bound"),
}
TWO_SIX_NOTE = (
    "equality case: a curve in the ample class through the two points "
    "with multiplicity two at each"
)


def _all_digit_note(name: str, value: Surd) -> str:
    return (
        f"{name} at 2/3/4 digits: "
        + " / ".join(render_decimal(value, d) for d in (2, 3, 4))
    )


def _surface_notes(surface: SurfaceSpec, r: int) -> list[str]:
    """The caveat that goes with a surface, if any, and its known value at
    r, if one is on record."""
    from .catalog import SurfaceKind, known_value

    notes = []
    if surface.kind is SurfaceKind.GENERAL_K3 and not surface.very_ample:
        notes.append(f"surface: k = {surface.k}: ample generator is not very ample")
    elif surface.kind is SurfaceKind.ABELIAN_TYPE_1D:
        notes.append("surface: very-ampleness not asserted for abelian polarizations")
    elif surface.kind is SurfaceKind.CUSTOM:
        notes.append("surface: custom surface: Picard number 1 is an unverified assumption")
    known = known_value(surface, r)
    if known is not None:
        notes.append(
            f"known exact value: {known.bound.value} "
            f"({known.status.value})"
            + (f"; {NINE_POINT_NOTE}" if r == 9 else "")
        )
    return notes


def _entry_notes(entry: BoundEntry, r: int) -> list[str]:
    """Notes on one bound, written from the object it was built from."""
    from .bounds import HarbourneBound, MainLowerBound, ProductFactors

    detail, notes = entry.detail, []
    if isinstance(detail, MainLowerBound):
        if not detail.bound.conditional:
            notes.append(TWO_SIX_NOTE)
        if detail.candidates:
            listed = ", ".join(
                f"d={c.d}, s={c.s}: {c.value} ({render_decimal(Surd(c.value), NOTE_DIGITS)})"
                for c in detail.candidates
            )
            notes.append(f"exceptional candidates: {listed}")
            least = detail.guaranteed
            notes.append(f"unconditional guarantee: {least} ({render_decimal(least, NOTE_DIGITS)})")
    elif isinstance(detail, HarbourneBound):
        listed = ", ".join(
            f"{e.num}/{e.den} ({render_decimal(Surd(e.value), NOTE_DIGITS)}, {e.source}"
            + (f", d={e.d})" if e.d is not None else ")")
            for e in detail.elements
        )
        notes.append(f"set elements: {listed}")
        a, b = (
            max((e for e in detail.elements if e.source == source), key=lambda e: e.value, default=None)
            for source in ("floor-multiple", "ceil-multiple")
        )
        if not detail.bound.attained:
            notes.append(
                "exceptional case (k <= r and r*k a perfect square): sqrt(k/r) is a "
                "supremum only; every value strictly below it is a valid bound"
            )
        elif a and b and a.value != b.value:
            hi, lo = (a, b) if a.value > b.value else (b, a)
            notes.append(
                f"set maximum {hi.num}/{hi.den} ({render_decimal(Surd(hi.value), NOTE_DIGITS)}) "
                f"comes from the {hi.source} element; the {lo.source} element "
                f"{lo.num}/{lo.den} ({render_decimal(Surd(lo.value), NOTE_DIGITS)}) is strictly smaller"
            )
    elif isinstance(detail, ProductFactors):
        sol, witness, plane = detail.pell, detail.witness, detail.plane
        notes.append(
            f"single-point factor {sol.single_point_bound} from Pell solution (p0, q0) = ({sol.p0}, {sol.q0})"
        )
        notes.append(f"plane factor {plane.bound.value} at r = {r} ({plane.status.value})")
        if witness is not None:
            notes.append(f"single-point bound proven: k = {sol.k} = {_n2_pm_1(sol.k, witness)}")
        else:
            notes.append(f"single-point bound conjectural: k = {sol.k} is not of the form n^2 +- 1")
        if r == 9:
            notes.append(NINE_POINT_NOTE)
    return notes


def cmd_bounds(args: argparse.Namespace) -> tuple[list[Record], int]:
    from .bounds import compare_bounds
    from .inequalities import is_square

    surface: Optional[SurfaceSpec] = None
    if args.surface is not None:
        from .catalog import SurfaceSyntaxError, parse_surface

        try:
            surface = parse_surface(args.surface)
        except SurfaceSyntaxError as e:  # malformed string: usage, not domain
            raise UsageError(str(e))
    if args.k is None and surface is None:
        raise UsageError("bounds needs --k or --surface")
    k_values = args.k if args.k is not None else [surface.k]
    if surface is not None:
        for k in k_values:
            if k != surface.k:
                raise UsageError(
                    f"--k {k} conflicts with surface {surface.label()} (k = {surface.k})"
                )
        if args.very_ample and not surface.very_ample:
            raise UsageError(
                f"--very-ample conflicts with surface {surface.label()}, which is not "
                "very ample; a custom surface asserts it as custom:<k>,va"
            )
    very_ample = surface.very_ample if surface is not None else args.very_ample
    digits = args.digits

    records = []
    for k in k_values:
        for r in args.r:
            report = compare_bounds(k, r, very_ample=very_ample)
            rec = Record("bounds", k=k, r=r, surface=surface.label() if surface else "-")
            rows = [("upper", report.upper.value, ("upper-bound", "supremum"))]
            for entry, rank in zip(report.entries, report.ranks):
                flags = []
                if entry.value.conditional:
                    flags.append("conditional")
                if not entry.value.attained:
                    flags.append("supremum")
                if entry.conjectural:
                    flags.append("conjectural")
                flags.append(f"rank={rank}")
                rows.append((entry.name, entry.value.value, tuple(flags)))
                rec.notes.extend(f"{entry.name}: {n}" for n in _entry_notes(entry, r))
            rec.entries.extend(
                Entry(name, str(value), render_decimal(value, digits), flags, *BOUND_WORDS[name])
                for name, value, flags in rows
            )
            if k >= 2 and is_square(k):
                rec.notes.append(f"no Pell single-point bound: k = {k} is a perfect square")
            if surface is not None:
                rec.notes.extend(_surface_notes(surface, r))
            if args.all_digits:
                rec.notes.extend(_all_digit_note(name, value) for name, value, _ in rows)
            records.append(rec)
    return records, 0
