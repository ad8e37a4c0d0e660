"""Command-line front end.

Subcommands:
  bounds      bound comparison table at (k, r)
  verify      exhaustive verification suites (theorem | han | k3)
  search      minimum-ratio search over feasible configurations
  pell        fundamental Pell solution and single-point bound
  threshold   floor-bound dominance threshold for fixed r
  p2-table    known plane values with statuses

Output formats: text (default), json (one object per record, JSON lines),
csv.  The default format can be set with the SESHADRI_FORMAT environment
variable.  Exact values accompany every decimal so nothing downstream
ever needs to re-parse a truncated decimal.  Identical invocations
produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification
found a counterexample.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

# Every subcommand renders through .exact, and every other module of the
# package loads it.  The rest is imported inside the function that runs
# it, so a process loads only its own subcommand's modules: `pell` never
# loads the bounds or the oracle, the catalog loads only for --surface,
# and json and csv only for their own format.
from .exact import Surd, isqrt, render_decimal

if TYPE_CHECKING:
    from .bounds import BoundEntry
    from .catalog import SurfaceSpec

__all__ = ["main", "entrypoint"]

SEARCH_CAVEAT = (
    "candidate-level minimum over enumerated multiplicity configurations; "
    "not the true constant, which needs geometric input"
)
BOX_CAVEAT = "conclusions hold within the searched box only"
NOTE_DIGITS = 4  # notes quote values at a fixed precision, whatever --digits says

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
NINE_POINT_NOTE = "value is 1/3 = 1/sqrt(9); comparison tables occasionally misprint it as 3"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


class Entry(NamedTuple):
    """One row of a record.  Its fields, in order, are the columns of
    every format; text leaves out the attribution."""

    name: str
    exact: str
    decimal: str = ""
    flags: tuple[str, ...] = ()
    applicability: str = ""
    attribution: str = ""

    def cells(self, flag_sep: str) -> tuple[str, ...]:
        return (*self[:3], flag_sep.join(self.flags), *self[4:])


class Record:
    """One output record: the command, its inputs, then the entries and
    notes the command appends."""

    __slots__ = ("command", "inputs", "entries", "notes")

    def __init__(self, command: str, **inputs: object) -> None:
        self.command = command
        self.inputs = {key: str(value) for key, value in inputs.items()}
        self.entries: list[Entry] = []
        self.notes: list[str] = []

    def input_line(self) -> str:
        return " ".join(f"{key}={value}" for key, value in self.inputs.items())


# -- emission ------------------------------------------------------------

CSV_COLUMNS = ["command", "inputs", *Entry._fields, "notes"]


def _emit_text(records: list[Record], out: io.TextIOBase) -> None:
    for i, rec in enumerate(records):
        if i:
            out.write("\n")
        out.write(f"{rec.command} {rec.input_line()}\n")
        if rec.entries:
            # every column but the attribution, the one long column
            rows = [Entry._fields[:-1]] + [e.cells(",")[:-1] for e in rec.entries]
            widths = [max(map(len, column)) for column in zip(*rows)]
            for row in rows:
                out.write("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
        for note in rec.notes:
            out.write(f"  note: {note}\n")


def _emit_json(records: list[Record], out: io.TextIOBase) -> None:
    import json

    for rec in records:
        obj = {
            "command": rec.command,
            "inputs": rec.inputs,
            "entries": [e._asdict() for e in rec.entries],
            "notes": rec.notes,
        }
        out.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _emit_csv(records: list[Record], out: io.TextIOBase) -> None:
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        inputs, notes = rec.input_line(), " | ".join(rec.notes)
        for e in rec.entries:
            writer.writerow([rec.command, inputs, *e.cells("|"), notes])


_EMITTERS = {"text": _emit_text, "json": _emit_json, "csv": _emit_csv}


# -- helpers -------------------------------------------------------------


def _int_at_least(lo: int):
    """An argparse type: an integer >= lo, so a value out of range is a
    usage error before any work starts."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _int_list(lo: int):
    """An argparse type: comma-separated integers, each >= lo."""
    item = _int_at_least(lo)
    return lambda text: [item(part) for part in text.split(",")]


def _all_digit_note(name: str, value: Surd) -> str:
    return (
        f"{name} at 2/3/4 digits: "
        + " / ".join(render_decimal(value, d) for d in (2, 3, 4))
    )


def _n2_pm_1(k: int, n: int) -> str:
    """k, known to be n^2 + 1 or n^2 - 1, written as one of the two."""
    return f"{n}^2{'+' if k > n * n else '-'}1"


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
        notes.append(f"single-point factor {detail.single} from Pell solution (p0, q0) = ({sol.p0}, {sol.q0})")
        notes.append(f"plane factor {plane.bound.value} at r = {r} ({plane.status.value})")
        if witness.applicable:
            notes.append(f"single-point bound proven: k = {sol.k} = {_n2_pm_1(sol.k, witness.n)}")
        else:
            notes.append(f"single-point bound conjectural: k = {sol.k} is not of the form n^2 +- 1")
        if r == 9:
            notes.append(NINE_POINT_NOTE)
    return notes


# -- subcommands ---------------------------------------------------------


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


def cmd_pell(args: argparse.Namespace) -> tuple[list[Record], int]:
    from .pell import fsst_applicable, pell_fundamental, szemberg_single_point_bound

    k = args.k
    sol = pell_fundamental(k)
    bound = szemberg_single_point_bound(k)
    witness = fsst_applicable(k)
    rec = Record("pell", k=k)
    rec.entries.append(
        Entry(
            name="single-point-bound",
            exact=str(Fraction(bound)),
            decimal=render_decimal(Surd(bound), args.digits),
            applicability="single very general point",
            attribution="Pell-based bound p0*k/q0",
        )
    )
    rec.entries.append(Entry(name="fundamental-p0", exact=str(sol.p0)))
    rec.entries.append(Entry(name="fundamental-q0", exact=str(sol.q0)))
    rec.notes.append(
        f"fundamental solution of q^2 - {k}*p^2 = 1: (p0, q0) = ({sol.p0}, {sol.q0})"
    )
    if witness.applicable:
        rec.notes.append(f"k = {k} = {_n2_pm_1(k, witness.n)}: bound is a proven case")
        rec.entries.append(Entry(name="fsst-witness-n", exact=str(witness.n)))
    else:
        rec.notes.append(
            f"k = {k} is not of the form n^2 +- 1: bound is conjectural in general"
        )
    return [rec], 0


def cmd_search(args: argparse.Namespace) -> tuple[list[Record], int]:
    from .oracle import classify_case, min_ratio_search

    k, r, d_max = args.k, args.r, args.d_max
    m_max = args.m_max if args.m_max is not None else isqrt(d_max * d_max * k) + 1
    result = min_ratio_search(k, r, d_max, m_max)
    rec = Record("search", k=k, r=r, d_max=d_max, m_max=m_max)
    # every witness attains the minimum, so each row repeats its value
    value = (str(result.minimum), render_decimal(Surd(result.minimum), args.digits))
    rec.entries.append(
        Entry("minimum", *value, attribution="min of d*k/sum(m) over the searched box")
    )
    for i, (d, m) in enumerate(result.witnesses, start=1):
        rec.entries.append(
            Entry(
                f"witness-{i}",
                *value,
                flags=(classify_case(d, k, r, m).value,),
                applicability=f"d={d}, m={'(' + ','.join(map(str, m)) + ')'}",
            )
        )
    rec.notes.append(SEARCH_CAVEAT)
    rec.notes.append(BOX_CAVEAT)
    return [rec], 0


def cmd_verify(args: argparse.Namespace) -> tuple[list[Record], int]:
    """Each suite's record lists what it checked, the number of failures,
    each failure, then anything else it found; any failure exits 3."""
    from .oracle import k3_case2_excluded, verify_han_exhaustive, verify_theorem

    if args.suite == "theorem":
        scan = verify_theorem(args.k_max, args.r_max, args.d_max, args.m_max)
        rec = Record(
            "verify", suite="theorem", k_max=args.k_max, r_max=args.r_max,
            d_max=args.d_max, m_max=args.m_max,
        )
        rec.entries.append(Entry(name="feasible-vectors", exact=str(scan.feasible_vectors)))
        for label, count in sorted(
            scan.subgeneric_counts.items(), key=lambda kv: kv[0].value
        ):
            rec.entries.append(Entry(name=f"subgeneric-{label.value}", exact=str(count)))
        counted = "violations"
        failures = [
            Entry(
                name="violation",
                exact=str(Fraction(v.d * v.k, sum(v.m))),
                applicability=f"d={v.d}, k={v.k}, r={v.r}, m={v.m}",
            )
            for v in scan.violations
        ]
        found = []
    elif args.suite == "han":
        if args.m_max < 2:
            raise UsageError(f"the han suite needs --m-max >= 2, got {args.m_max}")
        scan = verify_han_exhaustive(args.s_max, args.m_max)
        rec = Record("verify", suite="han", s_max=args.s_max, m_max=args.m_max)
        rec.entries.append(Entry(name="applicable-vectors", exact=str(scan.applicable_checked)))
        counted = "counterexamples"
        failures = [
            Entry(name="counterexample", exact="0", applicability=f"m={m}")
            for m in scan.counterexamples
        ]
        found = [
            Entry(name="equality-witness", exact="1", applicability=f"m={m}")
            for m in scan.equality_witnesses
        ]
    else:
        pairs = [(k, r) for k in range(2, args.k_max + 1, 2) for r in range(3, args.r_max + 1)]
        if not pairs:
            raise UsageError("the k3 suite checks even k >= 2 and r >= 3: raise --k-max or --r-max")
        rec = Record("verify", suite="k3", k_max=args.k_max, r_max=args.r_max, d_max=args.d_max)
        rec.entries.append(Entry(name="pairs-checked", exact=str(len(pairs))))
        counted = "exclusion-failures"
        failures = [
            Entry(name="not-excluded", exact="0", applicability=f"k={k}, r={r}")
            for k, r in pairs
            if not k3_case2_excluded(k, r, args.d_max).excluded
        ]
        found = []
    rec.entries += [Entry(name=counted, exact=str(len(failures))), *failures, *found]
    rec.notes.append(BOX_CAVEAT)
    return [rec], 3 if failures else 0


def cmd_threshold(args: argparse.Namespace) -> tuple[list[Record], int]:
    from .bounds import dominance_scan

    scan = dominance_scan(args.r, args.k_cap)
    rec = Record("threshold", r=args.r, k_cap=args.k_cap)
    rec.entries.append(
        Entry(
            name="threshold",
            exact="none" if scan.threshold is None else str(scan.threshold),
            applicability="minimal N with floor dominance on [N, k_cap]",
        )
    )
    rec.entries.append(Entry(name="last-failure", exact=str(scan.last_failure)))
    rec.entries.append(Entry(name="band-cutoff", exact=str(scan.band_cutoff)))
    if scan.threshold is None:
        rec.notes.append("floor bound still loses at k_cap; raise the cap")
    elif scan.stable_beyond_cap:
        rec.notes.append(
            f"every k >= {scan.band_cutoff} provably dominates, so the threshold is global"
        )
    else:
        rec.notes.append(
            f"window certificate only: failures beyond k_cap are ruled out "
            f"only from k = {scan.band_cutoff} on"
        )
    return [rec], 0


def cmd_p2_table(args: argparse.Namespace) -> tuple[list[Record], int]:
    from .bounds import nagata_plane_value

    achievers = {
        2: "achieved by a line through two of the points",
        3: "achieved by a line through two of the points",
        4: "achieved by a line through two of the points",
        5: "achieved by a conic through the five points",
    }
    rec = Record("p2-table", r_max=args.r_max)
    for r in range(1, args.r_max + 1):
        value = nagata_plane_value(r)
        rec.entries.append(
            Entry(
                name=f"r={r}",
                exact=str(value.bound.value),
                decimal=render_decimal(value.bound.value, args.digits),
                flags=(value.status.value,),
                applicability=achievers.get(r, ""),
            )
        )
        if r == 9:
            rec.notes.append(f"r={r}: {NINE_POINT_NOTE}")
    return [rec], 0


# -- parser --------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="seshadri", description=__doc__.split("\n\n")[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=sorted(_EMITTERS),
        default=None,
        help="output format (default: SESHADRI_FORMAT or text)",
    )
    display = argparse.ArgumentParser(add_help=False)
    display.add_argument(
        "--digits", type=_int_at_least(1), default=4, help="fractional digits, truncated (default 4)"
    )

    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("bounds", parents=[common, display], help="bound comparison table")
    p.add_argument("--k", type=_int_list(1), default=None, help="L^2 value(s), comma-separated")
    p.add_argument("--r", type=_int_list(2), required=True, help="point count(s) >= 2, comma-separated")
    p.add_argument("--surface", default=None, help="p2 | k3:<k> | hyp:<deg> | ab:<d> | custom:<k>[,va]")
    p.add_argument("--very-ample", action="store_true", help="assert very-ampleness without a surface")
    p.add_argument(
        "--all-digits",
        action="store_true",
        help="note each value at 2, 3 and 4 digits (the published table conventions)",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("pell", parents=[common, display], help="fundamental Pell solution")
    p.add_argument("--k", type=_int_at_least(2), required=True, help="L^2 value, at least 2")
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("search", parents=[common, display], help="minimum-ratio search")
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--r", type=_int_at_least(2), required=True, help="point count, at least 2")
    p.add_argument("--d-max", type=_int_at_least(1), required=True, help="explicit degree cap (required)")
    p.add_argument(
        "--m-max", type=_int_at_least(1), default=None, help="per-point cap (default: EL-feasible max)"
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", parents=[common], help="exhaustive verification suites")
    p.add_argument("--suite", choices=["theorem", "han", "k3"], required=True)
    p.add_argument("--k-max", type=_int_at_least(1), default=20)
    p.add_argument("--r-max", type=_int_at_least(2), default=10)
    p.add_argument("--d-max", type=_int_at_least(1), default=5)
    p.add_argument(
        "--m-max", type=_int_at_least(1), default=8, help="entry cap (theorem) / m_1 cap, at least 2 (han)"
    )
    p.add_argument("--s-max", type=_int_at_least(2), default=8, help="length cap for the han suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("threshold", parents=[common], help="floor-bound dominance threshold")
    p.add_argument("--r", type=_int_at_least(2), required=True, help="point count, at least 2")
    p.add_argument("--k-cap", type=_int_at_least(1), required=True)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("p2-table", parents=[common, display], help="known plane values")
    p.add_argument("--r-max", type=_int_at_least(1), default=9)
    p.set_defaults(func=cmd_p2_table)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # Exact Pell solutions pass the interpreter's int-to-str digit limit
    # (4300 by default) long before they are slow to compute, so the limit
    # is lifted while main runs, emission included.  Interpreters without
    # it have no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        fmt = args.format or os.environ.get("SESHADRI_FORMAT", "text")
        if fmt not in _EMITTERS:
            raise UsageError(f"unknown format {fmt!r}")
        records, code = args.func(args)
    except (UsageError, ValueError) as e:  # a bad call, or mathematics undefined there
        print(f"seshadri: error: {e}", file=sys.stderr)
        return 1 if isinstance(e, UsageError) else 2
    else:
        _EMITTERS[fmt](records, sys.stdout)
        return code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again, and
        # exit 128 + SIGPIPE, as a process killed by the signal would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
