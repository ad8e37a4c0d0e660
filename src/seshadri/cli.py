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
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

from .bounds import (
    BoundEntry,
    HarbourneBound,
    MainLowerBound,
    ProductFactors,
    compare_bounds,
    dominance_scan,
    nagata_plane_value,
)
from .catalog import SurfaceSpec, SurfaceSyntaxError, known_value, parse_surface
from .exact import Surd, isqrt, render_decimal
from .inequalities import is_square
from .oracle import (
    classify_case,
    k3_case2_excluded,
    min_ratio_search,
    verify_han_exhaustive,
    verify_theorem,
)
from .pell import fsst_applicable, pell_fundamental, szemberg_single_point_bound

__all__ = ["main", "entrypoint"]

SEARCH_CAVEAT = (
    "candidate-level minimum over enumerated multiplicity configurations; "
    "not the true constant, which needs geometric input"
)
BOX_CAVEAT = "conclusions hold within the searched box only"
NOTE_DIGITS = 4  # notes quote values at a fixed precision, whatever --digits says


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


@dataclass
class Entry:
    name: str
    exact: str
    decimal: str = ""
    flags: tuple[str, ...] = ()
    applicability: str = ""
    attribution: str = ""


@dataclass
class Record:
    command: str
    inputs: list[tuple[str, str]]
    entries: list[Entry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


# -- emission ------------------------------------------------------------


def _emit_text(records: list[Record], out: io.TextIOBase) -> None:
    for i, rec in enumerate(records):
        if i:
            out.write("\n")
        inputs = " ".join(f"{k}={v}" for k, v in rec.inputs)
        out.write(f"{rec.command} {inputs}\n" if inputs else f"{rec.command}\n")
        if rec.entries:
            rows = [
                (
                    e.name,
                    e.exact,
                    e.decimal,
                    ",".join(e.flags),
                    e.applicability,
                )
                for e in rec.entries
            ]
            headers = ("name", "exact", "decimal", "flags", "applicability")
            widths = [
                max(len(h), *(len(r[j]) for r in rows)) for j, h in enumerate(headers)
            ]
            out.write(
                "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n"
            )
            for row in rows:
                out.write(
                    "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                )
        for note in rec.notes:
            out.write(f"  note: {note}\n")


def _emit_json(records: list[Record], out: io.TextIOBase) -> None:
    for rec in records:
        obj = {
            "command": rec.command,
            "inputs": {k: v for k, v in rec.inputs},
            "entries": [asdict(e) for e in rec.entries],
            "notes": rec.notes,
        }
        out.write(json.dumps(obj, separators=(",", ":")) + "\n")


CSV_COLUMNS = [
    "command",
    "inputs",
    "name",
    "exact",
    "decimal",
    "flags",
    "applicability",
    "attribution",
    "notes",
]


def _emit_csv(records: list[Record], out: io.TextIOBase) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        inputs = " ".join(f"{k}={v}" for k, v in rec.inputs)
        notes = " | ".join(rec.notes)
        for e in rec.entries:
            writer.writerow(
                [
                    rec.command,
                    inputs,
                    e.name,
                    e.exact,
                    e.decimal,
                    "|".join(e.flags),
                    e.applicability,
                    e.attribution,
                    notes,
                ]
            )


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


def _entry_notes(entry: BoundEntry, r: int) -> list[str]:
    """Notes on one bound, written from the object it was built from."""
    detail, notes = entry.detail, []
    if isinstance(detail, MainLowerBound):
        if detail.annotation:
            notes.append(detail.annotation)
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
        if detail.exceptional:
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
            notes.append(f"single-point bound proven: k = {sol.k} = {witness.n}^2{witness.form[3:]}")
        else:
            notes.append(f"single-point bound conjectural: k = {sol.k} is not of the form n^2 +- 1")
        if plane.note:
            notes.append(plane.note)
    return notes


# -- subcommands ---------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> tuple[list[Record], int]:
    try:
        surface: Optional[SurfaceSpec] = (
            parse_surface(args.surface) if args.surface else None
        )
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
            rec = Record(
                command="bounds",
                inputs=[
                    ("k", str(k)),
                    ("r", str(r)),
                    ("surface", surface.label() if surface else "-"),
                ],
            )
            rec.entries.append(
                Entry(
                    name="upper",
                    exact=str(report.upper.value),
                    decimal=render_decimal(report.upper.value, digits),
                    flags=("upper-bound", "supremum"),
                    applicability="any nef line bundle",
                    attribution="optimal value sqrt(k/r)",
                )
            )
            for entry, rank in zip(report.entries, report.ranks):
                flags = []
                if entry.value.conditional:
                    flags.append("conditional")
                if not entry.value.attained:
                    flags.append("supremum")
                if entry.conjectural:
                    flags.append("conjectural")
                flags.append(f"rank={rank}")
                rec.entries.append(
                    Entry(
                        name=entry.name,
                        exact=str(entry.value.value),
                        decimal=render_decimal(entry.value.value, digits),
                        flags=tuple(flags),
                        applicability=entry.applicability,
                        attribution=entry.attribution,
                    )
                )
                rec.notes.extend(f"{entry.name}: {n}" for n in _entry_notes(entry, r))
            if k >= 2 and is_square(k):
                rec.notes.append(f"no Pell single-point bound: k = {k} is a perfect square")
            if surface is not None:
                rec.notes.extend(f"surface: {n}" for n in surface.notes)
                known = known_value(surface, r)
                if known is not None:
                    rec.notes.append(
                        f"known exact value: {known.bound.value} "
                        f"({known.status.value})"
                        + (f"; {known.note}" if known.note else "")
                    )
            if args.all_digits:
                rec.notes.append(_all_digit_note("upper", report.upper.value))
                for entry in report.entries:
                    rec.notes.append(_all_digit_note(entry.name, entry.value.value))
            records.append(rec)
    return records, 0


def cmd_pell(args: argparse.Namespace) -> tuple[list[Record], int]:
    k = args.k
    sol = pell_fundamental(k)
    bound = szemberg_single_point_bound(k)
    witness = fsst_applicable(k)
    rec = Record(command="pell", inputs=[("k", str(k))])
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
        rec.notes.append(
            f"k = {k} = {witness.n}^2{witness.form[3:]}: bound is a proven case"
        )
        rec.entries.append(Entry(name="fsst-witness-n", exact=str(witness.n)))
    else:
        rec.notes.append(
            f"k = {k} is not of the form n^2 +- 1: bound is conjectural in general"
        )
    return [rec], 0


def cmd_search(args: argparse.Namespace) -> tuple[list[Record], int]:
    k, r, d_max = args.k, args.r, args.d_max
    m_max = args.m_max if args.m_max is not None else isqrt(d_max * d_max * k) + 1
    result = min_ratio_search(k, r, d_max, m_max)
    rec = Record(
        command="search",
        inputs=[
            ("k", str(k)),
            ("r", str(r)),
            ("d_max", str(d_max)),
            ("m_max", str(m_max)),
        ],
    )
    rec.entries.append(
        Entry(
            name="minimum",
            exact=str(result.minimum),
            decimal=render_decimal(Surd(result.minimum), args.digits),
            attribution="min of d*k/sum(m) over the searched box",
        )
    )
    for i, (d, m) in enumerate(result.witnesses, start=1):
        label = classify_case(d, k, r, m)
        rec.entries.append(
            Entry(
                name=f"witness-{i}",
                exact=str(result.minimum),
                decimal=render_decimal(Surd(result.minimum), args.digits),
                flags=(label.value,),
                applicability=f"d={d}, m={'(' + ','.join(map(str, m)) + ')'}",
            )
        )
    rec.notes.append(SEARCH_CAVEAT)
    rec.notes.append(BOX_CAVEAT)
    return [rec], 0


def cmd_verify(args: argparse.Namespace) -> tuple[list[Record], int]:
    if args.suite == "theorem":
        scan = verify_theorem(args.k_max, args.r_max, args.d_max, args.m_max)
        rec = Record(
            command="verify",
            inputs=[
                ("suite", "theorem"),
                ("k_max", str(args.k_max)),
                ("r_max", str(args.r_max)),
                ("d_max", str(args.d_max)),
                ("m_max", str(args.m_max)),
            ],
        )
        rec.entries.append(Entry(name="feasible-vectors", exact=str(scan.feasible_vectors)))
        for label, count in sorted(
            scan.subgeneric_counts.items(), key=lambda kv: kv[0].value
        ):
            rec.entries.append(
                Entry(name=f"subgeneric-{label.value}", exact=str(count))
            )
        rec.entries.append(Entry(name="violations", exact=str(len(scan.violations))))
        for v in scan.violations:
            rec.entries.append(
                Entry(
                    name="violation",
                    exact=str(Fraction(v.d * v.k, sum(v.m))),
                    applicability=f"d={v.d}, k={v.k}, r={v.r}, m={v.m}",
                )
            )
        rec.notes.append(BOX_CAVEAT)
        return [rec], 3 if scan.violations else 0

    if args.suite == "han":
        if args.m_max < 2:
            raise UsageError(f"the han suite needs --m-max >= 2, got {args.m_max}")
        scan = verify_han_exhaustive(args.s_max, args.m_max)
        rec = Record(
            command="verify",
            inputs=[
                ("suite", "han"),
                ("s_max", str(args.s_max)),
                ("m_max", str(args.m_max)),
            ],
        )
        rec.entries.append(Entry(name="applicable-vectors", exact=str(scan.applicable_checked)))
        rec.entries.append(Entry(name="counterexamples", exact=str(len(scan.counterexamples))))
        for m in scan.counterexamples:
            rec.entries.append(Entry(name="counterexample", exact="0", applicability=f"m={m}"))
        for m in scan.equality_witnesses:
            rec.entries.append(
                Entry(name="equality-witness", exact="1", applicability=f"m={m}")
            )
        rec.notes.append(BOX_CAVEAT)
        return [rec], 3 if scan.counterexamples else 0

    # k3 suite
    rec = Record(
        command="verify",
        inputs=[
            ("suite", "k3"),
            ("k_max", str(args.k_max)),
            ("r_max", str(args.r_max)),
            ("d_max", str(args.d_max)),
        ],
    )
    pairs = [(k, r) for k in range(2, args.k_max + 1, 2) for r in range(3, args.r_max + 1)]
    if not pairs:
        raise UsageError("the k3 suite checks even k >= 2 and r >= 3: raise --k-max or --r-max")
    failures = 0
    for k, r in pairs:
        if not k3_case2_excluded(k, r, args.d_max).excluded:
            failures += 1
            rec.entries.append(
                Entry(name="not-excluded", exact="0", applicability=f"k={k}, r={r}")
            )
    rec.entries.insert(0, Entry(name="pairs-checked", exact=str(len(pairs))))
    rec.entries.insert(1, Entry(name="exclusion-failures", exact=str(failures)))
    rec.notes.append(BOX_CAVEAT)
    return [rec], 3 if failures else 0


def cmd_threshold(args: argparse.Namespace) -> tuple[list[Record], int]:
    scan = dominance_scan(args.r, args.k_cap)
    rec = Record(
        command="threshold",
        inputs=[("r", str(args.r)), ("k_cap", str(args.k_cap))],
    )
    rec.entries.append(
        Entry(
            name="threshold",
            exact="none" if scan.threshold is None else str(scan.threshold),
            applicability="minimal N with floor dominance on [N, k_cap]",
        )
    )
    if scan.last_failure is not None:
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
    achievers = {
        2: "achieved by a line through two of the points",
        3: "achieved by a line through two of the points",
        4: "achieved by a line through two of the points",
        5: "achieved by a conic through the five points",
    }
    rec = Record(command="p2-table", inputs=[("r_max", str(args.r_max))])
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
        if value.note:
            rec.notes.append(f"r={r}: {value.note}")
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
    # is lifted while main runs.  Interpreters without it have no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv: Optional[list[str]]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"seshadri: error: {e}", file=sys.stderr)
        return 1
    fmt = args.format or os.environ.get("SESHADRI_FORMAT", "text")
    if fmt not in _EMITTERS:
        print(f"seshadri: error: unknown format {fmt!r}", file=sys.stderr)
        return 1
    try:
        records, code = args.func(args)
    except UsageError as e:
        print(f"seshadri: error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"seshadri: error: {e}", file=sys.stderr)
        return 2
    _EMITTERS[fmt](records, sys.stdout)
    return code


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
