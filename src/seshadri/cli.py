"""Command-line front end.

Subcommands:
  bounds      bound comparison table at (k, r)
  verify      exhaustive verification suites (theorem | han | k3)
  search      minimum-ratio search over feasible configurations
  pell        fundamental Pell solution and single-point bound
  threshold   floor-bound dominance threshold for fixed r
  p2-table    known plane values with statuses

Output formats: text (default), json (one object per record, JSON lines),
csv, chosen by --format alone.  Exact values accompany every decimal so
nothing downstream ever needs to re-parse a truncated decimal.  Identical
invocations produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 a verification
suite or a search found a counterexample.

A run builds the parser of its own subcommand only, and `bounds` keeps
its table and notes in .cli_bounds, which no other subcommand imports.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

# Every subcommand renders through .exact, and every other module of the
# package loads it.  The rest is imported inside the function that runs
# it, so a process loads only its own subcommand's modules: `pell` never
# loads the bounds or the oracle, `p2-table` loads only the plane values,
# `search` only the walk and `threshold` only the floor-bound scan, the
# catalog loads only for --surface, and json and csv only for their own
# format.
from .exact import Surd, isqrt, render_decimal

__all__ = ["main", "entrypoint"]

SEARCH_CAVEAT = (
    "candidate-level minimum over enumerated multiplicity configurations; "
    "not the true constant, which needs geometric input"
)
BOX_CAVEAT = "conclusions hold within the searched box only"
NOTE_DIGITS = 4  # notes quote values at a fixed precision, whatever --digits says
NINE_POINT_NOTE = "value is 1/3 = 1/sqrt(9); comparison tables occasionally misprint it as 3"


class UsageError(Exception):
    pass


class Counterexample(Exception):
    """A run met a case that breaks a theorem the package checks (exit 3)."""


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


def _n2_pm_1(k: int, n: int) -> str:
    """k, known to be n^2 + 1 or n^2 - 1, written as one of the two."""
    return f"{n}^2{'+' if k > n * n else '-'}1"


# -- subcommands ---------------------------------------------------------


def cmd_pell(args: argparse.Namespace) -> tuple[list[Record], int]:
    from .pell import fsst_applicable, pell_fundamental

    k = args.k
    sol = pell_fundamental(k)
    bound = sol.single_point_bound
    witness = fsst_applicable(k)
    rec = Record("pell", k=k)
    rec.entries.append(
        Entry(
            name="single-point-bound",
            exact=str(bound),
            decimal=render_decimal(bound, args.digits),
            applicability="single very general point",
            attribution="Pell-based bound p0*k/q0",
        )
    )
    rec.entries.append(Entry(name="fundamental-p0", exact=str(sol.p0)))
    rec.entries.append(Entry(name="fundamental-q0", exact=str(sol.q0)))
    rec.notes.append(
        f"fundamental solution of q^2 - {k}*p^2 = 1: (p0, q0) = ({sol.p0}, {sol.q0})"
    )
    if witness is not None:
        rec.notes.append(f"k = {k} = {_n2_pm_1(k, witness)}: bound is a proven case")
        rec.entries.append(Entry(name="fsst-witness-n", exact=str(witness)))
    else:
        rec.notes.append(
            f"k = {k} is not of the form n^2 +- 1: bound is conjectural in general"
        )
    return [rec], 0


def cmd_search(args: argparse.Namespace) -> tuple[list[Record], int]:
    from .walk import TheoremViolation, classify_case, min_ratio_search

    k, r, d_max = args.k, args.r, args.d_max
    m_max = args.m_max if args.m_max is not None else isqrt(d_max * d_max * k) + 1
    result = min_ratio_search(k, r, d_max, m_max)
    try:
        labels = [classify_case(d, k, r, m).value for d, m in result.witnesses]
    except TheoremViolation as e:  # a counterexample, as verify reports one
        raise Counterexample(str(e))
    rec = Record("search", k=k, r=r, d_max=d_max, m_max=m_max)
    # every witness attains the minimum, so each row repeats its value
    value = (str(result.minimum), render_decimal(Surd(result.minimum), args.digits))
    rec.entries.append(
        Entry("minimum", *value, attribution="min of d*k/sum(m) over the searched box")
    )
    for i, ((d, m), label) in enumerate(zip(result.witnesses, labels), start=1):
        rec.entries.append(
            Entry(
                f"witness-{i}",
                *value,
                flags=(label,),
                applicability=f"d={d}, m={'(' + ','.join(map(str, m)) + ')'}",
            )
        )
    rec.notes.append(SEARCH_CAVEAT)
    rec.notes.append(BOX_CAVEAT)
    return [rec], 0


def cmd_verify(args: argparse.Namespace) -> tuple[list[Record], int]:
    """Each suite's record lists what it checked, the number of failures,
    each failure, then anything else it found; any failure exits 3."""
    from .oracle import verify_han_exhaustive, verify_k3, verify_theorem

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
        if args.k_max < 2 or args.r_max < 3:
            raise UsageError("the k3 suite checks even k >= 2 and r >= 3: raise --k-max or --r-max")
        scan = verify_k3(args.k_max, args.r_max, args.d_max)
        rec = Record("verify", suite="k3", k_max=args.k_max, r_max=args.r_max, d_max=args.d_max)
        rec.entries.append(Entry(name="pairs-checked", exact=str(scan.pairs_checked)))
        counted = "exclusion-failures"
        failures = [
            Entry(name="not-excluded", exact="0", applicability=f"k={k}, r={r}")
            for k, r in scan.failures
        ]
        found = []
    rec.entries += [Entry(name=counted, exact=str(len(failures))), *failures, *found]
    rec.notes.append(BOX_CAVEAT)
    return [rec], 3 if failures else 0


def cmd_threshold(args: argparse.Namespace) -> tuple[list[Record], int]:
    from .threshold import dominance_scan

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
    from .plane import nagata_plane_value

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


def _cmd_bounds(args: argparse.Namespace) -> tuple[list[Record], int]:
    from .cli_bounds import cmd_bounds  # the bounds prose loads for bounds alone

    return cmd_bounds(args)


# -- parser --------------------------------------------------------------

_DIGITS = (
    "--digits", dict(type=_int_at_least(1), default=4, help="fractional digits, truncated (default 4)")
)
_POINT_COUNT = ("--r", dict(type=_int_at_least(2), required=True, help="point count, at least 2"))

# Each subcommand's help, command and options after --format, in the order
# the help lists them.
SUBCOMMANDS = {
    "bounds": ("bound comparison table", _cmd_bounds, [
        _DIGITS,
        ("--k", dict(type=_int_list(1), default=None, help="L^2 value(s), comma-separated")),
        ("--r", dict(type=_int_list(2), required=True, help="point count(s) >= 2, comma-separated")),
        ("--surface", dict(default=None, help="p2 | k3:<k> | hyp:<deg> | ab:<d> | custom:<k>[,va]")),
        ("--very-ample", dict(action="store_true", help="assert very-ampleness without a surface")),
        ("--all-digits", dict(
            action="store_true",
            help="note each value at 2, 3 and 4 digits (the published table conventions)",
        )),
    ]),
    "pell": ("fundamental Pell solution", cmd_pell, [
        _DIGITS,
        ("--k", dict(type=_int_at_least(2), required=True, help="L^2 value, at least 2")),
    ]),
    "search": ("minimum-ratio search", cmd_search, [
        _DIGITS,
        ("--k", dict(type=_int_at_least(1), required=True)),
        _POINT_COUNT,
        ("--d-max", dict(type=_int_at_least(1), required=True, help="explicit degree cap (required)")),
        ("--m-max", dict(
            type=_int_at_least(1), default=None, help="per-point cap (default: EL-feasible max)"
        )),
    ]),
    "verify": ("exhaustive verification suites", cmd_verify, [
        ("--suite", dict(choices=["theorem", "han", "k3"], required=True)),
        ("--k-max", dict(type=_int_at_least(1), default=20)),
        ("--r-max", dict(type=_int_at_least(2), default=10)),
        ("--d-max", dict(type=_int_at_least(1), default=5)),
        ("--m-max", dict(
            type=_int_at_least(1), default=8, help="entry cap (theorem) / m_1 cap, at least 2 (han)"
        )),
        ("--s-max", dict(type=_int_at_least(2), default=8, help="length cap for the han suite")),
    ]),
    "threshold": ("floor-bound dominance threshold", cmd_threshold, [
        _POINT_COUNT,
        ("--k-cap", dict(type=_int_at_least(1), required=True)),
    ]),
    "p2-table": ("known plane values", cmd_p2_table, [
        _DIGITS,
        ("--r-max", dict(type=_int_at_least(1), default=9)),
    ]),
}


def _build_parser(argv: list[str]) -> _Parser:
    """The parser for argv, with the subparser of argv[0] alone when it
    names a subcommand.  Otherwise (--help, or a missing or unknown
    subcommand) it holds all of them, so argparse lists them all."""
    parser = _Parser(prog="seshadri", description="Command-line front end.")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name in argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS:
        summary, command, options = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--format", choices=sorted(_EMITTERS), default="text", help="output format (default: text)"
        )
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.set_defaults(func=command)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Exact Pell solutions pass the interpreter's int-to-str digit limit
    # (4300 by default) long before they are slow to compute, so the limit
    # is lifted while main runs, emission included.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _build_parser(argv).parse_args(argv)
        records, code = args.func(args)
    except (UsageError, ValueError) as e:  # a bad call, or mathematics undefined there
        print(f"seshadri: error: {e}", file=sys.stderr)
        return 1 if isinstance(e, UsageError) else 2
    except Counterexample as e:
        print(f"seshadri: counterexample: {e}", file=sys.stderr)
        return 3
    else:
        _EMITTERS[args.format](records, sys.stdout)
        return code
    finally:
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
