"""Cold start: what a `python -m seshadri` process prints, and what it loads.

Each cold case runs one fresh interpreter with -S, so that no site hook
preloads modules, and -B, so that no bytecode is written, and checks its
golden bytes, package modules, `dataclasses` and format modules on that
one run.  The in-process tests cannot see what a process loads: by the
time they run, pytest has loaded every module of the package.  One case
also runs under -OO, which strips asserts and docstrings, as a witness of
the syntax rule in test_exactness_rules.py that makes plain, -O and -OO
runs the same program.
"""

import pytest
from conftest import run_python
from test_golden import case_argv, golden_file, transcript
from test_public_api import CLOSURES

# Runs the package as `python -m` does (its __main__ runs as "__main__",
# not as seshadri.__main__), then reports every loaded module on the last
# line of stderr after the command has exited.
REPORT_MODULES = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('modules', *sorted(sys.modules), file=sys.stderr))\n"
    "runpy.run_module('seshadri', run_name='__main__', alter_sys=True)\n"
)


# The package modules of each subcommand besides cli; --surface adds
# catalog.  Only bounds loads its prose, cli_bounds, and threshold loads no
# part of the bound layer but its own scan.
LOADS = {
    "bounds": CLOSURES["bounds"] | {"seshadri.cli_bounds"},
    "threshold": CLOSURES["threshold"],
    "pell": CLOSURES["pell"],
    "search": CLOSURES["walk"],
    "verify": CLOSURES["walk"] | {"seshadri.oracle"},
    "p2-table": CLOSURES["plane"],
}
# The subcommands whose result records are dataclasses.
LOADS_DATACLASSES = {"bounds", "threshold", "verify"}


def cold_run(flags: tuple[str, ...], *argv: str) -> tuple[int, str, str, frozenset[str]]:
    """The exit code, stdout and stderr of `python *flags -m seshadri *argv`
    in a fresh interpreter, and the modules it had loaded when it exited."""
    proc = run_python(*flags, "-S", "-B", "-c", REPORT_MODULES, *argv)
    *stderr, report = proc.stderr.splitlines(keepends=True)
    tag, *modules = report.split()
    assert tag == "modules"
    return proc.returncode, proc.stdout, "".join(stderr), frozenset(modules)


# Each subcommand in each format, with --surface and --all-digits, every
# verify suite in text, one usage error and one domain error.
COLD_CASES = [
    ("bounds-product-n2-minus-1", "text"),
    ("bounds-surface-custom", "json"),
    ("bounds-all-digits", "csv"),
    ("bounds-surface-p2", "text"),
    ("pell-proven", "text"),
    ("pell-conjectural", "json"),
    ("pell-proven", "csv"),
    ("search", "text"),
    ("search", "json"),
    ("search", "csv"),
    ("verify-theorem", "text"),
    ("verify-han", "text"),
    ("verify-han", "json"),
    ("verify-k3", "text"),
    ("verify-k3", "csv"),
    ("threshold-global", "text"),
    ("threshold-window", "json"),
    ("threshold-none", "csv"),
    ("p2-table", "text"),
    ("p2-table", "json"),
    ("p2-table-one-row", "csv"),
    ("usage-error", "text"),
    ("domain-error", "json"),
]
# The interpreter flags of each case: none, and -OO for one case.
RUNS = [((), name, fmt) for name, fmt in COLD_CASES] + [(("-OO",), "bounds-product-n2-minus-1", "text")]


@pytest.mark.parametrize("flags,name,fmt", RUNS, ids=[f"{n}.{f}{''.join(flags)}" for flags, n, f in RUNS])
def test_cold_process_matches_its_golden_file(flags, name, fmt):
    argv = case_argv(name, fmt)
    code, out, err, loaded = cold_run(flags, *argv)
    assert transcript(code, out, err).encode() == golden_file(name, fmt).read_bytes()

    catalog = {"seshadri.catalog"} if "--surface" in argv else set()
    assert {m for m in loaded if m.startswith("seshadri")} == LOADS[argv[0]] | {"seshadri.cli"} | catalog
    assert ("dataclasses" in loaded) == (argv[0] in LOADS_DATACLASSES)
    # text output needs neither, and a run that prints no record loads neither
    assert {"json", "csv"} & loaded == ({fmt} - {"text"} if out else set())
