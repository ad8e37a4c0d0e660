"""Session-wide test settings, the in-process CLI runner, and the launcher
for fresh interpreters."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

import seshadri.cli as cli

# Derandomized, with no example database: every run draws the same
# examples, so a pass or failure repeats exactly.  No deadline, because
# the machines that run the suite differ in speed.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv), run in this process.
    Unlike pytest's capturing fixtures, it also works inside hypothesis tests.
    --help leaves main as argparse's SystemExit, whose code is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int-to-str digit limit, and restore it on exit, so that a
    failing comparison of Pell-sized ints reports their values."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter run with args (flags first, such as -OO or -S -B),
    importing seshadri from this checkout; its output is captured as text,
    and it is stopped after 60 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
