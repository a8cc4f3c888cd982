"""Golden reports: each CLI subcommand on a small fixed input and seed must
print exactly the committed report and exit with the committed code.

The reports in tests/golden/ were captured before DualVector moved to
array storage; a change that moves any digit of them fails here.  To
capture them again after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ like any other change.
"""

import os
import subprocess
import sys

import pytest

from dualmod.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# name -> (subcommand, input file or None, extra arguments, exit code)
CASES = {
    "basis": ("basis", "basis", [], 0),
    "solve": ("solve", "solve", [], 0),
    "darboux": ("darboux", "darboux", [], 0),
    "diffcheck": ("diffcheck", "diffcheck", ["--samples", "4", "--seed", "3"], 0),
    "diffcheck_fail": ("diffcheck", "diffcheck_fail", ["--samples", "3", "--seed", "1"], 1),
    "atlas": ("atlas", "atlas", ["--samples", "8", "--seed", "2"], 0),
    "selftest": ("selftest", None, ["--samples", "10", "--seed", "5"], 0),
    "selftest_1": ("selftest", None, ["--samples", "1", "--seed", "0"], 0),
    "selftest_100": ("selftest", None, ["--samples", "100", "--seed", "3"], 0),
}


def _argv(name):
    command, source, extra, _ = CASES[name]
    argv = [command] + extra
    if source is not None:
        argv += ["--input", os.path.join(GOLDEN, source + ".input.json")]
    return argv


def _report_path(name):
    return os.path.join(GOLDEN, name + ".report.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    code = main(_argv(name))
    out = capsys.readouterr().out
    with open(_report_path(name), "r", encoding="utf-8") as fh:
        want = fh.read()
    assert code == CASES[name][3]
    assert out == want


# the dualmod modules a fresh ``python -m dualmod.cli`` process imports for
# each case, besides the package; dualmod.cli itself runs as __main__
BASE = ["dualmod.core", "dualmod.linalg"]
FRESH_MODULES = {
    "basis": BASE,
    "solve": BASE,
    "darboux": BASE + ["dualmod.symplectic"],
    "diffcheck": BASE + ["dualmod.diff", "dualmod.sampling"],
    "diffcheck_fail": BASE + ["dualmod.diff", "dualmod.sampling"],
    "atlas": BASE + ["dualmod.diff", "dualmod.manifold"],
    "selftest_1": BASE + [
        "dualmod.diff", "dualmod.manifold", "dualmod.sampling", "dualmod.selftest", "dualmod.symplectic",
    ],
}


@pytest.mark.parametrize("name", sorted(FRESH_MODULES))
def test_fresh_process_matches_golden_and_imports_only_its_modules(name):
    """In process every module is already loaded, so only a fresh process
    shows that a subcommand imports what it uses, and nothing more."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "dualmod.cli"] + _argv(name),
        capture_output=True, text=True, env=env, timeout=300,
    )
    with open(_report_path(name), "r", encoding="utf-8") as fh:
        want = fh.read()
    assert proc.returncode == CASES[name][3], proc.stderr
    assert proc.stdout == want
    imported = [
        line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")
    ]
    assert sorted(m for m in imported if m.startswith("dualmod.")) == sorted(FRESH_MODULES[name])


if __name__ == "__main__":
    import contextlib
    import io

    for name in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(_argv(name))
        if code != CASES[name][3]:
            sys.exit("%s exited %d, expected %d" % (name, code, CASES[name][3]))
        with open(_report_path(name), "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        print("wrote", _report_path(name))
