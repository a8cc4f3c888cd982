"""cli: every subcommand as its own ``python -m dualmod.cli`` process.

The only workload that pays interpreter start, import, argparse and JSON
parse/emit.  Inputs are small generated files; a fixed third of the tasks
are malformed, each with the exit code the CLI documents for bad input (2).
Five of the malformed kinds are the boundary defects the project already
knows about (NaN right-hand side, Infinity generator, NaN in G, chart index
out of range, chart missing "j"); they count as failures until fixed, and
are marked as known so that ``correct`` reports only new disagreements.

Everything ``make`` does (drawing the inputs and writing the files) is
benchmark work, and there are no library objects to build beforehand, so
this workload's timed set-up is interpreter start and imports.  The
measured work runs in the CLI processes, so peak_rss_mb is the largest
CLI process's peak, not this process's.

Oracles: the exit code from the construction, a report byte-identical to an
in-process ``main`` run with the same arguments, and the report's content
against the planted input (basis dims, the solve residual recomputed in
numpy, and the verdict of each check).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from workloads import Task, Verdict, dual_vector, kind_and_size, lerp_int, rotate, task_rng

NAME = "cli"

CYCLE = (
    "basis", "nan_rhs", "solve_ok", "darboux", "diffcheck", "bad_json", "atlas",
    "selftest", "inf_generator", "solve_none", "darboux", "diffcheck_control",
    "chart_range", "basis", "solve_ok", "shape_mismatch", "atlas", "darboux",
    "chart_missing_j", "diffcheck", "nan_gram",
)
TRACE_TASKS = 2 * len(CYCLE)
SUBCOMMAND = {
    "basis": "basis", "inf_generator": "basis", "shape_mismatch": "basis",
    "solve_ok": "solve", "solve_none": "solve", "nan_rhs": "solve", "bad_json": "solve",
    "diffcheck": "diffcheck", "diffcheck_control": "diffcheck",
    "atlas": "atlas", "chart_range": "atlas", "chart_missing_j": "atlas",
    "darboux": "darboux", "nan_gram": "darboux",
    "selftest": "selftest",
}
SUBCOMMANDS = ("basis", "solve", "diffcheck", "atlas", "darboux", "selftest")
POOL = 6 * len(CYCLE)  # enough files for a run at the seed's speed
PEAK_RSS_OF_CHILDREN = True
KNOWN_DEFECTS = {"nan_rhs", "inf_generator", "nan_gram", "chart_range", "chart_missing_j"}
EXPECTED_CODE = {"solve_none": 1, "diffcheck_control": 1}
for _kind in KNOWN_DEFECTS | {"bad_json", "shape_mismatch"}:
    EXPECTED_CODE[_kind] = 2

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
_state = {}


def setup(seed: int) -> None:
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    _state["dir"] = tempfile.mkdtemp(prefix="cli-%d-" % seed, dir=work)


def teardown() -> None:
    work = _state.pop("dir", None)
    if work is None:  # set-up never ran
        return
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:  # another run still uses it
        pass


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def make(seed: int, index: int) -> Task:
    from workloads import algebra, diffcheck

    kind, size = kind_and_size(CYCLE, index)
    rng = task_rng(seed, index)
    task = Task(index, kind, size)
    sub = SUBCOMMAND[kind]
    args = [sub]
    doc = None
    if sub in ("basis", "solve"):
        inner = Task(index, "basis_heads" if sub == "basis" else
                     ("solve_none" if kind == "solve_none" else "solve_ok"), size / 3.0)
        (algebra._make_basis if sub == "basis" else algebra._make_solve)(inner, rng)
        algebra.construct(inner)
        task.expect = inner.expect
        if sub == "basis":
            gens = [g.to_json() for g in inner.inputs["generators"]]
            if kind == "inf_generator":
                gens[-1]["tail"][0] = float("inf")
            elif kind == "shape_mismatch":
                gens[-1]["tail"].append(0.5)
                gens[-1]["m"] += 1
            doc = {"generators": gens}
        else:
            doc = {"map": inner.inputs["map"].to_json(), "rhs": inner.inputs["rhs"].to_json()}
            if kind == "nan_rhs":
                doc["rhs"]["head"][0][0] = float("nan")
    elif sub == "diffcheck":
        import dualmod

        n, m = rotate(diffcheck.SHAPES, CYCLE, index)
        spec = {"tree": diffcheck._tree_spec(rng, n, m, lerp_int(10, 60, size))}
        if kind == "diffcheck_control":
            spec["projection"] = ("re_part", 0, 1.0)
        func = diffcheck.build(dualmod, Task(index, kind, size, {"shape": (n, m), "spec": spec}))
        points = [dual_vector(rng.uniform(-1.0, 1.0, size=2 * n + m), n, m) for _ in range(2)]
        doc = {"function": func.to_json(), "points": [p.to_json() for p in points]}
    elif sub == "atlas":
        every = [{"i": i, "j": j} for i in range(2) for j in range(2)]
        count = rotate((1, 2), CYCLE, index)
        charts = [every[k] for k in sorted(rng.choice(4, size=count, replace=False))]
        if kind == "chart_range":
            charts.append({"i": 5, "j": 0})
        elif kind == "chart_missing_j":
            charts.append({"i": 0})
        doc = {"n": 1, "m": 1, "charts": charts}
        args += ["--samples", str(lerp_int(5, 25, size))]
    elif sub == "darboux":
        import dualmod

        total = lerp_int(1, 4, size)
        a = rotate(range(total + 1), CYCLE, index)
        doc = dualmod.random_form(a, total - a, seed=int(rng.integers(0, 2**31))).to_json()
        if kind == "nan_gram":
            doc["G"][0][1][0] = float("nan")
    else:
        args += ["--samples", str(lerp_int(3, 8, size))]
    args += ["--seed", str(int(rng.integers(0, 1000)))]
    if doc is not None:
        path = os.path.join(_state["dir"], "task-%d.json" % index)
        text = json.dumps(doc)
        if kind == "bad_json":
            text = text[: len(text) // 2]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        args += ["--input", path]
    task.inputs = {"argv": args}
    task.expect["code"] = EXPECTED_CODE.get(kind, 0)
    return task


def run(task: Task):
    proc = subprocess.run(
        [sys.executable, "-m", "dualmod.cli"] + task.inputs["argv"],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_traced(task: Task, totals: dict):
    """Run the task in a traced CLI process and merge its tracer totals."""
    import time

    from tracer import merge

    out_path = os.path.join(_state["dir"], "trace-%d.json" % task.index)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), out_path] + task.inputs["argv"],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=120,
    )
    latency = time.perf_counter() - t0
    with open(out_path, encoding="utf-8") as fh:
        merge(totals, json.load(fh))
    os.unlink(out_path)
    return latency, (proc.returncode, proc.stdout, proc.stderr), None


def in_process(argv) -> tuple[int, str]:
    """Exit code and report of dualmod.cli.main run in this process."""
    import dualmod.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dualmod.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the subprocess would print a traceback and exit 1
            code = 1
    return code, out.getvalue()


def check(task: Task, outcome, error) -> Verdict:
    known = task.kind in KNOWN_DEFECTS
    if error is not None:
        return Verdict(False, known, "raised %s: %s" % (type(error).__name__, error))
    code, stdout, stderr = outcome
    want = task.expect["code"]
    if code != want:
        return Verdict(False, known, "exit %d, documented %d" % (code, want))
    if "Traceback" in stderr:
        return Verdict(False, known, "traceback on stderr")
    if in_process(task.inputs["argv"]) != (code, stdout):
        return Verdict(False, known, "report differs from an in-process main run")
    if code == 2:
        return Verdict(True)
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return Verdict(False, known, "report is not valid JSON")
    return _check_payload(task, payload)


def _check_payload(task, payload) -> Verdict:
    kind, exp = task.kind, task.expect
    if kind == "basis":
        ok = tuple(payload["dims"]) == tuple(exp["dims"])
        return Verdict(ok, note="" if ok else "dims %r, planted %r" % (payload["dims"], exp["dims"]))
    if kind == "solve_ok":
        sol = payload["solution"]
        x = np.array([h[0] for h in sol["head"]] + [h[1] for h in sol["head"]] + sol["tail"])
        resid = np.linalg.norm(exp["matrix"] @ x - exp["b"])
        ok = payload["solvable"] and resid <= 1e-7 * (1.0 + np.linalg.norm(exp["b"]))
        return Verdict(bool(ok), note="" if ok else "residual %g" % resid)
    if kind == "solve_none":
        return Verdict(payload.get("solvable") is False, note="unsolvable system reported solvable")
    if kind.startswith("diffcheck"):
        want = kind == "diffcheck"
        ok = payload["all_passed"] is want and payload["checked"] == len(payload["entries"]) > 0
        return Verdict(ok, note="" if ok else "diffcheck verdict %r" % payload["all_passed"])
    if kind == "darboux":
        ok = payload["verification"]["passed"] and payload["form_report"]["passed"]
        return Verdict(bool(ok), note="" if ok else "planted form did not verify")
    ok = payload["passed"] is True
    return Verdict(ok, note="" if ok else "%s failed" % kind)


def layer_extra(replayed) -> dict:
    """Per-subcommand median latency and exit-code mismatches per task, from
    the untraced replay."""
    extra = {}
    for sub in SUBCOMMANDS:
        lat = [lat for task, lat, _out, _err in replayed if SUBCOMMAND[task.kind] == sub]
        extra["cli.%s.p50_ms" % sub] = 1e3 * float(np.percentile(lat, 50.0)) if lat else 0.0
    mismatch = sum(
        1 for task, _lat, out, _err in replayed
        if out is None or out[0] != task.expect["code"]
    )
    extra["cli.exit_mismatch"] = mismatch / len(replayed)
    return extra
