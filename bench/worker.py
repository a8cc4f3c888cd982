"""One workload process: build the inputs, run the tasks, report as JSON.

run.py starts this file as a child process and reads the line
``ready SECONDS`` once set-up is done: imports, drawing the first POOL
tasks' inputs and oracle data (the workload's ``make``, benchmark work that
takes SECONDS) and building the library objects for them (its
``construct``).  The wall time to that line minus SECONDS is one set-up
sample.  The last line the process prints is a JSON record of the run.

Untraced mode runs a closed loop (one task at a time) until the tasks'
summed latency reaches ``--seconds``, at least MIN_TASKS tasks are done and
the last task mix cycle is complete; each outcome is checked right after
its timed interval and then dropped.  Traced mode runs the workload's fixed TRACE_TASKS tasks (about
half of run_seconds at the time the benchmark was defined) with the tracer
installed, so per-task counts repeat exactly for a seed, then replays the
same tasks untraced to measure the tracing overhead.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the benchmark measures one
# client on one core, and CLI children inherit these settings.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [p for p in (BENCH_DIR, SRC) if p not in sys.path]

import numpy as np  # noqa: E402

import probe  # noqa: E402
import stats  # noqa: E402

POOL = 256  # tasks whose inputs are built during set-up, unless the workload sets POOL
MIN_TASKS = 100  # enough for ten samples beyond p90
HARD_STOP_S = 120.0  # a run never measures longer than this
PROBES = 5  # repetitions of the interpreter and import probes


def execute(wl, task):
    """Run one task; the latency covers only the workload's public calls."""
    t0 = time.perf_counter()
    try:
        out, err = wl.run(task), None
    except Exception as exc:  # an exception is an outcome the oracle judges
        out, err = None, exc
    return time.perf_counter() - t0, out, err


class Tasks:
    """Inputs for task indices: the first POOL made during set-up, later
    ones made afresh on each use, outside any timed interval.

    ``drawn_s`` is the time spent in the workload's ``setup`` and ``make``
    for the pool, which set-up does not count."""

    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        t0 = time.perf_counter()
        if hasattr(wl, "setup"):
            wl.setup(seed)
        drawn = [wl.make(seed, i) for i in range(getattr(wl, "POOL", POOL))]
        self.drawn_s = time.perf_counter() - t0
        self.pool = [self.construct(task) for task in drawn]

    def construct(self, task):
        if hasattr(self.wl, "construct"):
            self.wl.construct(task)
        return task

    def __getitem__(self, index):
        if index < len(self.pool):
            return self.pool[index]
        return self.construct(self.wl.make(self.seed, index))


class Judge:
    """Applies the workload's oracle to each outcome as it arrives."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = self.known = 0
        self.notes = []

    def __call__(self, task, out, err):
        verdict = self.wl.check(task, out, err)
        self.attempted += 1
        if verdict.ok:
            return
        self.failed += 1
        self.known += verdict.known_defect
        if len(self.notes) < 8:
            self.notes.append("task %d (%s): %s" % (task.index, task.kind, verdict.note))

    @property
    def correct(self) -> bool:
        """No disagreement other than a known defect."""
        return self.failed == self.known


def timed_loop(wl, tasks, seconds, min_tasks, on_result, run=None):
    """Run tasks 0, 1, ... until their summed latency reaches ``seconds``,
    at least ``min_tasks`` are done and the last mix cycle is complete.
    ``on_result(task, latency, out, err)`` sees each outcome after its
    timed interval.  Returns the task count."""
    run = run or (lambda task: execute(wl, task))
    cycle = len(wl.CYCLE)
    n, busy = 0, 0.0
    while busy < HARD_STOP_S and not (busy >= seconds and n >= min_tasks and n % cycle == 0):
        task = tasks[n]
        latency, out, err = run(task)
        on_result(task, latency, out, err)
        n += 1
        busy += latency
    return n


def end_to_end(wl, latencies, probe_times) -> dict:
    """The end-to-end figures from host-adjusted latencies, with the raw
    wall-clock ones alongside (prefixed raw_).  Peak memory is this
    process's, or the largest child's where the workload's work runs in
    child processes."""
    n = len(latencies)
    tail = stats.tail_percentile(n)
    who = resource.RUSAGE_CHILDREN if getattr(wl, "PEAK_RSS_OF_CHILDREN", False) else resource.RUSAGE_SELF
    out = {
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "_tail_percentile": tail,
        "_samples": n,
    }
    for prefix, lat in (("", probe.adjusted(latencies, probe_times)), ("raw_", latencies)):
        p50, p_tail = np.percentile(lat, [50.0, tail])
        out[prefix + "tasks_per_s"] = n / sum(lat)
        out[prefix + "task_p50_ms"] = 1e3 * float(p50)
        out[prefix + "task_p90_ms"] = 1e3 * float(p_tail)
    return out


def probe_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def traced(wl, tasks, judge) -> tuple[dict, dict]:
    import layers
    from tracer import Tracer, merge

    totals: dict = {}
    traced_runs, replayed = [], []

    def keep(into):
        return lambda task, latency, out, err: into.append((task, latency, out, err))

    if hasattr(wl, "run_traced"):
        timed_loop(wl, tasks, 0.0, wl.TRACE_TASKS, keep(traced_runs),
                   run=lambda task: wl.run_traced(task, totals))
    else:
        with Tracer() as tracer:
            timed_loop(wl, tasks, 0.0, wl.TRACE_TASKS, keep(traced_runs))
        merge(totals, tracer.totals())
    timed_loop(wl, tasks, 0.0, wl.TRACE_TASKS, keep(replayed))
    for task, _latency, out, err in traced_runs + replayed:
        judge(task, out, err)  # after the tracer is gone, so oracles are not counted

    extra = {
        "trace.tasks": len(traced_runs),
        "trace.overhead_ratio": sum(r[1] for r in replayed) / sum(r[1] for r in traced_runs),
        "cli.interpreter_ms": probe_ms("pass"),
    }
    extra["cli.import_ms"] = probe_ms("import dualmod.cli") - extra["cli.interpreter_ms"]
    if hasattr(wl, "layer_extra"):
        extra.update(wl.layer_extra(replayed))
    return layers.layer_values(totals, len(traced_runs), extra), extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import dualmod

    if not os.path.abspath(dualmod.__file__).startswith(SRC + os.sep):
        raise SystemExit("dualmod resolved to %s, not this checkout" % dualmod.__file__)
    import workloads

    wl = workloads.load(args.workload)
    try:
        tasks = Tasks(wl, args.seed)
        print("ready %.9f" % tasks.drawn_s, flush=True)
        if args.setup_only:
            return 0
        gc.collect()
        judge = Judge(wl)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            metrics, record["extra"] = traced(wl, tasks, judge)
        else:
            latencies, probe_times = [], []

            def probed(task):
                probe_times.append(probe.probe())
                return execute(wl, task)

            timed_loop(
                wl, tasks, args.seconds, MIN_TASKS,
                lambda task, latency, out, err: (latencies.append(latency), judge(task, out, err)),
                run=probed,
            )
            metrics = end_to_end(wl, latencies, probe_times)
            metrics["ok_share"] = 1.0 - judge.failed / judge.attempted
        record.update(
            attempted=judge.attempted, failed=judge.failed, known_defects=judge.known,
            correct=judge.correct,
            failure_notes=judge.notes, metrics=metrics, host=_host(),
        )
    finally:
        if hasattr(wl, "teardown"):
            wl.teardown()
    print(json.dumps(record), flush=True)
    return 0


def _host() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


if __name__ == "__main__":
    sys.exit(main())
