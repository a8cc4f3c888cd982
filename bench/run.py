#!/usr/bin/env python3
"""Run one benchmark workload against dualmod in this checkout.

    python3 bench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Set-up is measured SETUPS times, each in a fresh process started from
scratch: interpreter start, imports and building the library objects for
the inputs, less the time the process spent drawing the inputs and the
oracles' data, which is the benchmark's own work.  The last of those
processes then runs the workload.  All of them run on one CPU, and
times are adjusted to a nominal host speed with the probe in probe.py; the
raw wall-clock figures are printed and recorded next to them.  With ``--trace 0`` the result
carries the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a separate traced run.  Human-readable lines come first; the last line of
standard output is the JSON result.  ``--out FILE`` also appends the full
record (host, failure notes, extra figures) to FILE as one JSON line, for
bench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUPS = 5
WORKER_TIMEOUT_S = 170.0
END_TO_END = ("tasks_per_s", "task_p50_ms", "task_p90_ms", "setup_s", "ok_share", "peak_rss_mb")
UNITS = {
    "tasks_per_s": "tasks/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "setup_s": "s",
    "ok_share": "fraction",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, BENCH_DIR)
import probe  # noqa: E402
from worker import PROBES, THREAD_VARS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only: bool):
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    speed = statistics.median(probe.probe() for _ in range(PROBES))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    word, _, drawn = line.partition(" ")
    if word != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    setup -= float(drawn)
    return proc, setup, setup * probe.NOMINAL_S / speed


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return out


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The guest's CPUs change speed independently of each other; the probe
    only tracks the speed of the task it brackets when both run on the same
    CPU, including the CLI processes the cli workload starts."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def host_info() -> dict:
    info = {"nproc": os.cpu_count(), "pinned_cpu": sorted(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "?"
            )
    except OSError:
        info["cpu"] = "?"
    info["commit"] = git_commit()
    info["src_lines"] = sum(
        sum(1 for _ in open(os.path.join(d, f), encoding="utf-8"))
        for d, _, files in os.walk(os.path.join(ROOT, "src"))
        for f in files
        if f.endswith(".py")
    )
    return info


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for ln in fh:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one dualmod benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full JSON record to this file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dualmod", "__init__.py")):
        print("error: no dualmod sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    pin_to_one_cpu()
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    raw_setups, setups = [], []
    try:
        for k in range(SETUPS):
            proc, raw, adjusted = start_worker(args, setup_only=k < SETUPS - 1)
            raw_setups.append(raw)
            setups.append(adjusted)
            if k < SETUPS - 1:
                finish(proc, deadline)
        out = finish(proc, deadline)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    record = json.loads(out.strip().splitlines()[-1])
    record["host"].update(host_info())
    metrics = record["metrics"]
    if args.trace:
        result_metrics = metrics
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["raw_setup_s"] = statistics.median(raw_setups)
        result_metrics = {k: {"value": metrics[k], "unit": UNITS[k]} for k in END_TO_END}
    record["result_metrics"] = result_metrics

    print("workload %s seed %d trace %d: %d tasks attempted, %d failed (%d known defects)"
          % (args.workload, args.seed, args.trace, record["attempted"], record["failed"],
             record["known_defects"]))
    print("fail_share %.4f of %d tasks" % (record["failed"] / record["attempted"], record["attempted"]))
    for note in record["failure_notes"]:
        print("  failure: %s" % note)
    if not args.trace:
        print("task_p90_ms is the p%g over %d samples" % (metrics["_tail_percentile"], metrics["_samples"]))
        print("wall clock, not host-adjusted: " + ", ".join(
            "%s %.6g" % (k, metrics["raw_" + k]) for k in ("tasks_per_s", "task_p50_ms", "task_p90_ms", "setup_s")))
    else:
        print("tracing overhead: traced / untraced tasks_per_s = %.3f over %d tasks"
              % (record["extra"]["trace.overhead_ratio"], record["extra"]["trace.tasks"]))
    for name, m in result_metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print("host %s" % json.dumps(record["host"], sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
