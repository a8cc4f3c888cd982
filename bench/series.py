#!/usr/bin/env python3
"""Run the benchmark over several seeds, optionally alternating checkouts.

    python3 bench/series.py --seeds 1-10 --workloads atlas,cli --out-dir OUT
    python3 bench/series.py --seeds 1-10 --checkout base=../parent \\
        --checkout change=. --out-dir OUT

Each checkout's records go to OUT/<name>.jsonl (``this`` when no checkout
is given).  With several checkouts every seed runs each of them once, the
order alternating from one seed to the next, as the pairs compare.py
counts.  Every run measures BENCHMARK.json's run_seconds.  Then feed the
files to compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description="Run benchmark series.")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checkout", action="append", default=[], metavar="NAME=DIR")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    checkouts = [c.split("=", 1) for c in args.checkout] or [["this", ROOT]]
    os.makedirs(args.out_dir, exist_ok=True)
    failures = 0
    for k, seed in enumerate(seed_list(args.seeds)):
        order = checkouts if k % 2 == 0 else checkouts[::-1]
        for workload in args.workloads.split(","):
            for name, root in order:
                out = os.path.abspath(os.path.join(args.out_dir, name + ".jsonl"))
                cmd = [
                    sys.executable, os.path.join(os.path.abspath(root), "bench", "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace), "--out", out,
                ]
                proc = subprocess.run(cmd, cwd=os.path.abspath(root), capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print("%s seed %d %s: exit %d %s" % (name, seed, workload, proc.returncode, last[0][:160]),
                      flush=True)
                failures += proc.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
