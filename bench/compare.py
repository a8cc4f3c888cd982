#!/usr/bin/env python3
"""Compare benchmark result files written by ``run.py --out`` or series.py.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl
    python3 bench/compare.py RESULTS.jsonl

With two files, prints per workload and metric each side's median and
quartiles, how many of the paired runs the change won (the i-th run of a
workload in one file pairs with the i-th in the other; ties count for
neither side) and a verdict:

- unresolved: a side's run-to-run spread (interquartile distance over the
  median) exceeds the metric's bound, and not every change run beats
  every base run;
- regressed: the change's median is worse than the base's by more than
  the bound;
- improved: the change won at least 9 in 10 pairs and the medians differ
  by more than the base's interquartile distance;
- same: otherwise.

Per-layer metrics (traced runs) have no bound; they are listed with the
relative change of their medians.  With one file, prints each metric's
quartiles and spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import numpy as np  # noqa: E402

import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_definitions() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    defs = {m["name"]: m for m in bench["end_to_end"]}
    defs.update({m["name"]: m for m in bench["per_layer"]})
    return defs


def load_runs(path) -> dict:
    """{(workload, trace): {metric: [values in file order]}}"""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result_metrics"].items():
                runs[(rec["workload"], rec["trace"])][name].append(m["value"])
    return runs


def better(defn, a, b) -> bool:
    """Is b better than a?"""
    return b > a if defn["better"] == "higher" else b < a


def verdict(defn, base, change) -> tuple[str, int, int]:
    pairs = list(zip(base, change))
    wins = sum(better(defn, a, b) for a, b in pairs)
    q1a, meda, q3a = quartiles(base)
    _, medb, _ = quartiles(change)
    bound = defn.get("bound")
    if bound is None:
        return "", wins, len(pairs)
    if max(stats.spread(base), stats.spread(change)) > bound:
        if all(better(defn, a, b) for a in base for b in change):
            return "improved (every run)", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if better(defn, medb, meda) and abs(medb - meda) > bound * abs(meda):
        return "regressed", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(medb - meda) > q3a - q1a and better(defn, meda, medb):
        return "improved", wins, len(pairs)
    return "same", wins, len(pairs)


def quartiles(values) -> list[float]:
    return [float(q) for q in np.percentile(values, [25.0, 50.0, 75.0])]


def fmt(x) -> str:
    return "%.6g" % x


def compare(base_path, change_path, defs) -> int:
    base, change = load_runs(base_path), load_runs(change_path)
    regressions = 0
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        print("\n== %s (%s)" % (workload, "per-layer, traced" if trace else "end-to-end"))
        print("%-36s %28s %28s %9s  %s" % ("metric", "base q1 / median / q3", "change q1 / median / q3", "wins", "verdict"))
        for name in sorted(set(base[key]) | set(change[key])):
            a, b = base[key].get(name, []), change[key].get(name, [])
            if not a or not b:
                print("%-36s only in %s" % (name, "base" if a else "change"))
                continue
            defn = defs.get(name, {"better": "lower"})
            qa, qb = quartiles(a), quartiles(b)
            text, wins, pairs = verdict(defn, a, b)
            if not text:
                rel = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
                text = "%+.1f%%" % (100.0 * rel)
            regressions += text == "regressed"
            print("%-36s %28s %28s %4d/%-4d  %s" % (
                name, " / ".join(map(fmt, qa)), " / ".join(map(fmt, qb)), wins, pairs, text))
    return 1 if regressions else 0


def spreads(path, defs) -> int:
    runs = load_runs(path)
    over = 0
    for (workload, trace), metrics in sorted(runs.items()):
        print("\n== %s (%s)" % (workload, "per-layer, traced" if trace else "end-to-end"))
        for name, values in sorted(metrics.items()):
            q1, med, q3 = quartiles(values)
            bound = defs.get(name, {}).get("bound")
            s = stats.spread(values)
            flag = ""
            if bound is not None:
                flag = "bound %g%s" % (bound, "  OVER bound/3" if s > bound / 3 else "")
                over += s > bound / 3 and name != "setup_s"
            print("%-36s n=%-3d %12s %12s %12s  spread %.4f  %s" % (
                name, len(values), fmt(q1), fmt(med), fmt(q3), s, flag))
    return 0 if not over else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare dualmod benchmark result files.")
    ap.add_argument("files", nargs="+", help="one file for spreads, two to compare")
    args = ap.parse_args(argv)
    defs = load_definitions()
    if len(args.files) == 1:
        return spreads(args.files[0], defs)
    if len(args.files) == 2:
        return compare(args.files[0], args.files[1], defs)
    ap.error("give one or two result files")
    return 2


if __name__ == "__main__":
    sys.exit(main())
