"""Workload registry and the helpers the workloads share.

A workload module defines NAME, CYCLE (the fixed sequence of task kinds),
``make(seed, index)`` returning a Task with its inputs drawn (numbers and
the oracle's data, in numpy), optionally ``construct(task)`` turning those
inputs into the library objects the calls take (the part of set-up that is
timed), ``run(task)`` doing the timed public-API calls, and
``check(task, outcome, error)`` returning a Verdict from an oracle built
from the task's construction.

The task mix never depends on the seed: task ``index`` always has kind
``CYCLE[index % len(CYCLE)]`` and a size drawn from a fixed low-discrepancy
sequence over that kind's occurrences.  The seed changes only the numbers
inside the inputs.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field

import numpy as np

NAMES = ("atlas", "diffcheck", "algebra", "cli")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def load(name: str):
    if name not in NAMES:
        raise ValueError("unknown workload %r (choose from %s)" % (name, ", ".join(NAMES)))
    return importlib.import_module("workloads." + name)


@dataclass
class Task:
    index: int
    kind: str
    size: float
    inputs: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    known_defect: bool = False
    note: str = ""


def occurrence(cycle, index: int) -> int:
    """How many earlier tasks share task ``index``'s kind."""
    kind = cycle[index % len(cycle)]
    earlier = cycle[: index % len(cycle)].count(kind)
    return (index // len(cycle)) * cycle.count(kind) + earlier


def kind_and_size(cycle, index: int) -> tuple[str, float]:
    """Kind of task ``index`` and its size in [0, 1).

    The size of a kind's k-th occurrence is frac((k + 0.5) * golden ratio),
    so any run prefix covers each kind's size range evenly.
    """
    k = occurrence(cycle, index)
    return cycle[index % len(cycle)], math.fmod((k + 0.5) * _GOLDEN, 1.0)


def rotate(options, cycle, index: int):
    """Pick from ``options`` by occurrence, independently of the seed."""
    return options[occurrence(cycle, index) % len(options)]


def task_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def lerp_int(lo: int, hi: int, u: float) -> int:
    """An integer in [lo, hi] spread evenly over u in [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


# Realified coordinates computed here, independently of dualmod.linalg, so
# oracles do not trust the code they check.

def realify_np(v) -> np.ndarray:
    return np.array(
        [h.re for h in v.head] + [h.ze for h in v.head] + list(v.tail), dtype=float
    )


def map_matrix(c_re, c_ze, p, d, q) -> np.ndarray:
    """The realified block matrix of a module map from its five blocks."""
    s, n = c_re.shape
    t, m = q.shape
    out = np.zeros((2 * s + t, 2 * n + m))
    out[:s, :n] = c_re
    out[s : 2 * s, :n] = c_ze
    out[s : 2 * s, n : 2 * n] = c_re
    out[s : 2 * s, 2 * n :] = p
    out[2 * s :, :n] = d
    out[2 * s :, 2 * n :] = q
    return out


def dual_vector(arr, n: int, m: int):
    """A DualVector from realified coordinates (head re, head ze, tail)."""
    from dualmod import DualNumber, DualVector

    arr = [float(x) for x in arr]
    return DualVector(
        tuple(DualNumber(arr[i], arr[n + i]) for i in range(n)),
        tuple(arr[2 * n :]),
    )


def conditioned(rng, size: int) -> np.ndarray:
    """An orthogonal matrix with per-axis scaling in [0.6, 1.6]."""
    if size == 0:
        return np.zeros((0, 0))
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    return q @ np.diag(rng.uniform(0.6, 1.6, size=size))
