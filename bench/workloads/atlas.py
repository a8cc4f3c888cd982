"""atlas: verify_atlas on standard projective charts and on expression atlases.

Each task is one verify_atlas call with a sample count spread over
60..140 (mean 100).  Projective inputs are chart subsets of P(n, m), the
same for every seed (the seed changes the sample points): the
standard charts satisfy every axiom, so every entry must pass and the
report must hold one ii and one iii entry per chart and one iv entry per
ordered chart pair.  Expression atlases are built from public
constructors with a verdict known by construction:

- affine: charts x -> A x with the exact inverse; everything passes;
- bad_inverse: one chart's inverse is off by a factor 1.25, so exactly
  that chart's openness (ii) entry fails;
- nonsmooth: an identity chart plus x -> x + c re(x) with its exact
  inverse; both charts pass ii and iii and the self transitions pass, but
  the two mixed transitions (iv) fail the derivative block test.

``make`` draws chart choices and chart matrices in numpy; ``construct``
builds the ProjectiveAtlas or ExprAtlas from them, which is the part
set-up times.
"""

from __future__ import annotations

import numpy as np

from workloads import Task, Verdict, conditioned, kind_and_size, lerp_int, occurrence, rotate, task_rng

NAME = "atlas"

# kind -> projective (n, m, chart count) or an expression atlas flavour
PROJECTIVE = {
    "p11_all": (1, 1, 4),
    "p11_2": (1, 1, 2),
    "p12_1": (1, 2, 1),
    "p12_2": (1, 2, 2),
    "p21_2": (2, 1, 2),
    "p22_1": (2, 2, 1),
    "p22_2": (2, 2, 2),
    "p33_1": (3, 3, 1),
    "p33_2": (3, 3, 2),
}
CYCLE = (
    "p22_2", "affine", "p12_1", "p11_all", "p33_1", "nonsmooth", "p21_2",
    "p11_2", "p22_1", "bad_inverse", "p12_2", "p33_2",
)
TRACE_TASKS = 2 * len(CYCLE)
EXPR_SHAPES = ((1, 0), (1, 1), (2, 0), (2, 1))


def make(seed: int, index: int) -> Task:
    kind, size = kind_and_size(CYCLE, index)
    rng = task_rng(seed, index)
    task = Task(index, kind, size)
    samples = lerp_int(60, 140, size)
    task.inputs = {"samples": samples, "seed": int(rng.integers(0, 2**31))}
    if kind in PROJECTIVE:
        n, m, count = PROJECTIVE[kind]
        every = [(i, j) for i in range(n + 1) for j in range(m + 1)]
        # Which charts sets the cost of a task, so the subsets belong to the
        # mix: drawn from a stream keyed by the kind's occurrence, not the seed.
        fixed = np.random.default_rng([n, m, count, occurrence(CYCLE, index)])
        pick = sorted(fixed.choice(len(every), size=count, replace=False))
        task.inputs["charts"] = ("projective", n, m, tuple(every[k] for k in pick))
        task.expect = {"failing": set(), "charts": count}
        return task
    n, m = rotate(EXPR_SHAPES, CYCLE, index)
    if kind == "affine":
        charts = [_affine_matrices(rng, n, m) for _ in range(2)]
        failing = set()
    elif kind == "bad_inverse":
        charts = [_affine_matrices(rng, n, m), _affine_matrices(rng, n, m, inverse_scale=1.25)]
        failing = {("ii", (1,))}
    else:
        charts = [_affine_matrices(rng, n, m, identity=True), ("nonsmooth", float(rng.uniform(0.5, 1.5)))]
        failing = {("iv", (0, 1)), ("iv", (1, 0))}
    task.inputs["charts"] = ("expr", n, m, charts)
    task.expect = {"failing": failing, "charts": len(charts)}
    return task


def construct(task: Task) -> None:
    """Build the atlas the task verifies from its drawn charts."""
    import dualmod as dm

    flavour, n, m, charts = task.inputs.pop("charts")
    if flavour == "projective":
        task.inputs["atlas"] = dm.ProjectiveAtlas(n, m, charts)
        return
    task.inputs["atlas"] = dm.ExprAtlas(tuple(
        _nonsmooth_chart(dm, n, m, chart[1]) if chart[0] == "nonsmooth"
        else _affine_chart(dm, n, m, *chart[1:])
        for chart in charts
    ))


def _blocks(mat, n, m):
    return (mat[:n, :n], mat[n : 2 * n, :n], mat[n : 2 * n, 2 * n :], mat[2 * n :, :n], mat[2 * n :, 2 * n :])


def _affine_matrices(rng, n, m, inverse_scale=1.0, identity=False):
    """A chart's realified matrix and its (possibly scaled) inverse."""
    from workloads import map_matrix

    if identity:
        mat = np.eye(2 * n + m)
    else:
        mat = map_matrix(
            conditioned(rng, n),
            rng.uniform(-0.5, 0.5, size=(n, n)),
            rng.uniform(-0.5, 0.5, size=(n, m)),
            rng.uniform(-0.5, 0.5, size=(m, n)),
            conditioned(rng, m),
        )
    return "affine", mat, inverse_scale * np.linalg.inv(mat)


def _affine_chart(dm, n, m, mat, inv):
    forward = dm.func_from_module_map(dm.ModuleMap(n, m, n, m, *_blocks(mat, n, m)))
    inverse = dm.func_from_module_map(dm.ModuleMap(n, m, n, m, *_blocks(inv, n, m)))
    return dm.ExprChart(forward, inverse, dm.const(1.0))


def _nonsmooth_chart(dm, n, m, c):
    """x -> x + c re(x_0) in head slot 0, inverted exactly by
    x -> x - c / (1 + c) re(x_0)."""

    def func(coef):
        comps = [dm.head_coord(i) for i in range(n)] + [dm.tail_coord(j) for j in range(m)]
        comps[0] = comps[0] + dm.const(coef) * dm.re_part(dm.head_coord(0))
        return dm.DualFunc((n, m), (n, m), tuple(comps))

    return dm.ExprChart(func(c), func(-c / (1.0 + c)), dm.const(1.0))


def run(task: Task):
    import dualmod as dm

    return dm.verify_atlas(task.inputs["atlas"], samples=task.inputs["samples"], seed=task.inputs["seed"])


def check(task: Task, report, error) -> Verdict:
    if error is not None:
        return Verdict(False, note="raised %s: %s" % (type(error).__name__, error))
    count = task.expect["charts"]
    axioms = [e.axiom for e in report.entries]
    if sorted(axioms) != sorted(["ii"] * count + ["iii"] * count + ["iv"] * count * count):
        return Verdict(False, note="report entries %r do not cover %d charts" % (axioms, count))
    failed = {(e.axiom, _pair_key(e.chart_pair)) for e in report.entries if not e.passed}
    if task.kind in PROJECTIVE:
        failed = {axiom for axiom, _ in failed}
        return Verdict(not failed, note="" if not failed else "standard charts failed %r" % sorted(failed))
    want = task.expect["failing"]
    return Verdict(failed == want, note="" if failed == want else "failing %r, expected %r" % (sorted(failed), sorted(want)))


def _pair_key(pair):
    return tuple(tuple(p) if isinstance(p, list) else p for p in pair)
