"""diffcheck: build a fresh function per task and check it at a few points.

Each task builds its expressions inside the timed call, so construction
cost counts, then runs eval_func, cr_check, forward_derivative and
limit_check at three points.  Three shapes of function:

- tree: a rational expression with a fixed node budget (30 to 400 nodes)
  whose shape comes from the seed; inverses are shifted away from zero by
  more than the operand's bound, so evaluation never fails;
- chain: compose_funcs over 2 to 10 small level maps, some of which use
  their input twice, so the composed tree is deep and shares subtrees;
- control: a tree plus a multiple of re_part or ze_part of a coordinate,
  which is smooth over the reals but not dual-differentiable: cr_check
  must fail and forward_derivative must refuse it.
"""

from __future__ import annotations

import numpy as np

from workloads import Task, Verdict, dual_vector, kind_and_size, lerp_int, map_matrix, rotate, task_rng

NAME = "diffcheck"

CYCLE = ("tree", "chain", "tree", "control", "chain", "tree", "chain", "tree", "chain", "control")
TRACE_TASKS = 20 * len(CYCLE)
SHAPES = ((1, 0), (1, 1), (2, 0), (2, 1))
POINTS = 3
CR_TOL = 1e-4
DERIV_TOL = 1e-5
# The remainder quotient at radius r is about r * |f''|; |f''| of the
# functions built here stays below about 30, so at the last radius, 3e-6,
# the quotient is ten times under the tolerance.
LIMIT = {"radius": 1e-4, "samples": 4, "levels": 6, "tol": 1e-3}


def make(seed: int, index: int) -> Task:
    kind, size = kind_and_size(CYCLE, index)
    rng = task_rng(seed, index)
    n, m = rotate(SHAPES, CYCLE, index)
    task = Task(index, kind, size)
    if kind == "chain":
        levels = lerp_int(2, 10, size)
        spec = {
            "levels": [_level_spec(rng, n, m, doubles=(k % 2 == 1)) for k in range(levels)],
        }
    else:
        spec = {"tree": _tree_spec(rng, n, m, lerp_int(30, 400, size))}
        if kind == "control":
            spec["projection"] = (
                str(rng.choice(["re_part", "ze_part"])),
                int(rng.integers(0, n)),
                float(rng.uniform(0.5, 1.5)),
            )
    task.inputs = {
        "shape": (n, m),
        "spec": spec,
        "points": [rng.uniform(-1.0, 1.0, size=2 * n + m) for _ in range(POINTS)],
        "limit_seed": int(rng.integers(0, 2**31)),
    }
    task.expect = {"smooth": kind != "control"}
    return task


def construct(task: Task) -> None:
    """The check points as DualVectors; the functions are built in the timed call."""
    n, m = task.inputs["shape"]
    task.inputs["points"] = [dual_vector(x, n, m) for x in task.inputs["points"]]


# Specs are plain data drawn from the task rng; Expr objects are built from
# them inside the timed call.

def _tree_spec(rng, n, m, budget):
    """Per output component, a node-budgeted random expression spec."""
    return [_expr_spec(rng, n, m, budget // (n + m)) for _ in range(n + m)]


def _expr_spec(rng, n, m, budget):
    if budget <= 1:
        if rng.uniform() < 0.3:
            return ("const", float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        k = int(rng.integers(0, n + m))
        return ("head", k) if k < n else ("tail", k - n)
    op = str(rng.choice(["add", "sub", "mul", "neg", "sharp", "inv"], p=[0.25, 0.2, 0.25, 0.08, 0.07, 0.15]))
    if op in ("neg", "sharp"):
        return (op, _expr_spec(rng, n, m, budget - 1))
    if op == "inv":
        return (op, float(rng.choice([-1.0, 1.0])), float(rng.uniform(-1, 1)),
                _expr_spec(rng, n, m, budget - 3))
    left = int(rng.integers(1, budget - 1)) if budget > 2 else 1
    return (op, _expr_spec(rng, n, m, left), _expr_spec(rng, n, m, budget - 1 - left))


def _level_spec(rng, n, m, doubles):
    """Coefficients of a small map (n, m) -> (n, m); see _build_level."""
    return {
        "a": rng.uniform(0.3, 0.6, size=n + m) * rng.choice([-1.0, 1.0], size=n + m),
        "c": rng.uniform(-0.25, 0.25, size=(n + m, 2)),
        "doubles": doubles,
    }


def _build_expr(dm, spec):
    """(expr, bound) with |re part| of expr at most bound on the unit box."""
    op = spec[0]
    if op == "const":
        return dm.const(dm.DualNumber(spec[1], spec[2])), abs(spec[1])
    if op == "head":
        return dm.head_coord(spec[1]), 1.0
    if op == "tail":
        return dm.tail_coord(spec[1]), 0.0
    if op in ("neg", "sharp"):
        e, b = _build_expr(dm, spec[1])
        return (-e, b) if op == "neg" else (dm.sharp_expr(e), 0.0)
    if op == "inv":
        e, b = _build_expr(dm, spec[3])
        shift = spec[1] * (b + 1.5)
        return dm.inv_expr(dm.const(dm.DualNumber(shift, spec[2])) + e), 1.0 / 1.5
    a, ba = _build_expr(dm, spec[1])
    c, bc = _build_expr(dm, spec[2])
    if op == "mul":
        e, b = a * c, ba * bc
    else:
        e, b = (a + c, ba + bc) if op == "add" else (a - c, ba + bc)
    if b > 2.0:  # keep magnitudes, hence curvature, bounded
        e, b = dm.const(2.0 / b) * e, 2.0
    return e, b


def build(dm, task):
    n, m = task.inputs["shape"]
    spec = task.inputs["spec"]
    if "levels" in spec:
        func = None
        for level in spec["levels"]:
            g = _build_level(dm, n, m, level)
            func = g if func is None else dm.compose_funcs(g, func)
        return func
    comps = [_build_expr(dm, s)[0] for s in spec["tree"]]
    if "projection" in spec:
        which, slot, coef = spec["projection"]
        proj = dm.re_part if which == "re_part" else dm.ze_part
        comps[0] = comps[0] + dm.const(coef) * proj(dm.head_coord(slot))
    comps[n:] = [dm.sharp_expr(c) for c in comps[n:]]
    return dm.DualFunc((n, m), (n, m), tuple(comps))


def _build_level(dm, n, m, level):
    """Head outputs a*x + c (or a*x + c/(2 + y) on doubling levels, which
    read two inputs); tail outputs a*x + c*sharp(y).  Both keep the box
    |re| <= 1.05 inside itself, so the inverses stay away from zero."""
    a, c = level["a"], level["c"]
    comps = []
    for i in range(n + m):
        x = dm.head_coord(i) if i < n else dm.tail_coord(i - n)
        y = dm.head_coord((i + 1) % n)
        if i >= n:
            e = dm.const(a[i]) * x + dm.const(c[i, 0]) * dm.sharp_expr(y)
        elif level["doubles"]:
            shift = dm.const(dm.DualNumber(2.0, c[i, 1]))
            e = dm.const(a[i]) * x + dm.const(c[i, 0]) * dm.inv_expr(shift + y)
        else:
            e = dm.const(a[i]) * x + dm.const(dm.DualNumber(c[i, 0], c[i, 1]))
        comps.append(e)
    return dm.DualFunc((n, m), (n, m), tuple(comps))


def run(task: Task):
    import dualmod as dm

    func = build(dm, task)
    results = []
    for x in task.inputs["points"]:
        value = dm.eval_func(func, x)
        report = dm.cr_check(func, x, tol=CR_TOL)
        try:
            deriv = dm.forward_derivative(func, x)
        except dm.NonSmoothExpression as exc:
            results.append((value, report, exc, None))
            continue
        limit = dm.limit_check(func, x, deriv, seed=task.inputs["limit_seed"], **LIMIT)
        results.append((value, report, deriv, limit))
    return results


def check(task: Task, outcome, error) -> Verdict:
    import dualmod as dm

    if error is not None:
        return Verdict(False, note="raised %s: %s" % (type(error).__name__, error))
    smooth = task.expect["smooth"]
    for value, report, deriv, limit in outcome:
        if not smooth:
            if report.passed:
                return Verdict(False, note="cr_check passed a re_part/ze_part control")
            if not isinstance(deriv, dm.NonSmoothExpression):
                return Verdict(False, note="forward_derivative accepted a projection")
            continue
        if not report.passed:
            return Verdict(False, note="cr_check failed a smooth function: %r" % report.residuals)
        fd = _matrix(report.derivative)
        exact = _matrix(deriv)
        gap = np.abs(fd - exact).max()
        if gap > DERIV_TOL * (1.0 + np.abs(exact).max()):
            return Verdict(False, note="forward and cr_check derivatives differ by %g" % gap)
        if not limit:
            return Verdict(False, note="limit_check rejected the exact derivative")
    return Verdict(True)


def _matrix(lam):
    return map_matrix(lam.c_re, lam.c_ze, lam.p, lam.d, lam.q)
