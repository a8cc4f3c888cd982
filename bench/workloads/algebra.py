"""algebra: split linear algebra and pair extraction, no expression evaluation.

Module maps at total shapes n + m from 8 to 48; forms on shapes (2a, 2b)
with a + b from 1 to 6.  Every input is planted in numpy, so each oracle
knows the answer from the construction: the split dimensions of a spanned
basis, whether a right-hand side lies in the image, whether a map is
invertible, and the reference pairing pattern of a pair basis.

``make`` draws the numbers and the oracle's data in numpy; ``construct``
turns them into the library objects (DualVector generators and
right-hand sides, ModuleMap), which is the part set-up times.
"""

from __future__ import annotations

import numpy as np

from workloads import (
    Task,
    Verdict,
    conditioned,
    dual_vector,
    kind_and_size,
    lerp_int,
    map_matrix,
    realify_np,
    rotate,
    task_rng,
)

NAME = "algebra"

# basis_heads: phase 1 (invertible heads) dominates extract_basis;
# basis_kernel: phase 2 (_real_rref over zero divisors) dominates.
CYCLE = (
    "basis_heads", "solve_ok", "form", "basis_kernel", "iso", "solve_none",
    "form", "basis_heads", "noniso", "solve_ok", "form", "basis_kernel",
)
TRACE_TASKS = 70 * len(CYCLE)

RESIDUAL_TOL = 1e-7
PAIRING_TOL = 1e-7
# The one extract_basis defect recorded so far (see _check_basis) shows
# only above this total shape n + m and on well-conditioned planted spans.
DEFECT_MIN_SHAPE = 25
WELL_CONDITIONED = 1e3


def _split_shape(total: int) -> tuple[int, int]:
    n = (total + 1) // 2
    return n, total - n


def _random_blocks(rng, n, m, s, t):
    u = lambda *shape: rng.uniform(-1.0, 1.0, size=shape)
    return u(s, n), u(s, n), u(s, m), u(t, n), u(t, m)




def make(seed: int, index: int) -> Task:
    kind, size = kind_and_size(CYCLE, index)
    rng = task_rng(seed, index)
    task = Task(index, kind, size)
    if kind.startswith("basis"):
        _make_basis(task, rng)
    elif kind.startswith("solve"):
        _make_solve(task, rng)
    elif kind in ("iso", "noniso"):
        _make_iso(task, rng)
    else:
        total = lerp_int(1, 6, size)
        a = rotate(range(total + 1), CYCLE, index)
        task.inputs = {"n": a, "m": total - a, "seed": int(rng.integers(0, 2**31))}
    return task


def construct(task: Task) -> None:
    """Replace the drawn arrays with the library objects the calls take."""
    from dualmod import ModuleMap

    inp = task.inputs
    if "generators" in inp:
        n, m = inp["shape"]
        inp["generators"] = [dual_vector(col, n, m) for col in inp["generators"].T]
    if "blocks" in inp:
        c_re, c_ze, p, d, q = inp.pop("blocks")
        (s, n), (t, m) = c_re.shape, q.shape
        inp["map"] = ModuleMap(n, m, s, t, c_re, c_ze, p, d, q)
    if "rhs" in inp:
        inp["rhs"] = dual_vector(inp["rhs"], *inp.pop("rhs_shape"))


def _make_basis(task, rng):
    n, m = _split_shape(lerp_int(8, 48, task.size))
    if task.kind == "basis_heads":
        r1, k, r2 = max(1, round(0.75 * n)), round(0.1 * n), round(0.25 * m)
    else:
        r1, k, r2 = round(0.2 * n), round(0.5 * n), max(1, round(0.6 * m))
    auto = map_matrix(
        conditioned(rng, n),
        rng.uniform(-0.5, 0.5, size=(n, n)),
        rng.uniform(-0.5, 0.5, size=(n, m)),
        rng.uniform(-0.5, 0.5, size=(m, n)),
        conditioned(rng, m),
    )
    # Planted split basis: images of head slots 0..r1-1 (dual span), of
    # eps * head slots r1..r1+k-1 and of tail slots 0..r2-1 (real span).
    s1 = auto[:, :r1]
    s2 = np.hstack([auto[:, n + r1 : n + r1 + k], auto[:, 2 * n : 2 * n + r2]])
    eps_s1 = auto[:, n : n + r1]
    count = r1 + k + r2 + int(rng.integers(2, 5))
    coeff_re = rng.uniform(-1.0, 1.0, size=(r1, count))
    coeff_ze = rng.uniform(-1.0, 1.0, size=(r1, count))
    coeff_s2 = rng.uniform(-1.0, 1.0, size=(k + r2, count))
    gens = s1 @ coeff_re + eps_s1 @ coeff_ze + s2 @ coeff_s2
    span = np.hstack([s1, eps_s1, s2])
    task.inputs = {"generators": gens, "shape": (n, m)}
    task.expect = {"dims": (r1, k + r2), "span": span, "shape": n + m, "cond": np.linalg.cond(span)}


def _make_solve(task, rng):
    n, m = _split_shape(lerp_int(8, 48, task.size))
    s, t = n + 1, m + 1
    blocks = _random_blocks(rng, n, m, s, t)
    mat = map_matrix(*blocks)
    x0 = rng.uniform(-1.0, 1.0, size=2 * n + m)
    b = mat @ x0
    if task.kind == "solve_none":
        # add a unit component orthogonal to the image
        u, sv, _ = np.linalg.svd(mat)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        b = b + u[:, rank]
    task.inputs = {"blocks": blocks, "rhs": b, "rhs_shape": (s, t)}
    task.expect = {"matrix": mat, "b": b, "solvable": task.kind == "solve_ok"}


def _make_iso(task, rng):
    n, m = _split_shape(lerp_int(8, 48, task.size))
    c_re = conditioned(rng, n)
    if task.kind == "noniso":
        u, sv, vt = np.linalg.svd(c_re)
        sv[int(rng.integers(0, n))] = 0.0
        c_re = u @ np.diag(sv) @ vt
    blocks = (
        c_re,
        rng.uniform(-0.5, 0.5, size=(n, n)),
        rng.uniform(-0.5, 0.5, size=(n, m)),
        rng.uniform(-0.5, 0.5, size=(m, n)),
        conditioned(rng, m),
    )
    task.inputs = {"blocks": blocks}
    task.expect = {"matrix": map_matrix(*blocks), "iso": task.kind == "iso"}


def run(task: Task):
    import dualmod as dm

    kind, inp = task.kind, task.inputs
    if kind.startswith("basis"):
        return dm.extract_basis(inp["generators"])
    if kind.startswith("solve"):
        return dm.solve(inp["map"], inp["rhs"])
    if kind in ("iso", "noniso"):
        iso = dm.is_isomorphism(inp["map"])
        inverse = None
        try:
            inverse = dm.inverse_map(inp["map"])
        except dm.NoSolution:
            pass
        return iso, inverse
    form = dm.random_form(inp["n"], inp["m"], seed=inp["seed"])
    report = dm.check_form(form)
    basis = dm.darboux_basis(form)
    return form, report, basis, dm.verify_darboux(basis, form)


def check(task: Task, outcome, error) -> Verdict:
    kind, exp = task.kind, task.expect
    if kind == "solve_none":
        import dualmod as dm

        if isinstance(error, dm.NoSolution):
            return Verdict(True)
        return Verdict(False, note="expected NoSolution, got %r" % (error or outcome,))
    if error is not None:
        return Verdict(False, note="raised %s: %s" % (type(error).__name__, error))
    if kind.startswith("basis"):
        return _check_basis(outcome, exp)
    if kind == "solve_ok":
        x = realify_np(outcome)
        resid = np.linalg.norm(exp["matrix"] @ x - exp["b"])
        ok = resid <= RESIDUAL_TOL * (1.0 + np.linalg.norm(exp["b"]))
        return Verdict(bool(ok), note="" if ok else "residual %g" % resid)
    if kind in ("iso", "noniso"):
        return _check_iso(outcome, exp)
    return _check_form(outcome)


def _basis_columns(basis, rows_each: int) -> np.ndarray:
    """Realified spanning vectors of a split basis: each s1 vector, eps
    times it, and each s2 vector, one per column."""
    rows = [realify_np(v) for v in basis.s1]
    rows += [np.concatenate([np.zeros(v.n), [h.re for h in v.head], np.zeros(v.m)]) for v in basis.s1]
    rows += [realify_np(w) for w in basis.s2]
    return np.array(rows).T if rows else np.zeros((rows_each, 0))


def _check_basis(basis, exp) -> Verdict:
    span = exp["span"]
    got = _basis_columns(basis, span.shape[0])
    if basis.dim == exp["dims"]:
        rank = np.linalg.matrix_rank
        if rank(got, tol=1e-8) == got.shape[1] and rank(np.hstack([span, got]), tol=1e-8) == span.shape[1]:
            return Verdict(True)
        note = "basis does not span the planted module"
    else:
        note = "dims %r != planted %r" % (basis.dim, exp["dims"])
    return Verdict(False, _known_basis_defect(basis, got, exp), note)


def _known_basis_defect(basis, got, exp) -> bool:
    """Does a wrong basis match the recorded extract_basis defect?

    On about one in 2000 basis tasks of total shape 25 to 48, growth in
    phase 1's elimination either leaves roundoff above phase 2's threshold,
    so the basis gains exactly one spurious kernel direction while still
    covering the planted module, or returns the planted dims with columns
    inside the planted span that are numerically dependent.  Both happen
    on well-conditioned planted spans.  Any other wrong basis, and any
    wrong basis at a smaller shape, is a new failure.
    """
    if exp["shape"] < DEFECT_MIN_SHAPE or exp["cond"] > WELL_CONDITIONED or not got.shape[1]:
        return False
    unit = got / np.linalg.norm(got, axis=0)
    planted, _ = np.linalg.qr(exp["span"])
    (want1, want2), (got1, got2) = exp["dims"], basis.dim
    if (got1, got2) == (want1, want2 + 1):
        u, sv, _ = np.linalg.svd(unit, full_matrices=False)
        u = u[:, sv > 1e-12 * sv[0]]
        return bool(np.abs(planted - u @ (u.T @ planted)).max() < 1e-6)
    if (got1, got2) == (want1, want2):
        outside = np.abs(unit - planted @ (planted.T @ unit)).max()
        sv = np.linalg.svd(unit, compute_uv=False)
        return bool(outside < 1e-6 and sv[-1] < 1e-6 * sv[0])
    return False


def _check_iso(outcome, exp) -> Verdict:
    iso, inverse = outcome
    if iso != exp["iso"]:
        return Verdict(False, note="is_isomorphism %r, planted %r" % (iso, exp["iso"]))
    if not exp["iso"]:
        return Verdict(inverse is None, note="" if inverse is None else "inverse of a singular map")
    if inverse is None:
        return Verdict(False, note="no inverse for an isomorphism")
    inv_mat = map_matrix(inverse.c_re, inverse.c_ze, inverse.p, inverse.d, inverse.q)
    gap = np.abs(inv_mat @ exp["matrix"] - np.eye(inv_mat.shape[0])).max()
    return Verdict(bool(gap <= 1e-8), note="" if gap <= 1e-8 else "inverse gap %g" % gap)


def _check_form(outcome) -> Verdict:
    form, report, basis, verification = outcome
    if not report.passed:
        return Verdict(False, note="check_form rejected a planted structure")
    if not verification.passed:
        return Verdict(False, note="verify_darboux failed")
    vecs = basis.vectors()
    nh = 2 * len(basis.pairs_head)
    n, m = form.n, form.m
    if nh != n or len(vecs) != n + m:
        return Verdict(False, note="pair counts do not cover shape (%d, %d)" % (n, m))
    re = np.array([[h.re for h in v.head] + list(v.tail) for v in vecs])
    ze = np.array([[h.ze for h in v.head] + [0.0] * m for v in vecs])
    g_re, g_ze = form.g_re, form.g_ze
    got_re = re @ g_re @ re.T
    got_ze = ze @ g_re @ re.T + re @ g_ze @ re.T + re @ g_re @ ze.T
    want_re = np.zeros_like(got_re)
    want_ze = np.zeros_like(got_ze)
    for a in range(0, len(vecs), 2):
        target = want_re if a < nh else want_ze
        target[a, a + 1], target[a + 1, a] = 1.0, -1.0
    scale = 1.0 + max(np.abs(g_re).max(), np.abs(g_ze).max())
    worst = max(np.abs(got_re - want_re).max(), np.abs(got_ze - want_ze).max())
    if worst > PAIRING_TOL * scale:
        return Verdict(False, note="pairing deviates from the reference by %g" % worst)
    rows = [realify_np(v) for v in vecs[:nh]]
    rows += [np.concatenate([np.zeros(n), [h.re for h in v.head], np.zeros(m)]) for v in vecs[:nh]]
    rows += [realify_np(v) for v in vecs[nh:]]
    full = np.linalg.matrix_rank(np.array(rows), tol=1e-8) == 2 * n + m
    return Verdict(bool(full), note="" if full else "pair basis is not independent")
