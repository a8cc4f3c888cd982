"""Expression trees over the dual algebra and derivative checking.

A function (n, m) -> (s, t) is s + t scalar expressions in the input slots:
the first s give the head values, the rest give the tail entries and must
evaluate to zero divisors (their ze part is the stored tail coefficient).

Smooth functions of dual arguments have realified Jacobians with the forced
block pattern of a module map; cr_check measures the four forced identities
on the exact Jacobian from realified_jacobian and assembles the derivative
when they hold.  realified_jacobian is one vector forward pass over the
function's node list, which every DualFunc lowers once when it is built.
forward_derivative computes the same map independently by seeding
ring-valued tangents, one pass per input slot, and numeric_jacobian is the
central-difference oracle for both.  re_part/ze_part exist to express maps
that are perfectly smooth over the reals yet fail the block pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dualmod.core import (
    EPS,
    ONE,
    ZERO,
    DualNumber,
    DualVector,
    NotInvertible,
    ShapeMismatch,
    as_index,
    inv,
    mul,
    resolve_tol,
    vector_norm,
)
from dualmod.linalg import ModuleMap, apply, realify, unrealify

CR_DEFAULT_TOL = 1e-4
FD_DEFAULT_STEP = 1e-5

_OPS = {
    "const": 0,
    "coord": 0,
    "add": 2,
    "sub": 2,
    "mul": 2,
    "neg": 1,
    "inv": 1,
    "sharp": 1,
    "re_part": 1,
    "ze_part": 1,
}


class EvaluationFailed(Exception):
    """A probe evaluation hit a non-invertible inverse or a bad tail value."""


class NonSmoothExpression(ValueError):
    """Forward differentiation refuses real-part projections."""


@dataclass(frozen=True)
class Expr:
    op: str
    args: tuple["Expr", ...] = ()
    value: DualNumber | None = None
    part: str | None = None
    slot: int | None = None
    component: str = "full"

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError("unknown expression op %r" % self.op)
        if len(self.args) != _OPS[self.op]:
            raise ValueError(
                "op %r takes %d arguments, got %d"
                % (self.op, _OPS[self.op], len(self.args))
            )
        object.__setattr__(self, "args", tuple(self.args))

    def __add__(self, other):
        return Expr("add", (self, _as_expr(other)))

    def __radd__(self, other):
        return Expr("add", (_as_expr(other), self))

    def __sub__(self, other):
        return Expr("sub", (self, _as_expr(other)))

    def __rsub__(self, other):
        return Expr("sub", (_as_expr(other), self))

    def __mul__(self, other):
        return Expr("mul", (self, _as_expr(other)))

    def __rmul__(self, other):
        return Expr("mul", (_as_expr(other), self))

    def __neg__(self):
        return Expr("neg", (self,))

    def to_json(self) -> dict:
        if self.op == "const":
            return {"op": "const", "value": self.value.to_json()}
        if self.op == "coord":
            return {
                "op": "coord",
                "part": self.part,
                "slot": self.slot,
                "component": self.component,
            }
        return {"op": self.op, "args": [a.to_json() for a in self.args]}

    @classmethod
    def from_json(cls, data) -> "Expr":
        if not isinstance(data, dict) or "op" not in data:
            raise ValueError("expression must be an object with an 'op' field")
        op = data["op"]
        if op == "const":
            return const(DualNumber.from_json(data.get("value")))
        if op == "coord":
            return coord(
                data.get("part"), data.get("slot"), data.get("component", "full")
            )
        if op not in _OPS:
            raise ValueError("unknown expression op %r" % op)
        args = data.get("args", [])
        return cls(op, tuple(cls.from_json(a) for a in args))


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, DualNumber):
        return const(x)
    if isinstance(x, (int, float)):
        return const(DualNumber(float(x), 0.0))
    raise TypeError("cannot treat %r as an expression" % (x,))


def const(x) -> Expr:
    if isinstance(x, (int, float)):
        x = DualNumber(float(x), 0.0)
    return Expr("const", value=x)


def coord(part: str, slot: int, component: str = "full") -> Expr:
    if part not in ("head", "tail"):
        raise ValueError("coord part must be 'head' or 'tail', got %r" % (part,))
    if part == "head" and component not in ("full", "re", "ze"):
        raise ValueError("head coord component must be full/re/ze")
    if part == "tail" and component not in ("full", "ze"):
        raise ValueError("tail coord component must be full or ze")
    if not isinstance(slot, int) or slot < 0:
        raise ValueError("coord slot must be a nonnegative integer")
    return Expr("coord", part=part, slot=slot, component=component)


def head_coord(i: int) -> Expr:
    return coord("head", i)


def tail_coord(j: int) -> Expr:
    return coord("tail", j)


def inv_expr(a) -> Expr:
    return Expr("inv", (_as_expr(a),))


def sharp_expr(a) -> Expr:
    return Expr("sharp", (_as_expr(a),))


def re_part(a) -> Expr:
    return Expr("re_part", (_as_expr(a),))


def ze_part(a) -> Expr:
    return Expr("ze_part", (_as_expr(a),))


@dataclass(frozen=True)
class DualFunc:
    """s + t component expressions between split shapes."""

    domain: tuple[int, int]
    codomain: tuple[int, int]
    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", _shape(self.domain, "domain"))
        object.__setattr__(self, "codomain", _shape(self.codomain, "codomain"))
        object.__setattr__(self, "components", tuple(self.components))
        s, t = self.codomain
        if len(self.components) != s + t:
            raise ShapeMismatch(
                "codomain %r needs %d components, got %d"
                % (self.codomain, s + t, len(self.components))
            )
        # not dataclass fields, so eq, hash, repr and JSON ignore them
        nodes, outputs = lower(self.components, self.domain)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_outputs", outputs)

    def to_json(self) -> dict:
        return {
            "domain": list(self.domain),
            "codomain": list(self.codomain),
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, data) -> "DualFunc":
        if not isinstance(data, dict):
            raise ValueError("function must be an object, got %r" % (data,))
        for key in ("domain", "codomain", "components"):
            if key not in data:
                raise ValueError("function is missing field %r" % key)
        return cls(
            tuple(data["domain"]),
            tuple(data["codomain"]),
            tuple(Expr.from_json(c) for c in data["components"]),
        )


def _shape(value, what: str) -> tuple[int, int]:
    shape = tuple(as_index(x, what) for x in value)
    if len(shape) != 2 or min(shape) < 0:
        raise ValueError("%s must be two nonnegative integers, got %r" % (what, value))
    return shape


def lower(exprs, domain: tuple[int, int]) -> tuple[tuple, tuple[int, ...]]:
    """The unique nodes under exprs in topological order, and the roots'
    positions among them.

    Nodes are told apart by identity, so a subtree that compose_funcs or
    transition reuses is lowered once, and the walk keeps its own stack, so
    depth is not bounded by the recursion limit.  Each node is (op, argument
    positions, payload): a const carries (re, ze), a coord the realified
    input columns feeding its re and ze parts (None where a part is zero).
    Raises ShapeMismatch for a coord slot outside domain.
    """
    n, m = domain
    pos: dict[int, int] = {}
    nodes = []
    stack = [(e, False) for e in reversed(exprs)]
    while stack:
        e, ready = stack.pop()
        if id(e) in pos:
            continue
        if not ready:
            stack.append((e, True))
            stack.extend((a, False) for a in reversed(e.args))
            continue
        if e.op == "const":
            payload = (e.value.re, e.value.ze)
        elif e.op == "coord":
            payload = _coord_columns(e, n, m)
        else:
            payload = None
        pos[id(e)] = len(nodes)
        nodes.append((e.op, tuple(pos[id(a)] for a in e.args), payload))
    return tuple(nodes), tuple(pos[id(e)] for e in exprs)


def _coord_columns(e: Expr, n: int, m: int) -> tuple[int | None, int | None]:
    # realified input: head re parts, head ze parts, tail coefficients
    if e.part == "head":
        if e.slot >= n:
            raise ShapeMismatch("head slot %d out of range for n=%d" % (e.slot, n))
        return {"full": (e.slot, n + e.slot), "re": (e.slot, None), "ze": (n + e.slot, None)}[
            e.component
        ]
    if e.slot >= m:
        raise ShapeMismatch("tail slot %d out of range for m=%d" % (e.slot, m))
    col = 2 * n + e.slot
    return (None, col) if e.component == "full" else (col, None)


@dataclass(frozen=True)
class CrReport:
    point: DualVector
    passed: bool
    residuals: dict[str, float] = field(default_factory=dict)
    derivative: ModuleMap | None = None

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "passed": self.passed,
            "residuals": dict(self.residuals),
            "derivative": None if self.derivative is None else self.derivative.to_json(),
        }


def eval_expr(e: Expr, x: DualVector, stats: dict | None = None) -> DualNumber:
    """Evaluate one expression at a point.

    stats, when given, accumulates 'min_inv_re' (smallest |re| fed to an
    inverse) and 'max_abs' (largest intermediate magnitude) for taming
    sample-based tests.
    """
    if e.op == "const":
        v = e.value
    elif e.op == "coord":
        n, m = x.shape
        if e.part == "head":
            if e.slot >= n:
                raise ShapeMismatch("head slot %d out of range for n=%d" % (e.slot, n))
            h = x.head[e.slot]
            if e.component == "full":
                v = h
            elif e.component == "re":
                v = DualNumber(h.re, 0.0)
            else:
                v = DualNumber(h.ze, 0.0)
        else:
            if e.slot >= m:
                raise ShapeMismatch("tail slot %d out of range for m=%d" % (e.slot, m))
            r = x.tail[e.slot]
            v = DualNumber(0.0, r) if e.component == "full" else DualNumber(r, 0.0)
    elif e.op == "add":
        v = eval_expr(e.args[0], x, stats) + eval_expr(e.args[1], x, stats)
    elif e.op == "sub":
        v = eval_expr(e.args[0], x, stats) - eval_expr(e.args[1], x, stats)
    elif e.op == "mul":
        v = mul(eval_expr(e.args[0], x, stats), eval_expr(e.args[1], x, stats))
    elif e.op == "neg":
        v = -eval_expr(e.args[0], x, stats)
    elif e.op == "inv":
        u = eval_expr(e.args[0], x, stats)
        if stats is not None:
            stats["min_inv_re"] = min(stats.get("min_inv_re", np.inf), abs(u.re))
        v = inv(u)
    elif e.op == "sharp":
        v = mul(EPS, eval_expr(e.args[0], x, stats))
    elif e.op == "re_part":
        v = DualNumber(eval_expr(e.args[0], x, stats).re, 0.0)
    else:  # ze_part
        v = DualNumber(eval_expr(e.args[0], x, stats).ze, 0.0)
    if stats is not None:
        stats["max_abs"] = max(
            stats.get("max_abs", 0.0), abs(v.re), abs(v.ze)
        )
    return v


def eval_func(
    f: DualFunc, x: DualVector, tol: float | None = None, stats: dict | None = None
) -> DualVector:
    """Evaluate all components; tail components must be zero divisors."""
    if x.shape != f.domain:
        raise ShapeMismatch("point shape %r != domain %r" % (x.shape, f.domain))
    s, t = f.codomain
    tol = resolve_tol(tol)
    head = [eval_expr(e, x, stats) for e in f.components[:s]]
    tail = []
    for l, e in enumerate(f.components[s:]):
        v = eval_expr(e, x, stats)
        if abs(v.re) > tol:
            raise EvaluationFailed(
                "tail component %d evaluated to re part %g, not a zero divisor"
                % (l, v.re)
            )
        tail.append(v.ze)
    return DualVector(tuple(head), tuple(tail))


def numeric_jacobian(f: DualFunc, a: DualVector, h: float = FD_DEFAULT_STEP) -> np.ndarray:
    """Central-difference Jacobian on realified coordinates: the oracle for
    realified_jacobian and forward_derivative.

    Step per coordinate is h * (1 + |coordinate|); error is O(h**2).
    """
    n, m = f.domain
    s, t = f.codomain
    base = realify(a)
    width = 2 * n + m
    out = np.zeros((2 * s + t, width))

    def probe(arr):
        try:
            return realify(eval_func(f, unrealify(arr, n, m)))
        except (NotInvertible, EvaluationFailed) as exc:
            raise EvaluationFailed("jacobian probe failed: %s" % exc)

    for c in range(width):
        step = h * (1.0 + abs(base[c]))
        up = base.copy()
        up[c] += step
        down = base.copy()
        down[c] -= step
        out[:, c] = (probe(up) - probe(down)) / (2.0 * step)
    return out


def realified_jacobian(f: DualFunc, a: DualVector) -> np.ndarray:
    """Exact (2s + t) x (2n + m) Jacobian on realified coordinates.

    One vector forward pass over f's node list: each node carries its value
    (re, ze) and the gradients of re and ze over the 2n + m realified inputs
    (the float 0.0 while a gradient is zero).  re_part, ze_part and component
    coords are real-linear, so they are differentiated too, and the block
    test sees their asymmetry.  As eval_func, raises NotInvertible where an
    inverse meets a re part within tolerance of zero, and EvaluationFailed
    where a tail output is not a zero divisor.
    """
    if a.shape != f.domain:
        raise ShapeMismatch("point shape %r != domain %r" % (a.shape, f.domain))
    n, m = f.domain
    s, t = f.codomain
    tol = resolve_tol(None)
    x = realify(a).tolist()
    unit = np.eye(2 * n + m)
    vals = []
    for op, args, payload in f._nodes:
        if op == "const":
            vals.append((payload[0], payload[1], 0.0, 0.0))
            continue
        if op == "coord":
            r, z = payload
            re, dre = (0.0, 0.0) if r is None else (x[r], unit[r])
            ze, dze = (0.0, 0.0) if z is None else (x[z], unit[z])
            vals.append((re, ze, dre, dze))
            continue
        ur, uz, dur, duz = vals[args[0]]
        if op == "add":
            vr, vz, dvr, dvz = vals[args[1]]
            v = (ur + vr, uz + vz, dur + dvr, duz + dvz)
        elif op == "sub":
            vr, vz, dvr, dvz = vals[args[1]]
            v = (ur - vr, uz - vz, dur - dvr, duz - dvz)
        elif op == "mul":
            vr, vz, dvr, dvz = vals[args[1]]
            v = (
                ur * vr,
                ur * vz + uz * vr,
                ur * dvr + vr * dur,
                ur * dvz + uz * dvr + vr * duz + vz * dur,
            )
        elif op == "neg":
            v = (-ur, -uz, -dur, -duz)
        elif op == "inv":
            if abs(ur) <= tol:
                raise NotInvertible("re part %g is within tolerance of zero" % ur)
            w = 1.0 / ur
            v = (w, -uz / (ur * ur), -w * w * dur, w * w * (2.0 * w * uz * dur - duz))
        elif op == "sharp":
            v = (0.0, ur, 0.0, dur)
        elif op == "re_part":
            v = (ur, 0.0, dur, 0.0)
        else:  # ze_part
            v = (uz, 0.0, duz, 0.0)
        vals.append(v)
    jac = np.empty((2 * s + t, 2 * n + m))
    for k, p in enumerate(f._outputs):
        re, _, dre, dze = vals[p]
        if k < s:
            jac[k] = dre
        elif abs(re) > tol:
            raise EvaluationFailed(
                "tail component %d evaluated to re part %g, not a zero divisor"
                % (k - s, re)
            )
        jac[s + k] = dze
    return jac


_RESIDUAL_KEYS = ("head_re_dze", "ze_match", "head_re_dtail", "tail_dze")


def cr_check(f: DualFunc, a: DualVector, tol: float = CR_DEFAULT_TOL) -> CrReport:
    """Check the forced Jacobian block pattern at a point.

    The four residuals measure, on the exact realified Jacobian: head re
    parts driven by ze inputs, mismatch between the two copies of the
    re-to-re block, head re parts driven by tail inputs, and tail outputs
    driven by ze inputs.  When all four stay within tol the surviving blocks
    assemble the derivative map.  Raises EvaluationFailed when f cannot be
    evaluated at a.
    """
    n, m = f.domain
    s, t = f.codomain
    try:
        jac = realified_jacobian(f, a)
    except NotInvertible as exc:
        raise EvaluationFailed("cannot differentiate at the point: %s" % exc) from exc

    def block_max(block):
        return float(np.abs(block).max()) if block.size else 0.0

    residuals = {
        "head_re_dze": block_max(jac[0:s, n : 2 * n]),
        "ze_match": block_max(jac[0:s, 0:n] - jac[s : 2 * s, n : 2 * n]),
        "head_re_dtail": block_max(jac[0:s, 2 * n :]),
        "tail_dze": block_max(jac[2 * s :, n : 2 * n]),
    }
    passed = all(residuals[k] <= tol for k in _RESIDUAL_KEYS)
    deriv = None
    if passed:
        c_re = 0.5 * (jac[0:s, 0:n] + jac[s : 2 * s, n : 2 * n])
        deriv = ModuleMap(
            n, m, s, t,
            c_re,
            jac[s : 2 * s, 0:n],
            jac[s : 2 * s, 2 * n :],
            jac[2 * s :, 0:n],
            jac[2 * s :, 2 * n :],
        )
    return CrReport(point=a, passed=passed, residuals=residuals, derivative=deriv)


def limit_check(
    f: DualFunc,
    a: DualVector,
    deriv: ModuleMap,
    radius: float = 0.05,
    samples: int = 20,
    tol: float = 1e-3,
    levels: int = 14,
    seed: int = 0,
) -> bool:
    """Confirm the first-order remainder quotient drops below tol.

    Samples random directions at radius, radius/2, ..., and requires the
    worst quotient |f(x) - f(a) - deriv(x - a)| / |x - a| at the smallest
    radius to be at most tol.
    """
    n, m = f.domain
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, 2 * n + m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = realify(a)
    try:
        fa = eval_func(f, a)
    except (NotInvertible, EvaluationFailed) as exc:
        raise EvaluationFailed("cannot evaluate at the base point: %s" % exc)
    worst_last = 0.0
    for level in range(levels):
        r = radius / (2.0**level)
        worst = 0.0
        for d in dirs:
            x = unrealify(base + r * d, n, m)
            try:
                fx = eval_func(f, x)
            except (NotInvertible, EvaluationFailed) as exc:
                raise EvaluationFailed("probe at radius %g failed: %s" % (r, exc))
            diff = x - a
            q = vector_norm(fx - fa - apply(deriv, diff)) / vector_norm(diff)
            worst = max(worst, q)
        worst_last = worst
    return worst_last <= tol


def forward_derivative(f: DualFunc, a: DualVector) -> ModuleMap:
    """Exact derivative by forward mode with ring-valued tangents.

    One pass per input slot: head slot i is seeded with tangent 1, tail slot
    j with tangent eps (the tail coordinate enters the algebra as r*eps).
    Projections (re_part/ze_part, component coords) are rejected: they are
    not differentiable in the dual sense and would silently produce a wrong
    map.
    """
    if a.shape != f.domain:
        raise ShapeMismatch("point shape %r != domain %r" % (a.shape, f.domain))
    n, m = f.domain
    s, t = f.codomain
    c_re = np.zeros((s, n))
    c_ze = np.zeros((s, n))
    p = np.zeros((s, m))
    d = np.zeros((t, n))
    q = np.zeros((t, m))
    for i in range(n):
        tangents = _tangent_pass(f, a, seed_head=i, seed_tail=None)
        for k in range(s):
            c_re[k, i] = tangents[k].re
            c_ze[k, i] = tangents[k].ze
        for l in range(t):
            d[l, i] = tangents[s + l].ze
    for j in range(m):
        tangents = _tangent_pass(f, a, seed_head=None, seed_tail=j)
        for k in range(s):
            p[k, j] = tangents[k].ze
        for l in range(t):
            q[l, j] = tangents[s + l].ze
    return ModuleMap(n, m, s, t, c_re, c_ze, p, d, q)


def _tangent_pass(f, a, seed_head, seed_tail):
    return [
        _eval_tangent(e, a, seed_head, seed_tail)[1] for e in f.components
    ]


def _eval_tangent(e, x, seed_head, seed_tail):
    if e.op == "const":
        return e.value, ZERO
    if e.op == "coord":
        if e.component != "full":
            raise NonSmoothExpression(
                "coord component %r is a real projection" % e.component
            )
        if e.part == "head":
            tangent = ONE if e.slot == seed_head else ZERO
            return x.head[e.slot], tangent
        tangent = EPS if e.slot == seed_tail else ZERO
        return DualNumber(0.0, x.tail[e.slot]), tangent
    if e.op in ("re_part", "ze_part"):
        raise NonSmoothExpression("%s is not differentiable in the dual sense" % e.op)
    if e.op == "add":
        u, du = _eval_tangent(e.args[0], x, seed_head, seed_tail)
        v, dv = _eval_tangent(e.args[1], x, seed_head, seed_tail)
        return u + v, du + dv
    if e.op == "sub":
        u, du = _eval_tangent(e.args[0], x, seed_head, seed_tail)
        v, dv = _eval_tangent(e.args[1], x, seed_head, seed_tail)
        return u - v, du - dv
    if e.op == "neg":
        u, du = _eval_tangent(e.args[0], x, seed_head, seed_tail)
        return -u, -du
    if e.op == "mul":
        u, du = _eval_tangent(e.args[0], x, seed_head, seed_tail)
        v, dv = _eval_tangent(e.args[1], x, seed_head, seed_tail)
        return mul(u, v), mul(u, dv) + mul(du, v)
    if e.op == "inv":
        u, du = _eval_tangent(e.args[0], x, seed_head, seed_tail)
        w = inv(u)
        return w, -mul(mul(w, w), du)
    # sharp: eps is a constant factor
    u, du = _eval_tangent(e.args[0], x, seed_head, seed_tail)
    return mul(EPS, u), mul(EPS, du)


def compose_funcs(outer: DualFunc, inner: DualFunc) -> DualFunc:
    """Substitute inner's components into outer's coordinate leaves."""
    if inner.codomain != outer.domain:
        raise ShapeMismatch(
            "cannot compose: inner codomain %r != outer domain %r"
            % (inner.codomain, outer.domain)
        )
    s_in = inner.codomain[0]

    def subst(e: Expr) -> Expr:
        if e.op == "const":
            return e
        if e.op == "coord":
            if e.part == "head":
                repl = inner.components[e.slot]
                if e.component == "re":
                    return re_part(repl)
                if e.component == "ze":
                    return ze_part(repl)
                return repl
            repl = inner.components[s_in + e.slot]
            if e.component == "ze":
                return ze_part(repl)
            return repl
        return Expr(e.op, tuple(subst(a) for a in e.args))

    return DualFunc(
        inner.domain, outer.codomain, tuple(subst(c) for c in outer.components)
    )


def func_from_module_map(lam: ModuleMap) -> DualFunc:
    """Express a linear map as component expressions."""
    comps = []
    for k in range(lam.s):
        e = const(ZERO)
        for i in range(lam.n):
            e = e + const(lam.head_entry(k, i)) * head_coord(i)
        for j in range(lam.m):
            # (p, 0) * (0, r) = (0, p r): lands on the ze part as required
            e = e + const(DualNumber(lam.p[k, j], 0.0)) * tail_coord(j)
        comps.append(e)
    for l in range(lam.t):
        e = const(ZERO)
        for i in range(lam.n):
            e = e + const(DualNumber(lam.d[l, i], 0.0)) * sharp_expr(head_coord(i))
        for j in range(lam.m):
            e = e + const(DualNumber(lam.q[l, j], 0.0)) * tail_coord(j)
        comps.append(e)
    return DualFunc(lam.domain, lam.codomain, tuple(comps))


def identity_func(n: int, m: int) -> DualFunc:
    comps = [head_coord(i) for i in range(n)] + [tail_coord(j) for j in range(m)]
    return DualFunc((n, m), (n, m), tuple(comps))
