"""Expression trees over the dual algebra and derivative checking.

A function (n, m) -> (s, t) is s + t scalar expressions in the input slots:
the first s give the head values, the rest give the tail entries and must
evaluate to zero divisors (their ze part is the stored tail coefficient).

Every DualFunc lowers its components once, when it is built, to a list of
unique nodes (a subtree shared between components or paths appears once),
and every evaluation is a loop over that list, never a recursion.  One value
loop serves floats for one point and arrays for a batch of points;
limit_check and numeric_jacobian evaluate all their probes in one batch.

Smooth functions of dual arguments have realified Jacobians with the forced
block pattern of a module map; cr_check measures the four forced identities
on the exact Jacobian from realified_jacobian and assembles the derivative
when they hold.  forward_derivative computes the same map independently,
carrying ring-valued tangents for every input slot in one pass, and
numeric_jacobian is the central-difference oracle for both.  re_part/ze_part
exist to express maps that are perfectly smooth over the reals yet fail the
block pattern.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from dualmod.core import (
    ZERO,
    DualNumber,
    DualVector,
    NotInvertible,
    ShapeMismatch,
    as_index,
    resolve_tol,
)
from dualmod.linalg import ModuleMap, realify, realify_map, unrealify

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

    Each node is (op, argument positions, payload, freed): a const carries
    (re, ze), a coord the realified input columns feeding its re and ze
    parts (None where a part is zero), and freed lists the arguments no
    later node reads, so a walk can drop their values.  Raises
    ShapeMismatch for a coord slot outside domain.
    """
    n, m = domain
    pos = {}
    nodes = []
    for e in _postorder(exprs):
        pos[id(e)] = len(nodes)
        nodes.append((e.op, tuple([pos[id(a)] for a in e.args]), _payload(e, n, m)))
    roots = tuple([pos[id(e)] for e in exprs])
    alive = set(roots)  # read by a later node, or an output
    for k in range(len(nodes) - 1, -1, -1):
        freed = []
        for a in nodes[k][1]:
            if a not in alive:
                alive.add(a)
                freed.append(a)
        nodes[k] += (tuple(freed),)
    return tuple(nodes), roots


def _postorder(exprs) -> list[Expr]:
    """Every node under exprs once, arguments before their users: nodes are
    told apart by identity, so a subtree that compose_funcs or transition
    reuses is visited once, and an explicit stack replaces recursion."""
    seen = set()
    order = []
    stack = [(e, False) for e in reversed(exprs)]
    while stack:
        e, ready = stack.pop()
        if id(e) in seen:
            continue
        if not ready:
            stack.append((e, True))
            stack.extend((a, False) for a in reversed(e.args))
            continue
        seen.add(id(e))
        order.append(e)
    return order


def _payload(e: Expr, n: int, m: int):
    if e.op == "const":
        return (e.value.re, e.value.ze)
    if e.op != "coord":
        return None
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


def _walk(nodes, x, stats: dict | None = None) -> list:
    """(re, ze) of every node of a lowered list at the realified point x:
    floats for one point, or arrays with one entry per point for a batch.

    The arithmetic is core.mul's, core.inv's and DualNumber addition's, op
    for op, so the floats equal those of DualNumber evaluation; an inverse
    within the default tolerance of zero raises NotInvertible.  stats (one
    point only) takes the hooks described in eval_expr.
    """
    tol = resolve_tol(None)
    vals = []
    for op, args, payload, freed in nodes:
        if op == "const":
            v = payload
        elif op == "coord":
            r, z = payload
            v = (0.0 if r is None else x[r], 0.0 if z is None else x[z])
        else:
            ur, uz = vals[args[0]]
            if op == "add":
                vr, vz = vals[args[1]]
                v = (ur + vr, uz + vz)
            elif op == "sub":
                vr, vz = vals[args[1]]
                v = (ur - vr, uz - vz)
            elif op == "mul":
                vr, vz = vals[args[1]]
                v = (ur * vr, ur * vz + uz * vr)
            elif op == "neg":
                v = (-ur, -uz)
            elif op == "inv":
                if stats is not None:
                    stats["min_inv_re"] = min(stats.get("min_inv_re", np.inf), abs(ur))
                bad = _offender(ur, abs(ur) <= tol)
                if bad is not None:
                    raise NotInvertible("re part %g is within tolerance of zero" % bad)
                v = (1.0 / ur, -uz / (ur * ur))
            elif op == "sharp":  # mul(EPS, u)
                v = (0.0 * ur, 0.0 * uz + 1.0 * ur)
            elif op == "re_part":
                v = (ur, 0.0)
            else:  # ze_part
                v = (uz, 0.0)
        if stats is not None:
            stats["max_abs"] = max(stats.get("max_abs", 0.0), abs(v[0]), abs(v[1]))
        vals.append(v)
        for a in freed:
            vals[a] = None
    return vals


def _offender(value, flagged):
    # the flagged value or None; for a batch, the first flagged entry
    if not isinstance(flagged, np.ndarray):
        return value if flagged else None
    return value[flagged][0] if flagged.any() else None


def _realified_outputs(f: DualFunc, x, tol: float, stats: dict | None = None) -> list:
    """f at the realified point (or batch of points) x, realified: head re
    parts, head ze parts, tail coefficients.  Raises EvaluationFailed where
    a tail output is not a zero divisor."""
    s = f.codomain[0]
    vals = _walk(f._nodes, x, stats)
    out = [vals[p] for p in f._outputs]
    for l, (re, _) in enumerate(out[s:]):
        bad = _offender(re, abs(re) > tol)
        if bad is not None:
            raise EvaluationFailed(
                "tail component %d evaluated to re part %g, not a zero divisor" % (l, bad)
            )
    return [re for re, _ in out[:s]] + [ze for _, ze in out]


def eval_expr(e: Expr, x: DualVector, stats: dict | None = None) -> DualNumber:
    """Evaluate one expression at a point, lowering it on the fly.

    stats, when given, accumulates 'min_inv_re' (smallest |re| fed to an
    inverse) and 'max_abs' (largest intermediate magnitude) for taming
    sample-based tests.
    """
    return eval_lowered(lower((e,), x.shape), x, stats)


def eval_lowered(lowered, x: DualVector, stats: dict | None = None) -> DualNumber:
    """The first root of lower's result at x, of the shape it was lowered
    for: code that evaluates one expression many times lowers it once."""
    nodes, roots = lowered
    return DualNumber(*_walk(nodes, _columns(x), stats)[roots[0]])


def _columns(x: DualVector) -> list:
    # realify(x) as floats: head re parts, head ze parts, tail coefficients
    return [h.re for h in x.head] + [h.ze for h in x.head] + list(x.tail)


def eval_func(
    f: DualFunc, x: DualVector, tol: float | None = None, stats: dict | None = None
) -> DualVector:
    """Evaluate all components in one walk of f's node list; tail
    components must be zero divisors.  stats: as in eval_expr."""
    if x.shape != f.domain:
        raise ShapeMismatch("point shape %r != domain %r" % (x.shape, f.domain))
    s = f.codomain[0]
    out = _realified_outputs(f, _columns(x), resolve_tol(tol), stats)
    return DualVector(tuple(map(DualNumber, out[:s], out[s : 2 * s])), tuple(out[2 * s :]))


def numeric_jacobian(f: DualFunc, a: DualVector, h: float = FD_DEFAULT_STEP) -> np.ndarray:
    """Central-difference Jacobian on realified coordinates: the oracle for
    realified_jacobian and forward_derivative.

    Step per coordinate is h * (1 + |coordinate|); error is O(h**2).  The
    2(2n + m) probes, up then down for each coordinate, run as one batch.
    """
    base = realify(a)
    steps = h * (1.0 + np.abs(base))
    cols = np.arange(base.size)
    probes = np.repeat(base[None, :], 2 * base.size, axis=0)
    probes[2 * cols, cols] += steps
    probes[2 * cols + 1, cols] -= steps
    fx = _eval_points(f, probes, lambda k: "jacobian probe")
    return ((fx[0::2] - fx[1::2]) / (2.0 * steps[:, None])).T


def _eval_points(f: DualFunc, points: np.ndarray, label) -> np.ndarray:
    """f at each row of points, realified, from one batched walk.  When a
    point cannot be evaluated, the points are replayed one at a time and
    the first failure is raised as EvaluationFailed, named by label(k)."""
    try:
        out = _realified_outputs(f, points.T, resolve_tol(None))
    except (NotInvertible, EvaluationFailed):
        for k, x in enumerate(points):
            try:
                eval_func(f, unrealify(x, *f.domain))
            except (NotInvertible, EvaluationFailed) as exc:
                raise EvaluationFailed("%s failed: %s" % (label(k), exc))
        raise
    values = np.empty((len(points), len(out)))
    for k, column in enumerate(out):
        values[:, k] = column
    return values


@np.errstate(over="ignore", invalid="ignore")
def realified_jacobian(f: DualFunc, a: DualVector) -> np.ndarray:
    """Exact (2s + t) x (2n + m) Jacobian on realified coordinates.

    One vector forward pass over f's node list: each node carries its value
    (re, ze) and the gradients of re and ze over the 2n + m realified inputs
    (the float 0.0 while a gradient is zero).  re_part, ze_part and component
    coords are real-linear, so they are differentiated too, and the block
    test sees their asymmetry.  As eval_func, raises NotInvertible where an
    inverse meets a re part within tolerance of zero, and EvaluationFailed
    where a tail output is not a zero divisor.  Overflow in the pass is
    silent; a Jacobian that is not finite raises EvaluationFailed.
    """
    if a.shape != f.domain:
        raise ShapeMismatch("point shape %r != domain %r" % (a.shape, f.domain))
    n, m = f.domain
    s, t = f.codomain
    tol = resolve_tol(None)
    x = _columns(a)
    unit = np.eye(2 * n + m)
    vals = []
    for op, args, payload, _ in f._nodes:
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
            dze = ur * dvz + uz * dvr + vr * duz + vz * dur
            v = (ur * vr, ur * vz + uz * vr, ur * dvr + vr * dur, dze)
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
    if not np.isfinite(jac).all():
        raise EvaluationFailed("the Jacobian at the point is not finite")
    return jac


_RESIDUAL_KEYS = ("head_re_dze", "ze_match", "head_re_dtail", "tail_dze")


def cr_check(f: DualFunc, a: DualVector, tol: float = CR_DEFAULT_TOL) -> CrReport:
    """Check the forced Jacobian block pattern at a point.

    The four residuals measure, on the exact realified Jacobian: head re
    parts driven by ze inputs, mismatch between the two copies of the
    re-to-re block, head re parts driven by tail inputs, and tail outputs
    driven by ze inputs.  When all four stay within tol the surviving blocks
    assemble the derivative map.  Raises EvaluationFailed when f cannot be
    evaluated at a or its Jacobian there is not finite.
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
    radius to be at most tol.  All levels x samples probes go through one
    batched walk of f's node list, and the quotients are taken on realified
    coordinates.  A failing probe raises EvaluationFailed naming the first
    failure in (level, direction) order.
    """
    if samples < 1 or levels < 1:
        raise ValueError("limit_check needs at least one sample and one level")
    n, m = f.domain
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, 2 * n + m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = realify(a)
    try:
        fa = realify(eval_func(f, a))
    except (NotInvertible, EvaluationFailed) as exc:
        raise EvaluationFailed("cannot evaluate at the base point: %s" % exc)
    radii = radius / 2.0 ** np.arange(levels)
    probes = (base + radii[:, None, None] * dirs).reshape(-1, 2 * n + m)
    fx = _eval_points(f, probes, lambda k: "probe at radius %g" % radii[k // samples])
    steps = probes - base
    rem = fx - fa - (steps[:, None, :] * realify_map(deriv)).sum(axis=2)
    quot = _norms(rem, f.codomain[0]) / _norms(steps, n)
    return bool(quot[-samples:].max() <= tol)


def _norms(rows: np.ndarray, n: int) -> np.ndarray:
    # core.vector_norm of realified rows: 2 re**2 + ze**2 per head, r**2 per tail
    return np.sqrt(2.0 * (rows[:, :n] ** 2).sum(axis=1) + (rows[:, n:] ** 2).sum(axis=1))


def forward_derivative(f: DualFunc, a: DualVector) -> ModuleMap:
    """Exact derivative by forward mode with ring-valued tangents.

    One walk over f's node list carries each value's tangents for all n + m
    seeds: head slot i is seeded with tangent 1, tail slot j with tangent
    eps (the tail coordinate enters the algebra as r*eps).  The rules are
    written apart from realified_jacobian's, so each checks the other.
    Projections (re_part/ze_part, component coords) are rejected: they are
    not differentiable in the dual sense and would give a wrong map.
    """
    if a.shape != f.domain:
        raise ShapeMismatch("point shape %r != domain %r" % (a.shape, f.domain))
    n, m = f.domain
    s, t = f.codomain
    x = _columns(a)
    tol = resolve_tol(None)
    zero = [(0.0, 0.0)] * (n + m)
    seed = [list(zero) for _ in range(n + m)]  # head slot: tangent 1, tail slot: eps
    for c, row in enumerate(seed):
        row[c] = (1.0, 0.0) if c < n else (0.0, 1.0)
    vals = []  # (re, ze, tangents): one (re, ze) tangent per seed
    for op, args, payload, freed in f._nodes:
        if op == "const":
            v = (payload[0], payload[1], zero)
        elif op == "coord":
            r, z = payload
            if z is None:  # a head re/ze part, or a tail slot read as real
                kind = "re" if r < n else "ze"
                raise NonSmoothExpression("coord component %r is a real projection" % kind)
            v = (0.0, x[z], seed[z - n]) if r is None else (x[r], x[z], seed[r])
        elif op in ("re_part", "ze_part"):
            raise NonSmoothExpression("%s is not differentiable in the dual sense" % op)
        else:
            ur, uz, du = vals[args[0]]
            if op in ("add", "sub"):
                vr, vz, dv = vals[args[1]]
                o = operator.add if op == "add" else operator.sub
                dw = [(o(p, q), o(pz, qz)) for (p, pz), (q, qz) in zip(du, dv)]
                v = (o(ur, vr), o(uz, vz), dw)
            elif op == "neg":
                v = (-ur, -uz, [(-p, -pz) for p, pz in du])
            elif op == "mul":  # mul(u, dv) + mul(du, v)
                vr, vz, dv = vals[args[1]]
                dw = [
                    (ur * q + p * vr, (ur * qz + uz * q) + (p * vz + pz * vr))
                    for (p, pz), (q, qz) in zip(du, dv)
                ]
                v = (ur * vr, ur * vz + uz * vr, dw)
            elif op == "inv":  # w = inv(u) and -mul(mul(w, w), du)
                if abs(ur) <= tol:
                    raise NotInvertible("re part %g is within tolerance of zero" % ur)
                wr, wz = 1.0 / ur, -uz / (ur * ur)
                sr, sz = wr * wr, wr * wz + wz * wr
                v = (wr, wz, [(-(sr * p), -(sr * pz + sz * p)) for p, pz in du])
            else:  # sharp: mul(EPS, u) and mul(EPS, du)
                dw = [(0.0 * p, 0.0 * pz + 1.0 * p) for p, pz in du]
                v = (0.0 * ur, 0.0 * uz + 1.0 * ur, dw)
        vals.append(v)
        for k in freed:
            vals[k] = None
    d = np.array([vals[p][2] for p in f._outputs]).reshape(s + t, n + m, 2)
    dre, dze = d[..., 0], d[..., 1]
    return ModuleMap(n, m, s, t, dre[:s, :n], dze[:s, :n], dze[:s, n:], dze[s:, :n], dze[s:, n:])


def compose_funcs(outer: DualFunc, inner: DualFunc) -> DualFunc:
    """Substitute inner's components into outer's coordinate leaves.

    Each node of outer gets one replacement, built once, so nodes that
    outer shares stay shared and repeated composition grows linearly."""
    if inner.codomain != outer.domain:
        raise ShapeMismatch(
            "cannot compose: inner codomain %r != outer domain %r"
            % (inner.codomain, outer.domain)
        )
    s_in = inner.codomain[0]
    new: dict[int, Expr] = {}
    for e in _postorder(outer.components):
        if e.op == "const":
            repl = e
        elif e.op == "coord":
            repl = inner.components[e.slot if e.part == "head" else s_in + e.slot]
            if e.component == "re":
                repl = re_part(repl)
            elif e.component == "ze":
                repl = ze_part(repl)
        else:
            repl = Expr(e.op, tuple(new[id(a)] for a in e.args))
        new[id(e)] = repl
    return DualFunc(inner.domain, outer.codomain, tuple(new[id(c)] for c in outer.components))


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
