"""Expression trees over the dual algebra and derivative checking.

A function (n, m) -> (s, t) is s + t scalar expressions in the input slots:
the first s give the head values, the rest give the tail entries and must
evaluate to zero divisors (their ze part is the stored tail coefficient).

Every DualFunc lowers its components once, when it is built, to a list of
unique nodes (a subtree shared between components or paths appears once,
and so does each input slot).  The node list is the function: it is all a
DualFunc keeps, components is read back from it on first use, and every
evaluation is a loop over it, never a recursion; it is private to this
module.  compose_funcs splices its parts' lists instead of lowering again
and builds no expression.  One value loop serves floats for one point and
arrays for a batch of points; limit_check and numeric_jacobian evaluate
all their probes in one batch.  Both batch loops, values and Jacobian,
share one failure contract: one point raises where an inverse meets a re
part within tolerance of zero or a tail output is not a zero divisor,
while a batch marks such points in a mask and carries on.  A batch row
does the same float operations as its point, so a caller that needs the
exception replays only the first marked row.

Smooth functions of dual arguments have realified Jacobians with the forced
block pattern of a module map.  One derivative pass per point (_pass) gives
that Jacobian: a loop over the node list that carries each node's value and
its gradient rows over the 2n + m realified inputs, kept per point so that
cr_check, realified_jacobian and forward_derivative at one point walk once.
cr_check measures the four forced identities on it and reads the derivative
off its head re and tail columns when they hold; forward_derivative returns
that derivative where all four hold exactly.  re_part and ze_part are the
one form of a real projection (coord's "re" and "ze" components build them
on the full coord): maps that are smooth over the reals yet fail the block
pattern.  _jacobian is the same pass over a batch of points, for the
batched block test (_cr_rows).  One loop over the node list, run on first
use and cached, gives each node a smoothness class (_classes); where a
function it proves has a finite Jacobian, the four block residuals are
exactly 0.0, so verify_atlas builds no Jacobian for the proved standard
transitions where it can bound theirs as finite.
numeric_jacobian is the central-difference oracle for both derivatives.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from dualmod.core import (
    ZERO,
    DualNumber,
    DualVector,
    NotInvertible,
    ShapeMismatch,
    as_index,
    json_fields,
    json_list,
    json_writer,
    resolve_tol,
    row_norms,
    valid_bound,
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
    """The realified Jacobian at a point is not that of a module map."""


@dataclass(frozen=True, eq=False)
class Expr:
    op: str
    args: tuple["Expr", ...] = ()
    value: DualNumber | None = None
    part: str | None = None
    slot: int | None = None

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

    def __eq__(self, other):
        """The dataclass equality, field by field down the tree, as a loop
        over the pairs of nodes: a pair met before, or of one node twice,
        is not compared again, so shared subtrees cost one visit and depth
        is not limited by recursion."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen = set()
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y or (id(x), id(y)) in seen:
                continue
            seen.add((id(x), id(y)))
            if y.__class__ is not x.__class__ or (x.op, x.part, x.slot, len(x.args)) != (y.op, y.part, y.slot, len(y.args)):
                return False
            if not (x.value is y.value or x.value == y.value):
                return False
            stack.extend(zip(x.args, y.args))
        return True

    def __hash__(self):
        """A hash of the fields with each argument's hash in its place,
        computed once per node in a loop, so equal expressions hash equal."""
        memo = {}
        stack = [self]
        while stack:
            e = stack[-1]
            todo = [a for a in e.args if id(a) not in memo]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            memo[id(e)] = hash((e.op, tuple([memo[id(a)] for a in e.args]), e.value, e.part, e.slot))
        return memo[id(self)]

    def to_json(self) -> dict:
        if self.op == "const":
            return {"op": "const", "value": self.value.to_json()}
        if self.op == "coord":
            return {
                "op": "coord",
                "part": self.part,
                "slot": self.slot,
                "component": "full",  # kept, so existing JSON stays unchanged
            }
        return {"op": self.op, "args": [a.to_json() for a in self.args]}

    @classmethod
    def from_json(cls, data) -> "Expr":
        (op,) = json_fields(data, "expression", ("op",))
        if op == "const":
            return const(DualNumber.from_json(*json_fields(data, "const expression", ("value",))))
        if op == "coord":
            part, slot = json_fields(data, "coord expression", ("part", "slot"))
            return coord(part, slot, data.get("component", "full"))
        if not isinstance(op, str) or op not in _OPS:
            raise ValueError("unknown expression op %r" % (op,))
        args = json_list(data.get("args", []), "expression args")
        return cls(op, tuple(map(cls.from_json, args)))


def _as_expr(x) -> Expr:
    return x if isinstance(x, Expr) else const(x)


def const(x) -> Expr:
    """A constant from a DualNumber, or from a real number (numpy's
    included) as its re part."""
    if isinstance(x, numbers.Real):
        x = DualNumber(float(x), 0.0)
    elif not isinstance(x, DualNumber):
        raise TypeError("cannot treat %r as an expression" % (x,))
    return Expr("const", value=x)


def coord(part: str, slot: int, component: str = "full") -> Expr:
    """Input slot `slot` of the head or tail part, or one real part of it:
    "re" and "ze" give re_part and ze_part of the full coord (a tail's ze
    part is its coefficient)."""
    if part not in ("head", "tail"):
        raise ValueError("coord part must be 'head' or 'tail', got %r" % (part,))
    if part == "head" and component not in ("full", "re", "ze"):
        raise ValueError("head coord component must be full/re/ze")
    if part == "tail" and component not in ("full", "ze"):
        raise ValueError("tail coord component must be full or ze")
    e = Expr("coord", part=part, slot=as_index(slot, "coord slot"))
    return e if component == "full" else (re_part if component == "re" else ze_part)(e)


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
    """s + t component expressions between split shapes, kept only as
    their node list (see lower); components is read back from it on first
    use, equal to the expressions given but not them."""

    domain: tuple[int, int]
    codomain: tuple[int, int]
    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", _shape(self.domain, "domain"))
        object.__setattr__(self, "codomain", _shape(self.codomain, "codomain"))
        components = tuple(vars(self).pop("components"))
        s, t = self.codomain
        if len(components) != s + t:
            raise ShapeMismatch(
                "codomain %r needs %d components, got %d"
                % (self.codomain, s + t, len(components))
            )
        # not dataclass fields, so eq, hash, repr and JSON ignore them
        nodes, outputs = lower(components, self.domain)
        vars(self).update(_nodes=nodes, _outputs=outputs)

    def __getattr__(self, name):
        """components, rebuilt from the node list and cached: a const from
        its payload, a coord from its columns, any other op from its
        arguments' expressions.  No other name is looked up here."""
        if name != "components":
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        n, exprs = self.domain[0], []
        for op, args, payload, _ in self._nodes:
            if op == "const":
                e = Expr(op, value=DualNumber(*payload))
            elif op == "coord":
                r, z = payload
                e = Expr(op, part="head", slot=r) if r is not None else Expr(op, part="tail", slot=z - 2 * n)
            else:
                e = Expr(op, tuple([exprs[a] for a in args]))
            exprs.append(e)
        components = tuple([exprs[p] for p in self._outputs])
        object.__setattr__(self, "components", components)
        return components

    to_json = json_writer("domain", "codomain", "components")

    @classmethod
    def from_json(cls, data) -> "DualFunc":
        domain, codomain, components = json_fields(data, "function", ("domain", "codomain", "components"))
        components = json_list(components, "function components")
        return cls(domain, codomain, tuple(map(Expr.from_json, components)))


def _shape(value, what: str) -> tuple[int, int]:
    shape = tuple([as_index(x, what + " entry") for x in json_list(value, what)])
    if len(shape) != 2:
        raise ValueError("%s must be two nonnegative integers, got %r" % (what, value))
    return shape


def lower(exprs, domain: tuple[int, int]) -> tuple[tuple, tuple[int, ...]]:
    """The unique nodes under exprs in topological order, and the roots'
    positions among them: the function itself, from which DualFunc reads
    its components back.

    Each node is (op, argument positions, payload, freed): a const carries
    (re, ze), a coord the realified input columns of its re and ze parts
    (None for a tail's re part, which is zero), and freed lists the
    arguments no later node reads, so a walk can drop their values.  Nodes
    are told apart by identity, so a subtree that transition reuses is one
    node, except that all coords of one input slot are one node.  An
    explicit stack replaces recursion.  Raises ShapeMismatch for a coord
    slot outside domain.
    """
    n, m = domain
    pos, slots = {}, {}  # expression id, or a coord's (part, slot), -> node
    nodes = []
    stack = [(e, False) for e in reversed(exprs)]
    while stack:
        e, ready = stack.pop()
        if ready:  # its arguments are nodes by now
            pos[id(e)] = len(nodes)
            nodes.append((e.op, tuple([pos[id(a)] for a in e.args]), None))
        elif id(e) in pos:
            continue
        elif e.args:
            stack.append((e, True))
            stack.extend([(a, False) for a in reversed(e.args)])
        elif e.op == "coord" and (e.part, e.slot) in slots:
            pos[id(e)] = slots[e.part, e.slot]
        else:
            if e.op == "coord":
                slots[e.part, e.slot] = len(nodes)
            pos[id(e)] = len(nodes)
            nodes.append((e.op, (), _payload(e, n, m)))
    return _link(nodes, [pos[id(e)] for e in exprs])


def _link(nodes, roots) -> tuple[tuple, tuple[int, ...]]:
    """A lowered list from nodes (op, argument positions, payload) in
    topological order and the roots' positions: one backward pass gives
    each node the arguments no later node reads (freed) and drops the
    nodes no root reads, and the kept nodes are renumbered in order when
    some were dropped."""
    alive = set(roots)  # read by a later node, or an output
    linked = [None] * len(nodes)
    for k in range(len(nodes) - 1, -1, -1):
        if k in alive:
            op, args, payload = nodes[k]
            freed = []
            for a in args:
                if a not in alive:
                    alive.add(a)
                    freed.append(a)
            linked[k] = (op, args, payload, tuple(freed))
    if len(alive) == len(nodes):
        return tuple(linked), tuple(roots)
    new = {}
    for k, node in enumerate(linked):
        if node is not None:
            new[k] = len(new)
    kept = [(op, tuple([new[a] for a in args]), payload, tuple([new[a] for a in freed])) for op, args, payload, freed in filter(None, linked)]
    return tuple(kept), tuple([new[r] for r in roots])


def _payload(e: Expr, n: int, m: int):
    """A leaf's payload (see lower)."""
    if e.op == "const":
        return (e.value.re, e.value.ze)
    # realified input: head re parts, head ze parts, tail coefficients
    if e.part == "head":
        if e.slot >= n:
            raise ShapeMismatch("head slot %d out of range for n=%d" % (e.slot, n))
        return (e.slot, n + e.slot)
    if e.slot >= m:
        raise ShapeMismatch("tail slot %d out of range for m=%d" % (e.slot, m))
    return (None, 2 * n + e.slot)


# Smoothness classes (see _classes), one bit per property: C, C+D, C+D+E, C+R
_CLEAN, _DUAL, _EPS, _REAL = 1, 3, 7, 9


def _classes(f: DualFunc) -> tuple[int, ...]:
    """The smoothness class of each node of f's lowered list, computed on
    first use and cached on f; lowering does not pay for it.

    A class holds properties of a node's value (re, ze) and of its gradient
    rows (dre, dze) in the derivative pass (_gradients, or _jacobian for a
    batch), whose columns are head re parts A, head ze parts B and tail
    coefficients C.  Call a float null when it is zero or not finite, and
    two floats matched when they are equal or one is not finite.
    - CLEAN: dre[B] is null (re depends on head re parts and tails only).
    - DUAL: CLEAN, dre[C] is null, and dre[A] matches dze[B] entry by entry.
    - EPS: DUAL, and re, dre and dze[B] are null.
    - REAL: CLEAN, and ze and dze are null.
    So EPS ⊂ DUAL ⊂ CLEAN and REAL ⊂ CLEAN.  Each property is a bit, so a
    node can be in two classes (a real constant is DUAL and REAL), and the
    class two operands share is the bitwise and of theirs.

    Proof sketch.  Each rule below keeps its properties through the float
    operations the pass does; this is the chain rule in R^(2).  In IEEE
    arithmetic a null times any float, and a sum or difference of nulls,
    is null.  A product or sum of matched operands is matched, since a
    non-finite operand makes a non-finite result; where a null term is a
    finite zero, adding it changes nothing, so mul's
    dze[B] = ((ur dvz[B] + null) + vr duz[B]) + null matches
    dre[A] = ur dvr[A] + vr dur[A], and inv's
    dze[B] = w w (null - duz[B]) matches dre[A] = -w w dur[A].  sharp
    multiplies by eps: its re row is 0.0, and its ze row is its argument's
    re row, null in B when the argument is CLEAN.  A head coord is DUAL and
    a tail coord EPS.

    f is proved (_proved) when every head output is DUAL and every tail
    output EPS.  Then the four blocks of cr_check's residuals are null
    (head dre[B], head dre[C], tail dze[B]) or differences of matched
    entries (head dre[A] - dze[B]).  So wherever the Jacobian is finite,
    all four residuals are exactly 0.0, not merely small: only an inverse
    within tolerance of zero, a tail that is not a zero divisor or a
    Jacobian that is not finite (0.0 times inf is NaN) can fail the block
    test there.
    """
    classes = f.__dict__.get("_classes")
    if classes is not None:
        return classes
    classes = []
    for op, args, payload, _ in f._nodes:
        u = classes[args[0]] if args else 0
        v = classes[args[-1]] if args else 0  # u again for one argument
        if op == "const":
            c = _DUAL | _EPS * (payload[0] == 0.0) | _REAL * (payload[1] == 0.0)
        elif op == "coord":
            c = _EPS if payload[0] is None else _DUAL
        elif op in ("add", "sub", "neg"):
            c = u & v
        elif op == "mul":
            eps = (u & _EPS == _EPS and v & _CLEAN) or (v & _EPS == _EPS and u & _CLEAN)
            c = u & v & (_DUAL | _REAL) | _EPS * bool(eps)
        elif op == "inv":
            c = u & (_DUAL | _REAL)
        elif op == "sharp":
            c = _CLEAN | _EPS * (u & _CLEAN) | _REAL * (u & _EPS == _EPS)
        elif op == "re_part":
            c = _REAL * (u & _CLEAN) | _EPS * (u & _EPS == _EPS)
        else:  # ze_part
            c = _REAL * (u & _EPS == _EPS or u & _REAL == _REAL) | _EPS * (u & _REAL == _REAL)
        classes.append(c)
    classes = tuple(classes)
    object.__setattr__(f, "_classes", classes)
    return classes


def _proved(f: DualFunc) -> bool:
    """Do f's classes prove the block pattern: is every head output DUAL
    and every tail output EPS (see _classes)?"""
    classes, (s, t) = _classes(f), f.codomain
    return all(classes[p] & c == c for p, c in zip(f._outputs, [_DUAL] * s + [_EPS] * t))


@dataclass(frozen=True)
class CrReport:
    point: DualVector
    passed: bool
    residuals: dict[str, float] = field(default_factory=dict)
    derivative: ModuleMap | None = None

    to_json = json_writer("point", "passed", "residuals", "derivative")


def _walk(nodes, x, tol: float, bad: np.ndarray | None = None, stats: dict | None = None) -> list:
    """(re, ze) of every node of a lowered list at the realified point x:
    floats for one point, or arrays with one entry per point for a batch,
    with bad an (S,) mask.

    The arithmetic is core.mul's, core.inv's and DualNumber addition's, op
    for op; sharp gives (0.0, re), as core.sharp_action and both derivative
    passes do.  An inverse within tol of zero raises NotInvertible for one
    point and marks the point in bad for a batch (see _inverse_re).  stats
    (one point only) takes the hooks described in eval_expr.
    """
    vals = []
    for op, args, payload, freed in nodes:
        if op == "const":
            v = payload
        elif op == "coord":
            r, z = payload
            v = (0.0 if r is None else x[r], x[z])
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
                ur = _inverse_re(ur, tol, bad)
                v = (1.0 / ur, -uz / (ur * ur))
            elif op == "sharp":
                v = (0.0, ur)
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


def _inverse_re(ur, tol: float, bad: np.ndarray | None):
    """The re part an inverse divides by.  Within tol of zero, one point
    raises NotInvertible; in a batch the points are marked in bad and
    divide by 1.0 instead, so no division by zero happens."""
    small = abs(ur) <= tol
    if bad is None:
        if small:
            raise NotInvertible("re part %g is within tolerance of zero" % ur)
        return ur
    bad |= np.ravel(small)
    return np.where(small, 1.0, ur)


def _check_tail(re, tol: float, l: int, bad: np.ndarray | None) -> None:
    """Tail output l must be a zero divisor: one point raises
    EvaluationFailed, a batch marks its points in bad."""
    far = abs(re) > tol
    if bad is not None:
        bad |= np.ravel(far)
    elif far:
        raise EvaluationFailed(
            "tail component %d evaluated to re part %g, not a zero divisor" % (l, re)
        )


def _realified_outputs(
    f: DualFunc, x, tol: float, bad: np.ndarray | None = None, stats: dict | None = None
) -> list:
    """f at the realified point (or batch of points) x, realified: head re
    parts, head ze parts, tail coefficients.  Where a tail output is not a
    zero divisor, one point raises EvaluationFailed and a batch marks the
    point in bad, as _walk does for inverses; tol is the zero tolerance of
    both tests."""
    s = f.codomain[0]
    vals = _walk(f._nodes, x, tol, bad, stats)
    out = [vals[p] for p in f._outputs]
    for l, (re, _) in enumerate(out[s:]):
        _check_tail(re, tol, l, bad)
    return [re for re, _ in out[:s]] + [ze for _, ze in out]


def _point(f: DualFunc, a: DualVector) -> list:
    """a's realified coordinates as floats, once its shape is f's domain."""
    if a.shape != f.domain:
        raise ShapeMismatch("point shape %r != domain %r" % (a.shape, f.domain))
    return a.array.tolist()


def eval_expr(e: Expr, x: DualVector, stats: dict | None = None) -> DualNumber:
    """Evaluate one expression at a point, as a one-output function.

    stats, when given, accumulates 'min_inv_re' (smallest |re| fed to an
    inverse) and 'max_abs' (largest intermediate magnitude) for taming
    sample-based tests.
    """
    return eval_func(DualFunc(x.shape, (1, 0), (e,)), x, stats=stats).head[0]


def eval_func(
    f: DualFunc, x: DualVector, tol: float | None = None, stats: dict | None = None
) -> DualVector:
    """Evaluate all components in one walk of f's node list; tail
    components must be zero divisors.  tol (the default when None) is the
    zero tolerance of the inverses and of the tail test.  stats: as in
    eval_expr."""
    out = _realified_outputs(f, _point(f, x), resolve_tol(tol), stats=stats)
    return unrealify(out, *f.codomain)


@np.errstate(over="ignore", invalid="ignore")
def numeric_jacobian(f: DualFunc, a: DualVector, h: float = FD_DEFAULT_STEP) -> np.ndarray:
    """Central-difference Jacobian on realified coordinates: the oracle for
    realified_jacobian and forward_derivative.

    Step per coordinate is h * (1 + |coordinate|); error is O(h**2).  The
    2(2n + m) probes, up then down for each coordinate, run as one batch.
    Raises ValueError unless h is finite and above 0, and EvaluationFailed
    where a probe cannot be evaluated or a quotient is not finite.
    """
    _positive(h, "difference step")
    base = realify(a)
    steps = h * (1.0 + np.abs(base))
    cols = np.arange(base.size)
    probes = np.repeat(base[None, :], 2 * base.size, axis=0)
    probes[2 * cols, cols] += steps
    probes[2 * cols + 1, cols] -= steps
    fx, _, exc = _eval_rows(f, probes)
    if exc is not None:
        raise EvaluationFailed("jacobian probe failed: %s" % exc)
    jac = ((fx[0::2] - fx[1::2]) / (2.0 * steps[:, None])).T
    if not np.isfinite(jac).all():
        raise EvaluationFailed("the difference quotients at the point are not finite")
    return jac


def _positive(x, what: str) -> None:
    """Raise ValueError naming what unless x is finite and above 0."""
    if not 0.0 < x < math.inf:
        raise ValueError("%s must be finite and above 0, got %r" % (what, x))


@np.errstate(over="ignore", invalid="ignore")
def _eval_batch(f: DualFunc, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f at the rows of points, realified, from one batched walk, and the
    mask of the rows that cannot be evaluated (their values mean nothing)."""
    bad = np.zeros(len(points), dtype=bool)
    out = _realified_outputs(f, points.T, resolve_tol(None), bad)
    values = np.empty((len(points), len(out)))
    for k, column in enumerate(out):
        values[:, k] = column
    return values, bad


def _eval_rows(f: DualFunc, points: np.ndarray) -> tuple[np.ndarray, int, Exception | None]:
    """f at the rows of points, realified, up to the first row that cannot
    be evaluated: the values before that row, its index (len(points) when
    every row evaluates) and eval_func's exception there.  A batch row does
    the same float operations as its point, so only the first marked row
    is replayed, for its exact exception."""
    values, bad = _eval_batch(f, points)
    if not bad.any():
        return values, len(points), None
    k = int(np.argmax(bad))
    try:
        eval_func(f, unrealify(points[k], *f.domain))
    except (NotInvertible, EvaluationFailed) as exc:
        return values[:k], k, exc
    raise AssertionError("row %d evaluates alone but not in its batch" % k)


def realified_jacobian(f: DualFunc, a: DualVector) -> np.ndarray:
    """Exact (2s + t) x (2n + m) Jacobian on realified coordinates: the
    derivative pass (_pass) at a, as a new array.  re_part and ze_part are
    real-linear, so they are differentiated too, and the block test sees
    their asymmetry.  As eval_func, raises NotInvertible where an inverse
    meets a re part within tolerance of zero, and EvaluationFailed where a
    tail output is not a zero divisor; a Jacobian that is not finite raises
    EvaluationFailed.
    """
    return _finite_pass(f, a)[0].copy()


def _finite_pass(f: DualFunc, a: DualVector) -> tuple:
    """_pass at a; EvaluationFailed where the Jacobian is not finite."""
    jac, values = _pass(f, a)
    if not np.isfinite(jac).all():
        raise EvaluationFailed("the Jacobian at the point is not finite")
    return jac, values


@np.errstate(over="ignore", invalid="ignore")
def _pass(f: DualFunc, a: DualVector) -> tuple:
    """f's realified Jacobian at the point a, read-only, in _jacobian's row
    order (head dre, head dze, tail dze), and its four block residuals:
    _gradients over the node list, then eval_func's tail test.  Raises
    NotInvertible at an inverse within the default tolerance of zero and
    then EvaluationFailed where a tail output is not a zero divisor; entries
    that are not finite are left to _finite_pass.  f keeps the last pass,
    keyed by the point's exact bytes and the default tolerance, so cr_check,
    realified_jacobian and forward_derivative at one point walk once.
    """
    x = _point(f, a)
    tol = resolve_tol(None)
    key = (a.array.tobytes(), tol)
    last = f.__dict__.get("_last_pass")
    if last is not None and last[0] == key:
        return last[1:]
    s = f.codomain[0]
    vals = _gradients(f._nodes, x, tol)
    out = [vals[p] for p in f._outputs]
    for l, (re, *_) in enumerate(out[s:]):
        _check_tail(re, tol, l, None)
    rows = np.array([o[2] for o in out[:s]] + [o[3] for o in out], dtype=float).reshape(len(out) + s, len(x))
    rows.setflags(write=False)
    values = tuple(float(r) for r in _residuals(rows, f.domain[0], s))
    object.__setattr__(f, "_last_pass", (key, rows, values))
    return rows, values


def _gradients(nodes, x: list, tol: float) -> list:
    """(re, ze, dre, dze) of the nodes of a lowered list at the realified
    point x, given as floats, with the gradients of re and ze as lists over
    the len(x) realified inputs.  This is _jacobian's loop for one point,
    with its float operations in its order, so every entry equals
    _jacobian's bit for bit.  An inverse within tol of zero raises
    NotInvertible."""
    zero = [0.0] * len(x)
    unit = [zero[:k] + [1.0] + zero[k + 1 :] for k in range(len(x))]
    vals = []
    for op, args, payload, freed in nodes:
        if op == "const":
            v = (payload[0], payload[1], zero, zero)
        elif op == "coord":
            r, z = payload
            re, dre = (0.0, zero) if r is None else (x[r], unit[r])
            v = (re, x[z], dre, unit[z])
        else:
            ur, uz, dur, duz = vals[args[0]]
            if op == "mul":
                vr, vz, dvr, dvz = vals[args[1]]
                dze = [ur * qz + uz * q + vr * pz + vz * p for p, q, pz, qz in zip(dur, dvr, duz, dvz)]
                v = (ur * vr, ur * vz + uz * vr, [ur * q + vr * p for p, q in zip(dur, dvr)], dze)
            elif op == "add":
                vr, vz, dvr, dvz = vals[args[1]]
                v = (ur + vr, uz + vz, [p + q for p, q in zip(dur, dvr)], [p + q for p, q in zip(duz, dvz)])
            elif op == "sub":
                vr, vz, dvr, dvz = vals[args[1]]
                v = (ur - vr, uz - vz, [p - q for p, q in zip(dur, dvr)], [p - q for p, q in zip(duz, dvz)])
            elif op == "inv":
                ur = _inverse_re(ur, tol, None)
                w = 1.0 / ur
                c, ww, nww = 2.0 * w * uz, w * w, -w * w
                dze = [ww * (c * p - pz) for p, pz in zip(dur, duz)]
                v = (w, -uz / (ur * ur), [nww * p for p in dur], dze)
            elif op == "neg":
                v = (-ur, -uz, [-p for p in dur], [-p for p in duz])
            elif op == "sharp":
                v = (0.0, ur, zero, dur)
            elif op == "re_part":
                v = (ur, 0.0, dur, zero)
            else:  # ze_part
                v = (uz, 0.0, duz, zero)
        vals.append(v)
        for k in freed:
            vals[k] = None
    return vals


def _jacobian(f: DualFunc, x: list, bad: np.ndarray) -> np.ndarray:
    """The realified Jacobian at a batch of S points, given as (S, 1)
    columns of realified coordinates, with bad an (S,) mask: values are
    columns, gradients are (S, 2n + m) rows (the float 0.0 while a gradient
    is zero), and the Jacobian has shape (2s + t, S, 2n + m).  A point with
    a singular inverse, a tail output that is not a zero divisor or a
    Jacobian that is not finite is marked in bad.  The single-point pass
    (_gradients) does the same float operations, so a batch row equals its
    point's pass.  Callers silence numpy's overflow warnings."""
    n, m = f.domain
    s, t = f.codomain
    tol = resolve_tol(None)
    unit = np.eye(2 * n + m)
    vals = []
    for op, args, payload, freed in f._nodes:
        if op == "const":
            vals.append((payload[0], payload[1], 0.0, 0.0))
            continue
        if op == "coord":
            r, z = payload
            re, dre = (0.0, 0.0) if r is None else (x[r], unit[r])
            vals.append((re, x[z], dre, unit[z]))
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
            ur = _inverse_re(ur, tol, bad)
            w = 1.0 / ur
            v = (w, -uz / (ur * ur), -w * w * dur, w * w * (2.0 * w * uz * dur - duz))
        elif op == "sharp":
            v = (0.0, ur, 0.0, dur)
        elif op == "re_part":
            v = (ur, 0.0, dur, 0.0)
        else:  # ze_part
            v = (uz, 0.0, duz, 0.0)
        vals.append(v)
        for k in freed:
            vals[k] = None
    jac = np.empty((2 * s + t,) + bad.shape + (2 * n + m,))
    for k, p in enumerate(f._outputs):
        re, _, dre, dze = vals[p]
        if k < s:
            jac[k] = dre
        else:
            _check_tail(re, tol, k - s, bad)
        jac[s + k] = dze
    bad |= ~np.isfinite(jac).all(axis=0).all(axis=-1)  # output axis first: contiguous
    return jac


_RESIDUAL_KEYS = ("head_re_dze", "ze_match", "head_re_dtail", "tail_dze")


def _residuals(jac: np.ndarray, n: int, s: int) -> list:
    """cr_check's four block residuals (largest absolute entry, 0.0 for an
    empty block) of a Jacobian, or per point of a batch, whose output axis
    goes first: the contiguous pass, and a maximum ignores the order."""
    blocks = (
        jac[0:s, ..., n : 2 * n],
        jac[0:s, ..., 0:n] - jac[s : 2 * s, ..., n : 2 * n],
        jac[0:s, ..., 2 * n :],
        jac[2 * s :, ..., n : 2 * n],
    )
    if jac.ndim == 2:
        return [np.abs(b).max() if b.size else 0.0 for b in blocks]
    return [np.abs(b).max(axis=0).max(axis=-1) if b.size else 0.0 for b in blocks]


def _derivative(rows: np.ndarray, f: DualFunc) -> ModuleMap:
    """f's derivative read off realified Jacobian rows in _jacobian's order
    (head dre, head dze, tail dze): the head re and tail columns, with
    c_re from the head dre rows."""
    (n, m), (s, t) = f.domain, f.codomain
    head, tail = rows[s : 2 * s], rows[2 * s :]
    return ModuleMap(n, m, s, t, rows[:s, :n], head[:, :n], head[:, 2 * n :], tail[:, :n], tail[:, 2 * n :])


@np.errstate(over="ignore", invalid="ignore")
def cr_check(f: DualFunc, a: DualVector, tol: float = CR_DEFAULT_TOL) -> CrReport:
    """Check the forced Jacobian block pattern at a point.

    The four residuals measure, on the exact realified Jacobian from
    realified_jacobian: head re parts driven by ze inputs, mismatch between
    the two copies of the re-to-re block, head re parts driven by tail
    inputs, and tail outputs driven by ze inputs.  When all four stay
    within tol, the derivative is read off the head re and tail columns as
    forward_derivative reads it.  Raises EvaluationFailed when f cannot be
    evaluated at a, or its Jacobian or a residual there is not finite, and
    ValueError when tol is not finite or below 0.  The derivative pass is
    kept per point, so forward_derivative or realified_jacobian at a
    afterwards does not walk again.
    """
    valid_bound(tol, "block tolerance")
    try:
        jac, values = _finite_pass(f, a)
    except NotInvertible as exc:
        raise EvaluationFailed("cannot differentiate at the point: %s" % exc) from exc
    if not all(map(math.isfinite, values)):
        raise EvaluationFailed("the block residuals at the point are not finite")
    residuals = dict(zip(_RESIDUAL_KEYS, values))
    passed = all(r <= tol for r in values)
    deriv = _derivative(jac, f) if passed else None
    return CrReport(point=a, passed=passed, residuals=residuals, derivative=deriv)


@np.errstate(over="ignore", invalid="ignore")
def _cr_rows(f: DualFunc, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cr_check at each row of the realified points, in one batched pass:
    the (S, 4) array of its residuals per row (_RESIDUAL_KEYS order) and the
    mask of the rows where it would raise, a residual that is not finite
    included.  An unmarked row's residuals equal cr_check's bit for bit; a
    caller replays a marked row through cr_check for its message.  An empty
    batch walks nothing."""
    bad = np.zeros(len(points), dtype=bool)
    if not len(points):
        return np.empty((0, len(_RESIDUAL_KEYS))), bad
    jac = _jacobian(f, list(points.T[:, :, None]), bad)
    residuals = np.empty((len(points), len(_RESIDUAL_KEYS)))
    for k, r in enumerate(_residuals(jac, f.domain[0], f.codomain[0])):
        residuals[:, k] = r
    bad |= ~np.isfinite(residuals).all(axis=1)
    return residuals, bad


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
    radius to be at most tol.  The base point and all levels x samples
    probes go through one batched walk of f's node list, and the quotients
    are taken on realified coordinates.  A base point or probe that cannot
    be evaluated raises EvaluationFailed, naming the first failure in
    (base, level, direction) order.  A tol that is not finite or below 0
    raises ValueError, and so does a radius, or a smallest radius
    radius / 2**(levels - 1), that is not finite and above 0.
    """
    valid_bound(tol, "limit tolerance")
    if samples < 1 or levels < 1:
        raise ValueError("limit_check needs at least one sample and one level")
    _positive(radius, "limit radius")
    _positive(math.ldexp(radius, 1 - levels), "smallest limit radius")
    n, m = f.domain
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, 2 * n + m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = _point(f, a)
    radii = radius / 2.0 ** np.arange(levels)
    probes = (base + radii[:, None, None] * dirs).reshape(-1, 2 * n + m)
    fx, k, exc = _eval_rows(f, np.vstack([base, probes]))
    if exc is not None:
        where = "cannot evaluate at the base point" if k == 0 else "probe at radius %g failed" % radii[(k - 1) // samples]
        raise EvaluationFailed("%s: %s" % (where, exc))
    fa, fx = fx[0], fx[1:]
    steps = probes - base
    rem = fx - fa - (steps[:, None, :] * realify_map(deriv)).sum(axis=2)
    quot = row_norms(rem, f.codomain[0]) / row_norms(steps, n)
    return bool(quot[-samples:].max() <= tol)


def forward_derivative(f: DualFunc, a: DualVector) -> ModuleMap:
    """The derivative of f at a as a module map: the head re and tail
    columns of the derivative pass (_pass), shared with cr_check, so a call
    after it at a walks and measures nothing.  Raises what
    realified_jacobian raises at a (NotInvertible, then EvaluationFailed),
    then NonSmoothExpression unless all four block residuals are exactly
    0.0, that is unless the Jacobian has a module map's block pattern."""
    rows, values = _finite_pass(f, a)
    for key, r in zip(_RESIDUAL_KEYS, values):
        if r:
            raise NonSmoothExpression("not differentiable in the dual sense at the point: %s residual %g" % (key, r))
    return _derivative(rows, f)


def compose_funcs(outer: DualFunc, inner: DualFunc) -> DualFunc:
    """Substitute inner's components into outer's coordinate leaves.

    The composite's node list is spliced from its parts' lists; no Expr is
    built.  It holds inner's nodes as they are, then outer's, renumbered,
    with each coord read as inner's output for its slot and a const whose
    payload is the very tuple of one of inner's consts read as that node
    (as when a composite is composed again with one of its parts); inner
    nodes that nothing reads are dropped, since they could fail.  Every
    node keeps its float operations, so nodes that outer shares stay shared
    and repeated composition grows linearly."""
    if inner.codomain != outer.domain:
        raise ShapeMismatch(
            "cannot compose: inner codomain %r != outer domain %r"
            % (inner.codomain, outer.domain)
        )
    s_in = inner.codomain[0]
    nodes = [node[:3] for node in inner._nodes]
    shared = {id(payload): k for k, (op, _, payload) in enumerate(nodes) if op == "const"}
    pos = []  # per outer node: its composite node
    for op, args, payload, _ in outer._nodes:
        if op == "coord":
            # a coord's ze column less s_in is its output index in inner
            k = inner._outputs[payload[1] - s_in]
        elif op == "const" and id(payload) in shared:
            k = shared[id(payload)]
        else:
            k = len(nodes)
            nodes.append((op, tuple([pos[a] for a in args]), payload))
        pos.append(k)
    nodes, outputs = _link(nodes, [pos[p] for p in outer._outputs])
    f = object.__new__(DualFunc)  # already lowered: no __post_init__
    vars(f).update(domain=inner.domain, codomain=outer.codomain, _nodes=nodes, _outputs=outputs)
    return f


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
