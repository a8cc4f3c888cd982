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
block pattern of a module map.  One derivative loop (_gradients) gives
that Jacobian: a walk over the node list that carries each node's value and
its gradient rows over the 2n + m realified inputs.  R^(2) is forward mode
itself, so each arithmetic op's rule is written once, in _KERNEL_RULES, and
rendered twice (_kernels): as straight-line functions on tuples, compiled
once per gradient width and process (about 1 ms at width 5 and 0.1 s at
1,000), for one point (_pass), and once over whole-array rows for a batch
of points (_jacobian, the batched block test _cr_rows).  So a batch row
does its point's float operations and equals its pass bit for bit.  The
pass is kept per point, so cr_check, realified_jacobian and
forward_derivative at one point walk once.  cr_check measures the four
forced identities on it, in Python floats on the pass's own tuples, and
reads the derivative off its head re and tail columns when they hold;
forward_derivative returns that same derivative, kept with the pass, where
all four hold exactly.  re_part and ze_part are the one form of a real
projection (coord's "re" and "ze" components build them on the full
coord): maps that are smooth over the reals yet fail the block pattern.
One loop over the node list, run on first use and cached, gives each node
a smoothness class (_classes); where a function it proves has a finite
Jacobian, the four block residuals are exactly 0.0, so verify_atlas builds
no Jacobian for the proved standard transitions where it can bound theirs
as finite.  For a proved function with no inverse, one scalar pass over
the node list (_magnitudes) bounds every float of the derivative loop at
a batch's largest coordinate, after interval arithmetic's rules; where
those bounds are finite, the batched block test (_cr_rows) returns the
zero residuals without building the Jacobian.
numeric_jacobian is the central-difference oracle for both derivatives.
"""

from __future__ import annotations

import functools
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
# The widest realified domain, 2n + m, that DualFunc.from_json reads: a
# batched Jacobian holds a (2n + m)-square identity, and the single-point
# pass compiles kernels of that width (0.1 s at 1,000), so wider input is
# refused before any array is built.
MAX_WIDTH = 1024

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


@dataclass(frozen=True, eq=False, init=False)
class Expr:
    op: str
    args: tuple["Expr", ...] = ()
    value: DualNumber | None = None
    part: str | None = None
    slot: int | None = None

    def __init__(self, op, args=(), value=None, part=None, slot=None):
        """The dataclass fields, validated and stored in one update of the
        instance dict: construction is paid once per node built, and an
        expression is mostly read once, by lower."""
        arity = _OPS.get(op)
        if arity is None:
            raise ValueError("unknown expression op %r" % op)
        if len(args) != arity:
            raise ValueError("op %r takes %d arguments, got %d" % (op, arity, len(args)))
        self.__dict__.update(op=op, args=tuple(args), value=value, part=part, slot=slot)

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
    if not isinstance(x, DualNumber):
        if not isinstance(x, (float, int, numbers.Real)):  # the ABC test last: it is slow
            raise TypeError("cannot treat %r as an expression" % (x,))
        x = DualNumber(float(x), 0.0)
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
        n, m = domain = _shape(domain, "domain")
        if 2 * n + m > MAX_WIDTH:
            raise ValueError("domain %r has realified width 2n + m = %d, above the bound %d" % (domain, 2 * n + m, MAX_WIDTH))
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
    rows (dre, dze) in the derivative loop (_gradients, which does the
    float operations of _KERNEL_RULES for a point and a batch alike), whose
    columns are head re parts A, head ze parts B and tail coefficients C.
    Call a float null when it is zero or not finite, and two floats
    matched when they are equal or one is not finite.
    - CLEAN: dre[B] is null (re depends on head re parts and tails only).
    - DUAL: CLEAN, dre[C] is null, and dre[A] matches dze[B] entry by entry.
    - EPS: DUAL, and re, dre and dze[B] are null.
    - REAL: CLEAN, and ze and dze are null.
    So EPS ⊂ DUAL ⊂ CLEAN and REAL ⊂ CLEAN.  Each property is a bit, so a
    node can be in two classes (a real constant is DUAL and REAL), and the
    class two operands share is the bitwise and of theirs.

    Proof sketch.  Each rule below keeps its properties through the float
    operations that _KERNEL_RULES writes for the arithmetic ops (and
    _gradients for the others); this is the chain rule in R^(2).  In IEEE
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
    if not (small.any() if isinstance(small, np.ndarray) else small):
        return ur  # no point is singular: no mask update and no copy
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


def _finite_pass(f: DualFunc, a: DualVector) -> list:
    """_pass at a; EvaluationFailed where the Jacobian is not finite."""
    kept = _pass(f, a)
    if kept[1] is None:
        raise EvaluationFailed("the Jacobian at the point is not finite")
    return kept


def _pass(f: DualFunc, a: DualVector) -> list:
    """[rows, residuals, derivative] at the point a: f's realified Jacobian,
    read-only, in _jacobian's row order (head dre, head dze, tail dze), its
    four block residuals (_point_residuals) where it is finite and None
    where it is not, and None in place of the derivative, which _derivative
    builds on first use.  _gradients over the node list, then eval_func's
    tail test.  Raises NotInvertible at an inverse within the default
    tolerance of zero and then EvaluationFailed where a tail output is not
    a zero divisor; a Jacobian that is not finite is left to _finite_pass.
    f keeps the last pass, keyed by the point's exact bytes and the default
    tolerance, so cr_check, realified_jacobian and forward_derivative at
    one point walk once and share one derivative.
    """
    x = _point(f, a)
    tol = resolve_tol(None)
    key = (a.array.tobytes(), tol)
    last = f.__dict__.get("_last_pass")
    if last is not None and last[0] == key:
        return last[1]
    s = f.codomain[0]
    vals = _gradients(f._nodes, x, tol)
    out = [vals[p] for p in f._outputs]
    for l, (re, *_) in enumerate(out[s:]):
        _check_tail(re, tol, l, None)
    rows = np.array([o[2] for o in out[:s]] + [o[3] for o in out], dtype=float).reshape(len(out) + s, len(x))
    rows.setflags(write=False)
    finite = np.isfinite(rows).all()
    kept = [rows, _point_residuals(out, f.domain[0], s) if finite else None, None]
    object.__setattr__(f, "_last_pass", (key, kept))
    return kept


def _gradients(nodes, x: list, tol: float, bad: np.ndarray | None = None) -> list:
    """(re, ze, dre, dze) of the nodes of a lowered list at the realified
    point x, with the gradients of re and ze over the len(x) realified
    inputs: the one derivative loop, the chain rule in R^(2).  With no bad
    mask, x holds floats for one point and gradients are tuples; with an
    (S,) mask, x holds (S, 1) columns for a batch of S points, gradients
    are (S, len(x)) rows and the float 0.0 is the zero gradient.  The
    arithmetic ops run the kernels of _kernels, one rendering of
    _KERNEL_RULES for each form, so a batch row does its point's float
    operations and equals it bit for bit.  An inverse within tol of zero
    raises NotInvertible for one point and marks the point in bad for a
    batch (see _inverse_re)."""
    if bad is None:
        kernels, zero, unit = _kernels(len(x))
    else:
        kernels, zero, unit = _kernels(None)[0], 0.0, np.eye(len(x))
    vals = []
    for op, args, payload, freed in nodes:
        if op == "const":
            v = (payload[0], payload[1], zero, zero)
        elif op == "coord":
            r, z = payload
            re, dre = (0.0, zero) if r is None else (x[r], unit[r])
            v = (re, x[z], dre, unit[z])
        else:
            u = vals[args[0]]
            kernel = kernels.get(op)
            if kernel is not None:
                if op == "inv":
                    ur = _inverse_re(u[0], tol, bad)
                    if ur is not u[0]:  # a batch divides by 1.0 at its marked points
                        u = (ur,) + u[1:]
                v = kernel(u, vals[args[-1]])  # u again for one argument
            elif op == "sharp":
                v = (0.0, u[0], zero, u[2])
            elif op == "re_part":
                v = (u[0], 0.0, u[2], zero)
            else:  # ze_part
                v = (u[1], 0.0, u[3], zero)
        vals.append(v)
        for k in freed:
            vals[k] = None
    return vals


# Per arithmetic op: statements before the result, the value (re, ze), and
# its dre and dze rows as one entry, where p and pz are that entry of the
# first argument's rows and q and qz of the second's: the one place where
# an op's derivative float operations, and their order, are written.
_KERNEL_RULES = {
    "add": ("", "ur + vr", "uz + vz", "{p} + {q}", "{pz} + {qz}"),
    "sub": ("", "ur - vr", "uz - vz", "{p} - {q}", "{pz} - {qz}"),
    "mul": ("", "ur * vr", "ur * vz + uz * vr", "ur * {q} + vr * {p}", "ur * {qz} + uz * {q} + vr * {pz} + vz * {p}"),
    "neg": ("", "-ur", "-uz", "-{p}", "-{pz}"),
    "inv": ("w = 1.0 / ur; c, ww, nww = 2.0 * w * uz, w * w, -w * w", "w", "-uz / (ur * ur)", "nww * {p}", "ww * (c * {p} - {pz})"),
}


@functools.lru_cache(maxsize=64)
def _kernels(w: int | None) -> tuple:
    """One straight-line function per arithmetic op, kernel(u, v) -> (re,
    ze, dre, dze) for arguments in _gradients' form (v is u for one
    argument), by op; the zero gradient; and the unit gradients.  For a
    width w, gradients are tuples of w floats, each entry written out; for
    None, they are whole array rows, for every width (zero and unit are
    then None).  Generated from _KERNEL_RULES and compiled once per width
    and process (about 1 ms at width 5, 0.1 s at 1,000)."""

    def row(pattern):  # a tuple display of pattern's entries k < w, or one whole row
        if w is None:
            return pattern.format(p="p", pz="pz", q="q", qz="qz")
        return "(%s)" % "".join(pattern.format(p="p%d" % k, pz="pz%d" % k, q="q%d" % k, qz="qz%d" % k) + ", " for k in range(w))

    source = []
    for op, (before, re, ze, dre, dze) in _KERNEL_RULES.items():
        source += ["def %s(u, v):" % op, "    ur, uz, %s, %s = u" % (row("{p}"), row("{pz}"))]
        if "{q}" in dre:  # a binary op
            source.append("    vr, vz, %s, %s = v" % (row("{q}"), row("{qz}")))
        if before:
            source.append("    " + before)
        source.append("    return %s, %s, %s, %s" % (re, ze, row(dre), row(dze)))
    namespace = {}
    exec(compile("\n".join(source), "<gradient kernels, width %s>" % ("any" if w is None else w), "exec"), namespace)
    kernels = {op: namespace[op] for op in _KERNEL_RULES}
    if w is None:
        return kernels, None, None
    zero = (0.0,) * w
    unit = tuple([zero[:k] + (1.0,) + zero[k + 1 :] for k in range(w)])
    return kernels, zero, unit


def _magnitudes(nodes, big: float) -> list | None:
    """Bounds on the derivative loop's floats (_gradients) at every node of
    a lowered list, at every point whose realified coordinates are at most
    big in size, in Python floats: per node (R, Z, (DR,), (DZ,)), with
    |re| <= R, |ze| <= Z and every entry of the dre and dze rows at most
    DR and DZ, which is _gradients' form at width 1.  None at the first
    inverse, which this pass does not bound.

    Rules: a const bounds by the absolute values of its payload, with zero
    gradients; a coord by big (a tail's re part by 0.0), with unit
    gradients; add and sub by the width-1 add kernel of _kernels, mul by
    its mul kernel; neg by its argument's bounds; sharp, re_part and
    ze_part move entries as _gradients does.  Each op of _OPS has its
    rule, and an unknown op raises.

    Proof sketch.  Every add and mul rule of _KERNEL_RULES is a sum of
    products, |a - b| <= |a| + |b|, and round-to-nearest is monotone and
    symmetric in sign: where A and B bound |a| and |b|, fl(A * B) bounds
    |fl(a * b)| and fl(A + B) bounds |fl(a + b)| and |fl(a - b)|.  So a
    kernel run on bounds, float operation for float operation, bounds
    what the loop computes for that op, exactly and with no fudge factor.
    Sums and products of nonnegative floats send inf and NaN to inf or
    NaN, and only sharp, re_part and ze_part drop an entry, whose float
    the loop drops too; so a finite bound is made of finite bounds only,
    and by induction over the nodes it bounds the loop's float there.

    Hence, where f is proved (_proved), meets no inverse, and its outputs'
    bounds at big = the largest coordinate magnitude of a batch are all
    finite, every row of that batch has a finite Jacobian and no singular
    inverse, and each tail output, being EPS, has a null and finite re
    part, ±0.0, which passes the tail test: by _classes, every block
    residual is exactly +0.0 and no row is marked.  _cr_rows returns that
    without building the Jacobian.
    """
    kernels, zero, unit = _kernels(1)
    add, mul = kernels["add"], kernels["mul"]
    vals = []
    for op, args, payload, freed in nodes:
        if op == "const":
            v = (abs(payload[0]), abs(payload[1]), zero, zero)
        elif op == "coord":
            v = (big, big, unit[0], unit[0]) if payload[0] is not None else (0.0, big, zero, unit[0])
        elif op == "inv":
            return None
        else:
            u = vals[args[0]]
            if op == "add" or op == "sub":
                v = add(u, vals[args[1]])
            elif op == "mul":
                v = mul(u, vals[args[1]])
            elif op == "neg":
                v = u
            elif op == "sharp":
                v = (0.0, u[0], zero, u[2])
            elif op == "re_part":
                v = (u[0], 0.0, u[2], zero)
            elif op == "ze_part":
                v = (u[1], 0.0, u[3], zero)
            else:
                raise ValueError("no magnitude rule for op %r" % op)
        vals.append(v)
        for k in freed:
            vals[k] = None
    return vals


def _settled(f: DualFunc, points: np.ndarray) -> bool:
    """Does the block test pass at every row of points for certain, so
    that it needs no Jacobian?  It does where f is proved and _magnitudes
    bounds all its outputs finitely at the batch's largest coordinate
    magnitude (see there)."""
    if not _proved(f):
        return False
    bounds = _magnitudes(f._nodes, float(np.abs(points).max(initial=0.0)))
    return bounds is not None and all(math.isfinite(b) for p in f._outputs for b in (*bounds[p][:2], *bounds[p][2], *bounds[p][3]))


def _jacobian(f: DualFunc, x: list, bad: np.ndarray) -> np.ndarray:
    """The realified Jacobian at a batch of S points, given as (S, 1)
    columns of realified coordinates, with bad an (S,) mask: the batched
    derivative loop (_gradients), then eval_func's tail test per output.
    The Jacobian has shape (2s + t, S, 2n + m), and a point with a singular
    inverse, a tail output that is not a zero divisor or a Jacobian that
    is not finite is marked in bad.  Callers silence numpy's overflow
    warnings."""
    n, m = f.domain
    s, t = f.codomain
    tol = resolve_tol(None)
    vals = _gradients(f._nodes, x, tol, bad)
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
    empty block) per point of a batched Jacobian (see _jacobian), whose
    output axis goes first: the contiguous pass, and a maximum ignores the
    order.  One point's pass uses _point_residuals."""
    blocks = (
        jac[0:s, :, n : 2 * n],
        jac[0:s, :, 0:n] - jac[s : 2 * s, :, n : 2 * n],
        jac[0:s, :, 2 * n :],
        jac[2 * s :, :, n : 2 * n],
    )
    return [np.abs(b).max(axis=0).max(axis=-1) if b.size else 0.0 for b in blocks]


def _point_residuals(out: list, n: int, s: int) -> tuple[float, ...]:
    """_residuals of one point whose Jacobian is finite, from the pass's
    output tuples (re, ze, dre, dze), in Python floats: the same
    differences of the same entries (one may overflow to inf), so each
    value equals _residuals' on a batch of that one point."""
    head = out[:s]
    blocks = (
        [p for o in head for p in o[2][n : 2 * n]],
        [p - q for o in head for p, q in zip(o[2][:n], o[3][n : 2 * n])],
        [p for o in head for p in o[2][2 * n :]],
        [p for o in out[s:] for p in o[3][n : 2 * n]],
    )
    return tuple([max(map(abs, b), default=0.0) for b in blocks])


def _derivative(kept: list, f: DualFunc) -> ModuleMap:
    """f's derivative read off the rows of a kept pass (_pass): the head
    re and tail columns, with c_re from the head dre rows.  Built once and
    kept with the pass."""
    if kept[2] is None:
        (n, m), (s, t) = f.domain, f.codomain
        rows = kept[0]
        head, tail = rows[s : 2 * s], rows[2 * s :]
        # views of rows, which are read-only and which every caller has
        # found finite (_finite_pass): what ModuleMap's checks would give
        lam = object.__new__(ModuleMap)
        vars(lam).update(n=n, m=m, s=s, t=t, c_re=rows[:s, :n], c_ze=head[:, :n], p=head[:, 2 * n :], d=tail[:, :n], q=tail[:, 2 * n :])
        kept[2] = lam
    return kept[2]


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
        kept = _finite_pass(f, a)
    except NotInvertible as exc:
        raise EvaluationFailed("cannot differentiate at the point: %s" % exc) from exc
    values = kept[1]
    if not all(map(math.isfinite, values)):
        raise EvaluationFailed("the block residuals at the point are not finite")
    residuals = dict(zip(_RESIDUAL_KEYS, values))
    passed = all(r <= tol for r in values)
    deriv = _derivative(kept, f) if passed else None
    return CrReport(point=a, passed=passed, residuals=residuals, derivative=deriv)


@np.errstate(over="ignore", invalid="ignore")
def _cr_rows(f: DualFunc, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cr_check at each row of the realified points, in one batched pass:
    the (S, 4) array of its residuals per row (_RESIDUAL_KEYS order) and the
    mask of the rows where it would raise, a residual that is not finite
    included.  An unmarked row's residuals equal cr_check's bit for bit; a
    caller replays a marked row through cr_check for its message.  An empty
    batch walks nothing, and a batch that _settled passes (a proved
    function with no inverse whose magnitudes stay finite at the batch's
    coordinates) gets residuals of +0.0 and no mark, what its Jacobian
    would give, without building it."""
    bad = np.zeros(len(points), dtype=bool)
    if not len(points):
        return np.empty((0, len(_RESIDUAL_KEYS))), bad
    if _settled(f, points):
        return np.zeros((len(points), len(_RESIDUAL_KEYS))), bad
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
    radius / 2**(levels - 1), that is not finite and above 0, or a probe at
    the smallest radius whose distance from the base point rounds to 0 (its
    quotient would be 0 / 0).  samples, levels and seed must be
    nonnegative integers (a bool, a negative or a float such as 2.5 or 3.0
    raises ValueError naming the argument), and samples and levels at
    least 1; the unit directions of one seed, sample count and width are
    drawn once per process (_directions).
    """
    valid_bound(tol, "limit tolerance")
    samples, levels = as_index(samples, "limit samples"), as_index(levels, "limit levels")
    if samples < 1 or levels < 1:
        raise ValueError("limit_check needs at least one sample and one level")
    _positive(radius, "limit radius")
    _positive(math.ldexp(radius, 1 - levels), "smallest limit radius")
    n, m = f.domain
    width = 2 * n + m
    dirs = _directions(as_index(seed, "limit seed"), samples, width)
    base = np.array(_point(f, a))
    radii = radius / 2.0 ** np.arange(levels)
    points = np.empty((1 + levels * samples, width))  # the base point, then the probes
    points[0] = base
    np.add(base, radii[:, None, None] * dirs, out=points[1:].reshape(levels, samples, width))
    probes = points[1:]
    steps = probes - base
    dist = row_norms(steps, n)
    if not dist[-samples:].all():
        raise ValueError("a probe at the smallest limit radius %g is at distance 0 from the base point" % radii[-1])
    fx, k, exc = _eval_rows(f, points)
    if exc is not None:
        where = "cannot evaluate at the base point" if k == 0 else "probe at radius %g failed" % radii[(k - 1) // samples]
        raise EvaluationFailed("%s: %s" % (where, exc))
    fa, fx = fx[0], fx[1:]
    rem = fx - fa - (steps[:, None, :] * realify_map(deriv)).sum(axis=2)
    quot = row_norms(rem, f.codomain[0]) / dist
    return bool(quot[-samples:].max() <= tol)


@functools.lru_cache(maxsize=32)
def _directions(seed: int, samples: int, width: int) -> np.ndarray:
    """limit_check's unit directions: samples normal draws of the given
    width from seed, each divided by its Euclidean norm; drawn once per
    argument triple and process, and read-only."""
    dirs = np.random.default_rng(seed).normal(size=(samples, width))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs.setflags(write=False)
    return dirs


def forward_derivative(f: DualFunc, a: DualVector) -> ModuleMap:
    """The derivative of f at a as a module map: the head re and tail
    columns of the derivative pass (_pass), shared with cr_check, so a call
    after it at a walks and measures nothing.  Raises what
    realified_jacobian raises at a (NotInvertible, then EvaluationFailed),
    then NonSmoothExpression unless all four block residuals are exactly
    0.0, that is unless the Jacobian has a module map's block pattern."""
    kept = _finite_pass(f, a)
    for key, r in zip(_RESIDUAL_KEYS, kept[1]):
        if r:
            raise NonSmoothExpression("not differentiable in the dual sense at the point: %s residual %g" % (key, r))
    return _derivative(kept, f)


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
