"""Projective space over split vectors, its standard charts, and atlas checking.

A point of the (n, m) projective space is a shape (n + 1, m + 1) vector with
at least one invertible head entry and at least one nonzero tail entry, up
to independent rescaling of the heads (by an invertible dual scalar) and the
tails (by a nonzero real).  Chart (i, j) divides out head slot i and tail
slot j; transitions between charts are rational expressions suitable for
smoothness checking.

verify_atlas samples points and checks that chart images are open (probe
balls stay inside the image), that charts are injective on samples, and
that every transition passes the derivative block test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from dualmod.core import (
    ONE,
    DualNumber,
    DualVector,
    NotInvertible,
    ShapeMismatch,
    as_index,
    inv,
    mul,
    resolve_tol,
    vector_norm,
    with_head_entry,
    with_tail_entry,
)
from dualmod.diff import (
    DualFunc,
    EvaluationFailed,
    Expr,
    compose_funcs,
    const,
    coord,
    cr_check,
    eval_func,
    eval_lowered,
    inv_expr,
    lower,
    sharp_expr,
)
from dualmod.linalg import realify, unrealify


class InvalidRepresentative(ValueError):
    """The vector lies in one of the two excluded closed sets."""


class NotInChart(ValueError):
    """The point misses the chart's invertibility requirements."""


def is_valid_rep(x: DualVector, n: int, m: int, tol: float | None = None) -> bool:
    """Valid iff some head entry is invertible and some tail entry nonzero."""
    if x.shape != (n + 1, m + 1):
        raise ShapeMismatch(
            "representative shape %r != ambient %r" % (x.shape, (n + 1, m + 1))
        )
    tol = resolve_tol(tol)
    return any(abs(h.re) > tol for h in x.head) and any(
        abs(r) > tol for r in x.tail
    )


@dataclass(frozen=True)
class ProjectivePoint:
    """A validated representative; (n, m) are the chart dimensions."""

    rep: DualVector

    def __post_init__(self):
        rep = self.rep
        if rep.n < 1 or rep.m < 1:
            raise InvalidRepresentative(
                "ambient shape %r leaves no projective directions" % (rep.shape,)
            )
        if not is_valid_rep(rep, rep.n - 1, rep.m - 1):
            raise InvalidRepresentative(
                "representative needs an invertible head and a nonzero tail"
            )

    @property
    def n(self) -> int:
        return self.rep.n - 1

    @property
    def m(self) -> int:
        return self.rep.m - 1


def _rep_of(x) -> DualVector:
    return x.rep if isinstance(x, ProjectivePoint) else x


def equivalent(x, y, tol: float | None = None) -> bool:
    """Decide y = (s heads, t tails) . x for invertible dual s, real t != 0."""
    x, y = _rep_of(x), _rep_of(y)
    if x.shape != y.shape:
        raise ShapeMismatch("shapes %r and %r differ" % (x.shape, y.shape))
    n, m = x.shape[0] - 1, x.shape[1] - 1
    tol = resolve_tol(tol)
    for v in (x, y):
        if not is_valid_rep(v, n, m, tol):
            raise InvalidRepresentative("equivalence needs valid representatives")
    scale = 1.0 + max(
        float(np.abs(realify(x)).max()), float(np.abs(realify(y)).max())
    )
    i0 = _argmax_head_re(x)
    s = mul(y.head[i0], inv(x.head[i0], tol=0.0))
    if abs(s.re) <= tol:
        return False
    for a in range(n + 1):
        d = y.head[a] - mul(s, x.head[a])
        if abs(d.re) > tol * scale or abs(d.ze) > tol * scale:
            return False
    j0 = _argmax_tail(x)
    t = y.tail[j0] / x.tail[j0]
    if abs(t) <= tol:
        return False
    for b in range(m + 1):
        if abs(y.tail[b] - t * x.tail[b]) > tol * scale:
            return False
    return True


def _argmax_head_re(x: DualVector) -> int:
    best, best_mag = 0, -1.0
    for a, h in enumerate(x.head):
        if abs(h.re) > best_mag:
            best, best_mag = a, abs(h.re)
    return best


def _argmax_tail(x: DualVector) -> int:
    best, best_mag = 0, -1.0
    for b, r in enumerate(x.tail):
        if abs(r) > best_mag:
            best, best_mag = b, abs(r)
    return best


def canonical_rep(x, tol: float | None = None) -> DualVector:
    """Normalize: pivot heads so the largest-re slot is exactly 1, pivot
    tails so the largest slot is exactly 1.  Idempotent; equivalent inputs
    agree on the output."""
    x = _rep_of(x)
    n, m = x.shape[0] - 1, x.shape[1] - 1
    if not is_valid_rep(x, n, m, tol):
        raise InvalidRepresentative("cannot normalize an invalid representative")
    i0 = _argmax_head_re(x)
    s = inv(x.head[i0], tol=0.0)
    head = tuple(mul(s, h) for h in x.head)
    j0 = _argmax_tail(x)
    t = x.tail[j0]
    tail = tuple(r / t for r in x.tail)
    out = DualVector(head, tail)
    out = with_head_entry(out, i0, ONE)
    out = with_tail_entry(out, j0, 1.0)
    return out


def in_chart(i: int, j: int, p, tol: float | None = None) -> bool:
    x = _rep_of(p)
    tol = resolve_tol(tol)
    return abs(x.head[i].re) > tol and abs(x.tail[j]) > tol


def chart_map(i: int, j: int, p, tol: float | None = None) -> DualVector:
    """Divide out head slot i and tail slot j."""
    x = _rep_of(p)
    n, m = x.shape[0] - 1, x.shape[1] - 1
    _check_chart_index(i, j, n, m)
    if not in_chart(i, j, p, tol):
        raise NotInChart("point misses chart (%d, %d)" % (i, j))
    pivot = inv(x.head[i], tol=0.0)
    head = tuple(mul(x.head[a], pivot) for a in range(n + 1) if a != i)
    tail = tuple(x.tail[b] / x.tail[j] for b in range(m + 1) if b != j)
    return DualVector(head, tail)


def chart_inverse(i: int, j: int, u: DualVector) -> ProjectivePoint:
    """Insert 1 at head slot i and a unit eps coefficient at tail slot j."""
    n, m = u.shape
    _check_chart_index(i, j, n, m)
    head = list(u.head)
    head.insert(i, ONE)
    tail = list(u.tail)
    tail.insert(j, 1.0)
    return ProjectivePoint(DualVector(tuple(head), tuple(tail)))


def _check_chart_index(i, j, n, m):
    if not (0 <= i <= n and 0 <= j <= m):
        raise IndexError("chart (%d, %d) out of range for (%d, %d)" % (i, j, n, m))


@dataclass(frozen=True)
class TransitionMap:
    """A chart-to-chart change of coordinates with its domain predicate.

    The point is inside the domain when the predicate evaluates with
    invertible re part.
    """

    func: DualFunc
    domain: Expr

    def __post_init__(self):
        # lowered once, as DualFunc lowers its components; not a field
        object.__setattr__(self, "_predicate", lower((self.domain,), self.func.domain))


def transition(i: int, j: int, k: int, l: int, n: int, m: int) -> TransitionMap:
    """Coordinates of chart (k, l) as expressions in chart (i, j) coordinates.

    Head outputs are dual ratios; tail outputs are real ratios re-embedded
    as eps coefficients, which keeps the whole map inside the expression
    language."""
    _check_chart_index(i, j, n, m)
    _check_chart_index(k, l, n, m)
    heads = []
    for a in range(n + 1):
        if a == i:
            heads.append(const(ONE))
        else:
            heads.append(coord("head", a if a < i else a - 1))
    # real coefficients of the homogeneous tail entries
    coeffs = []
    for b in range(m + 1):
        if b == j:
            coeffs.append(const(ONE))
        else:
            coeffs.append(coord("tail", b if b < j else b - 1, "ze"))
    comps = []
    inv_pivot = inv_expr(heads[k])
    for a in range(n + 1):
        if a != k:
            comps.append(Expr("mul", (heads[a], inv_pivot)))
    inv_coeff = inv_expr(coeffs[l])
    for b in range(m + 1):
        if b != l:
            comps.append(sharp_expr(Expr("mul", (coeffs[b], inv_coeff))))
    func = DualFunc((n, m), (n, m), tuple(comps))
    predicate = Expr("mul", (heads[k], coeffs[l]))
    return TransitionMap(func, predicate)


def in_transition_domain(trans: TransitionMap, u: DualVector, tol=None) -> bool:
    if u.shape != trans.func.domain:
        raise ShapeMismatch("point shape %r != domain %r" % (u.shape, trans.func.domain))
    return _re_invertible(trans._predicate, u, resolve_tol(tol))


def _re_invertible(predicate, x: DualVector, tol: float) -> bool:
    try:
        return abs(eval_lowered(predicate, x).re) > tol
    except NotInvertible:
        return False


@dataclass(frozen=True)
class ProjectiveAtlas:
    """The standard chart family on the (n, m) projective space."""

    n: int
    m: int
    charts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n", as_index(self.n, "n"))
        object.__setattr__(self, "m", as_index(self.m, "m"))
        if self.n < 0 or self.m < 0:
            raise ValueError("negative dimensions (%d, %d)" % (self.n, self.m))
        charts = tuple(
            (as_index(i, "chart index"), as_index(j, "chart index")) for i, j in self.charts
        ) or tuple((i, j) for i in range(self.n + 1) for j in range(self.m + 1))
        for i, j in charts:
            if not (0 <= i <= self.n and 0 <= j <= self.m):
                raise ValueError(
                    "chart (%d, %d) out of range for (%d, %d)" % (i, j, self.n, self.m)
                )
        object.__setattr__(self, "charts", charts)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "charts": [{"i": i, "j": j} for i, j in self.charts],
        }

    @classmethod
    def from_json(cls, data) -> "ProjectiveAtlas":
        try:
            charts = tuple((c["i"], c["j"]) for c in data.get("charts", []))
        except (KeyError, TypeError):
            raise ValueError('each chart must be an object with "i" and "j"') from None
        return cls(data["n"], data["m"], charts)


@dataclass(frozen=True)
class ExprChart:
    """A user chart on an open subset of a split vector space."""

    forward: DualFunc
    inverse: DualFunc
    domain: Expr

    def __post_init__(self):
        shapes = (self.forward.domain, self.forward.codomain)
        if (self.inverse.codomain, self.inverse.domain) != shapes:
            raise ShapeMismatch("chart inverse must map %r -> %r" % shapes[::-1])
        # lowered once (which checks its slots); not a field
        object.__setattr__(self, "_predicate", lower((self.domain,), self.forward.domain))

    def to_json(self) -> dict:
        return {
            "forward": self.forward.to_json(),
            "inverse": self.inverse.to_json(),
            "domain": self.domain.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "ExprChart":
        for key in ("forward", "inverse", "domain"):
            if key not in data:
                raise ValueError("chart is missing field %r" % key)
        return cls(
            DualFunc.from_json(data["forward"]),
            DualFunc.from_json(data["inverse"]),
            Expr.from_json(data["domain"]),
        )


@dataclass(frozen=True)
class ExprAtlas:
    charts: tuple[ExprChart, ...]

    def __post_init__(self):
        object.__setattr__(self, "charts", tuple(self.charts))
        if not self.charts:
            raise ValueError("atlas needs at least one chart")
        shapes = sorted({c.forward.domain for c in self.charts})
        if len(shapes) > 1:
            raise ShapeMismatch("charts disagree on the ambient shape: %r" % shapes)

    @property
    def ambient(self) -> tuple[int, int]:
        return self.charts[0].forward.domain

    def to_json(self) -> dict:
        return {"charts": [c.to_json() for c in self.charts]}

    @classmethod
    def from_json(cls, data) -> "ExprAtlas":
        return cls(tuple(ExprChart.from_json(c) for c in data.get("charts", [])))


def atlas_from_json(data):
    if not isinstance(data, dict) or "charts" not in data and "n" not in data:
        raise ValueError("atlas must carry either n/m or a chart list")
    if "n" in data and "m" in data:
        return ProjectiveAtlas.from_json(data)
    return ExprAtlas.from_json(data)


@dataclass(frozen=True)
class AtlasCheck:
    """One axiom verdict; checked counts the probes (ii) or points (iii, iv)
    behind it, and an entry that checked nothing fails."""

    axiom: str
    chart_pair: tuple
    passed: bool
    witness: dict | None = None
    checked: int = 0

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "chart_pair": list(self.chart_pair),
            "passed": self.passed,
            "witness": self.witness,
            "checked": self.checked,
        }


@dataclass(frozen=True)
class AtlasReport:
    entries: tuple[AtlasCheck, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "entries": [e.to_json() for e in self.entries],
        }


def random_rep(rng, n, m, active=(), sparsity=0.3) -> ProjectivePoint:
    """A random valid representative, guaranteed active on the given chart
    indices; other slots may be zeroed to exercise partial overlaps."""
    need_heads = {i for i, _ in active}
    need_tails = {j for _, j in active}
    head = []
    for a in range(n + 1):
        re = (1.0 if rng.uniform() < 0.5 else -1.0) * rng.uniform(0.5, 1.5)
        if a not in need_heads and rng.uniform() < sparsity:
            re = 0.0
        head.append(DualNumber(re, rng.uniform(-1.0, 1.0)))
    if all(h.re == 0.0 for h in head):
        head[min(need_heads, default=0)] = DualNumber(1.0, head[0].ze)
    tail = []
    for b in range(m + 1):
        r = (1.0 if rng.uniform() < 0.5 else -1.0) * rng.uniform(0.5, 1.5)
        if b not in need_tails and rng.uniform() < sparsity:
            r = 0.0
        tail.append(r)
    if all(r == 0.0 for r in tail):
        tail[min(need_tails, default=0)] = 1.0
    return ProjectivePoint(DualVector(tuple(head), tuple(tail)))


def verify_atlas(atlas, samples: int = 50, tol: float = 1e-4, seed: int = 0) -> AtlasReport:
    """Sample-based check of openness (ii), injectivity (iii), and
    transition smoothness (iv)."""
    if not isinstance(atlas, (ProjectiveAtlas, ExprAtlas)):
        raise TypeError("not an atlas: %r" % (atlas,))
    rng = np.random.default_rng(seed)
    kind = _StandardCharts if isinstance(atlas, ProjectiveAtlas) else _ExprCharts
    ops = kind(atlas, rng, tol)
    entries = []
    for c in ops.charts:
        pts = ops.sample((c,), min(samples, 25))
        images, witness, probes = [], None, 0
        for p in pts:
            try:
                images.append(ops.forward(c, p))
            except (NotInvertible, EvaluationFailed) as exc:
                witness = {"point": _rep_of(p).to_json(), "error": str(exc)}
                break

        # (ii): probe a small ball around each image through the inverse
        if witness is None:
            for probe in _ball_probes(rng, images[:12], tol):
                probes += 1
                try:
                    gap = vector_norm(ops.round_trip(c, probe) - probe)
                except (NotInvertible, EvaluationFailed) as exc:
                    witness = {"point": probe.to_json(), "error": str(exc)}
                    break
                if gap > 0.05 * tol * (1.0 + vector_norm(probe)):
                    witness = {"point": probe.to_json(), "gap": gap}
                    break
        entries.append(_entry("ii", (c,), witness, probes, "chart domain"))

        # (iii): images may coincide only for the same point
        witness = None
        for a, b in itertools.combinations(range(len(images)), 2):
            close = vector_norm(images[a] - images[b]) <= 1e-9
            if close and not ops.same(pts[a], pts[b]):
                witness = {
                    "first": _rep_of(pts[a]).to_json(),
                    "second": _rep_of(pts[b]).to_json(),
                }
                break
        entries.append(_entry("iii", (c,), witness, len(images), "chart domain"))

    # (iv): the derivative block test on every transition
    for c1, c2 in itertools.product(ops.charts, repeat=2):
        trans = ops.transition(c1, c2)
        witness, checked = None, 0
        for p in ops.overlap(c1, c2, samples):
            try:
                u = ops.forward(c1, p)
                if not in_transition_domain(trans, u):
                    continue
                checked += 1
                report = cr_check(trans.func, u, tol=tol)
            except (NotInvertible, EvaluationFailed) as exc:
                witness = {"point": _rep_of(p).to_json(), "error": str(exc)}
                break
            if not report.passed:
                witness = {"point": u.to_json(), "residuals": report.residuals}
                break
        entries.append(_entry("iv", (c1, c2), witness, checked, "transition domain"))
    return AtlasReport(tuple(entries))


def _entry(axiom, pair, witness, checked, where) -> AtlasCheck:
    if witness is None and not checked:
        witness = {"error": "no sample point was checked in the %s" % where}
    return AtlasCheck(axiom, pair, witness is None, witness, checked)


def _ball_probes(rng, images, tol):
    """Six random points at distance tol around each image, drawn lazily so
    that a failing probe stops the draws."""
    for u in images:
        s, t = u.shape
        dirs = rng.normal(size=(6, 2 * s + t))
        for d in dirs / np.linalg.norm(dirs, axis=1, keepdims=True):
            yield unrealify(realify(u) + tol * d, s, t)


class _StandardCharts:
    """verify_atlas's chart operations for the standard charts [i, j]."""

    def __init__(self, atlas, rng, tol):
        self.shape, self.rng = (atlas.n, atlas.m), rng
        self.charts = [list(c) for c in atlas.charts]
        self.same = equivalent

    def sample(self, charts, count):
        return [random_rep(self.rng, *self.shape, active=charts) for _ in range(count)]

    def overlap(self, c1, c2, samples):
        # drawn one at a time, so that a failing check stops the draws
        pair = (c1, c2)
        return (random_rep(self.rng, *self.shape, active=pair) for _ in range(samples))

    def forward(self, c, p):
        return chart_map(c[0], c[1], p)

    def round_trip(self, c, u):
        return chart_map(c[0], c[1], chart_inverse(c[0], c[1], u))

    def transition(self, c1, c2):
        return transition(c1[0], c1[1], c2[0], c2[1], *self.shape)


class _ExprCharts:
    """verify_atlas's chart operations for ExprAtlas charts, named by index."""

    def __init__(self, atlas, rng, tol):
        self.atlas, self.rng, self.tol = atlas, rng, tol
        self.charts = range(len(atlas.charts))

    def sample(self, charts, count):
        n, m = self.atlas.ambient
        domains = [self.atlas.charts[c]._predicate for c in charts]
        out = []
        for _ in range(count * 40):
            x = unrealify(self.rng.uniform(-1.5, 1.5, size=2 * n + m), n, m)
            if all(_re_invertible(d, x, self.tol) for d in domains):
                out.append(x)
                if len(out) == count:
                    break
        return out

    def overlap(self, a, b, samples):
        return self.sample((a, b), min(samples, 25))

    def forward(self, c, x):
        return eval_func(self.atlas.charts[c].forward, x)

    def round_trip(self, c, u):
        x = eval_func(self.atlas.charts[c].inverse, u)
        if not _re_invertible(self.atlas.charts[c]._predicate, x, self.tol):
            raise EvaluationFailed("preimage left the domain")
        return self.forward(c, x)

    def same(self, x, y):
        return vector_norm(x - y) <= 1e-6

    def transition(self, a, b):
        # overlap draws only points inside both chart domains
        fwd, back = self.atlas.charts[b].forward, self.atlas.charts[a].inverse
        return TransitionMap(compose_funcs(fwd, back), const(ONE))
