"""Projective space over split vectors, its standard charts, and atlas checking.

A point of the (n, m) projective space is a shape (n + 1, m + 1) vector with
at least one invertible head entry and at least one nonzero tail entry, up
to independent rescaling of the heads (by an invertible dual scalar) and the
tails (by a nonzero real).  Chart (i, j) divides out head slot i and tail
slot j; transitions between charts are rational expressions suitable for
smoothness checking.

verify_atlas samples points and checks that chart images are open (probe
balls stay inside the image), that charts are injective on samples, and
that every transition passes the derivative block test.  Each check runs
as arrays over its sample points, on realified rows.  Up to a permutation
of slots, a standard transition (i, j) -> (k, l) has one of four shapes
(i = k or not, j = l or not), so the transition test runs on four cached
templates per (n, m), with the pairs of a shape stacked into shared
batches.  The templates are proved to have the block pattern wherever
their Jacobian is finite (diff._classes), so a stacked row passes without
a Jacobian where a closed-form bound shows it finite.  A transition is
defined where it evaluates: for a standard one, where its head and tail
pivots are invertible.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from dualmod.core import (
    ONE,
    DualVector,
    NotInvertible,
    ShapeMismatch,
    as_index,
    inv,
    json_fields,
    json_list,
    json_writer,
    mul,
    resolve_tol,
    row_norms,
    valid_bound,
    vector_norm,
    with_head_entry,
    with_tail_entry,
)
from dualmod.diff import (
    DualFunc,
    EvaluationFailed,
    Expr,
    _cr_rows,
    _eval_batch,
    _eval_rows,
    _proved,
    compose_funcs,
    const,
    coord,
    cr_check,
    eval_func,
    inv_expr,
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
    # s and t are invertible exactly when y's entries at x's pivots are
    i0 = _argmax_head_re(x)
    if abs(y.head[i0].re) <= tol:
        return False
    s = mul(y.head[i0], inv(x.head[i0], tol))
    for a in range(n + 1):
        d = y.head[a] - mul(s, x.head[a])
        if abs(d.re) > tol * scale or abs(d.ze) > tol * scale:
            return False
    j0 = _argmax_tail(x)
    x_tail, y_tail = x.tail, y.tail
    if abs(y_tail[j0]) <= tol:
        return False
    t = y_tail[j0] / x_tail[j0]
    for b in range(m + 1):
        if abs(y_tail[b] - t * x_tail[b]) > tol * scale:
            return False
    return True


def _argmax_head_re(x: DualVector) -> int:
    return int(np.argmax(np.abs(x.array[: x.n])))  # the first largest


def _argmax_tail(x: DualVector) -> int:
    return int(np.argmax(np.abs(x.array[2 * x.n :])))


def canonical_rep(x, tol: float | None = None) -> DualVector:
    """Normalize: pivot heads so the largest-re slot is exactly 1, pivot
    tails so the largest slot is exactly 1.  Idempotent; equivalent inputs
    agree on the output."""
    x = _rep_of(x)
    n, m = x.shape[0] - 1, x.shape[1] - 1
    if not is_valid_rep(x, n, m, tol):
        raise InvalidRepresentative("cannot normalize an invalid representative")
    i0 = _argmax_head_re(x)
    s = inv(x.head[i0], tol)
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
    _check_chart_index(i, j, x.shape[0] - 1, x.shape[1] - 1)
    tol = resolve_tol(tol)
    return abs(x.head[i].re) > tol and abs(x.tail[j]) > tol


def chart_map(i: int, j: int, p, tol: float | None = None) -> DualVector:
    """Divide out head slot i and tail slot j."""
    x = _rep_of(p)
    n, m = x.shape[0] - 1, x.shape[1] - 1
    if not in_chart(i, j, p, tol):
        raise NotInChart("point misses chart (%d, %d)" % (i, j))
    pivot = inv(x.head[i], tol)
    head = tuple(mul(x.head[a], pivot) for a in range(n + 1) if a != i)
    tail = x.tail
    return DualVector(head, tuple(tail[b] / tail[j] for b in range(m + 1) if b != j))


def chart_inverse(i: int, j: int, u: DualVector) -> ProjectivePoint:
    """Insert 1 at head slot i and a unit eps coefficient at tail slot j."""
    n, m = u.shape
    _check_chart_index(i, j, n, m)
    head = list(u.head)
    head.insert(i, ONE)
    tail = list(u.tail)
    tail.insert(j, 1.0)
    return ProjectivePoint(DualVector(tuple(head), tuple(tail)))


@functools.lru_cache(maxsize=1024)
def _kept_columns(i, j, n, m):
    """The realified columns that chart (i, j) of the (n, m) space keeps, in
    chart coordinate order."""
    kept = [a for a in range(n + 1) if a != i]
    return _frozen(kept + [n + 1 + a for a in kept] + [2 * n + 2 + b for b in range(m + 1) if b != j], np.intp)


def _frozen(values, dtype=None) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _chart_rows(i, j, points, n, m, tol) -> np.ndarray:
    """chart_map on realified representatives of the (n, m) space, one per
    row, with core.inv's and core.mul's operations on columns and tol as
    the zero tolerance."""
    re, tail = points[:, i, None], points[:, 2 * n + 2 + j, None]
    if not ((np.abs(re) > tol) & (np.abs(tail) > tol)).all():
        raise NotInChart("point misses chart (%d, %d)" % (i, j))
    pivot_re, pivot_ze = 1.0 / re, -points[:, n + 1 + i, None] / (re * re)
    out = points[:, _kept_columns(i, j, n, m)]
    head_re, head_ze = out[:, :n], out[:, n : 2 * n]
    head_ze *= pivot_re
    head_ze += head_re * pivot_ze
    head_re *= pivot_re
    out[:, 2 * n :] /= tail
    return out


def _unchart_rows(i, j, coords, n, m) -> np.ndarray:
    """chart_inverse on realified chart coordinates, one point per row."""
    out = np.empty((len(coords), 2 * n + m + 3))
    out[:, _kept_columns(i, j, n, m)] = coords
    out[:, [i, n + 1 + i, 2 * n + 2 + j]] = (1.0, 0.0, 1.0)
    return out


def _check_chart_index(i, j, n, m):
    if not (0 <= i <= n and 0 <= j <= m):
        raise IndexError("chart (%d, %d) out of range for (%d, %d)" % (i, j, n, m))


def transition(i: int, j: int, k: int, l: int, n: int, m: int) -> DualFunc:
    """Coordinates of chart (k, l) as expressions in chart (i, j) coordinates.

    Head outputs are dual ratios; tail outputs are real ratios re-embedded
    as eps coefficients, which keeps the whole map inside the expression
    language.  Its domain, the image of the charts' overlap, is where it
    evaluates: where head k and tail coefficient l, the two entries it
    inverts, are invertible."""
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
    return DualFunc((n, m), (n, m), tuple(comps))


@functools.lru_cache(maxsize=128)
def _template(n: int, m: int, same_head: bool, same_tail: bool) -> DualFunc:
    """Up to a permutation of slots, the transition of every standard chart
    pair (i, j) -> (k, l) with i = k or not and j = l or not as given."""
    return transition(0, 0, int(not same_head), int(not same_tail), n, m)


def in_transition_domain(trans: DualFunc, u: DualVector, tol=None) -> bool:
    """Does trans evaluate at u, with tol (the default when None) as the
    zero tolerance of its inverses?"""
    try:
        eval_func(trans, u, tol)
    except (NotInvertible, EvaluationFailed):
        return False
    return True


def _re_invertible(predicate: DualFunc, points: np.ndarray, tol: float) -> np.ndarray:
    """Per realified row of points: does an ExprChart's one-output domain
    predicate evaluate there with a re part beyond tol?  A row where it
    meets a singular inverse is outside."""
    values, bad = _eval_batch(predicate, points)
    return ~bad & (np.abs(values[:, 0]) > tol)


@dataclass(frozen=True)
class ProjectiveAtlas:
    """The standard chart family on the (n, m) projective space."""

    n: int
    m: int
    charts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n", as_index(self.n, "n"))
        object.__setattr__(self, "m", as_index(self.m, "m"))
        charts = tuple(
            (as_index(i, "chart index"), as_index(j, "chart index")) for i, j in self.charts
        ) or tuple((i, j) for i in range(self.n + 1) for j in range(self.m + 1))
        for i, j in charts:
            if i > self.n or j > self.m:
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
        n, m = json_fields(data, "atlas", ("n", "m"))
        charts = json_list(data.get("charts", []), "atlas field 'charts'")
        return cls(n, m, tuple(tuple(json_fields(c, "chart", ("i", "j"))) for c in charts))


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
        # a one-output function, lowered once (which checks its slots); not a field
        object.__setattr__(self, "_predicate", DualFunc(self.forward.domain, (1, 0), (self.domain,)))

    to_json = json_writer("forward", "inverse", "domain")

    @classmethod
    def from_json(cls, data) -> "ExprChart":
        forward, inverse, domain = json_fields(data, "chart", ("forward", "inverse", "domain"))
        return cls(DualFunc.from_json(forward), DualFunc.from_json(inverse), Expr.from_json(domain))


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

    to_json = json_writer("charts")

    @classmethod
    def from_json(cls, data) -> "ExprAtlas":
        (charts,) = json_fields(data, "atlas", ("charts",))
        return cls(tuple(map(ExprChart.from_json, json_list(charts, "atlas field 'charts'"))))


def atlas_from_json(data):
    """A ProjectiveAtlas when the object data carries n or m, else an ExprAtlas."""
    json_fields(data, "atlas", ())
    kind = ProjectiveAtlas if "n" in data or "m" in data else ExprAtlas
    return kind.from_json(data)


@dataclass(frozen=True)
class AtlasCheck:
    """One axiom verdict; checked counts the probes (ii) or points (iii, iv)
    behind it, and an entry that checked nothing fails."""

    axiom: str
    chart_pair: tuple
    passed: bool
    witness: dict | None = None
    checked: int = 0

    to_json = json_writer("axiom", "chart_pair", "passed", "witness", "checked")


@dataclass(frozen=True)
class AtlasReport:
    entries: tuple[AtlasCheck, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    to_json = json_writer("passed", "entries")


def random_reps(rng, n, m, active=(), count=1, sparsity=0.3) -> np.ndarray:
    """count random valid representatives of the (n, m) space as realified
    rows (head re parts, head ze parts, tail coefficients), guaranteed
    active on the given chart indices; other slots may be zeroed to
    exercise partial overlaps.

    All uniforms come from one call, laid out in the order of drawing one
    representative at a time: per head a sign, a magnitude, a zeroing draw
    unless the head is needed, and the ze part; per tail a sign, a
    magnitude and a zeroing draw unless the tail is needed.  Magnitudes
    lie in [low, low + 1], where low / (low + 1), the smallest ratio of two
    drawn slots, exceeds the default zero tolerance tol: low = 0.5 below a
    tolerance of 1/3 and 2 tol / (1 - tol) from there.  A row whose heads,
    none of them needed, are all zeroed gets 1.0 in head 0, and likewise
    for tails, so every row is valid.  A tolerance of 1 or more makes every
    chart's unit pivot singular and raises ValueError before any draw.
    """
    rows = _draw_reps(rng, [_layout(n, m, active, resolve_tol(None), sparsity)], count)[0]
    rows[~rows[:, : n + 1].any(axis=1), 0] = 1.0
    rows[~rows[:, 2 * n + 2 :].any(axis=1), 2 * n + 2] = 1.0
    return rows


def _layout(n, m, active, tol, sparsity=0.3):
    """random_reps's layout for the chart indices active at zero tolerance tol."""
    if tol >= 1.0:
        raise ValueError("zero tolerance %g makes the unit chart pivot singular" % tol)
    low = 0.5 if tol < 1.0 / 3.0 else 2.0 * tol / (1.0 - tol)
    return _sampling_layout(n, m, frozenset(i for i, _ in active), frozenset(j for _, j in active), low, sparsity)


@functools.lru_cache(maxsize=1024)
def _sampling_layout(n, m, heads, tails, low, sparsity):
    """(row width, gather, lo, span, sign cut, zeroing cut): the gather takes
    each output column's sign, magnitude and zeroing draws from a row of
    uniforms, and the column is lo + span * magnitude, negated unless sign
    < sign cut, and 0.0 where zeroing < zeroing cut.  A ze part is never
    negated (cut 2.0), and neither it nor a needed slot is zeroed (cut 0)."""
    h, size = n + 1, 2 * n + m + 3
    cols = np.zeros((3, size), dtype=np.intp)  # a zeroing draw is never entry 0
    lo, span = np.full(size, low), np.full(size, (low + 1.0) - low)
    lo[h : 2 * h], span[h : 2 * h] = -1.0, 2.0
    width = 0
    for slot in range(n + m + 2):
        head, out = slot <= n, slot if slot <= n else slot + h  # tail b is column 2h + b
        needed = slot in heads if head else slot - h in tails
        for k, col in [(0, out), (1, out)] + [(2, out)] * (not needed) + [(1, h + slot)] * head:
            cols[k, col], width = width, width + 1
    sign_cut = np.where(np.arange(size) // h == 1, 2.0, 0.5)
    zero_cut = np.where(cols[2] > 0, sparsity, 0.0)
    return (width, *map(_frozen, (cols, lo, span, sign_cut, zero_cut)))


def _draw_reps(rng, layouts, count) -> list:
    """random_reps for each layout in turn, from one draw: the same bits and
    generator state as drawing layout after layout, since each uniform is
    one generator step.  Without the fix-up, which a needed chart rules out."""
    count = max(count, 0)
    uniforms = rng.random(count * sum(layout[0] for layout in layouts))
    out, start = [], 0
    for width, cols, lo, span, sign_cut, zero_cut in layouts:
        u = uniforms[start : start + count * width].reshape(count, width)[:, cols]
        start += count * width
        mag = lo + span * u[:, 1]
        out.append(np.where(u[:, 2] < zero_cut, 0.0, np.where(u[:, 0] < sign_cut, mag, -mag)))
    return out


def random_rep(rng, n, m, active=(), sparsity=0.3) -> ProjectivePoint:
    """One random valid representative: random_reps with count 1."""
    row = random_reps(rng, n, m, active, 1, sparsity)[0]
    return ProjectivePoint(unrealify(row, n + 1, m + 1))


@np.errstate(over="ignore", invalid="ignore")
def verify_atlas(atlas, samples: int = 50, tol: float = 1e-4, seed: int = 0) -> AtlasReport:
    """Sample-based check of openness (ii), injectivity (iii), and
    transition smoothness (iv).

    Each entry is evaluated as whole arrays over its sample points, with
    the draws, counts and witnesses of checking them one at a time in draw
    order: an entry stops at its first failure.  An (ii) entry leaves the
    generator where that failure left it; an (iv) entry draws its pair's
    whole overlap sample whatever its verdict, so no verdict moves a later
    pair's draw.  A chart image, round-trip gap or image distance that is
    not finite is a failure.  tol must be a finite number of at least 0,
    or ValueError is raised.  The default zero tolerance is read once,
    when the call starts.
    """
    if not isinstance(atlas, (ProjectiveAtlas, ExprAtlas)):
        raise TypeError("not an atlas: %r" % (atlas,))
    valid_bound(tol, "atlas tolerance")
    rng = np.random.default_rng(seed)
    kind = _StandardCharts if isinstance(atlas, ProjectiveAtlas) else _ExprCharts
    ops = kind(atlas, rng, tol, resolve_tol(None))
    entries = []
    for c in ops.charts:
        (pts,) = ops.draw([(c,)], min(samples, 25))
        images, witness = _images(ops, c, pts)
        probes = 0
        if witness is None and len(images):
            witness, probes = _openness(ops, c, images[:12], tol)
        entries.append(_entry("ii", (c,), witness, probes, "chart domain"))
        witness = _injectivity(ops, c, pts, images)
        entries.append(_entry("iii", (c,), witness, len(images), "chart domain"))
    entries += _smoothness(ops, samples, tol)
    return AtlasReport(tuple(entries))


def _entry(axiom, pair, witness, checked, where) -> AtlasCheck:
    if witness is None and not checked:
        witness = {"error": "no sample point was checked in the %s" % where}
    return AtlasCheck(axiom, pair, witness is None, witness, checked)


def _images(ops, c, pts):
    """Chart c at the sample rows up to the first that fails: the images
    and the witness of that row's error (None when none fails).  An image
    that is not finite fails."""
    images, stop, exc = ops.forward(c, pts)
    finite = np.isfinite(images).all(axis=1)
    if not finite.all():
        stop = int(np.argmin(finite))
        images, exc = images[:stop], "chart image is not finite"
    return images, None if exc is None else {"point": unrealify(pts[stop], *ops.point_shape).to_json(), "error": str(exc)}


def _openness(ops, c, images, tol):
    """(ii): six random probes at distance tol around each image go through
    the chart's inverse and back, and must return within a fraction of tol.
    The witness and the number of probes up to it."""
    (k, d), rng = images.shape, ops.rng
    state = rng.bit_generator.state
    dirs = rng.normal(size=(6 * k, d))
    probes = np.repeat(images, 6, axis=0) + tol * (dirs / np.linalg.norm(dirs, axis=1, keepdims=True))
    back, stop, exc = ops.round_trip(c, probes)
    n, m = ops.image_shape(c)
    gap = row_norms(back - probes[:stop], n)
    far = ~np.isfinite(gap) | (gap > 0.05 * tol * (1.0 + row_norms(probes[:stop], n)))
    if far.any():
        stop = int(np.argmax(far))
        exc = None if np.isfinite(gap[stop]) else "round-trip gap is not finite"
    if stop == len(probes):
        return None, stop
    # the directions were drawn image by image, up to the failing probe
    rng.bit_generator.state = state
    rng.normal(size=(6 * (stop // 6 + 1), d))
    probe = unrealify(probes[stop], n, m).to_json()
    if exc is None:
        return {"point": probe, "gap": float(gap[stop])}, stop + 1
    return {"point": probe, "error": str(exc)}, stop + 1


def _injectivity(ops, c, pts, images):
    """(iii): images may coincide, within 1e-9 of their spread (the largest
    finite distance from the first image, its pairs' first), only for the
    same point.  Pairs go in combinations order; a non-finite distance fails."""
    a, b = _index_pairs(len(images))
    dist = row_norms(images[a] - images[b], ops.image_shape(c)[0])
    spread = dist[: len(images) - 1]
    close = 1e-9 * spread[np.isfinite(spread)].max(initial=0.0)
    for k in np.flatnonzero(~np.isfinite(dist) | (dist <= close)):
        first, second = (unrealify(pts[q[k]], *ops.point_shape) for q in (a, b))
        if not np.isfinite(dist[k]):
            return {"point": first.to_json(), "error": "distance between chart images is not finite"}
        if not ops.same(first, second):
            return {"first": first.to_json(), "second": second.to_json()}
    return None


@functools.lru_cache(maxsize=64)
def _index_pairs(count):
    """np.triu_indices(count, 1), read-only."""
    return tuple(_frozen(a) for a in np.triu_indices(count, 1))


def _smoothness(ops, samples, tol) -> list:
    """(iv), the derivative block test on each transition at the overlap
    samples inside its domain: one entry per ordered chart pair, in
    itertools.product order.

    Windows of at most _WINDOW_CELLS Jacobian entries, or of one pair, draw
    their points together and stack chart images per source chart and the
    domain and block tests per template.  Each pair's verdict rests on its
    own rows only, and its draw takes the same uniforms whatever any
    verdict says, so every window's verdicts are final.  A proved stack
    (diff._classes) builds no Jacobian: its rows inside the domain pass
    where ops.proved_rows bounds the Jacobian as finite, and only the rest
    go through the batched block test.  A failing pair's witness comes
    from cr_check on its template at the failing row's gathered columns
    (the witness point is the row itself)."""
    windows, cells = [[]], 0
    for c1, c2 in itertools.product(ops.charts, repeat=2):
        (n, m), (s, t) = ops.image_shape(c1), ops.image_shape(c2)
        size = max(samples, 1) * (2 * n + m) * (2 * s + t)
        if windows[-1] and cells + size > _WINDOW_CELLS:
            windows.append([])
            cells = 0
        windows[-1].append((c1, c2))
        cells += size
    entries = []
    for window in windows:
        verdicts = _window_verdicts(ops, window, ops.draw(window, samples), tol)
        entries += [_entry("iv", pair, *verdict, "transition domain") for pair, verdict in zip(window, verdicts)]
    return entries


def _window_verdicts(ops, window, pts, tol):
    """(witness, checked) of (iv) for each pair of a window in turn, with
    pts its overlap points: checked counts the points inside the domain up
    to the first failing one."""
    images = []  # per pair: its chart images up to its first failing row, and the witness there
    for c1, group in itertools.groupby(range(len(window)), key=lambda p: window[p][0]):
        group = [pts[p] for p in group]
        # one map for the source chart's pairs; if a row fails, each pair is
        # mapped alone, since a pair's verdict rests on its own rows
        rows, witness = _images(ops, c1, np.vstack(group))
        if witness is None:
            offsets = [0, *itertools.accumulate(map(len, group))]
            images += [(rows[a:b], None) for a, b in zip(offsets, offsets[1:])]
        else:
            images += [_images(ops, c1, own) for own in group]
    templates = [ops.template(*pair) for pair in window]  # per pair: key, transition, columns, pivots
    stacks, flags = {}, [None] * len(window)  # per pair: its first failing row or None, checked
    for p, (key, trans, cols, pivots) in enumerate(templates):
        _, _, members, gathered = stacks.setdefault(key, (trans, pivots, [], []))
        members.append(p)
        gathered.append(images[p][0][:, cols])
    for trans, pivots, members, rows in stacks.values():
        rows = np.vstack(rows)
        # the template evaluates exactly where the columns it inverts are invertible
        inside = (np.abs(rows[:, pivots]) > ops.zero_tol).all(axis=1)
        # a row proved_rows settles passes without the block test
        check = inside & ~ops.proved_rows(trans, rows, pivots)
        residuals, bad = _cr_rows(trans, rows[check])
        failed = np.zeros(len(rows), dtype=bool)
        failed[check] = bad | (residuals > tol).any(axis=1)
        offsets = [0, *itertools.accumulate(len(images[p][0]) for p in members)]
        counts = [0, *np.cumsum(inside).tolist()]  # inside rows before each row
        fails = np.flatnonzero(failed).tolist()
        for p, start, end in zip(members, offsets, offsets[1:]):
            fail = next((f - start for f in fails if start <= f < end), None)
            flags[p] = fail, counts[end if fail is None else start + fail + 1] - counts[start]
    for p, (c1, _) in enumerate(window):
        (rows, witness), (stop, checked), (_, trans, cols, _) = images[p], flags[p], templates[p]
        if stop is not None:
            shape, row = ops.image_shape(c1), rows[stop]
            try:
                residuals = cr_check(trans, unrealify(row[cols], *shape), tol=tol).residuals
                witness = {"point": unrealify(row, *shape).to_json(), "residuals": residuals}
            except (NotInvertible, EvaluationFailed) as exc:
                witness = {"point": unrealify(pts[p][stop], *ops.point_shape).to_json(), "error": str(exc)}
        yield witness, checked


# Jacobian entries per window; a batched block test peaks near 20 B each, and
# a proved stack builds no Jacobian for the rows proved_rows settles
_WINDOW_CELLS = 3 * 2**15


class _StandardCharts:
    """verify_atlas's batched chart operations for the standard charts
    [i, j], on realified representatives."""

    def __init__(self, atlas, rng, tol, zero_tol):
        self.shape, self.rng, self.zero_tol = (atlas.n, atlas.m), rng, zero_tol
        self.point_shape = (atlas.n + 1, atlas.m + 1)
        self.charts = [list(c) for c in atlas.charts]
        self.same = equivalent

    def draw(self, groups, count):
        """count points active on each group of charts, from one uniform draw."""
        return _draw_reps(self.rng, [_layout(*self.shape, g, self.zero_tol) for g in groups], count)

    def forward(self, c, points):
        return _chart_rows(c[0], c[1], points, *self.shape, self.zero_tol), len(points), None

    def round_trip(self, c, coords):
        return self.forward(c, _unchart_rows(c[0], c[1], coords, *self.shape))

    def image_shape(self, c):
        return self.shape

    def template(self, c1, c2):
        """Stack key, template, c1's image columns and the template's pivot
        columns for c1 -> c2.  The image columns are the head re and ze, and
        the tail, columns permuted into the template's slot order, where each
        node does the pair's own float operations.  The pivots, among the
        gathered columns, are the two the template inverts: column 0 unless
        i = k and column 2n unless j = l."""
        (i, j), (k, l), (n, m) = c1, c2, self.shape
        # c1's head and tail slots in the template's slot order: k's and l's first
        heads, tails = (
            [a - (a > p) for a in sorted(range(size), key=lambda a: a != q) if a != p]
            for p, q, size in ((i, k, n + 1), (j, l, m + 1))
        )
        key = (i == k, j == l)
        pivots = [0] * (i != k) + [2 * n] * (j != l)
        return key, _template(n, m, *key), heads + [n + a for a in heads] + [2 * n + b for b in tails], pivots

    @np.errstate(over="ignore")
    def proved_rows(self, trans, rows, pivots):
        """Per gathered row inside a template's domain: does the block test
        pass there for certain, so it needs no Jacobian?  It does where the
        template is proved (diff._classes) and its Jacobian is finite, and
        the Jacobian is finite where every value and gradient entry of
        _jacobian's pass stays below the float limit.

        Take M = max(1, |largest coordinate|) and Q = max(1, 1 / |smallest
        pivot|); each pivot's re part is a coordinate, and the pass inverts
        nothing else but the constant 1, which the zero tolerance, below 1,
        leaves invertible.  Inverting a head pivot r + z eps gives 1/r and
        -z/r**2, with gradient rows -dr/r**2 and (2 z dr/r - dz)/r**2: at
        most Q, M Q**2, Q**2 and 3 M Q**3.  A head output multiplies that by
        a coordinate (or by 1), so its value, its gradients and the partial
        sums of mul's four terms stay below 6 M**2 Q**3.  A tail output
        multiplies a tail coefficient by 1/c, a value of at most M Q with
        a gradient of at most 2 M Q**2.  So a row with M**2 Q**3 below
        2**1020 keeps every entry below 6 * 2**1020 < 2**1023, short of
        the largest float, and Q below 2**340 keeps r**2 a normal float,
        so no 0/0 or 0 * inf arises.  Rows the bound rejects, and every row of a
        template that is not proved, go through the block test."""
        big = np.abs(rows).max(axis=1, initial=1.0)
        inverse = 1.0 / np.abs(rows[:, pivots]).min(axis=1, initial=1.0)
        return (big * big * inverse**3 < 2.0**1020) & _proved(trans)


class _ExprCharts:
    """verify_atlas's batched chart operations for ExprAtlas charts, named
    by index."""

    def __init__(self, atlas, rng, tol, zero_tol):
        self.atlas, self.rng, self.tol, self.zero_tol = atlas, rng, tol, zero_tol
        self.point_shape = atlas.ambient
        self.charts = range(len(atlas.charts))

    def draw(self, groups, count):
        """Each group's sample in turn, of at most 25 points."""
        return [self._sample(g, min(count, 25)) for g in groups]

    def _sample(self, charts, count):
        """The first count of count * 40 uniform draws inside every chart
        domain, leaving the generator after the last draw used."""
        d = 2 * self.atlas.ambient[0] + self.atlas.ambient[1]
        count = max(count, 0)
        state = self.rng.bit_generator.state
        points = self.rng.uniform(-1.5, 1.5, size=(count * 40, d))
        inside = np.ones(len(points), dtype=bool)
        for c in charts:
            inside &= _re_invertible(self.atlas.charts[c]._predicate, points, self.tol)
        keep = np.flatnonzero(inside)[:count]
        if count and len(keep) == count:
            self.rng.bit_generator.state = state
            self.rng.uniform(-1.5, 1.5, size=(keep[-1] + 1, d))
        return points[keep]

    def forward(self, c, points):
        return _eval_rows(self.atlas.charts[c].forward, points)

    def round_trip(self, c, coords):
        chart = self.atlas.charts[c]
        points, stop, exc = _eval_rows(chart.inverse, coords)
        inside = _re_invertible(chart._predicate, points, self.tol)
        if not inside.all():
            stop = int(np.argmin(inside))
            points, exc = points[:stop], "preimage left the domain"
        images, k, error = _eval_rows(chart.forward, points)
        return images, k, error if k < stop else exc

    def image_shape(self, c):
        return self.atlas.charts[c].forward.codomain

    def same(self, x, y):
        """Within 1e-6: every sample point lies in [-1.5, 1.5]^d."""
        return vector_norm(x - y) <= 1e-6

    def proved_rows(self, trans, rows, pivots):
        """None: a user transition has no bound on its Jacobian (1/x is finite
        at x = 1e-160, its derivative is not), so every row is checked."""
        return np.zeros(len(rows), dtype=bool)

    def template(self, a, b):
        """Each pair is its own stack, read as is, with no pivots; overlap
        draws only points inside both chart domains, so every row is inside
        and a row where the transition cannot be evaluated fails."""
        fwd, back = self.atlas.charts[b].forward, self.atlas.charts[a].inverse
        return (a, b), compose_funcs(fwd, back), slice(None), []
