"""Linear maps between split vectors, realification, and split bases.

A map commuting with eps multiplication decomposes into four real blocks:
head-to-head (a dual s x n matrix, stored as re and ze parts), tail-to-head
(real, landing on ze parts only), head-to-tail (real, fed by re parts only),
and tail-to-tail (real).  Realification flattens a shape-(n, m) vector to
2n + m reals ordered (head re parts, head ze parts, tail) and turns every
such map into the block matrix

    [ C_re   0     0 ]
    [ C_ze   C_re  P ]
    [ D      0     Q ]

which is what all rank and solve decisions run on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualmod.core import (
    ONE,
    ZERO,
    DualNumber,
    DualVector,
    ShapeMismatch,
    as_index,
    in_ker_sharp,
    inv,
    mul,
    resolve_tol,
    scalar_mul,
    sharp_action,
    vector_norm,
    with_head_entry,
)


class NotInKer(ValueError):
    """Raised when a tail-slot basis member is not killed by eps."""


class NoSolution(Exception):
    """Raised when a linear system has no solution within tolerance."""


@dataclass(frozen=True)
class ModuleMap:
    """A linear map (n, m) -> (s, t) commuting with eps multiplication."""

    n: int
    m: int
    s: int
    t: int
    c_re: np.ndarray
    c_ze: np.ndarray
    p: np.ndarray
    d: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        for name, arr, shape in (
            ("c_re", self.c_re, (self.s, self.n)),
            ("c_ze", self.c_ze, (self.s, self.n)),
            ("p", self.p, (self.s, self.m)),
            ("d", self.d, (self.t, self.n)),
            ("q", self.q, (self.t, self.m)),
        ):
            a = np.asarray(arr, dtype=float).reshape(shape)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def domain(self) -> tuple[int, int]:
        return (self.n, self.m)

    @property
    def codomain(self) -> tuple[int, int]:
        return (self.s, self.t)

    def head_entry(self, k: int, i: int) -> DualNumber:
        return DualNumber(self.c_re[k, i], self.c_ze[k, i])

    @classmethod
    def identity(cls, n: int, m: int) -> "ModuleMap":
        return cls(
            n, m, n, m,
            np.eye(n), np.zeros((n, n)), np.zeros((n, m)),
            np.zeros((m, n)), np.eye(m),
        )

    @classmethod
    def zero(cls, domain: tuple[int, int], codomain: tuple[int, int]) -> "ModuleMap":
        n, m = domain
        s, t = codomain
        return cls(
            n, m, s, t,
            np.zeros((s, n)), np.zeros((s, n)), np.zeros((s, m)),
            np.zeros((t, n)), np.zeros((t, m)),
        )

    @classmethod
    def scalar(cls, n: int, m: int, a: DualNumber) -> "ModuleMap":
        """Multiplication by a fixed scalar a."""
        return cls(
            n, m, n, m,
            a.re * np.eye(n), a.ze * np.eye(n), np.zeros((n, m)),
            np.zeros((m, n)), a.re * np.eye(m),
        )

    @classmethod
    def sharp_map(cls, n: int, m: int) -> "ModuleMap":
        """Multiplication by eps as a map (n, m) -> (n, m)."""
        return cls(
            n, m, n, m,
            np.zeros((n, n)), np.eye(n), np.zeros((n, m)),
            np.zeros((m, n)), np.zeros((m, m)),
        )

    @classmethod
    def from_basis_images(
        cls,
        head_images: list[DualVector],
        tail_images: list[DualVector],
        codomain: tuple[int, int] | None = None,
        tol: float | None = None,
    ) -> "ModuleMap":
        """Build the map sending head basis slots to head_images and tail
        slots to tail_images.  Tail images must be killed by eps."""
        imgs = list(head_images) + list(tail_images)
        if codomain is None:
            if not imgs:
                raise ShapeMismatch("cannot infer codomain from no images")
            codomain = imgs[0].shape
        s, t = codomain
        for v in imgs:
            if v.shape != (s, t):
                raise ShapeMismatch("image shape %r != codomain %r" % (v.shape, (s, t)))
        n, m = len(head_images), len(tail_images)
        c_re = np.zeros((s, n))
        c_ze = np.zeros((s, n))
        d = np.zeros((t, n))
        p = np.zeros((s, m))
        q = np.zeros((t, m))
        for i, v in enumerate(head_images):
            for k in range(s):
                c_re[k, i] = v.head[k].re
                c_ze[k, i] = v.head[k].ze
            for l in range(t):
                d[l, i] = v.tail[l]
        for j, v in enumerate(tail_images):
            if not in_ker_sharp(v, tol):
                raise NotInKer("tail image %d has an invertible head entry" % j)
            for k in range(s):
                p[k, j] = v.head[k].ze
            for l in range(t):
                q[l, j] = v.tail[l]
        return cls(n, m, s, t, c_re, c_ze, p, d, q)

    def to_json(self) -> dict:
        c = [
            [[self.c_re[k, i], self.c_ze[k, i]] for i in range(self.n)]
            for k in range(self.s)
        ]
        return {
            "n": self.n, "m": self.m, "s": self.s, "t": self.t,
            "C": c,
            "P": self.p.tolist(),
            "D": self.d.tolist(),
            "Q": self.q.tolist(),
        }

    @classmethod
    def from_json(cls, data) -> "ModuleMap":
        if not isinstance(data, dict):
            raise ValueError("map must be an object, got %r" % (data,))
        for key in ("n", "m", "s", "t", "C", "P", "D", "Q"):
            if key not in data:
                raise ValueError("map is missing field %r" % key)
        n, m, s, t = (as_index(data[k], k) for k in ("n", "m", "s", "t"))
        c = data["C"]
        if len(c) != s or any(len(row) != n for row in c):
            raise ValueError("field 'C' must be an s x n grid of [re, ze] pairs")
        c_re = np.array([[e[0] for e in row] for row in c], dtype=float).reshape(s, n)
        c_ze = np.array([[e[1] for e in row] for row in c], dtype=float).reshape(s, n)
        try:
            p = np.array(data["P"], dtype=float).reshape(s, m)
            d = np.array(data["D"], dtype=float).reshape(t, n)
            q = np.array(data["Q"], dtype=float).reshape(t, m)
        except ValueError as exc:
            raise ValueError("map blocks P/D/Q have inconsistent shapes: %s" % exc)
        return cls(n, m, s, t, c_re, c_ze, p, d, q)


@dataclass(frozen=True)
class SplitBasis:
    """A basis split into dual-coefficient members (s1) and real-coefficient
    members inside the kernel of eps (s2)."""

    s1: tuple[DualVector, ...]
    s2: tuple[DualVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "s1", tuple(self.s1))
        object.__setattr__(self, "s2", tuple(self.s2))

    @property
    def dim(self) -> tuple[int, int]:
        return (len(self.s1), len(self.s2))

    def to_json(self) -> dict:
        return {
            "S1": [v.to_json() for v in self.s1],
            "S2": [v.to_json() for v in self.s2],
        }

    @classmethod
    def from_json(cls, data) -> "SplitBasis":
        if not isinstance(data, dict) or "S1" not in data or "S2" not in data:
            raise ValueError("split basis must be an object with fields S1 and S2")
        return cls(
            tuple(DualVector.from_json(v) for v in data["S1"]),
            tuple(DualVector.from_json(v) for v in data["S2"]),
        )


def apply(lam: ModuleMap, v: DualVector) -> DualVector:
    """Apply a map in dual arithmetic (no realification)."""
    if v.shape != lam.domain:
        raise ShapeMismatch("vector shape %r != map domain %r" % (v.shape, lam.domain))
    head = []
    for k in range(lam.s):
        acc = ZERO
        for i in range(lam.n):
            acc = acc + mul(v.head[i], lam.head_entry(k, i))
        z = 0.0
        for j in range(lam.m):
            z += lam.p[k, j] * v.tail[j]
        head.append(DualNumber(acc.re, acc.ze + z))
    tail = []
    for l in range(lam.t):
        r = 0.0
        for i in range(lam.n):
            r += lam.d[l, i] * v.head[i].re
        for j in range(lam.m):
            r += lam.q[l, j] * v.tail[j]
        tail.append(r)
    return DualVector(tuple(head), tuple(tail))


def compose(outer: ModuleMap, inner_map: ModuleMap) -> ModuleMap:
    """outer after inner_map, computed blockwise."""
    if inner_map.codomain != outer.domain:
        raise ShapeMismatch(
            "cannot compose: inner codomain %r != outer domain %r"
            % (inner_map.codomain, outer.domain)
        )
    c_re = outer.c_re @ inner_map.c_re
    c_ze = outer.c_re @ inner_map.c_ze + outer.c_ze @ inner_map.c_re + outer.p @ inner_map.d
    p = outer.c_re @ inner_map.p + outer.p @ inner_map.q
    d = outer.d @ inner_map.c_re + outer.q @ inner_map.d
    q = outer.q @ inner_map.q
    return ModuleMap(inner_map.n, inner_map.m, outer.s, outer.t, c_re, c_ze, p, d, q)


def realify(v: DualVector) -> np.ndarray:
    """Flatten to 2n + m reals: head re parts, head ze parts, tail."""
    return np.array(
        [h.re for h in v.head] + [h.ze for h in v.head] + list(v.tail), dtype=float
    )


def unrealify(arr, n: int, m: int) -> DualVector:
    arr = np.asarray(arr, dtype=float).reshape(2 * n + m)
    head = tuple(DualNumber(arr[i], arr[n + i]) for i in range(n))
    tail = tuple(float(r) for r in arr[2 * n :])
    return DualVector(head, tail)


def realify_map(lam: ModuleMap) -> np.ndarray:
    """The (2s + t) x (2n + m) real matrix acting on realified coordinates."""
    n, m, s, t = lam.n, lam.m, lam.s, lam.t
    out = np.zeros((2 * s + t, 2 * n + m))
    out[0:s, 0:n] = lam.c_re
    out[s : 2 * s, 0:n] = lam.c_ze
    out[s : 2 * s, n : 2 * n] = lam.c_re
    out[s : 2 * s, 2 * n :] = lam.p
    out[2 * s :, 0:n] = lam.d
    out[2 * s :, 2 * n :] = lam.q
    return out


def map_from_realified(
    mat, domain: tuple[int, int], codomain: tuple[int, int], atol: float = 1e-8
) -> ModuleMap:
    """Recover blocks from a realified matrix, checking the forced zeros."""
    n, m = domain
    s, t = codomain
    mat = np.asarray(mat, dtype=float).reshape(2 * s + t, 2 * n + m)
    scale = max(1.0, float(np.abs(mat).max()) if mat.size else 1.0)
    forced = [
        mat[0:s, n : 2 * n],
        mat[0:s, 2 * n :],
        mat[2 * s :, n : 2 * n],
        mat[0:s, 0:n] - mat[s : 2 * s, n : 2 * n],
    ]
    for block in forced:
        if block.size and np.abs(block).max() > atol * scale:
            raise ValueError("matrix does not commute with eps multiplication")
    return ModuleMap(
        n, m, s, t,
        mat[0:s, 0:n],
        mat[s : 2 * s, 0:n],
        mat[s : 2 * s, 2 * n :],
        mat[2 * s :, 0:n],
        mat[2 * s :, 2 * n :],
    )


def inverse_map(lam: ModuleMap, tol: float | None = None) -> ModuleMap:
    """Invert an isomorphism; the realified inverse keeps the block shape."""
    if not is_isomorphism(lam, tol):
        raise NoSolution("map is not an isomorphism")
    inv_mat = np.linalg.inv(realify_map(lam))
    return map_from_realified(inv_mat, lam.codomain, lam.domain)


def _matrix_rank(rows: np.ndarray, tol: float) -> int:
    if rows.size == 0:
        return 0
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def is_independent(
    s1: list[DualVector], s2: list[DualVector], tol: float | None = None
) -> bool:
    """Independence with dual coefficients on s1 and real coefficients on s2.

    Equivalent to real independence of {realify(v), realify(eps v)} for v in
    s1 together with {realify(w)} for w in s2.
    """
    tol = resolve_tol(tol)
    s1 = list(s1)
    s2 = list(s2)
    shapes = {v.shape for v in s1} | {w.shape for w in s2}
    if len(shapes) > 1:
        raise ShapeMismatch("mixed shapes %r" % (shapes,))
    for w in s2:
        if not in_ker_sharp(w, tol):
            raise NotInKer("s2 member has an invertible head entry")
    rows = [realify(v) for v in s1]
    rows += [realify(sharp_action(v)) for v in s1]
    rows += [realify(w) for w in s2]
    if not rows:
        return True
    mat = np.vstack(rows)
    return _matrix_rank(mat, tol) == len(rows)


def _row_scale(v: DualVector) -> float:
    mags = [abs(h.re) for h in v.head] + [abs(h.ze) for h in v.head]
    mags += [abs(r) for r in v.tail]
    return max(mags) if mags else 0.0


def extract_basis(
    generators: list[DualVector], tol: float | None = None
) -> SplitBasis:
    """Reduce generators (dual coefficients allowed on all of them) to a
    split basis of the span.

    Phase 1 pivots on head entries with invertible re part, eliminating with
    dual row operations.  What remains is killed by eps, so phase 2 factors
    out eps and runs real elimination on the leftover ze and tail
    coordinates.
    """
    tol = resolve_tol(tol)
    gens = list(generators)
    if not gens:
        return SplitBasis((), ())
    shape = gens[0].shape
    for g in gens:
        if g.shape != shape:
            raise ShapeMismatch("generator shape %r != %r" % (g.shape, shape))
    n, m = shape
    scale = max((_row_scale(g) for g in gens), default=0.0)
    thresh = tol * max(1.0, scale)

    work = [g for g in gens if _row_scale(g) > thresh]
    s1: list[DualVector] = []
    pivot_cols: list[int] = []

    # Phase 1: sweep head columns until no invertible entries remain.
    while True:
        found = False
        for col in range(n):
            if col in pivot_cols:
                continue
            best = None
            best_score = 0.0
            for idx, v in enumerate(work):
                rs = _row_scale(v)
                if rs <= thresh:
                    continue
                mag = abs(v.head[col].re)
                if mag > thresh and mag / rs > best_score:
                    best = idx
                    best_score = mag / rs
            if best is None:
                continue
            found = True
            piv = work.pop(best)
            piv = scalar_mul(inv(piv.head[col], tol=0.0), piv)
            piv = with_head_entry(piv, col, ONE)
            work = [_eliminate_head(w, col, piv) for w in work]
            s1 = [_eliminate_head(u, col, piv) for u in s1]
            s1.append(piv)
            pivot_cols.append(col)
            work = [w for w in work if _row_scale(w) > thresh]
        if not found:
            break

    # Phase 2: residual rows are killed by eps; drop the (noise-level) re
    # parts and run real elimination over (head ze, tail) coordinates.
    real_rows = []
    for w in work:
        real_rows.append(
            np.array([h.ze for h in w.head] + list(w.tail), dtype=float)
        )
    reduced = _real_rref(real_rows, thresh)
    s2 = [
        DualVector(
            tuple(DualNumber(0.0, row[i]) for i in range(n)),
            tuple(row[n:]),
        )
        for row in reduced
    ]
    return SplitBasis(tuple(s1), tuple(s2))


def _eliminate_head(w: DualVector, col: int, piv: DualVector) -> DualVector:
    coef = w.head[col]
    out = w - scalar_mul(coef, piv)
    return with_head_entry(out, col, ZERO)


def _real_rref(rows: list[np.ndarray], thresh: float) -> list[np.ndarray]:
    rows = [r for r in rows if r.size and np.abs(r).max() > thresh]
    if not rows:
        return []
    width = rows[0].size
    out: list[np.ndarray] = []
    pivot_cols: list[int] = []
    while True:
        found = False
        for col in range(width):
            if col in pivot_cols:
                continue
            best = None
            best_score = 0.0
            for idx, r in enumerate(rows):
                rs = np.abs(r).max()
                if rs <= thresh:
                    continue
                mag = abs(r[col])
                if mag > thresh and mag / rs > best_score:
                    best = idx
                    best_score = mag / rs
            if best is None:
                continue
            found = True
            piv = rows.pop(best)
            piv = piv / piv[col]
            piv[col] = 1.0
            for r in rows:
                r -= r[col] * piv
                r[col] = 0.0
            for r in out:
                r -= r[col] * piv
                r[col] = 0.0
            out.append(piv)
            pivot_cols.append(col)
            rows = [r for r in rows if np.abs(r).max() > thresh]
        if not found:
            break
    return out


def basis_map(basis: SplitBasis, codomain: tuple[int, int]) -> ModuleMap:
    """The map from shape (|s1|, |s2|) sending basis slots to basis members."""
    return ModuleMap.from_basis_images(list(basis.s1), list(basis.s2), codomain)


def solve(lam: ModuleMap, b: DualVector, tol: float | None = None) -> DualVector:
    """Minimum-norm solution of apply(lam, v) = b on the realification.

    Raises NoSolution when the least-squares residual exceeds
    tol * (1 + |b|).
    """
    tol = resolve_tol(tol)
    if b.shape != lam.codomain:
        raise ShapeMismatch(
            "right-hand side shape %r != map codomain %r" % (b.shape, lam.codomain)
        )
    mat = realify_map(lam)
    x, *_ = np.linalg.lstsq(mat, realify(b), rcond=None)
    v = unrealify(x, lam.n, lam.m)
    residual = vector_norm(apply(lam, v) - b)
    if residual > tol * (1.0 + vector_norm(b)):
        raise NoSolution("least-squares residual %g exceeds tolerance" % residual)
    return v


def is_isomorphism(lam: ModuleMap, tol: float | None = None) -> bool:
    """True when domain and codomain shapes agree and the realified matrix
    has full rank."""
    tol = resolve_tol(tol)
    if lam.domain != lam.codomain:
        return False
    size = 2 * lam.n + lam.m
    if size == 0:
        return True
    return _matrix_rank(realify_map(lam), tol) == size
