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

import math
from dataclasses import dataclass

import numpy as np

from dualmod.core import (
    DualNumber,
    DualVector,
    EPS,
    ONE,
    ShapeMismatch,
    as_index,
    in_ker_sharp,
    json_fields,
    json_grid,
    json_list,
    resolve_tol,
    sharp_action,
)

# map_from_realified's bound on the forced zero blocks, relative to scale
BLOCK_ATOL = 1e-8


class NotInKer(ValueError):
    """Raised when a tail-slot basis member is not killed by eps."""


class NoSolution(Exception):
    """Raised when a linear system has no solution within tolerance."""


class NumericalBreakdown(RuntimeError):
    """A reduction could not complete in floating point or at the working
    tolerance."""


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
        for name in ("n", "m", "s", "t"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        for name, shape in (
            ("c_re", (self.s, self.n)),
            ("c_ze", (self.s, self.n)),
            ("p", (self.s, self.m)),
            ("d", (self.t, self.n)),
            ("q", (self.t, self.m)),
        ):
            a = np.asarray(getattr(self, name), dtype=float).reshape(shape)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not np.isfinite(self._entries()).all():
            raise ValueError("map blocks hold a non-finite entry")

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def _values(self) -> tuple:  # the shape, then the entries: 0.0 equals -0.0
        return (self.n, self.m, self.s, self.t, *self._entries().tolist())

    def _entries(self) -> np.ndarray:
        return np.concatenate([b.ravel() for b in (self.c_re, self.c_ze, self.p, self.d, self.q)])

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
        return cls.scalar(n, m, ONE)

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
        return cls.scalar(n, m, EPS)

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
        for j, v in enumerate(tail_images):
            if not in_ker_sharp(v, tol):
                raise NotInKer("tail image %d has an invertible head entry" % j)
        # columns of the blocks: realified images [re | ze | tail]
        n, m = len(head_images), len(tail_images)
        heads = np.array([v.array for v in head_images]).reshape(n, 2 * s + t).T
        tails = np.array([v.array for v in tail_images]).reshape(m, 2 * s + t).T
        c_re, c_ze, d = heads[:s], heads[s : 2 * s], heads[2 * s :]
        p, q = tails[s : 2 * s], tails[2 * s :]
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
        n, m, s, t, c, p, d, q = json_fields(data, "map", ("n", "m", "s", "t", "C", "P", "D", "Q"))
        n, m, s, t = (as_index(v, k) for k, v in zip("nmst", (n, m, s, t)))
        c = json_grid(c, (s, n, 2), "map field 'C'")
        return cls(
            n, m, s, t, c[..., 0], c[..., 1],
            json_grid(p, (s, m), "map field 'P'"),
            json_grid(d, (t, n), "map field 'D'"),
            json_grid(q, (t, m), "map field 'Q'"),
        )


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
        s1, s2 = json_fields(data, "split basis", ("S1", "S2"))
        return cls(
            tuple(map(DualVector.from_json, json_list(s1, "split basis field 'S1'"))),
            tuple(map(DualVector.from_json, json_list(s2, "split basis field 'S2'"))),
        )


def apply(lam: ModuleMap, v: DualVector) -> DualVector:
    """Apply a map as one product of the realified map and vector."""
    if v.shape != lam.domain:
        raise ShapeMismatch("vector shape %r != map domain %r" % (v.shape, lam.domain))
    return unrealify(realify_map(lam) @ v.array, lam.s, lam.t)


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
    """The 2n + m reals head re parts, head ze parts, tail, as a writable
    copy of the vector's stored array."""
    return v.array.copy()


def unrealify(arr, n: int, m: int) -> DualVector:
    """The shape-(n, m) vector with realified coordinates arr, stored in a
    read-only copy of arr."""
    return DualVector._wrap(np.asarray(arr, dtype=float).reshape(2 * n + m).copy(), n)


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


def map_from_realified(mat, domain: tuple[int, int], codomain: tuple[int, int]) -> ModuleMap:
    """Recover blocks from a realified matrix, checking that the forced
    zeros stay within BLOCK_ATOL of the largest entry (or of 1)."""
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
        if block.size and np.abs(block).max() > BLOCK_ATOL * scale:
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
    rows = [v.array for v in s1]
    rows += [sharp_action(v).array for v in s1]
    rows += [w.array for w in s2]
    if not rows:
        return True
    mat = np.vstack(rows)
    return _matrix_rank(mat, tol) == len(rows)


def extract_basis(
    generators: list[DualVector], tol: float | None = None
) -> SplitBasis:
    """Reduce generators (dual coefficients allowed on all of them) to a
    split basis of the span.

    The generators are realified once into the rows [re | ze | tail] of one
    array.  Phase 1 picks each pivot over all remaining rows and unpivoted
    head columns at once: the largest |re| relative to its row's largest
    entry, the first such in row-major order.  It scales the pivot row by
    the dual inverse of that entry and clears the column from every other
    row with whole-array dual row operations.  What remains is killed by
    eps up to roundoff, so phase 2 drops the re parts and takes the rank of
    the (ze, tail) block by SVD, counting singular values above
    tol * max(1, largest generator entry); s2 is the reduced row echelon
    form of the leading right singular vectors.
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
    rows = np.array([g.array for g in gens]).reshape(len(gens), 2 * n + m)
    if not np.isfinite(rows).all():
        raise ValueError("generators hold a non-finite entry")
    scales = np.abs(rows).max(axis=1, initial=0.0)
    thresh = tol * max(1.0, scales.max())
    rows = rows[scales > thresh]
    sharp = realify_map(ModuleMap.sharp_map(n, m))  # eps times a realified row
    pivots: list[int] = []

    # Phase 1: dual elimination on invertible head entries.  Entries near
    # the float limit can overflow; one check after the loop catches it.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            mags = np.abs(rows[:, :n])
            cand = mags > thresh
            cand[pivots] = False
            if not cand.any():
                break
            scale = np.abs(rows).max(axis=1, keepdims=True)
            score = np.divide(mags, scale, out=np.zeros_like(mags), where=cand)
            row, col = divmod(int(np.argmax(score)), n)
            piv = rows[row]
            s_r, s_z = 1.0 / piv[col], -piv[n + col] / (piv[col] * piv[col])
            piv[:] = s_r * piv + s_z * (sharp @ piv)
            coef = rows[:, [col, n + col]].copy()
            coef[row] = 0.0
            rows -= np.outer(coef[:, 0], piv) + np.outer(coef[:, 1], sharp @ piv)
            rows[:, [col, n + col]] = 0.0
            piv[col] = 1.0
            pivots.append(row)
    if not np.isfinite(rows).all():
        raise NumericalBreakdown("elimination overflowed on generators this large")

    # Phase 2: the residual rows lie in the kernel of eps up to roundoff.
    _, sv, vt = np.linalg.svd(np.delete(rows, pivots, axis=0)[:, n:], full_matrices=False)
    reduced = _echelon(vt[: int(np.sum(sv > thresh))])
    s2 = [unrealify(np.concatenate([np.zeros(n), row]), n, m) for row in reduced]
    s1 = [unrealify(rows[r], n, m) for r in pivots]
    return SplitBasis(tuple(s1), tuple(s2))


def _echelon(rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form of independent rows, by Gauss-Jordan
    elimination with complete pivoting: each pivot entry is exactly 1, the
    rest of its column exactly 0, and rows come in pivot column order."""
    rows = rows.copy()
    cols: list[int] = []
    for k in range(len(rows)):
        mags = np.abs(rows[k:])
        mags[:, cols] = -1.0
        i, col = divmod(int(np.argmax(mags)), rows.shape[1])
        rows[[k, k + i]] = rows[[k + i, k]]
        rows[k] /= rows[k, col]
        rows[k, col] = 1.0
        others = np.arange(len(rows)) != k
        rows[others] -= np.outer(rows[others, col], rows[k])
        rows[others, col] = 0.0
        cols.append(col)
    return rows[np.argsort(cols)]


def basis_map(basis: SplitBasis, codomain: tuple[int, int]) -> ModuleMap:
    """The map from shape (|s1|, |s2|) sending basis slots to basis members."""
    return ModuleMap.from_basis_images(list(basis.s1), list(basis.s2), codomain)


def solve(lam: ModuleMap, b: DualVector, tol: float | None = None) -> DualVector:
    """Minimum-norm solution of apply(lam, v) = b on the realification.

    Raises NoSolution when the least-squares residual is not finite or
    exceeds tol * (1 + |b|), both norms taken as in residual_norm.
    """
    tol = resolve_tol(tol)
    if b.shape != lam.codomain:
        raise ShapeMismatch(
            "right-hand side shape %r != map codomain %r" % (b.shape, lam.codomain)
        )
    rhs = realify(b)
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side holds a non-finite entry")
    x, *_ = np.linalg.lstsq(realify_map(lam), rhs, rcond=None)
    v = unrealify(x, lam.n, lam.m)
    residual = residual_norm(lam, v, b)
    if not (math.isfinite(residual) and residual <= tol * (1.0 + _norm(rhs, lam.s))):
        raise NoSolution("least-squares residual %g exceeds tolerance" % residual)
    return v


def residual_norm(lam: ModuleMap, v: DualVector, b: DualVector) -> float:
    """core.vector_norm(apply(lam, v) - b), with the squares summed over the
    realified residual divided by its largest entry, so that a residual
    near the float limit does not overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _norm(apply(lam, v).array - b.array, lam.s)


def _norm(x: np.ndarray, n: int) -> float:
    """core.vector_norm of a realified vector with n heads, summed over x
    divided by its largest entry; inf and NaN pass through."""
    big = float(np.abs(x).max(initial=0.0))
    if not 0.0 < big < math.inf:
        return big
    y = x / big
    return big * math.sqrt(2.0 * float(y[:n] @ y[:n]) + float(y[n:] @ y[n:]))


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
