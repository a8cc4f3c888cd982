"""Antisymmetric bilinear forms on split vectors and pair-basis extraction.

A form is stored by its Gram matrix over the standard basis (head slots
first, then tail slots).  Algebra scaling forces every tail row and column
to be a pure zero divisor, so the real part of the Gram matrix lives in the
head block alone.  A form is a symplectic structure when, additionally, the
real part of the head block and the eps part of the tail block are both
nondegenerate; `check_form` tests exactly that and `darboux_basis` turns a
passing form into normalized pairs pairing to 1 (head pairs) and to eps
(kernel pairs).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from dualmod.core import (
    DualNumber,
    DualVector,
    ShapeMismatch,
    as_index,
    json_fields,
    json_grid,
    json_list,
    json_writer,
    resolve_tol,
    row_norms,
)
from dualmod.linalg import (
    NotInKer,
    NumericalBreakdown,
    extract_basis,
    is_independent,
    realify_map,
    unrealify,
)

SV_RATIO = 1e-8


class FormInvalid(ValueError):
    """Malformed Gram data (shape, symmetry type, or JSON fields)."""


class EmptyShape(ValueError):
    """A form needs at least one head or tail direction."""


@dataclass(frozen=True)
class GramForm:
    """Gram matrix of a bilinear form on an (n, m) split space.

    Rows and columns are indexed by the n head slots followed by the m tail
    slots; entry (a, b) is the form applied to basis slots a and b.
    """

    n: int
    m: int
    g_re: np.ndarray
    g_ze: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _size(self.n, "n"))
        object.__setattr__(self, "m", _size(self.m, "m"))
        if self.n + self.m == 0:
            raise EmptyShape("a form needs at least one direction")
        size = self.n + self.m
        for name in ("g_re", "g_ze"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (size, size):
                raise FormInvalid(
                    "%s must be %dx%d, got %r" % (name, size, size, arr.shape)
                )
            if not np.isfinite(arr).all():
                raise FormInvalid("%s holds a non-finite entry" % name)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def _values(self) -> tuple:  # the shape, then the entries: 0.0 equals -0.0
        return (self.n, self.m, *self.g_re.ravel().tolist(), *self.g_ze.ravel().tolist())

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.m)

    def to_json(self) -> dict:
        size = self.n + self.m
        return {
            "N": self.n,
            "M": self.m,
            "G": [
                [[self.g_re[a, b], self.g_ze[a, b]] for b in range(size)]
                for a in range(size)
            ],
        }

    @classmethod
    def from_json(cls, data) -> "GramForm":
        try:
            n, m, g = json_fields(data, "form", ("N", "M", "G"))
            n, m = as_index(n, "N"), as_index(m, "M")
            g = json_grid(g, (n + m, n + m, 2), "G")
        except ValueError as exc:
            raise FormInvalid(str(exc)) from None
        return cls(n, m, g[..., 0], g[..., 1])


def _size(value, what: str) -> int:
    """as_index for a form's shape, raising FormInvalid."""
    try:
        return as_index(value, what)
    except ValueError as exc:
        raise FormInvalid(str(exc)) from None


def _largest(form: GramForm) -> float:
    """The largest magnitude among the form's Gram entries."""
    return float(max(np.abs(form.g_re).max(), np.abs(form.g_ze).max()))


def _check_shape(form: GramForm, v: DualVector) -> None:
    if v.shape != form.shape:
        raise ShapeMismatch(
            "vector shape %r does not match form shape %r" % (v.shape, form.shape)
        )


def _coeffs(form: GramForm, v: DualVector):
    _check_shape(form, v)
    n, arr = form.n, v.array
    re = np.concatenate([arr[:n], arr[2 * n :]])
    ze = np.concatenate([arr[n : 2 * n], np.zeros(form.m)])
    return re, ze


def eval_form(form: GramForm, v: DualVector, w: DualVector) -> DualNumber:
    """Bilinear extension of the Gram matrix; tail coordinates enter through
    their real coefficients."""
    a_re, a_ze = _coeffs(form, v)
    b_re, b_ze = _coeffs(form, w)
    re = a_re @ form.g_re @ b_re
    ze = a_ze @ form.g_re @ b_re + a_re @ form.g_ze @ b_re + a_re @ form.g_re @ b_ze
    return DualNumber(float(re), float(ze))


def _pairing(form: GramForm) -> np.ndarray:
    """The (2, 2n+m, 2n+m) tensor h with (re, ze) of eval_form(v, w) equal
    to realify(v) @ h @ realify(w): eval_form's product rule on realified
    coordinates (head re parts, head ze parts, tails)."""
    n, m = form.n, form.m
    re_cols, ze_cols = np.r_[0:n, 2 * n : 2 * n + m], np.arange(n, 2 * n)
    h_re, h_ze = h = np.zeros((2, 2 * n + m, 2 * n + m))
    h_re[np.ix_(re_cols, re_cols)] = form.g_re
    h_ze[np.ix_(re_cols, re_cols)] = form.g_ze
    h_ze[np.ix_(ze_cols, re_cols)] = form.g_re[:n]
    h_ze[np.ix_(re_cols, ze_cols)] = form.g_re[:, :n]
    return h


def standard_form(n: int, m: int) -> GramForm:
    """The reference structure on shape (2n, 2m): consecutive head slots
    pair to 1, consecutive tail slots pair to eps."""
    n, m = _size(n, "n"), _size(m, "m")
    size = 2 * n + 2 * m
    g_re = np.zeros((size, size))
    g_ze = np.zeros((size, size))
    for k in range(n):
        g_re[2 * k, 2 * k + 1] = 1.0
        g_re[2 * k + 1, 2 * k] = -1.0
    base = 2 * n
    for j in range(m):
        g_ze[base + 2 * j, base + 2 * j + 1] = 1.0
        g_ze[base + 2 * j + 1, base + 2 * j] = -1.0
    return GramForm(2 * n, 2 * m, g_re, g_ze)


@dataclass(frozen=True)
class FormCheck:
    name: str
    passed: bool
    residual: float | None = None
    witness: list | None = None

    to_json = json_writer("name", "passed", "residual", "witness")


@dataclass(frozen=True)
class FormReport:
    shape: tuple[int, int]
    checks: tuple[FormCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    to_json = json_writer("shape", "passed", "checks")


def _nondegenerate(name: str, block: np.ndarray) -> FormCheck:
    """A square block is nondegenerate when its size is even and its
    singular value ratio exceeds SV_RATIO; a failing even block's witness
    is its last right singular vector.  An empty block passes."""
    if not len(block):
        return FormCheck(name, True, None)
    if len(block) % 2 == 1:
        return FormCheck(name, False, 0.0, witness=None)
    sv = np.linalg.svd(block, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
    if ratio > SV_RATIO:
        return FormCheck(name, True, ratio)
    return FormCheck(name, False, ratio, [float(x) for x in np.linalg.svd(block)[2][-1]])


def check_form(form: GramForm, tol: float | None = None) -> FormReport:
    """Test the symplectic axioms on a Gram matrix.

    Structural checks (antisymmetry, pure tail rows) use `tol` relative to
    the largest Gram entry, so a form scaled by a power of two keeps its
    verdicts; the two nondegeneracy checks use the fixed singular value
    ratio 1e-8.
    """
    tol = resolve_tol(tol)
    n, m = form.n, form.m
    scale = _largest(form)
    checks = []

    with np.errstate(over="ignore"):  # entries near the float limit
        anti = float(
            max(
                np.abs(form.g_re + form.g_re.T).max(),
                np.abs(form.g_ze + form.g_ze.T).max(),
            )
        )
    anti = min(anti, sys.float_info.max)  # an overflowed sum saturates
    checks.append(FormCheck("antisymmetric", anti <= tol * scale, anti))

    purity = 0.0
    if m:
        purity = float(
            max(np.abs(form.g_re[n:, :]).max(), np.abs(form.g_re[:, n:]).max())
        )
    checks.append(FormCheck("tail_rows_pure", purity <= tol * scale, purity))

    checks.append(_nondegenerate("head_block_nondegenerate", form.g_re[:n, :n]))
    checks.append(_nondegenerate("kernel_pairing_nondegenerate", form.g_ze[n:, n:]))
    return FormReport((n, m), tuple(checks))


def random_form(n: int, m: int, seed: int = 0) -> GramForm:
    """A valid structure on shape (2n, 2m): the reference form conjugated by
    a random automorphism."""
    from dualmod.sampling import random_automorphism, rng_from

    rng = rng_from(seed)
    base = standard_form(n, m)
    auto = random_automorphism(rng, 2 * n, 2 * m)
    # realified images of the standard basis: the head re and tail columns
    rows = realify_map(auto)[:, np.r_[0 : 2 * n, 4 * n : 4 * n + 2 * m]].T
    g_re, g_ze = rows @ _pairing(base) @ rows.T
    return GramForm(2 * n, 2 * m, g_re, g_ze)


@dataclass(frozen=True)
class DarbouxBasis:
    """Normalized pairs: head pairs pair to 1, kernel pairs to eps."""

    pairs_head: tuple[tuple[DualVector, DualVector], ...]
    pairs_tail: tuple[tuple[DualVector, DualVector], ...]

    def vectors(self) -> list[DualVector]:
        out = []
        for e, f in self.pairs_head:
            out.extend((e, f))
        for u, v in self.pairs_tail:
            out.extend((u, v))
        return out

    to_json = json_writer("pairs_head", "pairs_tail")

    @classmethod
    def from_json(cls, data) -> "DarbouxBasis":
        groups = [
            [json_list(p, "basis pair") for p in json_list(g, "basis pairs")]
            for g in json_fields(data, "basis", ("pairs_head", "pairs_tail"))
        ]
        if any(len(p) != 2 for g in groups for p in g):
            raise ValueError("basis pairs must hold two vectors each")
        return cls(*(tuple(tuple(map(DualVector.from_json, p)) for p in g) for g in groups))


def darboux_basis(form: GramForm, tol: float | None = None) -> DarbouxBasis:
    """Extract normalized pairs from a symplectic Gram matrix.

    The candidates, starting from the standard basis, are the rows of one
    realified array: the re parts of the heads and the tails, which the
    Gram matrix pairs, and the ze parts of the heads.  Each step forms the
    whole pairing matrix by eval_form's product rule, takes the first
    largest entry of its strict upper triangle as the next pair (e, y),
    normalizes f = y / pairing(e, y), and makes every other candidate g
    orthogonal to the pair, g - (g, f) e + (g, e) f, by outer products;
    tails see only the re part of a scalar.  Stage one pairs on re parts,
    to 1.  The survivors must then sit in the kernel of eps up to roundoff;
    their head re parts are clamped to exact zeros and stage two pairs on
    eps parts, to eps, with real coefficients.  Anything left over means
    the form was degenerate, which raises NumericalBreakdown.

    The pairing runs on the form scaled by a power of two, so that its
    largest entry lies in [0.5, 1), and each f is scaled back; both are
    exact in floating point, so the thresholds are relative to the form's
    own scale and a valid form scaled by 2**k gives the same e and each f
    times 2**-k.  A member that overflows at the form's scale raises
    NumericalBreakdown.
    """
    tol = resolve_tol(tol)
    n, m = form.n, form.m
    largest, scale = np.frexp(_largest(form))  # the scaled form's largest entry
    thresh = tol * (1.0 + largest)
    re_cols = np.r_[0:n, 2 * n : 2 * n + m]
    h = np.ldexp(_pairing(form), -scale)

    def times(c_re, c_ze, v):  # dual scalars c times the realified row v
        eps_v = np.zeros_like(v)
        eps_v[n : 2 * n] = v[:n]
        return np.outer(c_re, v) + np.outer(c_ze, eps_v)

    def peel(cands, head):
        pairs = []
        while len(cands) > 1:
            p_re, p_ze = cands @ h @ cands.T
            upper = np.triu(np.abs(p_re if head else p_ze), 1)
            a, b = divmod(int(np.argmax(upper)), len(cands))
            if upper[a, b] <= thresh:
                break
            if head:  # the dual inverse of the pairing
                with np.errstate(over="ignore"):
                    square = p_re[a, b] * p_re[a, b]
                if not np.isfinite(square):
                    raise NumericalBreakdown(
                        "the dual inverse of pairing %g overflows" % p_re[a, b]
                    )
                s = (1.0 / p_re[a, b], -p_ze[a, b] / square)
            else:
                s = (1.0 / p_ze[a, b], 0.0)
            e, f = cands[a], times(*s, cands[b])[0]
            cands = np.delete(cands, [a, b], axis=0)
            (cf_re, ce_re), (cf_ze, ce_ze) = (cands @ h @ np.stack([f, e]).T).transpose(0, 2, 1)
            if not head:  # real coefficients: the eps parts of the pairings
                cf_re, ce_re, cf_ze, ce_ze = cf_ze, ce_ze, 0.0, 0.0
            cands = cands - times(cf_re, cf_ze, e) + times(ce_re, ce_ze, f)
            pairs.append((e, f))
        return pairs, cands

    pairs_head, cands = peel(np.eye(2 * n + m)[re_cols], True)
    norms = row_norms(cands, n)
    for residue, norm in zip(np.abs(cands[:, :n]).max(axis=1, initial=0.0), norms):
        if residue > 1e-6 * (1.0 + norm):
            raise NumericalBreakdown(
                "head block is degenerate: a reduced candidate kept re size %g"
                % residue
            )
    cands[:, :n] = 0.0
    pairs_tail, cands = peel(cands, False)

    if len(cands):
        stray = int((np.abs(cands[:, re_cols]) > 1e-6).any(axis=1).sum())
        if stray:
            raise NumericalBreakdown(
                "kernel pairing is degenerate: %d unpaired directions" % stray
            )
        raise NumericalBreakdown(
            "%d leftover eps directions cannot be paired" % len(cands)
        )
    if 2 * len(pairs_head) != n or 2 * len(pairs_tail) != m:
        raise NumericalBreakdown(
            "pair counts (%d, %d) do not cover shape (%d, %d)"
            % (len(pairs_head), len(pairs_tail), n, m)
        )

    def boxed(pairs):
        with np.errstate(over="ignore"):
            pairs = [(e, np.ldexp(f, -scale)) for e, f in pairs]
        if not all(np.isfinite(f).all() for _, f in pairs):
            raise NumericalBreakdown("a pair member overflows at the form's scale 2**%d" % scale)
        return tuple((unrealify(e, n, m), unrealify(f, n, m)) for e, f in pairs)

    return DarbouxBasis(boxed(pairs_head), boxed(pairs_tail))


@dataclass(frozen=True)
class DarbouxReport:
    passed: bool
    pairing_residual: float
    independent: bool
    complete: bool

    to_json = json_writer("passed", "pairing_residual", "independent", "complete")


def verify_darboux(
    basis: DarbouxBasis, form: GramForm, tol: float = 1e-9
) -> DarbouxReport:
    """Check pairings against the reference pattern, independence, and that
    the pairs span the whole space.  The pairing of members a and b may
    miss its reference value by tol |a| |b| |G|, each size the largest
    entry, and independence and span are decided on the members divided
    by their largest entries, so no verdict depends on the form's scale.
    A basis with a non-finite entry fails all three."""
    vecs = basis.vectors()
    for v in vecs:
        _check_shape(form, v)
    n, m = form.shape
    rows = np.array([v.array for v in vecs]).reshape(len(vecs), 2 * n + m)
    finite = bool(np.isfinite(rows).all())
    big = np.abs(rows).max(axis=1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        got = rows @ _pairing(form) @ rows.T
        bound = np.outer(tol * _largest(form) * big, big)
    want = np.zeros_like(got)
    heads = 2 * len(basis.pairs_head)
    for a in range(0, len(vecs), 2):  # head pairs pair to 1, tail pairs to eps
        part = 0 if a < heads else 1
        want[part, a, a + 1], want[part, a + 1, a] = 1.0, -1.0
    gap = np.abs(got - want)
    worst = float(gap.max(initial=0.0))  # NaN or inf if not finite
    pairing_ok = bool(((gap <= bound) & np.isfinite(bound)).all())

    independent = complete = False
    if finite:
        # each member over its largest entry: a nonzero real rescaling
        # changes neither independence nor span, and the rank tests then
        # see the directions at unit scale; a zero member stays zero
        unit = [unrealify(r, n, m) for r in rows / np.where(big > 0.0, big, 1.0)[:, None]]
        try:
            independent = bool(is_independent(unit[:heads], unit[heads:], tol=tol))
        except NotInKer:
            pass
        complete = extract_basis(unit).dim == form.shape

    return DarbouxReport(
        bool(pairing_ok and independent and complete), worst, independent, complete
    )
