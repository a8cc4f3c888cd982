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

from dataclasses import dataclass

import numpy as np

from dualmod.core import (
    EPS,
    ONE,
    ZERO,
    DualNumber,
    DualVector,
    ShapeMismatch,
    as_index,
    resolve_tol,
    standard_basis,
)
from dualmod.linalg import NotInKer, apply, extract_basis, is_independent, unrealify

SV_RATIO = 1e-8


class FormInvalid(ValueError):
    """Malformed Gram data (shape, symmetry type, or JSON fields)."""


class NumericalBreakdown(RuntimeError):
    """Pair extraction could not complete at the working tolerance."""


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
        if self.n < 0 or self.m < 0:
            raise FormInvalid("negative shape")
        if self.n + self.m == 0:
            raise EmptyShape("a form needs at least one direction")
        size = self.n + self.m
        for name in ("g_re", "g_ze"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (size, size):
                raise FormInvalid(
                    "%s must be %dx%d, got %r" % (name, size, size, arr.shape)
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        if not isinstance(data, dict):
            raise FormInvalid("form must be an object, got %r" % (data,))
        for key in ("N", "M", "G"):
            if key not in data:
                raise FormInvalid("form is missing field %r" % key)
        try:
            n, m = as_index(data["N"], "N"), as_index(data["M"], "M")
        except ValueError as exc:
            raise FormInvalid(str(exc)) from None
        size = n + m
        rows = data["G"]
        if len(rows) != size or any(len(r) != size for r in rows):
            raise FormInvalid("G must be a %dx%d matrix of [re, ze] pairs" % (size, size))
        g_re = np.zeros((size, size))
        g_ze = np.zeros((size, size))
        for a, row in enumerate(rows):
            for b, cell in enumerate(row):
                if not isinstance(cell, (list, tuple)) or len(cell) != 2:
                    raise FormInvalid(
                        "G[%d][%d] must be an [re, ze] pair, got %r" % (a, b, cell)
                    )
                g_re[a, b], g_ze[a, b] = float(cell[0]), float(cell[1])
        return cls(n, m, g_re, g_ze)


def _coeffs(form: GramForm, v: DualVector):
    if v.shape != form.shape:
        raise ShapeMismatch(
            "vector shape %r does not match form shape %r" % (v.shape, form.shape)
        )
    re = np.array([h.re for h in v.head] + list(v.tail))
    ze = np.array([h.ze for h in v.head] + [0.0] * form.m)
    return re, ze


def eval_form(form: GramForm, v: DualVector, w: DualVector) -> DualNumber:
    """Bilinear extension of the Gram matrix; tail coordinates enter through
    their real coefficients."""
    a_re, a_ze = _coeffs(form, v)
    b_re, b_ze = _coeffs(form, w)
    re = a_re @ form.g_re @ b_re
    ze = a_ze @ form.g_re @ b_re + a_re @ form.g_ze @ b_re + a_re @ form.g_re @ b_ze
    return DualNumber(float(re), float(ze))


def standard_form(n: int, m: int) -> GramForm:
    """The reference structure on shape (2n, 2m): consecutive head slots
    pair to 1, consecutive tail slots pair to eps."""
    if n < 0 or m < 0:
        raise FormInvalid("negative shape")
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

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class FormReport:
    shape: tuple[int, int]
    checks: tuple[FormCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _sv_kernel_vector(block: np.ndarray) -> list:
    _, _, vt = np.linalg.svd(block)
    return [float(x) for x in vt[-1]]


def check_form(form: GramForm, tol: float | None = None) -> FormReport:
    """Test the symplectic axioms on a Gram matrix.

    Structural checks (antisymmetry, pure tail rows) use `tol`; the two
    nondegeneracy checks use the fixed singular value ratio 1e-8.
    """
    tol = resolve_tol(tol)
    n, m = form.n, form.m
    scale = 1.0 + float(max(np.abs(form.g_re).max(), np.abs(form.g_ze).max()))
    checks = []

    anti = float(
        max(
            np.abs(form.g_re + form.g_re.T).max(),
            np.abs(form.g_ze + form.g_ze.T).max(),
        )
    )
    checks.append(FormCheck("antisymmetric", anti <= tol * scale, anti))

    purity = 0.0
    if m:
        purity = float(
            max(np.abs(form.g_re[n:, :]).max(), np.abs(form.g_re[:, n:]).max())
        )
    checks.append(FormCheck("tail_rows_pure", purity <= tol * scale, purity))

    head_block = form.g_re[:n, :n]
    if n == 0:
        checks.append(FormCheck("head_block_nondegenerate", True, None))
    elif n % 2 == 1:
        checks.append(
            FormCheck("head_block_nondegenerate", False, 0.0, witness=None)
        )
    else:
        sv = np.linalg.svd(head_block, compute_uv=False)
        ratio = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
        ok = ratio > SV_RATIO
        checks.append(
            FormCheck(
                "head_block_nondegenerate",
                ok,
                ratio,
                None if ok else _sv_kernel_vector(head_block),
            )
        )

    tail_block = form.g_ze[n:, n:]
    if m == 0:
        checks.append(FormCheck("kernel_pairing_nondegenerate", True, None))
    elif m % 2 == 1:
        checks.append(
            FormCheck("kernel_pairing_nondegenerate", False, 0.0, witness=None)
        )
    else:
        sv = np.linalg.svd(tail_block, compute_uv=False)
        ratio = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
        ok = ratio > SV_RATIO
        checks.append(
            FormCheck(
                "kernel_pairing_nondegenerate",
                ok,
                ratio,
                None if ok else _sv_kernel_vector(tail_block),
            )
        )
    return FormReport((n, m), tuple(checks))


def random_form(n: int, m: int, seed: int = 0) -> GramForm:
    """A valid structure on shape (2n, 2m): the reference form conjugated by
    a random automorphism."""
    from dualmod.sampling import random_automorphism, rng_from

    rng = rng_from(seed)
    base = standard_form(n, m)
    auto = random_automorphism(rng, 2 * n, 2 * m)
    images = [apply(auto, v) for v in standard_basis(2 * n, 2 * m)]
    size = 2 * n + 2 * m
    g_re = np.zeros((size, size))
    g_ze = np.zeros((size, size))
    for a in range(size):
        for b in range(size):
            w = eval_form(base, images[a], images[b])
            g_re[a, b], g_ze[a, b] = w.re, w.ze
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

    def to_json(self) -> dict:
        return {
            "pairs_head": [
                [e.to_json(), f.to_json()] for e, f in self.pairs_head
            ],
            "pairs_tail": [
                [u.to_json(), v.to_json()] for u, v in self.pairs_tail
            ],
        }

    @classmethod
    def from_json(cls, data) -> "DarbouxBasis":
        if not isinstance(data, dict):
            raise ValueError("basis must be an object, got %r" % (data,))
        for key in ("pairs_head", "pairs_tail"):
            if key not in data:
                raise ValueError("basis is missing field %r" % key)
        heads = tuple(
            (DualVector.from_json(e), DualVector.from_json(f))
            for e, f in data["pairs_head"]
        )
        tails = tuple(
            (DualVector.from_json(u), DualVector.from_json(v))
            for u, v in data["pairs_tail"]
        )
        return cls(heads, tails)


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
    """
    tol = resolve_tol(tol)
    n, m = form.n, form.m
    thresh = tol * (1.0 + max(np.abs(form.g_re).max(), np.abs(form.g_ze).max()))
    # eval_form on realified rows v, w: (re, ze) = v h w
    re_cols, ze_cols = np.r_[0:n, 2 * n : 2 * n + m], np.arange(n, 2 * n)
    h_re, h_ze = h = np.zeros((2, 2 * n + m, 2 * n + m))
    h_re[np.ix_(re_cols, re_cols)] = form.g_re
    h_ze[np.ix_(re_cols, re_cols)] = form.g_ze
    h_ze[np.ix_(ze_cols, re_cols)] = form.g_re[:n]
    h_ze[np.ix_(re_cols, ze_cols)] = form.g_re[:, :n]

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
                s = (1.0 / p_re[a, b], -p_ze[a, b] / (p_re[a, b] * p_re[a, b]))
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
    norms = np.sqrt(cands**2 @ np.r_[np.full(n, 2.0), np.ones(n + m)])
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
        return tuple((unrealify(e, n, m), unrealify(f, n, m)) for e, f in pairs)

    return DarbouxBasis(boxed(pairs_head), boxed(pairs_tail))


@dataclass(frozen=True)
class DarbouxReport:
    passed: bool
    pairing_residual: float
    independent: bool
    complete: bool

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "pairing_residual": self.pairing_residual,
            "independent": self.independent,
            "complete": self.complete,
        }


def verify_darboux(
    basis: DarbouxBasis, form: GramForm, tol: float = 1e-9
) -> DarbouxReport:
    """Check pairings against the reference pattern, independence, and that
    the pairs span the whole space."""
    vecs = basis.vectors()
    nh, nt = len(basis.pairs_head), len(basis.pairs_tail)
    worst = 0.0
    for a in range(len(vecs)):
        for b in range(len(vecs)):
            expected = ZERO
            if a // 2 == b // 2:
                if b == a + 1:
                    expected = ONE if a < 2 * nh else EPS
                elif a == b + 1:
                    expected = -ONE if b < 2 * nh else -EPS
            got = eval_form(form, vecs[a], vecs[b])
            worst = max(
                worst, abs(got.re - expected.re), abs(got.ze - expected.ze)
            )
    scale = 1.0 + float(max(np.abs(form.g_re).max(), np.abs(form.g_ze).max()))
    pairing_ok = worst <= tol * scale

    s1 = [e for pair in basis.pairs_head for e in pair]
    s2 = [u for pair in basis.pairs_tail for u in pair]
    try:
        independent = bool(is_independent(s1, s2, tol=tol))
    except NotInKer:
        independent = False
    complete = extract_basis(vecs).dim == form.shape

    return DarbouxReport(
        bool(pairing_ok and independent and complete), worst, independent, complete
    )
