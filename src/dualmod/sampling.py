"""Seeded random generators used by the self-test suite, the CLI, and the
property tests.  Everything draws from an explicit numpy Generator so runs
are reproducible."""

from __future__ import annotations

import numpy as np

from dualmod.core import DualNumber, DualVector, NotInvertible
from dualmod.diff import (
    DualFunc,
    EvaluationFailed,
    Expr,
    const,
    eval_func,
    head_coord,
    inv_expr,
    sharp_expr,
    tail_coord,
)
from dualmod.linalg import ModuleMap

# tame_case's acceptance rule
TAME_MARGIN = 0.5
TAME_CAP = 10.0
TAME_TRIES = 1000


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_dual(rng, lo=-1.0, hi=1.0) -> DualNumber:
    return DualNumber(rng.uniform(lo, hi), rng.uniform(lo, hi))


def random_invertible_dual(rng, re_lo=0.5, re_hi=1.5) -> DualNumber:
    sign = -1.0 if rng.uniform() < 0.5 else 1.0
    return DualNumber(sign * rng.uniform(re_lo, re_hi), rng.uniform(-1.0, 1.0))


def random_rows(rng, n, m, count, lo=-1.0, hi=1.0) -> np.ndarray:
    """count random (n, m) vectors as realified rows (head re parts, head ze
    parts, tails), from one uniform draw taken in random_dual's order: each
    head's re and ze parts in turn, then the tails."""
    order = np.r_[0 : 2 * n : 2, 1 : 2 * n : 2, 2 * n : 2 * n + m]
    return rng.uniform(lo, hi, size=(count, 2 * n + m))[:, order]


def random_vector(rng, n, m, lo=-1.0, hi=1.0) -> DualVector:
    return DualVector._wrap(random_rows(rng, n, m, 1, lo, hi)[0], n)


def random_module_map(rng, domain, codomain, scale=1.0) -> ModuleMap:
    n, m = domain
    s, t = codomain
    u = lambda *shape: rng.uniform(-scale, scale, size=shape)
    return ModuleMap(n, m, s, t, u(s, n), u(s, n), u(s, m), u(t, n), u(t, m))


def random_automorphism(rng, n, m, spread=0.5) -> ModuleMap:
    """A well-conditioned isomorphism (n, m) -> (n, m).

    The re-to-re and tail-to-tail blocks are orthogonal matrices with
    moderate per-axis scaling, which keeps downstream pivoting stable.
    """

    def conditioned(size):
        if size == 0:
            return np.zeros((0, 0))
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        return q @ np.diag(rng.uniform(0.6, 1.6, size=size))

    return ModuleMap(
        n, m, n, m,
        conditioned(n),
        rng.uniform(-spread, spread, size=(n, n)),
        rng.uniform(-spread, spread, size=(n, m)),
        rng.uniform(-spread, spread, size=(m, n)),
        conditioned(m),
    )


def random_expr(rng, n, m, depth) -> Expr:
    """A random smooth expression tree (no real-part projections)."""
    total = n + m
    if depth <= 0 or rng.uniform() < 0.3:
        if total == 0 or rng.uniform() < 0.3:
            return const(DualNumber(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        k = int(rng.integers(0, total))
        return head_coord(k) if k < n else tail_coord(k - n)
    op = rng.choice(
        ["add", "sub", "mul", "neg", "sharp", "inv"],
        p=[0.25, 0.2, 0.25, 0.1, 0.1, 0.1],
    )
    if op in ("add", "sub", "mul"):
        return Expr(
            str(op),
            (random_expr(rng, n, m, depth - 1), random_expr(rng, n, m, depth - 1)),
        )
    if op == "inv":
        # offset by an invertible constant so probes have a fighting chance
        shift = const(random_invertible_dual(rng, 1.0, 2.0))
        return inv_expr(shift + random_expr(rng, n, m, depth - 1))
    return Expr(str(op), (random_expr(rng, n, m, depth - 1),))


def random_func(rng, domain, codomain, depth) -> DualFunc:
    """Random smooth function; tail components are sharp-wrapped so their
    values are zero divisors by construction."""
    n, m = domain
    s, t = codomain
    comps = [random_expr(rng, n, m, depth) for _ in range(s)]
    comps += [
        sharp_expr(random_expr(rng, n, m, max(depth - 1, 0))) for _ in range(t)
    ]
    return DualFunc(domain, codomain, tuple(comps))


def tame_case(rng, domain, codomain, depth):
    """Draw (function, point) pairs until evaluation is well-conditioned.

    Accepts when the function evaluates at the point, every inverse sees
    |re| >= TAME_MARGIN and no intermediate exceeds TAME_CAP in magnitude;
    these bounds keep the exact Jacobian finite, so no derivative is formed
    here.  Degenerate draws are discarded and retried, TAME_TRIES functions
    at most.
    """
    n, m = domain
    for _ in range(TAME_TRIES):
        f = random_func(rng, domain, codomain, depth)
        for _ in range(8):
            a = random_vector(rng, n, m)
            stats = {}
            try:
                eval_func(f, a, stats=stats)
            except (NotInvertible, EvaluationFailed):
                continue
            if stats.get("min_inv_re", np.inf) < TAME_MARGIN:
                continue
            if stats.get("max_abs", 0.0) > TAME_CAP:
                continue
            return f, a
    raise RuntimeError("no tame function/point pair found")
