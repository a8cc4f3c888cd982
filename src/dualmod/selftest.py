"""End-to-end sanity checks over every module, for the installed package.

Each check exercises a documented algebraic identity or round trip through
the public entry points, so a corrupted install (wrong wheel, broken
patch, bad numerics on the host) fails loudly.  All calls go through module
attributes rather than from-imports on purpose: the checks see the exact
functions the installed package exposes, and any exception inside a check
is recorded as a failure instead of aborting the report.

Every check goes through one runner, ``run(name, bound, count, one)``, which
records the largest of 0.0 and the gaps that ``one(0), ..., one(count - 1)``
return (a gap or a tuple of them) against ``bound``; a NaN gap fails the
check.  ``count`` is ``samples`` for scalar and vector identities, ``few`` (or
half of it, at least 2, for pair bases) for the costlier checks and 1 for a
fixed example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import dualmod.core as core
import dualmod.diff as diff
import dualmod.linalg as linalg
import dualmod.manifold as manifold
import dualmod.sampling as sampling
import dualmod.symplectic as symplectic


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float | None  # None when the check raised; detail names the error
    detail: str = ""

    to_json = core.json_writer("name", "passed", "worst", "detail")


@dataclass(frozen=True)
class SelftestReport:
    samples: int
    seed: int
    tolerance: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    to_json = core.json_writer("passed", "samples", "seed", "tolerance", "checks")


def _dist(x, y) -> float:
    return max(abs(x.re - y.re), abs(x.ze - y.ze))


def _apply_dual(lam, v):
    """apply(lam, v) entry by entry in dual arithmetic: the reference that
    the realified product in linalg.apply is checked against."""
    head = []
    for k in range(lam.s):
        acc = core.ZERO
        for i in range(lam.n):
            acc = acc + core.mul(v.head[i], lam.head_entry(k, i))
        z = 0.0
        for j in range(lam.m):
            z += lam.p[k, j] * v.tail[j]
        head.append(core.DualNumber(acc.re, acc.ze + z))
    tail = []
    for l in range(lam.t):
        r = 0.0
        for i in range(lam.n):
            r += lam.d[l, i] * v.head[i].re
        for j in range(lam.m):
            r += lam.q[l, j] * v.tail[j]
        tail.append(r)
    return core.DualVector(tuple(head), tuple(tail))


def run_selftest(samples: int = 100, seed: int = 0, tol: float | None = None) -> SelftestReport:
    tol = core.resolve_tol(tol)
    rng = sampling.rng_from(seed)
    few = max(3, samples // 10)
    checks: list[CheckResult] = []

    def run(name, bound, count, one):
        worst = 0.0
        try:
            for i in range(count):
                gaps = np.atleast_1d(one(i))
                if np.isnan(gaps).any():  # max would skip it
                    raise ValueError("draw %d gave a NaN gap" % i)
                worst = max(worst, gaps.max())
            checks.append(CheckResult(name, float(worst) <= bound, float(worst)))
        except Exception as exc:  # a selftest must report, never crash
            checks.append(CheckResult(name, False, None, "%s: %s" % (type(exc).__name__, exc)))

    # --- scalar algebra ---------------------------------------------------
    def ring_laws(_):
        a, b, c = (sampling.random_dual(rng, -2, 2) for _ in range(3))
        assoc = _dist(core.mul(core.mul(a, b), c), core.mul(a, core.mul(b, c)))
        return assoc, _dist(core.mul(a, b), core.mul(b, a))

    run("core.ring_laws", 8e-12, samples, ring_laws)

    def inverse_round_trip(_):
        a = sampling.random_invertible_dual(rng)
        return _dist(core.mul(core.inv(a), a), core.ONE)

    run("core.inverse_round_trip", 1e-12, samples, inverse_round_trip)

    def zero_divisors(_):
        z = core.DualNumber(0.0, rng.uniform(-2, 2))
        gap = _dist(core.mul(z, z), core.ZERO)
        return 0.0 if core.is_zero_divisor(z + core.DualNumber(0.0, 1e-3)) else 1.0, gap

    run("core.zero_divisors_square_to_zero", 0.0, samples, zero_divisors)

    def submultiplicative(_):
        a = sampling.random_dual(rng, -2, 2)
        b = sampling.random_dual(rng, -2, 2)
        return core.scalar_norm(core.mul(a, b)) - core.scalar_norm(a) * core.scalar_norm(b)

    run("core.norm_submultiplicative", 1e-12, samples, submultiplicative)

    def sharp_structure(_):
        v = sampling.random_vector(rng, 3, 2)
        s = core.sharp_action(v)
        flag = 0.0 if (s.array[: s.n] == 0.0).all() else 1.0  # in the kernel of eps exactly
        return flag, core.vector_norm(core.sharp_action(s))

    run("core.sharp_squares_to_zero", 0.0, samples, sharp_structure)

    # --- module maps -------------------------------------------------------
    def apply_matches(_):
        lam = sampling.random_module_map(rng, (2, 2), (3, 1))
        v = sampling.random_vector(rng, 2, 2)
        via_matrix = linalg.realify(linalg.apply(lam, v))
        direct = linalg.realify(_apply_dual(lam, v))
        return float(np.abs(direct - via_matrix).max())

    run("linalg.apply_matches_realified", 1e-10, samples, apply_matches)

    def compose_matches(_):
        f = sampling.random_module_map(rng, (2, 1), (2, 2))
        g = sampling.random_module_map(rng, (2, 2), (1, 2))
        v = sampling.random_vector(rng, 2, 1)
        lhs = linalg.apply(linalg.compose(g, f), v)
        rhs = linalg.apply(g, linalg.apply(f, v))
        return core.vector_norm(lhs - rhs)

    run("linalg.compose_matches_sequential", 1e-10, few, compose_matches)

    def basis_dims(_):
        gens = [sampling.random_vector(rng, 3, 2) for _ in range(4)]
        basis = linalg.extract_basis(gens)
        sharped = np.vstack([linalg.realify(core.sharp_action(v)) for v in gens])
        doubled = np.vstack([sharped] + [linalg.realify(v) for v in gens])
        expect_s1 = np.linalg.matrix_rank(sharped, tol=1e-9)
        expect_total = np.linalg.matrix_rank(doubled, tol=1e-9)
        got = (len(basis.s1), 2 * len(basis.s1) + len(basis.s2))
        return 0.0 if got == (expect_s1, expect_total) else 1.0

    run("linalg.extract_basis_dims", 0.0, few, basis_dims)

    def solve_invert(_):
        lam = sampling.random_automorphism(rng, 2, 2)
        v = sampling.random_vector(rng, 2, 2)
        b = linalg.apply(lam, v)
        sol = linalg.solve(lam, b)
        residual = core.vector_norm(linalg.apply(lam, sol) - b)
        back = linalg.apply(linalg.inverse_map(lam), b)
        return residual, core.vector_norm(back - v)

    run("linalg.solve_and_invert", 1e-8, few, solve_invert)

    # --- smooth structure ---------------------------------------------------
    def forward_vs_numeric(_):
        f, a = sampling.tame_case(rng, (2, 1), (1, 1), depth=3)
        deriv = diff.forward_derivative(f, a)
        fd = diff.numeric_jacobian(f, a)
        return float(np.abs(linalg.realify_map(deriv) - fd).max())

    run("diff.forward_matches_numeric", 1e-4, few, forward_vs_numeric)

    def smooth_pass(_):
        f, a = sampling.tame_case(rng, (2, 1), (2, 1), depth=2)
        report = diff.cr_check(f, a)
        return 0.0 if report.passed else tuple(report.residuals.values())

    run("diff.smooth_expressions_pass", 0.0, few, smooth_pass)

    def projection_fails(_):
        bad = diff.DualFunc((1, 0), (1, 0), (diff.re_part(diff.coord("head", 0)),))
        point = core.vector([core.DualNumber(0.7, 0.4)], [])
        return 0.0 if not diff.cr_check(bad, point).passed else 1.0

    run("diff.projection_fails_block_test", 0.0, 1, projection_fails)

    # --- projective space ----------------------------------------------------
    def chart_round_trip(_):
        p = manifold.random_rep(rng, 2, 1, active=((1, 0),))
        u = manifold.chart_map(1, 0, p)
        q = manifold.chart_inverse(1, 0, u)
        flag = 0.0 if manifold.equivalent(p, q) else 1.0
        s = sampling.random_invertible_dual(rng)
        t = rng.uniform(0.5, 1.5)
        scaled = core.DualVector(
            tuple(core.mul(s, h) for h in p.rep.head),
            tuple(t * r for r in p.rep.tail),
        )
        gap = core.vector_norm(manifold.canonical_rep(p) - manifold.canonical_rep(scaled))
        return flag, gap

    run("manifold.chart_round_trip", 1e-9, few, chart_round_trip)

    def transition_consistency(_):
        trans = manifold.transition(0, 0, 1, 0, 2, 1)
        p = manifold.random_rep(rng, 2, 1, active=((0, 0), (1, 0)))
        u = manifold.chart_map(0, 0, p)
        direct = manifold.chart_map(1, 0, p)
        return core.vector_norm(direct - diff.eval_func(trans, u))

    run("manifold.transition_consistency", 1e-9, few, transition_consistency)

    def atlas_passes(_):
        report = manifold.verify_atlas(
            manifold.ProjectiveAtlas(1, 1), samples=max(5, few), tol=1e-4, seed=seed
        )
        return 0.0 if report.passed else 1.0

    run("manifold.standard_atlas_passes", 0.0, 1, atlas_passes)

    # --- pair bases ------------------------------------------------------------
    def reference_form(_):
        return 0.0 if symplectic.check_form(symplectic.standard_form(2, 1)).passed else 1.0

    run("symplectic.reference_form_valid", 0.0, 1, reference_form)

    def pair_round_trip(k):
        form = symplectic.random_form(1, 1, seed=seed + k)
        rep = symplectic.verify_darboux(symplectic.darboux_basis(form), form)
        return 0.0 if rep.passed else max(rep.pairing_residual, 1.0)

    run("symplectic.pair_extraction_round_trip", 0.0, max(2, few // 2), pair_round_trip)

    def degenerate_rejected(_):
        broken = symplectic.GramForm(2, 2, np.zeros((4, 4)), symplectic.standard_form(1, 1).g_ze)
        return 0.0 if not symplectic.check_form(broken).passed else 1.0

    run("symplectic.degenerate_form_rejected", 0.0, 1, degenerate_rejected)

    # appended last, so the checks above keep their draws from rng
    def exact_vs_numeric(_):
        f, a = sampling.tame_case(rng, (2, 1), (2, 1), depth=3)
        exact = diff.realified_jacobian(f, a)
        return float(np.abs(exact - diff.numeric_jacobian(f, a)).max())

    run("diff.exact_jacobian_matches_numeric", 1e-4, few, exact_vs_numeric)

    return SelftestReport(samples, seed, tol, tuple(checks))
