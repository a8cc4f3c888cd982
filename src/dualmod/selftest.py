"""End-to-end sanity checks over every module, for the installed package.

Each check exercises a documented algebraic identity or round trip through
the public entry points, so a corrupted install (wrong wheel, broken
patch, bad numerics on the host) fails loudly.  All calls go through module
attributes rather than from-imports on purpose: the checks see the exact
functions the installed package exposes, and any exception inside a check
is recorded as a failure instead of aborting the report.
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

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SelftestReport:
    samples: int
    seed: int
    tolerance: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "checks": [c.to_json() for c in self.checks],
        }


def _dist(x, y) -> float:
    return max(abs(x.re - y.re), abs(x.ze - y.ze))


def run_selftest(samples: int = 100, seed: int = 0, tol: float | None = None) -> SelftestReport:
    tol = core.resolve_tol(tol)
    rng = sampling.rng_from(seed)
    few = max(3, samples // 10)
    checks: list[CheckResult] = []

    def run(name, bound, fn):
        try:
            worst = float(fn())
        except Exception as exc:  # a selftest must report, never crash
            checks.append(CheckResult(name, False, None, "%s: %s" % (type(exc).__name__, exc)))
            return
        checks.append(CheckResult(name, worst <= bound, worst))

    # --- scalar algebra ---------------------------------------------------
    def ring_laws():
        worst = 0.0
        for _ in range(samples):
            a, b, c = (sampling.random_dual(rng, -2, 2) for _ in range(3))
            worst = max(
                worst,
                _dist(core.mul(core.mul(a, b), c), core.mul(a, core.mul(b, c))),
                _dist(core.mul(a, b), core.mul(b, a)),
            )
        return worst

    run("core.ring_laws", 8e-12, ring_laws)

    def inverse_round_trip():
        worst = 0.0
        for _ in range(samples):
            a = sampling.random_invertible_dual(rng)
            worst = max(worst, _dist(core.mul(core.inv(a), a), core.ONE))
        return worst

    run("core.inverse_round_trip", 1e-12, inverse_round_trip)

    def zero_divisors():
        worst = 0.0
        for _ in range(samples):
            z = core.DualNumber(0.0, rng.uniform(-2, 2))
            worst = max(worst, _dist(core.mul(z, z), core.ZERO))
            if not core.is_zero_divisor(z + core.DualNumber(0.0, 1e-3)):
                worst = max(worst, 1.0)
        return worst

    run("core.zero_divisors_square_to_zero", 0.0, zero_divisors)

    def submultiplicative():
        worst = 0.0
        for _ in range(samples):
            a = sampling.random_dual(rng, -2, 2)
            b = sampling.random_dual(rng, -2, 2)
            gap = core.scalar_norm(core.mul(a, b)) - core.scalar_norm(
                a
            ) * core.scalar_norm(b)
            worst = max(worst, gap)
        return worst

    run("core.norm_submultiplicative", 1e-12, submultiplicative)

    def sharp_structure():
        worst = 0.0
        for _ in range(samples):
            v = sampling.random_vector(rng, 3, 2)
            s = core.sharp_action(v)
            if not core.in_ker_sharp(s, tol=0.0):
                worst = max(worst, 1.0)
            worst = max(worst, core.vector_norm(core.sharp_action(s)))
        return worst

    run("core.sharp_squares_to_zero", 0.0, sharp_structure)

    # --- module maps -------------------------------------------------------
    def apply_matches():
        worst = 0.0
        for _ in range(samples):
            lam = sampling.random_module_map(rng, (2, 2), (3, 1))
            v = sampling.random_vector(rng, 2, 2)
            direct = linalg.realify(linalg.apply(lam, v))
            via_matrix = linalg.realify_map(lam) @ linalg.realify(v)
            worst = max(worst, float(np.abs(direct - via_matrix).max()))
        return worst

    run("linalg.apply_matches_realified", 1e-10, apply_matches)

    def compose_matches():
        worst = 0.0
        for _ in range(few):
            f = sampling.random_module_map(rng, (2, 1), (2, 2))
            g = sampling.random_module_map(rng, (2, 2), (1, 2))
            v = sampling.random_vector(rng, 2, 1)
            lhs = linalg.apply(linalg.compose(g, f), v)
            rhs = linalg.apply(g, linalg.apply(f, v))
            worst = max(worst, core.vector_norm(lhs - rhs))
        return worst

    run("linalg.compose_matches_sequential", 1e-10, compose_matches)

    def basis_dims():
        worst = 0.0
        for _ in range(few):
            gens = [sampling.random_vector(rng, 3, 2) for _ in range(4)]
            basis = linalg.extract_basis(gens)
            sharped = np.vstack(
                [linalg.realify(core.sharp_action(v)) for v in gens]
            )
            doubled = np.vstack([sharped] + [linalg.realify(v) for v in gens])
            expect_s1 = np.linalg.matrix_rank(sharped, tol=1e-9)
            expect_total = np.linalg.matrix_rank(doubled, tol=1e-9)
            got = (len(basis.s1), 2 * len(basis.s1) + len(basis.s2))
            if got != (expect_s1, expect_total):
                worst = max(worst, 1.0)
        return worst

    run("linalg.extract_basis_dims", 0.0, basis_dims)

    def solve_invert():
        worst = 0.0
        for _ in range(few):
            lam = sampling.random_automorphism(rng, 2, 2)
            v = sampling.random_vector(rng, 2, 2)
            b = linalg.apply(lam, v)
            sol = linalg.solve(lam, b)
            worst = max(worst, core.vector_norm(linalg.apply(lam, sol) - b))
            back = linalg.apply(linalg.inverse_map(lam), b)
            worst = max(worst, core.vector_norm(back - v))
        return worst

    run("linalg.solve_and_invert", 1e-8, solve_invert)

    # --- smooth structure ---------------------------------------------------
    def forward_vs_numeric():
        worst = 0.0
        for _ in range(few):
            f, a = sampling.tame_case(rng, (2, 1), (1, 1), depth=3)
            deriv = diff.forward_derivative(f, a)
            fd = diff.numeric_jacobian(f, a)
            worst = max(
                worst, float(np.abs(linalg.realify_map(deriv) - fd).max())
            )
        return worst

    run("diff.forward_matches_numeric", 1e-4, forward_vs_numeric)

    def smooth_pass():
        worst = 0.0
        for _ in range(few):
            f, a = sampling.tame_case(rng, (2, 1), (2, 1), depth=2)
            report = diff.cr_check(f, a)
            if not report.passed:
                worst = max(worst, max(report.residuals.values()))
        return worst

    run("diff.smooth_expressions_pass", 0.0, smooth_pass)

    def projection_fails():
        bad = diff.DualFunc(
            (1, 0), (1, 0), (diff.re_part(diff.coord("head", 0)),)
        )
        point = core.vector([core.DualNumber(0.7, 0.4)], [])
        report = diff.cr_check(bad, point)
        return 0.0 if not report.passed else 1.0

    run("diff.projection_fails_block_test", 0.0, projection_fails)

    # --- projective space ----------------------------------------------------
    def chart_round_trip():
        worst = 0.0
        for _ in range(few):
            p = manifold.random_rep(rng, 2, 1, active=((1, 0),))
            u = manifold.chart_map(1, 0, p)
            q = manifold.chart_inverse(1, 0, u)
            if not manifold.equivalent(p, q):
                worst = max(worst, 1.0)
            s = sampling.random_invertible_dual(rng)
            t = rng.uniform(0.5, 1.5)
            scaled = core.DualVector(
                tuple(core.mul(s, h) for h in p.rep.head),
                tuple(t * r for r in p.rep.tail),
            )
            gap = core.vector_norm(
                manifold.canonical_rep(p) - manifold.canonical_rep(scaled)
            )
            worst = max(worst, gap)
        return worst

    run("manifold.chart_round_trip", 1e-9, chart_round_trip)

    def transition_consistency():
        worst = 0.0
        trans = manifold.transition(0, 0, 1, 0, 2, 1)
        for _ in range(few):
            p = manifold.random_rep(rng, 2, 1, active=((0, 0), (1, 0)))
            u = manifold.chart_map(0, 0, p)
            direct = manifold.chart_map(1, 0, p)
            stepped = diff.eval_func(trans.func, u)
            worst = max(worst, core.vector_norm(direct - stepped))
        return worst

    run("manifold.transition_consistency", 1e-9, transition_consistency)

    def atlas_passes():
        report = manifold.verify_atlas(
            manifold.ProjectiveAtlas(1, 1), samples=max(5, few), tol=1e-4, seed=seed
        )
        return 0.0 if report.passed else 1.0

    run("manifold.standard_atlas_passes", 0.0, atlas_passes)

    # --- pair bases ------------------------------------------------------------
    def reference_form():
        report = symplectic.check_form(symplectic.standard_form(2, 1))
        return 0.0 if report.passed else 1.0

    run("symplectic.reference_form_valid", 0.0, reference_form)

    def pair_round_trip():
        worst = 0.0
        for k in range(max(2, few // 2)):
            form = symplectic.random_form(1, 1, seed=seed + k)
            basis = symplectic.darboux_basis(form)
            rep = symplectic.verify_darboux(basis, form)
            if not rep.passed:
                worst = max(worst, max(rep.pairing_residual, 1.0))
        return worst

    run("symplectic.pair_extraction_round_trip", 0.0, pair_round_trip)

    def degenerate_rejected():
        broken = symplectic.GramForm(
            2, 2, np.zeros((4, 4)), symplectic.standard_form(1, 1).g_ze
        )
        return 0.0 if not symplectic.check_form(broken).passed else 1.0

    run("symplectic.degenerate_form_rejected", 0.0, degenerate_rejected)

    # appended last, so the checks above keep their draws from rng
    def exact_vs_numeric():
        worst = 0.0
        for _ in range(few):
            f, a = sampling.tame_case(rng, (2, 1), (2, 1), depth=3)
            exact = diff.realified_jacobian(f, a)
            worst = max(worst, float(np.abs(exact - diff.numeric_jacobian(f, a)).max()))
        return worst

    run("diff.exact_jacobian_matches_numeric", 1e-4, exact_vs_numeric)

    return SelftestReport(samples, seed, tol, tuple(checks))
