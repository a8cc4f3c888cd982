import functools
import itertools
import json

import numpy as np
import pytest

from dualmod import diff, manifold
from dualmod.core import (
    DEFAULT_TOL,
    EPS,
    ONE,
    DualNumber,
    DualVector,
    NotInvertible,
    ShapeMismatch,
    inv,
    mul,
    resolve_tol,
    set_default_tol,
    vector,
    vector_norm,
)
from dualmod.diff import (
    DualFunc,
    NonSmoothExpression,
    _cr_rows,
    _eval_batch,
    EvaluationFailed,
    compose_funcs,
    const,
    coord,
    cr_check,
    eval_expr,
    eval_func,
    forward_derivative,
    func_from_module_map,
    identity_func,
    inv_expr,
    re_part,
    sharp_expr,
    ze_part,
)
from dualmod.linalg import ModuleMap, inverse_map, realify, unrealify
from dualmod.manifold import (
    ExprAtlas,
    ExprChart,
    InvalidRepresentative,
    NotInChart,
    ProjectiveAtlas,
    ProjectivePoint,
    _chart_rows,
    _draw_reps,
    _index_pairs,
    _kept_columns,
    _layout,
    _re_invertible,
    _sampling_layout,
    _StandardCharts,
    _unchart_rows,
    atlas_from_json,
    canonical_rep,
    chart_inverse,
    chart_map,
    equivalent,
    in_chart,
    in_transition_domain,
    is_valid_rep,
    random_rep,
    random_reps,
    transition,
    verify_atlas,
)


def rep(head, tail):
    return vector([DualNumber(*h) for h in head], tail)


class TestValidity:
    def test_valid_example(self):
        x = rep([(2.0, 1.0), (1.0, 0.0)], [3.0])
        assert is_valid_rep(x, 1, 0)

    def test_dead_heads_invalid(self):
        x = rep([(0.0, 1.0), (0.0, -2.0)], [3.0])
        assert not is_valid_rep(x, 1, 0)

    def test_dead_tails_invalid(self):
        x = rep([(2.0, 1.0), (1.0, 0.0)], [0.0])
        assert not is_valid_rep(x, 1, 0)

    def test_shape_guard(self):
        x = rep([(2.0, 1.0)], [3.0])
        with pytest.raises(ShapeMismatch):
            is_valid_rep(x, 1, 0)

    def test_point_wrapper_rejects_invalid(self):
        with pytest.raises(InvalidRepresentative):
            ProjectivePoint(rep([(0.0, 1.0)], [3.0]))

    def test_point_wrapper_rejects_empty_directions(self):
        with pytest.raises(InvalidRepresentative):
            ProjectivePoint(vector([DualNumber(1.0, 0.0)], []))

    def test_point_dims(self):
        p = ProjectivePoint(rep([(2.0, 1.0), (1.0, 0.0)], [3.0, 1.0]))
        assert (p.n, p.m) == (1, 1)


class TestEquivalence:
    def test_head_tail_rescale(self):
        x = rep([(2.0, 1.0), (1.0, 0.0)], [3.0, -1.0])
        s = DualNumber(-0.5, 2.0)
        t = 4.0
        y = DualVector(tuple(mul(s, h) for h in x.head), tuple(t * r for r in x.tail))
        assert equivalent(x, y)
        assert equivalent(y, x)

    def test_head_scaling_cannot_touch_tails(self):
        x = rep([(1.0, 0.0)], [1.0, 2.0])
        y = rep([(2.0, 0.0)], [1.0, 2.0])  # heads doubled, tails kept
        assert equivalent(x, y)
        z = rep([(2.0, 0.0)], [2.0, 4.0])
        assert equivalent(x, z)

    def test_independent_points_differ(self):
        x = rep([(1.0, 0.0), (0.0, 0.0)], [1.0])
        y = rep([(1.0, 0.0), (1.0, 0.0)], [1.0])
        assert not equivalent(x, y)

    def test_tail_mix_differs(self):
        x = rep([(1.0, 0.0)], [1.0, 2.0])
        y = rep([(1.0, 0.0)], [2.0, 1.0])
        assert not equivalent(x, y)

    def test_zero_divisor_scaling_rejected(self):
        # multiplying heads by eps kills invertibility, so the scaled rep is
        # not even a valid point
        x = rep([(1.0, 0.0)], [1.0])
        y = rep([(0.0, 1.0)], [1.0])
        with pytest.raises(InvalidRepresentative):
            equivalent(x, y)

    def test_large_tolerance_keeps_small_rescalings(self):
        # y = x / 3: the ratios are below tol 0.45, but y's entries at x's
        # pivots are not, so the rescaling is invertible
        for x, y in (
            (rep([(1.5, 0.0)], [1.0]), rep([(0.5, 0.0)], [1.0])),
            (rep([(1.0, 0.0)], [1.5]), rep([(1.0, 0.0)], [0.5])),
        ):
            assert equivalent(x, y, tol=0.45)
        set_default_tol(0.45)
        try:
            for seed in range(3):
                assert verify_atlas(ProjectiveAtlas(0, 1), samples=20, seed=seed).passed
        finally:
            set_default_tol(DEFAULT_TOL)

    def test_equivalence_is_transitive_on_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_rep(rng, 2, 1)
            s = DualNumber(rng.uniform(0.5, 1.5), rng.uniform(-1, 1))
            t = rng.uniform(0.5, 1.5) * (1 if rng.uniform() < 0.5 else -1)
            q = DualVector(
                tuple(mul(s, h) for h in p.rep.head),
                tuple(t * r for r in p.rep.tail),
            )
            assert equivalent(p.rep, q)


class TestCanonical:
    def test_frozen_example(self):
        x = rep([(2.0, 1.0), (1.0, 0.0)], [3.0])
        c = canonical_rep(x)
        assert c.head[0] == ONE
        assert c.head[1] == DualNumber(0.5, -0.25)
        assert c.tail == (1.0,)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = canonical_rep(random_rep(rng, 2, 2))
            assert canonical_rep(c) == c

    def test_equivalent_reps_share_canonical(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = random_rep(rng, 2, 1)
            s = DualNumber(rng.uniform(0.5, 1.5), rng.uniform(-1, 1))
            t = rng.uniform(0.5, 1.5)
            q = DualVector(
                tuple(mul(s, h) for h in p.rep.head),
                tuple(t * r for r in p.rep.tail),
            )
            a, b = canonical_rep(p), canonical_rep(q)
            assert vector_norm(a - b) <= 1e-10 * (1.0 + vector_norm(a))

    def test_invalid_rejected(self):
        with pytest.raises(InvalidRepresentative):
            canonical_rep(rep([(0.0, 1.0)], [1.0]))


class TestCharts:
    def test_frozen_chart_value(self):
        p = rep([(2.0, 1.0), (1.0, 0.0)], [3.0])
        u = chart_map(0, 0, p)
        assert u.shape == (1, 0)
        assert u.head[0] == DualNumber(0.5, -0.25)

    def test_membership(self):
        p = rep([(2.0, 1.0), (0.0, 1.0)], [3.0, 0.0])
        assert in_chart(0, 0, p)
        assert not in_chart(1, 0, p)
        assert not in_chart(0, 1, p)
        with pytest.raises(NotInChart):
            chart_map(1, 0, p)

    def test_inverse_then_map_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = 2, 1
            u = vector(
                [DualNumber(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)],
                rng.uniform(-2, 2, size=m),
            )
            i, j = rng.integers(0, n + 1), rng.integers(0, m + 1)
            p = chart_inverse(int(i), int(j), u)
            assert chart_map(int(i), int(j), p) == u

    def test_map_then_inverse_is_equivalent(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_rep(rng, 2, 1, active=((1, 0),))
            u = chart_map(1, 0, p)
            q = chart_inverse(1, 0, u)
            assert equivalent(p, q)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_rep(rng, 2, 1, active=((0, 0),))
            s = DualNumber(rng.uniform(0.5, 1.5), rng.uniform(-1, 1))
            t = rng.uniform(0.5, 1.5) * (1 if rng.uniform() < 0.5 else -1)
            q = DualVector(
                tuple(mul(s, h) for h in p.rep.head),
                tuple(t * r for r in p.rep.tail),
            )
            a, b = chart_map(0, 0, p), chart_map(0, 0, q)
            assert vector_norm(a - b) <= 1e-10 * (1.0 + vector_norm(a))

    def test_chart_index_bounds(self):
        p = rep([(1.0, 0.0)], [1.0])
        with pytest.raises(IndexError):
            chart_map(1, 0, p)
        for i, j in ((-1, 0), (0, -1), (1, 0)):
            with pytest.raises(IndexError, match="out of range for"):
                in_chart(i, j, p)


class TestTransitions:
    def test_single_head_swap_is_inversion(self):
        trans = transition(0, 0, 1, 0, 1, 0)
        u = vector([DualNumber(2.0, 0.0)], [])
        out = eval_func(trans, u)
        assert out.head[0] == DualNumber(0.5, 0.0)
        u2 = vector([DualNumber(4.0, 4.0)], [])
        assert out.shape == (1, 0)
        assert eval_func(trans, u2).head[0] == inv(DualNumber(4.0, 4.0))

    def test_matches_direct_chart_change(self):
        rng = np.random.default_rng(21)
        n, m = 2, 1
        charts = [(0, 0), (1, 1), (2, 0), (1, 0)]
        for _ in range(60):
            c1 = charts[rng.integers(0, len(charts))]
            c2 = charts[rng.integers(0, len(charts))]
            p = random_rep(rng, n, m, active=(c1, c2))
            u = chart_map(c1[0], c1[1], p)
            v = chart_map(c2[0], c2[1], p)
            trans = transition(c1[0], c1[1], c2[0], c2[1], n, m)
            assert in_transition_domain(trans, u)
            w = eval_func(trans, u)
            assert vector_norm(w - v) <= 1e-10 * (1.0 + vector_norm(v))

    def test_self_transition_fixes_points(self):
        rng = np.random.default_rng(22)
        trans = transition(0, 0, 0, 0, 2, 2)
        for _ in range(20):
            p = random_rep(rng, 2, 2, active=((0, 0),))
            u = chart_map(0, 0, p)
            w = eval_func(trans, u)
            assert vector_norm(w - u) <= 1e-12 * (1.0 + vector_norm(u))

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        fwd = transition(0, 0, 1, 1, 2, 1)
        back = transition(1, 1, 0, 0, 2, 1)
        for _ in range(40):
            p = random_rep(rng, 2, 1, active=((0, 0), (1, 1)))
            u = chart_map(0, 0, p)
            w = eval_func(back, eval_func(fwd, u))
            assert vector_norm(w - u) <= 1e-10 * (1.0 + vector_norm(u))

    def test_cocycle(self):
        rng = np.random.default_rng(24)
        c1, c2, c3 = (0, 0), (1, 0), (2, 1)
        t12 = transition(c1[0], c1[1], c2[0], c2[1], 2, 1)
        t23 = transition(c2[0], c2[1], c3[0], c3[1], 2, 1)
        t13 = transition(c1[0], c1[1], c3[0], c3[1], 2, 1)
        for _ in range(40):
            p = random_rep(rng, 2, 1, active=(c1, c2, c3))
            u = chart_map(c1[0], c1[1], p)
            direct = eval_func(t13, u)
            stepped = eval_func(t23, eval_func(t12, u))
            assert vector_norm(direct - stepped) <= 1e-9 * (1.0 + vector_norm(direct))

    def test_domain_predicate(self):
        trans = transition(0, 0, 1, 0, 2, 1)
        inside = vector(
            [DualNumber(1.0, 0.5), DualNumber(-2.0, 0.0)], [0.7]
        )
        assert in_transition_domain(trans, inside)
        # second head coordinate is a zero divisor: target chart unreachable
        boundary = vector([DualNumber(0.0, 0.5), DualNumber(-2.0, 0.0)], [0.7])
        assert not in_transition_domain(trans, boundary)

    def test_domain_predicate_checks_its_tolerance(self):
        # a pivot re part of 1e-170 passes a zero tolerance of 0.0, then
        # its square underflows: such a tolerance is refused
        trans = transition(0, 0, 1, 0, 2, 1)
        u = vector([DualNumber(1e-170, 0.5), DualNumber(-2.0, 0.0)], [0.7])
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="at least 2\\*\\*-537"):
                in_transition_domain(trans, u, bad)
        assert not in_transition_domain(trans, u, 2.0**-537)
        v = vector([DualNumber(1e-160, 0.5), DualNumber(-2.0, 0.0)], [0.7])
        assert in_transition_domain(trans, v, 2.0**-537)
        assert not in_transition_domain(trans, v)

    @pytest.mark.parametrize("predicate", ["singular_on_part", "constant", "constant_singular"])
    def test_batched_domain_test_matches_the_per_point_one(self, predicate):
        x = coord("head", 0)
        domain = {
            # singular where |re x| <= 1, and zero at re x = 1.25
            "singular_on_part": inv_expr(x * 1e-9) * 1e-9 - 0.8,
            "constant": const(ONE),
            "constant_singular": inv_expr(const(0.0)),
        }[predicate]
        chart = ExprChart(identity_func(1, 0), identity_func(1, 0), domain)
        points = np.random.default_rng(63).uniform(-3.0, 3.0, size=(1000, 2))
        points[:6, 0] = (1.0, -1.0, 1.25, 0.0, 1.0 + 1e-12, -1.25)
        for tol in (DEFAULT_TOL, 1e-4):
            got = _re_invertible(chart._predicate, points, tol)
            want = [domain_rule(domain, unrealify(x, 1, 0), tol) for x in points]
            assert got.tolist() == want
        if predicate == "singular_on_part":
            assert 0 < got.sum() < len(points)

    @pytest.mark.parametrize("n,m", list(itertools.product(range(4), repeat=2)))
    def test_forward_derivative_wherever_cr_check_passes(self, n, m):
        # the standard transitions read tail coefficients as reals, yet are
        # proved, so their block residuals are exactly 0.0
        rng = np.random.default_rng(10 * n + m)
        for (i, j), (k, l) in itertools.product(ProjectiveAtlas(n, m).charts, repeat=2):
            trans, checked = transition(i, j, k, l, n, m), 0
            for row in random_reps(rng, n, m, active=((i, j), (k, l)), count=4):
                u = chart_map(i, j, unrealify(row, n + 1, m + 1))
                report = cr_check(trans, u)
                if report.passed:
                    assert forward_derivative(trans, u) == report.derivative
                    checked += 1
            assert checked, (i, j, k, l)

    def test_tail_only_space(self):
        # one head direction, two tail directions: transitions are real ratios
        trans = transition(0, 0, 0, 1, 0, 1)
        u = vector([], [4.0])
        w = eval_func(trans, u)
        assert w.tail[0] == pytest.approx(0.25)


class TestVerifyAtlas:
    @pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (1, 1), (2, 1)])
    def test_standard_atlases_pass(self, n, m):
        report = verify_atlas(ProjectiveAtlas(n, m), samples=25, tol=1e-4, seed=0)
        assert report.passed, [e for e in report.entries if not e.passed]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_not_negative(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            verify_atlas(ProjectiveAtlas(1, 1), samples=5, tol=tol)

    def test_zero_tolerance_passes(self):
        assert verify_atlas(ProjectiveAtlas(1, 1), samples=20, tol=0.0).passed

    def test_entry_structure(self):
        report = verify_atlas(ProjectiveAtlas(1, 0), samples=10, seed=1)
        axioms = {e.axiom for e in report.entries}
        assert axioms == {"ii", "iii", "iv"}
        n_charts = 2
        assert len(report.entries) == 2 * n_charts + n_charts * n_charts
        data = report.to_json()
        assert data["passed"] is True
        assert len(data["entries"]) == len(report.entries)
        # ii counts probes (six around each of ten images), iii and iv points
        checked = {e["axiom"]: e["checked"] for e in data["entries"]}
        assert checked == {"ii": 60, "iii": 10, "iv": 10}

    def test_no_sample_in_domain_fails(self):
        # the domain predicate is zero everywhere, so sampling finds nothing;
        # a sample count below 1 draws nothing at all, and evaluates nothing,
        # not even an inverse of zero in a forward map or predicate
        ident = identity_func(1, 0)
        chart = ExprChart(ident, ident, const(0.0))
        singular = inv_expr(const(0.0))
        forward = DualFunc((1, 0), (1, 0), (coord("head", 0) * singular,))
        for atlas, samples in (
            (ExprAtlas((chart,)), 20),
            (ProjectiveAtlas(1, 1), 0),
            (ProjectiveAtlas(1, 1), -3),
            (ExprAtlas((chart,)), -3),
            (ExprAtlas((ExprChart(ident, ident, singular),)), 0),
            (ExprAtlas((ExprChart(forward, ident, const(ONE)),)), 0),
        ):
            report = verify_atlas(atlas, samples=samples, seed=0)
            charts = len(atlas.charts)
            axioms = sorted(e.axiom for e in report.entries)
            assert axioms == ["ii"] * charts + ["iii"] * charts + ["iv"] * charts**2
            for e in report.entries:
                assert not e.passed and e.checked == 0
                assert "no sample point" in e.witness["error"]

    def test_forward_failure_fails_openness(self):
        x = coord("head", 0)
        ident = DualFunc((1, 0), (1, 0), (x,))
        # eps * x is never invertible, so the first forward map raises
        # everywhere; the second overflows to inf everywhere, an image that
        # is not finite
        broken = DualFunc((1, 0), (1, 0), (inv_expr(sharp_expr(x)),))
        big = DualFunc((1, 0), (1, 0), (x * 1e200 * 1e200,))
        small = DualFunc((1, 0), (1, 0), (x * 1e-200 * 1e-200,))
        for forward, inverse in ((broken, ident), (big, small)):
            atlas = ExprAtlas(
                (ExprChart(ident, ident, const(ONE)), ExprChart(forward, inverse, const(ONE)))
            )
            report = verify_atlas(atlas, samples=20, seed=0)
            entry = {(e.axiom, tuple(e.chart_pair)): e for e in report.entries}
            assert entry["ii", (0,)].passed
            ii = entry["ii", (1,)]
            assert not ii.passed and "point" in ii.witness and "error" in ii.witness
            assert not entry["iii", (1,)].passed
            assert not entry["iv", (1, 0)].passed
            assert "error" in entry["iv", (1, 0)].witness

    def test_non_finite_gap_and_distance_fail(self):
        # finite images whose round-trip gap, or whose distances, overflow
        x = coord("head", 0)
        tiny = DualFunc((1, 0), (1, 0), (x * 1e-160,))
        huge = DualFunc((1, 0), (1, 0), (x * 1e160 * 1e160,))
        report = verify_atlas(ExprAtlas((ExprChart(tiny, huge, const(ONE)),)), samples=20)
        ii = report.entries[0]
        assert ii.axiom == "ii" and not ii.passed and ii.checked == 1
        assert ii.witness["error"] == "round-trip gap is not finite"
        # a correct chart whose images are finite but differ by more than
        # the float limit
        wide = DualFunc((1, 0), (1, 0), (x * 1.1e308,))
        narrow = DualFunc((1, 0), (1, 0), (x * (1 / 1.1e308),))
        report = verify_atlas(ExprAtlas((ExprChart(wide, narrow, const(ONE)),)), samples=20)
        ii, iii = report.entries[:2]
        assert ii.passed and iii.axiom == "iii" and not iii.passed
        assert iii.witness["error"] == "distance between chart images is not finite"

    def test_large_finite_chart_passes(self):
        # images near 1e200 square past the float limit; the norms divide
        # such rows by a power of two first, so the correct chart passes
        x = coord("head", 0)
        big = DualFunc((1, 0), (1, 0), (const(1e200) * x,))
        small = DualFunc((1, 0), (1, 0), (const(1e-200) * x,))
        report = verify_atlas(ExprAtlas((ExprChart(big, small, const(ONE)),)), samples=20)
        assert report.passed and all(e.checked for e in report.entries)

    def test_non_finite_residual_fails_smoothness(self):
        x = coord("head", 0)
        ident = DualFunc((1, 0), (1, 0), (x,))
        c = const(1e308)
        # finite transition Jacobians whose ze_match residual overflows
        wild = DualFunc((1, 0), (1, 0), (c * re_part(x) - c * (x - re_part(x)),))
        atlas = ExprAtlas((ExprChart(ident, ident, const(ONE)), ExprChart(wild, ident, const(ONE))))
        report = verify_atlas(atlas, samples=20, seed=0)
        iv = {tuple(e.chart_pair): e for e in report.entries if e.axiom == "iv"}
        assert iv[0, 0].passed
        assert not iv[0, 1].passed and iv[0, 1].checked == 1
        assert iv[0, 1].witness["error"] == "the block residuals at the point are not finite"

    def test_inverse_leaving_domain_fails_openness(self):
        x = coord("head", 0)
        ident = DualFunc((1, 0), (1, 0), (x,))
        # the "inverse" lands on eps multiples, where the domain predicate x is 0
        leaves = DualFunc((1, 0), (1, 0), (sharp_expr(x),))
        report = verify_atlas(ExprAtlas((ExprChart(ident, leaves, x),)), samples=20)
        ii = report.entries[0]
        assert ii.axiom == "ii" and not ii.passed
        assert ii.witness["error"] == "preimage left the domain"

    def test_conjugation_chart_fails_smoothness(self):
        # two everywhere-defined charts on the (1, 0) space: the identity and
        # the head conjugation (p, q) -> (p, -q).  Both are bijections and
        # each is its own inverse, but their overlap map is not
        # differentiable in the dual sense, so axiom (iv) must fail.
        x = coord("head", 0)
        ident = DualFunc((1, 0), (1, 0), (x,))
        conj = DualFunc(
            (1, 0), (1, 0), (re_part(x) - sharp_expr(ze_part(x)),)
        )
        everywhere = const(ONE)
        atlas = ExprAtlas(
            (
                ExprChart(ident, ident, everywhere),
                ExprChart(conj, conj, everywhere),
            )
        )
        report = verify_atlas(atlas, samples=20, tol=1e-4, seed=0)
        assert not report.passed
        failed = [e for e in report.entries if not e.passed]
        assert failed and all(e.axiom == "iv" for e in failed)
        assert {tuple(e.chart_pair) for e in failed} == {(0, 1), (1, 0)}
        assert all(e.witness is not None for e in failed)

    def test_module_map_chart_passes(self):
        lam = ModuleMap(
            2,
            1,
            2,
            1,
            c_re=np.array([[1.0, 0.5], [0.0, 2.0]]),
            c_ze=np.array([[0.3, 0.0], [0.1, -0.2]]),
            p=np.array([[0.4], [0.0]]),
            d=np.array([[0.2, 0.1]]),
            q=np.array([[1.5]]),
        )
        fwd = func_from_module_map(lam)
        back = func_from_module_map(inverse_map(lam))
        atlas = ExprAtlas((ExprChart(fwd, back, const(ONE)),))
        report = verify_atlas(atlas, samples=20, tol=1e-4, seed=2)
        assert report.passed, [e for e in report.entries if not e.passed]


# the public transition, built once per chart pair across reference runs
_transition = functools.cache(transition)


def domain_rule(domain, x, tol) -> bool:
    """The per-point ExprChart domain test: the predicate evaluates at x
    with a re part beyond tol."""
    try:
        return abs(eval_expr(domain, x).re) > tol
    except NotInvertible:
        return False


def reference_report(atlas, samples, tol=1e-4, seed=0) -> dict:
    """verify_atlas written as a loop over one point at a time through the
    public per-point functions: the draw order, checked counts and
    witnesses that the batched verify_atlas must keep."""
    rng = np.random.default_rng(seed)
    if isinstance(atlas, ProjectiveAtlas):
        n, m = atlas.n, atlas.m
        charts = [list(c) for c in atlas.charts]

        def sample(cs, count):
            rows = random_reps(rng, n, m, active=cs, count=count)
            return [unrealify(row, n + 1, m + 1) for row in rows]

        def overlap(c1, c2):
            return sample((c1, c2), samples)

        in_domain = in_transition_domain

        def forward(c, p):
            return chart_map(c[0], c[1], p)

        def round_trip(c, u):
            return chart_map(c[0], c[1], chart_inverse(c[0], c[1], u))

        def trans(c1, c2):
            return _transition(c1[0], c1[1], c2[0], c2[1], n, m)

        same = equivalent
    else:
        n, m = atlas.ambient
        charts = range(len(atlas.charts))

        def inside(c, x):
            return domain_rule(atlas.charts[c].domain, x, tol)

        def sample(cs, count):
            out = []
            for _ in range(count * 40):
                x = unrealify(rng.uniform(-1.5, 1.5, size=2 * n + m), n, m)
                if all(inside(c, x) for c in cs):
                    out.append(x)
                    if len(out) == count:
                        break
            return out

        def overlap(a, b):
            return sample((a, b), min(samples, 25))

        def forward(c, x):
            return eval_func(atlas.charts[c].forward, x)

        def round_trip(c, u):
            x = eval_func(atlas.charts[c].inverse, u)
            if not inside(c, x):
                raise EvaluationFailed("preimage left the domain")
            return forward(c, x)

        def trans(a, b):
            return compose_funcs(atlas.charts[b].forward, atlas.charts[a].inverse)

        def in_domain(tr, u):
            return True  # overlap draws inside both chart domains

        def same(x, y):
            return vector_norm(x - y) <= 1e-6

    point = DualVector.to_json
    entries = []

    def entry(axiom, pair, witness, checked, where):
        if witness is None and not checked:
            witness = {"error": "no sample point was checked in the %s" % where}
        entries.append(
            {"axiom": axiom, "chart_pair": list(pair), "passed": witness is None,
             "witness": witness, "checked": checked}
        )

    for c in charts:
        pts = sample((c,), min(samples, 25))
        images, witness, probes = [], None, 0
        for p in pts:
            try:
                images.append(forward(c, p))
            except (NotInvertible, EvaluationFailed) as exc:
                witness = {"point": point(p), "error": str(exc)}
                break
        for u in images[:12] if witness is None else ():
            s, t = u.shape
            dirs = rng.normal(size=(6, 2 * s + t))
            for d in dirs / np.linalg.norm(dirs, axis=1, keepdims=True):
                probe = unrealify(realify(u) + tol * d, s, t)
                probes += 1
                try:
                    gap = vector_norm(round_trip(c, probe) - probe)
                except (NotInvertible, EvaluationFailed) as exc:
                    witness = {"point": probe.to_json(), "error": str(exc)}
                    break
                if gap > 0.05 * tol * (1.0 + vector_norm(probe)):
                    witness = {"point": probe.to_json(), "gap": gap}
                    break
            if witness is not None:
                break
        entry("ii", (c,), witness, probes, "chart domain")
        witness = None
        spread = [vector_norm(images[0] - u) for u in images[1:]]
        close = 1e-9 * max([d for d in spread if np.isfinite(d)], default=0.0)
        for a, b in itertools.combinations(range(len(images)), 2):
            if vector_norm(images[a] - images[b]) <= close and not same(pts[a], pts[b]):
                witness = {"first": point(pts[a]), "second": point(pts[b])}
                break
        entry("iii", (c,), witness, len(images), "chart domain")
    for c1, c2 in itertools.product(charts, repeat=2):
        tr = trans(c1, c2)
        witness, checked = None, 0
        for p in overlap(c1, c2):
            try:
                u = forward(c1, p)
                if not in_domain(tr, u):
                    continue
                checked += 1
                report = cr_check(tr, u, tol=tol)
            except (NotInvertible, EvaluationFailed) as exc:
                witness = {"point": point(p), "error": str(exc)}
                break
            if not report.passed:
                witness = {"point": u.to_json(), "residuals": report.residuals}
                break
        entry("iv", (c1, c2), witness, checked, "transition domain")
    return {"passed": all(e["passed"] for e in entries), "entries": entries}


def reference_atlases():
    """Expression atlases that reach every branch of verify_atlas: forward
    failures, a forward map that fails on one pair's overlap points but
    not on a later pair's, a preimage leaving the domain, a non-smooth
    transition, no sample in the domain, a round-trip gap, a predicate with
    a singular inverse on part of the draws, and a chart that passes."""
    x = coord("head", 0)
    ident = DualFunc((1, 0), (1, 0), (x,))
    everywhere = const(ONE)
    broken = DualFunc((1, 0), (1, 0), (inv_expr(sharp_expr(x)),))
    # 1/x, singular where |re x| <= 1
    recip = DualFunc((1, 0), (1, 0), (inv_expr(x * 1e-9) * 1e-9,))
    conj = DualFunc((1, 0), (1, 0), (re_part(x) - sharp_expr(ze_part(x)),))
    # x, failing where |re x| <= 1, as does the last chart's domain predicate
    gap = DualFunc((1, 0), (1, 0), (x + const(0.0) * inv_expr(x * 1e-9),))
    lam = ModuleMap(
        2, 1, 2, 1,
        c_re=np.array([[1.0, 0.5], [0.0, 2.0]]),
        c_ze=np.array([[0.3, 0.0], [0.1, -0.2]]),
        p=np.array([[0.4], [0.0]]),
        d=np.array([[0.2, 0.1]]),
        q=np.array([[1.5]]),
    )
    return {
        "forward_failure": (ExprChart(ident, ident, everywhere), ExprChart(broken, ident, everywhere)),
        "partial_forward_failure": (ExprChart(ident, ident, everywhere), ExprChart(recip, recip, everywhere)),
        "forward_gap": (
            ExprChart(ident, ident, everywhere),
            ExprChart(gap, ident, everywhere),
            ExprChart(ident, ident, inv_expr(x * 1e-9)),
        ),
        "inverse_leaves": (ExprChart(ident, DualFunc((1, 0), (1, 0), (sharp_expr(x),)), x),),
        "conjugation": (ExprChart(ident, ident, everywhere), ExprChart(conj, conj, everywhere)),
        "no_sample": (ExprChart(ident, ident, const(0.0)),),
        "bad_inverse": (ExprChart(ident, DualFunc((1, 0), (1, 0), (x * 1.25,)), everywhere),),
        "singular_predicate": (ExprChart(ident, ident, inv_expr(x * 1e-9)), ExprChart(ident, ident, x)),
        "module_map": (
            ExprChart(func_from_module_map(lam), func_from_module_map(inverse_map(lam)), everywhere),
        ),
    }


class TestReferenceLoop:
    """The batched verify_atlas against the per-point reference loop."""

    @pytest.mark.parametrize(
        "n,m,charts",
        [(0, 1, ()), (1, 0, ()), (1, 1, ()), (2, 1, ()), (1, 2, ()), (2, 2, ()),
         (2, 1, ((2, 0), (0, 1))), (2, 2, ((1, 1), (0, 2))), (3, 3, ((3, 0),))],
    )
    def test_standard_atlases(self, n, m, charts):
        atlas = ProjectiveAtlas(n, m, charts)
        for samples, seed in ((20, 1), (3, 2)):
            want = reference_report(atlas, samples, seed=seed)
            got = verify_atlas(atlas, samples=samples, seed=seed).to_json()
            assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("zero_tol", [0.45, 0.6, 0.99])
    def test_standard_atlases_pass_at_large_zero_tolerances(self, zero_tol):
        # chart ratios near the tolerance put overlap points outside the
        # transition domains (a singular pivot) and make injectivity's
        # rescalings tiny; neither is a failure
        set_default_tol(zero_tol)
        try:
            for n, m in ((1, 1), (2, 1), (1, 2)):
                want = reference_report(ProjectiveAtlas(n, m), 20, seed=1)
                got = verify_atlas(ProjectiveAtlas(n, m), samples=20, seed=1).to_json()
                assert got["passed"]
                assert json.dumps(got) == json.dumps(want)
        finally:
            set_default_tol(DEFAULT_TOL)

    def test_domain_points_evaluate_at_zero_tolerance_0_6(self):
        # every overlap point inside a transition's domain evaluates, so
        # none fails for a singular pivot
        set_default_tol(0.6)
        try:
            report = verify_atlas(ProjectiveAtlas(2, 2), samples=40)
        finally:
            set_default_tol(DEFAULT_TOL)
        iv = [e for e in report.entries if e.axiom == "iv"]
        assert len(iv) == 81 and all(e.passed for e in iv)

    @pytest.mark.parametrize("name", sorted(reference_atlases()))
    def test_expression_atlases(self, name):
        atlas = ExprAtlas(reference_atlases()[name])
        for samples, seed, tol in ((20, 0, 1e-4), (30, 1, 1e-2), (2, 2, 1e-4)):
            want = reference_report(atlas, samples, tol=tol, seed=seed)
            got = verify_atlas(atlas, samples=samples, tol=tol, seed=seed).to_json()
            assert json.dumps(got) == json.dumps(want)

    def test_transition_derivative_outcomes(self):
        # o: a derivative, N: NotInvertible, S: NonSmoothExpression, at
        # re parts -1.4, -0.5, 0.0, 0.7, 1.3, 3.0, each with two ze parts.
        # The conjugation composed with itself is the identity, so its
        # Jacobian has the block pattern and its derivative is returned
        points = [vector([(re, ze)], []) for re in (-1.4, -0.5, 0.0, 0.7, 1.3, 3.0) for ze in (-0.3, 0.6)]
        want = {
            "conjugation": {(0, 0): "o" * 12, (0, 1): "S" * 12, (1, 0): "S" * 12, (1, 1): "o" * 12},
            "partial_forward_failure": {
                (0, 0): "o" * 12, (0, 1): "ooNNNNNNoooo", (1, 0): "ooNNNNNNoooo", (1, 1): "N" * 12
            },
        }
        for name, pairs in want.items():
            charts = reference_atlases()[name]
            for (a, b), outcomes in pairs.items():
                trans = compose_funcs(charts[b].forward, charts[a].inverse)
                got = ""
                for p in points:
                    try:
                        deriv = forward_derivative(trans, p)
                    except NotInvertible:
                        got += "N"
                    except NonSmoothExpression:
                        got += "S"
                    else:
                        got += "o"
                        if name == "conjugation":
                            assert deriv == ModuleMap.identity(1, 0)
                assert got == outcomes, (name, a, b)

    def test_chart_is_injective_at_every_scale_and_offset(self):
        # images closer than an absolute 1e-9 (x -> 2^k x, k <= -30 failed
        # iii), or far from the origin (x -> x + 2^30 failed iii under a
        # threshold relative to the images' norms), must not count as
        # coinciding
        zero = np.zeros((1, 1))

        def scaled(k):
            return func_from_module_map(ModuleMap(1, 1, 1, 1, np.array([[2.0**k]]), zero, zero, zero, np.array([[2.0**k]])))

        def shifted(c):
            return DualFunc((1, 0), (1, 0), (coord("head", 0) + const(c),))

        cases = [(k, scaled(k), scaled(-k), k % 100 == 0 or k in (-40, -35, -30)) for k in range(-300, 301, 5)]
        cases += [(c, shifted(c), shifted(-c), k in (0, 30)) for k in range(0, 31, 5) for c in (2.0**k, -(2.0**k))]
        for case, forward, inverse, against_reference in cases:
            atlas = ExprAtlas((ExprChart(forward, inverse, const(1.0)),))
            got = verify_atlas(atlas, samples=20).to_json()
            assert got["passed"], case
            if against_reference:
                assert json.dumps(got) == json.dumps(reference_report(atlas, 20))

    def test_cases_reach_every_witness(self):
        # the reference cases above fail in each way verify_atlas reports
        kinds = set()
        for charts in reference_atlases().values():
            for e in verify_atlas(ExprAtlas(charts), samples=20).entries:
                if not e.passed:
                    kinds.add((e.axiom, tuple(sorted(e.witness))))
        assert {
            ("ii", ("error", "point")),
            ("ii", ("gap", "point")),
            ("iii", ("error",)),
            ("iv", ("error", "point")),
            ("iv", ("point", "residuals")),
        } <= kinds

    @pytest.mark.parametrize("zero_tol", [DEFAULT_TOL, 0.49])
    @pytest.mark.parametrize("n,m", list(itertools.product(range(4), repeat=2)))
    def test_every_standard_atlas_up_to_three(self, n, m, zero_tol):
        # at a zero tolerance of 0.49, chart ratios below it make target
        # pivots singular, so many overlap points lie outside the domains;
        # three points may all miss one, an entry that checks nothing, but
        # twenty do not
        set_default_tol(zero_tol)
        try:
            for seed in range(3):
                want = reference_report(ProjectiveAtlas(n, m), 3, seed=seed)
                got = verify_atlas(ProjectiveAtlas(n, m), samples=3, seed=seed).to_json()
                assert json.dumps(got) == json.dumps(want)
                assert verify_atlas(ProjectiveAtlas(n, m), samples=20, seed=seed).passed
        finally:
            set_default_tol(DEFAULT_TOL)

    @pytest.mark.parametrize("zero_tol", [DEFAULT_TOL, 0.49])
    def test_stacks_spanning_windows(self, monkeypatch, zero_tol):
        # P(1, 1) pairs take 20 rows of 9 Jacobian entries each: windows of
        # two pairs split every template's stack, and a window smaller than
        # one pair holds that pair alone.  The conjugation atlas (pairs of 80
        # entries) fails two pairs on their transitions.  The partial forward
        # failure and forward gap atlases fail chart 1's image rows, so a
        # window holding several of its pairs maps each of them alone; in
        # the forward gap atlas the last of them then passes
        names = ("conjugation", "partial_forward_failure", "forward_gap")
        atlases = (ProjectiveAtlas(1, 1), *(ExprAtlas(reference_atlases()[name]) for name in names))
        set_default_tol(zero_tol)
        try:
            for cells, atlas, seed in itertools.product((2 * 20 * 9, 100), atlases, range(3)):
                monkeypatch.setattr(manifold, "_WINDOW_CELLS", cells)
                want = reference_report(atlas, 20, seed=seed)
                got = verify_atlas(atlas, samples=20, seed=seed).to_json()
                assert json.dumps(got) == json.dumps(want)
        finally:
            set_default_tol(DEFAULT_TOL)


def pivot_test(rows, pivots):
    """verify_atlas's domain test on gathered template columns."""
    return (np.abs(rows[:, pivots]) > resolve_tol(None)).all(axis=1)


class TestTransitionTemplates:
    """(iv) on the standard charts evaluates each pair through its shape's
    template with gathered image columns; that must equal the pair's own
    transition bit for bit, and the template's pivot columns must be
    invertible exactly where the pair's transition evaluates."""

    @pytest.mark.parametrize("n,m", list(itertools.product(range(4), repeat=2)))
    def test_template_matches_the_pair_transition(self, n, m):
        atlas = ProjectiveAtlas(n, m)
        rng = np.random.default_rng(17 + 4 * n + m)
        ops = _StandardCharts(atlas, rng, 1e-4, DEFAULT_TOL)
        for c1, c2 in itertools.product(atlas.charts, repeat=2):
            # active on the source chart only, so the target pivots may be
            # zero and the masks are mixed
            pts = random_reps(rng, n, m, active=(c1,), count=64, sparsity=0.5)
            images = _chart_rows(c1[0], c1[1], pts, n, m, DEFAULT_TOL)
            _, template, cols, pivots = ops.template(c1, c2)
            own = transition(*c1, *c2, n, m)
            got, want = _cr_rows(template, images[:, cols]), _cr_rows(own, images)
            assert got[0].tobytes() == want[0].tobytes(), (c1, c2)
            assert got[1].tolist() == want[1].tolist(), (c1, c2)
            # the pivot test is the domain: where the pair's transition evaluates
            inside = pivot_test(images[:, cols], pivots)
            assert inside.tolist() == (~_eval_batch(own, images)[1]).tolist(), (c1, c2)

    def test_rows_fall_on_both_sides(self):
        # the comparisons above see rows inside and outside the domain
        n, m, c1, c2 = 2, 2, (0, 0), (1, 2)
        pts = random_reps(np.random.default_rng(5), n, m, active=(c1,), count=64, sparsity=0.5)
        images = _chart_rows(c1[0], c1[1], pts, n, m, DEFAULT_TOL)
        own = transition(*c1, *c2, n, m)
        _, _, cols, pivots = _StandardCharts(ProjectiveAtlas(n, m), None, 1e-4, DEFAULT_TOL).template(c1, c2)
        inside = pivot_test(images[:, cols], pivots)
        assert 0 < _cr_rows(own, images)[1].sum() < 64
        assert 0 < inside.sum() < 64
        assert inside.tolist() == (~_eval_batch(own, images)[1]).tolist()
        assert inside.tolist() == [in_transition_domain(own, unrealify(u, n, m)) for u in images]

    def test_transition_jacobian_is_pinned(self):
        # the tail coefficients enter as ze_part of full tail coords; the
        # values and the Jacobian must keep these floats bit for bit
        f = transition(0, 0, 1, 1, 2, 2)
        a = vector([(0.75, -0.5), (1.25, 0.375)], [0.625, -1.5])
        jac = [
            [-1.7777777777777777, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-2.2222222222222223, 1.3333333333333333, 0.0, 0.0, 0.0, 0.0],
            [-2.3703703703703702, 0.0, -1.7777777777777777, 0.0, 0.0, 0.0],
            [-3.6296296296296293, 0.8888888888888888, -2.2222222222222223, 1.3333333333333333, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -2.5600000000000005, 0.0],
            [0.0, 0.0, 0.0, 0.0, 3.8400000000000007, 1.6],
        ]
        values = [1.3333333333333333, 1.6666666666666665, 0.8888888888888888, 1.6111111111111112, 1.6, -2.4000000000000004]
        assert diff.realified_jacobian(f, a).tobytes() == np.array(jac).tobytes()
        assert eval_func(f, a).array.tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize("n,m", list(itertools.product(range(4), repeat=2)))
    def test_templates_are_proved(self, n, m):
        for same_head, same_tail in itertools.product((True, False), repeat=2):
            if (same_head or n) and (same_tail or m):
                assert diff._proved(manifold._template(n, m, same_head, same_tail))

    def test_expression_transitions_proved_or_not(self):
        # conjugation reads ze_part of a dual node, so its mixed transitions
        # are not proved (its self transition of chart 1 is not either, and
        # passes); 1/x is smooth, so every transition of the partial forward
        # failure is proved, yet iv fails at its singular inverses: a proof
        # says nothing about where a transition evaluates
        atlases = {name: ExprAtlas(reference_atlases()[name]) for name in ("conjugation", "partial_forward_failure")}
        for name, proved in (("conjugation", [True, False, False, False]), ("partial_forward_failure", [True] * 4)):
            ops = manifold._ExprCharts(atlases[name], None, 1e-4, DEFAULT_TOL)
            pairs = list(itertools.product(ops.charts, repeat=2))
            assert [diff._proved(ops.template(*pair)[1]) for pair in pairs] == proved, name
        iv = [e for e in verify_atlas(atlases["partial_forward_failure"], samples=20).entries if e.axiom == "iv"]
        assert [e.passed for e in iv] == [True, False, False, False]
        assert "within tolerance of zero" in iv[1].witness["error"]

    def test_standard_stacks_build_no_jacobian(self, monkeypatch):
        rows = []

        def counting_cr_rows(f, points):
            rows.append(len(points))
            return _cr_rows(f, points)

        monkeypatch.setattr(manifold, "_cr_rows", counting_cr_rows)
        for zero_tol in (DEFAULT_TOL, 0.49):
            set_default_tol(zero_tol)
            try:
                assert verify_atlas(ProjectiveAtlas(3, 2), samples=30).passed
            finally:
                set_default_tol(DEFAULT_TOL)
        assert rows and not any(rows)
        verify_atlas(ExprAtlas(reference_atlases()["conjugation"]), samples=20)
        assert any(rows)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 1), (1, 3)])
    def test_proved_rows_near_the_overflow_edge(self, n, m):
        # the sampler keeps coordinates below about 8 and pivots above 1/3;
        # here they reach 2**500 and 2**-340, so M**2 Q**3 falls on both
        # sides of the bound and of the float limit
        rng = np.random.default_rng(29 + 4 * n + m)
        ops = _StandardCharts(ProjectiveAtlas(n, m), rng, 1e-4, 2.0**-537)
        kinds = set()
        set_default_tol(2.0**-537)
        try:
            for c2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
                _, template, _, pivots = ops.template((0, 0), c2)
                count, width = 600, 2 * n + m
                top = rng.uniform(0.0, 500.0, size=(count, 1))
                rows = np.exp2(top - rng.uniform(0.0, 40.0, size=(count, width)))
                rows[np.arange(count), rng.integers(0, width, size=count)] = np.exp2(top[:, 0])
                rows[:, pivots] = np.exp2(-rng.uniform(0.0, 340.0, size=(count, len(pivots))))
                rows *= rng.choice((-1.0, 1.0), size=rows.shape)
                accept = ops.proved_rows(template, rows, pivots)
                residuals, bad = _cr_rows(template, rows)
                failed = bad | (residuals > 0.0).any(axis=1)
                # an accepted row has a finite Jacobian and zero residuals
                assert not failed[accept].any(), c2
                # a rejected row gets the block test's own verdict
                check = ~accept
                own, own_bad = _cr_rows(template, rows[check])
                assert (own_bad | (own > 0.0).any(axis=1)).tolist() == failed[check].tolist()
                kinds |= {(bool(a), bool(f)) for a, f in zip(accept, failed)}
        finally:
            set_default_tol(DEFAULT_TOL)
        # accepted rows, rejected rows that pass and rejected rows that fail
        assert kinds == {(True, False), (False, False), (False, True)}

    def test_four_templates_are_lowered_once(self, monkeypatch):
        lowered = []

        def counting_lower(exprs, domain):
            lowered.append(domain)
            return lower(exprs, domain)

        lower = diff.lower
        monkeypatch.setattr(diff, "lower", counting_lower)
        manifold._template.cache_clear()
        assert verify_atlas(ProjectiveAtlas(3, 3), samples=20).passed
        # the four transitions, and nothing per pair or per window
        assert len(lowered) <= 4
        lowered.clear()
        assert verify_atlas(ProjectiveAtlas(3, 3), samples=20, seed=1).passed
        assert lowered == []


class TestAtlasJson:
    def test_projective_round_trip(self):
        atlas = ProjectiveAtlas(2, 1)
        data = atlas.to_json()
        assert data["n"] == 2 and data["m"] == 1
        assert len(data["charts"]) == 6
        again = atlas_from_json(data)
        assert again == atlas

    def test_chart_subset(self):
        atlas = ProjectiveAtlas(1, 1, charts=((0, 0), (1, 1)))
        again = atlas_from_json(atlas.to_json())
        assert again.charts == ((0, 0), (1, 1))

    def test_expr_atlas_round_trip(self):
        x = coord("head", 0)
        ident = DualFunc((1, 0), (1, 0), (x,))
        atlas = ExprAtlas((ExprChart(ident, ident, const(ONE)),))
        again = atlas_from_json(atlas.to_json())
        assert again == atlas

    def test_bad_atlas_rejected(self):
        with pytest.raises(ValueError):
            atlas_from_json({"something": 1})
        with pytest.raises(ValueError):
            atlas_from_json({"charts": [{"forward": {}}]})
        ident = ExprChart(identity_func(1, 0), identity_func(1, 0), const(ONE))
        wider = ExprChart(identity_func(2, 0), identity_func(2, 0), const(ONE))
        # a (1, 0) -> (2, 0) map given as its own inverse
        widen = DualFunc((1, 0), (2, 0), (coord("head", 0), coord("head", 0)))
        own_inverse = dict(ident.to_json(), forward=widen.to_json(), inverse=widen.to_json())
        # a forward reading head slot 3 of a (1, 0) domain, and a domain
        # predicate reading head slot 1
        past_end = dict(ident.to_json()["forward"], components=[coord("head", 3).to_json()])
        bad_forward = dict(ident.to_json(), forward=past_end)
        bad_domain = dict(ident.to_json(), domain=coord("head", 1).to_json())
        for data in (
            {"n": -1, "m": 1},
            {"n": 1, "m": 1, "charts": [{"i": 5, "j": 0}]},
            {"n": 1, "m": 1, "charts": [{"i": 0}]},
            {"n": 1, "m": 1, "charts": [[0, 0]]},
            {"charts": [ident.to_json(), own_inverse]},
            {"charts": [ident.to_json(), wider.to_json()]},  # two ambient shapes
            {"n": 1.7, "m": 1, "charts": [{"i": 1.9, "j": 0}]},
            {"n": 1.0, "m": 1},
            {"n": 1, "m": 1, "charts": [{"i": 1.0, "j": 0}]},
            {"n": 1, "m": True},
            {"charts": [bad_forward]},
            {"charts": [bad_domain]},
        ):
            with pytest.raises(ValueError):
                atlas_from_json(data)

    def test_numpy_integers_accepted(self):
        atlas = ProjectiveAtlas(np.int64(1), np.int32(1), charts=((np.int64(1), 0),))
        assert atlas == ProjectiveAtlas(1, 1, charts=((1, 0),))
        assert type(atlas.n) is int and type(atlas.charts[0][0]) is int


def scalar_rep(rng, n, m, active=(), sparsity=0.3):
    """random_rep as a loop of scalar draws: the stream random_reps keeps."""
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
    return DualVector(tuple(head), tuple(tail))


class TestRandomRep:
    @pytest.mark.parametrize(
        "n,m,active",
        [(0, 1, ()), (1, 1, ((1, 0),)), (2, 2, ((0, 0), (2, 1))), (3, 0, ()), (2, 1, ((1, 1), (1, 1)))],
    )
    def test_batch_keeps_the_scalar_stream(self, n, m, active):
        batch, scalar = np.random.default_rng(41), np.random.default_rng(41)
        rows = random_reps(batch, n, m, active, count=300, sparsity=0.6)
        want = [realify(scalar_rep(scalar, n, m, active, sparsity=0.6)) for _ in range(300)]
        assert np.array_equal(rows, np.array(want))
        assert batch.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("active", [(), ((1, 0),), ((0, 1), (2, 0))])
    def test_random_rep_is_the_first_row(self, active):
        one, many = np.random.default_rng(42), np.random.default_rng(42)
        p = random_rep(one, 2, 1, active=active)
        assert realify(p.rep).tolist() == random_reps(many, 2, 1, active, count=5)[0].tolist()

    def test_no_draws_below_one(self):
        rng = np.random.default_rng(43)
        state = rng.bit_generator.state
        for count in (0, -3):
            assert random_reps(rng, 1, 1, count=count).shape == (0, 6)
        assert rng.bit_generator.state == state

    def test_active_slots_always_usable(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = random_rep(rng, 2, 2, active=((1, 0), (2, 1)))
            assert in_chart(1, 0, p)
            assert in_chart(2, 1, p)

    @pytest.mark.parametrize("tol", [0.6, 0.9, 0.99])
    def test_zero_tolerance_below_one_gives_a_report(self, tol):
        set_default_tol(tol)
        try:
            rows = random_reps(np.random.default_rng(5), 2, 2, ((1, 0), (2, 2)), count=200)
            assert (np.abs(rows[:, [1, 2]]) > tol).all() and (np.abs(rows[:, [6, 8]]) > tol).all()
            for seed in range(3):
                report = verify_atlas(ProjectiveAtlas(2, 2), samples=40, seed=seed)
                assert len(report.entries) == 2 * 9 + 81
        finally:
            set_default_tol(DEFAULT_TOL)

    def test_zero_tolerance_of_one_is_refused_before_drawing(self):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        set_default_tol(1.0)
        try:
            with pytest.raises(ValueError, match="unit chart pivot"):
                random_reps(rng, 1, 1, count=5)
            with pytest.raises(ValueError, match="unit chart pivot"):
                verify_atlas(ProjectiveAtlas(1, 1), samples=5)
        finally:
            set_default_tol(DEFAULT_TOL)
        assert rng.bit_generator.state == state

    def test_every_point_lies_in_some_chart(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            p = random_rep(rng, 2, 2)
            assert any(
                in_chart(i, j, p) for i in range(3) for j in range(3)
            )


class TestMagnitudeFloor:
    """The drawn magnitudes keep every ratio of two drawn slots above the
    zero tolerance, so no overlap point misses a transition's domain."""

    def test_the_floor_keeps_ratios_above_the_tolerance(self):
        def low(tol):  # the head re parts' lo
            return _layout(1, 1, (), tol)[2][0]

        for tol in (DEFAULT_TOL, 0.2, 1.0 / 3.0, 0.34, 0.45, 0.49, 0.6, 0.99):
            assert low(tol) / (low(tol) + 1.0) > tol
        # below 1/3 the floor, and so the default-tolerance stream, is as before
        assert low(DEFAULT_TOL) == low(0.33) == 0.5

    def test_p13_entry_at_0_49_checks_its_three_samples(self):
        # a floor of 0.5 would allow pivot ratios down to 1/3, below 0.49,
        # and this entry would check none of its points
        set_default_tol(0.49)
        try:
            report = verify_atlas(ProjectiveAtlas(1, 3), samples=3, seed=2)
        finally:
            set_default_tol(DEFAULT_TOL)
        entry = next(e for e in report.entries if e.chart_pair == ([0, 3], [1, 2]))
        assert entry.passed and entry.checked == 3

    @pytest.mark.parametrize("zero_tol", [0.34, 0.45, 0.49, 0.6, 0.99])
    def test_every_iv_entry_checks_every_sample(self, zero_tol):
        set_default_tol(zero_tol)
        try:
            for n, m, seed in itertools.product(range(4), range(4), range(3)):
                report = verify_atlas(ProjectiveAtlas(n, m), samples=3, seed=seed)
                assert report.passed, (n, m, seed)
                assert all(e.checked == 3 for e in report.entries if e.axiom == "iv"), (n, m, seed)
        finally:
            set_default_tol(DEFAULT_TOL)


class TestWindowDraw:
    """(iv) draws a window's overlap points from one uniform draw; that must
    equal random_reps pair by pair, bit for bit and in generator state, and
    no pair is drawn twice."""

    @pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (2, 1), (3, 3)])
    @pytest.mark.parametrize("count", [0, 1, 7])
    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 1.0])
    def test_window_equals_pair_by_pair(self, n, m, count, sparsity):
        charts = [(i, j) for i in range(n + 1) for j in range(m + 1)]
        # single charts and chart pairs, as verify_atlas draws them
        window = [(c,) for c in charts] + list(itertools.product(charts, repeat=2))[:9]
        one, many = np.random.default_rng(11), np.random.default_rng(11)
        got = _draw_reps(one, [_layout(n, m, pair, DEFAULT_TOL, sparsity) for pair in window], count)
        want = [random_reps(many, n, m, pair, count, sparsity) for pair in window]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (count, 2 * n + m + 3)
            assert g.tobytes() == w.tobytes()
        assert one.bit_generator.state == many.bit_generator.state

    @pytest.mark.parametrize("name", ["conjugation", "partial_forward_failure"])
    def test_a_failing_pair_is_drawn_and_lowered_once(self, monkeypatch, name):
        # a verdict never changes a later pair's draw, so nothing is drawn
        # or lowered again after a failing pair
        lowered, drawn = [], []

        def counting_compose(*funcs):
            lowered.append(funcs)
            return compose_funcs(*funcs)

        def counting_sample(ops, charts, count):
            drawn.append(charts)
            return sample(ops, charts, count)

        sample = manifold._ExprCharts._sample
        monkeypatch.setattr(manifold, "compose_funcs", counting_compose)
        monkeypatch.setattr(manifold._ExprCharts, "_sample", counting_sample)
        report = verify_atlas(ExprAtlas(reference_atlases()[name]), samples=20)
        assert not all(e.passed for e in report.entries if e.axiom == "iv")
        assert len(lowered) == 4
        assert drawn == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_layouts_are_cached_and_read_only(self):
        layout = _layout(2, 2, ((0, 1), (2, 2)), DEFAULT_TOL)
        assert _layout(2, 2, ((2, 2), (0, 1)), DEFAULT_TOL) is layout
        arrays = [a for a in layout if isinstance(a, np.ndarray)]
        assert len(arrays) == 5
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0
        assert _sampling_layout.cache_info().currsize > 0


class TestChartRows:
    """The batched chart maps equal the per-point ones bit for bit."""

    @pytest.mark.parametrize("n,m", list(itertools.product(range(4), repeat=2)))
    def test_rows_equal_the_per_point_maps(self, n, m):
        rng = np.random.default_rng(19 + 4 * n + m)
        for i, j in ProjectiveAtlas(n, m).charts:
            pts = random_reps(rng, n, m, active=((i, j),), count=20, sparsity=0.5)
            images = _chart_rows(i, j, pts, n, m, DEFAULT_TOL)
            want = [realify(chart_map(i, j, unrealify(row, n + 1, m + 1))) for row in pts]
            assert images.tobytes() == np.array(want).reshape(images.shape).tobytes(), (i, j)
            coords = images + rng.uniform(-0.5, 0.5, size=images.shape)
            back = _unchart_rows(i, j, coords, n, m)
            want = [realify(chart_inverse(i, j, unrealify(u, n, m)).rep) for u in coords]
            assert back.tobytes() == np.array(want).reshape(back.shape).tobytes(), (i, j)

    def test_points_outside_the_chart_are_refused(self):
        pts = random_reps(np.random.default_rng(20), 1, 1, active=((0, 0),), count=4)
        pts[2, 1] = 0.0  # head 1's re part
        with pytest.raises(NotInChart):
            _chart_rows(1, 0, pts, 1, 1, DEFAULT_TOL)
        # the zero tolerance given is the one applied
        pts = random_reps(np.random.default_rng(20), 1, 1, active=((0, 0),), count=4)
        with pytest.raises(NotInChart):
            _chart_rows(0, 0, pts, 1, 1, 2.0)

    def test_cached_index_arrays_are_read_only(self):
        for a in (_kept_columns(1, 2, 2, 3), *_index_pairs(7)):
            with pytest.raises(ValueError):
                a[0] = 0
        assert [a.tolist() for a in _index_pairs(7)] == [a.tolist() for a in np.triu_indices(7, 1)]

    def test_zero_tolerance_is_read_once_per_call(self, monkeypatch):
        calls = []

        def counting(tol):
            calls.append(tol)
            return resolve_tol(tol)

        monkeypatch.setattr(manifold, "resolve_tol", counting)
        assert verify_atlas(ProjectiveAtlas(2, 2), samples=20).passed
        assert calls == [None]
