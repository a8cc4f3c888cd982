import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dualmod import core, diff, linalg, sampling
from dualmod.core import EPS, ONE, ZERO, DualNumber, NotInvertible, ShapeMismatch, vector
from dualmod.diff import (
    CrReport,
    DualFunc,
    EvaluationFailed,
    Expr,
    NonSmoothExpression,
    const,
    coord,
    head_coord,
    inv_expr,
    re_part,
    sharp_expr,
    tail_coord,
    ze_part,
)


def square_func():
    x = head_coord(0)
    return DualFunc((1, 0), (1, 0), (x * x,))


class TestEval:
    def test_square(self):
        f = square_func()
        got = diff.eval_func(f, core.vector([DualNumber(1.0, 2.0)], []))
        assert got.head[0] == DualNumber(1.0, 4.0)

    def test_sharp_and_inv(self):
        x = head_coord(0)
        f = DualFunc((1, 0), (1, 0), (sharp_expr(x),))
        got = diff.eval_func(f, core.vector([DualNumber(2.0, 3.0)], []))
        assert got.head[0] == DualNumber(0.0, 2.0)
        g = DualFunc((1, 0), (1, 0), (inv_expr(x),))
        got = diff.eval_func(g, core.vector([DualNumber(2.0, 3.0)], []))
        assert got.head[0] == DualNumber(0.5, -0.75)

    def test_projections(self):
        x = head_coord(0)
        p = core.vector([DualNumber(2.0, 3.0)], [])
        f = DualFunc((1, 0), (1, 0), (re_part(x),))
        assert diff.eval_func(f, p).head[0] == DualNumber(2.0, 0.0)
        g = DualFunc((1, 0), (1, 0), (ze_part(x),))
        assert diff.eval_func(g, p).head[0] == DualNumber(3.0, 0.0)

    def test_tail_coord_embeds_as_zero_divisor(self):
        f = diff.identity_func(0, 1)
        got = diff.eval_func(f, core.vector([], [3.0]))
        assert got.tail == (3.0,)
        e = tail_coord(0)
        assert diff.eval_expr(e, core.vector([], [3.0])) == DualNumber(0.0, 3.0)

    def test_tail_ze_coord_reads_real(self):
        e = coord("tail", 0, "ze")
        assert diff.eval_expr(e, core.vector([], [3.0])) == DualNumber(3.0, 0.0)

    def test_tail_component_must_be_zero_divisor(self):
        f = DualFunc((1, 0), (0, 1), (head_coord(0),))
        with pytest.raises(EvaluationFailed):
            diff.eval_func(f, core.vector([ONE], []))

    def test_inv_propagates_not_invertible(self):
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        with pytest.raises(NotInvertible):
            diff.eval_func(f, core.vector([EPS], []))

    def test_eval_shape_checks(self):
        f = square_func()
        with pytest.raises(ShapeMismatch):
            diff.eval_func(f, core.vector([], [1.0]))


class TestJacobian:
    def test_square_at_one(self):
        f = square_func()
        jac = diff.numeric_jacobian(f, core.vector([ONE], []))
        assert np.allclose(jac, [[2.0, 0.0], [0.0, 2.0]], atol=1e-9)

    def test_linear_map_exact_blocks(self):
        rng = np.random.default_rng(3)
        lam = sampling.random_module_map(rng, (2, 2), (2, 1))
        f = diff.func_from_module_map(lam)
        a = sampling.random_vector(rng, 2, 2)
        jac = diff.numeric_jacobian(f, a)
        assert np.allclose(jac, linalg.realify_map(lam), atol=1e-9)

    def test_probe_failure(self):
        # perturbing the ze coordinate leaves re at exactly zero
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        with pytest.raises(EvaluationFailed):
            diff.numeric_jacobian(f, core.vector([DualNumber(0.0, 1.0)], []))


_UNIT = st.floats(-1.0, 1.0)


@st.composite
def programs(draw, smooth=False):
    """A function (2, 1) -> (s, t) and a point, written as a straight-line
    program: each step reads earlier nodes, so subtrees are shared.  With
    smooth, no projections (re_part, ze_part, component coords) occur."""
    nodes = [coord("head", 0), coord("head", 1), coord("tail", 0)]
    ops = ["add", "sub", "mul", "neg", "inv", "sharp", "const"]
    if not smooth:
        nodes += [coord("head", 0, "re"), coord("head", 1, "ze"), coord("tail", 0, "ze")]
        ops += ["re_part", "ze_part"]
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(ops))
        u = draw(st.sampled_from(nodes))
        if op in ("add", "sub", "mul"):
            e = Expr(op, (u, draw(st.sampled_from(nodes))))
        elif op == "inv":
            # shifted away from zero: |re| of u stays well below the shift
            shift = draw(st.floats(2.5, 4.0)) * draw(st.sampled_from((-1.0, 1.0)))
            e = inv_expr(const(DualNumber(shift, draw(_UNIT))) + u)
        elif op == "const":
            e = const(DualNumber(draw(_UNIT), draw(_UNIT))) * u
        else:
            e = Expr(op, (u,))
        nodes.append(e)
    s, t = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    comps = [draw(st.sampled_from(nodes)) for _ in range(s)]
    for _ in range(t):
        e = draw(st.sampled_from(nodes))
        # both forms are zero divisors: eps * e, and (0, r) * e
        comps.append(sharp_expr(e) if draw(st.booleans()) else tail_coord(0) * e)
    point = vector([DualNumber(draw(_UNIT), draw(_UNIT)) for _ in range(2)], [draw(_UNIT)])
    return DualFunc((2, 1), (s, t), tuple(comps)), point


def _doubling_chain(levels):
    """levels copies of y -> 2 / (y + y): each level reads the one below
    twice, so the tree has 2**levels paths over 4 * levels + 1 nodes."""
    e = head_coord(0)
    for _ in range(levels):
        e = const(2.0) * inv_expr(e + e)
    return DualFunc((1, 0), (1, 0), (e,))


class TestRealifiedJacobian:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(programs())
    def test_matches_finite_differences(self, case):
        f, a = case
        assume(_tame(f, a, margin=0.5, cap=20.0))
        try:
            fd = diff.numeric_jacobian(f, a)
        except EvaluationFailed:
            assume(False)
        exact = diff.realified_jacobian(f, a)
        assert exact.shape == fd.shape
        assert np.abs(exact - fd).max() <= 1e-6 * (1.0 + np.abs(exact).max())

    def test_deep_chain_needs_no_recursion(self):
        x = head_coord(0)
        e = x
        for _ in range(3000):
            e = e + x
        f = DualFunc((1, 0), (1, 0), (e,))
        report = diff.cr_check(f, vector([DualNumber(0.5, 0.25)], []))
        assert report.passed
        assert report.derivative.head_entry(0, 0) == DualNumber(3001.0, 0.0)

    def test_shared_chain_visits_each_node_once(self):
        a = vector([DualNumber(1.3, 0.7)], [])
        start = time.perf_counter()
        jac = diff.realified_jacobian(_doubling_chain(40), a)
        assert time.perf_counter() - start < 1.0
        # chain rule, one level at a time through forward_derivative
        level = _doubling_chain(1)
        expected, y = np.eye(2), a
        for _ in range(40):
            step = linalg.realify_map(diff.forward_derivative(level, y))
            expected = step @ expected
            y = diff.eval_func(level, y)
        assert np.allclose(jac, expected, rtol=1e-9, atol=1e-12)
        # an even number of reciprocals is the identity
        assert np.allclose(jac, np.eye(2), atol=1e-9)
        short = _doubling_chain(11)
        assert np.allclose(
            diff.realified_jacobian(short, a),
            linalg.realify_map(diff.forward_derivative(short, a)),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_singular_inverse_at_the_point_fails(self):
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        a = vector([DualNumber(0.0, 1.0)], [])
        with pytest.raises(NotInvertible):
            diff.realified_jacobian(f, a)
        with pytest.raises(EvaluationFailed):
            diff.cr_check(f, a)

    def test_tail_output_must_be_zero_divisor(self):
        f = DualFunc((1, 0), (0, 1), (head_coord(0),))
        with pytest.raises(EvaluationFailed):
            diff.realified_jacobian(f, vector([ONE], []))
        with pytest.raises(EvaluationFailed):
            diff.cr_check(f, vector([ONE], []))

    def test_overflowing_jacobian_fails(self):
        # x**3 at 1e200 overflows to inf and inf - inf = NaN in the pass
        x = head_coord(0)
        f = DualFunc((2, 0), (1, 0), (x * x * x,))
        a = vector([DualNumber(1e200, 0.0), ZERO], [])
        with pytest.raises(EvaluationFailed, match="not finite"):
            diff.realified_jacobian(f, a)
        with pytest.raises(EvaluationFailed, match="not finite"):
            diff.cr_check(f, a)

    def test_near_singular_inverse_needs_no_probes(self):
        # a central-difference step crosses re = 0; the exact pass does not
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        a = vector([DualNumber(1e-5, 0.0)], [])
        with pytest.raises(EvaluationFailed):
            diff.numeric_jacobian(f, a)
        report = diff.cr_check(f, a)
        assert report.passed
        assert report.derivative.head_entry(0, 0).re == pytest.approx(-1e10)

    def test_point_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            diff.realified_jacobian(square_func(), vector([], [1.0]))


_PROGRAM_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)


def _reference_limit_check(f, a, deriv, radius, samples, tol, levels, seed):
    """limit_check one probe at a time in dual arithmetic, as it was first
    written: the reference for the batched version."""
    n, m = f.domain
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, 2 * n + m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = linalg.realify(a)
    fa = diff.eval_func(f, a)
    worst_last = 0.0
    for level in range(levels):
        r = radius / (2.0**level)
        worst = 0.0
        for d in dirs:
            x = linalg.unrealify(base + r * d, n, m)
            try:
                fx = diff.eval_func(f, x)
            except (NotInvertible, EvaluationFailed) as exc:
                raise EvaluationFailed("probe at radius %g failed: %s" % (r, exc))
            step = x - a
            q = core.vector_norm(fx - fa - linalg.apply(deriv, step)) / core.vector_norm(step)
            worst = max(worst, q)
        worst_last = worst
    return worst_last <= tol


class TestNodeListEvaluation:
    @_PROGRAM_SETTINGS
    @given(programs(smooth=True))
    def test_forward_derivative_matches_finite_differences(self, case):
        f, a = case
        assume(_tame(f, a, margin=0.5, cap=20.0))
        try:
            fd = diff.numeric_jacobian(f, a)
        except EvaluationFailed:
            assume(False)
        ad = linalg.realify_map(diff.forward_derivative(f, a))
        assert np.abs(ad - fd).max() <= 1e-6 * (1.0 + np.abs(ad).max())

    @_PROGRAM_SETTINGS
    @given(programs(smooth=True))
    def test_batched_limit_check_matches_per_point_loop(self, case):
        f, a = case
        assume(_tame(f, a, margin=0.5, cap=20.0))
        deriv = diff.forward_derivative(f, a)
        # the exact derivative, and a wrong one that must be refused
        for lam in (deriv, linalg.ModuleMap.zero(f.domain, f.codomain)):
            for radius, samples, levels in ((1e-4, 4, 6), (0.05, 3, 4)):
                args = (f, a, lam, radius, samples, 1e-3, levels, 7)
                assert diff.limit_check(*args) == _reference_limit_check(*args)

    def test_failing_probe_reports_its_radius(self):
        # the probe along the first direction at radius / 2 hits re = 0
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(4, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a = vector([DualNumber(-(0.025 * dirs[0, 0]), 0.5)], [])
        deriv = diff.forward_derivative(f, a)
        args = (f, a, deriv, 0.05, 4, 1e-3, 3, 3)
        message = "probe at radius 0.025 failed: re part 0 is within tolerance of zero"
        with pytest.raises(EvaluationFailed) as batched:
            diff.limit_check(*args)
        with pytest.raises(EvaluationFailed) as reference:
            _reference_limit_check(*args)
        assert str(batched.value) == str(reference.value) == message

    def test_limit_check_needs_probes(self):
        f = square_func()
        a = vector([ONE], [])
        with pytest.raises(ValueError):
            diff.limit_check(f, a, diff.forward_derivative(f, a), samples=0)

    def test_deep_sum_needs_no_recursion(self):
        x = head_coord(0)
        e = x
        for _ in range(3000):
            e = e + x
        f = DualFunc((1, 0), (1, 0), (e,))
        a = vector([DualNumber(0.5, 0.25)], [])
        assert diff.eval_func(f, a).head[0] == DualNumber(1500.5, 750.25)
        deriv = diff.forward_derivative(f, a)
        assert deriv.head_entry(0, 0) == DualNumber(3001.0, 0.0)
        assert diff.limit_check(f, a, deriv)
        assert diff.eval_expr(e, a) == DualNumber(1500.5, 750.25)

    def test_shared_chain_is_walked_once(self):
        a = vector([DualNumber(1.3, 0.7)], [])
        f = _doubling_chain(40)
        start = time.perf_counter()
        value = diff.eval_func(f, a)
        deriv = diff.forward_derivative(f, a)
        assert time.perf_counter() - start < 1.0
        # an even number of reciprocals is the identity
        assert np.allclose(linalg.realify(value), linalg.realify(a), atol=1e-9)
        assert np.allclose(linalg.realify_map(deriv), np.eye(2), atol=1e-9)

    def test_compose_keeps_shared_nodes_shared(self):
        x = head_coord(0)
        g = DualFunc((1, 0), (1, 0), (x * x + 1.0,))
        points = [vector([DualNumber(re, ze)], []) for re, ze in ((0.3, -0.2), (-1.1, 0.5))]
        composed, values = g, [diff.eval_func(g, p) for p in points]
        for _ in range(13):
            # the accumulated function is the outer one: its shared x * x
            # was copied once per path, 16,386 nodes after 13 steps
            composed = diff.compose_funcs(composed, g)
            values = [diff.eval_func(g, v) for v in values]
            # the composite does the step-by-step arithmetic, float for float
            for p, v in zip(points, values):
                np.testing.assert_array_equal(
                    linalg.realify(diff.eval_func(composed, p)), linalg.realify(v)
                )
        assert len(composed._nodes) <= 40

    def test_lowering_marks_dead_values(self):
        x = head_coord(0)
        y = x * x
        nodes, roots = diff.lower((y + y, y), (1, 0))
        assert roots == (2, 1)
        # y stays alive as a root; x dies at y
        assert [freed for *_, freed in nodes] == [(), (0,), ()]


class TestConstruction:
    def test_coord_slots_checked_against_domain(self):
        for e in (coord("head", 3), tail_coord(0), sharp_expr(coord("head", 1, "ze"))):
            with pytest.raises(ShapeMismatch):
                DualFunc((1, 0), (1, 0), (e,))

    def test_shapes_must_be_integers(self):
        for domain in ((1.7, 0), (1.0, 0), (True, 0), (1,), (-1, 0)):
            with pytest.raises(ValueError):
                DualFunc(domain, (1, 0), (head_coord(0),))
        with pytest.raises(ValueError):
            DualFunc.from_json(dict(square_func().to_json(), codomain=[1.0, 0]))
        f = DualFunc((np.int64(1), np.int64(0)), (1, 0), (head_coord(0),))
        assert f.domain == (1, 0) and type(f.domain[0]) is int

    def test_shared_subtrees_lowered_once(self):
        x = head_coord(0)
        y = x * x
        f = DualFunc((1, 0), (2, 0), (y + y, y))
        assert len(f._nodes) == 3  # x, y and y + y
        same = DualFunc((1, 0), (2, 0), (y + y, y))
        assert f == same and "_nodes" not in repr(f)
        assert DualFunc.from_json(f.to_json()) == f


class TestCrCheck:
    def test_square_passes_and_assembles_doubling(self):
        f = square_func()
        a = core.vector([DualNumber(1.0, 1.0)], [])
        report = diff.cr_check(f, a)
        assert report.passed
        d = report.derivative
        assert d is not None
        assert d.c_re[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert d.c_ze[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_re_part_fails_with_unit_residual(self):
        f = DualFunc((1, 0), (1, 0), (re_part(head_coord(0)),))
        report = diff.cr_check(f, core.vector([DualNumber(0.3, -0.7)], []))
        assert not report.passed
        assert report.derivative is None
        assert report.residuals["ze_match"] == pytest.approx(1.0, abs=1e-6)

    def test_ze_part_fails(self):
        f = DualFunc((1, 0), (1, 0), (ze_part(head_coord(0)),))
        report = diff.cr_check(f, core.vector([DualNumber(0.3, 0.7)], []))
        assert not report.passed
        assert report.residuals["head_re_dze"] == pytest.approx(1.0, abs=1e-6)

    def test_head_depending_on_tail_fails(self):
        f = DualFunc((0, 1), (1, 0), (coord("tail", 0, "ze"),))
        report = diff.cr_check(f, core.vector([], [0.5]))
        assert not report.passed
        assert report.residuals["head_re_dtail"] == pytest.approx(1.0, abs=1e-6)

    def test_tail_depending_on_ze_fails(self):
        # tail output reading a head ze part violates the last condition
        f = DualFunc(
            (1, 0), (0, 1), (sharp_expr(coord("head", 0, "ze")),)
        )
        report = diff.cr_check(f, core.vector([DualNumber(0.4, 0.2)], []))
        assert not report.passed
        assert report.residuals["tail_dze"] == pytest.approx(1.0, abs=1e-6)

    def test_linear_maps_pass_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam = sampling.random_module_map(rng, (2, 1), (1, 2))
            f = diff.func_from_module_map(lam)
            a = sampling.random_vector(rng, 2, 1)
            report = diff.cr_check(f, a)
            assert report.passed
            assert np.allclose(
                linalg.realify_map(report.derivative),
                linalg.realify_map(lam),
                atol=1e-6,
            )


class TestForwardDerivative:
    def test_inv_derivative(self):
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        d = diff.forward_derivative(f, core.vector([DualNumber(2.0, 0.0)], []))
        assert d.head_entry(0, 0) == DualNumber(-0.25, 0.0)

    def test_square_derivative_is_doubling(self):
        rng = np.random.default_rng(7)
        f = square_func()
        for _ in range(20):
            a = sampling.random_dual(rng)
            d = diff.forward_derivative(f, core.vector([a], []))
            expected = core.mul(DualNumber(2.0, 0.0), a)
            assert d.head_entry(0, 0).re == pytest.approx(expected.re, abs=1e-12)
            assert d.head_entry(0, 0).ze == pytest.approx(expected.ze, abs=1e-12)

    def test_linear_map_recovered_exactly(self):
        rng = np.random.default_rng(9)
        lam = sampling.random_module_map(rng, (2, 2), (2, 2))
        f = diff.func_from_module_map(lam)
        a = sampling.random_vector(rng, 2, 2)
        d = diff.forward_derivative(f, a)
        assert np.allclose(
            linalg.realify_map(d), linalg.realify_map(lam), atol=1e-12
        )

    def test_rejects_projections(self):
        f = DualFunc((1, 0), (1, 0), (re_part(head_coord(0)),))
        with pytest.raises(NonSmoothExpression):
            diff.forward_derivative(f, core.vector([ONE], []))
        g = DualFunc((0, 1), (1, 0), (coord("tail", 0, "ze"),))
        with pytest.raises(NonSmoothExpression):
            diff.forward_derivative(g, core.vector([], [1.0]))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f, a = sampling.tame_case(rng, (2, 1), (1, 1), depth=5)
            ad = linalg.realify_map(diff.forward_derivative(f, a))
            fd = diff.numeric_jacobian(f, a)
            assert np.abs(ad - fd).max() <= 1e-5

    def test_matches_cr_assembled_map(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            f, a = sampling.tame_case(rng, (1, 1), (1, 1), depth=4)
            report = diff.cr_check(f, a)
            assert report.passed
            assert np.allclose(
                linalg.realify_map(report.derivative),
                linalg.realify_map(diff.forward_derivative(f, a)),
                atol=1e-5,
            )

    def test_chain_rule(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 10:
            f = sampling.random_func(rng, (2, 1), (2, 1), depth=3)
            g = sampling.random_func(rng, (2, 1), (1, 1), depth=3)
            comp = diff.compose_funcs(g, f)
            try:
                a = next(
                    a
                    for _ in range(8)
                    for a in [sampling.random_vector(rng, 2, 1)]
                    if _tame(comp, a)
                )
            except StopIteration:
                continue
            done += 1
            fa = diff.eval_func(f, a)
            lhs = diff.forward_derivative(comp, a)
            rhs = linalg.compose(
                diff.forward_derivative(g, fa), diff.forward_derivative(f, a)
            )
            assert np.abs(
                linalg.realify_map(lhs) - linalg.realify_map(rhs)
            ).max() <= 1e-9


def _tame(f, a, margin=0.5, cap=10.0):
    stats = {}
    try:
        diff.eval_func(f, a, stats=stats)
    except (NotInvertible, EvaluationFailed):
        return False
    return (
        stats.get("min_inv_re", np.inf) >= margin
        and stats.get("max_abs", 0.0) <= cap
    )


class TestLimitCheck:
    def test_square_confirmed(self):
        f = square_func()
        a = core.vector([DualNumber(1.0, 1.0)], [])
        d = diff.forward_derivative(f, a)
        assert diff.limit_check(f, a, d)

    def test_re_part_never_linearizes(self):
        f = DualFunc((1, 0), (1, 0), (re_part(head_coord(0)),))
        a = core.vector([DualNumber(1.0, 0.5)], [])
        # the best dual-linear candidate still leaves a constant quotient
        cand = linalg.ModuleMap.scalar(1, 0, DualNumber(0.5, 0.0))
        assert not diff.limit_check(f, a, cand)

    def test_random_passes_confirmed(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            f, a = sampling.tame_case(rng, (1, 1), (1, 1), depth=4)
            report = diff.cr_check(f, a)
            assert report.passed
            assert diff.limit_check(f, a, report.derivative, radius=0.01)


class TestComposeAndJson:
    def test_compose_substitutes_tail(self):
        # outer reads its tail slot; inner produces that slot from a head
        inner = DualFunc(
            (1, 0), (0, 1), (sharp_expr(head_coord(0)),)
        )
        outer = DualFunc((0, 1), (1, 0), (tail_coord(0),))
        comp = diff.compose_funcs(outer, inner)
        got = diff.eval_func(comp, core.vector([DualNumber(2.0, 5.0)], []))
        assert got.head[0] == DualNumber(0.0, 2.0)

    def test_compose_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            diff.compose_funcs(square_func(), diff.identity_func(0, 1))

    def test_expr_json_roundtrip(self):
        x = head_coord(0)
        e = inv_expr(const(DualNumber(1.0, -2.0)) + x * x) - sharp_expr(x)
        back = Expr.from_json(e.to_json())
        assert back == e

    def test_func_json_roundtrip(self):
        f = DualFunc(
            (1, 1), (1, 1), (head_coord(0), sharp_expr(tail_coord(0)))
        )
        assert DualFunc.from_json(f.to_json()) == f

    def test_bad_json(self):
        with pytest.raises(ValueError):
            Expr.from_json({"op": "frobnicate"})
        with pytest.raises(ValueError):
            DualFunc.from_json({"domain": [1, 0]})

    def test_identity_func_evaluates_to_input(self):
        rng = np.random.default_rng(23)
        f = diff.identity_func(2, 2)
        v = sampling.random_vector(rng, 2, 2)
        assert diff.eval_func(f, v) == v
