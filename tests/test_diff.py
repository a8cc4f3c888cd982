import ast
import copy
import dataclasses
import hashlib
import json
import pathlib
import pickle
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dualmod import core, diff, linalg, manifold, sampling
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

    def test_sharp_of_a_large_ze_part_is_finite(self):
        # sharp is (0.0, re), with no 0.0 * ze term, which is NaN where
        # the argument's ze part overflows to inf
        f = DualFunc((1, 0), (0, 1), (sharp_expr(inv_expr(head_coord(0))),))
        a = vector([(1e-5, 1e300)], [])
        assert diff.eval_func(f, a).tail == (99999.99999999999,)
        assert np.isfinite(diff.realified_jacobian(f, a)).all()

    def test_tail_component_must_be_zero_divisor(self):
        f = DualFunc((1, 0), (0, 1), (head_coord(0),))
        with pytest.raises(EvaluationFailed):
            diff.eval_func(f, core.vector([ONE], []))

    def test_inv_propagates_not_invertible(self):
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        with pytest.raises(NotInvertible):
            diff.eval_func(f, core.vector([EPS], []))

    def test_tol_reaches_the_inverse_test(self):
        # one zero tolerance serves the inverses and the tail test
        x = head_coord(0)
        point = core.vector([(0.3, 0.0)], [])
        inverse = DualFunc((1, 0), (1, 0), (inv_expr(x),))
        with pytest.raises(NotInvertible):
            diff.eval_func(inverse, point, tol=0.5)
        assert diff.eval_func(inverse, point).head[0].re == 1.0 / 0.3
        tail = DualFunc((1, 0), (0, 1), (x,))
        assert diff.eval_func(tail, point, tol=0.5).tail == (0.0,)

    def test_explicit_tolerance_is_checked(self):
        # re part 1e-170 passes a zero tolerance of 0.0, then its square
        # underflows to 0.0: such a tolerance is refused
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        a = core.vector([DualNumber(1e-170, 1.0)], [])
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="at least 2\\*\\*-537"):
                diff.eval_func(f, a, tol=bad)
        with pytest.raises(NotInvertible):
            diff.eval_func(f, a, tol=2.0**-537)

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

    @pytest.mark.parametrize("h", [np.nan, 0.0, np.inf, -1e-5])
    def test_step_must_be_finite_and_above_zero(self, h):
        with pytest.raises(ValueError, match="difference step must be finite and above 0"):
            diff.numeric_jacobian(square_func(), core.vector([DualNumber(0.5, 0.25)], []), h=h)

    def test_quotients_that_are_not_finite_fail(self):
        # the probes square past the float limit: inf - inf is NaN
        with pytest.raises(EvaluationFailed, match="difference quotients at the point are not finite"):
            diff.numeric_jacobian(square_func(), core.vector([DualNumber(0.5, 0.25)], []), h=1e300)


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

    def test_overflowing_residual_fails(self):
        # a finite Jacobian whose two re-to-re copies are +-1e308: their
        # difference, the ze_match residual, overflows to inf
        x = head_coord(0)
        c = const(1e308)
        f = DualFunc((1, 0), (1, 0), (c * re_part(x) - c * (x - re_part(x)),))
        a = vector([DualNumber(0.5, 0.1)], [])
        assert np.isfinite(diff.realified_jacobian(f, a)).all()
        with pytest.raises(EvaluationFailed, match="residuals at the point are not finite"):
            diff.cr_check(f, a)

    def test_subnormal_derivative_entry_is_kept(self):
        # c_re is the head dre block itself, so an odd subnormal entry
        # is not halved away
        f = DualFunc((1, 0), (1, 0), (const(5e-324) * head_coord(0),))
        a = vector([(0.5, 0.25)], [])
        assert diff.cr_check(f, a, tol=0.0).derivative.c_re[0, 0] == 5e-324
        assert diff.forward_derivative(f, a).c_re[0, 0] == 5e-324

    def test_derivative_near_float_limit_is_finite(self):
        # c_re near the float limit stays finite
        f = DualFunc((1, 0), (1, 0), (const(1.7e308) * head_coord(0),))
        report = diff.cr_check(f, vector([DualNumber(0.5, 0.1)], []))
        assert report.passed
        assert report.derivative.c_re[0, 0] == 1.7e308

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

    @pytest.mark.parametrize("kind", ["singular_inverse", "tail_not_zero_divisor"])
    @pytest.mark.parametrize("bad_rows", [(500,), (500, 700)])
    def test_batch_replays_only_its_first_bad_row(self, monkeypatch, kind, bad_rows):
        # a singular inverse reads head 0, the tail's re part is head 1's
        h0, h1 = head_coord(0), head_coord(1)
        f = DualFunc((2, 1), (1, 1), (inv_expr(h0) * h1 + h0, tail_coord(0) * h0 + re_part(h1)))
        rng = np.random.default_rng(61)
        points = rng.uniform(-1.0, 1.0, size=(1000, 5))
        points[:, 0] = rng.choice([-1.0, 1.0], size=1000) * rng.uniform(0.5, 1.5, size=1000)
        points[:, 1] = 0.0
        col, value = (0, 0.0) if kind == "singular_inverse" else (1, 0.7)
        points[list(bad_rows), col] = value
        want, want_stop, want_error = _per_point_rows(f, points)
        calls = []
        original = diff.eval_func

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(diff, "eval_func", counting)
        values, stop, exc = diff._eval_rows(f, points)
        assert len(calls) == 1
        assert stop == want_stop == bad_rows[0]
        assert str(exc) == want_error
        assert values.tobytes() == np.array(want).tobytes()

    def test_batch_without_bad_rows_replays_nothing(self, monkeypatch):
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0) + 3.0),))
        points = np.random.default_rng(62).uniform(-1.0, 1.0, size=(50, 2))
        monkeypatch.setattr(diff, "eval_func", None)  # any replay would fail
        values, stop, exc = diff._eval_rows(f, points)
        assert (stop, exc) == (50, None)
        monkeypatch.undo()
        assert values.tobytes() == np.array(_per_point_rows(f, points)[0]).tobytes()

    def test_constant_singular_inverse_fails_the_first_row(self):
        f = DualFunc((1, 0), (1, 0), (inv_expr(const(0.0)) + head_coord(0),))
        for count in (0, 3):
            values, stop, exc = diff._eval_rows(f, np.ones((count, 2)))
            assert values.shape == (0, 2) and stop == 0
            assert (exc is None) == (count == 0)

    def test_lowering_marks_dead_values(self):
        x = head_coord(0)
        y = x * x
        nodes, roots = diff.lower((y + y, y), (1, 0))
        assert roots == (2, 1) and [node[:2] for node in nodes] == [("coord", ()), ("mul", (0, 0)), ("add", (1, 1))]
        # y stays alive as a root; x dies at y
        assert [freed for *_, freed in nodes] == [(), (0,), ()]


def _per_point_rows(f, points):
    """diff._eval_rows as a loop of eval_func over the rows: the realified
    values up to the first row that raises, its index and its message."""
    values = []
    for k, x in enumerate(points):
        try:
            values.append(linalg.realify(diff.eval_func(f, linalg.unrealify(x, *f.domain))))
        except (NotInvertible, EvaluationFailed) as exc:
            return values, k, str(exc)
    return values, len(points), None


def _block_rows(f, points):
    """diff._cr_rows as a loop of cr_check over the rows: the residuals in
    _RESIDUAL_KEYS order, or None where cr_check raises."""
    rows = []
    for x in points:
        try:
            report = diff.cr_check(f, linalg.unrealify(x, *f.domain))
        except EvaluationFailed:
            rows.append(None)
            continue
        rows.append(np.array([report.residuals[k] for k in diff._RESIDUAL_KEYS]))
    return rows


def _assert_block_rows(f, points):
    """_cr_rows equals cr_check row by row, bit for bit; the mask of the
    rows where cr_check raises."""
    residuals, bad = diff._cr_rows(f, points)
    assert residuals.shape == (len(points), 4) and bad.shape == (len(points),)
    for k, want in enumerate(_block_rows(f, points)):
        assert bad[k] == (want is None), k
        if want is not None:
            assert residuals[k].tobytes() == want.tobytes(), k
    return bad


class TestBatchedBlockTest:
    def test_smooth_tame_functions(self):
        rng = np.random.default_rng(71)
        for _ in range(12):
            f, a = sampling.tame_case(rng, (2, 1), (2, 1), depth=3)
            points = np.vstack([linalg.realify(a), rng.uniform(-1.0, 1.0, size=(30, 5))])
            _assert_block_rows(f, points)

    @pytest.mark.parametrize("project", [re_part, ze_part])
    def test_projection_controls(self, project):
        x = head_coord(0)
        f = DualFunc((2, 1), (1, 1), (x * x + 0.7 * project(head_coord(1)), sharp_expr(x)))
        points = np.random.default_rng(72).uniform(-1.0, 1.0, size=(40, 5))
        assert not _assert_block_rows(f, points).any()
        residuals, _ = diff._cr_rows(f, points)
        assert (residuals.max(axis=1) > 0.5).all()

    def test_singular_inverses(self):
        f = DualFunc((1, 1), (1, 0), (inv_expr(head_coord(0)) * tail_coord(0),))
        points = np.random.default_rng(73).uniform(-1.0, 1.0, size=(20, 3))
        points[[2, 7, 8], 0] = (0.0, 1e-10, -1e-9)
        assert list(np.flatnonzero(_assert_block_rows(f, points))) == [2, 7, 8]
        constant = DualFunc((1, 0), (1, 0), (inv_expr(const(0.0)) + head_coord(0),))
        assert _assert_block_rows(constant, np.ones((3, 2))).all()

    def test_tails_that_are_not_zero_divisors(self):
        f = DualFunc((1, 0), (1, 1), (head_coord(0), head_coord(0) * EPS + 0.0 * head_coord(0)))
        g = DualFunc((1, 0), (0, 1), (head_coord(0),))
        points = np.random.default_rng(74).uniform(-1.0, 1.0, size=(20, 2))
        points[[0, 5], 0] = (0.0, 1e-10)
        assert not _assert_block_rows(f, points).any()
        assert list(np.flatnonzero(~_assert_block_rows(g, points))) == [0, 5]

    def test_overflowing_points(self):
        x = head_coord(0)
        cube = DualFunc((2, 0), (1, 0), (x * x * x,))
        points = np.array([[1e200, 0.0, 0.0, 0.0], [0.5, 0.0, 0.1, 2.0]])
        assert list(_assert_block_rows(cube, points)) == [True, False]
        # a finite Jacobian whose ze_match residual overflows
        c = const(1e308)
        residual = DualFunc((1, 0), (1, 0), (c * re_part(x) - c * (x - re_part(x)),))
        assert list(_assert_block_rows(residual, np.array([[0.5, 0.1]]))) == [True]

    def test_empty_batch(self):
        for f in (square_func(), DualFunc((1, 1), (0, 1), (tail_coord(0),))):
            residuals, bad = diff._cr_rows(f, np.empty((0, 2 * f.domain[0] + f.domain[1])))
            assert residuals.shape == (0, 4) and bad.shape == (0,)

    def test_smallest_default_tolerance_keeps_rows_equal_to_points(self):
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        try:
            for tol in (1e-200, np.nextafter(2.0**-537, 0.0), float("nan")):
                with pytest.raises(ValueError):
                    core.set_default_tol(tol)
            core.set_default_tol(2.0**-537)
            for re in (1e-170, 2.0**-537, np.nextafter(2.0**-537, 1.0), 1e-160, 1e-150):
                row = np.array([[re, 1.0]])
                values, bad = diff._eval_batch(f, row)
                a = linalg.unrealify(row[0], 1, 0)
                try:
                    want = linalg.realify(diff.eval_func(f, a))
                except NotInvertible:
                    assert bad[0], re
                    with pytest.raises(NotInvertible):
                        diff.forward_derivative(f, a)
                    with pytest.raises(NotInvertible):
                        diff.realified_jacobian(f, a)
                else:
                    assert not bad[0] and values[0].tobytes() == want.tobytes(), re
                _assert_block_rows(f, row)
        finally:
            core.set_default_tol(core.DEFAULT_TOL)


_COORD = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 3e100, -1e200, 1e-200]))


@st.composite
def classed_programs(draw):
    """A function (2, 1) -> (s, t), the nodes it was built from, and four
    points.  Trees from sampling.random_expr, constants that are pure eps,
    real or dual, and component coords are joined in a straight-line
    program by ring ops, shifted inverses, sharp, re_part and ze_part, so
    every rule of diff._classes is reached.  Coordinates near the float
    limits make some Jacobians non-finite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = [coord("head", 0, "re"), coord("head", 1, "ze"), coord("tail", 0, "ze")]
    nodes += [const(DualNumber(0.0, 0.7)), const(DualNumber(1.3, 0.0)), const(DualNumber(-0.4, 0.9))]
    nodes += [sampling.random_expr(rng, 2, 1, 3) for _ in range(3)]
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["add", "sub", "mul", "neg", "inv", "sharp", "re_part", "ze_part"]))
        u = draw(st.sampled_from(nodes))
        if op in ("add", "sub", "mul"):
            e = Expr(op, (u, draw(st.sampled_from(nodes))))
        elif op == "inv":
            e = inv_expr(const(DualNumber(draw(st.sampled_from((-3.0, 3.0))), draw(_UNIT))) + u)
        else:
            e = Expr(op, (u,))
        nodes.append(e)
    heads = [draw(st.sampled_from(nodes)) for _ in range(draw(st.integers(1, 2)))]
    tails = [draw(st.sampled_from(nodes)) for _ in range(draw(st.integers(0, 2)))]
    tails = [sharp_expr(e) if draw(st.booleans()) else e for e in tails]
    f = DualFunc((2, 1), (len(heads), len(tails)), tuple(heads + tails))
    points = [vector([DualNumber(draw(_COORD), draw(_COORD)) for _ in range(2)], [draw(_COORD)]) for _ in range(4)]
    return f, nodes + heads + tails, points


def _finite_jacobian(f, a):
    """realified_jacobian at a, or None where it raises (a singular
    inverse, a tail that is not a zero divisor, or a Jacobian that is not
    finite)."""
    try:
        return diff.realified_jacobian(f, a)
    except (NotInvertible, EvaluationFailed):
        return None


def _null_or_not_finite(x) -> bool:
    return not np.isfinite(x) or x == 0.0


class TestSmoothnessClasses:
    """diff._classes against _jacobian: where a node's Jacobian rows are
    finite, its class's zero entries are exactly 0.0 and its matched
    entries exactly equal, and a proved function's block residuals are
    exactly 0.0."""

    @_PROGRAM_SETTINGS
    @given(classed_programs())
    def test_rules_hold_on_the_jacobian(self, case):
        f, nodes, points = case
        a, b, c = [0, 1], [2, 3], [4]  # head re, head ze and tail columns
        for e in nodes:
            g = DualFunc((2, 1), (1, 0), (e,))
            cls = diff._classes(g)[g._outputs[0]]
            for x in points:
                jac = _finite_jacobian(g, x)
                if jac is None:
                    continue
                dre, dze = jac
                value = diff.eval_func(g, x).head[0]
                if cls & diff._CLEAN:
                    assert (dre[b] == 0.0).all()
                if cls & diff._DUAL == diff._DUAL:
                    assert (dre[c] == 0.0).all() and (dre[a] == dze[b]).all()
                if cls & diff._EPS == diff._EPS:
                    assert (dre == 0.0).all() and (dze[b] == 0.0).all()
                    assert _null_or_not_finite(value.re)
                if cls & diff._REAL == diff._REAL:
                    assert (dze == 0.0).all() and _null_or_not_finite(value.ze)
        if diff._proved(f):
            for x in points:
                jac = _finite_jacobian(f, x)
                if jac is not None:
                    assert [float(r) for r in diff._residuals(jac, 2, f.codomain[0])] == [0.0] * 4

    def test_random_functions_are_proved(self):
        # random_func's heads carry no projection and its tails are sharp
        rng = np.random.default_rng(23)
        for domain, codomain in (((2, 1), (2, 1)), ((1, 0), (1, 0)), ((0, 2), (1, 2)), ((3, 3), (2, 2))):
            for _ in range(10):
                assert diff._proved(sampling.random_func(rng, domain, codomain, 4))

    def test_classes_are_computed_once_and_not_when_lowering(self):
        f = sampling.random_func(np.random.default_rng(24), (2, 1), (1, 1), 4)
        assert "_classes" not in f.__dict__
        assert diff._classes(f) is diff._classes(f)
        assert len(diff._classes(f)) == len(f._nodes)

    def test_projections_and_head_ze_coords_are_not_proved(self):
        x = head_coord(0)
        cases = {
            # re_part of a dual node is real, not dual
            "re_part": ((re_part(x),), (1, 0), False),
            # sharp of a real node is eps, so the tail output passes
            "sharp_real_tail": ((x, sharp_expr(re_part(x))), (1, 1), True),
            # a head ze part read as real feeds re from a ze column
            "ze_coord_tail": ((x, sharp_expr(coord("head", 0, "ze"))), (1, 1), False),
            # ze_part of an eps node is real; of a dual node, nothing
            "ze_part_eps": ((x * ze_part(sharp_expr(x)),), (1, 0), False),
            "ze_part_dual": ((x, sharp_expr(ze_part(x))), (1, 1), False),
            # a tail output that is dual but not eps
            "dual_tail": ((x, tail_coord(0) + x), (1, 1), False),
        }
        for name, (comps, codomain, proved) in cases.items():
            f = DualFunc((1, 1), codomain, comps)
            assert diff._proved(f) == proved, name


def _names(path):
    """Every name a module's code uses: names, attributes, imports and
    definitions (docstrings and comments do not count)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef)):
            names.add(getattr(node, "id", None) or getattr(node, "attr", None) or node.name)
    return names


def test_finite_differences_stay_out_of_production_paths():
    """numeric_jacobian is an oracle: only diff (which defines it), the
    selftest and the package's exports may use it."""
    root = pathlib.Path(diff.__file__).parent
    users = {p.stem for p in root.rglob("*.py") if "numeric_jacobian" in _names(p)}
    assert "diff" in users and users <= {"__init__", "diff", "selftest"}


def test_one_single_point_derivative_pass():
    """_cr_rows is the one production caller of the batched _jacobian and
    _pass the one caller of the single-point _gradients; the block
    residuals are measured only there, once per pass or batch; no second
    single-point walker (the ring pass, or its proof) is back, and
    forward_derivative reads no node list of its own."""
    root = pathlib.Path(diff.__file__).parent
    callers = {"_jacobian": set(), "_gradients": set(), "_residuals": set()}
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("_ring_pass", "_ring_proved"), path
                names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
                for callee in callers:
                    if callee in names and node.name != callee:
                        callers[callee].add((path.stem, node.name))
                if node.name == "forward_derivative":
                    assert "_nodes" not in names
    assert callers == {
        "_jacobian": {("diff", "_cr_rows")},
        "_gradients": {("diff", "_pass")},
        "_residuals": {("diff", "_cr_rows"), ("diff", "_pass")},
    }


def _mentions(path, name):
    """The functions (as Class.function, or the class or None outside any
    function) whose code uses the identifier name."""
    found = set()

    def visit(node, owner, cls):
        if isinstance(node, ast.ClassDef):
            owner = cls = node.name
        elif isinstance(node, ast.FunctionDef):
            owner = "%s.%s" % (cls, node.name) if cls else node.name
        if name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "arg", None)):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, cls)

    visit(ast.parse(path.read_text()), None, None)
    return found


def test_one_projection_form():
    """A coord is always a full coord: only coord and Expr.from_json deal
    with a component, Expr has no such field, and every lowered coord reads
    the realified columns of both parts (a tail's re part is zero)."""
    root = pathlib.Path(diff.__file__).parent
    users = {(p.stem, owner) for p in root.rglob("*.py") for owner in _mentions(p, "component")}
    assert ("diff", "coord") in users and users <= {("diff", "coord"), ("diff", "Expr.from_json")}
    assert "component" not in {f.name for f in dataclasses.fields(Expr)}
    comps = (coord("head", 1, "re"), coord("head", 0, "ze"), coord("tail", 1, "ze"), head_coord(1) * tail_coord(0))
    funcs = [DualFunc((2, 2), (4, 0), comps), manifold._template(2, 3, False, False), manifold.transition(0, 1, 2, 0, 2, 2)]
    for f in funcs:
        n, m = f.domain
        full = {(i, n + i) for i in range(n)} | {(None, 2 * n + j) for j in range(m)}
        assert {payload for op, _, payload, _ in f._nodes if op == "coord"} <= full


def test_one_derivative_reading():
    """cr_check and forward_derivative read a derivative off the pass's
    rows through one _derivative; the block splitter and the averaged
    re-to-re copies are gone."""
    root = pathlib.Path(diff.__file__).parent
    defined = {n.name for p in root.rglob("*.py") for n in ast.walk(ast.parse(p.read_text())) if isinstance(n, ast.FunctionDef)}
    assert "_blocks" not in defined
    users = {(p.stem, owner) for p in root.rglob("*.py") for owner in _mentions(p, "_derivative")}
    assert users == {("diff", "cr_check"), ("diff", "forward_derivative")}


def test_compose_splices_and_lower_is_the_one_walk(monkeypatch):
    """compose_funcs builds its node list from its parts' lists: it reads
    no lower and no tree walk, _postorder is gone, and only DualFunc's
    constructor lowers."""
    path = pathlib.Path(diff.__file__)
    defined = {n.name for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.FunctionDef)}
    assert "_postorder" not in defined and "compose_funcs" in defined
    assert _mentions(path, "lower") == {"DualFunc.__post_init__"}
    f = sampling.random_func(np.random.default_rng(6), (2, 1), (2, 1), 4)
    monkeypatch.setattr(diff, "lower", None)  # any lowering would fail
    assert diff.compose_funcs(f, f).components[0] is not None


def test_a_function_is_its_node_list(monkeypatch):
    """A DualFunc keeps its node list and outputs, not expressions: the
    given components are dropped, compose_funcs builds no Expr, and
    components is read back from the nodes on first use and kept."""
    assert "_exprs" not in pathlib.Path(diff.__file__).read_text()
    x = head_coord(0)
    given = (x * x + const(DualNumber(2.0, 0.5)), sharp_expr(x) + tail_coord(0))
    f = DualFunc((1, 1), (1, 1), given)
    monkeypatch.setattr(diff, "Expr", None)  # any Expr built would fail
    comp = diff.compose_funcs(f, f)
    monkeypatch.undo()
    for g in (f, comp):
        assert set(vars(g)) == {"domain", "codomain", "_nodes", "_outputs"}
        components = g.components
        assert vars(g)["components"] is components and g.components is components
        with pytest.raises(AttributeError):
            g.missing
        assert copy.copy(g) == g and pickle.loads(pickle.dumps(g)) == g
    assert f.components == given and f.components[0] is not given[0]


class TestExprEquality:
    """Expr's == and hash are the dataclass's, field by field down the
    tree, but loops over the DAG: depth is not limited by recursion, and
    shared subtrees cost one visit."""

    @staticmethod
    def _sum(depth, last=1.0):
        e = head_coord(0)
        for k in range(depth):
            e = e + (last if k == 0 else 1.0)
        return e

    @pytest.mark.parametrize("depth", [3000, 20000])
    def test_deep_sums_compare_and_hash(self, depth):
        a, b = self._sum(depth), self._sum(depth)
        assert a == b and hash(a) == hash(b)
        assert a != self._sum(depth - 1) and a != self._sum(depth, last=2.0)
        assert DualFunc((1, 0), (1, 0), (a,)) == DualFunc((1, 0), (1, 0), (b,))

    def test_shared_chains_compare_in_linear_time(self):
        a, b = _doubling_chain(18).components[0], _doubling_chain(18).components[0]
        start = time.perf_counter()
        assert a == b
        assert time.perf_counter() - start < 0.01
        assert hash(a) == hash(b)

    def test_dataclass_semantics(self):
        x = head_coord(0)
        assert x.__eq__(1.0) is NotImplemented and x != 1.0 and x != "x"
        assert x == coord("head", 0) and x != head_coord(1) and x != tail_coord(0)
        nan = const(float("nan"))
        assert nan == nan and nan * x == nan * x  # the identity shortcut
        # DualNumber's ==: 0.0 == -0.0, and the hashes agree
        pos, neg = const(DualNumber(0.0, 1.0)) * x, const(DualNumber(-0.0, 1.0)) * x
        assert pos == neg and hash(pos) == hash(neg)
        assert inv_expr(x) != sharp_expr(x) and {inv_expr(x), inv_expr(head_coord(0))} == {inv_expr(x)}


class TestConstruction:
    def test_coord_slots_checked_against_domain(self):
        for e in (coord("head", 3), tail_coord(0), sharp_expr(coord("head", 1, "ze"))):
            with pytest.raises(ShapeMismatch):
                DualFunc((1, 0), (1, 0), (e,))

    def test_const_refuses_non_numbers(self):
        for bad in (None, "a", (1.0, 2.0), [1.0], np.zeros(2), 1j, np.complex128(1.0), np.bool_(True)):
            with pytest.raises(TypeError, match="cannot treat"):
                const(bad)
            with pytest.raises(TypeError, match="cannot treat"):
                head_coord(0) + bad
        assert const(2) == const(2.0) == const(DualNumber(2.0, 0.0))
        # any real number, numpy's scalars included
        for x in (np.int64(2), np.float32(0.5), np.float64(0.25), True):
            assert const(x) == const(DualNumber(float(x), 0.0))
            assert head_coord(0) * x == head_coord(0) * const(float(x))

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

    def test_reports_compare_by_value(self):
        f = square_func()
        a = core.vector([DualNumber(1.0, 1.0)], [])
        assert diff.cr_check(f, a) == diff.cr_check(f, a)
        assert diff.cr_check(f, a) != diff.cr_check(f, core.vector([DualNumber(2.0, 1.0)], []))

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

    def test_tolerance_must_be_finite_and_at_least_zero(self):
        f = DualFunc((1, 0), (1, 0), (re_part(head_coord(0)),))
        a = core.vector([DualNumber(0.3, -0.7)], [])
        for tol in (np.inf, np.nan, -1e-12):
            with pytest.raises(ValueError, match="block tolerance must be finite and at least 0"):
                diff.cr_check(f, a, tol=tol)
        assert not diff.cr_check(f, a, tol=0.0).passed
        assert diff.cr_check(square_func(), a, tol=0.0).passed


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
        # both head outputs are REAL, not DUAL
        assert not diff._proved(f) and not diff._proved(g)

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

    def test_tail_reading_a_head_ze_part_is_refused(self):
        # the tail evaluates (its re part is the head re part, 0.0) but
        # moves with the head ze part, so the head re and tail columns
        # alone would give the zero map
        f = DualFunc((1, 0), (0, 1), (head_coord(0),))
        a = vector([(0.0, 0.5)], [])
        assert diff.eval_func(f, a).tail[0] == 0.5
        assert diff.realified_jacobian(f, a).tolist() == [[0.0, 1.0]]
        assert diff.cr_check(f, a).residuals["tail_dze"] == 1.0
        with pytest.raises(NonSmoothExpression, match="tail_dze residual 1$"):
            diff.forward_derivative(f, a)

    def test_tail_within_the_zero_tolerance_is_refused(self):
        # the tail's re part, 5e-21, is a zero divisor within the default
        # tolerance and cr_check passes at its default tol, yet the tail
        # moves with the head ze part: not exactly a module map's Jacobian
        f = DualFunc((1, 0), (0, 1), (const(1e-20) * head_coord(0),))
        a = vector([(0.5, 0.25)], [])
        assert diff.eval_func(f, a).tail[0] == 2.5e-21
        report = diff.cr_check(f, a)
        assert report.passed and report.residuals["tail_dze"] == 1e-20
        with pytest.raises(NonSmoothExpression, match="tail_dze residual 1e-20$"):
            diff.forward_derivative(f, a)

    def test_overflowing_tangent_fails_like_the_jacobian(self):
        # with the smallest zero tolerance, 1/re at re = 1e-150 is finite but
        # its tangent -1/re**2 is not
        f = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        a = core.vector([DualNumber(1e-150, 1.0)], [])
        core.set_default_tol(2.0**-537)
        try:
            for check in (diff.realified_jacobian, diff.cr_check, diff.forward_derivative):
                with pytest.raises(EvaluationFailed, match="Jacobian at the point is not finite"):
                    check(f, a)
        finally:
            core.set_default_tol(core.DEFAULT_TOL)


_RING_COORD = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, float(np.nextafter(1e-9, 1.0)), 1.5, 3e100, -1e200, 1e200, 1e-200]),
)


@st.composite
def ring_programs(draw, domain=None, codomain=None):
    """A function of ring ops and full coords from a drawn domain (or from
    domain) to a drawn codomain (or to codomain), and four points.
    Straight-line programs share subtrees; repeated squaring, unshifted
    inverses and coordinates up to 1e200, or at the default zero tolerance
    1e-9, make some Jacobians non-finite and some inverses singular.  Tail
    outputs are sharp-wrapped or not, so some functions are proved and some
    are not.  Nodes are drawn by index."""
    n, m = domain or draw(st.sampled_from([(1, 0), (1, 1), (2, 1), (0, 2), (2, 0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = [head_coord(i) for i in range(n)] + [tail_coord(j) for j in range(m)]
    nodes += [const(DualNumber(0.0, 0.7)), const(DualNumber(1.3, 0.0)), const(DualNumber(-0.4, 1e200))]
    nodes += [sampling.random_expr(rng, n, m, 3) for _ in range(2)]

    def pick(first=0):  # mostly the last steps, for first > 0
        return nodes[draw(st.integers(first, len(nodes) - 1))]

    for _ in range(draw(st.integers(3, 10))):
        op = draw(st.sampled_from(["add", "sub", "mul", "neg", "inv", "sharp", "square", "square"]))
        u = pick()
        if op in ("add", "sub", "mul"):
            e = Expr(op, (u, pick()))
        elif op == "square":
            e = u
            for _ in range(draw(st.integers(1, 12))):
                e = e * e
        else:
            e = Expr(op, (u,))
        nodes.append(e)
    first = draw(st.integers(0, len(nodes) - 1))
    s = codomain[0] if codomain else draw(st.integers(0, 2))
    heads = [pick(first) for _ in range(s)]
    t = codomain[1] if codomain else draw(st.integers(1 - min(s, 1), 2))
    tails = [pick(first) for _ in range(t)]
    tails = [sharp_expr(e) if draw(st.booleans()) else e for e in tails]
    f = DualFunc((n, m), (len(heads), len(tails)), tuple(heads + tails))
    c = _RING_COORD
    points = [vector([DualNumber(draw(c), draw(c)) for _ in range(n)], [draw(c) for _ in range(m)]) for _ in range(4)]
    return f, points


def _copy(f):
    """f built again, with no cached pass or classes."""
    return DualFunc(f.domain, f.codomain, f.components)


def _outcome(call, f, a):
    """call(f, a), or the type and message of what it raises."""
    try:
        return call(f, a)
    except (NotInvertible, EvaluationFailed) as exc:
        return type(exc), str(exc)


def _jacobian_row(f, a):
    """_jacobian at a as a batch of one point, which keeps the entries that
    are not finite; equal to the point's pass where the point evaluates."""
    bad = np.zeros(1, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        return diff._jacobian(f, list(a.array[:, None, None]), bad)[:, 0, :]


def _same_floats(x, y) -> bool:
    """Equal entry by entry with the same sign, or both NaN."""
    x, y = np.asarray(x), np.asarray(y)
    nan = np.isnan(x)
    return (
        x.shape == y.shape
        and (nan == np.isnan(y)).all()
        and (x[~nan] == y[~nan]).all()
        and (np.signbit(x[~nan]) == np.signbit(y[~nan])).all()
    )


def _bits(result):
    """A CrReport or ModuleMap as bytes, so 0.0 and -0.0 differ."""
    if isinstance(result, CrReport):
        values = np.array(list(result.residuals.values())).tobytes()
        return result.passed, values, _bits(result.derivative)
    if result is None:
        return None
    return b"".join(np.ascontiguousarray(b).tobytes() for b in (result.c_re, result.c_ze, result.p, result.d, result.q))


def _reference_report(f, a):
    """cr_check's outcome at a point where the pass completes, rebuilt
    from the batched _jacobian (_jacobian_row) with _residuals: residuals,
    verdict and derivative (c_re from the head dre rows), or the message of
    the EvaluationFailed."""
    (n, m), (s, t) = f.domain, f.codomain
    jac = _jacobian_row(f, a)
    if not np.isfinite(jac).all():
        return "the Jacobian at the point is not finite"
    with np.errstate(over="ignore", invalid="ignore"):
        values = [float(r) for r in diff._residuals(jac, n, s)]
        if not np.isfinite(values).all():
            return "the block residuals at the point are not finite"
        passed = max(values) <= diff.CR_DEFAULT_TOL
        blocks = (jac[:s, :n], jac[s : 2 * s, :n], jac[s : 2 * s, 2 * n :], jac[2 * s :, :n], jac[2 * s :, 2 * n :])
    return values, passed, linalg.ModuleMap(n, m, s, t, *blocks) if passed else None


def _assert_exact_block_test(f, points):
    """At each point, forward_derivative raises what realified_jacobian
    raises, same type and message; otherwise it returns exactly where the
    four block residuals of the pass are 0.0, and then equals cr_check's
    derivative at tolerance 0.0."""
    n, s = f.domain[0], f.codomain[0]
    for x in points:
        try:
            jac = diff.realified_jacobian(f, x)
        except (NotInvertible, EvaluationFailed) as exc:
            with pytest.raises(type(exc)) as caught:
                diff.forward_derivative(_copy(f), x)
            assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
            continue
        with np.errstate(over="ignore"):
            exact = all(r == 0.0 for r in diff._residuals(jac, n, s))
        try:
            deriv = diff.forward_derivative(_copy(f), x)
        except NonSmoothExpression:
            assert not exact
            continue
        assert exact and deriv == diff.cr_check(f, x, tol=0.0).derivative


def _assert_pass_is_the_reference(f, points):
    """At each point, the pass equals the batched _jacobian bit for bit,
    realified_jacobian raises where the pass does, and cr_check reports
    what _reference_report rebuilds; _cr_rows marks exactly the points
    where cr_check raises (the CLI's replay guard)."""
    for x in points:
        try:
            rows = diff._pass(_copy(f), x)[0]
        except (NotInvertible, EvaluationFailed) as exc:
            with pytest.raises(type(exc)) as caught:
                diff.realified_jacobian(f, x)
            assert str(caught.value) == str(exc)
            why = "cannot differentiate at the point: %s" % exc if type(exc) is NotInvertible else str(exc)
            assert _outcome(diff.cr_check, f, x) == (EvaluationFailed, why)
            continue
        assert _same_floats(rows, _jacobian_row(f, x))
        got, want = _outcome(diff.cr_check, f, x), _reference_report(f, x)
        if isinstance(want, str):
            assert got == (EvaluationFailed, want)
        else:
            values, passed, deriv = want
            assert np.array(list(got.residuals.values())).tobytes() == np.array(values).tobytes()
            assert got.passed == passed and _bits(got.derivative) == _bits(deriv)
    _assert_block_rows(f, np.array([x.array for x in points]))


class TestRingPass:
    """The single-point derivative pass (_pass) against the batched
    _jacobian, which stays the reference: its entries are _jacobian's bit
    for bit, with projections, component coords and non-finite entries,
    and cr_check's reports are those rebuilt from _jacobian."""

    @_PROGRAM_SETTINGS
    @given(ring_programs())
    def test_cr_check_equals_the_jacobian_path(self, case):
        _assert_pass_is_the_reference(*case)

    @_PROGRAM_SETTINGS
    @given(classed_programs())
    def test_cr_check_equals_the_jacobian_path_with_projections(self, case):
        f, _, points = case
        _assert_pass_is_the_reference(f, points)

    @_PROGRAM_SETTINGS
    @given(ring_programs())
    def test_pass_equals_the_jacobian_columns(self, case):
        f, points = case
        n, m = f.domain
        for x in points:
            try:
                rows = diff._pass(_copy(f), x)[0]
            except (NotInvertible, EvaluationFailed) as exc:
                with pytest.raises(type(exc)) as caught:
                    diff.realified_jacobian(f, x)
                assert str(caught.value) == str(exc)
                continue
            jac = _jacobian_row(f, x)
            assert rows.shape == jac.shape
            for j in range(2 * n + m):  # head re, head ze, then tail columns
                assert _same_floats(rows[:, j], jac[:, j])

    def test_pass_rounds_as_the_jacobian_does(self):
        # products whose operands both move with every input, at random
        # points, so a sum taken in another order rounds differently
        x, y, t = head_coord(0), head_coord(1), tail_coord(0)
        u, v = x * y + x, inv_expr(y * y - x + 3.0)
        f = DualFunc((2, 1), (2, 1), (u * v, v * v - u, sharp_expr(u * v) + t * u))
        points = np.random.default_rng(37).uniform(-1.0, 1.0, size=(50, 5))
        for a in [linalg.unrealify(p, 2, 1) for p in points]:
            jac = np.ascontiguousarray(_jacobian_row(f, a))
            assert diff._pass(f, a)[0].tobytes() == jac.tobytes()

    def test_forward_derivative_tests_the_tails(self):
        x = head_coord(0)
        f = DualFunc((1, 1), (1, 1), (x, x * tail_coord(0) + x))
        a = linalg.unrealify(np.array([0.7, 0.2, 0.5]), 1, 1)
        for call in (diff.eval_func, diff.cr_check, diff.forward_derivative):
            with pytest.raises(EvaluationFailed) as caught:
                call(f, a)
            assert str(caught.value) == "tail component 0 evaluated to re part 0.7, not a zero divisor"

    def test_evaluation_errors_come_before_the_block_verdict(self):
        # where a projection sits in the node list does not matter: a
        # singular inverse, a tail that is not a zero divisor or a Jacobian
        # that is not finite raises first, then the block test decides
        x = head_coord(0)
        ze = coord("head", 0, "ze")
        singular = vector([DualNumber(0.0, 1.0)], [])
        for comps in ((inv_expr(x), re_part(x)), (re_part(x), inv_expr(x)), (ze, inv_expr(x))):
            with pytest.raises(NotInvertible):
                diff.forward_derivative(DualFunc((1, 0), (2, 0), comps), singular)
        f = DualFunc((1, 0), (1, 1), (re_part(x), x))
        with pytest.raises(EvaluationFailed, match="not a zero divisor"):
            diff.forward_derivative(f, vector([DualNumber(0.7, 1.0)], []))
        f = DualFunc((1, 0), (2, 0), (re_part(x), inv_expr(x)))
        core.set_default_tol(2.0**-537)
        try:
            with pytest.raises(EvaluationFailed, match="the Jacobian at the point is not finite"):
                diff.forward_derivative(f, vector([DualNumber(1e-150, 1.0)], []))
        finally:
            core.set_default_tol(core.DEFAULT_TOL)
        a = vector([DualNumber(2.0, 1.0)], [])
        with pytest.raises(NonSmoothExpression, match="ze_match residual 1$"):
            diff.forward_derivative(f, a)
        with pytest.raises(NonSmoothExpression, match="head_re_dze residual 1$"):
            diff.forward_derivative(DualFunc((1, 0), (2, 0), (ze, inv_expr(x))), a)

    @_PROGRAM_SETTINGS
    @given(ring_programs())
    def test_forward_derivative_is_the_exact_block_test(self, case):
        _assert_exact_block_test(*case)

    @_PROGRAM_SETTINGS
    @given(classed_programs())
    def test_forward_derivative_is_the_exact_block_test_with_projections(self, case):
        f, _, points = case
        _assert_exact_block_test(f, points)

    def test_projection_counterexample_stays_on_the_jacobian(self):
        # proved, yet its tail row's head ze entry is NaN while the head re
        # and tail columns are finite, so a pass over those would miss it
        e = ze_part(head_coord(0))
        for _ in range(1100):
            e = e * e
        f = DualFunc((1, 1), (1, 1), (head_coord(0), tail_coord(0) * sharp_expr(e)))
        assert diff._proved(f)
        a = linalg.unrealify(np.array([1.0, 1.0, 0.5]), 1, 1)
        jac = _jacobian_row(f, a)
        assert np.isnan(jac[2, 1]) and np.isfinite(jac[:, [0, 2]]).all()
        with pytest.raises(EvaluationFailed, match="the Jacobian at the point is not finite"):
            diff.cr_check(f, a)

    def test_cr_check_then_forward_derivative_walks_once(self, monkeypatch):
        walks = []
        gradients = diff._gradients
        monkeypatch.setattr(diff, "_gradients", lambda *args: walks.append(1) or gradients(*args))
        rng = np.random.default_rng(31)
        f, a = sampling.tame_case(rng, (2, 1), (2, 1), depth=3)
        b = linalg.unrealify(linalg.realify(a) * 1.001, 2, 1)
        report = diff.cr_check(f, a)
        assert diff.forward_derivative(f, a) == report.derivative
        diff.realified_jacobian(f, a)
        assert len(walks) == 1
        diff.forward_derivative(f, b)
        diff.cr_check(f, b)
        assert len(walks) == 2
        x = head_coord(0)
        control = DualFunc((2, 1), (1, 1), (x * x + 0.7 * re_part(head_coord(1)), sharp_expr(x)))
        assert not diff.cr_check(control, a).passed
        diff.realified_jacobian(control, a)
        diff.cr_check(control, a)
        with pytest.raises(NonSmoothExpression):
            diff.forward_derivative(control, a)
        assert len(walks) == 3

    def test_realified_jacobian_is_a_copy(self):
        x = head_coord(0)
        f = DualFunc((1, 1), (1, 1), (x * x + inv_expr(x + 0.3), sharp_expr(x) * tail_coord(0)))
        a = vector([(0.5, 0.25)], [0.75])
        report, deriv = diff.cr_check(f, a), diff.forward_derivative(f, a)
        jac = diff.realified_jacobian(f, a)
        want = jac.copy()
        jac[:] = 7.0
        assert diff.realified_jacobian(f, a).tobytes() == want.tobytes()
        assert _bits(diff.cr_check(f, a)) == _bits(report)
        assert _bits(diff.forward_derivative(f, a)) == _bits(deriv)

    def test_cache_follows_the_point_and_the_tolerance(self):
        x = head_coord(0)
        f = DualFunc((1, 1), (1, 1), (x * x + inv_expr(x + 0.3), sharp_expr(x) * tail_coord(0)))
        p, q = vector([(0.5, 0.25)], [0.75]), vector([(-0.2, 1.0)], [-2.0])
        for a in (p, q, p, p, q):  # x, then y, then x
            for call in (diff.cr_check, diff.forward_derivative):
                assert _bits(call(f, a)) == _bits(call(_copy(f), a))
        # 0.0 and -0.0 are different points to the cache
        square = DualFunc((1, 0), (1, 0), (x * x,))
        plus, minus = vector([(0.0, 0.0)], []), vector([(-0.0, 0.0)], [])
        for first, second in ((plus, minus), (minus, plus), (plus, plus)):
            diff.cr_check(square, first)
            deriv = diff.forward_derivative(square, second)
            assert np.signbit(deriv.c_re[0, 0]) == np.signbit(second.array[0])
        # a new default tolerance between the two calls
        inverse = DualFunc((1, 0), (1, 0), (inv_expr(x),))
        a = vector([(0.3, 0.0)], [])
        assert diff.cr_check(inverse, a).passed
        core.set_default_tol(0.5)
        try:
            with pytest.raises(NotInvertible):
                diff.forward_derivative(inverse, a)
            with pytest.raises(EvaluationFailed, match="cannot differentiate"):
                diff.cr_check(inverse, a)
        finally:
            core.set_default_tol(core.DEFAULT_TOL)
        w = 1.0 / 0.3
        assert diff.forward_derivative(inverse, a).head_entry(0, 0).re == -w * w


@st.composite
def spliced_pairs(draw):
    """An outer and an inner function that compose, and four points of
    inner's domain: inner from ring_programs or classed_programs, outer a
    ring program on inner's codomain.  Half the outers are composed first
    with inner after a ring program back onto inner's domain, so they hold
    inner's constant nodes, payload tuples and all, which the splice then
    reads as inner's own."""
    if draw(st.booleans()):
        inner, points = draw(ring_programs())
    else:
        inner, _, points = draw(classed_programs())
    outer, _ = draw(ring_programs(inner.codomain))
    if draw(st.booleans()):
        back, _ = draw(ring_programs(inner.codomain, inner.domain))
        outer = diff.compose_funcs(outer, diff.compose_funcs(inner, back))
    return outer, inner, points


def _result_bits(call, f, a):
    """call(f, a) as bytes (a CrReport as _bits), or the type and message
    of what it raises."""
    got = _outcome(call, f, a)
    if isinstance(got, CrReport):
        return _bits(got)
    if isinstance(got, core.DualVector):
        return got.array.tobytes()
    return got if isinstance(got, tuple) else got.tobytes()


class TestSplice:
    """compose_funcs splices its parts' node lists; the composite computes
    what a fresh lowering of its components computes, bit for bit."""

    @_PROGRAM_SETTINGS
    @given(spliced_pairs())
    def test_splice_equals_a_fresh_lowering(self, case):
        outer, inner, points = case
        comp = diff.compose_funcs(outer, inner)
        fresh = DualFunc(inner.domain, outer.codomain, comp.components)
        assert len(comp._nodes) == len(fresh._nodes)
        rows = np.array([x.array for x in points])
        for batch in (diff._eval_batch, diff._cr_rows):
            for got, want in zip(batch(comp, rows), batch(fresh, rows)):
                assert got.tobytes() == want.tobytes()
        for x in points:
            for call in (diff.eval_func, diff.realified_jacobian, diff.cr_check):
                assert _result_bits(call, comp, x) == _result_bits(call, _copy(fresh), x)

    def test_dead_inner_nodes_are_dropped(self):
        # outer never reads inner's second output, which cannot be evaluated
        x = head_coord(0)
        inner = DualFunc((1, 0), (2, 0), (x, inv_expr(const(0.0) * x)))
        outer = DualFunc((2, 0), (1, 0), (head_coord(0),))
        comp = diff.compose_funcs(outer, inner)
        a = vector([DualNumber(0.5, 0.25)], [])
        assert diff.eval_func(comp, a) == a and len(comp._nodes) == 1

    def test_a_const_shared_with_inner_outlives_inner_reads(self):
        # outer, a composite with inner, holds inner's c; the splice reads
        # it as inner's node, and outer reads it after inner's last read of
        # it, so c is freed only there
        c, x = const(DualNumber(2.0, 0.5)), head_coord(0)
        inner = DualFunc((1, 0), (1, 0), (c * x,))
        outer = diff.compose_funcs(DualFunc((1, 0), (1, 0), (x + x,)), inner)
        comp = diff.compose_funcs(outer, inner)
        assert len(comp._nodes) == 5  # c, x, c * x, then outer's mul and add
        assert [freed for *_, freed in comp._nodes] == [(), (), (1,), (0, 2), (3,)]
        a = vector([DualNumber(0.5, 0.25)], [])
        assert diff.eval_func(comp, a) == diff.eval_func(outer, diff.eval_func(inner, a))
        y = c * (c * x)
        assert comp.components == (y + y,)

    def test_one_node_per_input_slot(self):
        # coords built apart are one node per (part, slot), also in composites
        f = DualFunc((2, 1), (2, 1), (head_coord(0) * head_coord(0), head_coord(1) + head_coord(0), sharp_expr(tail_coord(0)) + tail_coord(0)))
        funcs = [f, diff.compose_funcs(f, f), manifold.transition(0, 1, 2, 0, 2, 2), sampling.random_func(np.random.default_rng(5), (2, 2), (1, 1), 6)]
        for g in funcs:
            columns = [payload for op, _, payload, _ in g._nodes if op == "coord"]
            assert len(columns) == len(set(columns))
        assert len(f._nodes) == 3 + 4


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


    def test_large_values_do_not_overflow_the_norms(self):
        # the remainders near 1e200 square past the float limit, which
        # the norms avoid; pytest turns a RuntimeWarning into an error
        f = DualFunc((1, 0), (1, 0), (const(1e200) * head_coord(0),))
        a = core.vector([DualNumber(0.7, 0.1)], [])
        assert isinstance(diff.limit_check(f, a, diff.forward_derivative(f, a)), bool)

    def test_base_point_failure_is_named_before_the_probes(self):
        # the base point is row 0 of the probe batch; where it and probes
        # fail, the base point's message wins, with eval_func's exception
        singular = DualFunc((1, 0), (1, 0), (inv_expr(head_coord(0)),))
        not_zero_divisor = DualFunc((1, 0), (0, 1), (head_coord(0),))
        for f, a, why in (
            (singular, DualNumber(0.0, 0.5), "re part 0 is within tolerance of zero"),
            (not_zero_divisor, DualNumber(1.0, 0.5), "tail component 0 evaluated to re part 1, not a zero divisor"),
        ):
            a = core.vector([a], [])
            deriv = linalg.ModuleMap.zero(f.domain, f.codomain)
            with pytest.raises(EvaluationFailed) as caught:
                diff.limit_check(f, a, deriv)
            assert str(caught.value) == "cannot evaluate at the base point: " + why

    @pytest.mark.parametrize("radius,levels", [(np.nan, 14), (0.0, 14), (np.inf, 14), (0.05, 1100)])
    def test_radius_must_be_finite_and_above_zero(self, radius, levels):
        # at 1100 levels the smallest radius, 0.05 / 2**1099, is 0.0
        f, a = square_func(), core.vector([DualNumber(0.5, 0.25)], [])
        deriv = diff.forward_derivative(f, a)
        with pytest.raises(ValueError, match="radius must be finite and above 0"):
            diff.limit_check(f, a, deriv, radius=radius, levels=levels)

    def test_tolerance_must_be_finite_and_at_least_zero(self):
        f = DualFunc((1, 0), (1, 0), (re_part(head_coord(0)),))
        a = core.vector([DualNumber(1.0, 0.5)], [])
        cand = linalg.ModuleMap.scalar(1, 0, DualNumber(0.5, 0.0))
        for tol in (np.inf, np.nan, -1e-12):
            with pytest.raises(ValueError, match="limit tolerance must be finite and at least 0"):
                diff.limit_check(f, a, cand, tol=tol)
        square = square_func()
        assert diff.limit_check(square, a, diff.forward_derivative(square, a), tol=0.5)


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

    def test_component_coords_read_as_projections(self):
        # a component coord is re_part or ze_part of the full coord, and
        # JSON with a component reads back as that form
        forms = {
            ("head", "re"): re_part(head_coord(0)),
            ("head", "ze"): ze_part(head_coord(0)),
            ("tail", "ze"): ze_part(tail_coord(0)),
        }
        for (part, component), want in forms.items():
            doc = {"op": "coord", "part": part, "slot": 0, "component": component}
            assert coord(part, 0, component) == Expr.from_json(doc) == want
            assert Expr.from_json(want.to_json()) == want
        assert coord("head", 0, "full") == Expr.from_json({"op": "coord", "part": "head", "slot": 0}) == head_coord(0)
        for part, component in (("head", "dual"), ("tail", "re"), ("tail", None)):
            with pytest.raises(ValueError, match="component must be"):
                coord(part, 0, component)

    def test_bad_json(self):
        with pytest.raises(ValueError):
            Expr.from_json({"op": "frobnicate"})
        with pytest.raises(ValueError):
            DualFunc.from_json({"domain": [1, 0]})

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (1, "f17ad8bf9c402e8fa59133f91122ba5b4d318eac72baee7a871332ed00409c50"),
            (2, "f8fbdbcf3aed2e1c8156a9c581878f647eb2aed50d3d38435d7442469023126c"),
            (3, "97465003caa387e6d8cb2a4d8e0d14c45ce990a17fc964e4cf186562f2781995"),
        ],
    )
    def test_workload_composites_keep_their_json(self, monkeypatch, seed, digest):
        """to_json of the composites that the first 60 tasks of the
        benchmark's diffcheck and atlas workloads build, pinned by sha256 as
        it was while composites kept their expressions; each reads back as
        an equal function with an equal hash.  The digests follow the
        workloads' draws, so a change to those draws changes them."""
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
        h = hashlib.sha256()
        for c in _workload_composites(seed, 60):
            data = c.to_json()
            h.update(json.dumps(data).encode())
            twin = DualFunc.from_json(data)
            assert twin == c and hash(twin) == hash(c)
        assert h.hexdigest() == digest

    def test_identity_func_evaluates_to_input(self):
        rng = np.random.default_rng(23)
        f = diff.identity_func(2, 2)
        v = sampling.random_vector(rng, 2, 2)
        assert diff.eval_func(f, v) == v


def _workload_composites(seed, tasks):
    """The composites of the first tasks of the benchmark workloads at
    seed: each diffcheck chain as built, then each ordered chart pair of
    each expression atlas as verify_atlas composes it."""
    import dualmod
    from workloads import atlas, diffcheck

    for i in range(tasks):
        task = diffcheck.make(seed, i)
        if task.kind == "chain":
            yield diffcheck.build(dualmod, task)
    for i in range(tasks):
        task = atlas.make(seed, i)
        if task.kind not in atlas.PROJECTIVE:
            atlas.construct(task)
            charts = task.inputs["atlas"].charts
            for a in range(len(charts)):
                for b in range(len(charts)):
                    yield diff.compose_funcs(charts[b].forward, charts[a].inverse)
