import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmod import core
from dualmod.linalg import realify, unrealify
from dualmod.core import (
    EPS,
    ONE,
    ZERO,
    DualNumber,
    DualVector,
    NotInvertible,
    ShapeMismatch,
)


def rand_dual(rng, lo=-1.0, hi=1.0):
    return DualNumber(rng.uniform(lo, hi), rng.uniform(lo, hi))


class TestScalarAlgebra:
    def test_product_rule(self):
        x = DualNumber(1.0, 1.0)
        y = DualNumber(1.0, -1.0)
        assert core.mul(x, y) == DualNumber(1.0, 0.0)

    def test_eps_squares_to_zero(self):
        assert core.mul(EPS, EPS) == ZERO

    def test_one_is_identity(self):
        x = DualNumber(3.0, -2.0)
        assert core.mul(ONE, x) == x
        assert core.mul(x, ONE) == x

    def test_inverse_value(self):
        # 1/(2 + 3 eps) = 0.5 - 0.75 eps
        got = core.inv(DualNumber(2.0, 3.0))
        assert got == DualNumber(0.5, -0.75)

    def test_inverse_rejects_zero_divisors(self):
        with pytest.raises(NotInvertible):
            core.inv(DualNumber(0.0, 5.0))
        with pytest.raises(NotInvertible):
            core.inv(DualNumber(1e-12, 1.0))  # below default tolerance

    def test_zero_divisor_predicate(self):
        assert core.is_zero_divisor(DualNumber(0.0, 2.0))
        assert not core.is_zero_divisor(DualNumber(0.5, 2.0))
        assert core.is_invertible(DualNumber(0.5, 2.0))

    def test_scalar_norm_values(self):
        assert core.scalar_norm(ONE) == math.sqrt(2.0)
        assert core.scalar_norm(EPS) == 1.0
        assert core.scalar_norm(DualNumber(1.0, 1.0)) == pytest.approx(
            math.sqrt(3.0), abs=1e-15
        )

    def test_ring_laws_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x, y, z = (rand_dual(rng) for _ in range(3))
            lhs = core.mul(core.mul(x, y), z)
            rhs = core.mul(x, core.mul(y, z))
            assert abs(lhs.re - rhs.re) <= 1e-12
            assert abs(lhs.ze - rhs.ze) <= 1e-12
            d1 = core.mul(x, y + z)
            d2 = core.mul(x, y) + core.mul(x, z)
            assert abs(d1.re - d2.re) <= 1e-12
            assert abs(d1.ze - d2.ze) <= 1e-12
            c1 = core.mul(x, y)
            c2 = core.mul(y, x)
            assert c1 == c2

    def test_inverse_roundtrip_random(self):
        rng = np.random.default_rng(11)
        count = 0
        for _ in range(1000):
            x = rand_dual(rng)
            if abs(x.re) <= 1e-6:
                continue
            count += 1
            r = core.mul(x, core.inv(x))
            assert abs(r.re - 1.0) <= 1e-12
            assert abs(r.ze) <= 1e-12
        assert count > 900

    def test_norm_submultiplicative_random(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            x, y = rand_dual(rng), rand_dual(rng)
            assert core.scalar_norm(core.mul(x, y)) <= (
                core.scalar_norm(x) * core.scalar_norm(y) + 1e-12
            )

    def test_norm_positive_definite(self):
        assert core.scalar_norm(ZERO) == 0.0
        rng = np.random.default_rng(17)
        for _ in range(200):
            x = rand_dual(rng)
            if x == ZERO:
                continue
            assert core.scalar_norm(x) > 0.0


class TestScalarContract:
    """DualNumber's explicit __init__ keeps the generated dataclass's
    contract: fields, float conversion, frozenness, ==, hash and copies."""

    def test_fields_and_conversion(self):
        assert [(f.name, f.default) for f in dataclasses.fields(DualNumber)] == [("re", 0.0), ("ze", 0.0)]
        for x in (DualNumber(1, np.float32(0.5)), DualNumber(re=np.int64(1), ze=0.5), DualNumber(True, "0.5")):
            assert x == DualNumber(1.0, 0.5) and type(x.re) is float and type(x.ze) is float
        assert DualNumber() == ZERO and DualNumber(2.0) == DualNumber(2.0, 0.0)
        assert repr(DualNumber(1.0, -0.0)) == "DualNumber(re=1.0, ze=-0.0)"
        for bad in (None, "a", 1j, [1.0]):
            with pytest.raises((TypeError, ValueError)):
                DualNumber(bad, 0.0)
        with pytest.raises(TypeError):
            DualNumber(1.0, 2.0, 3.0)

    def test_frozen_equality_and_hash(self):
        x = DualNumber(1.0, 2.0)
        for name in ("re", "ze", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del x.re
        assert x == DualNumber(1.0, 2.0) and x != DualNumber(1.0, 2.5) and x != (1.0, 2.0)
        assert DualNumber(0.0, 1.0) == DualNumber(-0.0, 1.0)
        assert hash(DualNumber(0.0, 1.0)) == hash(DualNumber(-0.0, 1.0)) == hash((0.0, 1.0))

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_round_trip(self, clone):
        for x in (ZERO, EPS, DualNumber(-0.0, 1e-300), DualNumber(float("inf"), 2.0)):
            c = clone(x)
            assert c == x and hash(c) == hash(x) and vars(c) == vars(x)
            assert math.copysign(1.0, c.re) == math.copysign(1.0, x.re)
            with pytest.raises(dataclasses.FrozenInstanceError):
                c.re = 1.0


class TestTolerancePolicy:
    def test_default_value(self):
        assert core.default_tol() == 1e-9

    def test_set_and_restore(self):
        core.set_default_tol(1e-6)
        try:
            assert core.is_zero_divisor(DualNumber(1e-7, 1.0))
        finally:
            core.set_default_tol(core.DEFAULT_TOL)
        assert not core.is_zero_divisor(DualNumber(1e-7, 1.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            core.set_default_tol(0.0)

    def test_rejects_non_finite(self):
        try:
            for bad in (float("inf"), float("-inf"), float("nan")):
                with pytest.raises(ValueError, match="finite"):
                    core.set_default_tol(bad)
                assert core.default_tol() == core.DEFAULT_TOL
        finally:
            core.set_default_tol(core.DEFAULT_TOL)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 2.0**-538])
    def test_explicit_tolerance_is_checked_like_the_default(self, bad):
        # a re part of 1e-170 passes a zero tolerance, then its square
        # underflows to 0.0: an invalid tolerance is refused before that
        x = DualNumber(1e-170, 1.0)
        with pytest.raises(ValueError, match="at least 2\\*\\*-537"):
            core.inv(x, tol=bad)
        with pytest.raises(ValueError, match="at least 2\\*\\*-537"):
            core.resolve_tol(bad)
        for call in (core.is_invertible, core.is_zero_divisor, DualNumber.is_zero):
            with pytest.raises(ValueError):
                call(x, tol=bad)

    def test_smallest_explicit_tolerance_divides(self):
        assert core.resolve_tol(2.0**-537) == 2.0**-537
        assert core.resolve_tol(None) == core.DEFAULT_TOL
        y = core.inv(DualNumber(1e-160, 1.0), tol=2.0**-537)
        assert y.re == 1.0 / 1e-160 and y.ze == -math.inf
        with pytest.raises(NotInvertible):
            core.inv(DualNumber(2.0**-537, 1.0), tol=2.0**-537)


class TestVectors:
    def test_shapes_and_basis(self):
        v = core.basis_vector(2, 1, 0)
        assert v.shape == (2, 1)
        assert v.head == (ONE, ZERO)
        assert v.tail == (0.0,)
        w = core.basis_vector(2, 1, 2)
        assert w.head == (ZERO, ZERO)
        assert w.tail == (1.0,)
        assert len(core.standard_basis(3, 2)) == 5

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            core.zero_vector(1, 1) + core.zero_vector(1, 2)

    def test_scalar_action_on_tail_uses_re(self):
        v = core.vector([], [2.0])
        got = core.scalar_mul(DualNumber(3.0, 100.0), v)
        assert got.tail == (6.0,)

    def test_scalar_mul_heads_full_dual(self):
        v = core.vector([DualNumber(1.0, 2.0)], [])
        got = core.scalar_mul(DualNumber(0.0, 1.0), v)
        assert got.head[0] == DualNumber(0.0, 1.0)

    def test_scalar_mul_associative_random(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            a, b = rand_dual(rng), rand_dual(rng)
            v = core.vector(
                [rand_dual(rng), rand_dual(rng)], [rng.uniform(-1, 1)]
            )
            lhs = core.scalar_mul(a, core.scalar_mul(b, v))
            rhs = core.scalar_mul(core.mul(a, b), v)
            for h1, h2 in zip(lhs.head, rhs.head):
                assert abs(h1.re - h2.re) <= 4e-16 * max(1.0, abs(h2.re))
                assert abs(h1.ze - h2.ze) <= 4e-16 * max(1.0, abs(h2.ze))
            for r1, r2 in zip(lhs.tail, rhs.tail):
                assert abs(r1 - r2) <= 2.3e-16 * max(1.0, abs(r2))

    def test_inner_examples(self):
        e1 = core.basis_vector(1, 0, 0)
        assert core.inner(e1, e1) == 2.0
        eps_e1 = core.sharp_action(e1)
        assert core.inner(eps_e1, eps_e1) == 1.0
        assert core.inner(e1, eps_e1) == 0.0
        t = core.basis_vector(0, 1, 0)
        assert core.inner(t, t) == 1.0

    def test_vector_norm_example(self):
        # (1 + eps) e_1 in shape (1, 0): sqrt(2*1 + 1) = sqrt(3)
        v = core.vector([DualNumber(1.0, 1.0)], [])
        assert core.vector_norm(v) == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_norm_matches_scalar_norm_on_single_head(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rand_dual(rng)
            v = core.vector([x], [])
            assert core.vector_norm(v) == pytest.approx(
                core.scalar_norm(x), rel=1e-15
            )

    def test_inner_bilinear_random(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            x = core.vector([rand_dual(rng)], [rng.uniform(-1, 1)])
            y = core.vector([rand_dual(rng)], [rng.uniform(-1, 1)])
            z = core.vector([rand_dual(rng)], [rng.uniform(-1, 1)])
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            lhs = core.inner(
                core.scalar_mul(a, x) + core.scalar_mul(b, y), z
            )
            rhs = a * core.inner(x, z) + b * core.inner(y, z)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert core.inner(x, y) == core.inner(y, x)

    def test_inner_positive_definite_random(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = core.vector([rand_dual(rng), rand_dual(rng)], [rng.uniform(-1, 1)])
            q = core.inner(x, x)
            assert q >= 0.0
            if core.vector_norm(x) > 1e-12:
                assert q > 0.0


class TestSharpStructure:
    def test_sharp_action_example(self):
        v = core.vector([DualNumber(2.0, 3.0)], [])
        assert core.sharp_action(v).head[0] == DualNumber(0.0, 2.0)

    def test_sharp_kills_tail(self):
        v = core.vector([], [5.0])
        assert core.sharp_action(v).tail == (0.0,)

    def test_sharp_squared_is_zero(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            v = core.vector(
                [rand_dual(rng), rand_dual(rng)], [rng.uniform(-1, 1)]
            )
            vv = core.sharp_action(core.sharp_action(v))
            assert all(h == ZERO for h in vv.head)
            assert all(r == 0.0 for r in vv.tail)

    def test_image_inside_kernel(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            v = core.vector(
                [rand_dual(rng), rand_dual(rng)], [rng.uniform(-1, 1)]
            )
            w = core.sharp_action(v)
            assert core.in_im_sharp(w)
            assert core.in_ker_sharp(w)

    def test_membership_examples(self):
        eps_e1 = core.vector([DualNumber(0.0, 1.0)], [0.0])
        assert core.in_ker_sharp(eps_e1)
        assert core.in_im_sharp(eps_e1)
        tail_only = core.vector([ZERO], [1.0])
        assert core.in_ker_sharp(tail_only)
        assert not core.in_im_sharp(tail_only)
        plain = core.vector([ONE], [0.0])
        assert not core.in_ker_sharp(plain)

    def test_scalar_acts_through_re_on_kernel(self):
        # eps * v = 0 for v in the kernel, so dual coefficients collapse
        v = core.vector([DualNumber(0.0, 3.0)], [2.0])
        got = core.scalar_mul(EPS, v)
        assert all(h == ZERO for h in got.head)
        assert got.tail == (0.0,)


class TestJson:
    def test_scalar_roundtrip(self):
        x = DualNumber(1.5, -2.25)
        assert DualNumber.from_json(x.to_json()) == x

    def test_vector_roundtrip(self):
        v = core.vector([DualNumber(1.0, 2.0), ZERO], [3.5])
        data = v.to_json()
        assert data == {"n": 2, "m": 1, "head": [[1.0, 2.0], [0.0, 0.0]], "tail": [3.5]}
        assert DualVector.from_json(data) == v

    def test_vector_schema_errors(self):
        with pytest.raises(ValueError):
            DualVector.from_json({"n": 1, "m": 0, "head": [], "tail": []})
        with pytest.raises(ValueError):
            DualVector.from_json({"n": 0, "m": 0, "head": []})
        with pytest.raises(ValueError):
            DualNumber.from_json([1.0])


class TestVectorStorage:
    """A vector is stored as one read-only realified array; heads are boxed
    only when read."""

    def test_constructor_coerces_into_the_array(self):
        v = core.vector([1, (2, 3), DualNumber(-0.0, 4.5)], [5])
        assert v.array.dtype == np.float64 and v.array.flags.c_contiguous
        assert v.array.tolist() == [1.0, 2.0, -0.0, 0.0, 3.0, 4.5, 5.0]
        assert math.copysign(1.0, v.array[2]) == -1.0
        assert v.shape == (3, 1) and v.n == 3 and v.m == 1
        assert v.head == (DualNumber(1.0, 0.0), DualNumber(2.0, 3.0), DualNumber(-0.0, 4.5))
        assert v.tail == (5.0,)

    def test_head_is_boxed_once(self):
        v = unrealify(np.array([1.0, 2.0, 3.0]), 1, 1)
        assert v.head is v.head
        assert v.head == (DualNumber(1.0, 2.0),)

    def test_equality_across_signed_zero(self):
        pos = core.vector([(0.0, 0.0)], [0.0])
        neg = core.vector([(-0.0, -0.0)], [-0.0])
        assert pos == neg and hash(pos) == hash(neg)

    def test_equality_needs_the_same_shape(self):
        # the same three reals as shapes (1, 1) and (0, 3)
        a = unrealify([1.0, 2.0, 3.0], 1, 1)
        b = unrealify([1.0, 2.0, 3.0], 0, 3)
        assert a != b
        assert core.vector([(1.0, 2.0)], []) != core.vector([], [1.0, 2.0])
        assert a != (1.0, 2.0, 3.0)

    def test_hash_agrees_with_equality(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            v = core.vector([rand_dual(rng)], [rng.uniform(-1, 1)])
            w = unrealify(realify(v), 1, 1)
            assert v == w and hash(v) == hash(w)
        assert len({core.zero_vector(1, 1), core.vector([ZERO], [-0.0]), core.zero_vector(0, 3)}) == 2

    def test_equal_to_itself_with_nan(self):
        v = core.vector([(math.nan, 1.0)], [])
        assert v == v

    def test_repr_unchanged(self):
        v = core.vector([DualNumber(1.0, 2.0)], [3.0])
        assert repr(v) == "DualVector(head=(DualNumber(re=1.0, ze=2.0),), tail=(3.0,))"
        assert repr(core.zero_vector(0, 0)) == "DualVector(head=(), tail=())"

    def test_assignment_raises_frozen_instance_error(self):
        v = core.vector([ONE], [1.0])
        for name in ("head", "tail", "array", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del v.head
        assert v == core.vector([ONE], [1.0])

    def test_stored_array_is_read_only(self):
        v = core.vector([DualNumber(1.0, 2.0)], [3.0])
        assert not v.array.flags.writeable
        with pytest.raises(ValueError):
            v.array[0] = 9.0
        for w in (v + v, -v, core.scalar_mul(2.0, v), core.sharp_action(v), unrealify([1.0, 2.0, 3.0], 1, 1)):
            assert not w.array.flags.writeable

    def test_realify_returns_a_writable_copy(self):
        v = core.vector([DualNumber(1.0, 2.0)], [3.0])
        r = realify(v)
        assert r.flags.writeable and not np.shares_memory(r, v.array)
        r[:] = 0.0
        assert v.array.tolist() == [1.0, 2.0, 3.0]

    def test_unrealify_does_not_alias_its_input(self):
        src = np.array([1.0, 2.0, 3.0])
        v = unrealify(src, 1, 1)
        assert not np.shares_memory(src, v.array)
        src[:] = 0.0
        assert v.array.tolist() == [1.0, 2.0, 3.0]
        assert src.flags.writeable

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_round_trip(self, clone):
        v = core.vector([DualNumber(1.0, -0.0), DualNumber(0.5, 2.0)], [-3.0])
        w = clone(v)
        assert type(w) is DualVector and w == v and w.shape == v.shape
        assert w.array.tobytes() == v.array.tobytes()
        assert not w.array.flags.writeable
        assert w.head == v.head and w.tail == v.tail

    def test_ops_match_boxed_arithmetic(self):
        # the array ops do the float operations of the DualNumber formulas
        rng = np.random.default_rng(47)
        for _ in range(100):
            x = core.vector([rand_dual(rng) for _ in range(3)], rng.uniform(-1, 1, 2))
            y = core.vector([rand_dual(rng) for _ in range(3)], rng.uniform(-1, 1, 2))
            a = rand_dual(rng)
            cases = [
                (x + y, [h + k for h, k in zip(x.head, y.head)], [r + t for r, t in zip(x.tail, y.tail)]),
                (x - y, [h - k for h, k in zip(x.head, y.head)], [r - t for r, t in zip(x.tail, y.tail)]),
                (-x, [-h for h in x.head], [-r for r in x.tail]),
                (core.scalar_mul(a, x), [core.mul(a, h) for h in x.head], [a.re * r for r in x.tail]),
                (core.sharp_action(x), [DualNumber(0.0, h.re) for h in x.head], [0.0, 0.0]),
            ]
            for got, head, tail in cases:
                want = [h.re for h in head] + [h.ze for h in head] + tail
                assert got.array.tobytes() == np.array(want).tobytes()

    def test_inner_keeps_its_summation_order(self):
        # core.row_norms reproduces vector_norm bit for bit on arrays
        rng = np.random.default_rng(53)
        for _ in range(200):
            n, m = rng.integers(0, 4, size=2)
            vals = rng.normal(size=2 * n + m) * 10.0 ** rng.integers(-8, 9, size=2 * n + m)
            v = unrealify(vals, n, m)
            acc = 0.0
            for h in v.head:
                acc += 2.0 * h.re * h.re + h.ze * h.ze
            for r in v.tail:
                acc += r * r
            assert core.inner(v, v) == acc
            assert core.vector_norm(v) == math.sqrt(acc) == core.row_norms(v.array[None], n)[0]

    def test_norms_of_large_rows_scale_exactly(self):
        # above 2**500 a row is divided by a power of two before its squares
        # are summed, which is exact: the norms scale with the rows and a
        # row's norm does not depend on the others in its array
        rng = np.random.default_rng(54)
        for _ in range(50):
            n, m = rng.integers(0, 4, size=2)
            rows = rng.normal(size=(3, 2 * n + m)) * 10.0 ** rng.integers(-8, 9, size=(3, 2 * n + m))
            norms = core.row_norms(rows, n)
            assert core.row_norms(rows * 2.0**700, n).tolist() == (norms * 2.0**700).tolist()
            mixed = np.vstack([rows, np.full(2 * n + m, 1e300)])
            assert core.row_norms(mixed, n)[:3].tolist() == norms.tolist()
        assert core.vector_norm(core.vector([(1e200, 0.0)], [])) == pytest.approx(2.0**0.5 * 1e200)
        assert core.vector_norm(core.vector([(1e300, 1e300)], [1e300])) == pytest.approx(2e300)

    def test_norms_of_tiny_rows_scale_exactly(self):
        # below 2**-501 a row is multiplied by a power of two before its
        # squares are summed, so squares that would underflow (all of
        # [1e-170, 0], whose norm read 0.0) keep every bit
        for n in (0, 1):
            rows = np.array([[1e-170, 0.0]])
            want = core.row_norms(rows * 2.0**600, n) * 2.0**-600
            assert core.row_norms(rows, n).tobytes() == want.tobytes() and want[0] >= 1e-170
        rng = np.random.default_rng(55)
        for _ in range(50):
            n, m = rng.integers(0, 4, size=2)
            rows = rng.normal(size=(3, 2 * n + m)) * 10.0 ** rng.integers(-8, 9, size=(3, 2 * n + m))
            norms = core.row_norms(rows, n)
            assert core.row_norms(rows * 2.0**-700, n).tolist() == (norms * 2.0**-700).tolist()
            # a tiny row and a zero row leave the others' floats as they were
            mixed = np.vstack([rows, np.full(2 * n + m, 1e-300), np.zeros(2 * n + m)])
            assert core.row_norms(mixed, n).tolist() == norms.tolist() + [core.row_norms(mixed[3], n), 0.0]
        assert core.vector_norm(core.vector([(1e-200, 0.0)], [])) == pytest.approx(2.0**0.5 * 1e-200)
        assert core.vector_norm(core.vector([], [5e-324])) == 5e-324

    def test_entry_replacement(self):
        v = core.vector([ONE, EPS], [1.0, 2.0])
        assert core.with_head_entry(v, -1, DualNumber(3.0, 4.0)) == core.vector([ONE, (3.0, 4.0)], [1.0, 2.0])
        assert core.with_tail_entry(v, 0, 5.0) == core.vector([ONE, EPS], [5.0, 2.0])
        with pytest.raises(IndexError):
            core.with_head_entry(v, 2, ONE)
        with pytest.raises(IndexError):
            core.with_tail_entry(v, -3, 0.0)
        assert v == core.vector([ONE, EPS], [1.0, 2.0])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(), st.floats()), max_size=4),
        st.lists(st.floats(), max_size=4),
    )
    def test_realify_round_trip_is_bit_exact(self, head, tail):
        v = core.vector(head, tail)
        w = unrealify(realify(v), v.n, v.m)
        assert w.shape == v.shape
        assert w.array.tobytes() == v.array.tobytes()  # -0.0 and NaN payloads too
        assert w == v or any(math.isnan(x) for x in v.array)
