import numpy as np
import pytest

from dualmod.core import (
    EPS,
    ONE,
    DualNumber,
    ShapeMismatch,
    basis_vector,
    inv,
    scalar_mul,
    standard_basis,
    vector,
)
from dualmod.symplectic import (
    DarbouxBasis,
    EmptyShape,
    FormInvalid,
    GramForm,
    NumericalBreakdown,
    check_form,
    darboux_basis,
    eval_form,
    random_form,
    standard_form,
    verify_darboux,
)


def dn(re, ze=0.0):
    return DualNumber(re, ze)


class TestGramForm:
    def test_shape_guard(self):
        with pytest.raises(FormInvalid):
            GramForm(1, 1, np.zeros((2, 2)), np.zeros((3, 3)))

    def test_empty_rejected(self):
        with pytest.raises(EmptyShape):
            GramForm(0, 0, np.zeros((0, 0)), np.zeros((0, 0)))

    def test_json_round_trip(self):
        form = standard_form(1, 1)
        again = GramForm.from_json(form.to_json())
        assert np.array_equal(again.g_re, form.g_re)
        assert np.array_equal(again.g_ze, form.g_ze)
        assert again.shape == (2, 2)

    def test_json_errors(self):
        with pytest.raises(FormInvalid):
            GramForm.from_json({"N": 1, "M": 1})
        with pytest.raises(FormInvalid):
            GramForm.from_json({"N": 1, "M": 0, "G": [[0.0]]})
        with pytest.raises(FormInvalid):
            GramForm.from_json([1, 2, 3])
        for shape in ({"N": 2.6}, {"N": 2.0}, {"M": 2.0}):
            with pytest.raises(FormInvalid):
                GramForm.from_json(dict(standard_form(1, 1).to_json(), **shape))


class TestEvalForm:
    def test_standard_head_pair(self):
        form = standard_form(1, 0)
        e0, e1 = standard_basis(2, 0)
        assert eval_form(form, e0, e1) == ONE
        assert eval_form(form, e1, e0) == -ONE
        assert eval_form(form, e0, e0) == DualNumber(0.0, 0.0)

    def test_standard_tail_pair(self):
        form = standard_form(1, 1)
        f0, f1 = basis_vector(2, 2, 2), basis_vector(2, 2, 3)
        assert eval_form(form, f0, f1) == EPS
        assert eval_form(form, f1, f0) == -EPS
        e0 = basis_vector(2, 2, 0)
        assert eval_form(form, e0, f0) == DualNumber(0.0, 0.0)

    def test_frozen_bilinear_value(self):
        form = standard_form(1, 0)
        v = vector([dn(1, 2), dn(3, 4)], [])
        w = vector([dn(5, 6), dn(7, 8)], [])
        # v0 w1 - v1 w0 computed in the algebra
        assert eval_form(form, v, w) == DualNumber(-8.0, -16.0)

    def test_scaling_in_first_slot(self):
        rng = np.random.default_rng(5)
        form = random_form(1, 1, seed=9)
        for _ in range(25):
            v = vector(
                [dn(*rng.uniform(-2, 2, 2)) for _ in range(2)],
                rng.uniform(-2, 2, 2),
            )
            w = vector(
                [dn(*rng.uniform(-2, 2, 2)) for _ in range(2)],
                rng.uniform(-2, 2, 2),
            )
            a = dn(*rng.uniform(-2, 2, 2))
            left = eval_form(form, scalar_mul(a, v), w)
            right = a * eval_form(form, v, w)
            assert abs(left.re - right.re) <= 1e-12 * (1 + abs(right.re))
            assert abs(left.ze - right.ze) <= 1e-12 * (1 + abs(right.ze))

    def test_shape_mismatch(self):
        form = standard_form(1, 0)
        with pytest.raises(ShapeMismatch):
            eval_form(form, basis_vector(1, 0, 0), basis_vector(1, 0, 0))


class TestCheckForm:
    def test_standard_passes(self):
        for n, m in [(1, 0), (0, 1), (1, 1), (2, 2)]:
            report = check_form(standard_form(n, m))
            assert report.passed, report.to_json()

    def test_random_passes(self):
        for seed in range(5):
            report = check_form(random_form(2, 1, seed=seed))
            assert report.passed, report.to_json()

    def test_asymmetric_rejected(self):
        form = standard_form(1, 0)
        g_re = form.g_re.copy()
        g_re[1, 0] = 1.0  # should be -1
        report = check_form(GramForm(2, 0, g_re, form.g_ze))
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "antisymmetric" in failed

    def test_impure_tail_row_rejected(self):
        form = standard_form(1, 1)
        g_re = form.g_re.copy()
        g_re[0, 2] = 0.5
        g_re[2, 0] = -0.5
        report = check_form(GramForm(2, 2, g_re, form.g_ze))
        failed = {c.name for c in report.checks if not c.passed}
        assert "tail_rows_pure" in failed

    def test_dead_head_block_rejected(self):
        form = standard_form(1, 1)
        report = check_form(GramForm(2, 2, np.zeros((4, 4)), form.g_ze))
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"head_block_nondegenerate"}
        witness = next(
            c.witness for c in report.checks if c.name == "head_block_nondegenerate"
        )
        assert witness is not None and len(witness) == 2

    def test_dead_kernel_pairing_rejected(self):
        form = standard_form(1, 1)
        g_ze = form.g_ze.copy()
        g_ze[2:, 2:] = 0.0
        report = check_form(GramForm(2, 2, form.g_re, g_ze))
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"kernel_pairing_nondegenerate"}

    def test_odd_dimensions_rejected(self):
        # one head slot: a nonzero antisymmetric 1x1 block cannot exist
        g_ze = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        report = check_form(GramForm(1, 2, np.zeros((3, 3)), g_ze))
        failed = {c.name for c in report.checks if not c.passed}
        assert "head_block_nondegenerate" in failed
        # one tail slot: same parity obstruction on the kernel pairing
        g_re = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        report = check_form(GramForm(2, 1, g_re, np.zeros((3, 3))))
        failed = {c.name for c in report.checks if not c.passed}
        assert "kernel_pairing_nondegenerate" in failed

    def test_report_json(self):
        data = check_form(standard_form(1, 1)).to_json()
        assert data["passed"] is True
        assert data["shape"] == [2, 2]
        assert len(data["checks"]) == 4


class TestBlockOracle:
    """The two nondegeneracy checks must agree with pairing matrices built
    point by point through eval_form."""

    @pytest.mark.parametrize("seed", range(6))
    def test_head_pairing_rank(self, seed):
        form = random_form(2, 1, seed=seed)
        n = form.n
        heads = standard_basis(n, form.m)[:n]
        mat = np.array(
            [[eval_form(form, a, b).re for b in heads] for a in heads]
        )
        sv = np.linalg.svd(mat, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_pairing_rank(self, seed):
        form = random_form(2, 1, seed=seed)
        n, m = form.shape
        # kernel directions: eps times each head slot, plus every tail slot
        kers = [
            vector([DualNumber(0.0, 1.0) if i == k else DualNumber(0.0, 0.0) for i in range(n)], [0.0] * m)
            for k in range(n)
        ] + [basis_vector(n, m, n + j) for j in range(m)]
        mat = np.array(
            [[eval_form(form, a, b).ze for b in kers] for a in kers]
        )
        # eps-head rows pair to zero with everything in the kernel
        assert np.abs(mat[:n, :]).max() <= 1e-12
        rank = np.linalg.matrix_rank(mat, tol=1e-8 * max(1.0, np.abs(mat).max()))
        assert rank == m

    def test_degenerate_flagged_by_both_routes(self):
        form = standard_form(1, 1)
        g_ze = form.g_ze.copy()
        g_ze[2:, 2:] = 0.0
        broken = GramForm(2, 2, form.g_re, g_ze)
        assert not check_form(broken).passed
        kers = [basis_vector(2, 2, 2), basis_vector(2, 2, 3)]
        mat = np.array([[eval_form(broken, a, b).ze for b in kers] for a in kers])
        assert np.abs(mat).max() == 0.0


class TestDarboux:
    def test_hand_normalization(self):
        # single head pair with pairing 2 + eps
        g_re = np.array([[0.0, 2.0], [-2.0, 0.0]])
        g_ze = np.array([[0.0, 1.0], [-1.0, 0.0]])
        form = GramForm(2, 0, g_re, g_ze)
        basis = darboux_basis(form)
        assert len(basis.pairs_head) == 1 and not basis.pairs_tail
        e, f = basis.pairs_head[0]
        assert e == basis_vector(2, 0, 0)
        expected = scalar_mul(inv(DualNumber(2.0, 1.0)), basis_vector(2, 0, 1))
        assert f == expected
        got = eval_form(form, e, f)
        assert abs(got.re - 1.0) <= 1e-15 and abs(got.ze) <= 1e-15

    def test_standard_form_echoes_standard_basis(self):
        # on the reference form the extraction has nothing to fix up, so it
        # should hand back the standard basis vectors untouched
        basis = darboux_basis(standard_form(1, 1))
        assert basis.pairs_head == (
            (basis_vector(2, 2, 0), basis_vector(2, 2, 1)),
        )
        assert basis.pairs_tail == (
            (basis_vector(2, 2, 2), basis_vector(2, 2, 3)),
        )

    def test_standard_forms_round_trip(self):
        for n, m in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            form = standard_form(n, m)
            basis = darboux_basis(form)
            assert len(basis.pairs_head) == n
            assert len(basis.pairs_tail) == m
            report = verify_darboux(basis, form)
            assert report.passed, report.to_json()

    @pytest.mark.parametrize(
        "shape", [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3), (6, 0), (0, 6)]
    )
    def test_random_forms_round_trip(self, shape):
        n, m = shape
        for seed in range(4):
            form = random_form(n, m, seed=seed)
            basis = darboux_basis(form)
            assert len(basis.pairs_head) == n
            assert len(basis.pairs_tail) == m
            report = verify_darboux(basis, form)
            assert report.passed, report.to_json()

    def test_dead_head_block_breaks(self):
        form = standard_form(1, 1)
        broken = GramForm(2, 2, np.zeros((4, 4)), form.g_ze)
        with pytest.raises(NumericalBreakdown):
            darboux_basis(broken)

    def test_dead_kernel_pairing_breaks(self):
        form = standard_form(1, 1)
        g_ze = form.g_ze.copy()
        g_ze[2:, 2:] = 0.0
        with pytest.raises(NumericalBreakdown):
            darboux_basis(GramForm(2, 2, form.g_re, g_ze))

    def test_verify_rejects_unnormalized(self):
        form = standard_form(1, 1)
        basis = darboux_basis(form)
        e, f = basis.pairs_head[0]
        tampered = DarbouxBasis(
            ((e, scalar_mul(DualNumber(2.0, 0.0), f)),), basis.pairs_tail
        )
        report = verify_darboux(tampered, form)
        assert not report.passed
        assert report.pairing_residual >= 0.5

    def test_verify_rejects_duplicates(self):
        form = standard_form(1, 1)
        basis = darboux_basis(form)
        u, v = basis.pairs_tail[0]
        tampered = DarbouxBasis(basis.pairs_head, ((u, u),))
        report = verify_darboux(tampered, form)
        assert not report.passed
        assert not report.independent or report.pairing_residual > 0.5

    def test_basis_json_round_trip(self):
        form = random_form(1, 1, seed=3)
        basis = darboux_basis(form)
        again = DarbouxBasis.from_json(basis.to_json())
        assert again == basis
        with pytest.raises(ValueError):
            DarbouxBasis.from_json({"pairs_head": []})
