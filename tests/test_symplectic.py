import sys
import warnings

import numpy as np
import pytest

from dualmod.core import (
    EPS,
    ONE,
    ZERO,
    DualNumber,
    ShapeMismatch,
    basis_vector,
    inv,
    scalar_mul,
    standard_basis,
    vector,
)
from dualmod.sampling import random_automorphism, rng_from
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


def form_scale(form):
    return 1.0 + max(np.abs(form.g_re).max(), np.abs(form.g_ze).max())


def pairing_residual_oracle(basis, form):
    """verify_darboux's pairing residual, one eval_form call per pair."""
    vecs = basis.vectors()
    heads = 2 * len(basis.pairs_head)
    worst = 0.0
    for a, v in enumerate(vecs):
        for b, w in enumerate(vecs):
            expected = ZERO
            if a // 2 == b // 2 and a != b:
                expected = (ONE if min(a, b) < heads else EPS) * (1.0 if b == a + 1 else -1.0)
            got = eval_form(form, v, w)
            worst = max(worst, abs(got.re - expected.re), abs(got.ze - expected.ze))
    return worst


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

    def test_value_equality_and_hash(self):
        form = standard_form(1, 1)
        again = GramForm.from_json(form.to_json())
        assert again == form and hash(again) == hash(form)
        assert form != standard_form(2, 0) and form != standard_form(0, 2)
        negated = GramForm(1, 0, np.array([[-0.0]]), np.zeros((1, 1)))
        assert negated == GramForm(1, 0, np.zeros((1, 1)), np.zeros((1, 1)))
        assert hash(negated) == hash(GramForm(1, 0, np.zeros((1, 1)), np.zeros((1, 1))))

    @pytest.mark.parametrize("size", [2.0, True, -1])
    def test_sizes_must_be_nonnegative_integers(self, size):
        blocks = standard_form(1, 0)
        for form in (
            lambda: GramForm(size, 0, blocks.g_re, blocks.g_ze),
            lambda: GramForm(size, size, np.zeros((2, 2)), np.zeros((2, 2))),
            lambda: standard_form(size, 0),
        ):
            with pytest.raises(FormInvalid, match="n must be a nonnegative integer"):
                form()

    def test_non_finite_rejected(self):
        form = standard_form(1, 1)
        for name in ("g_re", "g_ze"):
            for bad in (np.nan, np.inf, -np.inf):
                parts = {"g_re": form.g_re.copy(), "g_ze": form.g_ze.copy()}
                parts[name][0, 1] = bad
                with pytest.raises(FormInvalid, match="non-finite"):
                    GramForm(2, 2, parts["g_re"], parts["g_ze"])

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

    def test_small_asymmetric_form_rejected(self):
        # antisymmetry is judged at the form's own scale, not against 1e-9
        form = GramForm(2, 0, [[0.0, 1e-20], [3e-20, 0.0]], np.zeros((2, 2)))
        report = check_form(form)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"antisymmetric"}
        assert report.checks[0].residual == 1e-20 + 3e-20

    @pytest.mark.parametrize("k", [-300, -100, -30, -1, 1, 30, 100, 300])
    def test_scaled_forms_keep_their_verdicts(self, k):
        forms = [random_form(2, 1, seed=3), standard_form(1, 1)]
        for defect in (5e-10, 2e-9):  # within and beyond tol = 1e-9 of the largest entry
            form = standard_form(1, 1)
            g_re, g_ze = form.g_re.copy(), form.g_ze.copy()
            g_re[1, 0] += defect  # antisymmetry
            forms.append(GramForm(2, 2, g_re, g_ze))
            g_re = form.g_re.copy()
            g_re[0, 2] = defect  # tail purity
            forms.append(GramForm(2, 2, g_re, g_ze))
        for form in forms:
            want = [(c.name, c.passed) for c in check_form(form).checks]
            scaled = GramForm(form.n, form.m, form.g_re * 2.0**k, form.g_ze * 2.0**k)
            assert [(c.name, c.passed) for c in check_form(scaled).checks] == want, k
        assert {c.passed for f in forms[2:] for c in check_form(f).checks[:2]} == {True, False}

    def test_report_json(self):
        data = check_form(standard_form(1, 1)).to_json()
        assert data["passed"] is True
        assert data["shape"] == [2, 2]
        assert len(data["checks"]) == 4


class TestNearFloatLimit:
    """Gram entries near the largest float: sums and squares overflow."""

    BIG = 1.7e308

    def test_antisymmetry_residual_saturates(self):
        g_re = np.array([[0.0, self.BIG], [self.BIG, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_form(GramForm(2, 0, g_re, np.zeros((2, 2))))
        anti = report.checks[0]
        assert anti.name == "antisymmetric" and not anti.passed
        assert anti.residual == sys.float_info.max

    def test_overflowing_dual_inverse_breaks_down(self):
        # a pairing of 1e-320: its dual inverse, the member f, overflows
        tiny = np.array([[0.0, 1e-320], [-1e-320, 0.0]])
        form = GramForm(2, 0, tiny, tiny)
        assert check_form(form).passed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdown, match="overflows"):
                darboux_basis(form)

    def test_pairing_near_the_largest_float_verifies(self):
        # the pairing runs on the form scaled to unit size, so the square of
        # a pairing near the float limit is never formed; f is subnormal
        big = np.array([[0.0, self.BIG], [-self.BIG, 0.0]])
        form = GramForm(2, 0, big, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = darboux_basis(form)
            assert verify_darboux(basis, form).passed
        (_, f), = basis.pairs_head
        assert 0.0 < abs(f.head[1].re) < sys.float_info.min


class TestRandomForm:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_eval_form_gram(self, seed):
        for total in range(1, 7):
            for a in range(total + 1):
                n, m = 2 * a, 2 * (total - a)
                form = random_form(a, total - a, seed=seed)
                auto = random_automorphism(rng_from(seed), n, m)  # random_form's draw
                # images of the standard basis, read off the map's blocks
                images = [
                    vector(list(zip(auto.c_re[:, k], auto.c_ze[:, k])), auto.d[:, k])
                    for k in range(n)
                ] + [
                    vector([dn(0.0, z) for z in auto.p[:, j]], auto.q[:, j])
                    for j in range(m)
                ]
                base = standard_form(a, total - a)
                want = [[eval_form(base, v, w) for w in images] for v in images]
                want_re = np.array([[x.re for x in row] for row in want])
                want_ze = np.array([[x.ze for x in row] for row in want])
                bound = 1e-14 * form_scale(form)
                assert np.abs(form.g_re - want_re).max() <= bound
                assert np.abs(form.g_ze - want_ze).max() <= bound


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

    @pytest.mark.parametrize("shape", [(1, 0), (1, 1), (2, 1), (0, 2), (3, 2)])
    def test_scaled_forms_round_trip(self, shape):
        # scaling by a power of two is exact, so the scaled form is valid
        # and its pair basis must verify at any scale; the pairing runs at
        # one scale, so each e is the same and each f scales by 2**-k
        n, m = shape
        for seed in range(3):
            form = random_form(n, m, seed=seed)
            want = darboux_basis(form)
            for k in (-300, -100, -30, 0, 30, 40, 100, 300, 330):
                scaled = GramForm(form.n, form.m, form.g_re * 2.0**k, form.g_ze * 2.0**k)
                assert check_form(scaled).passed
                basis = darboux_basis(scaled)
                report = verify_darboux(basis, scaled)
                assert report.passed, (seed, k, report.to_json())
                for (e, f), (e0, f0) in zip(basis.pairs_head + basis.pairs_tail, want.pairs_head + want.pairs_tail):
                    assert e.array.tobytes() == e0.array.tobytes(), (seed, k)
                    assert f.array.tobytes() == (f0.array * 2.0**-k).tobytes(), (seed, k)

    def test_zero_member_stays_dependent(self):
        form = standard_form(1, 1)
        basis = darboux_basis(form)
        (e, _), pair = basis.pairs_head[0], basis.pairs_tail[0]
        zero = vector([ZERO, ZERO], [0.0, 0.0])
        report = verify_darboux(DarbouxBasis(((e, zero),), (pair,)), form)
        assert not report.independent and not report.complete

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

    def test_pairing_residual_matches_eval_form(self):
        bases = []
        for shape, seed in (((1, 1), 0), ((2, 1), 1), ((0, 3), 2), ((3, 0), 3)):
            form = random_form(*shape, seed=seed)
            bases.append((darboux_basis(form), form))
        form = standard_form(1, 1)
        basis = darboux_basis(form)
        (e, f), (u, _) = basis.pairs_head[0], basis.pairs_tail[0]
        bases.append((DarbouxBasis(((e, scalar_mul(dn(2.0), f)),), basis.pairs_tail), form))
        bases.append((DarbouxBasis(basis.pairs_head, ((u, u),)), form))
        for basis, form in bases:
            got = verify_darboux(basis, form).pairing_residual
            assert abs(got - pairing_residual_oracle(basis, form)) <= 1e-14 * form_scale(form)
        wrong = DarbouxBasis(basis.pairs_head, ((u, basis_vector(2, 1, 2)),))
        with pytest.raises(ShapeMismatch):
            verify_darboux(wrong, form)

    def test_verify_rejects_non_finite(self):
        form = standard_form(1, 1)
        basis = darboux_basis(form)
        (e, f), (u, v) = basis.pairs_head[0], basis.pairs_tail[0]
        for bad in (np.nan, np.inf):
            for tampered in (
                DarbouxBasis(((vector([dn(1.0, bad), dn(0.0)], [0.0, 0.0]), f),), basis.pairs_tail),
                DarbouxBasis(((e, vector([dn(0.0), dn(bad)], [0.0, 0.0])),), basis.pairs_tail),
                DarbouxBasis(basis.pairs_head, ((u, vector([dn(0.0), dn(0.0)], [bad, 1.0])),)),
            ):
                report = verify_darboux(tampered, form)
                assert not report.passed
                assert not report.pairing_residual <= 1e-9 * form_scale(form)
                assert not report.independent and not report.complete

    def test_basis_json_round_trip(self):
        form = random_form(1, 1, seed=3)
        basis = darboux_basis(form)
        again = DarbouxBasis.from_json(basis.to_json())
        assert again == basis
        with pytest.raises(ValueError):
            DarbouxBasis.from_json({"pairs_head": []})
