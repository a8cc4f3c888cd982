import numpy as np
import pytest

from dualmod import core, linalg
from dualmod.core import EPS, ONE, ZERO, DualNumber, DualVector, ShapeMismatch
from dualmod.linalg import ModuleMap, NoSolution, NotInKer, SplitBasis


def rand_dual(rng, lo=-1.0, hi=1.0):
    return DualNumber(rng.uniform(lo, hi), rng.uniform(lo, hi))


def rand_vector(rng, n, m, lo=-2.0, hi=2.0):
    return core.vector(
        [rand_dual(rng, lo, hi) for _ in range(n)],
        [rng.uniform(lo, hi) for _ in range(m)],
    )


def rand_map(rng, domain, codomain, scale=1.0):
    n, m = domain
    s, t = codomain
    u = lambda *shape: rng.uniform(-scale, scale, size=shape)
    return ModuleMap(n, m, s, t, u(s, n), u(s, n), u(s, m), u(t, n), u(t, m))


def apply_dual(lam, v):
    """The map applied entry by entry in dual arithmetic: an oracle that
    shares no code with the realified product in apply."""
    head = []
    for k in range(lam.s):
        acc = ZERO
        for i in range(lam.n):
            acc = acc + core.mul(v.head[i], lam.head_entry(k, i))
        z = 0.0
        for j in range(lam.m):
            z += lam.p[k, j] * v.tail[j]
        head.append(DualNumber(acc.re, acc.ze + z))
    tail = []
    for l in range(lam.t):
        r = 0.0
        for i in range(lam.n):
            r += lam.d[l, i] * v.head[i].re
        for j in range(lam.m):
            r += lam.q[l, j] * v.tail[j]
        tail.append(r)
    return DualVector(tuple(head), tuple(tail))


def rank_oracle(vectors, tol=1e-9):
    """Real rank of a family of realified vectors."""
    rows = [linalg.realify(v) for v in vectors]
    if not rows:
        return 0
    mat = np.vstack(rows)
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def dim_oracle(generators):
    """Split dimension via realification ranks, independent of elimination."""
    sharped = [core.sharp_action(g) for g in generators]
    a = rank_oracle(sharped)
    total = rank_oracle(list(generators) + sharped)
    return (a, total - 2 * a)


class TestRealify:
    def test_basis_examples(self):
        e1 = core.basis_vector(1, 1, 0)
        assert linalg.realify(e1).tolist() == [1.0, 0.0, 0.0]
        assert linalg.realify(core.sharp_action(e1)).tolist() == [0.0, 1.0, 0.0]
        t1 = core.basis_vector(1, 1, 1)
        assert linalg.realify(t1).tolist() == [0.0, 0.0, 1.0]

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rand_vector(rng, 3, 2)
            assert linalg.unrealify(linalg.realify(v), 3, 2) == v

    def test_linear_over_reals(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v, w = rand_vector(rng, 2, 2), rand_vector(rng, 2, 2)
            a = rng.uniform(-2, 2)
            lhs = linalg.realify(core.scalar_mul(a, v) + w)
            rhs = a * linalg.realify(v) + linalg.realify(w)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dual_scaling_matches_doubling(self):
        # scaling by a dual c acts as re(c) I + ze(c) * (eps block)
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rand_vector(rng, 2, 1)
            c = rand_dual(rng)
            lhs = linalg.realify(core.scalar_mul(c, v))
            rhs = c.re * linalg.realify(v) + c.ze * linalg.realify(
                core.sharp_action(v)
            )
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestModuleMap:
    def test_scalar_map_realifies_as_lower_triangular(self):
        lam = ModuleMap.scalar(1, 0, DualNumber(2.0, 3.0))
        assert linalg.realify_map(lam).tolist() == [[2.0, 0.0], [3.0, 2.0]]

    def test_apply_matches_realified(self):
        # an entry sums at most 8 products of size <= 2 in another order
        bound = 8 * 16 * np.finfo(float).eps
        rng = np.random.default_rng(11)
        for _ in range(200):
            lam = rand_map(rng, (3, 2), (2, 2))
            v = rand_vector(rng, 3, 2)
            lhs = linalg.realify(linalg.apply(lam, v))
            rhs = linalg.realify(apply_dual(lam, v))
            assert np.abs(lhs - rhs).max() <= bound

    def test_commutes_with_eps(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            lam = rand_map(rng, (2, 2), (3, 1))
            v = rand_vector(rng, 2, 2)
            lhs = linalg.apply(lam, core.sharp_action(v))
            rhs = core.sharp_action(linalg.apply(lam, v))
            assert np.allclose(
                linalg.realify(lhs), linalg.realify(rhs), atol=1e-10
            )

    def test_additive_and_homogeneous(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            lam = rand_map(rng, (2, 1), (2, 1))
            v, w = rand_vector(rng, 2, 1), rand_vector(rng, 2, 1)
            a = rand_dual(rng)
            lhs = linalg.apply(lam, core.scalar_mul(a, v) + w)
            rhs = core.scalar_mul(a, linalg.apply(lam, v)) + linalg.apply(lam, w)
            assert np.allclose(
                linalg.realify(lhs), linalg.realify(rhs), atol=1e-10
            )

    def test_compose_matches_two_step(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            f = rand_map(rng, (2, 2), (3, 1))
            g = rand_map(rng, (3, 1), (2, 2))
            gf = linalg.compose(g, f)
            v = rand_vector(rng, 2, 2)
            lhs = linalg.apply(gf, v)
            rhs = linalg.apply(g, linalg.apply(f, v))
            assert np.allclose(
                linalg.realify(lhs), linalg.realify(rhs), atol=1e-9
            )

    def test_compose_shape_mismatch(self):
        f = ModuleMap.identity(2, 1)
        g = ModuleMap.identity(1, 1)
        with pytest.raises(ShapeMismatch):
            linalg.compose(g, f)

    def test_from_basis_images_roundtrip(self):
        rng = np.random.default_rng(23)
        lam = rand_map(rng, (2, 2), (3, 2))
        heads = [
            linalg.apply(lam, core.basis_vector(2, 2, k)) for k in range(2)
        ]
        tails = [
            linalg.apply(lam, core.basis_vector(2, 2, 2 + j)) for j in range(2)
        ]
        rebuilt = ModuleMap.from_basis_images(heads, tails)
        assert np.allclose(
            linalg.realify_map(rebuilt), linalg.realify_map(lam), atol=1e-12
        )

    def test_from_basis_images_rejects_bad_tail(self):
        with pytest.raises(NotInKer):
            ModuleMap.from_basis_images([], [core.basis_vector(1, 0, 0)])

    def test_json_roundtrip(self):
        rng = np.random.default_rng(29)
        lam = rand_map(rng, (2, 1), (1, 2))
        data = lam.to_json()
        back = ModuleMap.from_json(data)
        assert np.allclose(
            linalg.realify_map(back), linalg.realify_map(lam), atol=0
        )

    def test_json_schema_error(self):
        with pytest.raises(ValueError):
            ModuleMap.from_json({"n": 1, "m": 0, "s": 1, "t": 0, "C": []})
        data = ModuleMap.scalar(1, 0, DualNumber(2.0, 0.0)).to_json()
        for shape in ({"n": 1.5, "s": 1.9}, {"n": 1.0}, {"m": False}):
            with pytest.raises(ValueError):
                ModuleMap.from_json(dict(data, **shape))

    def test_value_equality_and_hash(self):
        rng = np.random.default_rng(31)
        lam = rand_map(rng, (2, 1), (1, 2))
        back = ModuleMap.from_json(lam.to_json())
        assert back == lam and hash(back) == hash(lam)
        assert ModuleMap.identity(2, 1) == ModuleMap.identity(2, 1)
        assert len({ModuleMap.identity(2, 1), ModuleMap.identity(2, 1)}) == 1
        # -0.0 equals 0.0, so the hashes agree too
        negated = ModuleMap.scalar(1, 1, DualNumber(-0.0, 0.0))
        assert negated == ModuleMap.zero((1, 1), (1, 1))
        assert hash(negated) == hash(ModuleMap.zero((1, 1), (1, 1)))
        # same entries (none), different shapes
        assert ModuleMap.zero((0, 2), (0, 0)) != ModuleMap.zero((0, 0), (0, 2))
        assert ModuleMap.identity(1, 0) != ModuleMap.identity(0, 1)
        assert ModuleMap.identity(1, 0) != "not a map"

    def test_shape_must_be_nonnegative_integers(self):
        z = np.zeros((0, 0))
        for n, m in ((-1, 0), (0, -1), (1.0, 0), (True, 0)):
            with pytest.raises(ValueError):
                ModuleMap(n, m, 0, 0, z, z, z, z, z)
        lam = ModuleMap(np.int64(1), 0, 1, 0, [[2.0]], [[0.0]], z, z, z)
        assert type(lam.n) is int and lam == ModuleMap.scalar(1, 0, DualNumber(2.0, 0.0))


class TestIndependence:
    def test_dependent_pair_example(self):
        e1 = core.basis_vector(1, 0, 0)
        eps_e1 = core.sharp_action(e1)
        # (-eps) * e1 + 1 * (eps e1) = 0
        assert not linalg.is_independent([e1], [eps_e1])

    def test_standard_basis_independent(self):
        for n, m in [(1, 0), (0, 1), (2, 1), (3, 2)]:
            basis = core.standard_basis(n, m)
            assert linalg.is_independent(basis[:n], basis[n:])

    def test_s2_must_be_in_kernel(self):
        with pytest.raises(NotInKer):
            linalg.is_independent([], [core.basis_vector(1, 0, 0)])

    def test_empty_family(self):
        assert linalg.is_independent([], [])

    def test_matches_realified_rank(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            k1, k2 = rng.integers(0, 3), rng.integers(0, 3)
            s1 = [rand_vector(rng, 2, 2) for _ in range(k1)]
            s2 = []
            for _ in range(k2):
                v = rand_vector(rng, 2, 2)
                s2.append(
                    DualVector(
                        tuple(DualNumber(0.0, h.ze) for h in v.head), v.tail
                    )
                )
            rows = (
                s1
                + [core.sharp_action(v) for v in s1]
                + s2
            )
            expected = rank_oracle(rows) == len(rows)
            assert linalg.is_independent(s1, s2) == expected


class TestExtractBasis:
    def test_eps_generator_goes_to_s2(self):
        e1 = core.basis_vector(1, 0, 0)
        basis = linalg.extract_basis([core.sharp_action(e1)])
        assert basis.dim == (0, 1)
        assert basis.s2[0] == core.sharp_action(e1)

    def test_redundant_eps_image_absorbed(self):
        e1 = core.basis_vector(1, 0, 0)
        basis = linalg.extract_basis([e1, core.sharp_action(e1)])
        assert basis.dim == (1, 0)
        assert basis.s1[0] == e1

    def test_standard_basis_reproduced(self):
        gens = core.standard_basis(2, 1)
        basis = linalg.extract_basis(gens)
        assert basis.dim == (2, 1)
        assert list(basis.s1) == gens[:2]
        assert list(basis.s2) == gens[2:]

    def test_module_dimension_consistency(self):
        for n in range(5):
            for m in range(5):
                if n + m == 0:
                    continue
                basis = linalg.extract_basis(core.standard_basis(n, m))
                assert basis.dim == (n, m)

    def test_empty_and_zero_generators(self):
        assert linalg.extract_basis([]).dim == (0, 0)
        assert linalg.extract_basis([core.zero_vector(2, 1)]).dim == (0, 0)

    def test_dimensions_match_oracle_random(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            gens = []
            for _ in range(k):
                g = rand_vector(rng, 3, 2)
                roll = rng.uniform()
                if roll < 0.25:
                    g = core.sharp_action(g)
                elif roll < 0.4:
                    g = core.scalar_mul(EPS, g) + core.vector(
                        [ZERO] * 3, [rng.uniform(-1, 1) for _ in range(2)]
                    )
                gens.append(g)
            basis = linalg.extract_basis(gens)
            assert basis.dim == dim_oracle(gens)

    def test_basis_is_independent_and_spans(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            gens = [rand_vector(rng, 3, 2) for _ in range(k)]
            if rng.uniform() < 0.5:
                gens.append(core.sharp_action(gens[0]))
            basis = linalg.extract_basis(gens)
            assert linalg.is_independent(list(basis.s1), list(basis.s2))
            if basis.dim == (0, 0):
                continue
            lam = linalg.basis_map(basis, (3, 2))
            for g in gens:
                v = linalg.solve(lam, g, tol=1e-9)
                resid = core.vector_norm(linalg.apply(lam, v) - g)
                assert resid <= 1e-9 * (1.0 + core.vector_norm(g))

    def test_s2_members_in_kernel(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            gens = [rand_vector(rng, 2, 2) for _ in range(5)]
            basis = linalg.extract_basis(gens)
            for w in basis.s2:
                assert (w.array[: w.n] == 0.0).all()  # in the kernel of eps exactly

    def test_mixed_scale_pivoting(self):
        # a tiny but genuine head entry must still be found
        g1 = core.vector([DualNumber(1e-4, 0.0), ZERO], [1.0])
        g2 = core.vector([ZERO, DualNumber(0.0, 1.0)], [0.0])
        basis = linalg.extract_basis([g1, g2])
        assert basis.dim == (1, 1)


def planted_span(seed, index, kind, n, m):
    """Generators and planted split basis of one benchmark basis task.

    Repeats the numpy draws of the algebra workload's basis tasks for task
    `index` at `seed`: an automorphism with well-conditioned diagonal
    blocks maps r1 head slots (the dual span), k eps-multiplied head slots
    and r2 tail slots (the real span), and random combinations of their
    images are the generators.  Returns the generators, the planted dims,
    and the realified planted span (s1, eps * s1, s2) as columns.
    """
    rng = np.random.default_rng([seed, index])

    def conditioned(size):
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        return q @ np.diag(rng.uniform(0.6, 1.6, size=size))

    if kind == "basis_heads":
        r1, k, r2 = max(1, round(0.75 * n)), round(0.1 * n), round(0.25 * m)
    else:
        r1, k, r2 = round(0.2 * n), round(0.5 * n), max(1, round(0.6 * m))
    c_re = conditioned(n)
    c_ze = rng.uniform(-0.5, 0.5, size=(n, n))
    p = rng.uniform(-0.5, 0.5, size=(n, m))
    d = rng.uniform(-0.5, 0.5, size=(m, n))
    q = conditioned(m)
    auto = linalg.realify_map(ModuleMap(n, m, n, m, c_re, c_ze, p, d, q))
    s1 = auto[:, :r1]
    eps_s1 = auto[:, n : n + r1]
    s2 = np.hstack([auto[:, n + r1 : n + r1 + k], auto[:, 2 * n : 2 * n + r2]])
    count = r1 + k + r2 + int(rng.integers(2, 5))
    coeff_re = rng.uniform(-1.0, 1.0, size=(r1, count))
    coeff_ze = rng.uniform(-1.0, 1.0, size=(r1, count))
    coeff_s2 = rng.uniform(-1.0, 1.0, size=(k + r2, count))
    gens = s1 @ coeff_re + eps_s1 @ coeff_ze + s2 @ coeff_s2
    generators = [linalg.unrealify(col, n, m) for col in gens.T]
    return generators, (r1, k + r2), np.hstack([s1, eps_s1, s2])


class TestRecordedBasisDefects:
    # Benchmark tasks on which an earlier elimination returned one spurious
    # kernel direction (the first two) or a basis leaving the planted span.
    @pytest.mark.parametrize(
        "seed, index, kind, n, m",
        [
            (1, 1979, "basis_kernel", 17, 17),
            (3, 1787, "basis_kernel", 22, 21),
            (8, 1867, "basis_heads", 15, 14),
        ],
    )
    def test_planted_span_recovered(self, seed, index, kind, n, m):
        gens, dims, span = planted_span(seed, index, kind, n, m)
        basis = linalg.extract_basis(gens)
        assert basis.dim == dims
        cols = [linalg.realify(v) for v in basis.s1]
        cols += [linalg.realify(core.sharp_action(v)) for v in basis.s1]
        cols += [linalg.realify(w) for w in basis.s2]
        got = np.array(cols).T
        rank = np.linalg.matrix_rank
        assert rank(got, tol=1e-8) == got.shape[1]
        assert rank(np.hstack([span, got]), tol=1e-8) == span.shape[1]


class TestSolveAndIso:
    def test_scalar_map_is_iso(self):
        lam = ModuleMap.scalar(1, 0, DualNumber(2.0, 3.0))
        assert linalg.is_isomorphism(lam)

    def test_sharp_map_not_iso(self):
        assert not linalg.is_isomorphism(ModuleMap.sharp_map(2, 1))

    def test_shape_mismatch_not_iso(self):
        lam = ModuleMap.zero((2, 1), (1, 3))  # same realified size, wrong shape
        assert not linalg.is_isomorphism(lam)

    def test_solve_invertible(self):
        rng = np.random.default_rng(47)
        hits = 0
        for _ in range(100):
            lam = rand_map(rng, (2, 2), (2, 2))
            if not linalg.is_isomorphism(lam):
                continue
            hits += 1
            b = rand_vector(rng, 2, 2)
            v = linalg.solve(lam, b, tol=1e-10)
            residual = core.vector_norm(linalg.apply(lam, v) - b)
            assert residual <= 1e-10 * (1.0 + core.vector_norm(b))
            assert linalg.residual_norm(lam, v, b) == pytest.approx(residual, rel=1e-12, abs=1e-300)
        assert hits > 80

    def test_solve_no_solution(self):
        # eps-multiplication cannot produce a vector with invertible head
        lam = ModuleMap.sharp_map(1, 0)
        with pytest.raises(NoSolution):
            linalg.solve(lam, core.basis_vector(1, 0, 0))

    def test_solve_underdetermined_minimum_norm(self):
        # map (2,0) -> (1,0), x |-> x1 + x2: solutions form a coset
        lam = ModuleMap(
            2, 0, 1, 0,
            np.array([[1.0, 1.0]]), np.zeros((1, 2)), np.zeros((1, 0)),
            np.zeros((0, 2)), np.zeros((0, 0)),
        )
        b = core.vector([DualNumber(2.0, 0.0)], [])
        v = linalg.solve(lam, b)
        assert core.vector_norm(linalg.apply(lam, v) - b) <= 1e-12
        # minimum-norm solution splits evenly
        assert v.head[0].re == pytest.approx(1.0, abs=1e-12)
        assert v.head[1].re == pytest.approx(1.0, abs=1e-12)

    def test_inverse_map_roundtrip(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            lam = rand_map(rng, (2, 1), (2, 1))
            if not linalg.is_isomorphism(lam):
                continue
            inv_lam = linalg.inverse_map(lam)
            ident = linalg.compose(inv_lam, lam)
            assert np.allclose(
                linalg.realify_map(ident),
                np.eye(5),
                atol=1e-8,
            )

    def test_solve_shape_mismatch(self):
        lam = ModuleMap.identity(2, 1)
        with pytest.raises(ShapeMismatch):
            linalg.solve(lam, core.zero_vector(1, 1))


class TestSplitBasisJson:
    def test_roundtrip(self):
        basis = SplitBasis(
            (core.basis_vector(2, 1, 0),), (core.basis_vector(2, 1, 2),)
        )
        back = SplitBasis.from_json(basis.to_json())
        assert back == basis

    def test_schema_error(self):
        with pytest.raises(ValueError):
            SplitBasis.from_json({"S1": []})


def huge_map(q):
    """A tail-to-tail map (0, 2) -> (0, 2) with real matrix q."""
    z = np.zeros
    return ModuleMap(0, 2, 0, 2, z((0, 0)), z((0, 0)), z((0, 2)), z((2, 0)), q)


class TestNonFiniteInput:
    def test_map_with_non_finite_block_rejected(self):
        blocks = [np.ones((1, 1)) for _ in range(5)]
        for k in range(5):
            for bad in (np.inf, -np.inf, np.nan):
                arrays = [b.copy() for b in blocks]
                arrays[k][0, 0] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    ModuleMap(1, 1, 1, 1, *arrays)
        doc = ModuleMap.identity(1, 1).to_json()
        doc["Q"] = [[float("inf")]]
        with pytest.raises(ValueError, match="non-finite"):
            ModuleMap.from_json(doc)

    def test_non_finite_rhs_rejected(self):
        lam = ModuleMap.identity(1, 1)
        for bad in (np.nan, np.inf):
            for rhs in (
                core.vector([DualNumber(1.0, bad)], [0.0]),
                core.vector([DualNumber(1.0, 0.0)], [bad]),
            ):
                with pytest.raises(ValueError, match="non-finite"):
                    linalg.solve(lam, rhs)

    def test_non_finite_generator_rejected(self):
        for bad in (np.nan, np.inf):
            gens = [
                core.vector([DualNumber(1.0, bad)], [0.5]),
                core.vector([DualNumber(2.0, 0.0)], [1.0]),
            ]
            with pytest.raises(ValueError, match="non-finite"):
                linalg.extract_basis(gens)
            with pytest.raises(ValueError, match="non-finite"):
                linalg.extract_basis(gens[::-1])

    def test_overflowing_elimination_breaks_down(self):
        gens = [
            core.vector([DualNumber(1.7e308, 1.7e308), DualNumber(1.7e308, 0.0)], []),
            core.vector([DualNumber(-1.7e308, 1e308), DualNumber(1.7e308, 1.7e308)], []),
        ]
        with pytest.raises(linalg.NumericalBreakdown, match="overflow"):
            linalg.extract_basis(gens)

    def test_solvable_near_float_limit(self):
        # |b| and the residual both overflow core.vector_norm's squares
        c = np.array([[1.7e308, 1.7e308], [1.7e308, 0.0]])
        lam = ModuleMap(2, 0, 2, 0, c, np.array([[1.7e308, 0.0], [-1.7e308, 1.7e308]]),
                        np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0)))
        b = core.vector([DualNumber(1e300, 1e300), DualNumber(1e300, -1e300)], [])
        v = linalg.solve(lam, b)
        residual = linalg.residual_norm(lam, v, b)
        assert 0.0 < residual <= 1e-14 * 1e300

    def test_unsolvable_near_float_limit(self):
        # b is orthogonal to the image, and |b|**2 overflows: unscaled norms
        # would compare inf with inf and accept the least-squares vector
        lam = huge_map(np.full((2, 2), 8.5e307))
        with pytest.raises(NoSolution):
            linalg.solve(lam, core.vector([], [1e308, -1e308]))

    def test_overflowing_residual_is_no_solution(self):
        # lstsq's solution is about 2.6e12; applying the map overflows, and
        # at 1.7e308 so does |b|, so an infinite residual meets an infinite bound
        lam = huge_map(np.array([[8.5e307, 8.5e307], [8.5e307, 8.5e307 * (1 + 2.0**-40)]]))
        for big in (1e308, 1.7e308):
            with pytest.raises(NoSolution):
                linalg.solve(lam, core.vector([], [big, -big]))
        x = core.vector([], [3e12, -3e12])
        assert not np.isfinite(linalg.residual_norm(lam, x, core.zero_vector(0, 2)))
