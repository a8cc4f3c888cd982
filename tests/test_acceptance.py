"""Acceptance gate: one test per release criterion, at its stated tolerance
and runtime budget.  Each test prints a single PASS/FAIL line."""

import json
import time

import numpy as np
import pytest

import dualmod.core as core
from dualmod.cli import main
from dualmod.core import (
    DualNumber,
    DualVector,
    inv,
    mul,
    scalar_mul,
    scalar_norm,
    sharp_action,
    standard_basis,
    vector,
    vector_norm,
)
from dualmod.diff import DualFunc, coord, cr_check, limit_check, re_part, ze_part
from dualmod.diff import forward_derivative, numeric_jacobian
from dualmod.linalg import extract_basis, realify, realify_map
from dualmod.manifold import (
    ProjectiveAtlas,
    chart_inverse,
    chart_map,
    canonical_rep,
    in_transition_domain,
    random_rep,
    transition,
    verify_atlas,
)
from dualmod.sampling import random_vector, rng_from, tame_case
from dualmod.symplectic import (
    GramForm,
    check_form,
    darboux_basis,
    random_form,
    standard_form,
    verify_darboux,
)


def report(num, ok, detail):
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_scalar_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_assoc = worst_dist = worst_inv = 0.0
    violations = 0
    checked_inv = 0
    for _ in range(10_000):
        a = DualNumber(*rng.uniform(-1, 1, 2))
        b = DualNumber(*rng.uniform(-1, 1, 2))
        c = DualNumber(*rng.uniform(-1, 1, 2))
        lhs, rhs = mul(mul(a, b), c), mul(a, mul(b, c))
        worst_assoc = max(worst_assoc, abs(lhs.re - rhs.re), abs(lhs.ze - rhs.ze))
        lhs, rhs = mul(a, b + c), mul(a, b) + mul(a, c)
        worst_dist = max(worst_dist, abs(lhs.re - rhs.re), abs(lhs.ze - rhs.ze))
        if abs(a.re) > 1e-6:
            checked_inv += 1
            rt = mul(a, inv(a))
            worst_inv = max(worst_inv, abs(rt.re - 1.0), abs(rt.ze))
        if scalar_norm(mul(a, b)) > scalar_norm(a) * scalar_norm(b):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = (
        worst_assoc <= 1e-12
        and worst_dist <= 1e-12
        and worst_inv <= 1e-12
        and violations == 0
        and checked_inv > 9000
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        "assoc %.2e, distrib %.2e, inverse %.2e over %d pairs, "
        "%d norm violations, %.2fs"
        % (worst_assoc, worst_dist, worst_inv, checked_inv, violations, elapsed),
    )


def _rank(rows, tol=1e-9):
    mat = np.vstack(rows)
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def test_criterion_2_basis_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    agreements = 0
    for _ in range(500):
        count = int(rng.integers(1, 7))
        gens = [random_vector(rng, 3, 2) for _ in range(count)]
        # mix in exact dependencies to leave the generic-rank regime
        while rng.uniform() < 0.4:
            base = gens[int(rng.integers(0, len(gens)))]
            if rng.uniform() < 0.5:
                gens.append(sharp_action(base))
            else:
                gens.append(scalar_mul(DualNumber(*rng.uniform(-1, 1, 2)), base))
        basis = extract_basis(gens)
        sharped = [realify(sharp_action(v)) for v in gens]
        doubled = sharped + [realify(v) for v in gens]
        expected = (_rank(sharped), _rank(doubled))
        got = (len(basis.s1), 2 * len(basis.s1) + len(basis.s2))
        agreements += got == expected
    full_ok = True
    for n in range(5):
        for m in range(5):
            dims = extract_basis(standard_basis(n, m)).dim
            full_ok = full_ok and dims == (n, m)
    elapsed = time.perf_counter() - start
    ok = agreements == 500 and full_ok and elapsed < 10.0
    report(
        2,
        ok,
        "%d/500 oracle agreements, full-space dims %s, %.2fs"
        % (agreements, "match" if full_ok else "MISMATCH", elapsed),
    )


def test_criterion_3_differentiability():
    start = time.perf_counter()
    rng = rng_from(2)

    worst_ad = 0.0
    for _ in range(50):
        depth = int(rng.integers(1, 7))
        f, a = tame_case(rng, (2, 1), (1, 1), depth=depth)
        ad = realify_map(forward_derivative(f, a))
        fd = numeric_jacobian(f, a, h=1e-5)
        worst_ad = max(worst_ad, float(np.abs(ad - fd).max()))

    reject_ok = True
    worst_reject = float("inf")
    for comp in (re_part(coord("head", 0)), ze_part(coord("head", 0))):
        func = DualFunc((1, 0), (1, 0), (comp,))
        for _ in range(20):
            x = vector([DualNumber(*rng.uniform(-1, 1, 2))], [])
            result = cr_check(func, x)
            residual = max(result.residuals.values())
            worst_reject = min(worst_reject, residual)
            reject_ok = reject_ok and not result.passed and residual >= 0.5

    limit_ok = True
    confirmed = 0
    while confirmed < 10:
        f, a = tame_case(rng, (2, 1), (1, 1), depth=3)
        result = cr_check(f, a)
        if not result.passed:
            continue
        limit_ok = limit_ok and limit_check(f, a, result.derivative, tol=1e-3)
        confirmed += 1

    elapsed = time.perf_counter() - start
    ok = worst_ad <= 1e-5 and reject_ok and limit_ok and elapsed < 30.0
    report(
        3,
        ok,
        "AD-vs-FD %.2e over 50 trees, projection residual >= %.2f at 40 "
        "points, %d/10 limit confirmations, %.2fs"
        % (worst_ad, worst_reject, confirmed if limit_ok else 0, elapsed),
    )


def test_criterion_4_projective_atlas():
    start = time.perf_counter()
    shapes = [(0, 1), (1, 0), (1, 1), (2, 1)]

    transition_failures = 0
    points_checked = 0
    rng = np.random.default_rng(3)
    for n, m in shapes:
        charts = [(i, j) for i in range(n + 1) for j in range(m + 1)]
        for c1 in charts:
            for c2 in charts:
                trans = transition(c1[0], c1[1], c2[0], c2[1], n, m)
                for _ in range(100):
                    p = random_rep(rng, n, m, active=(c1, c2))
                    u = chart_map(c1[0], c1[1], p)
                    if not in_transition_domain(trans, u):
                        continue
                    result = cr_check(trans, u, tol=1e-4)
                    points_checked += 1
                    transition_failures += not result.passed

    worst_round = 0.0
    for n, m in shapes:
        for _ in range(50):
            u = random_vector(rng, n, m, lo=-2.0, hi=2.0)
            i = int(rng.integers(0, n + 1))
            j = int(rng.integers(0, m + 1))
            back = chart_map(i, j, chart_inverse(i, j, u))
            worst_round = max(worst_round, vector_norm(back - u))
            p = random_rep(rng, n, m, active=((i, j),))
            q = chart_inverse(i, j, chart_map(i, j, p))
            worst_round = max(
                worst_round,
                vector_norm(canonical_rep(p) - canonical_rep(q)),
            )

    worst_rescale = 0.0
    for k in range(200):
        n, m = shapes[k % len(shapes)]
        i, j = int(rng.integers(0, n + 1)), int(rng.integers(0, m + 1))
        p = random_rep(rng, n, m, active=((i, j),))
        s = DualNumber(
            rng.uniform(0.5, 1.5) * (1 if rng.uniform() < 0.5 else -1),
            rng.uniform(-1, 1),
        )
        t = rng.uniform(0.5, 1.5) * (1 if rng.uniform() < 0.5 else -1)
        scaled = DualVector(
            tuple(mul(s, h) for h in p.rep.head),
            tuple(t * r for r in p.rep.tail),
        )
        gap = vector_norm(chart_map(i, j, p) - chart_map(i, j, scaled))
        worst_rescale = max(worst_rescale, gap)

    elapsed = time.perf_counter() - start
    ok = (
        transition_failures == 0
        and points_checked > 0
        and worst_round <= 1e-10
        and worst_rescale <= 1e-10
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        "%d transition points, %d failures, round-trip %.2e, "
        "rescaling %.2e over 200 draws, %.2fs"
        % (points_checked, transition_failures, worst_round, worst_rescale, elapsed),
    )


def test_criterion_5_symplectic():
    start = time.perf_counter()
    shapes = [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
    successes = 0
    recovered_ok = True
    for n, m in shapes:
        for seed in range(20):
            form = random_form(n, m, seed=seed)
            basis = darboux_basis(form)
            recovered_ok = recovered_ok and (
                len(basis.pairs_head),
                len(basis.pairs_tail),
            ) == (n, m)
            successes += verify_darboux(basis, form, tol=1e-9).passed

    base = standard_form(1, 1)
    dead_head = GramForm(2, 2, np.zeros((4, 4)), base.g_ze)
    g_ze = base.g_ze.copy()
    g_ze[2:, 2:] = 0.0
    dead_kernel = GramForm(2, 2, base.g_re, g_ze)
    head_report = check_form(dead_head)
    kernel_report = check_form(dead_kernel)
    witnesses_ok = (
        not head_report.passed
        and any(
            c.name == "head_block_nondegenerate" and not c.passed
            for c in head_report.checks
        )
        and not kernel_report.passed
        and any(
            c.name == "kernel_pairing_nondegenerate" and not c.passed
            for c in kernel_report.checks
        )
    )

    elapsed = time.perf_counter() - start
    ok = successes == 100 and recovered_ok and witnesses_ok and elapsed < 30.0
    report(
        5,
        ok,
        "%d/100 round trips, shapes %s, degenerate witnesses %s, %.2fs"
        % (
            successes,
            "recovered" if recovered_ok else "WRONG",
            "rejected" if witnesses_ok else "ACCEPTED",
            elapsed,
        ),
    )


def test_criterion_6_cli_selftest(tmp_path, capsys):
    code = main(["selftest"])
    captured = capsys.readouterr()
    clean = code == 0 and json.loads(captured.out)["passed"] is True

    first, second = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(["selftest", "--seed", "7", "--samples", "40", "--output", str(first)])
    code2 = main(["selftest", "--seed", "7", "--samples", "40", "--output", str(second)])
    identical = first.read_bytes() == second.read_bytes()

    ok = clean and code1 == 0 and code2 == 0 and identical
    report(
        6,
        ok,
        "clean exit %d, repeat exits %d/%d, reports %s"
        % (code, code1, code2, "identical" if identical else "DIFFER"),
    )
