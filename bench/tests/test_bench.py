"""Tests of the benchmark's own code: statistics, tracing, oracles, inputs.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

import dualmod
import layers
import run
import stats
import tracer as tracer_mod
import worker
import workloads
from tracer import Tracer
from workloads import Task, Verdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- percentiles --------------------------------------------------------------

@pytest.mark.parametrize("n, want", [(100, 90.0), (101, 90.0), (500, 90.0), (50, 81.0), (20, 52.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    p = stats.tail_percentile(n)
    assert p == want
    assert stats.samples_beyond(n, p) >= stats.TAIL_SAMPLES
    if p < stats.TAIL_PERCENTILE:
        assert stats.samples_beyond(n, p + 1.0) < stats.TAIL_SAMPLES


def test_tail_percentile_needs_enough_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(stats.TAIL_SAMPLES)


def test_p90_of_hundred_samples_has_ten_beyond():
    values = list(range(100))
    p90 = np.percentile(values, stats.tail_percentile(len(values)))
    assert sum(v > p90 for v in values) == stats.samples_beyond(100, 90.0) == 10


# -- tracing ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod.time, "perf_counter", clock)
    t = Tracer()

    def inner():
        clock.now += 2.0

    inner_w = t._wrap("linalg.apply", inner)

    def outer():
        clock.now += 1.0
        inner_w()
        clock.now += 0.5
        counted()  # unspanned: its time stays in the caller's self time

    def counted_body():
        clock.now += 0.25

    counted = t._wrap("core.mul", counted_body)
    t._wrap("linalg.solve", outer)()
    assert t.total_s["linalg.solve"] == pytest.approx(3.75)
    assert t.self_s["linalg.solve"] == pytest.approx(1.75)
    assert t.self_s["linalg.apply"] == pytest.approx(2.0)
    assert t.calls == {"linalg.solve": 1, "linalg.apply": 1, "core.mul": 1}


def test_recursive_eval_expr_folds_into_one_span():
    x = dualmod.vector([(0.5, 0.1)], [])
    h = dualmod.head_coord(0)
    expr = dualmod.inv_expr(dualmod.const(3.0) + h * h) - h  # 8 nodes
    with Tracer() as t:
        dualmod.eval_expr(expr, x)
        dualmod.eval_expr(expr, x)
    assert t.events["diff.eval_expr.nodes"] == 16
    assert t.calls["diff.eval_expr"] == 2
    assert t.self_s["diff.eval_expr"] == pytest.approx(t.total_s["diff.eval_expr"])


def test_tracer_sees_from_imports_and_restores_originals():
    original = dualmod.core.mul
    f = dualmod.DualFunc((1, 0), (1, 0), (dualmod.head_coord(0) * dualmod.head_coord(0),))
    with Tracer() as t:
        assert dualmod.core.mul is not original
        dualmod.cr_check(f, dualmod.vector([(0.5, 0.0)], []))
    assert dualmod.core.mul is original
    assert dualmod.diff.mul is original
    assert t.calls["diff.cr_check"] == 1
    assert t.calls["diff.numeric_jacobian"] == 1
    assert t.events["diff.jacobian_probes"] == 4  # 2 * (2n + m) probes
    assert t.events["diff.cr_check.passed"] == 1
    assert t.events["core.dual_new"] > 0


def test_exceptions_are_counted_once_per_failure():
    lam = dualmod.ModuleMap.zero((1, 0), (1, 0))
    with Tracer() as t:
        with pytest.raises(dualmod.NoSolution):
            dualmod.inverse_map(lam)
        with pytest.raises(dualmod.NotInvertible):
            dualmod.inv(dualmod.ZERO)
    assert t.events["linalg.no_solution"] == 1
    assert t.events["core.not_invertible"] == 1


def test_layer_values_are_per_task():
    totals = {"calls": {"diff.cr_check": 4}, "events": {"diff.cr_check.passed": 3}, "self_s": {}}
    vals = layers.layer_values(totals, 2, {"trace.tasks": 2})
    assert vals["diff.cr_check.calls"]["value"] == 2.0
    assert vals["diff.cr_check.pass_ratio"]["value"] == 0.75
    assert vals["trace.tasks"]["value"] == 2


# -- oracles ------------------------------------------------------------------

def _run_and_check(wl, task):
    try:
        out, err = wl.run(task), None
    except Exception as exc:
        out, err = None, exc
    return out, err, wl.check(task, out, err)


def _built(wl, seed, index):
    task = wl.make(seed, index)
    if hasattr(wl, "construct"):
        wl.construct(task)
    return task


def _first(wl, kind, seed=1):
    return next(_built(wl, seed, i) for i in range(len(wl.CYCLE)) if wl.CYCLE[i] == kind)


def _basis_task(wl, small: bool, seed=1):
    """The first basis task of total shape up to 24, or above it."""
    for i in range(10 * len(wl.CYCLE)):
        if wl.CYCLE[i % len(wl.CYCLE)] == "basis_heads":
            task = _built(wl, seed, i)
            if (task.expect["shape"] < wl.DEFECT_MIN_SHAPE) == small:
                return task
    raise AssertionError("no basis task of that size")


def _with_extra_direction(basis, shift: float):
    """The basis with one more s2 vector: the first s1 vector's eps part
    plus ``shift`` in every head slot, with its tail doubled."""
    donor = basis.s1[0]
    extra = dualmod.DualVector(
        tuple(dualmod.DualNumber(0.0, 2.0 * h.ze + shift) for h in donor.head),
        tuple(2.0 * x for x in donor.tail),
    )
    return replace(basis, s2=basis.s2 + (extra,))


def test_algebra_oracles_reject_wrong_answers():
    wl = workloads.load("algebra")
    task = _first(wl, "basis_heads")
    basis, err, verdict = _run_and_check(wl, task)
    assert verdict.ok and err is None
    short = replace(basis, s1=basis.s1[:-1])
    assert not wl.check(task, short, None).ok

    task = _first(wl, "solve_ok")
    sol, _, verdict = _run_and_check(wl, task)
    assert verdict.ok
    off = dualmod.vector([(h.re + 1e-3, h.ze) for h in sol.head], sol.tail)
    assert not wl.check(task, off, None).ok

    task = _first(wl, "solve_none")
    _, err, verdict = _run_and_check(wl, task)
    assert verdict.ok and isinstance(err, dualmod.NoSolution)
    assert not wl.check(task, sol, None).ok  # an answer where none exists

    task = _first(wl, "form")
    outcome, _, verdict = _run_and_check(wl, task)
    assert verdict.ok
    form, report, basis, ver = outcome
    (e, f), *rest = basis.pairs_head or basis.pairs_tail
    swapped = dualmod.DarbouxBasis(((f, e),) + tuple(rest), basis.pairs_tail) if basis.pairs_head \
        else dualmod.DarbouxBasis((), ((f, e),) + tuple(rest))
    assert not wl.check(task, (form, report, swapped, ver), None).ok


def test_diffcheck_oracle_rejects_a_passing_control():
    wl = workloads.load("diffcheck")
    task = _first(wl, "control")
    outcome, _, verdict = _run_and_check(wl, task)
    assert verdict.ok
    value, report, deriv, limit = outcome[0]
    forged = [(value, replace(report, passed=True), deriv, limit)] + outcome[1:]
    assert not wl.check(task, forged, None).ok

    task = _first(wl, "tree")
    outcome, _, verdict = _run_and_check(wl, task)
    assert verdict.ok
    value, report, deriv, limit = outcome[0]
    wrong = dualmod.ModuleMap(deriv.n, deriv.m, deriv.s, deriv.t,
                              deriv.c_re + 0.01, deriv.c_ze, deriv.p, deriv.d, deriv.q)
    assert not wl.check(task, [(value, report, wrong, limit)] + outcome[1:], None).ok


def test_atlas_oracle_rejects_a_failed_standard_chart():
    wl = workloads.load("atlas")
    task = _first(wl, "p12_1")
    report, _, verdict = _run_and_check(wl, task)
    assert verdict.ok
    broken = dualmod.AtlasReport((replace(report.entries[0], passed=False),) + report.entries[1:])
    assert not wl.check(task, broken, None).ok

    task = _first(wl, "bad_inverse")
    report, _, verdict = _run_and_check(wl, task)
    assert verdict.ok  # exactly the planted ii failure
    healed = dualmod.AtlasReport(tuple(replace(e, passed=True) for e in report.entries))
    assert not wl.check(task, healed, None).ok


@pytest.fixture
def cli_workload():
    wl = workloads.load("cli")
    wl.setup(1)
    yield wl
    wl.teardown()


def test_cli_oracle_rejects_wrong_codes_and_reports(cli_workload):
    wl = cli_workload
    task = _first(wl, "basis")
    (code, out, err), _, verdict = _run_and_check(wl, task)
    assert verdict.ok and code == 0
    assert not wl.check(task, (1, out, err), None).ok
    payload = json.loads(out)
    payload["dims"][0] += 1
    assert not wl.check(task, (0, json.dumps(payload), err), None).ok  # differs from main

    task = _first(wl, "bad_json")
    _, _, verdict = _run_and_check(wl, task)
    assert verdict.ok
    assert not wl.check(task, (0, "", ""), None).ok

    task = _first(wl, "nan_rhs")
    _, _, verdict = _run_and_check(wl, task)
    assert verdict == Verdict(False, True, verdict.note)  # a known defect, counted


def _judged(wl, task, basis):
    judge = worker.Judge(wl)
    judge(task, basis, None)
    return judge


def test_wrong_basis_at_a_small_shape_is_not_a_known_defect():
    wl = workloads.load("algebra")
    task = _basis_task(wl, small=True)
    basis, _, verdict = _run_and_check(wl, task)
    assert verdict.ok and _judged(wl, task, basis).correct
    for wrong in (_with_extra_direction(basis, 0.5), replace(basis, s2=basis.s2[:-1]),
                  replace(basis, s1=(basis.s1[0],) + basis.s1)):
        judge = _judged(wl, task, wrong)
        assert judge.failed == 1 and judge.known == 0 and not judge.correct


def test_only_the_recorded_symptoms_are_known_at_large_shapes():
    wl = workloads.load("algebra")
    task = _basis_task(wl, small=False)
    basis, _, verdict = _run_and_check(wl, task)
    assert verdict.ok
    # one spurious direction on top of the planted module: the recorded defect
    spurious = _judged(wl, task, _with_extra_direction(basis, 0.5))
    assert spurious.failed == 1 and spurious.correct
    # a missing direction, or two extra ones, is not
    two_extra = _with_extra_direction(_with_extra_direction(basis, 0.5), -0.25)
    for wrong in (replace(basis, s2=basis.s2[:-1]), replace(basis, s1=basis.s1[:-1]), two_extra):
        assert not _judged(wl, task, wrong).correct
    # nor is the same defect on a planted span that is not well conditioned
    assert not _judged(wl, replace(task, expect=dict(task.expect, cond=1e6)),
                       _with_extra_direction(basis, 0.5)).correct


# -- inputs -------------------------------------------------------------------

def _fingerprint(task: Task) -> bytes:
    def plain(x):
        if isinstance(x, np.ndarray):
            return x.tolist()
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if hasattr(x, "to_json"):
            return x.to_json()
        if isinstance(x, str) and os.path.isfile(x):
            with open(x, encoding="utf-8") as fh:
                return fh.read()
        return x

    return pickle.dumps(plain(task.inputs))


@pytest.mark.parametrize("name", ["atlas", "diffcheck", "algebra", "cli"])
def test_seed_changes_inputs_but_not_the_mix(name):
    wl = workloads.load(name)
    if hasattr(wl, "setup"):
        wl.setup(0)
    try:
        count = 2 * len(wl.CYCLE)
        a = [wl.make(1, i) for i in range(count)]
        a_fp = [_fingerprint(t) for t in a]
        again = [_fingerprint(wl.make(1, i)) for i in range(count)]
        b = [wl.make(2, i) for i in range(count)]
        b_fp = [_fingerprint(t) for t in b]
    finally:
        if hasattr(wl, "teardown"):
            wl.teardown()
    assert [(t.kind, t.size) for t in a] == [(t.kind, t.size) for t in b]
    assert a_fp == again
    assert sum(x != y for x, y in zip(a_fp, b_fp)) >= 0.9 * count


def test_sizes_cover_each_kind_evenly():
    sizes = [workloads.kind_and_size(("a", "b", "a"), i) for i in range(300)]
    a = sorted(s for k, s in sizes if k == "a")
    assert len(a) == 200
    assert max(np.diff([0.0] + a + [1.0])) < 0.02


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (n, u, b) for n, u, b, _src, _moves in layers.LAYER_METRICS
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def test_adjusted_latency_scales_by_local_probe_median():
    import probe

    lat = [0.1] * 20 + [0.2] * 20  # the host halves its speed midway
    probes = [probe.NOMINAL_S] * 20 + [2 * probe.NOMINAL_S] * 20
    adj = probe.adjusted(lat, probes, window=2)
    assert adj[:18] == pytest.approx([0.1] * 18)
    assert adj[-18:] == pytest.approx([0.1] * 18)
    with pytest.raises(ValueError):
        probe.adjusted(lat, probes[:-1])
