"""Per-layer metrics of the traced run, and the end-to-end figure each should move.

Counts and self times are per task (totals over the traced phase divided by
the tasks it ran), so they compare across runs of different length.  Each
entry is (name, unit, better, source, moves); ``moves`` records which
end-to-end metric on which workload the layer metric is expected to drive.
Sources: ("calls"|"self_s"|"events", key) per task, ("ratio", numerator
event, denominator call count), or ("extra", key) for figures the worker
measures itself.
"""

from __future__ import annotations

PER_TASK = "count/task"
SECONDS_PER_TASK = "s/task"

LAYER_METRICS = [
    # core: the direct measure of "change the representation"
    ("core.dual_new", PER_TASK, "lower", ("events", "core.dual_new"),
     "tasks_per_s on atlas and algebra"),
    ("core.vector_new", PER_TASK, "lower", ("events", "core.vector_new"),
     "tasks_per_s on atlas and algebra"),
    ("core.mul.calls", PER_TASK, "lower", ("calls", "core.mul"),
     "tasks_per_s on atlas and algebra"),
    ("core.inv.calls", PER_TASK, "lower", ("calls", "core.inv"),
     "tasks_per_s on atlas and algebra"),
    ("core.scalar_mul.calls", PER_TASK, "lower", ("calls", "core.scalar_mul"),
     "tasks_per_s on atlas and algebra"),
    ("core.not_invertible", PER_TASK, "lower", ("events", "core.not_invertible"),
     "ok_share"),
    # linalg
    ("linalg.extract_basis.calls", PER_TASK, "lower", ("calls", "linalg.extract_basis"),
     "tasks_per_s and task_p90_ms on algebra; atlas unmoved"),
    ("linalg.extract_basis.self_s", SECONDS_PER_TASK, "lower", ("self_s", "linalg.extract_basis"),
     "tasks_per_s and task_p90_ms on algebra; atlas unmoved"),
    ("linalg.solve.calls", PER_TASK, "lower", ("calls", "linalg.solve"),
     "task_p50_ms on algebra; flat under an array representation"),
    ("linalg.solve.self_s", SECONDS_PER_TASK, "lower", ("self_s", "linalg.solve"),
     "task_p50_ms on algebra; flat under an array representation"),
    ("linalg.apply.calls", PER_TASK, "lower", ("calls", "linalg.apply"),
     "atlas and algebra"),
    ("linalg.apply.self_s", SECONDS_PER_TASK, "lower", ("self_s", "linalg.apply"),
     "atlas and algebra"),
    ("linalg.realify.calls", PER_TASK, "lower", ("calls", "linalg.realify"),
     "atlas and algebra"),
    ("linalg.unrealify.calls", PER_TASK, "lower", ("calls", "linalg.unrealify"),
     "atlas and algebra"),
    ("linalg.is_isomorphism.self_s", SECONDS_PER_TASK, "lower", ("self_s", "linalg.is_isomorphism"),
     "algebra"),
    ("linalg.inverse_map.self_s", SECONDS_PER_TASK, "lower", ("self_s", "linalg.inverse_map"),
     "algebra"),
    ("linalg.is_independent.self_s", SECONDS_PER_TASK, "lower", ("self_s", "linalg.is_independent"),
     "algebra"),
    ("linalg.no_solution", PER_TASK, "lower", ("events", "linalg.no_solution"),
     "ok_share on algebra; the expected count comes from construction"),
    # diff
    ("diff.eval_expr.nodes", PER_TASK, "lower", ("events", "diff.eval_expr.nodes"),
     "tasks_per_s on atlas"),
    ("diff.eval_expr.self_s", SECONDS_PER_TASK, "lower", ("self_s", "diff.eval_expr"),
     "tasks_per_s on atlas"),
    ("diff.numeric_jacobian.calls", PER_TASK, "lower", ("calls", "diff.numeric_jacobian"),
     "atlas, then diffcheck"),
    ("diff.numeric_jacobian.self_s", SECONDS_PER_TASK, "lower", ("self_s", "diff.numeric_jacobian"),
     "atlas, then diffcheck"),
    ("diff.jacobian_probes", PER_TASK, "lower", ("events", "diff.jacobian_probes"),
     "atlas, then diffcheck"),
    ("diff.cr_check.calls", PER_TASK, "lower", ("calls", "diff.cr_check"),
     "atlas and diffcheck"),
    ("diff.cr_check.self_s", SECONDS_PER_TASK, "lower", ("self_s", "diff.cr_check"),
     "atlas and diffcheck"),
    ("diff.cr_check.pass_ratio", "ratio", "higher", ("ratio", "diff.cr_check.passed", "diff.cr_check"),
     "atlas and diffcheck; base is diff.cr_check.calls"),
    ("diff.forward_derivative.calls", PER_TASK, "lower", ("calls", "diff.forward_derivative"),
     "task_p90_ms on diffcheck"),
    ("diff.forward_derivative.self_s", SECONDS_PER_TASK, "lower", ("self_s", "diff.forward_derivative"),
     "task_p90_ms on diffcheck"),
    ("diff.limit_check.self_s", SECONDS_PER_TASK, "lower", ("self_s", "diff.limit_check"),
     "task_p90_ms on diffcheck"),
    ("diff.compose_funcs.self_s", SECONDS_PER_TASK, "lower", ("self_s", "diff.compose_funcs"),
     "task_p90_ms on diffcheck"),
    ("diff.compose_funcs.unique_nodes", PER_TASK, "lower", ("events", "diff.compose_funcs.unique_nodes"),
     "task_p90_ms on diffcheck"),
    ("diff.evaluation_failed", PER_TASK, "lower", ("events", "diff.evaluation_failed"),
     "ok_share"),
    # manifold
    ("manifold.verify_atlas.calls", PER_TASK, "lower", ("calls", "manifold.verify_atlas"),
     "tasks_per_s on atlas"),
    ("manifold.verify_atlas.self_s", SECONDS_PER_TASK, "lower", ("self_s", "manifold.verify_atlas"),
     "tasks_per_s on atlas"),
    ("manifold.random_rep.calls", PER_TASK, "lower", ("calls", "manifold.random_rep"),
     "tasks_per_s on atlas"),
    ("manifold.chart_map.calls", PER_TASK, "lower", ("calls", "manifold.chart_map"),
     "tasks_per_s on atlas"),
    ("manifold.chart_map.self_s", SECONDS_PER_TASK, "lower", ("self_s", "manifold.chart_map"),
     "tasks_per_s on atlas"),
    ("manifold.chart_inverse.calls", PER_TASK, "lower", ("calls", "manifold.chart_inverse"),
     "tasks_per_s on atlas"),
    ("manifold.equivalent.calls", PER_TASK, "lower", ("calls", "manifold.equivalent"),
     "tasks_per_s on atlas"),
    ("manifold.transition.calls", PER_TASK, "lower", ("calls", "manifold.transition"),
     "tasks_per_s on atlas"),
    ("manifold.in_transition_domain.calls", PER_TASK, "lower", ("calls", "manifold.in_transition_domain"),
     "base of manifold.transition_hit_ratio"),
    ("manifold.transition_hit_ratio", "ratio", "higher",
     ("ratio", "manifold.transition_hits", "manifold.in_transition_domain"),
     "useful-sample ratio of the atlas iv loop; base is manifold.in_transition_domain.calls"),
    # symplectic
    ("symplectic.eval_form.calls", PER_TASK, "lower", ("calls", "symplectic.eval_form"),
     "task_p90_ms on algebra"),
    ("symplectic.darboux_basis.self_s", SECONDS_PER_TASK, "lower", ("self_s", "symplectic.darboux_basis"),
     "task_p90_ms on algebra"),
    ("symplectic.random_form.self_s", SECONDS_PER_TASK, "lower", ("self_s", "symplectic.random_form"),
     "algebra"),
    ("symplectic.check_form.self_s", SECONDS_PER_TASK, "lower", ("self_s", "symplectic.check_form"),
     "algebra"),
    ("symplectic.verify_darboux.self_s", SECONDS_PER_TASK, "lower", ("self_s", "symplectic.verify_darboux"),
     "algebra"),
    # cli
    ("cli.interpreter_ms", "ms", "lower", ("extra", "cli.interpreter_ms"),
     "task_p50_ms on cli, and setup_s everywhere"),
    ("cli.import_ms", "ms", "lower", ("extra", "cli.import_ms"),
     "task_p50_ms on cli, and setup_s everywhere"),
    ("cli.main.self_s", SECONDS_PER_TASK, "lower", ("self_s", "cli.main"),
     "task_p50_ms on cli"),
    ("cli.basis.p50_ms", "ms", "lower", ("extra", "cli.basis.p50_ms"), "cli"),
    ("cli.solve.p50_ms", "ms", "lower", ("extra", "cli.solve.p50_ms"), "cli"),
    ("cli.diffcheck.p50_ms", "ms", "lower", ("extra", "cli.diffcheck.p50_ms"), "cli"),
    ("cli.atlas.p50_ms", "ms", "lower", ("extra", "cli.atlas.p50_ms"), "cli"),
    ("cli.darboux.p50_ms", "ms", "lower", ("extra", "cli.darboux.p50_ms"), "cli"),
    ("cli.selftest.p50_ms", "ms", "lower", ("extra", "cli.selftest.p50_ms"), "cli"),
    ("cli.exit_mismatch", PER_TASK, "lower", ("extra", "cli.exit_mismatch"),
     "ok_share on cli"),
    # the trace itself
    ("trace.overhead_ratio", "ratio", "higher", ("extra", "trace.overhead_ratio"),
     "traced / untraced tasks_per_s on the same tasks; not a program metric"),
    ("trace.tasks", "count", "higher", ("extra", "trace.tasks"),
     "base of every per-task figure"),
]


def layer_values(totals: dict, tasks: int, extra: dict) -> dict:
    """Every per-layer metric from merged tracer totals over ``tasks`` tasks."""
    out = {}
    for name, unit, _better, source, _moves in LAYER_METRICS:
        kind = source[0]
        if kind == "extra":
            value = extra.get(source[1], 0.0)
        elif kind == "ratio":
            base = totals.get("calls", {}).get(source[2], 0)
            hits = totals.get("events", {}).get(source[1], 0)
            value = hits / base if base else 0.0
        else:
            value = totals.get(kind, {}).get(source[1], 0) / tasks
        out[name] = {"value": value, "unit": unit}
    return out
