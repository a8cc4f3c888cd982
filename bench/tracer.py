"""Spans and counters around dualmod's public functions, installed from outside.

The tracer wraps every public function defined in the traced modules and
rebinds the wrapper in every ``dualmod*`` namespace that holds the original,
so calls through ``from dualmod.core import mul`` are seen as well as calls
through ``core.mul``.  Hot scalar operations are only counted; the functions
named in SPANNED also record time.  A span's self time is its duration minus
the time its child spans cover.  Recursive ``eval_expr`` calls count as
nodes but fold into the outermost ``eval_expr`` span.

Nothing in the library changes: ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("core", "linalg", "diff", "manifold", "symplectic", "cli")

SPANNED = {
    "linalg.extract_basis",
    "linalg.solve",
    "linalg.apply",
    "linalg.is_isomorphism",
    "linalg.inverse_map",
    "linalg.is_independent",
    "diff.eval_expr",
    "diff.numeric_jacobian",
    "diff.cr_check",
    "diff.forward_derivative",
    "diff.limit_check",
    "diff.compose_funcs",
    "manifold.verify_atlas",
    "manifold.chart_map",
    "symplectic.darboux_basis",
    "symplectic.random_form",
    "symplectic.check_form",
    "symplectic.verify_darboux",
    "cli.main",
}


def _unique_nodes(func) -> int:
    seen = set()
    stack = list(func.components)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        stack.extend(e.args)
    return len(seen)


class Tracer:
    """Per-name call counts, self and total seconds, and event counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.events = Counter()
        self._stack = []  # one [child_seconds] cell per open span
        self._active = Counter()  # open spans (and eval_expr depth) by name
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _enter(self):
        cell = [0.0]
        self._stack.append(cell)
        return cell

    def _exit(self, name, cell, t0):
        dur = time.perf_counter() - t0
        self._stack.pop()
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - cell[0]
        if self._stack:
            self._stack[-1][0] += dur

    def _exclude(self, seconds):
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    def _note_exception(self, exc):
        """Count each library exception once, at the first public boundary
        it escapes; a re-raise that wraps it is the same failure."""
        if getattr(exc, "_bench_counted", False):
            return
        for prior in (exc.__cause__, exc.__context__):
            if prior is not None and getattr(prior, "_bench_counted", False):
                exc._bench_counted = True
                return
        name = type(exc).__name__
        key = {
            "NotInvertible": "core.not_invertible",
            "EvaluationFailed": "diff.evaluation_failed",
            "NoSolution": "linalg.no_solution",
        }.get(name)
        if key is None:
            return
        self.events[key] += 1
        try:
            exc._bench_counted = True
        except AttributeError:
            pass

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        if name == "diff.eval_expr":
            return self._wrap_eval_expr(fn)
        spanned = name in SPANNED

        def wrapper(*args, **kwargs):
            tracer._active[name] += 1
            if name == "diff.eval_func" and tracer._active["diff.numeric_jacobian"]:
                tracer.events["diff.jacobian_probes"] += 1
            cell = tracer._enter() if spanned else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_exception(exc)
                raise
            finally:
                tracer._active[name] -= 1
                if spanned:
                    tracer._exit(name, cell, t0)
                else:
                    tracer.calls[name] += 1
            tracer._after(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_eval_expr(self, fn):
        tracer = self
        name = "diff.eval_expr"

        def wrapper(*args, **kwargs):
            tracer.events["diff.eval_expr.nodes"] += 1
            if tracer._active[name]:
                return fn(*args, **kwargs)
            tracer._active[name] += 1
            cell = tracer._enter()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_exception(exc)
                raise
            finally:
                tracer._active[name] -= 1
                tracer._exit(name, cell, t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, name, result):
        if name == "diff.cr_check" and result.passed:
            self.events["diff.cr_check.passed"] += 1
        elif name == "manifold.in_transition_domain" and result:
            self.events["manifold.transition_hits"] += 1
        elif name == "diff.compose_funcs":
            t0 = time.perf_counter()
            self.events["diff.compose_funcs.unique_nodes"] += _unique_nodes(result)
            self._exclude(time.perf_counter() - t0)

    def _wrap_post_init(self, key, cls):
        tracer = self
        orig = cls.__dict__.get("__post_init__")

        def post_init(obj):
            tracer.events[key] += 1
            orig(obj)

        return orig, post_init

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of the traced modules everywhere."""
        for short in TRACED_MODULES:
            importlib.import_module("dualmod." + short)
        namespaces = [
            mod
            for modname, mod in sorted(sys.modules.items())
            if mod is not None
            and (modname == "dualmod" or modname.startswith("dualmod."))
        ]
        for short in TRACED_MODULES:
            module = sys.modules["dualmod." + short]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap("%s.%s" % (short, attr), obj)
                for ns in namespaces:
                    for bound, val in list(vars(ns).items()):
                        if val is obj:
                            self._patches.append((ns, bound, obj))
                            setattr(ns, bound, wrapper)

        core = sys.modules["dualmod.core"]
        for key, cls in (("core.dual_new", core.DualNumber), ("core.vector_new", core.DualVector)):
            orig, hook = self._wrap_post_init(key, cls)
            self._patches.append((cls, "__post_init__", orig))
            setattr(cls, "__post_init__", hook)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- export ------------------------------------------------------------

    def totals(self) -> dict:
        """Plain-JSON totals; ``merge`` adds such dicts across processes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "events": dict(self.events),
        }


def merge(into: dict, other: dict) -> dict:
    for section in ("calls", "self_s", "total_s", "events"):
        dst = into.setdefault(section, {})
        for key, val in other.get(section, {}).items():
            dst[key] = dst.get(key, 0) + val
    return into
