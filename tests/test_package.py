"""The package's lazy export table: every name resolves to its module's
object, ``import dualmod`` loads no module, and attaching a module binds its
exports as plain attributes.  The import-order checks run in a fresh
interpreter, since this process has already loaded every module."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import dualmod

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the names the package exported when it imported every module eagerly
EXPORTED = [
    "AtlasCheck", "AtlasReport", "CR_DEFAULT_TOL", "CheckResult", "CrReport", "DEFAULT_TOL",
    "DarbouxBasis", "DarbouxReport", "DualFunc", "DualNumber", "DualVector", "EPS", "EmptyShape",
    "EvaluationFailed", "Expr", "ExprAtlas", "ExprChart", "FD_DEFAULT_STEP", "FormInvalid",
    "GramForm", "InvalidRepresentative", "ModuleMap", "NoSolution", "NonSmoothExpression",
    "NotInChart", "NotInKer", "NotInvertible", "NumericalBreakdown", "ONE", "ProjectiveAtlas",
    "ProjectivePoint", "SelftestReport", "ShapeMismatch", "SplitBasis", "ZERO", "apply",
    "atlas_from_json", "basis_map", "basis_vector", "canonical_rep", "chart_inverse", "chart_map",
    "check_form", "compose", "compose_funcs", "const", "coord", "cr_check", "darboux_basis",
    "default_tol", "equivalent", "eval_expr", "eval_form", "eval_func", "extract_basis",
    "forward_derivative", "func_from_module_map", "head_coord", "identity_func", "in_chart",
    "in_im_sharp", "in_ker_sharp", "in_transition_domain", "inner", "inv", "inv_expr",
    "inverse_map", "is_independent", "is_invertible", "is_isomorphism", "is_valid_rep",
    "is_zero_divisor", "limit_check", "map_from_realified", "mul", "numeric_jacobian",
    "random_form", "random_rep", "random_reps", "re_part", "realified_jacobian", "realify",
    "realify_map", "residual_norm", "run_selftest", "scalar_mul", "scalar_norm",
    "set_default_tol", "sharp_action", "sharp_expr", "solve", "standard_basis", "standard_form",
    "tail_coord", "transition", "unrealify", "vector", "vector_norm", "verify_atlas",
    "verify_darboux", "ze_part", "zero_vector",
]


def fresh(code):
    """What ``code`` prints as JSON, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "sorted(m for m in sys.modules if m.startswith('dualmod'))"


def test_all_is_the_exported_names():
    assert len(EXPORTED) == 102
    assert sorted(dualmod.__all__) == EXPORTED


@pytest.mark.parametrize("module", sorted(dualmod.EXPORTS))
def test_each_name_is_its_modules_object(module):
    source = importlib.import_module("dualmod." + module)
    assert getattr(dualmod, module) is source
    for name in dualmod.EXPORTS[module]:
        assert getattr(dualmod, name) is getattr(source, name), name
        assert vars(dualmod)[name] is getattr(source, name), name
        assert getattr(getattr(source, name), "__module__", source.__name__) == source.__name__, name


def test_dir_lists_every_export():
    assert set(dualmod.__all__) <= set(dir(dualmod))
    assert {"__version__", "core", "manifold"} <= set(dir(dualmod))


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        dualmod.frobnicate
    with pytest.raises(ImportError):
        from dualmod import frobnicate  # noqa: F401


def test_bare_import_loads_no_module():
    assert fresh("import json, sys, dualmod; print(json.dumps(%s))" % LOADED) == ["dualmod"]


def test_module_resolves_after_bare_import():
    loaded = fresh(
        "import json, sys, dualmod\n"
        "assert dualmod.manifold is sys.modules['dualmod.manifold']\n"
        "assert dualmod.verify_atlas is dualmod.manifold.verify_atlas\n"
        "print(json.dumps(%s))" % LOADED
    )
    assert loaded == ["dualmod", "dualmod.core", "dualmod.diff", "dualmod.linalg", "dualmod.manifold"]


def test_importing_a_module_binds_its_exports():
    """A tracer that patches package attributes and restores them needs the
    exports of every loaded module to be plain attributes already."""
    bound = fresh(
        "import json, sys, dualmod.diff\n"
        "d = vars(sys.modules['dualmod'])\n"
        "print(json.dumps({m: [n in d and d[n] is getattr(sys.modules['dualmod.' + m], n, None)\n"
        "                      for n in dualmod.EXPORTS[m]] for m in ('core', 'linalg', 'diff')}))"
    )
    assert bound == {m: [True] * len(dualmod.EXPORTS[m]) for m in ("core", "linalg", "diff")}
    patched = fresh(
        "import json, dualmod.core\n"
        "original = dualmod.mul\n"
        "dualmod.mul = None\n"
        "import dualmod.manifold\n"
        "patched = dualmod.mul is None\n"
        "dualmod.mul = original\n"
        "print(json.dumps([patched, dualmod.mul is dualmod.core.mul, 'verify_atlas' in vars(dualmod)]))"
    )
    assert patched == [True, True, True]
