"""Dual-real algebra with split vectors, module maps, differentiation,
projective charts, and symplectic canonical bases.

``import dualmod`` loads none of the package's modules.  ``EXPORTS`` names
the objects each module exports at package level; the first access to one
of them, or to a module such as ``dualmod.diff``, imports that module.
Whenever a module is attached to the package, by whatever import, its
exports are bound here as plain attributes: later lookups are ordinary
attribute hits, and a name patched here (by a test or a tracer) is exactly
what a restore puts back.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

EXPORTS = {
    "core": (
        "DEFAULT_TOL", "EPS", "ONE", "ZERO", "DualNumber", "DualVector",
        "NotInvertible", "ShapeMismatch", "basis_vector", "default_tol",
        "in_im_sharp", "in_ker_sharp", "inner", "inv", "is_invertible",
        "is_zero_divisor", "mul", "scalar_mul", "scalar_norm",
        "set_default_tol", "sharp_action", "standard_basis", "vector",
        "vector_norm", "zero_vector",
    ),
    "diff": (
        "CR_DEFAULT_TOL", "FD_DEFAULT_STEP", "CrReport", "DualFunc",
        "EvaluationFailed", "Expr", "NonSmoothExpression", "compose_funcs",
        "const", "coord", "cr_check", "eval_expr", "eval_func",
        "forward_derivative", "func_from_module_map", "head_coord",
        "identity_func", "inv_expr", "limit_check", "numeric_jacobian",
        "re_part", "realified_jacobian", "sharp_expr", "tail_coord", "ze_part",
    ),
    "linalg": (
        "ModuleMap", "NoSolution", "NotInKer", "NumericalBreakdown",
        "SplitBasis", "apply", "basis_map", "compose", "extract_basis",
        "inverse_map", "is_independent", "is_isomorphism",
        "map_from_realified", "realify", "realify_map", "residual_norm",
        "solve", "unrealify",
    ),
    "manifold": (
        "AtlasCheck", "AtlasReport", "ExprAtlas", "ExprChart",
        "InvalidRepresentative", "NotInChart", "ProjectiveAtlas",
        "ProjectivePoint", "atlas_from_json", "canonical_rep", "chart_inverse",
        "chart_map", "equivalent", "in_chart", "in_transition_domain",
        "is_valid_rep", "random_rep", "random_reps", "transition",
        "verify_atlas",
    ),
    "selftest": ("CheckResult", "SelftestReport", "run_selftest"),
    "symplectic": (
        "DarbouxBasis", "DarbouxReport", "EmptyShape", "FormInvalid",
        "GramForm", "check_form", "darboux_basis", "eval_form", "random_form",
        "standard_form", "verify_darboux",
    ),
    "sampling": (),
    "cli": (),
}

__all__ = [name for names in EXPORTS.values() for name in names]
_OWNER = {name: module for module, names in EXPORTS.items() for name in names}


class _Package(types.ModuleType):
    """The package's module type: attaching a submodule binds its exports."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, types.ModuleType) and value.__name__ == __name__ + "." + name:
            for export in EXPORTS.get(name, ()):
                super().__setattr__(export, getattr(value, export))


def __getattr__(name):
    module = _OWNER.get(name, name)
    if module not in EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    submodule = importlib.import_module(__name__ + "." + module)
    return submodule if name == module else getattr(submodule, name)


def __dir__():
    return sorted(set(globals()) | set(EXPORTS) | set(__all__))


sys.modules[__name__].__class__ = _Package
