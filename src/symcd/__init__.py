"""Exact intersection theory on symmetric powers of curves.

The package computes, in exact rational arithmetic, divisor and cycle classes
on the d-th symmetric power C_d of a smooth projective curve of genus g,
their intersection numbers, the known boundaries of the effective and nef
cones in the (theta, x)-plane, and the proven pieces of the volume function.

The public names below are re-exported lazily (PEP 562): a submodule is
imported the first time one of its names, or the submodule itself, is looked
up on the package, so ``import symcd`` alone loads none of them.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it.  The one list of them: each
# submodule reads its __all__ from it, and runs only after this module, which imports none.
_EXPORTS = {
    "combinatorics": (
        "BivariateSeries",
        "gen_binomial",
    ),
    "cycles": (
        "as_rational",
        "CycleClass",
        "divisor_class",
        "evaluate_top",
        "multiply",
        "theta_class",
        "x_class",
    ),
    "catalog": (
        "TestCurveSolution",
        "binomial_convolution_identity",
        "bipartition_diagonal_class",
        "bipartition_diagonal_extraction",
        "hyperelliptic_pencil_locus_class",
        "pencil_residual_divisor_class",
        "pencil_residual_sums",
        "ramification_divisor_class",
        "small_diagonal_class",
        "solve_test_curve_system",
        "subordinate_class",
        "subordinate_pencil_intersections",
    ),
    "cones": (
        "residuation_pullback",
        "Cone2D",
        "ConeStatus",
        "Membership",
        "NefFacts",
        "Ray",
        "effective_cone",
        "effective_slope_bound",
        "general_volume_limit",
        "hyperelliptic_volume_limit",
        "nef_facts",
        "volume_general",
        "volume_hyperelliptic",
        "volume_integrality",
    ),
    "errors": ("OutOfProvenDomainError", "PreconditionError"),
    "verify": ("CheckReport", "CheckStatus", "all_passed", "run_all"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
