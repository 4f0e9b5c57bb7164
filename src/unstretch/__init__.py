"""Exact arithmetic, word metrics, and growth experiments for groups of the
form Z^d twisted by a hyperbolic integer matrix, plus the suspension-geometry
distance bound and desk-scale Lyapunov estimators that go with them.

The names below are loaded on first use (PEP 562), each from its module, so
that ``import unstretch`` loads no submodule and a CLI run loads only the
modules its experiment uses.
"""

import importlib

__version__ = "0.1.0"

CAT_MAP = ((2, 1), (1, 1))

_EXPORTS = {
    "autos": (
        "GroupAutomorphism", "apply_automorphism", "enumerate_commuting_matrices",
        "validate_automorphism",
    ),
    "dynamics": (
        "GrowthCurve", "GrowthVerdict", "IterationConfig", "abelian_control",
        "classify_growth", "envelope_offset", "iterate_once", "run_iteration",
    ),
    "errors": ("BudgetError", "CertificationError", "UnstretchError", "ValidationError"),
    "group": (
        "GroupContext", "GroupElement", "ToralMatrix", "check_hyperbolic",
        "identity_element", "lattice_element", "z_element",
    ),
    "suspension": (
        "HyperbolicSplitting", "compute_splitting", "log_distance_bounds", "qi_comparison",
    ),
    "words": (
        "BoxSet", "Diameter", "GeneratingSet", "WordLengthOracle", "choose_lambda",
        "neighborhood", "set_diameter", "word_ball",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
