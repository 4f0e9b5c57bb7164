"""Exact arithmetic, word metrics, and growth experiments for groups of the
form Z^d twisted by a hyperbolic integer matrix, plus the suspension-geometry
distance bound and desk-scale Lyapunov estimators that go with them."""

__version__ = "0.1.0"

from .autos import (
    GroupAutomorphism,
    apply_automorphism,
    enumerate_commuting_matrices,
    validate_automorphism,
)
from .dynamics import (
    GrowthCurve,
    GrowthVerdict,
    IterationConfig,
    abelian_control,
    classify_growth,
    envelope_offset,
    iterate_once,
    run_iteration,
)
from .errors import BudgetError, CertificationError, UnstretchError, ValidationError
from .group import (
    GroupContext,
    GroupElement,
    ToralMatrix,
    check_hyperbolic,
    identity_element,
    lattice_element,
    z_element,
)
from .suspension import (
    HyperbolicSplitting,
    compute_splitting,
    log_distance_bounds,
    qi_comparison,
)
from .words import (
    BoxSet,
    Diameter,
    GeneratingSet,
    WordLengthOracle,
    choose_lambda,
    neighborhood,
    set_diameter,
    word_ball,
)

CAT_MAP = ((2, 1), (1, 1))
