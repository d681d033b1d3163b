"""Distances on pure quantum states induced by a distance matrix.

The induced distance raises the matrix entries to an exponent p, weights the
squared 2x2 minors of two unit vectors with them, and takes the p-th root of
the sum; it is a genuine metric for every p >= 2, which makes the canonical
basis an isometric copy of any finite metric space.  The package couples the
evaluators with a verification lab: exterior-algebra primitives, single-case
inequality checkers, seeded fuzz campaigns, counterexample construction for
p < 2, and a defect minimizer for the 3-dimensional criterion.
"""

from ._version import __version__
from .exterior import (
    Bivector,
    Trivector,
    cross3,
    inner,
    wedge2,
    wedge3,
)
from .metric import (
    DistanceMatrix,
    DistanceMatrixError,
    DpMetric,
    d2,
    d_hs,
    d_p,
    dp_from_weights,
    embed,
    spectral_condition_n3,
    validate_distance_matrix,
)
from .checks import (
    Counterexample,
    check_convexity,
    check_generator_identity_w1,
    check_minorial,
    check_orthonormal_reduction,
    check_projector_inequality,
    counterexample_p_lt_2,
)
from .fuzz import TrialConfig, VerificationReport, reevaluate_witness, run_fuzz
from .optimize import MinimizeResult, minimize_defect_n3
from .sampling import (
    sample_distance_matrix,
    sample_orthonormal_triple,
    sample_pure_state,
    sample_symmetric_weights,
    trial_rng,
)

__all__ = [
    "__version__",
    "Bivector",
    "Trivector",
    "inner",
    "wedge2",
    "wedge3",
    "cross3",
    "DistanceMatrix",
    "DistanceMatrixError",
    "DpMetric",
    "validate_distance_matrix",
    "d_hs",
    "d_p",
    "d2",
    "dp_from_weights",
    "spectral_condition_n3",
    "embed",
    "Counterexample",
    "check_minorial",
    "check_projector_inequality",
    "check_convexity",
    "check_generator_identity_w1",
    "check_orthonormal_reduction",
    "counterexample_p_lt_2",
    "TrialConfig",
    "VerificationReport",
    "run_fuzz",
    "reevaluate_witness",
    "MinimizeResult",
    "minimize_defect_n3",
    "trial_rng",
    "sample_pure_state",
    "sample_orthonormal_triple",
    "sample_distance_matrix",
    "sample_symmetric_weights",
]
