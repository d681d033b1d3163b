"""Input gates that no other test reaches: each malformed call raises its own message."""

import math

import numpy as np
import pytest

from pqdist.checks import check_minorial, counterexample_p_lt_2
from pqdist.exterior import Bivector, wedge2, wedge3, wedge_bv
from pqdist.fuzz import reevaluate_witness
from pqdist.sampling import distance_matrices_batch, sample_symmetric_weights

_E1, _E2, _E3 = np.eye(3)

_GATES = {
    "vector-not-1d": (lambda: wedge2(np.eye(2), [1.0, 0.0]), r"expected a 1-D vector, got shape \(2, 2\)"),
    "coefficient-count": (lambda: Bivector(3, [1.0, 2.0]), r"bivector in dimension 3 needs 3 coefficients"),
    "wedge3-below-3": (lambda: wedge3([1, 0], [0, 1], [1, 1]), r"wedge3 needs dimension >= 3"),
    "wedge-bv-mismatch": (lambda: wedge_bv(Bivector(3, [1, 0, 0]), [1, 0]), r"dimension mismatch: 3 vs 2"),
    "wedge-bv-below-3": (lambda: wedge_bv(Bivector(2, [1]), [1, 0]), r"bivector-vector wedge needs dimension >= 3"),
    "weights-vs-states": (lambda: check_minorial(np.zeros((4, 4)), _E1, _E2, _E3), r"does not match the state"),
    "counterexample-e12": (lambda: counterexample_p_lt_2(1.5, 0.0), r"off-diagonal entry must be positive"),
    "non-finite-pair": (
        lambda: reevaluate_witness("triangle", {"x": [[math.inf, 0.0]]}),
        r"triangle witness: key 'x' must be finite",
    ),
    "replay-property": (lambda: reevaluate_witness("nope", {}), r"unknown property 'nope'"),
    "matrix-size": (
        lambda: distance_matrices_batch(np.random.default_rng(0), 4, 1, "zero-one"),
        r"distance matrices need size >= 2",
    ),
    "weight-mode": (
        lambda: sample_symmetric_weights(3, np.random.default_rng(0), "gauss"),
        r"unknown weight mode 'gauss'",
    ),
}


@pytest.mark.parametrize("name", _GATES)
def test_gate_rejects_its_input(name):
    call, message = _GATES[name]
    with pytest.raises(ValueError, match=message):
        call()
