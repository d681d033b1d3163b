import numpy as np
import pytest

from pqdist.metric import dp_from_weights, spectral_condition_n3
from pqdist.optimize import _defect_and_gradient, minimize_defect_n3


def direct_defect(lam, p, triple):
    """Independent evaluation of the defect at the returned triple."""
    entries = np.array([[0, lam[2], lam[1]], [lam[2], 0, lam[0]], [lam[1], lam[0], 0]])
    x, y, z = triple
    return (
        dp_from_weights(entries, p, x, z)
        + dp_from_weights(entries, p, y, z)
        - dp_from_weights(entries, p, x, y)
    )


class TestMinimizer:
    def test_equal_weights_floor_is_zero(self):
        res = minimize_defect_n3((1, 1, 1), 2.0, seed=3)
        assert -1e-9 <= res.min_defect <= 1e-4

    def test_violating_weights_found_at_canonical(self):
        res = minimize_defect_n3((1, 1, 3), 2.0, seed=3)
        assert res.min_defect <= -0.999

    def test_boundary_weights(self):
        res = minimize_defect_n3((1, 2, 3), 2.0, seed=3)
        assert abs(res.min_defect) <= 1e-6

    def test_returned_triple_reproduces_value(self):
        lam = (0.8, 1.1, 0.9)
        res = minimize_defect_n3(lam, 3.0, seed=5)
        assert direct_defect(lam, 3.0, res.triple) == pytest.approx(res.min_defect, abs=1e-9)
        for v in res.triple:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_satisfying_weights_never_go_negative(self):
        rng = np.random.default_rng(0)
        for k in range(8):
            lam = rng.uniform(0.2, 2.0, 3)
            while not spectral_condition_n3(*lam):
                lam = rng.uniform(0.2, 2.0, 3)
            res = minimize_defect_n3(lam, float(rng.choice([2.0, 3.0, 5.0])), seed=k)
            assert res.min_defect >= -1e-7

    def test_deterministic(self):
        a = minimize_defect_n3((1.3, 0.9, 1.1), 2.0, seed=11)
        b = minimize_defect_n3((1.3, 0.9, 1.1), 2.0, seed=11)
        assert a.min_defect == b.min_defect
        assert a.iterations == b.iterations
        assert all(np.array_equal(u, v) for u, v in zip(a.triple, b.triple))

    def test_guards(self):
        with pytest.raises(ValueError, match="p >= 2"):
            minimize_defect_n3((1, 1, 1), 1.5)
        with pytest.raises(ValueError, match="positive"):
            minimize_defect_n3((1, -1, 1), 2.0)
        with pytest.raises(ValueError, match="three"):
            minimize_defect_n3((1, 1), 2.0)


class TestObjective:
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 5.0])
    def test_gradient_matches_central_difference(self, p):
        # f(v + t h) - f(v - t h) ~ 2t * 2 Re<g, h>, with g the derivative in conj(v)
        rng = np.random.default_rng(int(10 * p))
        lam = rng.uniform(0.5, 2.0, 3)
        v = rng.standard_normal((3, 6, 3)) + 1j * rng.standard_normal((3, 6, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        h = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        f, g = _defect_and_gradient(v, lam**p, 1.0 / p)
        slope = 2.0 * (np.conj(g) * h).real.sum(axis=(0, 2))
        t = 1e-6
        for k in range(v.shape[1]):
            assert f[k] == pytest.approx(direct_defect(lam, p, v[:, k]), rel=1e-12)
            diff = direct_defect(lam, p, (v + t * h)[:, k]) - direct_defect(lam, p, (v - t * h)[:, k])
            assert slope[k] == pytest.approx(diff / (2 * t), rel=1e-6)

    def test_nonfinite_row_does_not_hide_the_best(self):
        # a row renormalized from an exact zero is NaN; its value must read +inf,
        # or argmin would return it ahead of the canonical witness (defect -1)
        rng = np.random.default_rng(4)
        lam = np.array([1.0, 1.0, 3.0])
        v = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            v[:, 1] = np.zeros(3) / np.linalg.norm(np.zeros(3))
            v[:, 2] = np.eye(3)  # (x, y, z) = (e1, e2, e3): 1 + 1 - 3
            f, _ = _defect_and_gradient(v, lam**2, 0.5)
        assert f[1] == np.inf
        assert f[2] == pytest.approx(-1.0, abs=1e-15)
        assert int(np.argmin(f)) == 2

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 5.0])
    def test_canonical_witness_is_never_lost(self, p):
        rng = np.random.default_rng(int(10 * p))
        for case in range(3):
            lam = rng.uniform(0.2, 2.0, 3)
            k = int(rng.integers(3))
            lam[k] = (lam.sum() - lam[k]) * (1.0 + rng.uniform(0.1, 1.0))
            res = minimize_defect_n3(lam, p, restarts=8, iterations=300, seed=case)
            assert res.min_defect <= -(2 * lam.max() - lam.sum()) + 1e-12
