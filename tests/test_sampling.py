import numpy as np
import pytest

from pqdist.exterior import gram_deviation, wedge3
from pqdist.metric import shortest_path_closure, validate_distance_matrix
from pqdist.sampling import (
    MATRIX_MODES,
    _orthonormalize_triples,
    _symmetric_from_pairs,
    distance_matrices_batch,
    orthonormal_triples_batch,
    pair_weights_batch,
    sample_distance_matrix,
    sample_orthonormal_triple,
    sample_pure_state,
    sample_symmetric_weights,
    states_batch,
    trial_rng,
)


class TestStreams:
    def test_same_key_same_bits(self):
        a = trial_rng(42, 3).standard_normal(16)
        b = trial_rng(42, 3).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = trial_rng(42, 0).standard_normal(16)
        b = trial_rng(42, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = trial_rng(1, 0).standard_normal(16)
        b = trial_rng(2, 0).standard_normal(16)
        assert not np.array_equal(a, b)


class TestPureStates:
    def test_unit_norm(self):
        rng = trial_rng(0)
        for n in (1, 2, 5, 16):
            v = sample_pure_state(n, rng)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_one_is_a_phase(self):
        v = sample_pure_state(1, trial_rng(5))
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-14)

    def test_deterministic_for_fixed_seed(self):
        a = sample_pure_state(4, trial_rng(42))
        b = sample_pure_state(4, trial_rng(42))
        assert np.array_equal(a, b)

    def test_first_component_moment(self):
        # the uniform measure spreads weight evenly: E|x_1|^2 = 1/n
        rng = trial_rng(9)
        v = states_batch(rng, 100_000, 4)
        mean = float(np.mean(np.abs(v[:, 0]) ** 2))
        assert mean == pytest.approx(0.25, abs=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_pure_state(0, trial_rng(0))

    def test_single_draws_equal_batch_rows_bitwise(self):
        for seed in range(50):
            for n in (2, 3, 5, 8):
                state = sample_pure_state(n, trial_rng(seed))
                assert np.array_equal(state, states_batch(trial_rng(seed), 1, n)[0])


class TestOrthonormalTriples:
    def test_gram_is_identity(self):
        x, y, z = sample_orthonormal_triple(3, trial_rng(1))
        assert gram_deviation([x, y, z]) <= 1e-12

    def test_stacked_matrix_is_unitary_at_n3(self):
        x, y, z = sample_orthonormal_triple(3, trial_rng(2))
        assert abs(abs(np.linalg.det(np.stack([x, y, z]))) - 1.0) <= 1e-10

    def test_squared_minors_sum_to_one(self):
        x, y, z = sample_orthonormal_triple(8, trial_rng(3))
        assert wedge3(x, y, z).norm_sq() == pytest.approx(1.0, abs=1e-10)

    def test_needs_three_dimensions(self):
        with pytest.raises(ValueError):
            sample_orthonormal_triple(2, trial_rng(0))

    def test_batch_agrees_on_gram(self):
        u, v, w, ok = orthonormal_triples_batch(trial_rng(4), 64, 5)
        assert ok.all()
        for k in (0, 13, 63):
            assert gram_deviation([u[k], v[k], w[k]]) <= 1e-12


class TestDistanceMatrices:
    @pytest.mark.parametrize("mode", MATRIX_MODES)
    def test_all_modes_validate(self, mode):
        rng = trial_rng(7)
        for n in (2, 4, 6):
            m = sample_distance_matrix(n, mode, rng)
            assert m.n == n  # from_array already validated

    @pytest.mark.parametrize("mode", MATRIX_MODES)
    def test_two_point_case(self, mode):
        m = sample_distance_matrix(2, mode, trial_rng(8))
        assert m.entries[0, 1] > 0 and m.entries[0, 1] == m.entries[1, 0]

    def test_repaired_random_closure_idempotent(self):
        d = _symmetric_from_pairs(distance_matrices_batch(trial_rng(9), 8, 5, "repaired-random"), 5)
        for k in range(8):
            again = shortest_path_closure(d[k])
            assert np.allclose(again, d[k], atol=1e-15)
            assert validate_distance_matrix(d[k]).ok

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_symmetric_from_pairs_equals_scatter(self, n, lead):
        w = np.random.default_rng(n).random(lead + (n * (n - 1) // 2,))
        want = np.zeros(lead + (n, n))
        i, j = np.triu_indices(n, 1)
        want[..., i, j] = w
        want[..., j, i] = w
        got = _symmetric_from_pairs(w, n)
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_zero_one_mode_values(self):
        m = sample_distance_matrix(4, "zero-one", trial_rng(10))
        off = m.entries[~np.eye(4, dtype=bool)]
        assert set(np.unique(off)) <= {1.0, 2.0}

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown matrix mode"):
            sample_distance_matrix(4, "bogus", trial_rng(0))


class TestWeights:
    def test_symmetric_nonnegative_zero_diagonal(self):
        a = sample_symmetric_weights(6, trial_rng(11))
        assert np.array_equal(a, a.T)
        assert np.all(a >= 0) and np.all(np.diag(a) == 0)

    def test_zero_one_mode(self):
        w = pair_weights_batch(trial_rng(12), 16, 5, "zero-one")
        assert set(np.unique(w)) <= {0.0, 1.0}


def _reference_orthonormalize(x, y, z):
    """The C-order Gram-Schmidt every n used before the column-major path below four components."""
    tmp = np.empty(x.shape, dtype=complex)

    def project_out(q, r):
        np.multiply(np.conjugate(q, out=tmp), r, out=tmp)
        np.multiply(tmp.sum(axis=1, keepdims=True), q, out=tmp)
        r -= tmp

    def unit(r):
        np.multiply(np.conjugate(r, out=tmp), r, out=tmp)
        nr = np.sqrt(tmp.real.sum(axis=1, keepdims=True))
        r /= np.where(nr == 0, 1.0, nr)
        return r, nr[:, 0] > 1e-8

    u, ok_u = unit(np.array(x, dtype=complex))
    yv = np.array(y, dtype=complex)
    for _ in range(2):
        project_out(u, yv)
    v, ok_v = unit(yv)
    zv = np.array(z, dtype=complex)
    for _ in range(2):
        project_out(u, zv)
        project_out(v, zv)
    w, ok_w = unit(zv)
    return u, v, w, ok_u & ok_v & ok_w


class TestSameBitsAsWholeArrayDraws:
    """Each draw stage keeps the bits of the whole-array expression it replaced."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 16, 64])
    @pytest.mark.parametrize("count", [1, 513])
    def test_euclidean_draw(self, n, count):
        pts = trial_rng(n, count).random((count, n, 3))
        diff = pts[:, :, None, :] - pts[:, None, :, :]
        want = np.sqrt(np.square(diff).sum(axis=-1))
        got = distance_matrices_batch(trial_rng(n, count), count, n, "euclidean-points")
        i, j = np.triu_indices(n, 1)
        assert np.array_equal(got, want[:, i, j])  # pair values
        assert np.array_equal(_symmetric_from_pairs(got, n), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 64])
    def test_states(self, n):
        rng = trial_rng(n)
        v = rng.standard_normal((300, n)) + 1j * rng.standard_normal((300, n))
        want = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.array_equal(states_batch(trial_rng(n), 300, n), want)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("strided", [False, True])
    def test_orthonormalize(self, n, strided):
        # n < 4 runs column-major, n >= 4 row-major; strided rows are the
        # reduction's frame columns cols[:, a] of a (rows, 3, n) stack
        rng = trial_rng(40 + n)
        if strided:
            cols = rng.standard_normal((700, 3, n)) + 1j * rng.standard_normal((700, 3, n))
            xyz = cols[:, 0], cols[:, 1], cols[:, 2]
        else:
            xyz = tuple(states_batch(rng, 700, n) for _ in range(3))
        got, want = _orthonormalize_triples(*xyz), _reference_orthonormalize(*xyz)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert got[3].all() == (n >= 3)


@pytest.mark.parametrize("mode", MATRIX_MODES)
def test_zero_count_draws_are_empty(mode):
    assert distance_matrices_batch(trial_rng(0), 0, 4, mode).shape == (0, 6)
