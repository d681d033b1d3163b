import tracemalloc

import numpy as np
import pytest

from conftest import basis, orthonormal_basis, unit_vector
from pqdist.exterior import _hodge_frame, wedge2
from pqdist.metric import (
    DistanceMatrix,
    DistanceMatrixError,
    DpMetric,
    _dp_inputs,
    _restricted_form_rows,
    _slice_rows,
    d2,
    d_hs,
    d_p,
    dp_from_weights,
    embed,
    pair_weights,
    shortest_path_closure,
    spectral_condition_n3,
    validate_distance_matrix,
)
from pqdist.sampling import distance_matrices_batch, trial_rng


def euclidean_matrix(rng, n):
    pts = rng.random((n, 3))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))


class TestValidation:
    def test_smallest_metric(self):
        result = validate_distance_matrix([[0, 1], [1, 0]])
        assert result.ok and result.matrix.n == 2

    def test_triangle_violation_with_witness(self):
        result = validate_distance_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert not result.ok
        kinds = {v.kind for v in result.violations}
        assert kinds == {"triangle"}
        assert result.violations[0].indices == (0, 1, 2)

    def test_negative_entry(self):
        result = validate_distance_matrix([[0, -1], [-1, 0]])
        assert any(v.kind == "nonpositive-offdiagonal" for v in result.violations)

    def test_zero_offdiagonal_rejected(self):
        result = validate_distance_matrix([[0, 0], [0, 0]])
        assert not result.ok

    def test_asymmetry_and_diagonal(self):
        result = validate_distance_matrix([[0, 1], [1.5, 0]])
        assert any(v.kind == "asymmetric" for v in result.violations)
        result = validate_distance_matrix([[0.5, 1], [1, 0]])
        assert any(v.kind == "nonzero-diagonal" for v in result.violations)

    def test_malformed_inputs_raise(self):
        with pytest.raises(ValueError, match="square"):
            validate_distance_matrix([[0, 1, 2], [1, 0, 1]])
        with pytest.raises(ValueError, match="finite"):
            validate_distance_matrix(np.array([[0, np.nan], [np.nan, 0]]))
        with pytest.raises(ValueError, match="finite"):
            validate_distance_matrix(np.array([[0, np.inf], [np.inf, 0]]))
        with pytest.raises(ValueError, match="real"):
            validate_distance_matrix(np.array([[0, 1j], [1j, 0]]))

    def test_witness_cap(self):
        n = 30
        a = np.full((n, n), 1.0)  # nonzero diagonal everywhere -> n witnesses, capped later
        result = validate_distance_matrix(a)
        per_kind = {}
        for v in result.violations:
            per_kind[v.kind] = per_kind.get(v.kind, 0) + 1
        assert all(c <= 100 for c in per_kind.values())

    def test_from_array_raises_with_violations(self):
        with pytest.raises(DistanceMatrixError) as ex:
            DistanceMatrix.from_array([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert ex.value.violations

    def test_triangle_scan_memory(self):
        n = 100
        m = np.ones((n, n)) - np.eye(n)
        tracemalloc.start()
        try:
            assert validate_distance_matrix(m).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * n**3

    def test_triangle_scan_memory_is_bounded(self):
        # the n^3 defect cube is scanned in blocks of the first index
        n = 200
        m = np.ones((n, n)) - np.eye(n)
        tracemalloc.start()
        try:
            assert validate_distance_matrix(m).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n**3

    def test_triangle_witnesses_across_scan_blocks(self):
        # violations in different blocks of the scan keep lexicographic
        # (i, j, k) order; each gadget breaks only E[a,b] <= E[a,j] + E[j,b]
        n = 300
        m = np.ones((n, n)) - np.eye(n)
        for a, j, b in ((10, 20, 30), (200, 210, 220)):
            m[a, j] = m[j, a] = m[j, b] = m[b, j] = 0.5
            m[a, b] = m[b, a] = 1.5
        tri = validate_distance_matrix(m).violations
        assert [(v.kind, v.indices) for v in tri] == [("triangle", (10, 20, 30)), ("triangle", (200, 210, 220))]
        assert tri[1].detail == "E[200,220]=1.5 > E[200,210]+E[210,220]=1.0"

    def test_triangle_slack_tolerates_rounding(self):
        a = np.array([[0, 1, 2], [1, 0, 1 + 1e-14], [2, 1 + 1e-14, 0]])
        assert validate_distance_matrix(a).ok


class TestHilbertSchmidt:
    def test_pinned_values(self):
        e1, e2 = basis(3, 0), basis(3, 1)
        assert d_hs(e1, e1) == 0.0
        assert d_hs(e1, e2) == 1.0  # all orthogonal pairs sit at unit distance
        x = (e1 + e2) / np.sqrt(2)
        assert d_hs(x, e1) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_clamps_overlap_noise(self, rng):
        # overlaps a hair above 1 must clamp to 0 instead of producing NaN;
        # sqrt amplifies the leftover 1e-16 rounding to at most ~1e-8
        x = unit_vector(rng, 6)
        got = d_hs(x, np.exp(0.3j) * x)
        assert np.isfinite(got) and 0.0 <= got <= 1e-7

    def test_matches_wedge_norm(self, rng):
        x, y = unit_vector(rng, 5), unit_vector(rng, 5)
        assert d_hs(x, y) == pytest.approx(wedge2(x, y).norm(), rel=1e-12)


class TestDp:
    def test_basis_pairs_reproduce_entries(self, rng):
        e = DistanceMatrix.from_array(euclidean_matrix(rng, 5))
        for p in (2.0, 3.7):
            m = DpMetric(e, p)
            for i in range(5):
                for j in range(i + 1, 5):
                    got = d_p(m, basis(5, i), basis(5, j))
                    assert got == pytest.approx(e.entries[i, j], rel=1e-12)

    def test_zero_on_identical_states(self, rng):
        e = DistanceMatrix.from_array(euclidean_matrix(rng, 4))
        x = unit_vector(rng, 4)
        assert d_p(DpMetric(e, 3.0), x, x) == 0.0

    def test_single_term_value(self):
        e = DistanceMatrix.from_array([[0, 2], [2, 0]])
        x = np.array([1, 1], dtype=complex) / np.sqrt(2)
        y = np.array([1, 0], dtype=complex)
        assert d_p(DpMetric(e, 2.0), x, y) == pytest.approx(np.sqrt(2), rel=1e-15)

    def test_two_dimensional_closed_form(self, rng):
        # in C^2 the distance is E12 times the wedge norm to the power 2/p
        e12 = 1.7
        e = DistanceMatrix.from_array([[0, e12], [e12, 0]])
        for p in (0.5, 1.0, 2.0, 4.5):
            x, y = unit_vector(rng, 2), unit_vector(rng, 2)
            got = dp_from_weights(e.entries, p, x, y)
            want = e12 * wedge2(x, y).norm() ** (2.0 / p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_symmetry_is_bitwise(self, rng):
        e = euclidean_matrix(rng, 6)
        x, y = unit_vector(rng, 6), unit_vector(rng, 6)
        assert dp_from_weights(e, 2.5, x, y) == dp_from_weights(e, 2.5, y, x)

    def test_phase_invariance(self, rng):
        e = euclidean_matrix(rng, 5)
        x, y = unit_vector(rng, 5), unit_vector(rng, 5)
        base = dp_from_weights(e, 3.0, x, y)
        for phi in rng.uniform(0, 2 * np.pi, 100):
            got = dp_from_weights(e, 3.0, np.exp(1j * phi) * x, y)
            assert got == pytest.approx(base, rel=1e-14)

    def test_nondegeneracy_via_overlap(self, rng):
        e = euclidean_matrix(rng, 4)
        x = unit_vector(rng, 4)
        y = np.exp(1.2j) * x
        assert dp_from_weights(e, 2.0, x, y) <= 1e-12
        assert abs(np.vdot(x, y)) == pytest.approx(1.0, abs=1e-12)

    def test_p2_specializes_to_d2_and_hs(self, rng):
        n = 5
        e = DistanceMatrix.from_array(euclidean_matrix(rng, n))
        ones = DistanceMatrix.from_array(np.ones((n, n)) - np.eye(n))
        for _ in range(50):
            x, y = unit_vector(rng, n), unit_vector(rng, n)
            assert d_p(DpMetric(e, 2.0), x, y) == pytest.approx(d2(e, x, y), rel=1e-12)
            assert d2(ones, x, y) == pytest.approx(d_hs(x, y), rel=1e-12, abs=1e-15)

    def test_three_point_equal_weights(self):
        e = DistanceMatrix.from_array(np.ones((3, 3)) - np.eye(3))
        x = basis(3, 0)
        y = (basis(3, 1) + basis(3, 2)) / np.sqrt(2)
        assert d2(e, x, y) == pytest.approx(1.0, rel=1e-15)

    def test_dimension_mismatch(self, rng):
        e = DistanceMatrix.from_array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="mismatch"):
            d_p(DpMetric(e, 2.0), unit_vector(rng, 3), unit_vector(rng, 3))
        # a non-square or scalar weight array is a mismatch, not a silent misread
        for bad in (np.ones((2, 3)), 1.0):
            with pytest.raises(ValueError, match="mismatch"):
                dp_from_weights(bad, 2.0, basis(2, 0), basis(2, 1))

    def test_complex_weights_rejected(self):
        # the imaginary part was once dropped with only a ComplexWarning (1.0 here)
        with pytest.raises(ValueError, match="real"):
            dp_from_weights(np.array([[0, 1 + 5j], [1 + 5j, 0]]), 2.0, basis(2, 0), basis(2, 1))
        # raw weights may still be non-finite, or a 1x1 matrix with no pairs
        assert dp_from_weights([[0, np.inf], [np.inf, 0]], 2.0, basis(2, 0), basis(2, 1)) == np.inf
        assert _dp_inputs([[0.0]], 2.0, [1.0], [1.0])[0].size == 0

    def test_one_point_space(self):
        # P(C^1) is a single point: no pairs, so d_p is the empty sum's root, 0
        # (the empty row sum once raised IndexError)
        assert dp_from_weights([[0.0]], 2.0, [1.0], [1j]) == 0.0
        assert dp_from_weights([[0.0]], 0.5, [-1.0], [1.0]) == 0.0

    def test_invalid_exponent(self, rng):
        e = DistanceMatrix.from_array([[0, 1], [1, 0]])
        for p in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive and finite"):
                dp_from_weights(e.entries, p, basis(2, 0), basis(2, 1))
            with pytest.raises(ValueError, match="positive and finite"):
                DpMetric(e, p)

    def test_metric_guaranteed_flag(self):
        e = DistanceMatrix.from_array([[0, 1], [1, 0]])
        assert DpMetric(e, 2.0).metric_guaranteed
        assert DpMetric(e, 5.0).metric_guaranteed
        assert not DpMetric(e, 1.9).metric_guaranteed


class TestSpectralCondition:
    def test_pinned_cases(self):
        assert spectral_condition_n3(1, 1, 1)
        assert not spectral_condition_n3(1, 1, 3)  # 6 > 5
        assert spectral_condition_n3(1, 2, 3)  # boundary 6 <= 6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spectral_condition_n3(1, 0, 1)

    def test_violation_witnessed_by_canonical_basis(self, rng):
        # failing spectral condition <-> canonical triple violates the triangle
        lam = np.array([0.5, 0.7, 2.1])
        assert not spectral_condition_n3(*lam)
        entries = np.array([[0, lam[2], lam[1]], [lam[2], 0, lam[0]], [lam[1], lam[0], 0]])
        p = 2.0
        d12 = dp_from_weights(entries, p, basis(3, 0), basis(3, 1))
        d13 = dp_from_weights(entries, p, basis(3, 0), basis(3, 2))
        d23 = dp_from_weights(entries, p, basis(3, 1), basis(3, 2))
        ds = sorted([d12, d13, d23])
        assert 2 * max(ds) - sum(ds) == pytest.approx(2 * lam.max() - lam.sum(), abs=1e-12)


class TestEmbed:
    def test_two_point_space(self):
        rho = DistanceMatrix.from_array([[0, 5], [5, 0]])
        states, metric = embed(rho, 2.0)
        assert d_p(metric, states[0], states[1]) == pytest.approx(5.0, rel=1e-15)

    def test_three_point_space_p3(self):
        rho = DistanceMatrix.from_array([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        states, metric = embed(rho, 3.0)
        got = [
            d_p(metric, states[0], states[1]),
            d_p(metric, states[0], states[2]),
            d_p(metric, states[1], states[2]),
        ]
        assert got == pytest.approx([3, 4, 5], rel=1e-13)

    def test_path_metric_on_four_points(self):
        direct = np.full((4, 4), np.inf)
        np.fill_diagonal(direct, 0.0)
        for i in range(3):
            direct[i, i + 1] = direct[i + 1, i] = 1.0
        rho = DistanceMatrix.from_array(shortest_path_closure(direct))
        states, metric = embed(rho, 2.0)
        assert d_p(metric, states[0], states[3]) == pytest.approx(3.0, rel=1e-14)

    def test_rejects_small_p(self):
        rho = DistanceMatrix.from_array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="p >= 2"):
            embed(rho, 1.5)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("p", [2.0, 3.0, 7.5])
    def test_one_pass_values_are_dp_on_basis_pairs(self, n, p):
        # embed checks (E_ij^p)^(1/p) in one pass; d_p on e_i, e_j must give those bits
        for seed in range(5):
            rho = DistanceMatrix.from_array(euclidean_matrix(np.random.default_rng(seed), n))
            states, metric = embed(rho, p)
            got = [d_p(metric, states[i], states[j]) for i in range(n) for j in range(i + 1, n)]
            assert got == (pair_weights(rho.entries, p) ** (1.0 / p)).tolist()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_powers_fail_the_round_trip(self):
        # 4^600 and 5^600 overflow; each d_p then sums inf * 0 = nan, which no comparison may pass
        rho = DistanceMatrix.from_array([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        with pytest.raises(ArithmeticError, match=r"\(0,2\): inf vs 4\.0$"):
            embed(rho, 600.0)


def restricted_form(e, p, v):
    """(mus, U, eigen-bivectors) of the restricted form over the orthonormal rows v (3, n), as a one-row stack."""
    mus, u, bs = _restricted_form_rows(pair_weights(e, p)[None], np.asarray(v, dtype=complex)[None])
    return mus[0], u[0], bs[0]


class TestRestrictedForm:
    def test_canonical_subspace_is_diagonal(self):
        entries = np.array([[0, 1.5, 1.2], [1.5, 0, 0.7], [1.2, 0.7, 0]])
        p = 2.7
        mus, _, bs = restricted_form(entries, p, np.eye(3))
        lam = (entries[1, 2], entries[0, 2], entries[0, 1])
        assert list(mus) == pytest.approx([l ** (p / 2) for l in lam], rel=1e-12)
        # eigen-bivectors reduce to the wedge basis itself
        assert abs(abs(bs[0][-1]) - 1) < 1e-12

    def test_unit_weights_give_unit_mus(self, rng):
        n = 5
        ones = np.ones((n, n)) - np.eye(n)
        mus, _, _ = restricted_form(ones, 3.0, orthonormal_basis(rng, n))
        assert list(mus) == pytest.approx([1, 1, 1], rel=1e-10)

    def test_trace_preserved(self, rng):
        n = 5
        e = euclidean_matrix(rng, n)
        vb = orthonormal_basis(rng, n)
        wedges = np.stack([wedge2(vb[1], vb[2]).coeffs, wedge2(vb[2], vb[0]).coeffs, wedge2(vb[0], vb[1]).coeffs])
        p = 2.0
        trace = (pair_weights(e, p) * np.abs(wedges) ** 2).sum()
        mus, _, _ = restricted_form(e, p, vb)
        assert sum(m * m for m in mus) == pytest.approx(trace, rel=1e-10)

    def test_eigen_bivectors_orthonormal(self, rng):
        n = 6
        e = euclidean_matrix(rng, n)
        _, _, bs = restricted_form(e, 2.5, orthonormal_basis(rng, n))
        g = np.conj(bs) @ bs.T
        assert np.abs(g - np.eye(3)).max() <= 1e-10

    def test_mu_consistency_through_hodge_frame(self, rng):
        n = 6
        e = euclidean_matrix(rng, n)
        for p in (2.0, 3.0):
            vb = orthonormal_basis(rng, n)
            mus, u, _ = restricted_form(e, p, vb)
            f = _hodge_frame(u[None], vb[None])[0]
            half = pair_weights(e, p / 2)
            got = [
                np.linalg.norm(half * wedge2(f[1], f[2]).coeffs),
                np.linalg.norm(half * wedge2(f[0], f[2]).coeffs),
                np.linalg.norm(half * wedge2(f[0], f[1]).coeffs),
            ]
            assert got == pytest.approx(list(mus), rel=1e-9)


def closure_loop(w):
    """Floyd-Warshall over one matrix in scalar loops: the reference for ``shortest_path_closure``."""
    d = [[float(v) for v in row] for row in w]
    n = len(d)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return np.array(d)


class TestClosure:
    def test_matches_scalar_loop_bit_for_bit(self, rng):
        # blocks of _slice_rows(n * n // 4) matrices: 145 at n = 30, so 40
        # matrices run as one partial block (TestWrappedDiagonalClosure
        # covers a full block and a partial one)
        n, count = 30, 40
        w = rng.random((count, n, n))
        w = (w + w.transpose(0, 2, 1)) / 2
        w[:, np.arange(n), np.arange(n)] = 0.0
        d = shortest_path_closure(w)
        for k in (0, 35, 36, count - 1):
            want = closure_loop(w[k])
            assert np.array_equal(d[k], want)
            assert np.array_equal(shortest_path_closure(w[k]), want)
        # any leading shape: a (2, 20) stack of the same matrices
        assert np.array_equal(shortest_path_closure(w.reshape(2, 20, n, n)), d.reshape(2, 20, n, n))

    def test_idempotent(self, rng):
        n = 6
        w = rng.random((n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        d = shortest_path_closure(w)
        assert validate_distance_matrix(d).ok
        assert np.allclose(shortest_path_closure(d), d, atol=1e-15)

    def test_stacked_equals_per_matrix(self, rng):
        w = rng.random((5, 6, 6))
        w = (w + w.transpose(0, 2, 1)) / 2
        w[:, np.arange(6), np.arange(6)] = 0.0
        d = shortest_path_closure(w)
        for k in range(5):
            assert np.array_equal(d[k], shortest_path_closure(w[k]))


def symmetric_weights(rng, count, n):
    """(count, n, n) symmetric zero-diagonal uniform weights with +inf (no edge) on about one pair in eight.

    Every other matrix is sparse instead, with about 7 pairs in 8 infinite,
    so that its shortest paths run over many edges and their sums depend on
    the order in which the closure adds them.
    """
    w = rng.random((count, n, n))
    w[rng.random((count, n, n)) < np.where(np.arange(count) % 2, 0.875, 0.125)[:, None, None]] = np.inf
    w = np.minimum(w, w.transpose(0, 2, 1))
    w[:, np.arange(n), np.arange(n)] = 0.0
    return w


class TestWrappedDiagonalClosure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 31, 32, 33])
    def test_matches_scalar_loop_bit_for_bit(self, rng, n):
        # odd and even n (even n stores the pairs of diagonal n/2 twice); at
        # n >= 31 the stack is a full block of _slice_rows(n * n // 4)
        # matrices and a partial one
        step = _slice_rows(max(1, n * n // 4))
        count = step + 3 if step < 1000 else 7
        w = symmetric_weights(rng, count, n)
        if n >= 4:  # two components: the pairs between them stay unreachable
            w[1, : n // 2, n // 2 :] = w[1, n // 2 :, : n // 2] = np.inf
        d = shortest_path_closure(w)
        for k in sorted({0, 1, step - 1, step, count - 1} & set(range(count))):
            want = closure_loop(w[k])
            assert np.array_equal(d[k], want)
            assert np.array_equal(shortest_path_closure(w[k]), want)
        if n >= 4:
            assert np.all(np.isinf(d[1, : n // 2, n // 2 :]))
        assert np.array_equal(shortest_path_closure(w[:6].reshape(2, 3, n, n)), d[:6].reshape(2, 3, n, n))

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 16])
    def test_repaired_draws_close_their_pair_weights(self, n):
        # the draw closes its pair weights without building full matrices first
        d = distance_matrices_batch(trial_rng(11, n), 64, n, "repaired-random")
        w = 1.0 - trial_rng(11, n).random((64, n * (n - 1) // 2))
        full = np.zeros((64, n, n))
        i, j = np.triu_indices(n, 1)
        full[:, i, j] = full[:, j, i] = w
        for k in range(64):
            assert np.array_equal(d[k], closure_loop(full[k]))

    def test_empty_stack(self):
        assert shortest_path_closure(np.zeros((0, 5, 5))).shape == (0, 5, 5)

    def test_infinite_weights_allowed(self):
        w = np.array([[0.0, np.inf, 1.0], [np.inf, 0.0, 2.0], [1.0, 2.0, 0.0]])
        assert np.array_equal(shortest_path_closure(w), closure_loop(w))
        assert shortest_path_closure(w)[0, 1] == 3.0


class TestClosureGate:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            shortest_path_closure(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="square"):
            shortest_path_closure(np.zeros(3))

    def test_rejects_asymmetric(self):
        w = np.zeros((2, 3, 3))
        w[1, 0, 2] = 1.0  # only the second matrix of the stack
        with pytest.raises(ValueError, match="symmetric"):
            shortest_path_closure(w)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            shortest_path_closure([[1.0, 1.0], [1.0, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            shortest_path_closure([[0.0, -1.0], [-1.0, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            shortest_path_closure([[0.0, np.nan], [np.nan, 0.0]])
