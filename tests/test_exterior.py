import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis, complex_vector, interior_product, orthonormal_basis, unit_vector
from pqdist.exterior import (
    Bivector,
    _hodge_frame,
    _interior_rows,
    _wedge_basis,
    cross3,
    gram_deviation,
    inner,
    minors2,
    wedge2,
    wedge3,
    wedge_bv,
)
from pqdist.metric import dp_from_weights
from pqdist.sampling import _orthonormalize_triples


class TestInner:
    def test_basis_cases(self):
        e1, e2 = basis(4, 0), basis(4, 1)
        assert inner(e1, e1) == 1
        assert inner(e1, e2) == 0

    def test_conjugates_first_argument(self):
        # x = (e1 + i e2)/sqrt(2); <x|e2> = conj(i/sqrt(2)) = -i/sqrt(2)
        x = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        got = inner(x, basis(2, 1))
        assert got == pytest.approx(-1j / np.sqrt(2), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(basis(2, 0), basis(3, 0))
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 3 vs 4"):
            wedge3(basis(3, 0), basis(3, 1), basis(4, 2))


class TestWedge2:
    def test_basis_pair(self):
        b = wedge2(basis(4, 0), basis(4, 1))
        want = np.zeros(6, dtype=complex)
        want[0] = 1.0
        assert np.array_equal(b.coeffs, want)

    def test_self_wedge_vanishes(self, rng):
        x = complex_vector(rng, 5)
        assert wedge2(x, x).norm() == 0.0

    def test_single_minor_by_hand(self):
        x = np.array([1, 1], dtype=complex) / np.sqrt(2)
        b = wedge2(x, basis(2, 0))
        assert b.coeffs[0] == pytest.approx(-1 / np.sqrt(2), abs=1e-16)
        assert b.norm_sq() == pytest.approx(0.5, abs=1e-15)

    def test_antisymmetry_exact(self, rng):
        x, y = complex_vector(rng, 6), complex_vector(rng, 6)
        assert np.array_equal(wedge2(x, y).coeffs, -wedge2(y, x).coeffs)

    def test_stacked_rows_bitwise(self, rng):
        # minors2 works over the last axis: a (count, n) stack gives the 1-D result row by row
        x, y = complex_vector(rng, 48).reshape(8, 6), complex_vector(rng, 48).reshape(8, 6)
        stacked = minors2(x, y)
        for r in range(8):
            assert np.array_equal(stacked[r], minors2(x[r], y[r]))
        assert np.array_equal(minors2(y, x), -stacked)

    def test_phase_equivariance(self, rng):
        x, y = unit_vector(rng, 5), unit_vector(rng, 5)
        b = wedge2(x, y)
        for phi in rng.uniform(0, 2 * np.pi, 20):
            rotated = wedge2(np.exp(1j * phi) * x, y)
            assert np.abs(rotated.coeffs - np.exp(1j * phi) * b.coeffs).max() <= 1e-14
            assert abs(rotated.norm() - b.norm()) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
    def test_lagrange_identity(self, seed, n):
        """|x ^ y|^2 + |<x|y>|^2 = |x|^2 |y|^2 for arbitrary vectors."""
        gen = np.random.default_rng(seed)
        x, y = complex_vector(gen, n), complex_vector(gen, n)
        lhs = wedge2(x, y).norm_sq() + abs(inner(x, y)) ** 2
        rhs = np.linalg.norm(x) ** 2 * np.linalg.norm(y) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            wedge2(np.array([1.0]), np.array([1.0]))


class TestWedge3:
    def test_basis_triple(self):
        t = wedge3(basis(4, 0), basis(4, 1), basis(4, 2))
        want = np.zeros(4, dtype=complex)
        want[0] = 1.0
        assert np.array_equal(t.coeffs, want)

    def test_repeated_argument_vanishes(self, rng):
        x, y = complex_vector(rng, 5), complex_vector(rng, 5)
        assert wedge3(x, y, x).norm() <= 1e-14

    def test_alternates_under_transpositions(self, rng):
        x, y, z = (complex_vector(rng, 6) for _ in range(3))
        t = wedge3(x, y, z)
        assert np.allclose(wedge3(y, x, z).coeffs, -t.coeffs, atol=1e-14)
        assert np.allclose(wedge3(x, z, y).coeffs, -t.coeffs, atol=1e-14)
        assert np.allclose(wedge3(z, x, y).coeffs, t.coeffs, atol=1e-14)

    def test_coefficients_are_determinants(self, rng):
        # oracle: explicit 3x3 determinants of the stacked component matrix
        from itertools import combinations

        n = 5
        x, y, z = (complex_vector(rng, n) for _ in range(3))
        t = wedge3(x, y, z)
        m = np.stack([x, y, z])
        for slot, (i, j, k) in enumerate(combinations(range(n), 3)):
            det = np.linalg.det(m[:, [i, j, k]])
            assert t.coeffs[slot] == pytest.approx(det, rel=1e-12, abs=1e-12)

    def test_cauchy_binet_vs_gram_determinant(self, rng):
        for n in (3, 4, 6):
            x, y, z = (complex_vector(rng, n) for _ in range(3))
            g = np.array([[inner(a, b) for b in (x, y, z)] for a in (x, y, z)])
            want = np.linalg.det(g).real
            assert wedge3(x, y, z).norm_sq() == pytest.approx(want, rel=1e-10)

    def test_orthonormal_triple_normalizes(self, rng):
        vs = orthonormal_basis(rng, 4)
        assert wedge3(*vs).norm_sq() == pytest.approx(1.0, abs=1e-10)


class TestCross3:
    def test_basis_and_self(self):
        assert np.array_equal(cross3(basis(3, 0), basis(3, 1)), basis(3, 2))
        x = np.array([1.0, 2.0, 3.0])
        assert np.linalg.norm(cross3(x, x)) == 0.0

    def test_componentwise_formula(self):
        got = cross3(np.array([1, 1j, 0]), np.array([0, 1, 0]))
        assert np.allclose(got, [0, 0, 1], atol=1e-16)

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            cross3(basis(4, 0), basis(4, 1))

    def test_scalar_triple_symmetry(self, rng):
        x, y, z = (complex_vector(rng, 3) for _ in range(3))
        a = x @ cross3(y, z)
        assert y @ cross3(z, x) == pytest.approx(a, rel=1e-12)
        assert z @ cross3(x, y) == pytest.approx(a, rel=1e-12)

    def test_binet_cauchy(self, rng):
        x, y, z, u = (complex_vector(rng, 3) for _ in range(4))
        lhs = cross3(x, y) @ cross3(z, u)
        rhs = (x @ z) * (y @ u) - (x @ u) * (y @ z)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_double_cross_expansion(self, rng):
        x, y, z = (complex_vector(rng, 3) for _ in range(3))
        lhs = cross3(x, cross3(y, z))
        rhs = (x @ z) * y - (x @ y) * z
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_cross_of_crosses_collapses(self, rng):
        x, y, z = (complex_vector(rng, 3) for _ in range(3))
        lhs = cross3(cross3(x, z), cross3(y, z))
        rhs = (z @ cross3(x, y)) * z
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_cofactor_equivariance(self, rng):
        x, y = complex_vector(rng, 3), complex_vector(rng, 3)
        for _ in range(5):
            a = complex_vector(rng, 9).reshape(3, 3)
            if abs(np.linalg.det(a)) < 1e-3:
                continue
            cof = np.linalg.det(a) * np.linalg.inv(a).T
            lhs = cross3(a @ x, a @ y)
            rhs = cof @ cross3(x, y)
            assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-11)

    def test_norm_identity(self, rng):
        x, y = complex_vector(rng, 3), complex_vector(rng, 3)
        lhs = np.linalg.norm(cross3(x, y)) ** 2
        rhs = np.linalg.norm(x) ** 2 * np.linalg.norm(y) ** 2 - abs(inner(x, y)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestGramSchmidt:
    """The one Gram-Schmidt left: ``sampling._orthonormalize_triples``, two passes over stacked rows."""

    def orthonormalize(self, x, y, z):
        u, v, w, ok = _orthonormalize_triples(*(np.asarray(a, dtype=complex)[None] for a in (x, y, z)))
        return [u[0], v[0], w[0]], bool(ok[0])

    def test_orthonormal_input_unchanged(self):
        out, ok = self.orthonormalize(basis(3, 0), basis(3, 1), basis(3, 2))
        assert ok
        for k in range(3):
            assert np.array_equal(out[k], basis(3, k))

    def test_single_projection_step(self):
        out, ok = self.orthonormalize(basis(3, 0), basis(3, 0) + basis(3, 1), basis(3, 2))
        assert ok and np.allclose(out[1], basis(3, 1), atol=1e-12)

    def test_dependent_inputs_deflate(self, rng):
        # a dependent row is flagged, not dropped, so the draw count stays fixed
        x = unit_vector(rng, 4)
        _, ok = self.orthonormalize(x, 2 * x, complex_vector(rng, 4))
        assert not ok

    def test_zero_vector_dropped(self):
        _, ok = self.orthonormalize(np.zeros(3), basis(3, 1), basis(3, 2))
        assert not ok

    def test_nearly_dependent_stays_orthonormal(self, rng):
        x = unit_vector(rng, 5)
        y = x + 1e-7 * unit_vector(rng, 5)
        out, ok = self.orthonormalize(x, y, complex_vector(rng, 5))
        assert ok and gram_deviation(out) <= 1e-12


class TestInteriorProduct:
    def test_basis_contraction(self):
        e1, e2, e3 = (basis(3, k) for k in range(3))
        got = interior_product(e1, wedge2(e1, e2))
        assert np.allclose(got, e2, atol=1e-15)
        assert np.linalg.norm(interior_product(e3, wedge2(e1, e2))) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8))
    def test_pythagoras_for_bivectors(self, seed, n):
        """|w ^ B|^2 = |w|^2 |B|^2 - |w . B|^2 also for non-simple B."""
        gen = np.random.default_rng(seed)
        w = complex_vector(gen, n)
        b = Bivector(n, complex_vector(gen, n * (n - 1) // 2))
        lhs = wedge_bv(b, w).norm_sq() + np.linalg.norm(interior_product(w, b)) ** 2
        rhs = np.linalg.norm(w) ** 2 * b.norm_sq()
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pythagoras_for_vectors(self, rng):
        w, x = complex_vector(rng, 5), complex_vector(rng, 5)
        lhs = wedge2(w, x).norm_sq() + abs(inner(w, x)) ** 2
        assert lhs == pytest.approx(np.linalg.norm(w) ** 2 * np.linalg.norm(x) ** 2, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_stacked_contraction_matches_oracle(self, rng, n):
        w = complex_vector(rng, 2 * 5 * n).reshape(2, 5, n)
        b = complex_vector(rng, 2 * 5 * n * (n - 1) // 2).reshape(2, 5, -1)
        got = _interior_rows(w, b)
        assert got.shape == w.shape
        for k in np.ndindex(w.shape[:-1]):
            want = interior_product(w[k], Bivector(n, b[k]))
            assert np.allclose(got[k], want, rtol=0, atol=1e-14 * np.abs(want).max())


def wedges(v):
    """Wedge basis (v2^v3, v3^v1, v1^v2) of the rows of v (3, n), by wedge2."""
    return np.stack([wedge2(v[1], v[2]).coeffs, wedge2(v[2], v[0]).coeffs, wedge2(v[0], v[1]).coeffs])


def hodge_frame(u, v):
    """Hodge frame of the unitary u (3, 3) over the orthonormal rows v (3, n), as a one-row stack."""
    return _hodge_frame(u[None], v[None])[0]


class TestHodgeBasis:
    def test_canonical_frame(self):
        e = np.eye(3, dtype=complex)
        bs = wedges(e)
        assert np.array_equal(_wedge_basis(e[None])[0], bs)
        f = hodge_frame(np.eye(3), e)
        assert np.abs(wedge2(f[1], f[2]).coeffs - bs[0]).max() <= 1e-12
        assert np.abs(wedge2(f[2], f[0]).coeffs - bs[1]).max() <= 1e-12
        assert np.abs(wedge2(f[0], f[1]).coeffs - bs[2]).max() <= 1e-12

    def test_rotated_wedge_basis(self, rng):
        # real rotation with det 1 applied to the canonical wedge basis
        e = np.eye(3, dtype=complex)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        bs = q @ _wedge_basis(e[None])[0]
        f = hodge_frame(q, e)
        assert gram_deviation(f) <= 1e-10
        assert np.abs(wedge2(f[1], f[2]).coeffs - bs[0]).max() <= 1e-10

    def test_random_subspace_unitary_mix(self, rng):
        n = 6
        vb = orthonormal_basis(rng, n)
        w = _wedge_basis(vb[None])[0]
        assert np.abs(w - wedges(vb)).max() <= 1e-15
        q, _ = np.linalg.qr(complex_vector(rng, 9).reshape(3, 3))
        bs = q @ w
        f = hodge_frame(q, vb)
        assert gram_deviation(f) <= 1e-10
        pairs = [(1, 2), (2, 0), (0, 1)]
        for l, (a, b) in enumerate(pairs):
            assert np.abs(wedge2(f[a], f[b]).coeffs - bs[l]).max() <= 1e-10


def dp_case(seed, n):
    """A Euclidean distance matrix on n random points and two random unit states."""
    gen = np.random.default_rng(seed)
    pts = gen.random((n, 3))
    e = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return e, unit_vector(gen, n), unit_vector(gen, n), gen


def assert_dp_close(d1, d2, e, p, x, y):
    """d1^p and d2^p agree within the rounding of two evaluations of the minor sum.

    Each sum errs by at most (2 C(n,2) + 22) u a^T W b, with a = |x|^2,
    b = |y|^2, W = E^p, u = 2^-53 (``metric._minor_sum_radius``); each E^p
    by 4 ulps, and the p-th root and the power taken back by p + 2 ulps.
    The bound takes twice each of those, plus the rounding of the states.
    """
    n, u = len(x), 2.0**-53
    a, b, w = np.abs(x) ** 2, np.abs(y) ** 2, e**p
    scale = a @ w @ b
    bound = 2 * (n * n + 60) * u * scale + 4 * (p + 2) * u * (d1**p + d2**p)
    assert abs(d1**p - d2**p) <= bound


dp_strategies = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), p=st.floats(0.5, 12.0))


class TestDpProperties:
    @settings(max_examples=60, deadline=None)
    @given(**dp_strategies)
    def test_symmetric_bit_for_bit(self, seed, n, p):
        # the minors of (y, x) negate those of (x, y) bitwise
        e, x, y, _ = dp_case(seed, n)
        assert dp_from_weights(e, p, x, y) == dp_from_weights(e, p, y, x)

    @settings(max_examples=60, deadline=None)
    @given(**dp_strategies, theta=st.floats(0.0, 2 * np.pi))
    def test_global_phase_invariance(self, seed, n, p, theta):
        e, x, y, _ = dp_case(seed, n)
        d = dp_from_weights(e, p, x, y)
        phase = np.exp(1j * theta)
        assert_dp_close(dp_from_weights(e, p, phase * x, y), d, e, p, x, y)
        assert_dp_close(dp_from_weights(e, p, x, phase * y), d, e, p, x, y)

    @settings(max_examples=60, deadline=None)
    @given(**dp_strategies)
    def test_joint_permutation_covariance(self, seed, n, p):
        e, x, y, gen = dp_case(seed, n)
        perm = gen.permutation(n)
        got = dp_from_weights(e[np.ix_(perm, perm)], p, x[perm], y[perm])
        assert_dp_close(got, dp_from_weights(e, p, x, y), e, p, x, y)

    @settings(max_examples=60, deadline=None)
    @given(**dp_strategies, k=st.integers(-8, 8))
    def test_homogeneous_in_the_matrix(self, seed, n, p, k):
        # d_p(2^k E) = 2^k d_p(E); dividing by 2^k is exact
        e, x, y, _ = dp_case(seed, n)
        got = dp_from_weights(2.0**k * e, p, x, y) / 2.0**k
        assert_dp_close(got, dp_from_weights(e, p, x, y), e, p, x, y)
