from itertools import combinations

import numpy as np
import pytest

from conftest import basis, interior_product
from pqdist.exterior import Bivector, wedge2, wedge3
from pqdist.fileio import _l2c
from pqdist.fuzz import TrialConfig, _reduction_defect, reevaluate_witness, run_fuzz
from pqdist.metric import dp_from_weights, pair_weights
from pqdist.checks import (
    HODGE_RESIDUAL_TOL,
    MU_CONSISTENCY_TOL,
    _convexity_rows,
    _minorial_rows,
    _projector_rows,
    _reduction_report,
    _reduction_rows,
    _subspace_draws,
    _triangle_rows,
    _w1_rows,
    check_convexity,
    check_generator_identity_w1,
    check_minorial,
    check_orthonormal_reduction,
    check_projector_inequality,
    counterexample_p_lt_2,
    ensure_orthonormal_triple,
    triangle_defect,
)
from pqdist.sampling import (
    _orthonormalize_triples,
    distance_matrices_batch,
    pair_weights_batch,
    sample_distance_matrix,
    sample_orthonormal_triple,
    sample_pure_state,
    sample_symmetric_weights,
    states_batch,
    trial_rng,
)


def zero_one_weights(n, mask, pairs):
    a = np.zeros((n, n))
    for b, (i, j) in enumerate(pairs):
        if mask >> b & 1:
            a[i, j] = a[j, i] = 1.0
    return a


def unit_bivector(n, rng):
    # unit coefficients over the n(n-1)/2 pairs (generically non-simple), drawn as a state
    return states_batch(rng, 1, n * (n - 1) // 2)[0]


def brute_pair_sum(a, x, y):
    # independent scalar-loop evaluation of the weighted 2x2-minor sum
    total = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            total += a[i, j] * abs(x[i] * y[j] - x[j] * y[i]) ** 2
    return total


class TestOrthonormalGate:
    def test_polish_keeps_good_triples(self):
        rng = trial_rng(0)
        x, y, z = sample_orthonormal_triple(5, rng)
        u, v, w = ensure_orthonormal_triple(x, y, z)
        assert np.allclose(u, x, atol=1e-12)

    def test_rejects_far_from_orthonormal(self):
        e1, e2, e3 = basis(3, 0), basis(3, 1), basis(3, 2)
        with pytest.raises(ValueError, match="orthonormal"):
            ensure_orthonormal_triple(e1, e1 + 1e-3 * e2, e3)


class TestMinorial:
    def test_constant_weights_collapse(self):
        rng = trial_rng(1)
        x, y, z = sample_orthonormal_triple(5, rng)
        a = np.full((5, 5), 0.7)
        np.fill_diagonal(a, 0.0)
        d = check_minorial(a, x, y, z)
        assert abs(d.lower) <= 1e-10 and abs(d.upper) <= 1e-10

    def test_exhaustive_zero_one_subsets_n4(self):
        rng = trial_rng(2)
        pairs = list(combinations(range(4), 2))
        for _ in range(10):
            x, y, z = sample_orthonormal_triple(4, rng)
            for mask in range(64):
                a = zero_one_weights(4, mask, pairs)
                d = check_minorial(a, x, y, z)
                assert d.lower >= -1e-10 and d.upper >= -1e-10

    def test_random_weights(self):
        rng = trial_rng(3)
        for _ in range(300):
            x, y, z = sample_orthonormal_triple(6, rng)
            a = sample_symmetric_weights(6, rng)
            d = check_minorial(a, x, y, z)
            assert d.lower >= -1e-9 and d.upper >= -1e-9

    def test_middle_term_matches_brute_force(self):
        rng = trial_rng(4)
        x, y, z = sample_orthonormal_triple(5, rng)
        a = sample_symmetric_weights(5, rng)
        d = check_minorial(a, x, y, z)
        xe, ye, ze = ensure_orthonormal_triple(x, y, z)
        mid = brute_pair_sum(a, xe, ye)
        t = wedge3(xe, ye, ze)
        pt = np.abs(t.coeffs) ** 2
        lo = hi = 0.0
        for slot, (i, j, k) in enumerate(combinations(range(5), 3)):
            lo += min(a[i, j], a[i, k], a[j, k]) * pt[slot]
            hi += max(a[i, j], a[i, k], a[j, k]) * pt[slot]
        assert d.lower == pytest.approx(mid - lo, abs=1e-12)
        assert d.upper == pytest.approx(hi - mid, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        a = sample_symmetric_weights(3, trial_rng(5))
        with pytest.raises(ValueError, match="orthonormal"):
            check_minorial(a, basis(3, 0), basis(3, 0), basis(3, 2))

    def test_rejects_bad_weights(self):
        rng = trial_rng(6)
        x, y, z = sample_orthonormal_triple(4, rng)
        with pytest.raises(ValueError, match="symmetric"):
            check_minorial(np.arange(16.0).reshape(4, 4), x, y, z)
        neg = -sample_symmetric_weights(4, rng)
        with pytest.raises(ValueError, match="nonnegative"):
            check_minorial(neg, x, y, z)
        # complex weights are rejected, not silently cut to their real part
        with pytest.raises(ValueError, match="real"):
            check_minorial(sample_symmetric_weights(4, rng) * (1 + 1e-3j), x, y, z)


class TestProjector:
    def test_full_mask_reduces_to_interior_identity(self):
        rng = trial_rng(7)
        n = 5
        b = Bivector(n, unit_bivector(n, rng))
        v = sample_pure_state(n, rng)
        d = check_projector_inequality(list(combinations(range(n), 2)), b, v)
        # outer gap equals the squared norm of the contraction of B by v
        assert d.outer == pytest.approx(np.linalg.norm(interior_product(v, b)) ** 2, abs=1e-12)
        assert d.inner == pytest.approx(0.0, abs=1e-12)

    def test_empty_mask_vanishes(self):
        rng = trial_rng(8)
        b = Bivector(4, unit_bivector(4, rng))
        d = check_projector_inequality([], b, sample_pure_state(4, rng))
        assert d.outer == 0.0 and d.inner == 0.0

    def test_random_masks_nonnegative(self):
        rng = trial_rng(9)
        n = 5
        for _ in range(500):
            b = Bivector(n, unit_bivector(n, rng))
            v = sample_pure_state(n, rng)
            s = [pr for pr in combinations(range(n), 2) if rng.random() < 0.5]
            d = check_projector_inequality(s, b, v)
            assert d.outer >= -1e-10 and d.inner >= -1e-10

    def test_rejects_out_of_range_pairs(self):
        b = Bivector(4, np.zeros(6))
        with pytest.raises(ValueError, match="out of range"):
            check_projector_inequality([(0, 5)], b, basis(4, 0))
        with pytest.raises(ValueError, match="repeats"):
            check_projector_inequality([(1, 1)], b, basis(4, 0))

    def test_rejects_boolean_indices(self):
        # bool subclasses int, so (True, 0) was once read as the pair (1, 0)
        b = Bivector(4, np.zeros(6))
        for bad in ([(True, 0)], [(1, np.bool_(False))]):
            with pytest.raises(ValueError, match="two integer indices"):
                check_projector_inequality(bad, b, basis(4, 0))

    def test_rejects_malformed_pairs(self):
        # both were once read as the pair (0, 1); witness files reach this gate
        b = Bivector(4, np.zeros(6))
        for bad in ([(0, 1, 2)], [(0.7, 1.9)], [(0,)]):
            with pytest.raises(ValueError, match="two integer indices"):
                check_projector_inequality(bad, b, basis(4, 0))
        witness = run_fuzz("projector", TrialConfig(n=4, p=2.0, trials=20, seed=1)).witness
        reevaluate_witness("projector", witness)
        with pytest.raises(ValueError, match="two integer indices"):
            reevaluate_witness("projector", {**witness, "pairs": [[0.7, 1.9]]})


class TestConvexity:
    def test_sum_is_an_equality(self):
        rng = trial_rng(10)
        x, y, z = sample_orthonormal_triple(6, rng)
        a = sample_symmetric_weights(6, rng)
        assert abs(check_convexity("sum", a, x, y, z)) <= 1e-10

    def test_single_weight_canonical_triple(self):
        # with only a_01 = 1 and the canonical triple both sides equal 1
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        d = check_convexity("max", a, basis(3, 0), basis(3, 1), basis(3, 2))
        assert d == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    def test_powersum_concavity(self, p):
        rng = trial_rng(11)
        for _ in range(200):
            x, y, z = sample_orthonormal_triple(5, rng)
            a = sample_symmetric_weights(5, rng)
            assert check_convexity("powersum", a, x, y, z, p=p) >= -1e-9

    def test_max_and_min_shapes(self):
        rng = trial_rng(12)
        for _ in range(200):
            x, y, z = sample_orthonormal_triple(4, rng)
            a = sample_symmetric_weights(4, rng)
            assert check_convexity("max", a, x, y, z) >= -1e-9
            assert check_convexity("min", a, x, y, z) >= -1e-9

    def test_agrees_with_minorial_over_orderings(self):
        rng = trial_rng(13)
        for _ in range(50):
            x, y, z = sample_orthonormal_triple(6, rng)
            a = sample_symmetric_weights(6, rng)
            uppers = [
                check_minorial(a, x, y, z).upper,
                check_minorial(a, x, z, y).upper,
                check_minorial(a, y, z, x).upper,
            ]
            lowers = [
                check_minorial(a, x, y, z).lower,
                check_minorial(a, x, z, y).lower,
                check_minorial(a, y, z, x).lower,
            ]
            assert check_convexity("max", a, x, y, z) == pytest.approx(min(uppers), abs=1e-12)
            assert check_convexity("min", a, x, y, z) == pytest.approx(min(lowers), abs=1e-12)

    def test_unknown_shape_rejected(self):
        rng = trial_rng(14)
        x, y, z = sample_orthonormal_triple(4, rng)
        a = sample_symmetric_weights(4, rng)
        with pytest.raises(ValueError, match="unknown fname"):
            check_convexity("median", a, x, y, z)
        with pytest.raises(ValueError, match="p >= 2"):
            check_convexity("powersum", a, x, y, z, p=1.5)
        with pytest.raises(ValueError, match="exponent"):
            check_convexity("powersum", a, x, y, z)


class TestGeneratorIdentity:
    def test_unit_weights(self):
        rng = trial_rng(15)
        x, y, z = sample_orthonormal_triple(5, rng)
        ones = np.ones((5, 5)) - np.eye(5)
        # each pair sum collapses to 1, the weighted triple sum to 3
        assert brute_pair_sum(ones, *ensure_orthonormal_triple(x, y, z)[:2]) == pytest.approx(1.0, abs=1e-12)
        assert check_generator_identity_w1(ones, x, y, z) <= 1e-12

    def test_single_entry(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 0.8
        assert check_generator_identity_w1(a, basis(3, 0), basis(3, 1), basis(3, 2)) <= 1e-15

    def test_random_weights(self):
        rng = trial_rng(16)
        for _ in range(300):
            x, y, z = sample_orthonormal_triple(6, rng)
            a = sample_symmetric_weights(6, rng)
            assert check_generator_identity_w1(a, x, y, z) <= 1e-10

    def test_zero_weights_zero_residual(self):
        rng = trial_rng(17)
        x, y, z = sample_orthonormal_triple(4, rng)
        assert check_generator_identity_w1(np.zeros((4, 4)), x, y, z) == 0.0


class TestCounterexample:
    def test_overridden_angle_quarter_margin(self):
        ce = counterexample_p_lt_2(1.0, 1.0, theta=np.pi / 6)
        assert ce.d_xy == pytest.approx(0.75, abs=1e-15)
        assert ce.d_xz == pytest.approx(0.25, abs=1e-15)
        assert ce.margin == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.9, 1.99])
    def test_default_angle_violates(self, p):
        ce = counterexample_p_lt_2(p, 2.0)
        assert ce.margin > 0
        # closed forms in the mixing angle
        assert ce.d_xy == pytest.approx(2.0 * np.sin(2 * ce.theta) ** (2 / p), rel=1e-12)
        assert ce.d_xz == pytest.approx(2.0 * np.sin(ce.theta) ** (2 / p), rel=1e-12)

    def test_margin_shrinks_toward_p2(self):
        margins = [counterexample_p_lt_2(p, 1.0).margin for p in (1.0, 1.5, 1.9, 1.99, 1.999)]
        assert all(m > 0 for m in margins)
        assert margins == sorted(margins, reverse=True)

    def test_reevaluation_through_generic_distance(self):
        ce = counterexample_p_lt_2(1.5, 3.0)
        entries = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert dp_from_weights(entries, 1.5, ce.x, ce.y) == pytest.approx(ce.d_xy, rel=1e-14)

    def test_guards(self):
        with pytest.raises(ValueError, match="p >= 2 the map is a metric"):
            counterexample_p_lt_2(2.0, 1.0)
        with pytest.raises(ValueError, match="theta"):
            counterexample_p_lt_2(1.9, 1.0, theta=1.5)  # cos too small to violate

    @pytest.mark.parametrize("e12", [np.inf, 1e300, 1e-300])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_floating_point_violation_raises(self, e12):
        # E12^p overflows (margin nan) or underflows (margin 0): the triple shows no violation
        with pytest.raises(ValueError, match="no violation"):
            counterexample_p_lt_2(1.5, e12)


class TestOrthonormalReduction:
    def test_canonical_subspace_reduces_to_entry_triangle(self):
        entries = np.array([[0, 1.0, 0.9], [1.0, 0, 0.6], [0.9, 0.6, 0]])
        rep = check_orthonormal_reduction(entries, 2.0, basis(3, 0), basis(3, 1), basis(3, 2))
        lam = sorted([entries[1, 2], entries[0, 2], entries[0, 1]])
        want = (sum(lam) - 2 * max(lam)) / max(1.0, sum(lam))
        assert rep.spectral_margin == pytest.approx(want, abs=1e-12)
        assert rep.verdict

    def test_collinear_pair_still_passes(self):
        rng = trial_rng(18)
        e = sample_distance_matrix(6, "euclidean-points", rng)
        x = sample_pure_state(6, rng)
        rep = check_orthonormal_reduction(e, 2.0, x, sample_pure_state(6, rng), x)
        assert rep.verdict

    def test_random_triples(self):
        rng = trial_rng(19)
        for t in range(100):
            e = sample_distance_matrix(6, "repaired-random", rng)
            xs = [sample_pure_state(6, rng) for _ in range(3)]
            rep = check_orthonormal_reduction(e, 2.0, *xs, inner_stream=t)
            assert rep.hodge_residual <= 1e-10
            assert rep.mu_residual <= 1e-9
            assert rep.verdict

    def test_subspace_draws_match_sequential_pairs(self):
        # one draw per stream replays the 16 sequential (re, im) pairs of
        # (3, 3) draws that stored inner streams were made with
        streams = [0, 5, 2**32 + 17]
        draws = _subspace_draws(11, streams, 16)
        for row, stream in zip(draws, streams):
            rng = trial_rng(11, stream)
            pairs = [[rng.standard_normal((3, 3)), rng.standard_normal((3, 3))] for _ in range(16)]
            assert np.array_equal(row, np.array(pairs))
        # the re-keyed generator reduces edge keys modulo 2^64 as trial_rng does
        edge_streams = [2**32 + 3, 2**64 - 1, 0, 2**64 + 5]
        for seed in (2**64 + 7, -3, 2**63):
            draws = _subspace_draws(seed, np.array(edge_streams[:2], dtype=np.uint64), 4)
            assert np.array_equal(draws, _subspace_draws(seed, edge_streams[:2], 4))
            draws = _subspace_draws(seed, edge_streams, 4)
            for row, stream in zip(draws, edge_streams):
                assert np.array_equal(row.ravel(), trial_rng(seed, stream).standard_normal(row.size))

    def test_degenerate_subspace_frame_fails_the_sample(self):
        # a rank-deficient draw has no orthonormal frame; its trial must not pass
        e = np.array([[0, 1.0, 0.9], [1.0, 0, 0.6], [0.9, 0.6, 0]])
        wts = np.repeat(pair_weights(e, 2.0)[None], 2, axis=0)
        x, y, z = (np.repeat(basis(3, k)[None], 2, axis=0) for k in range(3))
        draws = _subspace_draws(3, [0, 1], 16)
        draws[1, 5, :, :, 2] = draws[1, 5, :, :, 0]  # third column repeats the first
        rows = _reduction_rows(wts, 2.0, x, y, z, draws, 1e-9)
        assert rows[4].tolist() == [True, False]
        rep = _reduction_report(rows, 1, 1e-9)
        assert rep.spectral_ok and not rep.subspace_fuzz_ok and not rep.verdict

    def test_disagreeing_verdicts_are_violations(self):
        # the reduction's cross-check: where the spectral condition and the subspace samples
        # disagree, the defect is a violation by at least 2 tol, whatever the residuals say
        tol = 1e-9
        e = np.array([[0, 1.0, 0.9], [1.0, 0, 0.6], [0.9, 0.6, 0]])
        wts = np.repeat(pair_weights(e, 2.0)[None], 2, axis=0)
        x, y, z = (np.repeat(basis(3, k)[None], 2, axis=0) for k in range(3))
        draws = _subspace_draws(3, [0, 1], 16)
        draws[1, 5, :, :, 2] = draws[1, 5, :, :, 0]  # the degenerate frame: a sample fails
        _, hodge, mu, margin, ok = _reduction_rows(wts, 2.0, x, y, z, draws, tol)
        assert (margin >= -tol).all() and ok.tolist() == [True, False]
        # hand-made rows: a margin below -tol while every sample passes (disagrees), and
        # the same margin with a failed sample (agrees)
        hodge, mu = np.append(hodge, [0.0, 0.0]), np.append(mu, [0.0, 0.0])
        margin, ok = np.append(margin, [-1.5 * tol, -1.5 * tol]), np.append(ok, [True, False])
        d = _reduction_defect(hodge, mu, margin, ok, tol)
        assert d[1] <= -2 * tol and d[2] <= -2 * tol
        residual = np.maximum(hodge / HODGE_RESIDUAL_TOL, mu / MU_CONSISTENCY_TOL)
        agree = [0, 3]
        assert d[agree].tolist() == np.minimum(margin, -tol * residual)[agree].tolist()
        assert d[0] >= -tol and d[3] == -1.5 * tol

    @pytest.mark.parametrize(
        "seed,p",
        [pytest.param(s, 7.5, id=str(s)) for s in (28, 1, 2)]
        + [pytest.param(s, p, id=f"p{p:g}-{s}") for p in (10.0, 20.0, 40.0) for s in (28, 1, 2)],
    )
    def test_small_entry_spectral_margin_matches_exact_n3(self, seed, p):
        # at n=3 the wedge square of any orthonormal basis is all of the
        # bivectors, so the mus are exactly sqrt(E_ij^p) and the margin is
        # (sum E - 2 max E) / max(1, sum E); seed 28's witness has a
        # degenerate triangle with a 0.0016 entry, E^p ~ 1e-21 at p=7.5;
        # at p = 10, 20 and 40 unsorted rows of B gave 2, 15 and 42 false
        # violations at seed 28
        cfg = TrialConfig(n=3, p=p, trials=600, seed=seed, matrix_mode="repaired-random")
        rep = run_fuzz("reduction", cfg)
        assert rep.violations == 0
        w = rep.witness
        e = np.array(w["matrix"])
        pairs = e[[0, 0, 1], [1, 2, 2]]
        exact = (pairs.sum() - 2 * pairs.max()) / max(1.0, pairs.sum())
        got = check_orthonormal_reduction(
            e, p, *(_l2c(w[k]) for k in "xyz"), inner_seed=w["inner_seed"], inner_stream=w["inner_stream"]
        )
        assert got.spectral_margin == pytest.approx(exact, abs=cfg.tolerance)
        assert got.verdict

    def test_needs_three_dimensions(self):
        rng = trial_rng(20)
        e = np.array([[0, 1.0], [1.0, 0]])
        with pytest.raises(ValueError, match="cannot span"):
            check_orthonormal_reduction(e, 2.0, basis(2, 0), basis(2, 1), basis(2, 0))

    @pytest.mark.parametrize("n", [3, 4, 6, 16, 32])
    @pytest.mark.parametrize("count", [1, 7, 512])
    def test_one_product_maps_every_subspace_sample(self, n, count):
        # one (count, 48, 3) @ (count, 3, n) product keeps the bits of the 16 per-sample products
        rng = trial_rng(n, count)
        frames = states_batch(rng, count * 48, 3).reshape(count, 16, 3, 3)
        q, _ = np.linalg.qr(np.stack([states_batch(rng, count, n) for _ in range(3)], axis=-1))
        v = q.swapaxes(-1, -2)
        want = np.concatenate([frames[:, s] @ v for s in range(16)], axis=1)
        assert np.array_equal(frames.reshape(count, 48, 3) @ v, want)

    @pytest.mark.parametrize("n,p,tol", [(3, 2.0, 1e-9), (3, 2.0, -0.1), (4, 2.5, -0.1), (6, 1.5, -0.1)])
    def test_subspace_verdicts_match_per_sample_products(self, n, p, tol):
        # a negative tolerance asks for a margin, so some rows fail and some pass
        rng = trial_rng(60 + n)
        count = 200
        wts = pair_weights(distance_matrices_batch(rng, count, n, "repaired-random"), p)
        x, y, z = (states_batch(rng, count, n) for _ in range(3))
        draws = _subspace_draws(5, range(count), 16)
        # the per-sample loop the kernel ran before its one product, on frames built as it builds them
        v = np.linalg.qr(np.stack([x, y, z], axis=-1))[0].swapaxes(-1, -2)
        cols = (draws[:, :, 0] + 1j * draws[:, :, 1]).swapaxes(-1, -2).reshape(-1, 3, 3)
        *vectors, ok = _orthonormalize_triples(cols[:, 0], cols[:, 1], cols[:, 2])
        frames = np.stack(vectors, axis=1).reshape(count, 16, 3, 3)
        want = ok.reshape(count, 16).all(axis=-1)
        for s in range(16):
            t = frames[:, s] @ v
            slack, dmax, _ = _triangle_rows(wts, p, t[:, 0], t[:, 1], t[:, 2])
            want &= slack >= -tol * np.maximum(1.0, dmax)
        assert tol > 0 or 0 < want.sum() < count
        assert np.array_equal(_reduction_rows(wts, p, x, y, z, draws, tol)[4], want)


class TestTriangleDefect:
    def test_eigenweight_violation_at_canonical_triple(self):
        # pair weights (E_23, E_13, E_12) = (1, 1, 3) break the spectral
        # condition; the canonical triple realizes distances (3, 1, 1)
        entries = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        p = 3.0
        ds = [
            dp_from_weights(entries, p, basis(3, 0), basis(3, 1)),
            dp_from_weights(entries, p, basis(3, 0), basis(3, 2)),
            dp_from_weights(entries, p, basis(3, 1), basis(3, 2)),
        ]
        assert ds == pytest.approx([3.0, 1.0, 1.0], rel=1e-14)
        d, _ = triangle_defect(entries, p, basis(3, 0), basis(3, 1), basis(3, 2))
        assert d == pytest.approx(-1.0, abs=1e-14)

    def test_equals_min_cyclic_defect(self):
        rng = trial_rng(21)
        e = sample_distance_matrix(5, "euclidean-points", rng).entries
        x, y, z = (sample_pure_state(5, rng) for _ in range(3))
        d, dmax = triangle_defect(e, 2.0, x, y, z)
        dxy = dp_from_weights(e, 2.0, x, y)
        dxz = dp_from_weights(e, 2.0, x, z)
        dyz = dp_from_weights(e, 2.0, y, z)
        cyclic = min(dxz + dyz - dxy, dxy + dyz - dxz, dxy + dxz - dyz)
        assert d == pytest.approx(cyclic, abs=1e-15)
        assert dmax == max(dxy, dxz, dyz)


def _kernel_case(name, n, count):
    """A batched kernel of ``checks`` as a function of a row slice, over ``count`` seeded rows."""
    rng = trial_rng(77, n)
    x, y, z = (states_batch(rng, count, n) for _ in range(3))
    u, v, w, _ = _orthonormalize_triples(x, y, z)
    a = pair_weights_batch(rng, count, n, "uniform")
    wts = pair_weights(distance_matrices_batch(rng, count, n, "euclidean-points"), 2.5)
    if name == "triangle":
        return lambda s: _triangle_rows(wts[s], 2.5, x[s], y[s], z[s])
    if name == "minorial":
        return lambda s: _minorial_rows(a[s], u[s], v[s], w[s])
    if name == "convexity":
        return lambda s: _convexity_rows(("max", "min", "sum", "powersum"), a[s], u[s], v[s], w[s], 3.0)
    if name == "w1":
        return lambda s: _w1_rows(a[s], u[s], v[s], w[s])
    if name == "projector":
        b = states_batch(rng, count, n * (n - 1) // 2)
        mask = rng.random(b.shape) < 0.5
        return lambda s: _projector_rows(b[s], x[s], mask[s])
    draws = _subspace_draws(77, range(count), 4)
    return lambda s: _reduction_rows(wts[s], 2.5, x[s], y[s], z[s], draws[s].copy(), 1e-9)


_KERNEL_CASES = [
    (name, n) for name in ("triangle", "minorial", "convexity", "w1", "projector") for n in (3, 4, 6, 10, 16, 24)
] + [("reduction", 3), ("reduction", 6)]


class TestKernelRows:
    @pytest.mark.parametrize("name,n", _KERNEL_CASES)
    def test_rows_do_not_depend_on_call_size(self, name, n):
        # campaigns run each chunk's kernel over row slices, and verifiers run
        # it on one row: every row must get the bits of the whole-chunk call
        count = 512
        kernel = _kernel_case(name, n, count)

        def rows(s):
            out = kernel(s)
            return out if isinstance(out, tuple) else (out,)

        whole = rows(slice(0, count))
        for size, stop in ((1, 40), (2, 80), (37, count)):
            for start in range(0, stop, size):
                part = rows(slice(start, min(start + size, count)))
                for got, want in zip(part, whole):
                    assert np.array_equal(got, want[start : start + size], equal_nan=True), (size, start)
