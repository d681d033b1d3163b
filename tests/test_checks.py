import json
from itertools import combinations

import numpy as np
import pytest

from conftest import basis, interior_product
from pqdist.exterior import Bivector, _wedge_basis, pair_positions, wedge2, wedge3
from pqdist.fileio import _l2c
from pqdist.fuzz import _REDUCTION_STREAM_BASE, TrialConfig, _reduction_defect, reevaluate_witness, run_fuzz
from pqdist.metric import _minor_sums, dp_from_weights, pair_weights
import pqdist.checks
from pqdist.checks import (
    HODGE_RESIDUAL_TOL,
    MU_CONSISTENCY_TOL,
    SUBSPACE_SAMPLES,
    _convexity_rows,
    _minorial_rows,
    _projector_rows,
    _reduction_report,
    _reduction_rows,
    _subspace_sum_bounds,
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


def _violating_n3(rng, count):
    """``count`` n=3 weight systems that break the spectral condition, drawn as in acceptance
    criterion 3: one entry pushed 10-100% past the sum of the other two (no metric)."""
    lam = rng.uniform(0.2, 2.0, (count, 3))
    k, rows = rng.integers(3, size=count), np.arange(count)
    lam[rows, k] = (lam.sum(axis=1) - lam[rows, k]) * (1.0 + rng.uniform(0.1, 1.0, count))
    entries = np.zeros((count, 3, 3))
    for (i, j), val in zip(((1, 2), (0, 2), (0, 1)), lam.T):
        entries[:, i, j] = entries[:, j, i] = val
    return entries


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


def per_sample_oracle(wts, p, x, y, z, draws):
    """The reduction's subspace samples evaluated one by one in C^n, on frames built as the kernel builds
    them: (slacks, dmaxes, the three minor sums (count, 16, 3), frame flags (count, 16), frames, basis)."""
    v = np.linalg.qr(np.stack([x, y, z], axis=-1))[0].swapaxes(-1, -2)
    cols = (draws[:, :, 0] + 1j * draws[:, :, 1]).swapaxes(-1, -2).reshape(-1, 3, 3)
    *vectors, ok = _orthonormalize_triples(cols[:, 0], cols[:, 1], cols[:, 2])
    frames = np.stack(vectors, axis=1).reshape(len(x), 16, 3, 3)
    slacks, dmaxes, sums = [], [], []
    for s in range(16):
        t = frames[:, s] @ v
        slack, dmax, _ = _triangle_rows(wts, p, t[:, 0], t[:, 1], t[:, 2])
        slacks.append(slack)
        dmaxes.append(dmax)
        sums.append([_minor_sums(wts, t[:, a], t[:, b])[0] for a, b in ((0, 1), (0, 2), (1, 2))])
    return (np.stack(slacks, 1), np.stack(dmaxes, 1), np.array(sums).transpose(2, 0, 1),
            ok.reshape(len(x), 16), frames, v)  # fmt: skip


def graded_weights(rng, count, n, p):
    """Pair weights E^p of random entries log-uniform on [1e-3, 1]."""
    return (10.0 ** rng.uniform(-3.0, 0.0, (count, n * (n - 1) // 2))) ** p


class TestOrthonormalGate:
    def test_rejects_gram_deviation_above_the_gate(self):
        # a Gram deviation of 1e-6 lies between the gate (1e-8) and 10^4 times it; every
        # verifier that takes an orthonormal triple must reject it, not polish it
        e1, e2, e3 = basis(3, 0), basis(3, 1), basis(3, 2)
        x, y, z = e1, e2 + 1e-6 * e1, e3
        a = np.ones((3, 3)) - np.eye(3)
        for check in (
            lambda: check_minorial(a, x, y, z),
            lambda: check_convexity("max", a, x, y, z),
            lambda: check_generator_identity_w1(a, x, y, z),
            lambda: ensure_orthonormal_triple(x, y, z),
        ):
            with pytest.raises(ValueError, match="orthonormal"):
                check()
        # the same triple at a deviation of 1e-9 passes the gate
        assert check_minorial(a, x, e2 + 1e-9 * e1, z).lower >= -1e-12

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
        # a reduction chunk draws its subspace samples as one (count, 16, 2, 3, 3) block;
        # row 0 is the 16 sequential (re, im) pairs of (3, 3) draws that witnesses drawn
        # one stream per trial were made with
        for stream in (0, 5, 2**32 + 17):
            rng = trial_rng(11, stream)
            pairs = [[rng.standard_normal((3, 3)), rng.standard_normal((3, 3))] for _ in range(16)]
            assert np.array_equal(trial_rng(11, stream).standard_normal((7, 16, 2, 3, 3))[0], np.array(pairs))
        # row t of a block is row t of a (t + 1)-row block, so a verifier draws rows 0..t
        block = trial_rng(11, 2**32 + 1).standard_normal((512, 16, 2, 3, 3))
        for t in (0, 1, 37, 510, 511):
            assert np.array_equal(trial_rng(11, 2**32 + 1).standard_normal((t + 1, 16, 2, 3, 3))[t], block[t])
        # edge keys reduce modulo 2^64
        for seed in (2**64 + 7, -3, 2**63):
            for stream in (2**32 + 3, 2**64 - 1, 2**64 + 5, -1):
                got = trial_rng(seed, stream).standard_normal(8)
                assert np.array_equal(got, trial_rng(seed % 2**64, stream % 2**64).standard_normal(8))

    def test_old_form_witness_replays_bit_for_bit(self):
        # written when each trial drew from its own stream 2^32 + trial: no inner_row,
        # so the verifier draws row 0 of that stream
        w = {
            "trial": 29, "n": 3, "p": 2.5,
            "matrix": [
                [0.0, 0.709792544599921, 0.530986299420265],
                [0.709792544599921, 0.0, 0.6612730293818998],
                [0.530986299420265, 0.6612730293818998, 0.0],
            ],
            "x": [[0.342129366132586, -0.28985765399464797], [0.6220405058349435, 0.10043240831425515],
                  [0.5311437062927701, 0.3461146356004319]],
            "y": [[0.31840714676984566, -0.20266678212095282], [0.6990602323454546, 0.15467629952654677],
                  [-0.46416362467573985, -0.3598405587984714]],
            "z": [[0.597749086976813, 0.026175314415604126], [0.6089973194442004, -0.2521688807526017],
                  [0.15258904381400937, 0.42925585159822316]],
            "inner_seed": 5, "inner_stream": 4294967325, "tolerance": 1e-09,
            "hodge_residual": 1.716587549445839e-15, "mu_residual": 1.3322676295501878e-15,
            "spectral_margin": 0.25365595489216813, "verdict": True, "defect": -1.716587549445839e-14,
        }  # fmt: skip
        assert reevaluate_witness("reduction", w) == w["defect"]
        rep = check_orthonormal_reduction(
            np.array(w["matrix"]), 2.5, *(_l2c(w[k]) for k in "xyz"), inner_seed=5, inner_stream=w["inner_stream"]
        )
        assert (rep.hodge_residual, rep.mu_residual, rep.spectral_margin, rep.verdict) == (
            w["hodge_residual"], w["mu_residual"], w["spectral_margin"], True,
        )  # fmt: skip

    def test_verifier_draws_row_t_of_the_block(self):
        # weights that break the spectral condition make each trial's sample verdict depend on its
        # draws; the verifier's report at row t of a stream is the kernel's on the whole block
        rng = trial_rng(23, 1)
        count, p, tol = 512, 2.0, 1e-9
        entries = _violating_n3(rng, count)
        x, y, z = (states_batch(rng, count, 3) for _ in range(3))
        block = trial_rng(23, _REDUCTION_STREAM_BASE).standard_normal((count, SUBSPACE_SAMPLES, 2, 3, 3))
        rows = _reduction_rows(pair_weights(entries, p), p, x, y, z, block, tol)
        checked = [0, 1, 255, 510, 511, int(np.argmax(rows[4]))]  # with the first row whose samples pass
        assert {bool(rows[4][t]) for t in checked} == {True, False}
        for t in checked:
            got = check_orthonormal_reduction(
                entries[t], p, x[t], y[t], z[t], inner_seed=23, inner_stream=_REDUCTION_STREAM_BASE, inner_row=t
            )
            assert got == _reduction_report(rows, t, tol)
        # without inner_row, row 0 of each trial's own stream, the sequential pairs drawn before blocks
        verdicts = set()
        for t in range(32):
            seq, row = trial_rng(23, _REDUCTION_STREAM_BASE + t), slice(t, t + 1)
            draws = np.array([[[seq.standard_normal((3, 3)) for _ in range(2)] for _ in range(16)]])
            want = _reduction_rows(pair_weights(entries[row], p), p, x[row], y[row], z[row], draws, tol)
            got = check_orthonormal_reduction(
                entries[t], p, x[t], y[t], z[t], inner_seed=23, inner_stream=_REDUCTION_STREAM_BASE + t
            )
            assert got == _reduction_report(want, 0, tol)
            verdicts.add(got.subspace_fuzz_ok)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_subspace_samples_catch_broken_spectral_condition(self, p):
        # where the spectral condition fails some orthonormal triple of the subspace breaks the
        # triangle inequality, and the samples must find one often enough: over 512 fixed-seed
        # n=3 weight systems the 16 samples of a block find one in 78% (p=2) and 55% (p=3) of
        # the trials, and a single sample in 14% and 7%
        rng = trial_rng(1, 23)
        count = 512
        entries = _violating_n3(rng, count)
        x, y, z = (states_batch(rng, count, 3) for _ in range(3))
        block = trial_rng(1, _REDUCTION_STREAM_BASE).standard_normal((count, SUBSPACE_SAMPLES, 2, 3, 3))
        _, _, _, margin, ok = _reduction_rows(pair_weights(entries, p), p, x, y, z, block, 1e-9)
        assert (margin < -1e-9).all()
        assert np.count_nonzero(~ok) / count > 0.3

    @pytest.mark.parametrize("row", [-1, 512, 10**12, True, 1.5])
    def test_inner_row_is_gated_before_any_draw(self, row):
        # a malformed witness must not ask for a multi-GB block
        e = np.array([[0, 1.0, 0.9], [1.0, 0, 0.6], [0.9, 0.6, 0]])
        xs = [basis(3, k) for k in range(3)]
        with pytest.raises(ValueError, match="inner_row"):
            check_orthonormal_reduction(e, 2.0, *xs, inner_row=row)
        w = run_fuzz("reduction", TrialConfig(n=3, p=2.0, trials=3, seed=1)).witness
        with pytest.raises(ValueError, match="inner_row"):
            reevaluate_witness("reduction", json.loads(json.dumps({**w, "inner_row": row})))

    def test_degenerate_subspace_frame_fails_the_sample(self):
        # a rank-deficient draw has no orthonormal frame; its trial must not pass
        e = np.array([[0, 1.0, 0.9], [1.0, 0, 0.6], [0.9, 0.6, 0]])
        wts = np.repeat(pair_weights(e, 2.0)[None], 2, axis=0)
        x, y, z = (np.repeat(basis(3, k)[None], 2, axis=0) for k in range(3))
        draws = trial_rng(3).standard_normal((2, 16, 2, 3, 3))
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
        draws = trial_rng(3).standard_normal((2, 16, 2, 3, 3))
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

    def test_mu_residual_over_its_gate_is_a_violation(self):
        # hand-made kernel rows: Hodge residual 0, mu residual 1e-7 (between the mu gate,
        # 1e-9, and 10^4 times it), a passing margin and passing samples
        tol = 1e-9
        rows = (np.array([[0.5, 0.7, 1.0]]), np.array([0.0]), np.array([1e-7]), np.array([0.25]), np.array([True]))
        rep = _reduction_report(rows, 0, tol)
        assert not rep.mu_consistent and not rep.verdict
        assert _reduction_defect(*rows[1:], tol)[0] < -tol

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
            e, p, *(_l2c(w[k]) for k in "xyz"), **{k: w[k] for k in ("inner_seed", "inner_stream", "inner_row")}
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
        wts = distance_matrices_batch(rng, count, n, "repaired-random") ** p  # pair values
        x, y, z = (states_batch(rng, count, n) for _ in range(3))
        draws = trial_rng(5).standard_normal((count, 16, 2, 3, 3))
        # the per-sample loop the kernel ran before its one product, on frames built as it builds them
        slack, dmax, _, ok, _, _ = per_sample_oracle(wts, p, x, y, z, draws)
        want = ok.all(axis=-1) & (slack >= -tol * np.maximum(1.0, dmax)).all(axis=-1)
        assert tol > 0 or 0 < want.sum() < count
        assert np.array_equal(_reduction_rows(wts, p, x, y, z, draws, tol)[4], want)

    @pytest.mark.parametrize("n", [3, 6, 16])
    def test_screen_matches_the_judge_at_its_decision(self, n):
        # rows whose decision lies within rounding of one sample.  The pair weight of
        # coordinates (1, 2) is 1e-20, V contains e_1 and e_2, and sample 0's first two
        # frame vectors span them up to 1e-10, so its first minor sum is below 1e-18 while
        # every product that makes it is of order 1: a screen without its radius puts that
        # sum anywhere within ~1e-15, which at p = 20 moves the distance by about 2x.
        # Each row's call takes its tolerance from the oracle's normalized slack of that
        # sample (its row's smallest), or one ulp beside it, so the judge must decide the
        # row; both outcomes occur.
        rng = trial_rng(80 + n)
        count, p = 24, 20.0
        wts = rng.uniform(0.5, 1.0, (count, n * (n - 1) // 2)) ** p
        wts[:, pair_positions(n)[1, 2]] = 1e-20
        z = states_batch(rng, count, n)
        x, y = (z * (rng.standard_normal((count, 1)) + 1j) for _ in range(2))
        x[:, 1:3] += rng.standard_normal((count, 2, 2)) @ np.array([1.0, 1j])
        y[:, 1:3] += rng.standard_normal((count, 2, 2)) @ np.array([1.0, 1j])
        v = np.linalg.qr(np.stack([x, y, z], axis=-1))[0].swapaxes(-1, -2)
        draws = trial_rng(7, n).standard_normal((count, 16, 2, 3, 3))
        for a, k in ((0, 1), (1, 2)):  # frame column a: the coordinates of e_k over v, nudged by 1e-10
            col = np.conj(v[:, :, k]) + 1e-10 * (draws[:, 0, 0, :, a] + 1j * draws[:, 0, 1, :, a])
            draws[:, 0, 0, :, a], draws[:, 0, 1, :, a] = col.real, col.imag
        slack, dmax, sums, ok, _, _ = per_sample_oracle(wts, p, x, y, z, draws)
        defect = slack / np.maximum(1.0, dmax)
        assert ok.all() and (defect.argmin(axis=1) == 0).all() and (sums[:, 0, 0] < 1e-18).all()
        verdicts = []
        for t in range(count):
            tol = -np.nextafter(defect[t, 0], (-np.inf, np.inf)[t % 3 == 2]) if t % 3 else -defect[t, 0]
            want = bool((slack[t] >= -tol * np.maximum(1.0, dmax[t])).all())
            row = slice(t, t + 1)
            got = _reduction_rows(wts[row], p, x[row], y[row], z[row], draws[row].copy(), tol)[4][0]
            assert got == want, t
            verdicts.append(want)
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("p", [2.0, 3.0, 10.0, 20.0])
    @pytest.mark.parametrize("n", [3, 4, 6, 9, 16])
    def test_screen_intervals_contain_the_judges_sums(self, n, p):
        # graded entries (1e-3 to 1), so at p = 20 the weights span 60 decades
        rng = trial_rng(90 + n, int(p))
        count = 64
        wts = graded_weights(rng, count, n, p)
        x, y, z = (states_batch(rng, count, n) for _ in range(3))
        draws = trial_rng(9, n).standard_normal((count, 16, 2, 3, 3))
        _, _, sums, _, frames, v = per_sample_oracle(wts, p, x, y, z, draws)
        lo, hi = _subspace_sum_bounds(wts, v, _wedge_basis(v), frames)
        assert ((lo <= sums) & (sums <= hi)).all()
        assert (hi - lo <= 1e-9 * (hi + lo)).mean() > 0.9  # the intervals are narrow, too

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_few_samples_reach_the_judge(self, p, monkeypatch):
        # the screen decides almost every sample of random rows; a fall-back that
        # judges every sample would send all 512 * 16 of them to the triangle kernel
        rng = trial_rng(31, int(p))
        count = 512
        wts = distance_matrices_batch(rng, count, 6, "euclidean-points") ** p
        x, y, z = (states_batch(rng, count, 6) for _ in range(3))
        draws = trial_rng(32).standard_normal((count, 16, 2, 3, 3))
        judged = []

        def counting(wts, p, *states):
            judged.append(len(wts))
            return _triangle_rows(wts, p, *states)

        monkeypatch.setattr(pqdist.checks, "_triangle_rows", counting)
        ok = _reduction_rows(wts, p, x, y, z, draws, 1e-9)[4]
        assert ok.all()
        assert sum(judged) < 0.01 * count * SUBSPACE_SAMPLES


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
    wts = distance_matrices_batch(rng, count, n, "euclidean-points") ** 2.5  # pair values
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
    draws = trial_rng(77).standard_normal((count, 4, 2, 3, 3))
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
