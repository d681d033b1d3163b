import json
import tracemalloc

import numpy as np
import pytest

from pqdist import fuzz, metric
from pqdist.checks import _triangle_bounds, _triangle_rows
from pqdist.fileio import _c2l, _m2l
from pqdist.fuzz import (
    _KERNELS,
    CHUNK_TRIALS,
    PROPERTIES,
    TrialConfig,
    reevaluate_witness,
    run_fuzz,
    thread_count,
)
from pqdist.metric import DistanceMatrix, _minor_sum_bounds, _minor_sums, pair_weights, shortest_path_closure
from pqdist.sampling import _orthonormalize_triples, _symmetric_from_pairs


def scrubbed(report):
    doc = report.to_dict()
    doc.pop("elapsed_ms")
    return json.dumps(doc)


class TestTriangleCampaigns:
    def test_seed7_n4_p2_clean(self):
        rep = run_fuzz("triangle", TrialConfig(n=4, p=2.0, trials=10_000, seed=7))
        assert rep.violations == 0
        assert rep.worst_defect >= -1e-9

    @pytest.mark.parametrize("mode", ["euclidean-points", "repaired-random", "zero-one"])
    def test_modes_clean_at_p2(self, mode):
        rep = run_fuzz("triangle", TrialConfig(n=3, p=2.0, trials=2_000, seed=11, matrix_mode=mode))
        assert rep.violations == 0

    def test_n2_is_always_clean_for_any_p(self):
        # single-pair case composes the overlap distance with a concave power
        rep = run_fuzz("triangle", TrialConfig(n=2, p=7.0, trials=5_000, seed=13))
        assert rep.violations == 0

    def test_small_p_violations_found(self):
        rep = run_fuzz("triangle", TrialConfig(n=2, p=1.0, trials=100, seed=7))
        assert rep.violations > 0
        assert rep.worst_defect < -1e-6
        assert rep.witness["defect"] == rep.worst_defect

    def test_user_supplied_matrix(self):
        m = DistanceMatrix.from_array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        cfg = TrialConfig(n=3, p=2.0, trials=1_000, seed=3, matrix_mode="user-supplied")
        rep = run_fuzz("triangle", cfg, matrix=m)
        assert rep.violations == 0
        assert rep.to_dict()["config"]["matrix"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        cfg = TrialConfig(n=5, p=2.5, trials=3_000, seed=99)
        assert scrubbed(run_fuzz("triangle", cfg)) == scrubbed(run_fuzz("triangle", cfg))

    @pytest.mark.parametrize("prop", PROPERTIES)
    def test_thread_count_does_not_change_results(self, prop):
        # at least two chunks, so the threads split the campaign
        trials = 600 if prop == "reduction" else 4_000
        cfg = TrialConfig(n=4, p=2.0, trials=trials, seed=42)
        a = run_fuzz(prop, cfg, threads=1)
        b = run_fuzz(prop, cfg, threads=8)
        assert scrubbed(a) == scrubbed(b)

    def test_env_var_cap(self, monkeypatch):
        monkeypatch.setenv("PQDIST_THREADS", "2")
        assert thread_count() == 2
        monkeypatch.delenv("PQDIST_THREADS")
        assert thread_count() >= 1
        assert thread_count(5) == 5

    def test_different_seeds_differ(self):
        a = run_fuzz("triangle", TrialConfig(n=4, p=2.0, trials=1_000, seed=1))
        b = run_fuzz("triangle", TrialConfig(n=4, p=2.0, trials=1_000, seed=2))
        assert a.worst_defect != b.worst_defect

    def test_chunk_boundary_sizes(self):
        # counts straddling the chunk size follow the same stream layout
        for trials in (CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1):
            rep = run_fuzz("triangle", TrialConfig(n=3, p=2.0, trials=trials, seed=5))
            assert rep.trials == trials


class TestAllProperties:
    @pytest.mark.parametrize(
        "prop,cfg",
        [
            ("triangle", TrialConfig(n=4, p=2.0, trials=1_500, seed=21)),
            ("minorial", TrialConfig(n=6, p=2.0, trials=1_500, seed=21)),
            ("convexity", TrialConfig(n=5, p=3.0, trials=1_500, seed=21)),
            ("projector", TrialConfig(n=5, p=2.0, trials=1_500, seed=21, tolerance=1e-10)),
            ("w1", TrialConfig(n=6, p=2.0, trials=1_000, seed=21, tolerance=1e-10)),
            ("reduction", TrialConfig(n=6, p=2.0, trials=96, seed=21)),
        ],
    )
    def test_clean_run_and_witness_reevaluation(self, prop, cfg):
        rep = run_fuzz(prop, cfg)
        assert rep.violations == 0
        assert abs(reevaluate_witness(prop, json.loads(json.dumps(rep.witness))) - rep.worst_defect) <= 1e-12

    @pytest.mark.parametrize(
        "prop,cfg",
        [
            ("triangle", TrialConfig(n=2, p=1.0, trials=700, seed=7)),
            ("triangle", TrialConfig(n=6, p=2.5, trials=2_000, seed=3)),
            ("projector", TrialConfig(n=5, p=2.0, trials=2_000, seed=3)),
            ("reduction", TrialConfig(n=6, p=2.0, trials=600, seed=21)),
            ("triangle", TrialConfig(n=16, p=2.5, trials=1024, seed=5)),
            ("projector", TrialConfig(n=12, p=2.0, trials=1024, seed=3)),
            ("projector", TrialConfig(n=24, p=2.0, trials=512, seed=3)),
            ("minorial", TrialConfig(n=6, p=2.0, trials=600, seed=11)),
            ("minorial", TrialConfig(n=16, p=2.0, trials=520, seed=11, matrix_mode="zero-one")),
            ("convexity", TrialConfig(n=3, p=3.0, trials=600, seed=11, matrix_mode="zero-one")),
            ("convexity", TrialConfig(n=6, p=3.0, trials=600, seed=11)),
            ("w1", TrialConfig(n=4, p=2.0, trials=600, seed=11, matrix_mode="zero-one")),
            ("w1", TrialConfig(n=6, p=2.0, trials=600, seed=11)),
        ],
    )
    def test_witness_reevaluates_bitwise(self, prop, cfg):
        # the scalar verifier runs the campaign's kernel on one row, so inputs
        # that need no orthonormal polish reproduce the worst defect exactly
        rep = run_fuzz(prop, cfg)
        assert reevaluate_witness(prop, json.loads(json.dumps(rep.witness))) == rep.worst_defect

    def test_zero_one_weight_mode(self):
        cfg = TrialConfig(n=5, p=2.0, trials=1_000, seed=4, matrix_mode="zero-one")
        rep = run_fuzz("minorial", cfg)
        assert rep.violations == 0
        vals = {v for row in rep.witness["weights"] for v in row}
        assert vals <= {0.0, 1.0}

    def test_report_schema(self):
        rep = run_fuzz("w1", TrialConfig(n=4, p=2.0, trials=200, seed=1))
        doc = rep.to_dict()
        assert list(doc) == [
            "property",
            "config",
            "trials",
            "violations",
            "worst_defect",
            "witness",
            "seed",
            "elapsed_ms",
            "version",
        ]
        assert doc["config"]["tolerance"] == 1e-9

    def test_witness_trial_index_in_range(self):
        rep = run_fuzz("projector", TrialConfig(n=4, p=2.0, trials=700, seed=6))
        assert 0 <= rep.witness["trial"] < 700

    @pytest.mark.parametrize("prop", PROPERTIES)
    def test_malformed_witness_raises_value_error(self, prop):
        cfg = TrialConfig(n=4, p=2.0, trials=20, seed=3)
        good = json.loads(json.dumps(run_fuzz(prop, cfg).witness))
        with pytest.raises(ValueError, match="witness: missing key"):
            reevaluate_witness(prop, {})
        with pytest.raises(ValueError, match="expected a JSON object, got list"):
            reevaluate_witness(prop, [good])
        key = "v" if prop == "projector" else "x"
        with pytest.raises(ValueError, match=f"'{key}' must be list, got int"):
            reevaluate_witness(prop, {**good, key: 5})
        # an extra column is rejected, not dropped
        with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
            reevaluate_witness(prop, {**good, key: [row + [9.0] for row in good[key]]})

    @pytest.mark.parametrize("prop", ["minorial", "convexity", "w1"])
    def test_replay_checks_orthonormality_without_repair(self, prop):
        w = json.loads(json.dumps(run_fuzz(prop, TrialConfig(n=4, p=2.0, trials=20, seed=3)).witness))
        with pytest.raises(ValueError, match="not orthonormal"):
            reevaluate_witness(prop, {**w, "y": w["x"]})


def _width(prop: str, n: int) -> int:
    """Elements per row of the property's kernel."""
    pairs = n * (n - 1) // 2
    return pairs if prop in ("triangle", "reduction") else pairs * (n - 2) // 3


class TestKernelSlices:
    @pytest.mark.parametrize(
        "prop,cfg",
        [
            ("triangle", TrialConfig(n=10, p=2.5, trials=600, seed=8)),
            ("minorial", TrialConfig(n=10, p=2.0, trials=600, seed=8)),
            ("convexity", TrialConfig(n=10, p=3.0, trials=600, seed=8)),
            ("projector", TrialConfig(n=10, p=2.0, trials=600, seed=8)),
            ("w1", TrialConfig(n=10, p=2.0, trials=600, seed=8)),
            ("reduction", TrialConfig(n=6, p=2.0, trials=40, seed=8)),
            ("minorial", TrialConfig(n=24, p=2.0, trials=512, seed=9)),
            ("triangle", TrialConfig(n=32, p=2.5, trials=512, seed=9, matrix_mode="repaired-random")),
        ],
    )
    def test_slicing_is_invisible(self, monkeypatch, prop, cfg):
        # one-row kernel calls give the report of the default slices
        if cfg.n >= 24:
            assert metric._slice_rows(_width(prop, cfg.n)) < CHUNK_TRIALS  # the default run slices
        default = scrubbed(run_fuzz(prop, cfg, threads=1))
        monkeypatch.setattr(metric, "_BUDGET", 1)
        assert scrubbed(run_fuzz(prop, cfg, threads=1)) == default

    @pytest.mark.parametrize(
        "prop,n,mib",
        [("minorial", 32, 16), ("w1", 32, 16), ("triangle", 64, 48)],
    )
    def test_chunk_memory_stays_small(self, prop, n, mib):
        # a chunk's temporaries are bounded by the slice budget, not by
        # CHUNK_TRIALS x C(n, 3) elements (hundreds of MiB at n=32)
        cfg = TrialConfig(n=n, p=2.0, trials=CHUNK_TRIALS, seed=1)
        tracemalloc.start()
        try:
            _KERNELS[prop](cfg, None, 0, CHUNK_TRIALS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _adversarial_rows(n, count, seed, huge=False, planar=8):
    """Distance matrices and state rows built to stress the triangle screen.

    Euclidean and graded matrices (a closure of log-uniform weights from 1e-3
    to 1) alternate.  Among the states: repeated states (minors exactly zero,
    a degenerate orthonormal variant), states parallel up to a phase and at
    1e-9 and 1e-160, states with zero components, and on every
    ``planar``-th row a triple on two coordinates, where d_p breaks the
    triangle inequality for p < 2.  With ``huge``, every 16th matrix is
    scaled to about 1e300, so E^p overflows.
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((count, n, 3))
    mats = np.sqrt(((pts[:, :, None] - pts[:, None]) ** 2).sum(-1))
    graded = 10.0 ** rng.uniform(-3.0, 0.0, (count, n * (n - 1) // 2))
    mats[1::2] = shortest_path_closure(_symmetric_from_pairs(graded, n))[1::2]
    if huge:
        mats[5::16] *= 1e300
    x, y, z = (_unit(rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) for _ in range(3))
    y[0::8] = x[0::8]
    z[1::8] = np.exp(0.7j) * x[1::8]
    y[2::8] = _unit(x[2::8] + 1e-9 * rng.standard_normal((len(x[2::8]), n)))
    x[3::8, : n // 2] = 0.0
    x[3::8] = _unit(x[3::8])
    x[4::planar, 2:] = 0.0
    for v in (y, z):  # near x, where the distances add up least
        v[4::planar] = x[4::planar] + 0.3 * v[4::planar]
        v[4::planar, 2:] = 0.0
    for v in (x, y, z):
        v[4::planar] = _unit(v[4::planar])
    for v in (x, y):  # both at e_1 up to 1e-160: a^T W b and the minors underflow
        v[7::8] = np.eye(n)[0] + 1e-160 * rng.standard_normal((len(v[7::8]), n))
    return mats, x, y, z


def _exact_outcome(cfg, mats, x, y, z):
    """(violations, worst, trial, witness) of chunk 0 with the exact kernel on every row.

    The reference for the screened ``fuzz._chunk_triangle``: the whole-chunk
    evaluation that campaigns ran before rows were screened.
    """
    p = cfg.p
    wts = pair_weights(mats, p)

    def defect(a, b, c):
        slack, dmax, d = _triangle_rows(wts, p, a, b, c)
        return slack / np.maximum(1.0, dmax), d

    raw, raw_d = defect(x, y, z)
    u, v, w, ok = _orthonormalize_triples(x, y, z)
    ortho, ortho_d = defect(u, v, w)
    ortho = np.where(ok, ortho, np.inf)
    total = np.minimum(raw, ortho)
    local = int(np.argmin(total))
    if ortho[local] < raw[local]:
        states, dists, variant = (u, v, w), ortho_d, "orthonormal"
    else:
        states, dists, variant = (x, y, z), raw_d, "raw"
    witness = {
        "trial": local,
        "variant": variant,
        "n": cfg.n,
        "p": float(p),
        "matrix": _m2l(mats[local]),
        "x": _c2l(states[0][local]),
        "y": _c2l(states[1][local]),
        "z": _c2l(states[2][local]),
        "distances": [float(d) for d in dists[local]],
        "defect": float(total[local]),
    }
    violations = int(np.count_nonzero(~(total >= -cfg.tolerance)))
    return violations, float(total[local]), local, witness


_SCREEN_CASES = [
    (12, 1.5, False, False),
    (12, 2.0, False, True),
    (16, 10.0, True, False),
    (16, 20.0, False, False),
    (12, 2.0, True, True),
    (9, 20.0, True, True),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing rows
class TestTriangleScreen:
    @pytest.mark.parametrize("n,p,huge,fixed", _SCREEN_CASES)
    def test_screened_chunk_equals_exact_kernel_on_every_row(self, monkeypatch, n, p, huge, fixed):
        assert n * (n - 1) // 2 >= fuzz._SCREEN_MIN_PAIRS
        count = 320
        mats, x, y, z = _adversarial_rows(n, count, seed=n + int(p), huge=huge, planar=2 if p < 2 else 8)
        entries = None
        if fixed:  # a user-supplied matrix: one weight matrix for every row
            entries = mats[5] if huge else mats[1]
            mats = np.broadcast_to(entries, mats.shape)
        cfg = TrialConfig(n=n, p=p, trials=count, seed=0, matrix_mode="user-supplied" if fixed else "repaired-random")
        monkeypatch.setattr(fuzz, "_matrix_triple_batch", lambda *args: (mats, x, y, z))
        got = fuzz._chunk_triangle(cfg, entries, 0, count)
        violations, worst, trial, witness = _exact_outcome(cfg, mats, x, y, z)
        assert (got.violations, got.trial) == (violations, trial)
        assert json.dumps([got.worst, got.witness]) == json.dumps([worst, witness])
        u, v, w, ok = _orthonormalize_triples(x, y, z)
        rows, screened = fuzz._triangle_candidates(cfg, entries, mats, [(x, y, z), (u, v, w)], ok)
        assert set(rows) >= {trial}
        if p < 2:  # two-coordinate triples break the inequality, most decided by the screen alone
            assert violations >= 40 and screened > violations // 2
        if huge:
            assert np.isnan(worst) and violations > 0

    @pytest.mark.parametrize(
        "cfg,fixed",
        [
            (TrialConfig(n=32, p=2.5, trials=512, seed=1, matrix_mode="repaired-random"), False),
            (TrialConfig(n=16, p=10.0, trials=512, seed=2, matrix_mode="euclidean-points"), False),
            (TrialConfig(n=64, p=2.5, trials=512, seed=3, matrix_mode="user-supplied"), True),
        ],
    )
    def test_random_chunk_leaves_one_candidate(self, cfg, fixed):
        entries = np.asarray(_adversarial_rows(cfg.n, 2, seed=4)[0][1]) if fixed else None
        mats, x, y, z = fuzz._matrix_triple_batch(cfg, entries, 0, cfg.trials)
        u, v, w, ok = _orthonormalize_triples(x, y, z)
        rows, screened = fuzz._triangle_candidates(cfg, entries, mats, [(x, y, z), (u, v, w)], ok)
        assert len(rows) == 1 and screened == 0

    @pytest.mark.parametrize("n,p,huge,fixed", _SCREEN_CASES)
    def test_intervals_contain_the_exact_kernel(self, n, p, huge, fixed):
        mats, x, y, z = _adversarial_rows(n, 320, seed=n + int(p), huge=huge, planar=2 if p < 2 else 8)
        if fixed:
            mats = np.broadcast_to(mats[5] if huge else mats[1], mats.shape)
        u, v, w, ok = _orthonormalize_triples(x, y, z)
        wts = pair_weights(mats, p)
        with np.errstate(all="ignore"):
            weights = mats[0] ** p if fixed else mats**p
        for a, b, c in ((x, y, z), (u, v, w)):
            left, right = np.stack([a, a, b], axis=1), np.stack([b, c, c], axis=1)
            lo, hi = _minor_sum_bounds(weights, left, right)
            sums = np.stack([_minor_sums(wts, left[:, k], right[:, k])[0] for k in range(3)], axis=1)
            self._assert_within(lo, sums, hi)
            slack, dmax, _ = _triangle_rows(wts, p, a, b, c)
            d_lo, d_hi = _triangle_bounds(lo, hi, p)
            self._assert_within(d_lo, slack / np.maximum(1.0, dmax), d_hi)

    @staticmethod
    def _assert_within(lo, value, hi):
        finite = np.isfinite(lo) & np.isfinite(hi)
        assert np.all((lo <= value) & (value <= hi) | ~finite)
        assert not np.any(finite & ~np.isfinite(value))  # a non-finite value has a non-finite end


class TestValidationErrors:
    def test_unknown_property(self):
        with pytest.raises(ValueError, match="unknown property"):
            run_fuzz("sorting", TrialConfig(n=4, p=2.0, trials=10, seed=0))

    def test_bad_configs(self):
        with pytest.raises(ValueError, match="trials"):
            run_fuzz("triangle", TrialConfig(n=4, p=2.0, trials=0, seed=0))
        with pytest.raises(ValueError, match="dimension"):
            run_fuzz("minorial", TrialConfig(n=2, p=2.0, trials=10, seed=0))
        with pytest.raises(ValueError, match="concave"):
            run_fuzz("convexity", TrialConfig(n=4, p=1.0, trials=10, seed=0))
        with pytest.raises(ValueError, match="tolerance"):
            run_fuzz("triangle", TrialConfig(n=4, p=2.0, trials=10, seed=0, tolerance=0.0))
        # p = inf made every distance 1.0 and the run pass; tolerance = inf hid
        # every violation
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="exponent p must be positive and finite"):
                run_fuzz("triangle", TrialConfig(n=4, p=bad, trials=10, seed=0))
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                run_fuzz("triangle", TrialConfig(n=4, p=1.5, trials=10, seed=0, tolerance=bad))

    def test_config_dict_shape(self):
        good = {"n": 3, "p": 2, "trials": 10, "seed": 0}
        assert TrialConfig.from_dict(good) == TrialConfig(n=3, p=2.0, trials=10, seed=0)
        with pytest.raises(ValueError, match="JSON object"):
            TrialConfig.from_dict([good])
        with pytest.raises(ValueError, match="missing key 'trials'"):
            TrialConfig.from_dict({"n": 3, "p": 2.0, "seed": 0})
        with pytest.raises(ValueError, match="'n' must be int, got list"):
            TrialConfig.from_dict({**good, "n": [3]})
        # a misspelled key is an error, not a silently ignored field
        with pytest.raises(ValueError, match="unknown key.*'tolerence'"):
            TrialConfig.from_dict({**good, "tolerence": 1e-3})
        with pytest.raises(ValueError, match="unknown key.*'property'"):
            TrialConfig.from_dict({**good, "property": "triangle"})
        # JSON booleans are not numbers, although Python's bool subclasses int
        for key in ("n", "p", "trials", "seed", "tolerance"):
            with pytest.raises(ValueError, match=f"'{key}' must be .*, got bool"):
                TrialConfig.from_dict({**good, key: True})

    def test_matrix_mode_mismatches(self):
        m = DistanceMatrix.from_array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="user-supplied"):
            run_fuzz("triangle", TrialConfig(n=2, p=2.0, trials=10, seed=0), matrix=m)
        cfg = TrialConfig(n=3, p=2.0, trials=10, seed=0, matrix_mode="user-supplied")
        with pytest.raises(ValueError, match="needs a matrix"):
            run_fuzz("triangle", cfg)
        cfg = TrialConfig(n=3, p=2.0, trials=10, seed=0, matrix_mode="user-supplied")
        with pytest.raises(ValueError, match="does not match"):
            run_fuzz("triangle", cfg, matrix=m)
        # the weight properties read no matrix: a fixed one is an error, not ignored
        m3 = DistanceMatrix.from_array([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        for prop in ("minorial", "convexity", "projector", "w1"):
            with pytest.raises(ValueError, match="reads no distance matrix"):
                run_fuzz(prop, cfg, matrix=m3)
        # every property rejects an unknown mode and takes the three drawn ones
        for prop in PROPERTIES:
            with pytest.raises(ValueError, match="unknown matrix mode 'bogus'"):
                run_fuzz(prop, TrialConfig(n=4, p=2.0, trials=10, seed=0, matrix_mode="bogus"))
            for mode in ("euclidean-points", "repaired-random", "zero-one"):
                run_fuzz(prop, TrialConfig(n=4, p=2.0, trials=10, seed=0, matrix_mode=mode))

    def test_properties_tuple_is_stable(self):
        assert PROPERTIES == ("triangle", "minorial", "convexity", "projector", "reduction", "w1")
