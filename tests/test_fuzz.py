import json

import numpy as np
import pytest

from pqdist.fuzz import (
    CHUNK_TRIALS,
    PROPERTIES,
    TrialConfig,
    reevaluate_witness,
    run_fuzz,
    thread_count,
)
from pqdist.metric import DistanceMatrix


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

    def test_thread_count_does_not_change_results(self):
        cfg = TrialConfig(n=4, p=2.0, trials=4_000, seed=42)
        a = run_fuzz("minorial", cfg, threads=1)
        b = run_fuzz("minorial", cfg, threads=8)
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

    def test_properties_tuple_is_stable(self):
        assert PROPERTIES == ("triangle", "minorial", "convexity", "projector", "reduction", "w1")
