import json
import math
import subprocess
import sys

import numpy as np
import pytest

from pqdist import fileio
from pqdist.cli import main


@pytest.fixture
def files(tmp_path):
    """Fixture bundle: a valid metric, a broken one, and a few states."""
    paths = {}

    def matrix(name, entries):
        p = tmp_path / name
        fileio.save_matrix(p, entries)
        return str(p)

    def state(name, vec):
        p = tmp_path / name
        fileio.save_state(p, np.asarray(vec, dtype=complex))
        return str(p)

    paths["valid"] = matrix("valid.json", [[0, 3], [3, 0]])
    paths["broken"] = matrix("broken.json", [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    paths["triple"] = matrix("triple.json", [[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    paths["sqrt2"] = matrix("sqrt2.json", [[0, 2], [2, 0]])
    paths["e1"] = state("e1.json", [1, 0])
    paths["e2"] = state("e2.json", [0, 1])
    paths["plus"] = state("plus.json", np.array([1, 1]) / math.sqrt(2))
    paths["e1_3d"] = state("e1_3d.json", [1, 0, 0])
    paths["tmp"] = tmp_path
    return paths


class TestValidate:
    def test_valid_exit_zero(self, files, capsys):
        assert main(["validate", files["valid"]]) == 0
        assert "valid" in capsys.readouterr().out

    def test_axiom_failure_exit_one_with_witness(self, files, capsys):
        assert main(["validate", files["broken"]]) == 1
        out = capsys.readouterr().out
        assert "triangle" in out and "(0, 1, 2)" in out

    def test_malformed_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "entries": [[0, 1, 2], [1, 0, 2]]}))
        assert main(["validate", str(bad)]) == 2
        assert main(["validate", str(tmp_path / "missing.json")]) == 2


class TestDist:
    def test_basis_pair_prints_entry(self, files, capsys):
        assert main(["dist", files["valid"], files["e1"], files["e2"], "--p", "2"]) == 0
        assert float(capsys.readouterr().out.strip()) == 3.0

    def test_identical_states(self, files, capsys):
        assert main(["dist", files["valid"], files["e1"], files["e1"]]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_sqrt2_fixture(self, files, capsys):
        assert main(["dist", files["sqrt2"], files["plus"], files["e1"], "--p", "2"]) == 0
        got = float(capsys.readouterr().out.strip())
        assert got == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_json_format(self, files, capsys):
        assert main(["dist", files["sqrt2"], files["plus"], files["e1"], "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"n", "p", "distance", "hs_distance"}
        assert doc["distance"] == pytest.approx(math.sqrt(2), rel=1e-14)
        assert doc["hs_distance"] == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_csv_format(self, files, capsys):
        assert main(["dist", files["valid"], files["e1"], files["e2"], "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,p,distance,hs_distance"
        assert lines[1].startswith("2,2,3,")

    def test_small_p_warns(self, files, capsys):
        assert main(["dist", files["valid"], files["e1"], files["e2"], "--p", "1.5"]) == 0
        assert "not guaranteed" in capsys.readouterr().err

    def test_dimension_mismatch_exit_two(self, files):
        assert main(["dist", files["valid"], files["e1_3d"], files["e2"]]) == 2

    def test_invalid_metric_exit_two(self, files):
        assert main(["dist", files["broken"], files["e1_3d"], files["e1_3d"]]) == 2

    def test_unnormalized_state_exit_two(self, files, tmp_path):
        bad = tmp_path / "bad_state.json"
        bad.write_text(json.dumps({"n": 2, "amplitudes": [[1, 0], [1, 0]]}))
        assert main(["dist", files["valid"], str(bad), files["e2"]]) == 2


class TestMalformedInputFiles:
    """A file whose document is not an object, or lacks a key or mistypes it, exits 2."""

    def write(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_validate_matrix_without_n(self, tmp_path, capsys):
        path = self.write(tmp_path, {"entries": [[0, 1], [1, 0]]})
        assert main(["validate", path]) == 2
        assert path in capsys.readouterr().err

    def test_validate_top_level_list(self, tmp_path, capsys):
        path = self.write(tmp_path, [[0, 1], [1, 0]])
        assert main(["validate", path]) == 2
        assert path in capsys.readouterr().err

    def test_dist_state_without_n(self, files, tmp_path, capsys):
        path = self.write(tmp_path, {"amplitudes": [[1, 0], [0, 0]]})
        assert main(["dist", files["valid"], path, files["e2"]]) == 2
        assert path in capsys.readouterr().err

    def test_fuzz_config_list(self, tmp_path, capsys):
        path = self.write(tmp_path, [{"property": "triangle", "n": 3}])
        assert main(["fuzz", "--config", path]) == 2
        assert path in capsys.readouterr().err

    def test_fuzz_config_mistyped_n(self, tmp_path, capsys):
        path = self.write(tmp_path, {"property": "triangle", "n": [3]})
        assert main(["fuzz", "--config", path]) == 2
        assert path in capsys.readouterr().err

    def test_fuzz_config_misspelled_key(self, tmp_path, capsys):
        # "trails" used to be ignored, and the run went on with 1000 trials
        path = self.write(tmp_path, {"property": "triangle", "n": 3, "trails": 5})
        assert main(["fuzz", "--config", path]) == 2
        err = capsys.readouterr().err
        assert path in err and "'trails'" in err

    def test_fuzz_config_booleans(self, tmp_path, capsys):
        # true/false used to read as 1/0: p=1.0, one trial
        path = self.write(tmp_path, {"property": "triangle", "n": 3, "p": True, "trials": True, "seed": False})
        assert main(["fuzz", "--config", path]) == 2
        err = capsys.readouterr().err
        assert path in err and "got bool" in err

    def test_validate_boolean_n(self, tmp_path, capsys):
        path = self.write(tmp_path, {"n": True, "entries": [[0]]})
        assert main(["validate", path]) == 2
        assert path in capsys.readouterr().err

    def test_dist_state_with_extra_column(self, files, tmp_path, capsys):
        path = self.write(tmp_path, {"n": 2, "amplitudes": [[1, 0, 9], [0, 0, 9]]})
        assert main(["dist", files["valid"], path, files["e2"]]) == 2
        assert path in capsys.readouterr().err

    def test_non_finite_matrix_entries(self, files, tmp_path, capsys):
        # NaN is not strict JSON, but Python's parser reads it; the library's gate rejects it
        nan = float("nan")
        path = self.write(tmp_path, {"n": 2, "entries": [[0, nan], [nan, 0]]})
        for argv in (["validate", path], ["dist", path, files["e1"], files["e2"]],
                     ["fuzz", "--property", "triangle", "--matrix", path, "--trials", "10"],
                     ["embed", path, "--out", str(tmp_path / "b")]):
            assert main(argv) == 2
            assert "finite" in capsys.readouterr().err

    def test_embed_one_point_matrix(self, tmp_path, capsys):
        path = self.write(tmp_path, {"n": 1, "entries": [[0]]})
        assert main(["embed", path, "--out", str(tmp_path / "b")]) == 2
        assert "size >= 2" in capsys.readouterr().err


class TestFuzz:
    def test_clean_triangle_run(self, files, capsys):
        out = str(files["tmp"] / "rep.json")
        rc = main(
            ["fuzz", "--property", "triangle", "--n", "4", "--p", "2", "--trials", "2000",
             "--seed", "7", "--out", out]
        )
        assert rc == 0
        doc = fileio.load_report(out)
        assert doc["violations"] == 0 and doc["property"] == "triangle"

    def test_expected_violation_inverts_exit(self, files):
        out = str(files["tmp"] / "rep2.json")
        argv = ["fuzz", "--property", "triangle", "--n", "2", "--p", "1", "--trials", "100",
                "--seed", "7", "--out", out]
        assert main(argv + ["--expect-violation"]) == 0
        assert main(argv) == 1
        clean = ["fuzz", "--property", "w1", "--n", "6", "--trials", "1000", "--seed", "1", "--out", out]
        assert main(clean) == 0
        assert main(clean + ["--expect-violation"]) == 1

    def test_stdout_json_when_no_out(self, capsys):
        assert main(["fuzz", "--property", "projector", "--n", "4", "--trials", "300", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 300

    def test_config_file_with_flag_overrides(self, files, capsys):
        cfg = files["tmp"] / "cfg.json"
        cfg.write_text(json.dumps({"property": "triangle", "n": 3, "p": 2.0, "trials": 500, "seed": 5}))
        assert main(["fuzz", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 500
        assert main(["fuzz", "--config", str(cfg), "--trials", "200"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 200

    def test_fixed_matrix_run(self, files, capsys):
        assert main(["fuzz", "--property", "triangle", "--matrix", files["triple"],
                     "--p", "3", "--trials", "500", "--seed", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["matrix_mode"] == "user-supplied"
        assert doc["config"]["matrix"] == [[0, 3, 4], [3, 0, 5], [4, 5, 0]]

    def test_usage_errors_exit_two(self, files):
        assert main(["fuzz", "--property", "triangle", "--trials", "10"]) == 2  # no n
        assert main(["fuzz", "--n", "4", "--trials", "10"]) == 2  # no property
        assert main(["fuzz", "--property", "triangle", "--matrix", files["broken"],
                     "--trials", "10"]) == 2
        assert main(["fuzz", "--property", "minorial", "--matrix", files["triple"],
                     "--trials", "10"]) == 2  # minorial reads no matrix

    @pytest.mark.parametrize("prop,rc", [("triangle", 1), ("reduction", 2)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_defects_do_not_pass(self, tmp_path, prop, rc):
        # E^p overflows to inf, so every defect is NaN: triangle counts each
        # trial as a violation, and the reduction's eigensolver rejects the form
        entries = np.full((4, 4), 1e40)
        np.fill_diagonal(entries, 0.0)
        fileio.save_matrix(tmp_path / "huge.json", entries)
        out = str(tmp_path / "rep.json")
        argv = ["fuzz", "--property", prop, "--matrix", str(tmp_path / "huge.json"),
                "--p", "10", "--trials", "600", "--out", out]
        assert main(argv) == rc
        if rc == 1:
            assert fileio.load_report(out)["violations"] == 600

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_report_is_valid_json(self, tmp_path, capsys):
        # the overflow probe's NaN defect and infinite distances are written as null
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        entries = np.full((4, 4), 1e40)
        np.fill_diagonal(entries, 0.0)
        fileio.save_matrix(tmp_path / "huge.json", entries)
        out = tmp_path / "rep.json"
        argv = ["fuzz", "--property", "triangle", "--matrix", str(tmp_path / "huge.json"),
                "--p", "10", "--trials", "600"]
        assert main(argv + ["--out", str(out)]) == 1
        capsys.readouterr()
        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["worst_defect"] is None and doc["violations"] == 600
        assert main(argv) == 1
        printed = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert printed["witness"]["defect"] is None and printed["witness"] == doc["witness"]

    @pytest.mark.parametrize("out", ["dir", "file/x.json"])
    def test_unwritable_out_exit_two(self, tmp_path, capsys, out):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        argv = ["fuzz", "--property", "triangle", "--n", "3", "--trials", "5", "--out", str(tmp_path / out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("prop", [["triangle"], {}, 5])
    def test_config_property_of_wrong_type_exit_two(self, tmp_path, capsys, prop):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"property": prop, "n": 3, "trials": 5}))
        assert main(["fuzz", "--config", str(cfg)]) == 2
        assert "'property' must be str" in capsys.readouterr().err

    def test_byte_identical_reports_modulo_elapsed(self, files):
        out1 = str(files["tmp"] / "r1.json")
        out2 = str(files["tmp"] / "r2.json")
        argv = ["fuzz", "--property", "minorial", "--n", "5", "--trials", "1500", "--seed", "31"]
        assert main(argv + ["--out", out1]) == 0
        assert main(argv + ["--out", out2]) == 0
        a, b = fileio.load_report(out1), fileio.load_report(out2)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert json.dumps(a) == json.dumps(b)


class TestCounterexample:
    def test_quarter_margin_at_overridden_angle(self, capsys):
        assert main(["counterexample", "--p", "1", "--e12", "1", "--theta", str(math.pi / 6)]) == 0
        out = capsys.readouterr().out
        assert "margin" in out
        margin = float(out.strip().splitlines()[-1].split("=")[-1])
        assert margin == pytest.approx(0.25, abs=1e-12)

    def test_near_two_still_positive(self, capsys):
        assert main(["counterexample", "--p", "1.9"]) == 0
        margin = float(capsys.readouterr().out.strip().splitlines()[-1].split("=")[-1])
        assert margin > 1e-6

    def test_p_at_least_two_exit_one(self, capsys):
        assert main(["counterexample", "--p", "2"]) == 1
        assert "metric" in capsys.readouterr().err.lower()

    def test_bad_theta_exit_two(self):
        assert main(["counterexample", "--p", "1.9", "--theta", "1.5"]) == 2

    @pytest.mark.parametrize("e12", ["inf", "1e300", "1e-300"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_violation_exit_two(self, e12, capsys):
        assert main(["counterexample", "--p", "1.5", "--e12", e12]) == 2
        captured = capsys.readouterr()
        assert "no violation" in captured.err and captured.out == ""


class TestEmbed:
    def test_bundle_round_trips(self, files, capsys):
        out = str(files["tmp"] / "bundle")
        assert main(["embed", files["triple"], "--p", "2", "--out", out]) == 0
        manifest = json.load(open(out + "/manifest.json"))
        assert manifest["verified"] is True
        assert manifest["n"] == 3 and len(manifest["states"]) == 3
        for name in manifest["states"]:
            v = fileio.load_state(out + "/" + name)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_bundle(self, files):
        out = str(files["tmp"] / "bundle2")
        assert main(["embed", files["valid"], "--p", "5", "--out", out]) == 0
        assert json.load(open(out + "/manifest.json"))["n"] == 2

    def test_small_p_exit_one(self, files):
        assert main(["embed", files["triple"], "--p", "1.5", "--out", str(files["tmp"] / "x")]) == 1

    @pytest.mark.parametrize("p", ["nan", "inf", "0"])
    def test_non_finite_or_nonpositive_p_exit_two(self, files, p):
        assert main(["embed", files["triple"], "--p", p, "--out", str(files["tmp"] / "x")]) == 2
        assert main(["dist", files["valid"], files["e1"], files["e2"], "--p", p]) == 2

    def test_invalid_metric_exit_one(self, files):
        assert main(["embed", files["broken"], "--p", "2", "--out", str(files["tmp"] / "y")]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_round_trip_exit_one(self, files, capsys):
        out = files["tmp"] / "b600"
        assert main(["embed", files["triple"], "--p", "600", "--out", str(out)]) == 1
        assert "round-trip failed at (0,2)" in capsys.readouterr().err
        assert not out.exists()

    def test_existing_file_as_out_exit_two(self, files, capsys):
        out = files["tmp"] / "taken"
        out.write_text("")
        assert main(["embed", files["triple"], "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestEntryPoint:
    def test_module_invocation(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "pqdist", "validate", files["valid"]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "valid" in proc.stdout

    def test_unwritable_out_exits_two_without_traceback(self, tmp_path):
        # in-process main() cannot tell an escaped exception from a handled one
        proc = subprocess.run(
            [sys.executable, "-m", "pqdist", "fuzz", "--property", "triangle", "--n", "3",
             "--trials", "5", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as ex:
            main(["--version"])
        assert ex.value.code == 0
