import io
import json

import numpy as np
import pytest

from pqdist import fileio
from pqdist.fuzz import reevaluate_witness


class TestMatrixFiles:
    def test_round_trip_exact(self, tmp_path, rng):
        path = tmp_path / "m.json"
        m = rng.random((5, 5))
        m = (m + m.T) / 3  # awkward decimals on purpose
        np.fill_diagonal(m, 0.0)
        fileio.save_matrix(path, m)
        assert np.array_equal(fileio.load_matrix(path), m)

    def test_declared_size_must_match(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 3, "entries": [[0, 1], [1, 0]]}))
        with pytest.raises(ValueError, match="declared n=3"):
            fileio.load_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "entries": [[0, None], [None, 0]]}))
        with pytest.raises((ValueError, TypeError)):
            fileio.load_matrix(path)


class TestStateFiles:
    def test_round_trip_exact(self, tmp_path, rng):
        path = tmp_path / "s.json"
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v /= np.linalg.norm(v)
        fileio.save_state(path, v)
        assert np.array_equal(fileio.load_state(path), v)

    def test_norm_gate_reports_measured_norm(self, tmp_path):
        path = tmp_path / "s.json"
        fileio.save_state(path, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="norm = 1.41"):
            fileio.load_state(path)

    def test_norm_gate_tolerates_1e9(self, tmp_path):
        path = tmp_path / "s.json"
        fileio.save_state(path, np.array([1.0 + 4e-10, 0.0]))
        assert fileio.load_state(path) is not None

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"n": 3, "amplitudes": [[1, 0], [0, 0]]}))
        with pytest.raises(ValueError, match="amplitude pairs"):
            fileio.load_state(path)


class TestDocumentShape:
    # a document that is not an object, or lacks "n", is covered by the CLI's exit-code tests
    @pytest.mark.parametrize(
        "load, doc, match",
        [
            (fileio.load_matrix, {"n": "2", "entries": [[0, 1], [1, 0]]}, "'n' must be int, got str"),
            (fileio.load_matrix, {"n": 2, "entries": {"0": [0, 1]}}, "'entries' must be list, got dict"),
            (fileio.load_matrix, {"n": 2, "entries": [[0, {}], [1, 0]]}, "list of lists of numbers"),
            (fileio.load_state, {"n": 1}, "missing key 'amplitudes'"),
            (fileio.load_matrix, {"n": True, "entries": [[0]]}, "'n' must be int, got bool"),
            (fileio.load_state, {"n": 1, "amplitudes": [[1, 0, 9.0]]}, r"\[re, im\] pairs"),
            (fileio.load_report, [{"property": "triangle"}], "expected a JSON object, got list"),
        ],
        ids=["string-n", "object-entries", "object-entry", "no-amplitudes", "bool-n", "extra-column", "report-list"],
    )
    def test_rejected_with_the_file_named(self, tmp_path, load, doc, match):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match) as ex:
            load(path)
        assert str(path) in str(ex.value)


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        doc = {"property": "triangle", "worst_defect": 0.1 + 0.2, "witness": {"x": [[1.0, -0.0]]}}
        path = tmp_path / "r.json"
        fileio.write_report(path, doc)
        assert fileio.load_report(path) == doc

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "r.json"
        fileio.write_report(path, {"k": 1})
        assert fileio.load_report(path) == {"k": 1}

    def test_bytes_equal_a_streamed_dump(self, tmp_path):
        doc = {
            "property": "triangle – Schrödinger ψ",
            "worst_defect": None,
            "rows": [[0.1 + 0.2, -0.0, 1e-300, 5e-324], [], [[1, 2], [None, "∞"]]],
            "witness": {"x": [[1.0, -2.5]], "ok": True, "nested": {"empty": {}}},
        }
        path = tmp_path / "r.json"
        fileio.write_report(path, doc)
        streamed = io.StringIO()
        json.dump(doc, streamed, indent=2, allow_nan=False)
        streamed.write("\n")
        assert path.read_bytes() == streamed.getvalue().encode("ascii")


class TestRaggedRows:
    """Rows of unequal length are rejected with the file and the key named, before numpy sees them."""

    @pytest.mark.parametrize(
        "load, doc, key",
        [
            (fileio.load_matrix, {"n": 2, "entries": [[0, 1], [1]]}, "entries"),
            (fileio.load_state, {"n": 2, "amplitudes": [[1, 0], [0]]}, "amplitudes"),
        ],
        ids=["matrix", "state"],
    )
    def test_file_rows(self, tmp_path, load, doc, key):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"'{key}' has rows of unequal length") as ex:
            load(path)
        assert str(path) in str(ex.value)

    def test_witness_matrix(self):
        x = [[1.0, 0.0], [0.0, 0.0]]
        witness = {"matrix": [[0, 1], [1]], "p": 2.0, "x": x, "y": x, "z": x}
        with pytest.raises(ValueError, match="triangle witness: key 'matrix' has rows of unequal length"):
            reevaluate_witness("triangle", witness)
