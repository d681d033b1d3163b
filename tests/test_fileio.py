import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from make_golden_reports import CORPUS, run

from pqdist import fileio
from pqdist.fuzz import reevaluate_witness

_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, 1e-300, 2.0**53])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS
# scalars json writes, floats alone or among ints and bools, strings beyond ASCII, and the
# containers around them: dicts, lists and tuples, empty ones included
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=8)
_ROWS = st.lists(_FLOATS, max_size=12) | st.lists(_FLOATS | st.integers() | st.booleans(), max_size=8)
_VALUES = st.recursive(
    _SCALARS | _ROWS,
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=12,
)  # fmt: skip
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# a NaN or an infinity at some depth: alone, in a float row, among other values, or under a key
_BAD_VALUES = st.recursive(
    _NON_FINITE
    | st.builds(lambda row, bad, k: [*row[:k], bad, *row[k:]], st.lists(_FLOATS), _NON_FINITE, st.integers(0, 9)),
    lambda inner: st.builds(lambda a, b: [*a, b], st.lists(_SCALARS, max_size=3), inner)
    | st.builds(lambda a, b: (b, *a), st.lists(_SCALARS, max_size=3), inner)
    | st.builds(lambda d, k, b: {**d, k: b}, st.dictionaries(st.text(), _SCALARS, max_size=3), st.text(), inner),
    max_leaves=6,
)  # fmt: skip


def _dumped(doc) -> bytes:
    """What the writers must produce: ``json.dumps`` of the whole document, indented by 2, and a newline."""
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("ascii")


def _same_error(path, doc, kind):
    """``write_report`` raises the error ``json.dumps`` raises on ``doc``, of type ``kind``, message and all."""
    with pytest.raises(kind) as want:
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(kind) as got:
        fileio.write_report(path, doc)
    assert str(got.value) == str(want.value)


def _n64_report(rng) -> dict:
    """A triangle campaign report on a user-supplied n = 64 Euclidean matrix, which it echoes."""
    pts = rng.random((64, 3))
    m = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    config = {"n": 64, "p": 2.5, "trials": 512, "seed": 5, "matrix_mode": "user-supplied"}
    return run({"property": "triangle", "config": config, "matrix": m.tolist()}).to_dict()


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

    @pytest.mark.parametrize(
        "write, as_dict, make, bound",
        [
            # save_matrix builds the n = 200 matrix's float rows (about 1.3 MiB) inside the trace
            (fileio.save_matrix, fileio.matrix_to_dict, lambda rng: rng.random((200, 200)), 3 * 2**20),
            (fileio.write_report, dict, _n64_report, 256 * 2**10),  # a 245 KB report
        ],
        ids=["matrix", "report"],
    )
    def test_save_streams_its_rows(self, tmp_path, rng, write, as_dict, make, bound):
        # the document goes to the file as json.dump streams it: no whole-file string beside it
        doc = make(rng)
        tracemalloc.start()
        try:
            write(tmp_path / "out.json", doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out.json").read_bytes() == _dumped(as_dict(doc))
        assert peak < bound

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

    @settings(max_examples=100, deadline=None)
    @given(doc=st.dictionaries(st.text(max_size=8), _VALUES, max_size=6))
    def test_bytes_equal_json_dumps(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "hypothesis-report.json"
        fileio.write_report(path, doc)
        assert path.read_bytes() == _dumped(doc)

    def test_golden_corpus_reports_equal_json_dumps(self, tmp_path):
        # every corpus campaign's report as the CLI writes it, non-finite values already null
        for k, entry in enumerate(json.loads(CORPUS.read_text())["campaigns"]):
            doc = run(entry).to_dict()
            path = tmp_path / f"report-{k}.json"
            fileio.write_report(path, doc)
            assert path.read_bytes() == _dumped(doc), entry["config"]

    @settings(max_examples=100, deadline=None)
    @given(bad=_BAD_VALUES, key=st.text(max_size=8))
    def test_non_finite_at_any_depth_raises_value_error(self, tmp_path_factory, bad, key):
        _same_error(tmp_path_factory.getbasetemp() / "hypothesis-bad.json", {"ok": [1.0], key: bad}, ValueError)

    @pytest.mark.parametrize(
        "doc",
        [
            {"a": object()}, {"a": [1.0, {1, 2}]}, {"a": np.float32(1.0)}, {"a": {"b": [b"bytes"]}}, {"a": (1j,)},
            {"a": {(1, 2): 3}}, {"a": [{object(): 1}]},
        ],
    )  # fmt: skip
    def test_non_json_value_raises_type_error(self, tmp_path, doc):
        _same_error(tmp_path / "r.json", doc, TypeError)

    def test_keys_that_are_not_strings_are_written_as_json_writes_them(self, tmp_path):
        doc = {"k": {1: 2, 1.5: [], True: {}, None: "x", False: -0.0}}
        fileio.write_report(tmp_path / "r.json", doc)
        assert (tmp_path / "r.json").read_bytes() == _dumped(doc)


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
