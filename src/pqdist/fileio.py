"""JSON file formats for matrices, states, configs, and reports.

Floats are serialized with Python's shortest round-trip representation, so
parse(serialize(x)) == x holds exactly and identically seeded runs produce
byte-identical files.  Every file is strict JSON: the writers refuse NaN and
Infinity, which a report body carries as null.  A writer streams the bytes of
``json.dumps(doc, indent=2, allow_nan=False)`` and a newline in pieces, a
list of floats as one piece, so no whole-file string is built.  Loaders check
the shape of a document before they use it: a document that is not an object,
or a key that is missing or of the wrong JSON type, raises ValueError naming
the file.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING
from itertools import chain

import numpy as np

__all__ = [
    "load_object",
    "get_field",
    "load_matrix",
    "save_matrix",
    "load_state",
    "save_state",
    "write_report",
    "load_report",
    "matrix_to_dict",
    "state_to_dict",
]


# JSON types accepted for each Python type a field converts to.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), list: (list,)}


def _object(doc, where) -> dict:
    """``doc``, which must be a JSON object; otherwise ValueError naming ``where``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_object(path) -> dict:
    """Parse a JSON file whose document must be an object."""
    with open(path) as fh:
        return _object(json.load(fh), path)


def get_field(doc: dict, key: str, kind: type, where, default=MISSING):
    """``doc[key]`` converted to ``kind`` (int, float, str or list), or ``default`` if absent.

    A missing key whose default is ``dataclasses.MISSING``, or a value of another JSON type
    (a boolean is not a number), raises ValueError naming ``where``.
    """
    if key not in doc:
        if default is MISSING:
            raise ValueError(f"{where}: missing key {key!r}")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{where}: key {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return kind(value)


def _number_rows(doc: dict, key: str, path) -> np.ndarray:
    """``doc[key]`` as a float array; it must be a list of equally long lists of numbers."""
    rows = get_field(doc, key, list, path)
    if not all(type(r) is list for r in rows) or not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        raise ValueError(f"{path}: key {key!r} must be a list of lists of numbers")
    if len(set(map(len, rows))) > 1:
        raise ValueError(f"{path}: key {key!r} has rows of unequal length")
    return np.asarray(rows, dtype=float)


def _complex_rows(doc: dict, key: str, path) -> np.ndarray:
    """``doc[key]`` as a complex vector; it must be a list of finite [re, im] number pairs."""
    a = _number_rows(doc, key, path)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"{path}: key {key!r} must be a list of [re, im] pairs")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: key {key!r} must be finite")
    return _l2c(a)


def _m2l(m) -> list:  # matrix rows as lists of floats
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _c2l(v) -> list:  # complex vector as [re, im] pairs
    return [[float(c.real), float(c.imag)] for c in np.asarray(v, dtype=complex)]


def _l2c(pairs) -> np.ndarray:  # complex values from [re, im] pairs on the last axis
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


_scalar = json.JSONEncoder(indent=2, allow_nan=False).encode  # one value or empty container, as json.dumps


def _pieces(obj, depth: int = 0):
    """``json.dumps(obj, indent=2, allow_nan=False)`` in pieces, ``obj`` at nesting ``depth``."""
    inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if isinstance(obj, (list, tuple)) and obj:
        try:  # a list of floats is one piece; json writes each float by float.__repr__
            row = f",{inner}".join(map(float.__repr__, obj))
        except TypeError:  # not all floats
            items, ends = (("", v) for v in obj), "[]"
        else:
            if "n" in row:  # nan or inf: the encoder raises its ValueError at the first
                list(map(_scalar, obj))
            yield f"[{inner}{row}{close}]"
            return
    elif isinstance(obj, dict) and obj:  # each key as json writes it, or raises
        items, ends = ((_scalar({k: None})[4:-6], v) for k, v in obj.items()), "{}"  # from {\n  "k": null\n}
    else:
        yield _scalar(obj)
        return
    yield ends[0]
    for k, (key, value) in enumerate(items):
        yield f"{',' if k else ''}{inner}{key}"
        yield from _pieces(value, depth + 1)
    yield close + ends[1]


def _write_json(path, doc: dict) -> None:
    """Stream ``doc`` to ``path`` in pieces: the bytes of ``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``."""
    with open(path, "w") as fh:
        fh.writelines(chain(_pieces(doc), "\n"))


def matrix_to_dict(entries) -> dict:
    a = np.asarray(entries, dtype=float)
    return {"n": int(a.shape[0]), "entries": _m2l(a)}


def save_matrix(path, entries) -> None:
    _write_json(path, matrix_to_dict(entries))


def load_matrix(path) -> np.ndarray:
    """Parse a matrix file and check its declared size; finiteness and the
    metric axioms are left to validate_distance_matrix."""
    doc = load_object(path)
    n = get_field(doc, "n", int, path)
    a = _number_rows(doc, "entries", path)
    if a.shape != (n, n):
        raise ValueError(f"{path}: declared n={n} but entries have shape {a.shape}")
    return a


def state_to_dict(vec) -> dict:
    v = np.asarray(vec, dtype=complex)
    return {"n": int(v.size), "amplitudes": _c2l(v)}


def save_state(path, vec) -> None:
    _write_json(path, state_to_dict(vec))


def load_state(path) -> np.ndarray:
    """Parse a state file; its norm must be 1 within 1e-9."""
    doc = load_object(path)
    n = get_field(doc, "n", int, path)
    v = _complex_rows(doc, "amplitudes", path)
    if v.size != n:
        raise ValueError(f"{path}: declared n={n} but got {v.size} amplitude pairs")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"{path}: state is not normalized (norm = {nrm!r})")
    return v


def write_report(path, report_dict: dict) -> None:
    if os.path.dirname(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    _write_json(path, report_dict)


load_report = load_object
