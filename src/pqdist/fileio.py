"""JSON file formats for matrices, states, configs, and reports.

Floats are serialized with Python's shortest round-trip representation, so
parse(serialize(x)) == x holds exactly and identically seeded runs produce
byte-identical files.  Reports are strict JSON: ``write_report`` refuses NaN
and Infinity, which a report body carries as null.
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = [
    "load_matrix",
    "save_matrix",
    "load_state",
    "save_state",
    "write_report",
    "load_report",
    "matrix_to_dict",
    "state_to_dict",
]


def matrix_to_dict(entries) -> dict:
    a = np.asarray(entries, dtype=float)
    return {"n": int(a.shape[0]), "entries": [[float(x) for x in row] for row in a]}


def save_matrix(path, entries) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(entries), fh, indent=2)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Parse a matrix file; shape and finiteness are enforced here, the metric
    axioms are left to validate_distance_matrix."""
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    a = np.asarray(doc["entries"], dtype=float)
    if a.shape != (n, n):
        raise ValueError(f"{path}: declared n={n} but entries have shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: entries must be finite")
    return a


def state_to_dict(vec) -> dict:
    v = np.asarray(vec, dtype=complex)
    return {"n": int(v.size), "amplitudes": [[float(c.real), float(c.imag)] for c in v]}


def save_state(path, vec) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(vec), fh, indent=2)
        fh.write("\n")


def load_state(path, *, norm_tol: float = 1e-9) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    amps = np.asarray(doc["amplitudes"], dtype=float)
    if amps.shape != (n, 2):
        raise ValueError(f"{path}: declared n={n} but got {amps.shape[0]} amplitude pairs")
    v = amps[:, 0] + 1j * amps[:, 1]
    if not np.all(np.isfinite(amps)):
        raise ValueError(f"{path}: amplitudes must be finite")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > norm_tol:
        raise ValueError(f"{path}: state is not normalized (norm = {nrm!r})")
    return v


def write_report(path, report_dict: dict) -> None:
    if os.path.dirname(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report_dict, fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
