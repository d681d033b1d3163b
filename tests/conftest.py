import os
from pathlib import Path

import numpy as np
import pytest

from pqdist.exterior import pair_indices
from pqdist.sampling import _orthonormalize_triples

# Child interpreters (``python -m pqdist``) import the package from this
# checkout too, as pyproject's ``pythonpath = ["src"]`` does for the tests.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def complex_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def unit_vector(rng, n):
    v = complex_vector(rng, n)
    return v / np.linalg.norm(v)


def orthonormal_basis(rng, n):
    """Three orthonormal rows (3, n): the samplers' Gram-Schmidt of three Gaussian draws."""
    u, v, w, ok = _orthonormalize_triples(*(complex_vector(rng, n)[None] for _ in range(3)))
    assert ok[0]
    return np.concatenate([u, v, w])


def interior_product(w, b):
    """Contraction of a bivector by a vector: u_j = sum_i conj(w_i) B_ij, with B_ji = -B_ij."""
    i, j = pair_indices(b.n)
    m = np.zeros((b.n, b.n), dtype=complex)
    m[i, j] = b.coeffs
    m[j, i] = -b.coeffs
    return np.conj(w) @ m


def basis(n, k):
    e = np.zeros(n, dtype=complex)
    e[k] = 1.0
    return e


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
