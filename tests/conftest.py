import os
from pathlib import Path

import numpy as np
import pytest

# Child interpreters (``python -m pqdist``) import the package from this
# checkout too, as pyproject's ``pythonpath = ["src"]`` does for the tests.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def complex_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def unit_vector(rng, n):
    v = complex_vector(rng, n)
    return v / np.linalg.norm(v)


def basis(n, k):
    e = np.zeros(n, dtype=complex)
    e[k] = 1.0
    return e


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
