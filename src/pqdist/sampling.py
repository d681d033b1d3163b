"""Random generators for states, orthonormal triples, and weight systems.

Randomness is organized as counter-based streams: ``trial_rng(seed, stream)``
builds an independent Philox generator keyed by the pair, so work can be
split across chunks/threads while staying bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .exterior import pair_indices
from .metric import DistanceMatrix, shortest_path_closure

__all__ = [
    "MATRIX_MODES",
    "trial_rng",
    "sample_pure_state",
    "sample_orthonormal_triple",
    "sample_distance_matrix",
    "sample_symmetric_weights",
    "sample_unit_bivector_coeffs",
    "states_batch",
    "orthonormal_triples_batch",
    "distance_matrices_batch",
    "pair_weights_batch",
]

MATRIX_MODES = ("euclidean-points", "repaired-random", "zero-one")
_MASK64 = (1 << 64) - 1


def trial_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); same pair, same bits."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_pure_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector with the unitarily invariant distribution on the sphere of C^n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return states_batch(rng, 1, n)[0]


def sample_orthonormal_triple(n: int, rng: np.random.Generator):
    """Three Gaussian samples orthonormalized; Gram matrix is the identity to ~1e-12."""
    u, v, w, ok = orthonormal_triples_batch(rng, 1, n)
    if not ok[0]:  # measure-zero for Gaussian draws
        raise RuntimeError("failed to draw an independent triple")
    return u[0], v[0], w[0]


def sample_distance_matrix(n: int, mode: str, rng: np.random.Generator) -> DistanceMatrix:
    """Random distance matrix in one of three modes.

    euclidean-points: pairwise distances of n uniform points in [0,1]^3.
    repaired-random:  symmetric uniform (0,1] weights repaired to a metric by
                      shortest-path closure.
    zero-one:         entries in {1, 2} from a random pair subset (two-valued
                      matrices always satisfy the triangle inequality).
    """
    return DistanceMatrix.from_array(distance_matrices_batch(rng, 1, n, mode)[0])


def distance_matrices_batch(rng: np.random.Generator, count: int, n: int, mode: str) -> np.ndarray:
    if n < 2:
        raise ValueError("distance matrices need size >= 2")
    if mode == "euclidean-points":
        pts = rng.random((count, n, 3))
        diff = pts[:, :, None, :] - pts[:, None, :, :]
        return np.sqrt((diff**2).sum(axis=-1))
    npairs = n * (n - 1) // 2
    if mode == "repaired-random":
        w = 1.0 - rng.random((count, npairs))  # uniform on (0, 1]
        return shortest_path_closure(_symmetric_from_pairs(w, n))
    if mode == "zero-one":
        return _symmetric_from_pairs(np.where(rng.random((count, npairs)) < 0.5, 1.0, 2.0), n)
    raise ValueError(f"unknown matrix mode {mode!r}; expected one of {MATRIX_MODES}")


def sample_symmetric_weights(n: int, rng: np.random.Generator, mode: str = "uniform") -> np.ndarray:
    """Symmetric nonnegative weight matrix with zero diagonal."""
    return _symmetric_from_pairs(pair_weights_batch(rng, 1, n, mode)[0], n)


def _symmetric_from_pairs(w: np.ndarray, n: int) -> np.ndarray:
    """Symmetric zero-diagonal n x n matrices from values over lexicographic pairs (last axis)."""
    i, j = pair_indices(n)
    full = np.zeros(w.shape[:-1] + (n, n))
    full[..., i, j] = w
    full[..., j, i] = w
    return full


def pair_weights_batch(rng: np.random.Generator, count: int, n: int, mode: str) -> np.ndarray:
    """Weights over lexicographic pairs: uniform [0,1) or zero-one indicators."""
    npairs = n * (n - 1) // 2
    if mode == "zero-one":
        return (rng.random((count, npairs)) < 0.5).astype(float)
    if mode == "uniform":
        return rng.random((count, npairs))
    raise ValueError(f"unknown weight mode {mode!r}; expected 'uniform' or 'zero-one'")


def sample_unit_bivector_coeffs(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm Gaussian coefficients over the n(n-1)/2 pairs (generically non-simple), drawn as a state."""
    return states_batch(rng, 1, n * (n - 1) // 2)[0]


def states_batch(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def orthonormal_triples_batch(rng: np.random.Generator, count: int, n: int):
    """Batched two-pass Gram-Schmidt of three Gaussian samples.

    Returns (u, v, w, ok); rows with a residual below 1e-8 during
    orthonormalization (measure-zero for Gaussian draws) are flagged not-ok
    rather than repaired, keeping the draw count fixed.
    """
    if n < 3:
        raise ValueError("orthonormal triples need dimension >= 3")
    return _orthonormalize_triples(*(states_batch(rng, count, n) for _ in range(3)))


def _orthonormalize_triples(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    def proj_coeff(q, v):
        return (q.conj() * v).sum(axis=1, keepdims=True)

    def unit(r):
        nr = np.linalg.norm(r, axis=1, keepdims=True)
        return r / np.where(nr == 0, 1.0, nr), nr[:, 0] > 1e-8

    u, ok_u = unit(x)
    yv = y
    for _ in range(2):
        yv = yv - proj_coeff(u, yv) * u
    v, ok_v = unit(yv)
    zv = z
    for _ in range(2):
        zv = zv - proj_coeff(u, zv) * u
        zv = zv - proj_coeff(v, zv) * v
    w, ok_w = unit(zv)
    return u, v, w, ok_u & ok_v & ok_w
