"""Random generators for states, orthonormal triples, and weight systems.

Randomness is organized as counter-based streams: ``trial_rng(seed, stream)``
builds an independent Philox generator keyed by the pair, so work can be
split across chunks/threads while staying bit-reproducible for a fixed seed.
Campaigns key streams by blocks of ``CHUNK_TRIALS`` trials, and draw each
kind of value for a whole block in one call, one row per trial; a distance
matrix row is its C(n,2) pair values.  A generator fills an array in order,
so row t of a block equals row t of every block of at least t + 1 rows from
the same stream: one trial replays by drawing rows 0..t and keeping the last.
"""

from __future__ import annotations

import numpy as np

from .exterior import pair_indices
from .metric import DistanceMatrix, _pair_closure, _slice_rows, _symmetric_from_pairs

__all__ = [
    "MATRIX_MODES",
    "trial_rng",
    "sample_pure_state",
    "sample_orthonormal_triple",
    "sample_distance_matrix",
    "sample_symmetric_weights",
    "states_batch",
    "orthonormal_triples_batch",
    "distance_matrices_batch",
    "pair_weights_batch",
]

MATRIX_MODES = ("euclidean-points", "repaired-random", "zero-one")
CHUNK_TRIALS = 512  # trials per draw block
_MASK64 = (1 << 64) - 1


def trial_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream), both reduced modulo 2^64; same pair, same bits."""
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
    return DistanceMatrix.from_array(_symmetric_from_pairs(distance_matrices_batch(rng, 1, n, mode)[0], n))


def distance_matrices_batch(rng: np.random.Generator, count: int, n: int, mode: str) -> np.ndarray:
    """``count`` random distance matrices drawn as in ``sample_distance_matrix``, as (count, C(n,2))
    pair values in ``pair_indices`` order (``metric._symmetric_from_pairs`` expands them).

    A Euclidean pair (i, j) is the root of the squared x, y and z differences c_i - c_j added
    to 0 in that order, over slices of ``metric._slice_rows(C(n,2))`` draws.  Repaired weights
    are closed in place (``metric._pair_closure``).
    """
    if n < 2:
        raise ValueError("distance matrices need size >= 2")
    if mode == "euclidean-points":
        (i, j), step = pair_indices(n), _slice_rows(n * (n - 1) // 2)
        pts, out = rng.random((count, n, 3)), np.zeros((count, len(i)))
        for s in range(0, count, step):
            for c in np.moveaxis(pts[s : s + step], -1, 0):
                out[s : s + step] += np.square(c[:, i] - c[:, j])
        return np.sqrt(out, out=out)
    npairs = n * (n - 1) // 2
    if mode == "repaired-random":
        u = rng.random((count, npairs))
        return _pair_closure(np.subtract(1.0, u, out=u), n)  # uniform on (0, 1], then closed
    if mode == "zero-one":
        return np.where(rng.random((count, npairs)) < 0.5, 1.0, 2.0)
    raise ValueError(f"unknown matrix mode {mode!r}; expected one of {MATRIX_MODES}")


def sample_symmetric_weights(n: int, rng: np.random.Generator, mode: str = "uniform") -> np.ndarray:
    """Symmetric nonnegative weight matrix with zero diagonal."""
    return _symmetric_from_pairs(pair_weights_batch(rng, 1, n, mode)[0], n)


def pair_weights_batch(rng: np.random.Generator, count: int, n: int, mode: str) -> np.ndarray:
    """Weights over lexicographic pairs: uniform [0,1) or zero-one indicators."""
    npairs = n * (n - 1) // 2
    if mode == "zero-one":
        return (rng.random((count, npairs)) < 0.5).astype(float)
    if mode == "uniform":
        return rng.random((count, npairs))
    raise ValueError(f"unknown weight mode {mode!r}; expected 'uniform' or 'zero-one'")


def states_batch(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` unit vectors of C^n, drawn into one complex array and scaled in place by
    ``1 / norm``: numpy's complex-by-real division computes that product, so the bits are
    those of ``v / norm``."""
    v = np.empty((count, n), dtype=complex)
    v.real = rng.standard_normal((count, n))
    v.imag = rng.standard_normal((count, n))
    parts = v.view(float)
    parts *= 1.0 / np.linalg.norm(v, axis=1, keepdims=True)
    return v


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
    """Two-pass Gram-Schmidt of the rows of x, y, z: (u, v, w, ok).

    Works in place on copies of the inputs with one temporary array, so a call
    holds four arrays of the inputs' size besides the inputs.  ``ok`` is
    False on rows with a residual below 1e-8.  Below four components the
    copies and the temporary are column-major, so each row sum is a few
    contiguous adds: numpy sums fewer than four complex values term by term
    in either memory order, but from four on sums a C-order row pairwise.
    """
    order = "F" if x.shape[-1] < 4 else "C"
    tmp = np.empty(x.shape, dtype=complex, order=order)

    def project_out(q, r):  # r -= <q, r> q
        np.multiply(np.conjugate(q, out=tmp), r, out=tmp)
        np.multiply(tmp.sum(axis=1, keepdims=True), q, out=tmp)
        r -= tmp

    def unit(r):  # r /= |r|, summed as np.linalg.norm sums
        np.multiply(np.conjugate(r, out=tmp), r, out=tmp)
        nr = np.sqrt(tmp.real.sum(axis=1, keepdims=True))
        r /= np.where(nr == 0, 1.0, nr)
        return r, nr[:, 0] > 1e-8

    u, ok_u = unit(np.array(x, dtype=complex, order=order))
    yv = np.array(y, dtype=complex, order=order)
    for _ in range(2):
        project_out(u, yv)
    v, ok_v = unit(yv)
    zv = np.array(z, dtype=complex, order=order)
    for _ in range(2):
        project_out(u, zv)
        project_out(v, zv)
    w, ok_w = unit(zv)
    return u, v, w, ok_u & ok_v & ok_w
