"""Numerical search for triangle-inequality violations in dimension 3.

For diagonal pair weights (l1, l2, l3) acting through the cross product, the
triangle defect  d(x,z) + d(y,z) - d(x,y)  with
d(a,b) = (sum_i l_i^p |(a x b)_i|^2)^(1/p)  is minimized over unit triples by
multi-start projected gradient descent.  When twice the largest weight is at
most their sum the minimum is zero (attained at degenerate triples); when it
exceeds the sum the canonical basis is already a witness, so the canonical
permutations are seeded as the first restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import _cross
from .sampling import trial_rng

__all__ = ["MinimizeResult", "minimize_defect_n3"]

_CONVERGED_TOL = 1e-10
_MIN_STEP = 1e-14


@dataclass(frozen=True)
class MinimizeResult:
    min_defect: float
    triple: tuple[np.ndarray, np.ndarray, np.ndarray]
    iterations: int


def _normalize_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def minimize_defect_n3(
    lambdas,
    p: float,
    *,
    restarts: int = 64,
    iterations: int = 2000,
    seed: int = 0,
    step0: float = 0.2,
) -> MinimizeResult:
    """Minimize the n=3 triangle defect over unit triples (x, y, z).

    Projected gradient descent with per-restart step halving on non-decrease;
    the projection renormalizes each vector.  Restarts: the three canonical
    basis permutations plus Gaussian random triples.  Returns the smallest
    defect seen anywhere along the trajectories and the triple achieving it.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (3,):
        raise ValueError("expected exactly three diagonal weights")
    if np.any(lam <= 0):
        raise ValueError("weights must be positive")
    if p < 2:
        raise ValueError("the minimizer covers the metric regime p >= 2 only")
    if restarts < 3:
        raise ValueError("needs at least the three canonical restarts")

    m2 = lam**p  # squared-norm weights of the p/2 power acting on cross products
    inv_p = 1.0 / p

    rng = trial_rng(seed, 0)
    r = restarts
    eye = np.eye(3, dtype=complex)

    def rand_block():
        v = rng.standard_normal((r - 3, 3)) + 1j * rng.standard_normal((r - 3, 3))
        return v

    x = np.concatenate([eye[[0, 1, 2]], rand_block()])
    y = np.concatenate([eye[[1, 2, 0]], rand_block()])
    z = np.concatenate([eye[[2, 0, 1]], rand_block()])
    x, y, z = _normalize_rows(x), _normalize_rows(y), _normalize_rows(z)

    def dist_terms(a, b):
        c = _cross(a, b)
        s = (m2 * (c.real**2 + c.imag**2)).sum(axis=1)
        return c, s, np.maximum(s, 0.0) ** inv_p

    def defect_of(a, b, cvec):
        _, _, dxz = dist_terms(a, cvec)
        _, _, dyz = dist_terms(b, cvec)
        _, _, dxy = dist_terms(a, b)
        return dxz + dyz - dxy

    def grad_scale(s):
        # d/ds of s^(1/p), guarded at the non-smooth s = 0 locus
        return np.where(s > 1e-280, inv_p * np.maximum(s, 1e-300) ** (inv_p - 1.0), 0.0)

    best_val = np.inf
    best_triple = (x[0].copy(), y[0].copy(), z[0].copy())

    def consider(vals, xs, ys, zs):
        nonlocal best_val, best_triple
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_triple = (xs[i].copy(), ys[i].copy(), zs[i].copy())

    f = defect_of(x, y, z)
    consider(f, x, y, z)

    step = np.full(r, step0)
    active = np.ones(r, dtype=bool)
    iters_done = 0

    for it in range(iterations):
        iters_done = it + 1
        cxz, sxz, _ = dist_terms(x, z)
        cyz, syz, _ = dist_terms(y, z)
        cxy, sxy, _ = dist_terms(x, y)
        wxz = grad_scale(sxz)[:, None]
        wyz = grad_scale(syz)[:, None]
        wxy = grad_scale(sxy)[:, None]
        mxz, myz, mxy = m2 * cxz, m2 * cyz, m2 * cxy

        gx = wxz * _cross(np.conj(z), mxz) - wxy * _cross(np.conj(y), mxy)
        gy = wyz * _cross(np.conj(z), myz) + wxy * _cross(np.conj(x), mxy)
        gz = -wxz * _cross(np.conj(x), mxz) - wyz * _cross(np.conj(y), myz)

        st = step[:, None]
        xn = _normalize_rows(x - st * gx)
        yn = _normalize_rows(y - st * gy)
        zn = _normalize_rows(z - st * gz)
        fn = defect_of(xn, yn, zn)
        consider(fn, xn, yn, zn)

        improved = (fn < f) & active
        x[improved], y[improved], z[improved] = xn[improved], yn[improved], zn[improved]
        tiny = improved & (f - fn < _CONVERGED_TOL)
        f = np.where(improved, fn, f)
        step[~improved & active] *= 0.5
        active &= ~tiny
        active &= step >= _MIN_STEP
        if not active.any():
            break

    return MinimizeResult(best_val, best_triple, iters_done)
