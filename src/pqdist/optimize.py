"""Numerical search for triangle-inequality violations in dimension 3.

For three weights (l1, l2, l3), the triangle defect  d(x,z) + d(y,z) - d(x,y)
of d_p on the pair weights E_01 = l3, E_02 = l2, E_12 = l1 (so l_i weighs
the i-th component of the cross product) is minimized over unit triples by
multi-start projected gradient descent.  All restarts form one stacked
iterate, and each keeps its own step length: a trial point is accepted on
sufficient decrease (Armijo, f_new <= f - c1 * step * |g|^2), after which the
step doubles up to a fixed multiple of the initial step; a rejected trial
halves it.  When twice the largest weight is at most their sum the minimum is
zero (attained at degenerate triples); when it exceeds the sum the canonical
basis is already a witness, so the canonical permutations are seeded as the
first restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import _interior_rows
from .metric import _minor_sums
from .sampling import trial_rng

__all__ = ["MinimizeResult", "minimize_defect_n3"]

_CONVERGED_TOL = 1e-10
_MIN_STEP = 1e-14
_STEP0 = 0.2  # initial step of every restart
_ARMIJO_C1 = 1e-4  # sufficient-decrease constant
_STEP_GROWTH = 2.0  # step factor after an accepted trial
_STEP_CAP = 4.0  # largest step, as a multiple of _STEP0

# Left, then right operands of the pair terms (x,z), (y,z), (x,y) of a stacked
# triple (x, y, z), and the signs with which their distances enter the defect.
_OPERANDS = np.array([0, 1, 0, 2, 2, 1])
_SIGNS = np.array([1.0, 1.0, -1.0])


@dataclass(frozen=True)
class MinimizeResult:
    min_defect: float
    triple: tuple[np.ndarray, np.ndarray, np.ndarray]
    iterations: int


def _normalize_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _defect_and_gradient(v: np.ndarray, wts: np.ndarray, inv_p: float):
    """Defect and its gradient for stacked triples ``v`` of shape (3, r, n).

    ``wts`` holds the pair weights E_ij^p and ``inv_p`` is 1/p.  Returns
    ``(f, g)``: the defect of each of the r triples, with a non-finite value
    read as +inf, and the gradient with respect to the conjugate of each
    vector, shape (3, r, n).  One minor-sum call gives all three pair terms.
    The gradient of sum E^p |m|^2, m = a ^ b, is -i_b(E^p m) in conj(a) and
    i_a(E^p m) in conj(b), i being the interior product ``_interior_rows``;
    one call of it gives all six.
    """
    ab = v[_OPERANDS]
    s, m = _minor_sums(wts, ab[:3], ab[3:])
    d = np.maximum(s, 0.0) ** inv_p
    f = d[0] + d[1] - d[2]
    f[~np.isfinite(f)] = np.inf
    # d/ds of s^(1/p), guarded at the non-smooth s = 0 locus
    w = np.where(s > 1e-280, inv_p * np.maximum(s, 1e-300) ** (inv_p - 1.0), 0.0)
    c = (_SIGNS[:, None] * w)[..., None] * wts * m
    # Rows 0-2: each term's gradient in its right operand; rows 3-5: in its left.
    t = _interior_rows(ab, np.concatenate([c, -c]))
    return f, t[[3, 4, 0]] + t[[5, 2, 1]]


def minimize_defect_n3(
    lambdas,
    p: float,
    *,
    restarts: int = 64,
    iterations: int = 2000,
    seed: int = 0,
) -> MinimizeResult:
    """Minimize the n=3 triangle defect over unit triples (x, y, z).

    Projected gradient descent on all restarts at once; the projection
    renormalizes each vector.  Each restart keeps its own step, from 0.2: a
    trial is accepted when its defect is finite and at most f - 1e-4 * step *
    |g|^2, which doubles the step up to 0.8; otherwise the step halves.  A
    restart stops once an accepted step gains less than 1e-10 or its step
    falls below 1e-14.  Restarts: the three canonical basis permutations
    plus Gaussian random triples.  Returns the smallest defect seen anywhere
    along the trajectories and the triple achieving it.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (3,):
        raise ValueError("expected exactly three diagonal weights")
    if np.any(lam <= 0):
        raise ValueError("weights must be positive")
    if not (2 <= p < np.inf):
        raise ValueError(f"the minimizer covers finite exponents p >= 2 only, got {p!r}")
    if restarts < 3:
        raise ValueError("needs at least the three canonical restarts")

    wts = lam[[2, 1, 0]] ** p  # E_01^p, E_02^p, E_12^p
    inv_p = 1.0 / p

    rng = trial_rng(seed, 0)
    r = restarts
    v = np.empty((3, r, 3), dtype=complex)
    for k, perm in enumerate(([0, 1, 2], [1, 2, 0], [2, 0, 1])):
        v[k, :3] = np.eye(3)[perm]
        v[k, 3:] = rng.standard_normal((r - 3, 3)) + 1j * rng.standard_normal((r - 3, 3))
    v = _normalize_rows(v)

    f, g = _defect_and_gradient(v, wts, inv_p)
    i = int(np.argmin(f))
    best_val, best_triple = float(f[i]), tuple(v[:, i].copy())

    step = np.full(r, _STEP0)
    active = np.ones(r, dtype=bool)
    iters_done = 0

    for it in range(iterations):
        iters_done = it + 1
        vn = _normalize_rows(v - step[:, None] * g)
        fn, gn = _defect_and_gradient(vn, wts, inv_p)
        i = int(np.argmin(fn))
        if fn[i] < best_val:
            best_val, best_triple = float(fn[i]), tuple(vn[:, i].copy())

        gsq = (g.real**2 + g.imag**2).sum(axis=(0, 2))
        accept = active & (fn < np.inf) & (fn <= f - _ARMIJO_C1 * step * gsq)
        np.copyto(v, vn, where=accept[:, None])
        np.copyto(g, gn, where=accept[:, None])
        tiny = accept & (f - fn < _CONVERGED_TOL)
        f = np.where(accept, fn, f)
        step = np.where(accept, np.minimum(step * _STEP_GROWTH, _STEP_CAP * _STEP0), step)
        step[~accept & active] *= 0.5
        active &= ~tiny & (step >= _MIN_STEP)
        if not active.any():
            break

    return MinimizeResult(best_val, best_triple, iters_done)
