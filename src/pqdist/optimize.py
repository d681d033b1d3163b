"""Numerical search for triangle-inequality violations in dimension 3.

For weights (l1, l2, l3), the triangle defect d(x,z) + d(y,z) - d(x,y) of d_p
on the pair weights E_01 = l3, E_02 = l2, E_12 = l1 (l_i weighs the i-th
component of the cross product) is minimized over unit triples by multi-start
projected gradient descent.  All restarts form one stacked iterate, each with
its own step: a trial point is accepted on sufficient decrease (Armijo, f_new
<= f - c1 * step * |g|^2), which doubles the step up to a cap; a rejected
trial halves it.  Every _STALL_WINDOW iterations, a restart whose gain over
the window is below its gap to the best value seen stops (at that pace it
cannot reach the best within one more window; the one at the best never
stops).  That many halvings take any step below the smallest, so a running
restart has accepted a step in each window.  Shorter windows (10-30) changed
held-out results; horizons from 1/4 window to 200 iterations changed none.
A stopped restart leaves the stack after one more evaluation.  When twice the
largest weight is at most their sum the minimum is zero (at degenerate
triples); above it the canonical basis is a witness, so the canonical
permutations are seeded as the first restarts.
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
_STALL_WINDOW = int(np.log2(_STEP_CAP * _STEP0 / _MIN_STEP)) + 1  # 47 halvings take any step below _MIN_STEP

_SIGNS = np.array([1.0, 1.0, -1.0])  # of the pair terms (x,z), (y,z), (x,y) in the defect


@dataclass(frozen=True)
class MinimizeResult:
    min_defect: float
    triple: tuple[np.ndarray, np.ndarray, np.ndarray]
    iterations: int


def _normalize_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _squared_norms(g: np.ndarray) -> np.ndarray:
    """|g|^2 of each restart of a stack (3, r, n), added in the same order for every r (a one-call
    sum over axes (0, 2) coalesces the axes of a one-row stack and adds in another order)."""
    return (g.real**2 + g.imag**2).sum(axis=2).sum(axis=0)


def _stalled(f: np.ndarray, f_before: np.ndarray, best: float) -> np.ndarray:
    """Restarts whose gain since ``f_before >= f`` is below their gap to ``best``; never f <= best or f = inf."""
    with np.errstate(invalid="ignore"):  # inf - inf: a restart that never had a finite value
        return f - best > f_before - f


def _defect_and_gradient(v: np.ndarray, wts: np.ndarray, inv_p: float):
    """Defect and its gradient for stacked triples ``v`` of shape (3, r, n).

    ``wts`` holds the pair weights E_ij^p and ``inv_p`` is 1/p.  Returns
    ``(f, g)``: the defect of each of the r triples, with a non-finite value
    read as +inf, and the gradient with respect to the conjugate of each
    vector, shape (3, r, n).  One minor-sum call gives all three pair terms.
    The gradient of sum E^p |m|^2, m = a ^ b, is -i_b(E^p m) in conj(a) and
    i_a(E^p m) in conj(b), i being the interior product ``_interior_rows``;
    one call of it gives all six.  Operands and gradient are built from
    slices, since a fancy-index gather releases the GIL at any size.
    """
    # Left, then right operands of the three terms: (x, y, x), (z, z, y).
    ab = np.concatenate([v[:2], v[:1], v[2:], v[2:0:-1]])
    s, m = _minor_sums(wts, ab[:3], ab[3:])
    d = np.maximum(s, 0.0) ** inv_p
    f = d[0] + d[1] - d[2]
    f[~np.isfinite(f)] = np.inf
    # d/ds of s^(1/p), guarded at the non-smooth s = 0 locus
    w = np.where(s > 1e-280, inv_p * np.maximum(s, 1e-300) ** (inv_p - 1.0), 0.0)
    c = (_SIGNS[:, None] * w)[..., None] * wts * m
    # Rows 0-2: each term's gradient in its right operand (z, z, y); rows 3-5:
    # in its left (x, y, x).  So x sums rows 3 and 5, y rows 4 and 2, z 0 and 1.
    t = _interior_rows(ab, np.concatenate([c, -c]))
    return f, np.concatenate([t[3:5] + t[5:1:-3], t[:1] + t[1:2]])


def minimize_defect_n3(
    lambdas,
    p: float,
    *,
    restarts: int = 64,
    iterations: int = 2000,
    seed: int = 0,
) -> MinimizeResult:
    """Minimize the n=3 triangle defect over unit triples (x, y, z).

    Projected gradient descent on all restarts at once, renormalizing each
    vector.  Each restart keeps its own step, from 0.2: a trial is accepted
    when its defect is finite and at most f - 1e-4 * step * |g|^2, which
    doubles the step up to 0.8; otherwise the step halves.  A restart stops
    once an accepted step gains less than 1e-10, its step falls below 1e-14, or
    its gain over the last 47 iterations (checked every 47; 47 halvings take
    0.8 below 1e-14) is below its gap to the best value seen.
    Restarts: the three canonical basis permutations plus Gaussian random
    triples.  Returns the smallest defect seen and its triple.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (3,):
        raise ValueError("expected exactly three diagonal weights")
    if not (2 <= p < np.inf):
        raise ValueError(f"the minimizer covers finite exponents p >= 2 only, got {p!r}")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        wts = lam[[2, 1, 0]] ** p  # E_01^p, E_02^p, E_12^p
    if not np.all((lam > 0) & np.isfinite(wts) & (wts > 0)):
        raise ValueError(f"weights must be positive with finite, positive p-th powers, got {lam.tolist()}")
    if restarts < 3 or iterations < 0:
        raise ValueError(f"needs restarts >= 3 (the canonical ones), iterations >= 0; got {restarts}, {iterations}")
    inv_p = 1.0 / p

    rng = trial_rng(seed, 0)
    r = restarts
    v = np.empty((3, r, 3), dtype=complex)
    for k, perm in enumerate(([0, 1, 2], [1, 2, 0], [2, 0, 1])):
        v[k, :3] = np.eye(3)[perm]
        v[k, 3:] = rng.standard_normal((r - 3, 3)) + 1j * rng.standard_normal((r - 3, 3))
    v = _normalize_rows(v)
    f, g = _defect_and_gradient(v, wts, inv_p)
    gsq = _squared_norms(g)
    i = int(np.argmin(f))
    best_val, best_triple = float(f[i]), tuple(v[:, i].copy())
    step = np.full(r, _STEP0)
    active = np.ones(r, dtype=bool)
    f_before, it = f, 0
    for it in range(1, iterations + 1):
        vn = _normalize_rows(v - step[:, None] * g)
        fn, gn = _defect_and_gradient(vn, wts, inv_p)
        if fn.min() < best_val:  # argmin releases the GIL, so it runs only here
            i = int(np.argmin(fn))
            best_val, best_triple = float(fn[i]), tuple(vn[:, i].copy())
        keep = active  # inactive rows stopped on the last iteration and leave below
        accept = keep & (fn < np.inf) & (fn <= f - _ARMIJO_C1 * step * gsq)
        np.copyto(v, vn, where=accept[:, None])
        np.copyto(g, gn, where=accept[:, None])
        gsq = np.where(accept, _squared_norms(gn), gsq)
        active = keep & ~(accept & (f - fn < _CONVERGED_TOL))
        f = np.where(accept, fn, f)
        step *= np.where(accept, _STEP_GROWTH, 0.5)
        np.minimum(step, _STEP_CAP * _STEP0, out=step)
        active &= step >= _MIN_STEP
        if it % _STALL_WINDOW == 0:
            active, f_before = active & ~_stalled(f, f_before, best_val), f
        if not active.any():
            break
        if not keep.all():
            v, g, f, f_before = v[:, keep], g[:, keep], f[keep], f_before[keep]
            gsq, step, active = gsq[keep], step[keep], active[keep]

    return MinimizeResult(best_val, best_triple, it)
