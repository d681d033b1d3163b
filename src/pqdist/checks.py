"""Verifiers for the inequalities behind the induced metrics.

Each inequality (or identity) has one batched kernel here, over rows of pair
weights (count, n(n-1)/2) and states (count, n): ``_triangle_rows`` (on top
of ``metric._dp_rows``), ``_minorial_rows``, ``_convexity_rows``,
``_w1_rows``, ``_projector_rows`` and, for the orthonormal-reduction
pipeline, ``_reduction_rows``.  The public verifiers gate their inputs and
run the kernel on one row; ``fuzz`` runs the same kernel on whole chunks, so
a witness is re-evaluated by the code that found it.  Defects are signed: a
nonnegative defect means the inequality held, so fuzz campaigns only have to
watch for values below -tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exterior import (
    ORTHO_INPUT_TOL,
    Bivector,
    _bivector_and_vector,
    _hodge_frame,
    _minors3,
    _pair_of_vectors,
    _wedge_basis,
    _wedge_bv_coeffs,
    gram_deviation,
    minors2,
    pair_indices,
    pair_positions,
    triple_indices,
)
from .metric import (
    DistanceMatrix,
    _dp_inputs,
    _dp_rows,
    _restricted_form_rows,
    dp_from_weights,
)
from .sampling import _orthonormalize_triples, trial_rng

__all__ = [
    "CONVEXITY_SHAPES",
    "MinorialDefects",
    "ProjectorDefects",
    "ReductionReport",
    "Counterexample",
    "ensure_orthonormal_triple",
    "check_symmetric_weights",
    "check_minorial",
    "check_projector_inequality",
    "check_convexity",
    "check_generator_identity_w1",
    "check_orthonormal_reduction",
    "counterexample_p_lt_2",
    "triangle_defect",
]

HODGE_RESIDUAL_TOL = 1e-10
MU_CONSISTENCY_TOL = 1e-9
SUBSPACE_SAMPLES = 16


class MinorialDefects(NamedTuple):
    lower: float
    upper: float


class ProjectorDefects(NamedTuple):
    outer: float  # |PB|^2 |v|^2 - |Q(B ^ v)|^2
    inner: float  # |P(B) ^ v|^2 - |Q(B ^ v)|^2


def ensure_orthonormal_triple(x, y, z, *, tol: float = ORTHO_INPUT_TOL):
    """Gate a triple on orthonormality, then polish it by re-orthogonalization.

    Inputs beyond ``tol`` Gram deviation are rejected rather than repaired;
    accepted inputs get ~1e-16 polish from the samplers' batched Gram-Schmidt
    so downstream checks see exact hypotheses.
    """
    vs = [np.asarray(v, dtype=complex) for v in (x, y, z)]
    if gram_deviation(vs) > tol:
        raise ValueError("triple is not orthonormal")
    u, v, w, _ = _orthonormalize_triples(*(a[None] for a in vs))
    return u[0], v[0], w[0]


def check_symmetric_weights(a) -> np.ndarray:
    w = np.asarray(a, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square weight matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w != w.T):
        raise ValueError("weights must be symmetric")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return w


def _weighted_triple(a, x, y, z):
    """Gates shared by the weighted-triple verifiers; returns kernel-ready single rows."""
    w = check_symmetric_weights(a)
    x, y, z = ensure_orthonormal_triple(x, y, z)
    if w.shape[0] != x.size:
        raise ValueError("weight matrix does not match the state dimension")
    i, j = pair_indices(x.size)
    return w[i, j][None], x[None], y[None], z[None]


def _sq(m: np.ndarray) -> np.ndarray:
    return m.real**2 + m.imag**2


def _pair_sum(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pair-weighted squared 2x2-minor sums of the rows of x and y."""
    i, j = pair_indices(x.shape[-1])
    return (a * _sq(minors2(x, y, i, j))).sum(axis=-1)


def _weight_triples(a: np.ndarray, n: int) -> np.ndarray:
    """Weights (a_ij, a_ik, a_jk) of every triple i < j < k, stacked on axis 0."""
    _, _, _, pij, pik, pjk = triple_indices(n)
    return np.stack([a[..., pij], a[..., pik], a[..., pjk]])


def _fvalue(fname: str, u: np.ndarray, p: float | None = None) -> np.ndarray:
    """Shape f of the three values stacked on axis 0 of u."""
    if fname == "max":
        return u.max(axis=0)
    if fname == "min":
        return u.min(axis=0)
    if fname == "sum":
        return u.sum(axis=0)
    return (u ** (1.0 / p)).sum(axis=0) ** p


def _triangle_rows(wts: np.ndarray, p: float, x, y, z):
    """Triangle kernel: (sum - 2 max, max, the distances d_xy, d_xz, d_yz on axis 0)."""
    d = np.stack([_dp_rows(wts, p, x, y), _dp_rows(wts, p, x, z), _dp_rows(wts, p, y, z)])
    dmax = d.max(axis=0)
    return d[0] + d[1] + d[2] - 2.0 * dmax, dmax, d


def _minorial_rows(a: np.ndarray, x, y, z):
    """Minorial kernel: (middle - lower bound, upper bound - middle)."""
    mid = _pair_sum(a, x, y)
    pt = _sq(_minors3(x, y, z))
    stacked = _weight_triples(a, x.shape[-1])
    return mid - (_fvalue("min", stacked) * pt).sum(axis=-1), (_fvalue("max", stacked) * pt).sum(axis=-1) - mid


def _convexity_rows(fnames, a: np.ndarray, x, y, z, p: float | None):
    """Convexity kernel: one row of signed defects per shape in ``fnames``."""
    g = np.stack([_pair_sum(a, x, y), _pair_sum(a, x, z), _pair_sum(a, y, z)])
    pt = _sq(_minors3(x, y, z))
    stacked = _weight_triples(a, x.shape[-1])
    out = []
    for fname in fnames:
        avg = (_fvalue(fname, stacked, p) * pt).sum(axis=-1)
        fg = _fvalue(fname, g, p)
        out.append(avg - fg if fname == "max" else fg - avg)
    return np.stack(out)


def _w1_rows(a: np.ndarray, x, y, z):
    """Generator-identity kernel: (lhs, rhs, relative residual)."""
    lhs = _pair_sum(a, x, y) + _pair_sum(a, x, z) + _pair_sum(a, y, z)
    rhs = (_fvalue("sum", _weight_triples(a, x.shape[-1])) * _sq(_minors3(x, y, z))).sum(axis=-1)
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return lhs, rhs, np.abs(lhs - rhs) / denom


def _projector_rows(b: np.ndarray, v: np.ndarray, mask: np.ndarray):
    """Masked-projector kernel over bivector rows b and pair masks: (outer, inner)."""
    _, _, _, pij, pik, pjk = triple_indices(v.shape[-1])
    qmask = mask[..., pij] & mask[..., pik] & mask[..., pjk]
    q_sq = np.where(qmask, _sq(_wedge_bv_coeffs(b, v)), 0.0).sum(axis=-1)
    pb = np.where(mask, b, 0.0)
    outer = _sq(pb).sum(axis=-1) * _sq(v).sum(axis=-1) - q_sq
    inner = _sq(_wedge_bv_coeffs(pb, v)).sum(axis=-1) - q_sq
    return outer, inner


def check_minorial(a, x, y, z) -> MinorialDefects:
    """Two-sided sandwich of a weighted 2x2-minor sum by 3x3-minor sums.

    For orthonormal {x, y, z} and symmetric nonnegative weights a, the
    pair-weighted minor sum of (x, y) sits between the min-weighted and
    max-weighted squared 3x3 minors; returns (middle - lower, upper - middle).
    """
    lower, upper = _minorial_rows(*_weighted_triple(a, x, y, z))
    return MinorialDefects(float(lower[0]), float(upper[0]))


def _pair_mask(s, n: int) -> np.ndarray:
    """Boolean mask over the lexicographic pairs listed (in either order) in ``s``."""
    mask = np.zeros(n * (n - 1) // 2, dtype=bool)
    pos = pair_positions(n)
    for pr in s:
        i, j = int(pr[0]), int(pr[1])
        if i == j:
            raise ValueError(f"pair ({i},{j}) repeats an index")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i},{j}) is out of range for dimension {n}")
        mask[pos[i, j]] = True
    return mask


def check_projector_inequality(s, b: Bivector, v) -> ProjectorDefects:
    """Masked wedge bound: |Q(B ^ v)|^2 <= |P(B) ^ v|^2 <= |PB|^2 |v|^2.

    P keeps the bivector coefficients of the pairs in ``s``; Q keeps the
    trivector coefficients whose three pairs all lie in ``s``.  Holds for all
    (also non-simple) bivectors B; returns both gaps.
    """
    vv = _bivector_and_vector(b, v)
    mask = _pair_mask(s, b.n)
    outer, inner = _projector_rows(b.coeffs[None], vv[None], mask[None])
    return ProjectorDefects(float(outer[0]), float(inner[0]))


CONVEXITY_SHAPES = ("max", "min", "sum", "powersum")


def check_convexity(fname: str, a, x, y, z, p: float | None = None) -> float:
    """Defect of the symmetric convexity bound for f in {max, min, sum, powersum}.

    Compares f of the three pair-weighted minor sums against the
    |T|^2-weighted average of f over the weight triples.  The sign is chosen
    so a nonnegative value means the bound held: average - f(g) for convex f
    (max), f(g) - average for concave f (min, sum, powersum with p >= 2).
    """
    if fname not in CONVEXITY_SHAPES:
        raise ValueError(f"unknown fname {fname!r}; expected one of {CONVEXITY_SHAPES}")
    if fname == "powersum":
        if p is None:
            raise ValueError("powersum needs the exponent p")
        if p < 2:
            raise ValueError("powersum is used in its concave regime, p >= 2")
    return float(_convexity_rows((fname,), *_weighted_triple(a, x, y, z), p)[0, 0])


def check_generator_identity_w1(a, x, y, z) -> float:
    """Relative residual of the exact identity: the three pair-weighted minor
    sums add up to the (a_ij + a_ik + a_jk)-weighted squared 3x3 minors."""
    _, _, residual = _w1_rows(*_weighted_triple(a, x, y, z))
    return float(residual[0])


def triangle_defect(entries, p: float, x, y, z) -> tuple[float, float]:
    """Signed triangle slack for one triple: (sum - 2 max of the three
    distances, the largest distance).  The first value is the minimum over
    the three cyclic defects."""
    wts, xv, yv = _dp_inputs(entries, p, x, y)
    _, zv = _pair_of_vectors(xv, z)
    slack, dmax, _ = _triangle_rows(wts, p, xv[None], yv[None], zv[None])
    return float(slack[0]), float(dmax[0])


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of collapsing a triple to a 3-dim subspace and its wedge form."""

    mus: tuple[float, float, float]  # ascending
    hodge_residual: float
    mu_residual: float
    spectral_margin: float  # (sum - 2 max) of mu^(2/p), relative to max(1, sum)
    mu_consistent: bool
    spectral_ok: bool
    subspace_fuzz_ok: bool

    @property
    def verdict(self) -> bool:
        return self.mu_consistent and (self.spectral_ok == self.subspace_fuzz_ok)


def check_orthonormal_reduction(
    e,
    p: float,
    x,
    y,
    z,
    *,
    subspace_samples: int = SUBSPACE_SAMPLES,
    inner_seed: int = 0,
    inner_stream: int = 0,
    tol: float = 1e-9,
) -> ReductionReport:
    """Cross-validate the reduction of arbitrary triples to orthonormal ones.

    Any three vectors are completed to an orthonormal basis of a 3-dim
    subspace V; the pair-weight form restricted to the wedge square of V is
    diagonalized, its eigen-bivectors are realized as wedges of an
    orthonormal frame, and the sqrt-eigenvalues mu are checked in two ways:

    * mu-consistency: the weighted norms of the frame wedges reproduce mu;
    * equivalence: 2 max mu^(2/p) <= sum mu^(2/p) agrees with direct triangle
      checks over ``subspace_samples`` random orthonormal triples drawn inside
      V from the stream ``trial_rng(inner_seed, inner_stream)``.
    """
    wts, xv, yv = _dp_inputs(e.entries if isinstance(e, DistanceMatrix) else e, p, x, y)
    _, zv = _pair_of_vectors(xv, z)
    if xv.size < 3:
        raise ValueError(f"cannot span 3 dimensions inside C^{xv.size}")
    draws = _subspace_draws(inner_seed, [inner_stream], subspace_samples)
    return _reduction_report(_reduction_rows(wts[None], p, xv[None], yv[None], zv[None], draws, tol), 0, tol)


def _subspace_draws(seed: int, streams, samples: int) -> np.ndarray:
    """Gaussian (re, im) parts of each stream's subspace samples: (len(streams), samples, 2, 3, 3).

    One draw per stream gives the values of ``samples`` sequential (re, im) pairs of (3, 3) draws.
    """
    out = np.empty((len(streams), samples, 2, 3, 3))
    for row, stream in zip(out, streams):
        trial_rng(seed, int(stream)).standard_normal(out=row)
    return out


def _reduction_rows(wts: np.ndarray, p: float, x, y, z, draws: np.ndarray, tol: float):
    """Reduction kernel over pair weights E_ij^p (count, n(n-1)/2), states (count, n) and subspace draws.

    The first three columns of a QR factorization of (x, y, z) span a 3-space
    V containing the inputs, also when they are dependent.  Returns the
    ascending mus (count, 3), the Hodge and mu residuals, the normalized
    spectral margin and whether every subspace sample kept the triangle
    inequality within ``tol``.
    """
    q, _ = np.linalg.qr(np.stack([x, y, z], axis=-1))
    v = q.swapaxes(-1, -2)
    mus, u, bs = _restricted_form_rows(wts, v)
    frame_wedges = _wedge_basis(_hodge_frame(u, v))
    hodge_residual = np.abs(frame_wedges - bs).max(axis=(-2, -1))
    got = np.sqrt((wts[:, None, :] * _sq(frame_wedges)).sum(axis=-1))
    mu_residual = (np.abs(got - mus) / np.maximum(1.0, np.abs(mus))).max(axis=-1)

    vals = mus ** (2.0 / p)
    total = vals.sum(axis=-1)
    spectral_margin = (total - 2.0 * vals.max(axis=-1)) / np.maximum(1.0, total)

    fuzz_ok = np.ones(len(v), dtype=bool)
    for s in range(draws.shape[1]):
        g, _ = np.linalg.qr(draws[:, s, 0] + 1j * draws[:, s, 1])
        t = g.swapaxes(-1, -2) @ v
        slack, dmax, _ = _triangle_rows(wts, p, t[:, 0], t[:, 1], t[:, 2])
        fuzz_ok &= slack >= -tol * np.maximum(1.0, dmax)  # NaN fails
    return mus, hodge_residual, mu_residual, spectral_margin, fuzz_ok


def _reduction_report(rows, t: int, tol: float) -> ReductionReport:
    """Report of row t of the reduction kernel's output."""
    mus, hodge_residual, mu_residual, spectral_margin, fuzz_ok = (r[t] for r in rows)
    return ReductionReport(
        mus=(float(mus[0]), float(mus[1]), float(mus[2])),
        hodge_residual=float(hodge_residual),
        mu_residual=float(mu_residual),
        spectral_margin=float(spectral_margin),
        mu_consistent=bool(hodge_residual <= HODGE_RESIDUAL_TOL and mu_residual <= MU_CONSISTENCY_TOL),
        spectral_ok=bool(spectral_margin >= -tol),
        subspace_fuzz_ok=bool(fuzz_ok),
    )


@dataclass(frozen=True)
class Counterexample:
    """A triple violating the triangle inequality for an exponent below 2."""

    p: float
    e12: float
    theta: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    d_xy: float
    d_xz: float
    d_yz: float

    @property
    def margin(self) -> float:
        return self.d_xy - self.d_xz - self.d_yz


def counterexample_p_lt_2(p: float, e12: float, theta: float | None = None) -> Counterexample:
    """Explicit triangle-inequality violation in C^2 for any exponent p < 2.

    With x = cos(t) e1 + sin(t) e2, y = cos(t) e1 - sin(t) e2 and z = e1, the
    induced distances are E12 sin(2t)^(2/p) and twice E12 sin(t)^(2/p); any t
    with cos(t) > 2^(p/2 - 1) violates the inequality.  By default t solves
    cos(t) = (1 + 2^(p/2-1)) / 2, the midpoint of the feasible interval.
    """
    if not (0.0 < p < 2.0):
        raise ValueError("the construction needs 0 < p < 2; for p >= 2 the map is a metric")
    if not (e12 > 0):
        raise ValueError("the off-diagonal entry must be positive")
    threshold = 2.0 ** (p / 2.0 - 1.0)
    if theta is None:
        theta = float(np.arccos((1.0 + threshold) / 2.0))
    else:
        theta = float(theta)
        if not (0.0 < theta < np.pi / 2.0) or not (np.cos(theta) > threshold):
            raise ValueError(
                f"theta must lie in (0, pi/2) with cos(theta) > {threshold!r} to violate the inequality"
            )
    c, s = np.cos(theta), np.sin(theta)
    x = np.array([c, s], dtype=complex)
    y = np.array([c, -s], dtype=complex)
    z = np.array([1.0, 0.0], dtype=complex)
    entries = np.array([[0.0, e12], [e12, 0.0]])
    return Counterexample(
        p=p,
        e12=float(e12),
        theta=theta,
        x=x,
        y=y,
        z=z,
        d_xy=dp_from_weights(entries, p, x, y),
        d_xz=dp_from_weights(entries, p, x, z),
        d_yz=dp_from_weights(entries, p, y, z),
    )
