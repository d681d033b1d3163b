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
    _pair_gather,
    _row_sums,
    _vectors,
    _wedge_basis,
    _wedge_bv_coeffs,
    gram_deviation,
    pair_indices,
    pair_positions,
    triple_indices,
)
from .metric import (
    DistanceMatrix,
    _dp_inputs,
    _dp_rows,
    _minor_sums,
    _raw_square_matrix,
    _restricted_form_rows,
    dp_from_weights,
)
from .sampling import CHUNK_TRIALS, _orthonormalize_triples, trial_rng

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


def _orthonormal_gate(x, y, z):
    """The triple as vectors; beyond ``ORTHO_INPUT_TOL`` Gram deviation it is rejected, not repaired."""
    vs = _vectors(x, y, z)
    if gram_deviation(vs) > ORTHO_INPUT_TOL:
        raise ValueError("triple is not orthonormal")
    return vs


def ensure_orthonormal_triple(x, y, z):
    """Gate a triple on orthonormality, then polish it (~1e-16) with the samplers' batched Gram-Schmidt."""
    u, v, w, _ = _orthonormalize_triples(*(a[None] for a in _orthonormal_gate(x, y, z)))
    return u[0], v[0], w[0]


def check_symmetric_weights(a) -> np.ndarray:
    w = _raw_square_matrix(a)
    if np.any(w != w.T):
        raise ValueError("weights must be symmetric")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return w


def _weighted_rows(a, x, y, z):
    """Single rows (E_ij, x, y, z) for a weighted-triple kernel; the triple is checked, not repaired."""
    w = check_symmetric_weights(a)
    vs = _orthonormal_gate(x, y, z)
    if w.shape[0] != vs[0].size:
        raise ValueError("weight matrix does not match the state dimension")
    i, j = pair_indices(w.shape[0])
    return (w[i, j][None], *(v[None] for v in vs))


def _weighted_triple(a, x, y, z):
    """Kernel rows of the public verifiers: the gated rows with the triple polished."""
    wts, *triple = _weighted_rows(a, x, y, z)
    return (wts, *_orthonormalize_triples(*triple)[:3])


def _sq(m: np.ndarray) -> np.ndarray:
    return m.real**2 + m.imag**2


def _pair_triples(a: np.ndarray, n: int):
    """Values (a_ij, a_ik, a_jk) over the pairs of every triple i < j < k."""
    _, _, _, pij, pik, pjk = triple_indices(n)
    return a[..., pij], a[..., pik], a[..., pjk]


def _fvalue(fname: str, u, p: float | None = None) -> np.ndarray:
    """Shape f of the three values u = (u0, u1, u2), elementwise."""
    u0, u1, u2 = u
    if fname == "max":
        return np.maximum(np.maximum(u0, u1), u2)
    if fname == "min":
        return np.minimum(np.minimum(u0, u1), u2)
    if fname == "sum":
        return u0 + u1 + u2
    r = 1.0 / p
    return (u0**r + u1**r + u2**r) ** p


def _triangle_rows(wts: np.ndarray, p: float, x, y, z):
    """Triangle kernel: (sum - 2 max, max, the distances d_xy, d_xz, d_yz on the last axis)."""
    d = _dp_rows(wts, p, x, y), _dp_rows(wts, p, x, z), _dp_rows(wts, p, y, z)
    dmax = _fvalue("max", d)
    return d[0] + d[1] + d[2] - 2.0 * dmax, dmax, np.stack(d, axis=-1)


# Relative widening of the distance intervals.  The screen's and the kernel's
# p-th roots are each within 4 ulps (8 u), and the kernel's and the
# interval's sum, difference and quotient round by 5 u of
# (sum + 2 max) / max(1, max) each: 26 u of what a distance adds to the
# slack.  The absolute part covers subnormal results.
_ROUND_WIDEN = 32 * 2.0**-53
_TINY = np.ldexp(1.0, -1068)


def _triangle_bounds(lo: np.ndarray, hi: np.ndarray, p: float):
    """Interval around the normalized defect slack / max(1, max) that ``_triangle_rows`` gives.

    ``lo`` and ``hi`` (..., 3) bound the kernel's three minor sums; the p-th
    root is monotone, and interval arithmetic carries the distances through
    sum - 2 max and the division.  A non-finite bound leaves a non-finite end.
    """
    r = 1.0 / p
    d_lo = np.maximum(np.maximum(lo, 0.0) ** r * (1.0 - _ROUND_WIDEN) - _TINY, 0.0)
    d_hi = np.maximum(hi, 0.0) ** r * (1.0 + _ROUND_WIDEN) + _TINY
    d_lo, d_hi = np.moveaxis(d_lo, -1, 0), np.moveaxis(d_hi, -1, 0)  # numpy reduces a short last axis slowly
    top_lo, top_hi = _fvalue("max", d_lo), _fvalue("max", d_hi)
    slack_lo = _fvalue("sum", d_lo) - 2.0 * top_hi
    slack_hi = _fvalue("sum", d_hi) - 2.0 * top_lo
    m_lo, m_hi = np.maximum(1.0, top_lo), np.maximum(1.0, top_hi)
    return np.minimum(slack_lo / m_lo, slack_lo / m_hi), np.maximum(slack_hi / m_lo, slack_hi / m_hi)


def _minorial_rows(a: np.ndarray, x, y, z):
    """Minorial kernel: (middle - lower bound, upper bound - middle)."""
    mid, _ = _minor_sums(a, x, y)
    pt = _sq(_minors3(x, y, z))
    stacked = _pair_triples(a, x.shape[-1])
    return mid - _row_sums(_fvalue("min", stacked) * pt), _row_sums(_fvalue("max", stacked) * pt) - mid


def _convexity_rows(fnames, a: np.ndarray, x, y, z, p: float | None):
    """Convexity kernel: signed defects (count, len(fnames)), one column per shape in ``fnames``."""
    g = (_minor_sums(a, x, y)[0], _minor_sums(a, x, z)[0], _minor_sums(a, y, z)[0])
    pt = _sq(_minors3(x, y, z))
    stacked = _pair_triples(a, x.shape[-1])
    out = []
    for fname in fnames:
        avg = _row_sums(_fvalue(fname, stacked, p) * pt)
        fg = _fvalue(fname, g, p)
        out.append(avg - fg if fname == "max" else fg - avg)
    return np.stack(out, axis=-1)


def _w1_rows(a: np.ndarray, x, y, z):
    """Generator-identity kernel: (lhs, rhs, relative residual)."""
    lhs = _minor_sums(a, x, y)[0] + _minor_sums(a, x, z)[0] + _minor_sums(a, y, z)[0]
    rhs = _row_sums(_fvalue("sum", _pair_triples(a, x.shape[-1])) * _sq(_minors3(x, y, z)))
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return lhs, rhs, np.abs(lhs - rhs) / denom


def _projector_rows(b: np.ndarray, v: np.ndarray, mask: np.ndarray):
    """Masked-projector kernel over bivector rows b and pair masks: (outer, inner)."""
    m_ij, m_ik, m_jk = _pair_triples(mask, v.shape[-1])
    qmask = m_ij & m_ik & m_jk
    q_sq = _row_sums(np.where(qmask, _sq(_wedge_bv_coeffs(b, v)), 0.0))
    pb = np.where(mask, b, 0.0)
    outer = _row_sums(_sq(pb)) * _row_sums(_sq(v)) - q_sq
    inner = _row_sums(_sq(_wedge_bv_coeffs(pb, v))) - q_sq
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
    """Boolean mask over the lexicographic pairs listed (in either order) in ``s``.

    Each pair must be exactly two integers (not booleans), distinct and in range(n).
    """
    mask = np.zeros(n * (n - 1) // 2, dtype=bool)
    pos = pair_positions(n)
    for pr in s:
        if len(pr) != 2 or not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in pr):
            raise ValueError(f"pair {pr!r} is not two integer indices")
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


def _check_shape(fname: str, p: float | None) -> None:
    if fname not in CONVEXITY_SHAPES:
        raise ValueError(f"unknown fname {fname!r}; expected one of {CONVEXITY_SHAPES}")
    if fname == "powersum" and (p is None or p < 2):
        raise ValueError("powersum needs the exponent p of its concave regime, p >= 2")


def check_convexity(fname: str, a, x, y, z, p: float | None = None) -> float:
    """Defect of the symmetric convexity bound for f in {max, min, sum, powersum}.

    Compares f of the three pair-weighted minor sums against the
    |T|^2-weighted average of f over the weight triples.  The sign is chosen
    so a nonnegative value means the bound held: average - f(g) for convex f
    (max), f(g) - average for concave f (min, sum, powersum with p >= 2).
    """
    _check_shape(fname, p)
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
    wts, xv, yv, zv = _dp_inputs(entries, p, x, y, z)
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
    inner_seed: int = 0,
    inner_stream: int = 0,
    inner_row: int = 0,
    tol: float = 1e-9,
) -> ReductionReport:
    """Cross-validate the reduction of arbitrary triples to orthonormal ones.

    Any three vectors are completed to an orthonormal basis of a 3-dim
    subspace V; the pair-weight form restricted to the wedge square of V is
    diagonalized, its eigen-bivectors are realized as wedges of an
    orthonormal frame, and the sqrt-eigenvalues mu are checked in two ways:

    * mu-consistency: the weighted norms of the frame wedges reproduce mu;
    * equivalence: 2 max mu^(2/p) <= sum mu^(2/p) agrees with direct triangle
      checks over ``SUBSPACE_SAMPLES`` random orthonormal triples drawn inside
      V.  Their Gaussian parts are row ``inner_row`` of a block of
      (``SUBSPACE_SAMPLES``, 2, 3, 3) rows drawn in one call from
      ``trial_rng(inner_seed, inner_stream)``, as a reduction campaign draws
      a chunk's, so a witness's ``(inner_seed, inner_stream, inner_row)``
      replays its trial.  ``inner_row`` must be an integer in
      ``range(CHUNK_TRIALS)``; a block of ``inner_row + 1`` rows is drawn.
    """
    wts, xv, yv, zv = _dp_inputs(e.entries if isinstance(e, DistanceMatrix) else e, p, x, y, z)
    if xv.size < 3:
        raise ValueError(f"cannot span 3 dimensions inside C^{xv.size}")
    if type(inner_row) is bool or not isinstance(inner_row, (int, np.integer)) or not 0 <= inner_row < CHUNK_TRIALS:
        raise ValueError(f"inner_row must be an integer in [0, {CHUNK_TRIALS}), got {inner_row!r}")
    draws = trial_rng(inner_seed, inner_stream).standard_normal((inner_row + 1, SUBSPACE_SAMPLES, 2, 3, 3))
    return _reduction_report(_reduction_rows(wts[None], p, xv[None], yv[None], zv[None], draws[-1:], tol), 0, tol)


def _subspace_sum_bounds(wts: np.ndarray, v: np.ndarray, w: np.ndarray, frames: np.ndarray):
    """Intervals (lo, hi) (count, samples, 3) around the minor sums the judge of ``_reduction_rows`` computes.

    A sample's frame F (count, samples, 3, 3) has rows f_a over the basis rows
    v (count, 3, n), and the judge sums the pair-weighted squared minors of
    (f_0 v, f_1 v), (f_0 v, f_2 v) and (f_1 v, f_2 v) in C^n.  The wedge of
    a v and b v is g = a x b over the wedge basis W = ``w`` of v, so each sum
    is g^H H g with H = conj(W) diag(E^p) W^T, formed once per row: the
    (count, samples) components of g and six products per sum instead of
    C(n,2) minors.

    Radius in units of u = 2^-53 and Q = sum_{i<j} E_ij^p rho_i rho_j, with
    rho_i = sum_b |v_bi|^2 (first-order bounds, as ``metric._minor_sum_radius``;
    |f_a| = 1 up to rounding).  With T = F v exact, |T_ai|^2 <= rho_i and
    sum_c |W_cij|^2 <= rho_i rho_j, so every exact sum is at most Q.  The
    judge's product errs by 6u sum_b |F_ab||v_bi| per entry, which moves a
    sum's square root (a weighted norm of the wedge) by 24u sqrt(Q), so the
    sum by 48u Q; its ``_minor_sums`` add (2 C(n,2) + 22)u a^T W b, with
    a^T W b <= 2Q.  The screen's minors of W and components of g (4u per
    entry) and its six-term form (11u) cost 12u Q each, and H's sums
    (2 C(n,2) + 4)u Q.  Doubling the (6 C(n,2) + 132)u Q covers second-order
    terms and a computed Q below the exact one.  Fewer than 128 n^2 roundings
    per sum can underflow, each by 2^-1075 times factors below
    4 (1 + sum E^p); the absolute term is over twice that, and it is infinite
    (so the sample goes to the judge) wherever a judge's sum can overflow.
    """
    n, k = v.shape[-1], wts.shape[-1]
    h = np.matmul(np.conj(w) * wts[:, None, :], w.swapaxes(-1, -2))[:, :, :, None]
    rho = _sq(v).sum(axis=-2)[:, _pair_gather(n)]
    q = (wts * rho[:, :k] * rho[:, k:]).sum(axis=-1)
    radius = 12 * (k + 22) * 2.0**-53 * q + np.ldexp(float(n * n), -1065) * (1.0 + 8.0 * wts.sum(axis=-1))
    f = frames.transpose(2, 3, 0, 1)  # f[a, b]: component b of row a of every sample's frame
    sums = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        g = [f[a, c] * f[b, d] - f[a, d] * f[b, c] for c, d in ((1, 2), (2, 0), (0, 1))]
        s = sum(h[:, c, c].real * _sq(g[c]) for c in range(3))
        sums.append(s + 2.0 * sum((np.conj(g[c]) * h[:, c, d] * g[d]).real for c, d in ((0, 1), (0, 2), (1, 2))))
    s, r = np.stack(sums, axis=-1), radius[:, None, None]
    return s - r, s + r


def _reduction_rows(wts: np.ndarray, p: float, x, y, z, draws: np.ndarray, tol: float):
    """Reduction kernel over pair weights E_ij^p (count, n(n-1)/2), states (count, n) and subspace draws.

    The first three columns of a QR factorization of (x, y, z) span a 3-space
    V containing the inputs, also when they are dependent.  Each subspace
    sample is the orthonormalized columns of its complex (3, 3) draw; one
    batched Gram-Schmidt makes every frame of the call.  Its frames differ
    from a QR's Q only by a phase per column, which no d_p sees.  Returns the
    ascending mus (count, 3), the Hodge and mu residuals, the normalized
    spectral margin and whether every subspace sample kept the triangle
    inequality within ``tol``; a sample whose draw is degenerate (its frame
    is flagged by the Gram-Schmidt) counts as failed.  The frames are built
    in the memory of ``draws``, which the call overwrites.

    The samples are screened in V: ``_subspace_sum_bounds`` and
    ``_triangle_bounds`` bound each sample's normalized defect, and the
    judge's decision slack >= -tol max(1, dmax) rounds that defect and the
    threshold by u each, so an interval that clears -tol by
    2u (|lo| + |hi| + |tol|) decides its sample.  The judge (one
    (rows, 48, 3) @ (rows, 3, n) product mapping the frames into C^n, and
    ``_triangle_rows`` per sample) runs only on rows with no sample decided
    to fail and some sample open (a non-finite end is open).
    """
    q, _ = np.linalg.qr(np.stack([x, y, z], axis=-1))
    v = q.swapaxes(-1, -2)
    w = _wedge_basis(v)
    mus, u, bs = _restricted_form_rows(wts, w)
    frame_wedges = _wedge_basis(_hodge_frame(u, v))
    hodge_residual = np.abs(frame_wedges - bs).max(axis=(-2, -1))
    got = np.sqrt(_row_sums(wts[:, None, :] * _sq(frame_wedges)))
    mu_residual = (np.abs(got - mus) / np.maximum(1.0, np.abs(mus))).max(axis=-1)

    vals = mus ** (2.0 / p)
    total = vals.sum(axis=-1)
    spectral_margin = (total - 2.0 * vals.max(axis=-1)) / np.maximum(1.0, total)

    # The frames overwrite the draws: frames[i, s, a] is column a of sample
    # s's complex draw, then the a-th vector of its orthonormal frame.
    count, samples = draws.shape[:2]
    parts = draws.copy()
    frames = draws.reshape(count, samples, 18).view(complex).reshape(count, samples, 3, 3)
    frames.real = parts[:, :, 0].swapaxes(-1, -2)
    frames.imag = parts[:, :, 1].swapaxes(-1, -2)
    del parts
    cols = frames.reshape(-1, 3, 3)
    *vectors, ok = _orthonormalize_triples(cols[:, 0], cols[:, 1], cols[:, 2])
    for a, g in enumerate(vectors):
        cols[:, a] = g
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite end is open: margin is inf or NaN
        lo, hi = _triangle_bounds(*_subspace_sum_bounds(wts, v, w, frames), p)
        margin = 2.0**-52 * (np.abs(lo) + np.abs(hi) + abs(tol))
        passes, fails = lo > -tol + margin, hi < -tol - margin
    fuzz_ok = ok.reshape(count, samples).all(axis=-1) & ~fails.any(axis=-1)
    rows = np.flatnonzero(fuzz_ok & ~passes.all(axis=-1))
    if rows.size:
        mapped = frames[rows].reshape(len(rows), samples * 3, 3) @ v[rows]
        for s in range(0, samples * 3, 3):
            slack, dmax, _ = _triangle_rows(wts[rows], p, mapped[:, s], mapped[:, s + 1], mapped[:, s + 2])
            fuzz_ok[rows] &= slack >= -tol * np.maximum(1.0, dmax)  # NaN fails
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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite distance fails the margin check below
        ce = Counterexample(
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
    if not ce.margin > 0:
        raise ValueError(f"E12={e12!r} at p={p!r} gives no violation in floating point (margin {ce.margin!r})")
    return ce
