"""Distance matrices and the metrics they induce on pure states.

A distance matrix E (symmetric, zero diagonal, positive off-diagonal entries
satisfying the triangle inequality) defines, for every exponent p > 0,

    d_p(x, y) = ( sum_{i<j} E_ij^p |x_i y_j - x_j y_i|^2 )^(1/p)

on unit vectors x, y.  This is a genuine metric exactly when p >= 2; the
evaluators below accept any p > 0 so that the failing regime can be probed.
The Hilbert-Schmidt distance sqrt(1 - |<x|y>|^2) is the special case p = 2
with all off-diagonal entries equal to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exterior import (
    ORTHO_INPUT_TOL,
    Bivector,
    _pair_of_vectors,
    _wedge_basis,
    gram_deviation,
    minors2,
    pair_indices,
)

__all__ = [
    "DistanceMatrix",
    "DistanceMatrixError",
    "Violation",
    "ValidationResult",
    "validate_distance_matrix",
    "shortest_path_closure",
    "DpMetric",
    "EigenTriple",
    "d_hs",
    "d_p",
    "d2",
    "dp_from_weights",
    "pair_weights",
    "spectral_condition_n3",
    "embed",
    "restricted_form_eigen",
    "apply_pair_weights",
]

TRIANGLE_SLACK = 1e-12
MAX_WITNESSES = 100


@dataclass(frozen=True)
class Violation:
    kind: str
    indices: tuple[int, ...]
    detail: str


class DistanceMatrixError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.detail for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations)-5} more)"
        super().__init__(f"not a distance matrix: {lines}{more}")


@dataclass(frozen=True)
class DistanceMatrix:
    """A validated distance matrix; use ``from_array`` to construct."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.ascontiguousarray(np.asarray(self.entries, dtype=float))
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_array(cls, m) -> "DistanceMatrix":
        result = validate_distance_matrix(m)
        if not result.ok:
            raise DistanceMatrixError(result.violations)
        return result.matrix


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: list[Violation] = field(default_factory=list)
    matrix: DistanceMatrix | None = None


def _raw_square_matrix(m) -> np.ndarray:
    a = np.asarray(m)
    if np.iscomplexobj(a):
        raise ValueError("matrix entries must be real")
    a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("distance matrices need size >= 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def validate_distance_matrix(m, *, triangle_tol: float = TRIANGLE_SLACK) -> ValidationResult:
    """Check the metric axioms entry-wise, collecting witnesses.

    Malformed input (non-square, non-real, NaN/Inf) raises ValueError; axiom
    failures are reported, capped at 100 witnesses per axiom.
    """
    a = _raw_square_matrix(m)
    n = a.shape[0]
    violations: list[Violation] = []

    bad = np.argwhere(a != a.T)
    for i, j in bad[:MAX_WITNESSES]:
        if i < j:
            violations.append(
                Violation(
                    "asymmetric",
                    (int(i), int(j)),
                    f"E[{i},{j}]={float(a[i,j])!r} != E[{j},{i}]={float(a[j,i])!r}",
                )
            )
    for i in np.nonzero(np.diag(a) != 0.0)[0][:MAX_WITNESSES]:
        violations.append(Violation("nonzero-diagonal", (int(i),), f"E[{i},{i}]={float(a[i,i])!r} != 0"))
    off = ~np.eye(n, dtype=bool)
    for i, j in np.argwhere(off & (a <= 0.0))[:MAX_WITNESSES]:
        if i < j or a[i, j] != a[j, i]:
            violations.append(
                Violation("nonpositive-offdiagonal", (int(i), int(j)), f"E[{i},{j}]={float(a[i,j])!r} <= 0")
            )

    # d(i,k) <= d(i,j) + d(j,k) for all j distinct from i, k
    defect = a[:, None, :] - a[:, :, None] - a.T[None, :, :]
    ii, jj, kk = np.ogrid[:n, :n, :n]
    distinct = (ii != jj) & (jj != kk) & (ii != kk)
    hits = np.argwhere(distinct & (defect > triangle_tol))
    seen = set()
    for i, j, k in hits:
        key = (min(i, k), int(j), max(i, k))
        if key in seen:
            continue
        seen.add(key)
        violations.append(
            Violation(
                "triangle",
                (int(i), int(j), int(k)),
                f"E[{i},{k}]={float(a[i,k])!r} > E[{i},{j}]+E[{j},{k}]={float(a[i,j]+a[j,k])!r}",
            )
        )
        if len(seen) >= MAX_WITNESSES:
            break

    if violations:
        return ValidationResult(False, violations, None)
    return ValidationResult(True, [], DistanceMatrix(a))


def shortest_path_closure(w) -> np.ndarray:
    """All-pairs shortest-path (Floyd-Warshall) repair of a weight matrix or a (..., n, n) stack."""
    d = np.array(w, dtype=float)
    n = d.shape[-1]
    for k in range(n):
        np.minimum(d, d[..., :, k, None] + d[..., None, k, :], out=d)
    return d


class EigenTriple(NamedTuple):
    """Square roots of the eigenvalues of the restricted pair-weight form, ascending."""

    mu1: float
    mu2: float
    mu3: float


@dataclass(frozen=True)
class DpMetric:
    """A distance matrix paired with the exponent p of its induced metric."""

    E: DistanceMatrix
    p: float

    def __post_init__(self):
        if not (self.p > 0):
            raise ValueError("exponent p must be positive")

    @property
    def metric_guaranteed(self) -> bool:
        return self.p >= 2


def d_hs(x, y) -> float:
    """Hilbert-Schmidt distance sqrt(1 - |<x|y>|^2) between unit vectors."""
    xv, yv = _pair_of_vectors(x, y)
    overlap = abs(np.vdot(xv, yv)) ** 2
    return float(np.sqrt(1.0 - min(max(overlap, 0.0), 1.0)))


def pair_weights(entries, power: float) -> np.ndarray:
    """Off-diagonal entries of a matrix or a (..., n, n) stack raised to ``power``, in lexicographic pair order."""
    a = np.asarray(entries, dtype=float)
    i, j = pair_indices(a.shape[-1])
    return a[..., i, j] ** power


def dp_from_weights(entries, p: float, x, y) -> float:
    """Evaluate the induced distance for a raw symmetric weight matrix.

    Only the upper triangle of ``entries`` is read; no triangle-inequality
    validation is performed, so invalid weight systems can be probed.
    """
    wts, xv, yv = _dp_inputs(entries, p, x, y)
    return float(_dp_rows(wts, p, xv[None], yv[None])[0])


def _dp_inputs(entries, p: float, x, y):
    """Input gates of the d_p evaluators; returns (pair weights E_ij^p, x, y)."""
    if not (p > 0):
        raise ValueError("exponent p must be positive")
    xv, yv = _pair_of_vectors(x, y)
    a = np.asarray(entries, dtype=float)
    if a.shape[0] != xv.size:
        raise ValueError(f"dimension mismatch: matrix is {a.shape[0]}, states are {xv.size}")
    return pair_weights(a, p), xv, yv


def _dp_rows(wts: np.ndarray, p: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d_p between the rows of x and y from pair weights E_ij^p: the one evaluator of d_p."""
    i, j = pair_indices(x.shape[-1])
    minors = minors2(x, y, i, j)  # bit-antisymmetric, so d is bit-symmetric
    s = (wts * (minors.real**2 + minors.imag**2)).sum(axis=-1)
    return np.maximum(s, 0.0) ** (1.0 / p)


def d_p(m: DpMetric, x, y) -> float:
    return dp_from_weights(m.E.entries, m.p, x, y)


def d2(e: DistanceMatrix, x, y) -> float:
    return dp_from_weights(e.entries, 2.0, x, y)


def spectral_condition_n3(lambda1: float, lambda2: float, lambda3: float) -> bool:
    """Whether twice the largest of three positive weights is at most their sum."""
    lams = (float(lambda1), float(lambda2), float(lambda3))
    if min(lams) <= 0:
        raise ValueError("weights must be positive")
    return 2.0 * max(lams) <= sum(lams)


def embed(rho: DistanceMatrix, p: float):
    """Isometric embedding of a finite metric space onto canonical basis states.

    Point i is mapped to e_i; the induced distance between e_i and e_j is
    exactly the (i, j) entry of the metric, which is verified to 1e-12
    relative before returning.
    """
    if p < 2:
        raise ValueError("embedding requires p >= 2; smaller p does not give a metric")
    n = rho.n
    states = [np.eye(n, dtype=complex)[i] for i in range(n)]
    metric = DpMetric(rho, p)
    for i in range(n):
        for j in range(i + 1, n):
            got = d_p(metric, states[i], states[j])
            if abs(got - rho.entries[i, j]) > 1e-12 * rho.entries[i, j]:
                raise ArithmeticError(
                    f"embedding round-trip failed at ({i},{j}): {got!r} vs {rho.entries[i,j]!r}"
                )
    return states, metric


def apply_pair_weights(entries, power: float, b: Bivector) -> Bivector:
    """Multiply each bivector coefficient by the matching entry power.

    This is the pair-diagonal operator action: the basis wedge e_i ^ e_j is
    scaled by E_ij^power, so no large matrix is ever materialized.
    """
    w = pair_weights(entries, power)
    if w.size != b.coeffs.size:
        raise ValueError("weight matrix does not match the bivector dimension")
    return Bivector(b.n, w * b.coeffs)


def restricted_form_eigen(e, p: float, v_basis, *, tol: float = ORTHO_INPUT_TOL):
    """Diagonalize the pair-weight form restricted to the wedge square of a 3-space.

    ``v_basis`` must be three orthonormal vectors spanning V.  The Hermitian
    3x3 matrix H_ab = <W_a | E^p W_b> over the wedge basis
    {v2^v3, v3^v1, v1^v2} is diagonalized with ``numpy.linalg.eigh``;
    returns (EigenTriple of sqrt-eigenvalues in ascending order, the matching
    orthonormal eigen-bivectors).
    """
    entries = e.entries if isinstance(e, DistanceMatrix) else np.asarray(e, dtype=float)
    vs = [np.asarray(v, dtype=complex) for v in v_basis]
    if len(vs) != 3:
        raise ValueError("restricted_form_eigen needs exactly three basis vectors")
    if gram_deviation(vs) > tol:
        raise ValueError("basis vectors are not orthonormal")
    n = vs[0].size
    if entries.shape[0] != n:
        raise ValueError(f"dimension mismatch: matrix is {entries.shape[0]}, basis is {n}")
    mus, _, bs = _restricted_form_rows(pair_weights(entries, p), np.stack(vs))
    return EigenTriple(*(float(m) for m in mus)), [Bivector(n, c) for c in bs]


def _restricted_form_rows(wts: np.ndarray, v: np.ndarray):
    """Restricted form over the wedge basis W of the orthonormal rows v (..., 3, n).

    With pair weights E_ij^p in ``wts`` (..., n(n-1)/2), returns the ascending
    sqrt-eigenvalues (..., 3), the unitary U (..., 3, 3) whose rows expand the
    eigen-bivectors over W, and the eigen-bivectors U W (..., 3, n(n-1)/2).
    """
    w = _wedge_basis(v)
    h = np.conj(w) @ (wts[..., None, :] * w).swapaxes(-1, -2)
    evals, vecs = np.linalg.eigh(h)
    u = vecs.swapaxes(-1, -2)
    return np.sqrt(np.clip(evals, 0.0, None)), u, u @ w
