"""Distance matrices and the metrics they induce on pure states.

A distance matrix E (symmetric, zero diagonal, positive off-diagonal entries
satisfying the triangle inequality) defines, for every exponent p > 0,

    d_p(x, y) = ( sum_{i<j} E_ij^p |x_i y_j - x_j y_i|^2 )^(1/p)

on unit vectors x, y.  This is a genuine metric exactly when p >= 2; the
evaluators below accept any finite p > 0 so that the failing regime can be
probed.
The Hilbert-Schmidt distance sqrt(1 - |<x|y>|^2) is the special case p = 2
with all off-diagonal entries equal to 1.

Each object has one evaluator over stacks of rows: ``_minor_sums`` for the
weighted squared-minor sum inside d_p (``_dp_rows`` takes its p-th root; the
``checks`` kernels and the ``optimize`` minimizer use it too), and
``_restricted_form_rows`` for the pair-weight form restricted to the wedge
square of a 3-space.  The public evaluators gate their inputs and run them on
one row; the ``checks`` kernels run them on whole chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exterior import _row_sums, _vectors, _wedge_basis, minors2, pair_indices

__all__ = [
    "DistanceMatrix",
    "DistanceMatrixError",
    "Violation",
    "ValidationResult",
    "validate_distance_matrix",
    "shortest_path_closure",
    "DpMetric",
    "d_hs",
    "d_p",
    "d2",
    "dp_from_weights",
    "pair_weights",
    "spectral_condition_n3",
    "embed",
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


def _real_entries(m) -> np.ndarray:
    """``m`` as a float array; complex entries raise instead of losing their imaginary part."""
    a = np.asarray(m)
    if np.iscomplexobj(a):
        raise ValueError("matrix entries must be real")
    return a.astype(float)


def _raw_square_matrix(m) -> np.ndarray:
    a = _real_entries(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("distance matrices need size >= 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def validate_distance_matrix(m) -> ValidationResult:
    """Check the metric axioms entry-wise, collecting witnesses.

    A triangle counts as violated when it fails by more than ``TRIANGLE_SLACK``.
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

    seen = set()
    for i, j, k in _triangle_hits(a):
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


# Elements a blocked computation holds per step: a block of the triangle scan
# below, and a row slice (``_in_slices``) of a campaign kernel (``fuzz``) or
# of a Euclidean distance-matrix draw (``sampling``).  On campaigns at n = 16
# to 64, 2^15 to 2^17 ran within 7% of each other with one thread; 2^14 took
# 18% and 2^13 38% longer, and whole 512-trial chunks fault their
# temporaries in afresh on every call.
_BUDGET = 1 << 15


def _slice_rows(width: int) -> int:
    """Rows per step of a blocked computation holding ``width`` elements per row."""
    return max(1, _BUDGET // width)


def _in_slices(kernel, width: int, *rows):
    """Run ``kernel`` over consecutive row slices of ``rows`` and join its outputs.

    ``width`` is the kernel's elements per row; every output has rows on axis 0.
    """
    step = _slice_rows(width)
    parts = [kernel(*(r[s : s + step] for r in rows)) for s in range(0, len(rows[0]), step)]
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(col) for col in zip(*parts))
    return np.concatenate(parts)


def _triangle_hits(a: np.ndarray):
    """Distinct (i, j, k) with E[i,k] > E[i,j] + E[j,k] + TRIANGLE_SLACK, in lexicographic order.

    The n^3 defect cube is built over blocks of i, so memory stays
    O(max(n^2, _BUDGET)); the scan stops when the caller stops iterating.
    """
    n = a.shape[0]
    step = _slice_rows(n * n)
    jj, kk = np.ogrid[:n, :n]
    for start in range(0, n, step):
        rows = a[start : start + step]
        ii = np.arange(start, start + len(rows))[:, None, None]
        # d(i,k) <= d(i,j) + d(j,k) for all j distinct from i, k
        defect = rows[:, None, :] - rows[:, :, None] - a.T[None, :, :]
        distinct = (ii != jj) & (jj != kk) & (ii != kk)
        for i, j, k in np.argwhere(distinct & (defect > TRIANGLE_SLACK)):
            yield i + start, j, k


def shortest_path_closure(w) -> np.ndarray:
    """All-pairs shortest-path (Floyd-Warshall) repair of a weight matrix or a (..., n, n) stack."""
    d = np.array(w, dtype=float)
    n = d.shape[-1]
    for k in range(n):
        np.minimum(d, d[..., :, k, None] + d[..., None, k, :], out=d)
    return d


@dataclass(frozen=True)
class DpMetric:
    """A distance matrix paired with the exponent p of its induced metric."""

    E: DistanceMatrix
    p: float

    def __post_init__(self):
        _check_exponent(self.p)

    @property
    def metric_guaranteed(self) -> bool:
        return self.p >= 2


def _check_exponent(p: float) -> None:
    if not (0 < p < np.inf):
        raise ValueError(f"exponent p must be positive and finite, got {p!r}")


def d_hs(x, y) -> float:
    """Hilbert-Schmidt distance sqrt(1 - |<x|y>|^2) between unit vectors."""
    xv, yv = _vectors(x, y)
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


def _dp_inputs(entries, p: float, *states):
    """Input gates of the d_p evaluators; returns (pair weights E_ij^p, *states as vectors)."""
    _check_exponent(p)
    vs = _vectors(*states)
    a = _real_entries(entries)
    if a.shape != (vs[0].size,) * 2:
        raise ValueError(f"dimension mismatch: matrix is {a.shape}, states are {vs[0].size}")
    return (pair_weights(a, p), *vs)


def _minor_sums(wts: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(sums, minors): the pair-weighted squared 2x2-minor sums of the rows of x and y, and their minors."""
    minors = minors2(x, y)  # bit-antisymmetric, so the sums are bit-symmetric
    return _row_sums(wts * (minors.real**2 + minors.imag**2)), minors


def _dp_rows(wts: np.ndarray, p: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d_p between the rows of x and y from pair weights E_ij^p: the one evaluator of d_p."""
    return np.maximum(_minor_sums(wts, x, y)[0], 0.0) ** (1.0 / p)


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


def _restricted_form_rows(wts: np.ndarray, v: np.ndarray):
    """Restricted form over the wedge basis W of the orthonormal rows v (..., 3, n).

    With pair weights E_ij^p in ``wts`` (..., n(n-1)/2), returns the ascending
    sqrt-eigenvalues (..., 3), the unitary U (..., 3, 3) whose rows expand the
    eigen-bivectors over W, and the eigen-bivectors U W (..., 3, n(n-1)/2).

    The form is H = B^H B with B = diag(sqrt(E^p)) W^T.  The singular values
    of B are the sqrt-eigenvalues of H, and its right singular vectors are
    their eigenvectors.  Taking them from B, without forming H, keeps small
    sqrt-eigenvalues accurate when the weights span many orders of magnitude.
    """
    w = _wedge_basis(v)
    b = np.sqrt(wts)[..., :, None] * w.swapaxes(-1, -2)
    _, svals, vh = np.linalg.svd(b, full_matrices=False)
    u = np.conj(vh[..., ::-1, :])
    # A contiguous copy: numpy raises a lone reversed row to a power with
    # another routine than a stack of them, which can differ in the last bit.
    return np.ascontiguousarray(svals[..., ::-1]), u, u @ w
