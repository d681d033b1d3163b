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
from functools import lru_cache
from itertools import islice

import numpy as np

from .exterior import _row_sums, _vectors, minors2, pair_indices, pair_positions

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

    The axioms form one table: each row holds a kind, its hits in
    lexicographic order and the message of a hit.  Pairs are reported as
    (i, j) with i < j, and a nonpositive entry below the diagonal as well
    when it differs from its mirror; each row is capped at ``MAX_WITNESSES``
    after that filter.  A triangle counts as violated when it fails by more
    than ``TRIANGLE_SLACK`` (``_triangle_hits``).  Malformed input
    (non-square, non-real, NaN/Inf) raises ValueError.
    """
    a = _raw_square_matrix(m)
    asymmetric, upper = a != a.T, np.triu(np.ones(a.shape, dtype=bool), 1)
    axioms = (
        ("asymmetric", np.argwhere(upper & asymmetric),
         lambda i, j: f"E[{i},{j}]={float(a[i, j])!r} != E[{j},{i}]={float(a[j, i])!r}"),
        ("nonzero-diagonal", np.argwhere(np.diag(a) != 0.0), lambda i: f"E[{i},{i}]={float(a[i, i])!r} != 0"),
        # (upper | asymmetric) holds no diagonal entry: finite entries equal themselves
        ("nonpositive-offdiagonal", np.argwhere((a <= 0.0) & (upper | asymmetric)),
         lambda i, j: f"E[{i},{j}]={float(a[i, j])!r} <= 0"),
        ("triangle", _triangle_hits(a),
         lambda i, j, k: f"E[{i},{k}]={float(a[i, k])!r} > E[{i},{j}]+E[{j},{k}]={float(a[i, j] + a[j, k])!r}"),
    )
    violations = [
        Violation(kind, ix, detail(*ix))
        for kind, hits, detail in axioms
        for ix in (tuple(map(int, hit)) for hit in islice(hits, MAX_WITNESSES))
    ]
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
    Without rows, the kernel runs once on the empty rows.
    """
    step = _slice_rows(width)
    parts = [kernel(*(r[s : s + step] for r in rows)) for s in range(0, max(len(rows[0]), 1), step)]
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(col) for col in zip(*parts))
    return np.concatenate(parts)


def _triangle_hits(a: np.ndarray):
    """(i, j, k), i < k and j apart from both, with E[i,k] - E[i,j] - E[j,k] > TRIANGLE_SLACK, lexicographically.

    Each unordered triangle is tested once, by the expression its witness
    message prints.  The scan reads a copy with a zero diagonal, so a triple
    with j = i or j = k has defect exactly 0 (entries are finite) and the
    diagonal is left to its own axiom.  The defect cube is built over blocks
    of i, each covering only the columns after the block's first row, so
    memory stays O(max(n^2, _BUDGET)); the scan stops when the caller stops
    iterating.
    """
    n, z = a.shape[0], a.copy()
    np.fill_diagonal(z, 0.0)
    step = _slice_rows(n * n)
    for start in range(0, n - 1, step):
        rows = z[start : start + step]
        hits = np.argwhere(rows[:, None, start + 1 :] - rows[:, :, None] - z[:, start + 1 :] > TRIANGLE_SLACK)
        for b, j, c in hits[hits[:, 0] <= hits[:, 2]]:  # k = start + 1 + c > i = start + b
            yield start + b, j, start + 1 + c


def shortest_path_closure(w) -> np.ndarray:
    """All-pairs shortest-path (Floyd-Warshall) repair of a weight matrix or a (..., n, n) stack.

    Weights must be symmetric with a zero diagonal and entries >= 0 or +inf
    (an unreachable pair), else ValueError; ``_pair_closure`` closes them.
    """
    d = _real_entries(w)
    if d.ndim < 2 or d.shape[-1] != d.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {d.shape}")
    if not d.min(initial=0.0) >= 0.0:  # a NaN minimum fails too
        raise ValueError("weights must be nonnegative or +inf, not negative or NaN")
    if np.not_equal(d, d.swapaxes(-1, -2)).any():
        raise ValueError("weights must be symmetric")
    if d.diagonal(0, -2, -1).any():
        raise ValueError("weights must have a zero diagonal")
    n = d.shape[-1]  # below three points the weights are already closed
    return d if n < 3 else _symmetric_from_pairs(_pair_closure(d[(..., *pair_indices(n))], n), n)


def _symmetric_from_pairs(w: np.ndarray, n: int) -> np.ndarray:
    """Symmetric zero-diagonal n x n matrices (C-contiguous) from values over lexicographic pairs (last axis)."""
    # one take; the -1 of pair_positions' diagonal picks the zero appended to the pairs
    return np.concatenate([w, np.zeros(w.shape[:-1] + (1,))], axis=-1).take(pair_positions(n), axis=-1)


@lru_cache(maxsize=None)
def _diagonal_slots(n: int):
    """(rows, pairs, slots) of ``_pair_closure``: rows[k, t] is entry (k, t mod n)'s slot, pairs[s] slot s's pair."""
    m, i = n // 2, np.arange(n)
    d = (i - i[:, None]) % n  # entry (i, j) lies on wrapped diagonal (j - i) mod n
    full = np.where(d == 0, m * n, np.where(d <= m, (d - 1) * n + i[:, None], (n - d - 1) * n + i))
    return np.tile(full, 2), pair_positions(n)[i, (i + np.arange(1, m + 1)[:, None]) % n].ravel(), full[pair_indices(n)]


def _pair_closure(w: np.ndarray, n: int) -> np.ndarray:
    """Floyd-Warshall closure, in place, of symmetric zero-diagonal matrices' C-contiguous pair values (..., C(n,2)).

    Blocks of matrices are stored by wrapped diagonals, the block innermost:
    slot (d-1) n + i, d = 1..n//2, holds entry (i, (i+d) mod n), so a pair
    has one slot (two equal ones on d = n/2); slot (n//2) n holds a zero.
    Step k gathers row k twice into r, so r[i] + r[i+d] is entry (i, k) +
    entry (k, i+d): one gather, one add of r to a strided view of itself and
    one minimum over n^2/2 entries, with a scalar loop's operands (+ commutes,
    d_kk = 0 adds exactly), so the bits match any layout or block.  A block's
    slots and temporary hold 4 _BUDGET elements (512 draws at n = 32: 15 ms, 17-20 ms with 2).
    """
    (rows, pairs, slots), m, step = _diagonal_slots(n), n // 2, _slice_rows(n * n // 4)
    flat = w.reshape(-1, w.shape[-1])
    for s in range(0, len(flat), step):
        block = flat[s : s + step]
        c, r, t = np.empty((m * n + 1, len(block))), np.empty((2 * n, len(block))), np.empty((m, n, len(block)))
        block.T.take(pairs, axis=0, out=c[:-1], mode="clip")  # "clip": valid indices, and out is not buffered
        c[-1], cv, u = 0.0, c[:-1].reshape(t.shape), r[None, :n]
        v = np.ndarray(t.shape, float, r, r.strides[0], (r.strides[0], *r.strides))  # v[d-1, i] = r[i+d]
        for k in range(n):
            c.take(rows[k], axis=0, out=r, mode="clip")
            np.add(u, v, out=t)
            np.minimum(cv, t, out=cv)
        block[...] = c[slots].T  # slots[q]: a slot of pair q
    return w


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


def _minor_sum_radius(n: int) -> float:
    """Half-width, per unit of a^T W b, of the interval ``_minor_sum_bounds`` puts around a minor sum.

    First-order rounding bounds in units of u = 2^-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., Lemma 3.1, (3.11) and §3.6):
    with s_ij = |x_i||y_j| + |x_j||y_i|, s_ij^2 <= 2 (a_i b_j + a_j b_i), so
    the terms W_ij s_ij^2 add up to at most 2 a^T W b.  ``_minor_sums`` errs
    by at most 11 u W_ij s_ij^2 per pair (two complex products, a
    difference, two squares, a sum and a weight product) and by
    gamma_{C(n,2)-1} times its terms in the sum: (2 C(n,2) + 22) u a^T W b.
    The screen errs by gamma_2 in a and b, sqrt(2) gamma_2 in c, gamma_n in
    each of its two length-n products and 2 u in its two differences, where
    |c|^T W |c| <= a^T W b: (4n + 16) u a^T W b.  Its E^p and the kernel's
    are two powers, each within 4 ulps: 32 u a^T W b.  Doubling the sum
    covers the second-order terms and a computed a^T W b below the exact one.
    """
    return 2.0 * (n * (n - 1) + 4 * n + 70) * 2.0**-53


def _minor_sum_bounds(w: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Intervals (lo, hi) around the minor sums ``_minor_sums`` computes from the pair weights of ``w``.

    ``w`` holds symmetric zero-diagonal weights E^p, (n, n) for every row or
    (count, n, n) per row; x and y are (count, k, n), k pairs of states per
    row.  With a = |x|^2, b = |y|^2 and c = x conj(y) elementwise,

        sum_{i<j} W_ij |x_i y_j - x_j y_i|^2 = a^T W b - Re(c^H W c),

    so each sum takes two length-n quadratic forms, one BLAS product of the
    (a, Re c, Im c) rows by W, instead of C(n,2) gathered complex minors.
    The interval is that value widened by ``_minor_sum_radius(n)`` a^T W b
    and by an underflow term.  Products that underflow and subnormal weights
    cost the two computations at most 60 n^2 (1 + max W) 2^-1075, against
    which relative bounds say nothing; the term is twice that.  A non-finite
    weight makes both ends non-finite.
    """
    k, n = x.shape[1:]
    a = x.real**2 + x.imag**2
    c = x * np.conj(y)
    v = np.concatenate([a, c.real, c.imag], axis=1)
    g = (v.reshape(-1, n) @ w if w.ndim == 2 else v @ w).reshape(v.shape)
    awb = np.einsum("rkn,rkn->rk", g[:, :k], y.real**2 + y.imag**2)
    cwc = np.einsum("rkn,rkn->rk", g[:, k:], v[:, k:])
    mid = awb - cwc[:, :k] - cwc[:, k:]
    under = np.ldexp(float(n * n), -1068) * (1.0 + np.max(w, axis=(-2, -1)))
    radius = _minor_sum_radius(n) * awb + np.reshape(under, (-1, 1))
    return mid - radius, mid + radius


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
    exactly the (i, j) entry of the metric, verified to 1e-12 relative in one
    pass: the only nonzero minor of e_i, e_j is 1, so d_p(e_i, e_j) is
    (E_ij^p)^(1/p) bit for bit while every E^p is finite.  NaN or inf fails.
    """
    if p < 2:
        raise ValueError("embedding requires p >= 2; smaller p does not give a metric")
    metric = DpMetric(rho, p)
    want = pair_weights(rho.entries, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite round trip fails below
        got = pair_weights(rho.entries, p) ** (1.0 / p)
        bad = np.flatnonzero(~(np.abs(got - want) <= 1e-12 * want))
    if bad.size:
        i, j = pair_indices(rho.n)
        k = bad[0]
        raise ArithmeticError(f"embedding round-trip failed at ({i[k]},{j[k]}): {got[k]} vs {want[k]}")
    return list(np.eye(rho.n, dtype=complex)), metric


def _restricted_form_rows(wts: np.ndarray, w: np.ndarray):
    """Restricted form over the wedge basis W (..., 3, n(n-1)/2) of orthonormal rows (``exterior._wedge_basis``).

    With pair weights E_ij^p in ``wts`` (..., n(n-1)/2), returns the ascending
    sqrt-eigenvalues (..., 3), the unitary U (..., 3, 3) whose rows expand the
    eigen-bivectors over W, and the eigen-bivectors U W (..., 3, n(n-1)/2).

    The form is H = B^H B with B = diag(sqrt(E^p)) W^T.  The singular values
    of B are the sqrt-eigenvalues of H, and its right singular vectors are
    their eigenvectors.  Taking them from B, without forming H, keeps small
    sqrt-eigenvalues accurate when the weights span many orders of magnitude.
    The rows of B are taken in descending weight order (a stable sort per
    row): a row permutation keeps the singular values and right singular
    vectors, and Householder reductions of a row-graded matrix are accurate
    when its largest rows come first (Cox & Higham, BIT 38, 1998).
    """
    order = np.argsort(-wts, axis=-1, kind="stable")
    b = np.take_along_axis(np.sqrt(wts), order, axis=-1)[..., :, None] * np.take_along_axis(
        w, order[..., None, :], axis=-1
    ).swapaxes(-1, -2)
    _, svals, vh = np.linalg.svd(b, full_matrices=False)
    u = np.conj(vh[..., ::-1, :])
    # A contiguous copy: numpy raises a lone reversed row to a power with
    # another routine than a stack of them, which can differ in the last bit.
    return np.ascontiguousarray(svals[..., ::-1]), u, u @ w
