"""Complex exterior-algebra primitives.

Vectors are 1-D complex numpy arrays.  Bivectors and trivectors store one
complex coefficient per lexicographically ordered index pair / triple; the
coefficient attached to a wedge of vectors is the corresponding 2x2 or 3x3
minor of the stacked component matrix.  With this convention the squared
coefficient sums obey the Lagrange identity and, for orthonormal families,
the Cauchy-Binet normalization (the squared minors sum to 1).

``minors2`` (behind ``wedge2`` and ``cross3``), ``_minors3`` (behind
``wedge3``), ``_wedge_bv_coeffs`` (behind ``wedge_bv``) and the interior
product ``_interior_rows`` work over the last axis, so one input and a stack
of them share one formula.  ``_wedge_basis`` and ``_hodge_frame`` work over
stacks of 3-row bases only; a single basis is a stack of one.  The batched
kernels in ``checks``, ``metric`` and ``optimize`` call these directly.

Each row of a stacked result equals, bit for bit, the result for that row
alone, whatever the number of rows, so row slices of a stack give the bits
of the whole stack.  ``_interior_rows``, one matmul, is the exception for
n > 3; at n = 3 each of its outputs adds exactly two nonzero terms, so its
bits do not depend on the row count there either.  Two rules keep it so.
numpy may run ``a * tmp`` as ``tmp *= a`` when ``tmp`` is a large temporary,
and complex products are not bit-commutative under FMA contraction; so no
complex product here has a temporary on its right beside a named array on
its left.  And every sum over the last axis goes through
``_row_sums``: a fancy-index gather along the last axis comes back in
Fortran order, which keeps the elementwise work in one contiguous loop, but
numpy then sums a stack's rows one term at a time and a lone row pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "Bivector",
    "Trivector",
    "pair_indices",
    "pair_positions",
    "triple_indices",
    "inner",
    "minors2",
    "wedge2",
    "wedge3",
    "wedge_bv",
    "cross3",
    "gram_deviation",
]

# Gate for orthonormality of *inputs*; outputs of the constructions below are
# tested against the tighter 1e-10 budget.
ORTHO_INPUT_TOL = 1e-8


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) over pairs i < j in lexicographic order."""
    i, j = np.triu_indices(n, k=1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


@lru_cache(maxsize=None)
def pair_positions(n: int) -> np.ndarray:
    """n x n lookup table mapping an unordered pair to its flat coefficient slot."""
    pos = np.full((n, n), -1, dtype=np.intp)
    i, j = pair_indices(n)
    pos[i, j] = np.arange(i.size)
    pos[j, i] = pos[i, j]
    pos.setflags(write=False)
    return pos


@lru_cache(maxsize=None)
def triple_indices(n: int):
    """Index arrays over triples i < j < k, plus the flat slots of their pairs.

    Returns (ti, tj, tk, p_ij, p_ik, p_jk) where p_ab indexes into the
    lexicographic pair order of ``pair_indices(n)``.
    """
    combos = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    ti, tj, tk = combos[:, 0].copy(), combos[:, 1].copy(), combos[:, 2].copy()
    pos = pair_positions(n)
    out = (ti, tj, tk, pos[ti, tj], pos[ti, tk], pos[tj, tk])
    for arr in out:
        arr.setflags(write=False)
    return out


def _vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _vectors(*vs) -> tuple[np.ndarray, ...]:
    """The arguments as 1-D complex vectors of one dimension."""
    out = tuple(map(_vector, vs))
    if len({v.size for v in out}) > 1:
        raise ValueError("dimension mismatch: " + " vs ".join(str(v.size) for v in out))
    return out


@dataclass(frozen=True)
class _Multivector:
    """Antisymmetric coefficients over the lexicographic index tuples of one grade."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        want = comb(self.n, self._grade)
        if c.shape != (want,):
            raise ValueError(
                f"{type(self).__name__.lower()} in dimension {self.n} needs {want} "
                f"coefficients, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def norm_sq(self) -> float:
        return float(np.sum(self.coeffs.real**2 + self.coeffs.imag**2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))


class Bivector(_Multivector):
    """Antisymmetric rank-2 coefficients over pairs i < j (Plucker order 2)."""

    _grade = 2


class Trivector(_Multivector):
    """Antisymmetric rank-3 coefficients over triples i < j < k."""

    _grade = 3


def inner(x, y) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    xv, yv = _vectors(x, y)
    return complex(np.vdot(xv, yv))


@lru_cache(maxsize=None)
def _pair_gather(n: int) -> np.ndarray:
    """The index arrays (i, j) of ``pair_indices(n)``, concatenated."""
    ij = np.concatenate(pair_indices(n))
    ij.setflags(write=False)
    return ij


def minors2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2x2 minors x_i y_j - x_j y_i over the pairs i < j of the last axis, in ``pair_indices`` order.

    Written as x_i y_j - y_i x_j so that swapping x and y swaps the two
    products operand for operand: the result negates *bitwise* (complex a*b is
    not bit-commutative under FMA contraction, but IEEE a - b is exactly
    -(b - a)); in particular minors2(x, x) is exactly zero.  Each operand
    is gathered once: every fancy-index gather releases the GIL, and on small
    arrays each release hands it to the other campaign thread.
    """
    ij = _pair_gather(x.shape[-1])
    k = ij.size // 2
    xg, yg = x[..., ij], y[..., ij]
    return xg[..., :k] * yg[..., k:] - yg[..., :k] * xg[..., k:]


def wedge2(x, y) -> Bivector:
    """Wedge of two vectors: coefficients are the 2x2 minors x_i y_j - x_j y_i."""
    xv, yv = _vectors(x, y)
    if xv.size < 2:
        raise ValueError("wedge2 needs dimension >= 2")
    return Bivector(xv.size, minors2(xv, yv))


def wedge3(x, y, z) -> Trivector:
    """Wedge of three vectors: coefficients are the 3x3 minors of the stacked rows."""
    xv, yv, zv = _vectors(x, y, z)
    if xv.size < 3:
        raise ValueError("wedge3 needs dimension >= 3")
    return Trivector(xv.size, _minors3(xv, yv, zv))


def _minors3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """3x3 minors of the rows (x, y, z) over the triples of the last axis.

    Laplace expansion along x: the minors of x ^ y ^ z are the coefficients
    of (y ^ z) ^ x, so the 2x2 minors are formed once per pair, not per triple.
    """
    return _wedge_bv_coeffs(minors2(y, z), x)


def wedge_bv(b: Bivector, v) -> Trivector:
    """Wedge of a (possibly non-simple) bivector with a vector.

    Coefficient on (i, j, k):  B_ij v_k - B_ik v_j + B_jk v_i.
    """
    return Trivector(b.n, _wedge_bv_coeffs(b.coeffs, _bivector_and_vector(b, v)))


def _bivector_and_vector(b: Bivector, v) -> np.ndarray:
    """Gate of the (bivector, vector) wedge: a 1-D vector of the bivector's dimension n >= 3."""
    vv = _vector(v)
    if vv.size != b.n:
        raise ValueError(f"dimension mismatch: {b.n} vs {vv.size}")
    if b.n < 3:
        raise ValueError("a bivector-vector wedge needs dimension >= 3")
    return vv


def _wedge_bv_coeffs(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Trivector coefficients of B ^ v from bivector coefficients c over the last axis."""
    ti, tj, tk, pij, pik, pjk = triple_indices(v.shape[-1])
    return c[..., pij] * v[..., tk] - c[..., pik] * v[..., tj] + c[..., pjk] * v[..., ti]


def cross3(x, y) -> np.ndarray:
    """Bilinear cross product on C^3 (no conjugation): the minors (m12, -m02, m01) of x ^ y."""
    xv, yv = _vectors(x, y)
    if xv.size != 3:
        raise ValueError("cross3 is defined on C^3 only")
    m01, m02, m12 = minors2(xv, yv)
    return np.array([m12, -m02, m01])


@lru_cache(maxsize=None)
def _interior_terms(n: int):
    """Slots of w and of B in each term of ``_interior_rows``, and the matrix adding the terms up."""
    i, j = pair_indices(n)
    e = np.eye(n, dtype=complex)
    plan = (np.concatenate([j, i]), np.tile(np.arange(i.size), 2), np.concatenate([-e[i], e[j]]))
    for a in plan:
        a.setflags(write=False)
    return plan


def _interior_rows(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interior products u_k = sum_i conj(w_i) B_ik (B_ki = -B_ik) of the rows of w (..., n) and b (..., C(n,2)).

    The terms conj(w_j) B_ij, then conj(w_i) B_ij, over the pairs i < j are
    gathered once, and one (2 C(n,2), n) matmul adds them to -u_i, then to u_j.
    """
    w_slots, b_slots, scatter = _interior_terms(w.shape[-1])
    terms = np.conj(w[..., w_slots]) * b[..., b_slots]
    return (terms.reshape(-1, terms.shape[-1]) @ scatter).reshape(w.shape)


def gram_deviation(vectors) -> float:
    """Max absolute deviation of the Gram matrix from the identity."""
    v = np.stack([_vector(x) for x in vectors])
    return float(np.abs(np.conj(v) @ v.T - np.eye(len(v))).max())


def _row_sums(t: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right whatever the row count.

    numpy adds along the slowest axis in memory one term at a time, but
    along a contiguous axis pairwise.  So the sum runs over a width-major
    copy (no copy for the Fortran-ordered stacks that fancy-index gathers
    leave), and a sum of a single row is taken over the row doubled, so
    that it, too, runs along a slow axis.  A sum over no terms is zero.
    """
    if t.shape[-1] == 0:
        return np.zeros(t.shape[:-1], dtype=t.dtype)
    tt = t.T
    if tt[0].size == 1:
        return np.stack([tt, tt], axis=-1).sum(axis=0)[..., 0].T
    return np.ascontiguousarray(tt).sum(axis=0).T


def _wedge_basis(v: np.ndarray) -> np.ndarray:
    """Wedge basis (v2^v3, v3^v1, v1^v2) of the rows (..., 3, n), stacked on axis -2."""
    return minors2(v[..., [1, 2, 0], :], v[..., [2, 0, 1], :])


def _hodge_frame(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked Hodge frames c conj(U) V, c = sqrt(det U), for unitary u (..., 3, 3) and rows v (..., 3, n).

    The wedges (f2^f3, f3^f1, f1^f2) of a frame A V expand over the wedge basis
    of V with the cofactor matrix det(A) A^-T; for A = c conj(U) and
    |det U| = 1 this is c^3 conj(det U) (c conj(U))^-T = U.
    """
    frame = np.conj(u) @ v
    return np.multiply(np.sqrt(np.linalg.det(u))[..., None, None], frame, out=frame)
