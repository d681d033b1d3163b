"""Complex exterior-algebra primitives.

Vectors are 1-D complex numpy arrays.  Bivectors and trivectors store one
complex coefficient per lexicographically ordered index pair / triple; the
coefficient attached to a wedge of vectors is the corresponding 2x2 or 3x3
minor of the stacked component matrix.  With this convention the squared
coefficient sums obey the Lagrange identity and, for orthonormal families,
the Cauchy-Binet normalization (the squared minors sum to 1).

``minors2``, ``_minors3`` (behind ``wedge3``), ``_wedge_bv_coeffs`` (behind
``wedge_bv``) and ``_cross`` (behind ``cross3``) work over the last axis, and
``_wedge_basis`` and ``_hodge_frame`` (behind ``hodge_basis``) over stacks of
3-row bases, so one input and a stack of them share one formula; the batched
kernels in ``checks``, ``metric`` and ``optimize`` call them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

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
    "gram_schmidt",
    "interior_product",
    "hodge_basis",
    "gram_matrix",
    "gram_deviation",
]

# Gate for orthonormality of *inputs*; outputs of the constructions below are
# tested against the tighter 1e-10 budget.
ORTHO_INPUT_TOL = 1e-8
DEFLATION_TOL = 1e-10


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


def _pair_of_vectors(x, y) -> tuple[np.ndarray, np.ndarray]:
    xv, yv = _vector(x), _vector(y)
    if xv.size != yv.size:
        raise ValueError(f"dimension mismatch: {xv.size} vs {yv.size}")
    return xv, yv


@dataclass(frozen=True)
class Bivector:
    """Antisymmetric rank-2 coefficients over pairs i < j (Plucker order 2)."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        if c.shape != (self.n * (self.n - 1) // 2,):
            raise ValueError(
                f"bivector in dimension {self.n} needs {self.n*(self.n-1)//2} "
                f"coefficients, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def norm_sq(self) -> float:
        return float(np.sum(self.coeffs.real**2 + self.coeffs.imag**2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def as_matrix(self) -> np.ndarray:
        """Full antisymmetric n x n coefficient matrix."""
        i, j = pair_indices(self.n)
        m = np.zeros((self.n, self.n), dtype=complex)
        m[i, j] = self.coeffs
        m[j, i] = -self.coeffs
        return m


@dataclass(frozen=True)
class Trivector:
    """Antisymmetric rank-3 coefficients over triples i < j < k."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        want = self.n * (self.n - 1) * (self.n - 2) // 6
        if c.shape != (want,):
            raise ValueError(
                f"trivector in dimension {self.n} needs {want} coefficients, "
                f"got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def norm_sq(self) -> float:
        return float(np.sum(self.coeffs.real**2 + self.coeffs.imag**2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))


def inner(x, y) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    xv, yv = _pair_of_vectors(x, y)
    return complex(np.vdot(xv, yv))


def minors2(x: np.ndarray, y: np.ndarray, i, j) -> np.ndarray:
    """2x2 minors x_i y_j - x_j y_i over the index arrays (i, j) of the last axis.

    Written as x_i y_j - y_i x_j so that swapping x and y swaps the two
    products operand for operand: the result negates *bitwise* (complex a*b is
    not bit-commutative under FMA contraction, but IEEE a - b is exactly
    -(b - a)); in particular minors2(x, x, ...) is exactly zero.  Each operand
    is gathered once: every fancy-index gather releases the GIL, and on small
    arrays each release hands it to the other campaign thread.
    """
    k = len(i)
    ij = np.concatenate([i, j])
    xg, yg = x[..., ij], y[..., ij]
    return xg[..., :k] * yg[..., k:] - yg[..., :k] * xg[..., k:]


def wedge2(x, y) -> Bivector:
    """Wedge of two vectors: coefficients are the 2x2 minors x_i y_j - x_j y_i."""
    xv, yv = _pair_of_vectors(x, y)
    n = xv.size
    if n < 2:
        raise ValueError("wedge2 needs dimension >= 2")
    i, j = pair_indices(n)
    return Bivector(n, minors2(xv, yv, i, j))


def wedge3(x, y, z) -> Trivector:
    """Wedge of three vectors: coefficients are the 3x3 minors of the stacked rows."""
    xv, yv = _pair_of_vectors(x, y)
    _, zv = _pair_of_vectors(xv, z)
    n = xv.size
    if n < 3:
        raise ValueError("wedge3 needs dimension >= 3")
    return Trivector(n, _minors3(xv, yv, zv))


def _minors3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """3x3 minors of the rows (x, y, z) over the triples of the last axis."""
    ti, tj, tk, _, _, _ = triple_indices(x.shape[-1])
    return (
        x[..., ti] * (y[..., tj] * z[..., tk] - y[..., tk] * z[..., tj])
        - x[..., tj] * (y[..., ti] * z[..., tk] - y[..., tk] * z[..., ti])
        + x[..., tk] * (y[..., ti] * z[..., tj] - y[..., tj] * z[..., ti])
    )


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
    """Bilinear cross product on C^3 (no conjugation)."""
    xv, yv = _pair_of_vectors(x, y)
    if xv.size != 3:
        raise ValueError("cross3 is defined on C^3 only")
    return _cross(xv, yv)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of length 3."""
    return np.stack(
        [
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ],
        axis=-1,
    )


def gram_matrix(vectors) -> np.ndarray:
    vs = [_vector(v) for v in vectors]
    m = len(vs)
    g = np.empty((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            g[a, b] = np.vdot(vs[a], vs[b])
    return g


def gram_deviation(vectors) -> float:
    """Max absolute deviation of the Gram matrix from the identity."""
    g = gram_matrix(vectors)
    return float(np.abs(g - np.eye(g.shape[0])).max())


def _project_out(u: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    # Two sequential re-projection passes for stability near dependence.
    for _ in range(2):
        for q in basis:
            u = u - np.vdot(q, u) * q
    return u


def gram_schmidt(vectors, complete_to: int | None = None, *, drop_tol: float = DEFLATION_TOL):
    """Orthonormalize a list of vectors (modified Gram-Schmidt, two passes).

    Vectors whose residual after projection falls below ``drop_tol`` are
    dropped, so dependent inputs yield a smaller output.  With
    ``complete_to=k`` the basis is padded using whichever canonical basis
    vectors have the largest residual, until it has k elements.
    """
    vs = [_vector(v) for v in vectors]
    if not vs:
        raise ValueError("gram_schmidt needs at least one vector")
    n = vs[0].size
    for v in vs:
        if v.size != n:
            raise ValueError("gram_schmidt inputs must share one dimension")

    basis: list[np.ndarray] = []
    for v in vs:
        u = _project_out(v.copy(), basis)
        nrm = np.linalg.norm(u)
        if nrm >= drop_tol:
            basis.append(u / nrm)

    if complete_to is not None:
        if complete_to > n:
            raise ValueError(f"cannot span {complete_to} dimensions inside C^{n}")
        while len(basis) < complete_to:
            best, best_norm = None, -1.0
            for k in range(n):
                e = np.zeros(n, dtype=complex)
                e[k] = 1.0
                u = _project_out(e, basis)
                nrm = np.linalg.norm(u)
                if nrm > best_norm:
                    best, best_norm = u, nrm
            if best is None or best_norm < drop_tol:
                raise ValueError("basis completion failed")
            basis.append(best / best_norm)
    return basis


def interior_product(w, omega):
    """Contraction of a multivector by a vector, lowering the grade by one.

    On a simple product the contraction expands as the alternating sum of
    <w|v_i> times the product with v_i removed; in coefficients this is
    u_j = sum_i conj(w_i) B_ij for a bivector and C_jk = sum_i conj(w_i) T_ijk
    for a trivector.  Satisfies |w ^ O|^2 = |w|^2 |O|^2 - |w . O|^2.
    """
    wv = _vector(w)
    cw = np.conj(wv)
    if isinstance(omega, Bivector):
        if omega.n != wv.size:
            raise ValueError(f"dimension mismatch: {omega.n} vs {wv.size}")
        return cw @ omega.as_matrix()
    if isinstance(omega, Trivector):
        n = omega.n
        if n != wv.size:
            raise ValueError(f"dimension mismatch: {n} vs {wv.size}")
        ti, tj, tk, pij, pik, pjk = triple_indices(n)
        out = np.zeros(n * (n - 1) // 2, dtype=complex)
        t = omega.coeffs
        np.add.at(out, pjk, cw[ti] * t)
        np.add.at(out, pik, -cw[tj] * t)
        np.add.at(out, pij, cw[tk] * t)
        return Bivector(n, out)
    raise TypeError("interior_product expects a Bivector or Trivector")


def hodge_basis(b1: Bivector, b2: Bivector, b3: Bivector, v_basis, *, tol: float = ORTHO_INPUT_TOL):
    """Realize an orthonormal bivector triple as wedges of an orthonormal frame.

    Given an orthonormal basis {v1, v2, v3} of a 3-dimensional subspace V and
    an orthonormal triple {b1, b2, b3} inside the wedge square of V, returns
    orthonormal vectors {f1, f2, f3} in V with

        f2 ^ f3 = b1,   f3 ^ f1 = b2,   f1 ^ f2 = b3.

    The triple {b_l} expands over the wedge basis {v2^v3, v3^v1, v1^v2} with a
    unitary coefficient matrix U; the frame is f_l = c sum_m conj(U_lm) v_m
    with c a square root of det U (see ``_hodge_frame``).
    """
    vs = [_vector(v) for v in v_basis]
    if len(vs) != 3:
        raise ValueError("hodge_basis needs exactly three basis vectors")
    n = vs[0].size
    for b in (b1, b2, b3):
        if b.n != n:
            raise ValueError("bivector dimension does not match the basis")
    if gram_deviation(vs) > tol:
        raise ValueError("basis vectors are not orthonormal")

    v = np.stack(vs)
    w = _wedge_basis(v)
    bs = np.stack([b1.coeffs, b2.coeffs, b3.coeffs])
    u = bs @ np.conj(w).T
    if np.abs(bs - u @ w).max() > tol:
        raise ValueError("bivector is not contained in the wedge square of the basis span")
    if np.abs(u @ u.conj().T - np.eye(3)).max() > tol:
        raise ValueError("bivector triple is not orthonormal")
    frame = _hodge_frame(u, v)
    return [frame[0], frame[1], frame[2]]


def _wedge_basis(v: np.ndarray) -> np.ndarray:
    """Wedge basis (v2^v3, v3^v1, v1^v2) of the rows (..., 3, n), stacked on axis -2.

    On pair (i, j) it is the cross product of columns i and j, in ``minors2``'s operand order.
    """
    i, j = pair_indices(v.shape[-1])
    return _cross(v[..., i].swapaxes(-1, -2), v[..., j].swapaxes(-1, -2)).swapaxes(-1, -2)


def _hodge_frame(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked Hodge frames c conj(U) V, c = sqrt(det U), for unitary u (..., 3, 3) and rows v (..., 3, n).

    The wedges (f2^f3, f3^f1, f1^f2) of a frame A V expand over the wedge basis
    of V with the cofactor matrix det(A) A^-T; for A = c conj(U) and
    |det U| = 1 this is c^3 conj(det U) (c conj(U))^-T = U.
    """
    return np.sqrt(np.linalg.det(u))[..., None, None] * (np.conj(u) @ v)
