"""Sparse/dense linear algebra primitives.

Sparse matrices, real or complex, are carried as
``scipy.sparse.csc_matrix``; dense matrices and vectors are plain numpy
arrays.  The two entry points that the continuation core leans on are
:func:`lu_factor` and :func:`eig_dense` (full dense eigendecomposition
used as initializer and reference oracle).  :func:`lu_factor` factors a
numpy array with dense LAPACK and an absolute pivot floor, a
:class:`Bordered` matrix ``[[P, c], [b^T, 0]]`` by SuperLU on ``P``
alone plus block elimination for the border, and anything else with
SuperLU and the same pivot floor.  Either way a near-singular bordered
matrix surfaces as :class:`~eigtrack.errors.SingularMatrix` instead of
a garbage solution.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from .errors import DimensionMismatch, NoConvergence, NonFiniteMatrix, SingularMatrix

PIVOT_FLOOR = 1e-14
# Pencils of order below this are dense arrays, larger ones CSC: below it
# scipy.sparse's per-call overhead costs more than the arithmetic.  One
# bordered assemble, LU and solve on the tridiagonal SyntheticSparseProvider
# pencil is 0.1x the sparse time at r = 32, 0.9x at 128 and 1.4x at 144.
DENSE_LIMIT = 128
# A Bordered matrix's block P whose SuperLU factorization meets an exactly
# zero pivot is factored again as P + SHIFT_REL * max(1, max|P_ij|) * I.
SHIFT_REL = 1e-13
# Largest lower estimate of a Bordered matrix's condition number that its
# factorization and solves accept (see _BorderedLU).  Measured: at most 1.6
# (eigenvalue condition) and 28 (solution growth) on the SyntheticSparseProvider
# sweep, 8e7 and 5e7 on the companion fold sweeps, 1e13 where M is singular.
COND_MAX = 1e8

__all__ = [
    "PIVOT_FLOOR",
    "DENSE_LIMIT",
    "SHIFT_REL",
    "COND_MAX",
    "Bordered",
    "LUFactorization",
    "lu_factor",
    "eig_dense",
    "as_csc",
    "as_dense",
    "read_matrix_market",
    "write_matrix_market",
]


def as_csc(M) -> sp.csc_matrix:
    """Coerce dense/sparse input to CSC with duplicates summed."""
    A = sp.csc_matrix(M)
    A.sum_duplicates()
    return A


def as_dense(M) -> np.ndarray:
    """A numpy array as it is; a sparse matrix as a new dense array."""
    return M.toarray() if sp.issparse(M) else np.asarray(M)


class _DenseLU:
    """LAPACK ``getrf`` factors of a dense matrix, with the ``solve`` and
    ``nnz`` of SuperLU's factor object.  A vector is solved by ``getrs``
    on the factors; a matrix of right-hand sides by ``gesv`` on a private
    copy of M, so both see the matrix as it was at construction."""

    def __init__(self, M: np.ndarray):
        getrf, self._getrs, self._gesv = get_lapack_funcs(
            ("getrf", "getrs", "gesv"), (M,))
        self._M = M.copy()
        # getrf's info > 0 (an exactly zero pivot) shows in diag(U)
        self.lu, self._piv = getrf(M)[:2]
        self.nnz = M.size  # L and U share one stored n-by-n array

    def solve(self, b: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(b) and not np.iscomplexobj(self.lu):
            # as SuperLU does; getrs would drop the imaginary part
            raise TypeError("complex right-hand side for a real factorization")
        if b.ndim == 2:  # OpenBLAS's getrs wakes its threads even at n = 2,
            # a 1-20 ms stall; gesv factors the copy again on this thread
            return self._gesv(self._M, b)[2]
        return self._getrs(self.lu, self._piv, b)[0]


class Bordered(NamedTuple):
    """The bordered matrix ``[[P, c], [b^T, 0]]`` kept as its parts: a
    square sparse block P of order r and border vectors c and b of
    length r, with no dense row or column stored in a sparse matrix."""

    P: sp.spmatrix
    c: np.ndarray
    b: np.ndarray

    @property
    def shape(self):
        r = self.P.shape[0] + 1
        return (r, r)

    @property
    def nnz(self) -> int:
        """Stored entries of the matrix built as one CSC: P's and 2r."""
        return self.P.nnz + 2 * len(self.c)

    def toarray(self) -> np.ndarray:
        """The whole matrix as a dense array."""
        r = len(self.c)
        M = np.zeros(self.shape, dtype=np.result_type(self.P.dtype, self.c, self.b))
        M[:r, :r] = as_dense(self.P)
        M[:r, r] = self.c
        M[r, :r] = self.b
        return M


class _BorderedLU:
    """SuperLU factors of a :class:`Bordered` matrix's block P, with the
    border solved by mixed block elimination (BEMW; Govaerts, *Numerical
    Methods for Bifurcations of Dynamical Equilibria*, SIAM 2000, ch. 3).

    Once per factorization ``v = P^-1 c``, ``w = P^-T b``,
    ``delta = -b^T v`` and ``delta* = -c^T w``; per right-hand side
    ``[f; g]``::

        y1 = (g - w^T f) / delta*      xi = P^-1 (f - c y1)
        y2 = (g - b^T xi) / delta      x = xi - v y2,  mu = y1 + y2

    BEMW stays accurate while P is near singular, as sE - A is near an
    eigenpair, so no pivot floor applies to P.  Where SuperLU meets an
    exactly zero pivot (P exactly singular, as at an exactly computed
    eigenpair) P is factored again as ``P + eta I`` with
    ``eta = SHIFT_REL * max(1, max|P_ij|)``: the solves are then those of
    M + eta [[I, 0], [0, 0]], a backward error of relative size 1e-13 on
    the block, which moves a solution by about ``1e-13 * cond(M)``.

    Two lower estimates of cond(M) raise :class:`SingularMatrix` above
    ``COND_MAX``.  ``-w / delta*`` is the left null vector of the block
    scaled so that its product with c is 1, so ``||w|| ||b|| / |delta*|``
    is the condition number of the tracked eigenvalue (c = E phi,
    b = phi): about 1 at a simple eigenvalue, near 1/eta for a defective
    one or an isotropic b (b^T b = 0); the factorization checks it.  A
    second eigenvalue at s (a semisimple double one) leaves it at 1, so
    each solve also checks its growth ``max|x| max|M_ij| / max|rhs|``.
    """

    def __init__(self, M: Bordered):
        P, c, b = M
        r = len(c)
        if P.shape != (r, r) or len(b) != r:
            raise DimensionMismatch(
                f"block {P.shape} with borders {r} and {len(b)}")
        dtype = np.result_type(P.dtype, c, b, np.float64)
        P = as_csc(P).astype(dtype, copy=False)
        self._c, self._b = np.array(c, dtype=dtype), np.array(b, dtype=dtype)
        max_p = np.abs(P.data).max(initial=0.0)
        self._max_entry = max(max_p, np.abs(self._c).max(), np.abs(self._b).max())
        try:
            self._lu = spla.splu(P)
        except RuntimeError:  # an exactly zero pivot
            eta = SHIFT_REL * max(1.0, max_p)
            try:
                self._lu = spla.splu(P + eta * sp.identity(r, dtype))
            except RuntimeError as exc:
                raise SingularMatrix(str(exc)) from exc
        self.nnz = self._lu.nnz
        self._v = self._lu.solve(self._c)
        self._w = self._lu.solve(self._b, trans="T")
        self._delta = -(self._b @ self._v)
        self._delta_star = -(self._c @ self._w)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # delta = delta* up to rounding; the smaller one is the safer
            _check_cond(np.linalg.norm(self._w) * np.linalg.norm(self._b)
                        / min(abs(self._delta), abs(self._delta_star)),
                        "eigenvalue condition")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        f, g = rhs[:-1], rhs[-1]
        c, v = self._c, self._v
        if rhs.ndim == 2:
            c, v = c[:, None], v[:, None]
        y1 = (g - self._w @ f) / self._delta_star
        xi = self._lu.solve(f - c * y1)
        y2 = (g - self._b @ xi) / self._delta
        x = np.concatenate([xi - v * y2, (y1 + y2)[None]])
        if np.any(rhs):
            _check_cond(np.abs(x).max() * self._max_entry / np.abs(rhs).max(),
                        "solution growth")
        return x


def _check_cond(cond: float, what: str) -> None:
    if not cond <= COND_MAX:  # also NaN
        raise SingularMatrix(
            f"bordered matrix {what} {cond:.3e} above {COND_MAX:.1e}")


class LUFactorization:
    """Immutable LU factorization supporting repeated solves.

    A numpy array is factored with dense LAPACK ``getrf`` and solved with
    ``getrs``, or, for several right-hand-side columns, with ``gesv`` on
    a copy of the matrix taken at construction (see :class:`_DenseLU`);
    a :class:`Bordered` matrix by SuperLU on its block and block
    elimination for the border (see :class:`_BorderedLU`); any other
    input is converted to CSC and factored with SuperLU.  A dense or CSC
    factorization whose U diagonal contains a pivot with magnitude at or
    below ``PIVOT_FLOOR`` is rejected at construction time; a
    :class:`Bordered` one whose eigenvalue condition number exceeds
    ``COND_MAX``, and a solve of it whose growth does.
    """

    def __init__(self, M):
        if isinstance(M, Bordered):
            self._lu = _BorderedLU(M)
            self.shape = M.shape
            return
        if isinstance(M, np.ndarray):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise DimensionMismatch(f"matrix is {M.shape}, expected square")
            self._lu = _DenseLU(M)
            diag = self._lu.lu.diagonal()
        else:
            M = as_csc(M)
            if M.shape[0] != M.shape[1]:
                raise DimensionMismatch(f"matrix is {M.shape}, expected square")
            try:
                self._lu = spla.splu(M)
            except RuntimeError as exc:  # SuperLU signals exact singularity this way
                raise SingularMatrix(str(exc)) from exc
            diag = self._lu.U.diagonal()
        self.shape = M.shape
        diag = np.abs(diag)
        if diag.size and diag.min() <= PIVOT_FLOOR:
            raise SingularMatrix(
                f"pivot {diag.min():.3e} at or below floor {PIVOT_FLOOR:.3e}"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        if b.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"rhs has {b.shape[0]} rows, matrix is {self.shape[0]}"
            )
        return self._lu.solve(b)


def lu_factor(M) -> LUFactorization:
    """LU factorization of a square real or complex matrix: dense LAPACK
    for a numpy array, SuperLU on the block P plus block elimination for
    a :class:`Bordered` matrix, SuperLU for a sparse (or other) matrix.

    Raises :class:`SingularMatrix` when a dense or sparse pivot falls at
    or below ``PIVOT_FLOOR``.  A :class:`Bordered` matrix has no pivot
    floor, as its block P is singular at every eigenpair; it raises when
    P shifted by ``SHIFT_REL`` still has an exactly zero pivot or the
    tracked eigenvalue's condition number exceeds ``COND_MAX``, and its
    ``solve`` raises when a solution's growth does.  Callers interpret
    this as proximity to a defective/critical point.
    """
    return LUFactorization(M)


def eig_dense(A, want_left: bool = False):
    """Full eigendecomposition of a dense real or complex matrix.

    Returns a list of ``(eigenvalue, right, left)`` triples (``left`` is
    None unless requested).  Left vectors are obtained from the
    transposed problem and matched to the right ones by eigenvalue
    proximity, so that ``psi @ A = s * psi`` holds row-wise.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix is {A.shape}, expected square")
    if not np.all(np.isfinite(A)):
        raise NonFiniteMatrix("matrix has non-finite entries")
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    left_vecs = [None] * len(w)
    if want_left:
        try:
            wl, Vl = np.linalg.eig(A.T)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
        used = np.zeros(len(wl), dtype=bool)
        for i, s in enumerate(w):
            dists = np.where(used, np.inf, np.abs(wl - s))
            j = int(np.argmin(dists))
            used[j] = True
            left_vecs[i] = Vl[:, j]
    return [(w[i], V[:, i], left_vecs[i]) for i in range(len(w))]


def read_matrix_market(path) -> sp.csc_matrix:
    """Read a real coordinate Matrix Market file into CSC form."""
    import scipy.io

    return as_csc(scipy.io.mmread(path))


def write_matrix_market(path, M) -> None:
    """Write a sparse real matrix as 1-based coordinate Matrix Market."""
    import scipy.io

    scipy.io.mmwrite(path, sp.coo_matrix(M), field="real", symmetry="general")
