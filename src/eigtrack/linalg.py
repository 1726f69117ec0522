"""Sparse/dense linear algebra primitives.

Sparse matrices, real or complex, are carried as
``scipy.sparse.csc_matrix``; dense matrices and vectors are plain numpy
arrays.  The two entry points that the continuation core leans on are
:func:`lu_factor` (LU with an absolute pivot floor: dense LAPACK for a
numpy array, SuperLU for anything else, so near-singular bordered
matrices surface as :class:`~eigtrack.errors.SingularMatrix` instead of
garbage solutions) and :func:`eig_dense` (full dense eigendecomposition
used as initializer and reference oracle).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from .errors import DimensionMismatch, NoConvergence, SingularMatrix

PIVOT_FLOOR = 1e-14
# Pencils of order below this are dense arrays, larger ones CSC: below it
# scipy.sparse's per-call overhead costs more than the arithmetic.  One
# bordered assemble, LU and solve on the tridiagonal SyntheticSparseProvider
# pencil is 0.1x the sparse time at r = 32, 0.9x at 128 and 1.4x at 144.
DENSE_LIMIT = 128

__all__ = [
    "PIVOT_FLOOR",
    "DENSE_LIMIT",
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


class LUFactorization:
    """Immutable LU factorization supporting repeated solves.

    A numpy array is factored with dense LAPACK ``getrf`` and solved with
    ``getrs``, or, for several right-hand-side columns, with ``gesv`` on
    a copy of the matrix taken at construction (see :class:`_DenseLU`);
    any other input is converted to CSC and factored with SuperLU.  A
    factorization whose U diagonal contains a pivot with magnitude at or
    below ``PIVOT_FLOOR`` is rejected at construction time.
    """

    def __init__(self, M):
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
    for a numpy array, SuperLU for a sparse (or other) matrix.

    Raises :class:`SingularMatrix` when a pivot falls at or below
    ``PIVOT_FLOOR``; callers interpret this as proximity to a
    defective/critical point.
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
        raise ValueError("matrix has non-finite entries")
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
