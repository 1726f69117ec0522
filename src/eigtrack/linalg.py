"""Sparse/dense linear algebra primitives.

Sparse matrices, real or complex, are carried as
``scipy.sparse.csc_matrix``; dense matrices and vectors are plain numpy
arrays.  The two entry points that the continuation core leans on are
:func:`lu_factor` (sparse LU with an absolute pivot floor, so
near-singular bordered matrices surface as
:class:`~eigtrack.errors.SingularMatrix` instead of garbage solutions)
and :func:`eig_dense` (full dense eigendecomposition used as
initializer and reference oracle).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, NoConvergence, SingularMatrix

PIVOT_FLOOR = 1e-14

__all__ = [
    "PIVOT_FLOOR",
    "LUFactorization",
    "lu_factor",
    "eig_dense",
    "as_csc",
    "read_matrix_market",
    "write_matrix_market",
]


def as_csc(M) -> sp.csc_matrix:
    """Coerce dense/sparse input to CSC with duplicates summed."""
    A = sp.csc_matrix(M)
    A.sum_duplicates()
    return A


class LUFactorization:
    """Immutable sparse LU factorization supporting repeated solves.

    Thin wrapper over SuperLU.  A factorization whose U diagonal
    contains a pivot with magnitude at or below ``PIVOT_FLOOR`` is
    rejected at construction time.
    """

    def __init__(self, M):
        M = as_csc(M)
        if M.shape[0] != M.shape[1]:
            raise DimensionMismatch(f"matrix is {M.shape}, expected square")
        self.shape = M.shape
        try:
            self._lu = spla.splu(M)
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            raise SingularMatrix(str(exc)) from exc
        diag = np.abs(self._lu.U.diagonal())
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
    """Sparse LU factorization of a square real or complex matrix.

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
