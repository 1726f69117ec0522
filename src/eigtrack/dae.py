"""Parameterized semi-implicit DAE models and their linearization.

A model is a set of differential equations ``T(p) x' = f(x, y, p)``
coupled with algebraic constraints whose rows may also carry a
derivative coupling ``R(p) x'`` on the left:

    [T 0] [x']   [f(x, y, p)]
    [R 0] [y'] = [g(x, y, p)]

This module solves for equilibria, linearizes with the model's analytic
Jacobians (finite differences when it has none), assembles the sparse
pencil matrices (E, A), eliminates the algebraic variables to obtain
the dense state matrix, and differentiates pencils with respect to the
continuation parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatch,
    NoConvergence,
    SingularMatrix,
    SingularSchurComplement,
)
from .linalg import as_csc, lu_factor

__all__ = [
    "ParamDescriptor",
    "DaeModel",
    "ModelBlocks",
    "Equilibrium",
    "PencilSample",
    "PencilProvider",
    "solve_equilibrium",
    "linearize",
    "fd_jacobians",
    "assemble_pencil",
    "reduce_state_matrix",
    "lift_eigenvector",
    "fd_matrix_derivatives",
    "ModelPencilProvider",
]

EQ_TOL = 1e-10
EQ_MAX_ITER = 50
EQ_STEP_TOL = 1e-12
FD_DROP = 1e-12
MEMO_SIZE = 64  # per-p entries a memo holds; the oldest goes first


@dataclass
class ParamDescriptor:
    name: str
    p_init: float
    p_fin: float


@dataclass
class DaeModel:
    """Semi-implicit DAE with n states and m algebraic variables.

    ``f`` and ``g`` must be pure functions of ``(x, y, p)``.  ``T`` and
    ``R`` map a parameter value to sparse matrices of shape (n, n) and
    (m, n).  ``jacobians``, when given, returns analytic
    ``(f_x, f_y, g_x, g_y)`` at ``(x, y, p)`` (dense or sparse) and
    drives every linearization (:func:`linearize`); models without it
    fall back to finite differences (:func:`fd_jacobians`).
    ``equilibrium_solver(model, p)`` overrides the generic Newton solve
    for models whose steady state needs special treatment (e.g. an
    embedded power-flow problem); the generic solve starts every p from
    ``guess`` (zeros when unset).
    """

    n: int
    m: int
    f: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    T: Callable[[float], sp.spmatrix]
    R: Callable[[float], sp.spmatrix]
    param: ParamDescriptor
    jacobians: Optional[Callable] = None
    equilibrium_solver: Optional[Callable] = None
    guess: Optional[tuple] = None
    affine_in_p: bool = False


@dataclass
class ModelBlocks:
    """Linearization blocks evaluated at one equilibrium."""

    T: sp.csc_matrix
    R: sp.csc_matrix
    f_x: sp.csc_matrix
    f_y: sp.csc_matrix
    g_x: sp.csc_matrix
    g_y: sp.csc_matrix

    @property
    def n(self) -> int:
        return self.T.shape[0]

    @property
    def m(self) -> int:
        return self.g_y.shape[0]


@dataclass
class Equilibrium:
    x0: np.ndarray
    y0: np.ndarray
    p: float


@dataclass
class PencilSample:
    """Pencil matrices and their parameter derivatives at one p."""

    E: sp.csc_matrix
    A: sp.csc_matrix
    Edot: sp.csc_matrix
    Adot: sp.csc_matrix


def solve_equilibrium(model: DaeModel, p: float) -> Equilibrium:
    """Newton solve of [f; g] = 0 starting from ``model.guess``.

    Uses the model's own equilibrium solver when it defines one.  The
    result depends on p alone.  Raises :class:`NoConvergence` when the
    iteration budget is exhausted or the Jacobian becomes singular.
    """
    if model.equilibrium_solver is not None:
        return model.equilibrium_solver(model, p)
    guess = model.guess or (np.zeros(model.n), np.zeros(model.m))
    x = np.array(guess[0], dtype=float).copy()
    y = np.array(guess[1], dtype=float).copy()
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("equilibrium guess has non-finite entries")

    def resid(x, y):
        return np.concatenate([model.f(x, y, p), np.atleast_1d(model.g(x, y, p))
                               if model.m else np.empty(0)])

    for _ in range(EQ_MAX_ITER):
        F = resid(x, y)
        if np.max(np.abs(F), initial=0.0) <= EQ_TOL:
            return Equilibrium(x, y, p)
        b = linearize(model, Equilibrium(x, y, p))
        J = sp.bmat([[b.f_x, b.f_y], [b.g_x, b.g_y]], format="csc")
        try:
            step = lu_factor(J).solve(-F)
        except SingularMatrix as exc:
            raise NoConvergence(f"singular Jacobian in equilibrium solve: {exc}")
        x = x + step[: model.n]
        y = y + step[model.n:]
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NoConvergence("equilibrium iterate diverged")
        if np.linalg.norm(step, np.inf) <= EQ_STEP_TOL:
            F = resid(x, y)
            if np.max(np.abs(F), initial=0.0) <= EQ_TOL:
                return Equilibrium(x, y, p)
            raise NoConvergence("Newton stalled above equilibrium tolerance")
    raise NoConvergence(f"no equilibrium within {EQ_MAX_ITER} iterations")


def _mass_blocks(model: DaeModel, p: float):
    """``T(p)`` and ``R(p)`` as CSC; R is (0, n) when the model has m = 0."""
    R = model.R(p) if model.m else sp.csc_matrix((0, model.n))
    return as_csc(model.T(p)), as_csc(R)


def linearize(model: DaeModel, eq: Equilibrium) -> ModelBlocks:
    """Jacobian blocks at ``eq``: the model's analytic ``jacobians`` when
    it defines them, finite differences (:func:`fd_jacobians`) otherwise."""
    if model.jacobians is None:
        return fd_jacobians(model, eq)
    f_x, f_y, g_x, g_y = (as_csc(B) for B in model.jacobians(eq.x0, eq.y0, eq.p))
    T, R = _mass_blocks(model, eq.p)
    return ModelBlocks(T=T, R=R, f_x=f_x, f_y=f_y, g_x=g_x, g_y=g_y)


def fd_jacobians(model: DaeModel, eq: Equilibrium, h_x: float = 1e-7,
                 scheme: str = "forward") -> ModelBlocks:
    """Finite-difference Jacobian blocks at an equilibrium.

    Always differences ``f`` and ``g``, whether or not the model has
    analytic ``jacobians``: it is the fallback of :func:`linearize` and
    the reference the analytic blocks are tested against.  Column j is
    stepped by ``h_x (1 + |v_j|)``; forward differences by default
    (``scheme="central"`` for sensitivity studies and oracles).
    Entries with magnitude below ``FD_DROP`` are removed from the sparse
    result.
    """
    if h_x <= 0:
        raise ValueError("h_x must be positive")
    n, m, p = model.n, model.m, eq.p
    x0, y0 = eq.x0, eq.y0

    def columns(fun, base, vec, k):
        out = np.empty((len(base), k))
        for j in range(k):
            hj = h_x * (1.0 + abs(vec[j]))
            vp = vec.copy()
            vp[j] += hj
            if scheme == "central":
                vm = vec.copy()
                vm[j] -= hj
                out[:, j] = (fun(vp) - fun(vm)) / (2 * hj)
            else:
                out[:, j] = (fun(vp) - base) / hj
        return out

    f0 = np.asarray(model.f(x0, y0, p), dtype=float)
    g0 = np.atleast_1d(model.g(x0, y0, p)).astype(float) if m else np.empty(0)
    f_x = columns(lambda v: np.asarray(model.f(v, y0, p), float), f0, x0, n)
    g_x = (columns(lambda v: np.atleast_1d(model.g(v, y0, p)).astype(float), g0, x0, n)
           if m else np.empty((0, n)))
    if m:
        f_y = columns(lambda v: np.asarray(model.f(x0, v, p), float), f0, y0, m)
        g_y = columns(lambda v: np.atleast_1d(model.g(x0, v, p)).astype(float), g0, y0, m)
    else:
        f_y = np.empty((n, 0))
        g_y = np.empty((0, 0))

    def sparsify(M):
        M = np.where(np.abs(M) < FD_DROP, 0.0, M)
        return as_csc(M)

    T, R = _mass_blocks(model, p)
    return ModelBlocks(
        T=T, R=R,
        f_x=sparsify(f_x), f_y=sparsify(f_y),
        g_x=sparsify(g_x), g_y=sparsify(g_y),
    )


def assemble_pencil(blocks: ModelBlocks):
    """Sparse pencil matrices E = [[T, 0], [R, 0]], A = [[f_x, f_y], [g_x, g_y]]."""
    n, m = blocks.n, blocks.m
    if blocks.T.shape != (n, n) or blocks.R.shape != (m, n):
        raise DimensionMismatch("T/R dimensions inconsistent")
    if (blocks.f_x.shape != (n, n) or blocks.f_y.shape != (n, m)
            or blocks.g_x.shape != (m, n) or blocks.g_y.shape != (m, m)):
        raise DimensionMismatch("Jacobian block dimensions inconsistent")
    if m:
        E = sp.bmat([[blocks.T, sp.csc_matrix((n, m))],
                     [blocks.R, sp.csc_matrix((m, m))]], format="csc")
        A = sp.bmat([[blocks.f_x, blocks.f_y],
                     [blocks.g_x, blocks.g_y]], format="csc")
    else:
        E = blocks.T.copy()
        A = blocks.f_x.copy()
    return as_csc(E), as_csc(A)


def _schur_pieces(blocks: ModelBlocks):
    """Shared computation for reduction and eigenvector lifting.

    Returns (lu_T, Tinv_fx, W) where W solves
    (g_y - R T^-1 f_y) W = (g_x - R T^-1 f_x).
    """
    try:
        lu_T = lu_factor(blocks.T)
    except SingularMatrix as exc:
        raise SingularMatrix(f"T singular in reduction: {exc}")
    Tinv_fx = lu_T.solve(blocks.f_x.toarray())
    if blocks.m == 0:
        return lu_T, Tinv_fx, None
    Tinv_fy = lu_T.solve(blocks.f_y.toarray())
    S = blocks.g_y.toarray() - blocks.R @ Tinv_fy
    U = blocks.g_x.toarray() - blocks.R @ Tinv_fx
    try:
        W = lu_factor(S).solve(U)
    except SingularMatrix as exc:
        raise SingularSchurComplement(str(exc)) from exc
    return lu_T, Tinv_fx, W


def reduce_state_matrix(blocks: ModelBlocks) -> np.ndarray:
    """Dense n-by-n state matrix after eliminating algebraic variables.

    Computes T^-1 (f_x - f_y (g_y - R T^-1 f_y)^-1 (g_x - R T^-1 f_x)).
    """
    lu_T, Tinv_fx, W = _schur_pieces(blocks)
    if blocks.m == 0:
        return Tinv_fx
    return Tinv_fx - lu_T.solve(blocks.f_y.toarray() @ W)


def lift_eigenvector(blocks: ModelBlocks, phi_x: np.ndarray) -> np.ndarray:
    """Append algebraic components to a state-space right eigenvector,
    or to each column of a matrix of them.

    The algebraic part is -(g_y - R T^-1 f_y)^-1 (g_x - R T^-1 f_x) phi_x,
    yielding a vector in the (n+m)-dimensional pencil coordinates.
    """
    if blocks.m == 0:
        return np.asarray(phi_x)
    _, _, W = _schur_pieces(blocks)
    return np.concatenate([phi_x, -(W @ phi_x)])


def fd_matrix_derivatives(provider, p: float, h_p: Optional[float] = None):
    """First-order forward differences of (E, A) with respect to p.

    The sparsity pattern of the result is the union of the two samples'
    patterns, so parameter-dependent fill is never silently dropped.
    """
    if h_p is None:
        h_p = 1e-6 * max(1.0, abs(p))
    if h_p <= 0:
        raise ValueError("h_p must be positive")
    E0, A0 = provider.matrices(p)
    E1, A1 = provider.matrices(p + h_p)
    Edot = as_csc((E1 - E0) / h_p)
    Adot = as_csc((A1 - A0) / h_p)
    return Edot, Adot


@runtime_checkable
class PencilProvider(Protocol):
    """Anything that can produce pencil matrices along a parameter sweep."""

    r: int
    n: int
    affine_in_p: bool

    def matrices(self, p: float): ...

    def sample(self, p: float, h_p: Optional[float] = None) -> PencilSample: ...

    def reduced(self, p: float) -> np.ndarray: ...

    def lift(self, p: float, phi_x: np.ndarray) -> np.ndarray: ...


class ModelPencilProvider:
    """Pencil provider backed by a DaeModel.

    Per parameter value: solves the equilibrium, linearizes
    (:func:`linearize`: analytic Jacobians when the model has them,
    finite differences otherwise), and assembles the pencil.
    ``form="reduced"`` eliminates the algebraic variables so the tracker
    runs on the dense n-by-n state matrix with E = I instead of the
    sparse (n+m) pencil.  One memo entry per p holds the blocks and the
    ``(E, A)`` built from them, so every later ``matrices``/``sample``
    call at that p (the next step's predictor, the trajectory record,
    the derivative stencil) reuses them; callers must not modify the
    returned matrices.  The memo is a pure cache: every entry depends on
    p alone, never on which p were visited before.
    """

    def __init__(self, model: DaeModel, form: str = "pencil"):
        if form not in ("pencil", "reduced"):
            raise ValueError(f"unknown form {form!r}")
        self.model = model
        self.form = form
        self.n = model.n
        self.r = model.n + (model.m if form == "pencil" else 0)
        self.affine_in_p = model.affine_in_p
        self._cache: dict[float, tuple] = {}

    def _entry(self, p: float):
        """Memo entry ``(blocks, (E, A))`` at p, built on first use."""
        got = self._cache.get(p)
        if got is None:
            eq = solve_equilibrium(self.model, p)
            blocks = linearize(self.model, eq)
            if self.form == "reduced":
                pencil = (as_csc(sp.identity(self.n, format="csc")),
                          as_csc(reduce_state_matrix(blocks)))
            else:
                pencil = assemble_pencil(blocks)
            if len(self._cache) >= MEMO_SIZE:
                del self._cache[next(iter(self._cache))]  # oldest entry
            got = self._cache[p] = (blocks, pencil)
        return got

    def blocks(self, p: float) -> ModelBlocks:
        return self._entry(p)[0]

    def matrices(self, p: float):
        return self._entry(p)[1]

    def sample(self, p: float, h_p: Optional[float] = None) -> PencilSample:
        E, A = self.matrices(p)
        Edot, Adot = fd_matrix_derivatives(self, p, h_p)
        return PencilSample(E=E, A=A, Edot=Edot, Adot=Adot)

    def reduced(self, p: float) -> np.ndarray:
        if self.form == "reduced":
            return self.matrices(p)[1].toarray()
        return reduce_state_matrix(self.blocks(p))

    def lift(self, p: float, phi_x: np.ndarray) -> np.ndarray:
        if self.form == "reduced" or self.model.m == 0:
            return np.asarray(phi_x)
        return lift_eigenvector(self.blocks(p), phi_x)
