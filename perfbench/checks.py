"""Correctness checks on the trajectories a workload produced.

Every check is computed apart from the tracker: eigenvalues come from
closed-form roots, ``scipy.linalg.eig`` of the dense generalized pencil
or ARPACK shift-invert, and residuals, normalisation and MAC are
recomputed here with numpy.  The pencil matrices themselves come
from a provider the checker builds for itself, so no cache of the timed
run is reused.  Expensive per-``p`` oracles are memoised, so checking
several repeats that visit the same grid costs one oracle pass.

``check`` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from eigtrack import dae

NORM_TOL = 1e-10
MIN_MAC = 0.99
FOLD_ROOT_TOL = 1e-8
PENCIL_EIG_TOL = 1e-6
ARPACK_TOL = 1e-8
FOLD_WINDOW = 0.16
JUMP_AT = 0.8
JUMP_WINDOW = 0.01


def dense(M) -> np.ndarray:
    return M.toarray() if hasattr(M, "toarray") else np.asarray(M)


def mac(a, b) -> float:
    """|a^H b|^2 / (|a|^2 |b|^2), written out independently of eigtrack."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def frobenius(M) -> float:
    data = M.data if hasattr(M, "toarray") else np.asarray(M)
    return float(np.sqrt(np.sum(np.abs(data) ** 2)))


def pencil_residual(E, A, s, phi) -> float:
    """||(sE - A) phi|| / ((|s| ||E||_F + ||A||_F) ||phi||)."""
    num = np.linalg.norm(s * (E @ phi) - A @ phi)
    scale = (abs(s) * frobenius(E) + frobenius(A)) * np.linalg.norm(phi)
    return float(num / scale)


def finite_pencil_eigenvalues(E, A) -> np.ndarray:
    """Finite eigenvalues of the dense generalized problem A v = s E v."""
    alpha, beta = scipy.linalg.eig(A, E, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * np.max(np.abs(beta))
    return alpha[finite] / beta[finite]


def companion_roots(p: float, c: float = 2.0) -> np.ndarray:
    """Roots of s^2 + c s + p = 0 by the quadratic formula."""
    root = np.sqrt(complex(c * c - 4.0 * p))
    return np.array([(-c + root) / 2.0, (-c - root) / 2.0])


def corrected(index: int, pt) -> bool:
    """A record the Newton corrector produced (not the start, not a restart)."""
    return index > 0 and not ({"reinitialized", "perturbed"} & pt.flags)


class Checker:
    """Workload-independent checks; subclasses add the eigenvalue oracle."""

    def __init__(self, build):
        self.built = build()
        self._mats: Dict[float, tuple] = {}

    def matrices(self, p: float):
        """(E, A) of the tracked form at p, from the checker's provider."""
        got = self._mats.get(p)
        if got is None:
            got = self._mats[p] = self.built.provider.matrices(p)
        return got

    def check(self, results) -> List[str]:
        problems = []
        for res in results:
            if res.trajectory is None:
                continue  # failed sweeps are counted, not checked
            name, traj, cfg = res.sweep.name, res.trajectory, res.sweep.cfg
            problems += [f"{name}: {msg}" for msg in self.check_sweep(res)]
            problems += [f"{name}: {msg}" for msg in self.check_common(traj, cfg)]
        return problems

    def check_common(self, traj, cfg) -> List[str]:
        problems = []
        ptol = 1e-12 * max(1.0, abs(cfg.p_init), abs(cfg.p_fin))
        if abs(traj[-1].p - cfg.p_fin) > ptol:
            problems.append(f"last record at p={traj[-1].p}, sweep ends at {cfg.p_fin}")
        for i in range(1, len(traj)):
            m = mac(traj[i - 1].phi, traj[i].phi)
            if m < MIN_MAC:
                problems.append(f"mode hop at p={traj[i].p}: MAC {m:.4f} < {MIN_MAC}")
        tol = cfg.corrector.tol
        for i, pt in enumerate(traj):
            if not corrected(i, pt):
                continue
            E, A = self.matrices(pt.p)
            res = pencil_residual(E, A, pt.s, pt.phi)
            if not res <= tol:
                problems.append(f"residual {res:.2e} > {tol:.0e} at p={pt.p}")
            nrm = abs(pt.phi @ pt.phi - 1.0)
            if not nrm <= NORM_TOL:
                problems.append(f"|phi^T phi - 1| = {nrm:.1e} at p={pt.p}")
        return problems

    def check_sweep(self, res) -> List[str]:
        raise NotImplementedError


class FoldChecker(Checker):
    """Companion model: closed-form roots and fold flags near p = 1."""

    def check_sweep(self, res):
        problems = []
        for pt in res.trajectory:
            if "perturbed" in pt.flags:
                continue  # the deliberate imaginary offset, before correction
            err = np.min(np.abs(companion_roots(pt.p) - pt.s))
            if not err <= FOLD_ROOT_TOL:
                problems.append(f"s={pt.s} is {err:.1e} from a root at p={pt.p}")
        if res.sweep.name in ("down", "up") and not any(
                "fold_detected" in pt.flags and abs(pt.p - 1.0) <= FOLD_WINDOW
                for pt in res.trajectory):
            problems.append("no fold flagged near p=1")
        return problems


class PencilOracleChecker(Checker):
    """Multimachine sweeps: finite eigenvalues of the dense pencil (A, E).

    The oracle pencil is always built in pencil form, so for a sweep
    tracked on the reduced form it is a path apart from the Schur
    reduction the tracker used.
    """

    def __init__(self, build, jump_at=None):
        super().__init__(build)
        self.jump_at = jump_at
        if self.built.provider.form == "pencil":
            self.pencil = self.matrices
        else:
            oracle = dae.ModelPencilProvider(self.built.model, form="pencil")
            self.pencil = oracle.matrices
        self._eigs: Dict[float, np.ndarray] = {}

    def eigenvalues(self, p: float) -> np.ndarray:
        got = self._eigs.get(p)
        if got is None:
            E, A = self.pencil(p)
            got = self._eigs[p] = finite_pencil_eigenvalues(dense(E), dense(A))
        return got

    def check_sweep(self, res):
        problems = []
        for pt in res.trajectory:
            err = np.min(np.abs(self.eigenvalues(pt.p) - pt.s))
            if not err <= PENCIL_EIG_TOL:
                problems.append(f"s={pt.s} is {err:.1e} from the pencil "
                                f"spectrum at p={pt.p}")
        if self.jump_at is not None and not any(
                "jump_detected" in pt.flags
                and self.jump_at - JUMP_WINDOW <= pt.p < self.jump_at
                for pt in res.trajectory):
            problems.append(f"no jump flagged within {JUMP_WINDOW} below "
                            f"p={self.jump_at}")
        return problems


class ArpackChecker(Checker):
    """Synthetic pencil (E = I): ARPACK shift-invert eigenvalue nearest s."""

    def __init__(self, build):
        super().__init__(build)
        self._near: Dict[tuple, complex] = {}

    def nearest(self, p: float, s: complex) -> complex:
        key = (p, s)
        got = self._near.get(key)
        if got is None:
            _, A = self.built.provider.matrices(p)
            vals = spla.eigs(A.astype(complex), k=1, sigma=s,
                             return_eigenvectors=False)
            got = self._near[key] = complex(vals[0])
        return got

    def check_sweep(self, res):
        problems = []
        for pt in res.trajectory:
            err = abs(self.nearest(pt.p, pt.s) - pt.s)
            if not err <= ARPACK_TOL * max(1.0, abs(pt.s)):
                problems.append(f"s={pt.s} is {err:.1e} from ARPACK at p={pt.p}")
        return problems


def make_checker(name: str, build) -> Checker:
    """The checker for workload ``name``, on a provider from ``build()``."""
    if name == "fold_suite":
        return FoldChecker(build)
    if name == "droop_pencil":
        return PencilOracleChecker(build)
    if name == "governor_jump":
        return PencilOracleChecker(build, jump_at=JUMP_AT)
    if name == "synthetic_sparse":
        return ArpackChecker(build)
    raise ValueError(f"no checker for workload {name!r}")
