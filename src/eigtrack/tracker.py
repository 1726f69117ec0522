"""Continuation core for tracking one eigenpair of a parameterized pencil.

The tracked quantity is the complex augmented vector [phi; s].  The
eigenproblem (sE - A) phi = 0 and the bilinear normalization
phi^T phi = 1 have no conjugation, so they are analytic in (phi, s);
differentiating them with respect to the parameter gives the complex
bordered (r+1)-dimensional system M [phi'; s'] = h with a
state-dependent matrix M, dense for r below ``DENSE_LIMIT`` and sparse
above it.  Tracking integrates this system with an explicit Euler or
classical Runge-Kutta predictor, optionally refines each step with a
Newton corrector on the exact eigenproblem, adapts the parameter step
from the eigenvalue displacement, and recovers from defective (fold)
points and trajectory discontinuities by flagged re-initialization.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Set

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateVector,
    EigtrackError,
    NoCandidate,
    NoConvergence,
    SingularMatrix,
    TrackingAborted,
)
from .linalg import lu_factor
# mac stays bound here: perfbench/tracing.py wraps tracker.mac
from .spectrum import best_match, full_spectrum, mac  # noqa: F401

__all__ = [
    "TrackerState",
    "NewtonConfig",
    "AdaptConfig",
    "TrackerConfig",
    "TrajectoryPoint",
    "Trajectory",
    "residual",
    "init_from_eigenpair",
    "assemble_system",
    "predict_fem",
    "predict_rk4",
    "correct_newton",
    "adapt_step",
    "perturb_epsilon",
    "detect_fold",
    "reinitialize",
    "track",
]

NORM_TOL = 1e-10
STEP_TOL = 1e-9
INIT_RES_TOL = 1e-6  # largest residual accepted for an initial eigenpair
MIN_MAC = 0.3  # weakest eigenvector match a re-initialization accepts
# Below this r, building and factoring the bordered system as a dense
# array costs less than scipy.sparse's per-call overhead.  One assemble,
# LU and solve on the tridiagonal SyntheticSparseProvider pencil is 0.1x
# the sparse time at r = 32, 0.9x at r = 128 and 1.4x at r = 144.
DENSE_LIMIT = 128


@dataclass
class TrackerState:
    """Augmented continuation state: eigenvector, eigenvalue, parameter."""

    phi: np.ndarray  # complex, length r, phi^T phi = 1
    s: complex
    p: float

    def copy(self) -> "TrackerState":
        return TrackerState(self.phi.copy(), self.s, self.p)


@dataclass
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 10


@dataclass
class AdaptConfig:
    enabled: bool = False
    lo: float = 0.04
    hi: float = 0.08
    dp_min: Optional[float] = None


@dataclass
class TrackerConfig:
    p_init: float
    p_fin: float
    dp_init: float
    predictor: str = "fem"  # "fem" | "rk4" | "none" (pure Newton)
    corrector: Optional[NewtonConfig] = field(default_factory=NewtonConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    epsilon_imag: float = 1e-6
    reperturb: bool = False
    h_p: Optional[float] = None
    reinit_policy: str = "never"  # "never" | "on_failure"

    def __post_init__(self):
        if self.predictor not in ("fem", "rk4", "none"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.predictor == "none" and self.corrector is None:
            raise ValueError("predictor 'none' needs a corrector")
        if self.reinit_policy not in ("never", "on_failure"):
            raise ValueError(f"unknown reinit policy {self.reinit_policy!r}")
        span = self.p_fin - self.p_init
        if span != 0.0 and self.dp_init * span <= 0:
            raise ValueError("dp_init sign must match the sweep direction")
        if not (0 < self.adapt.lo < self.adapt.hi):
            raise ValueError("adapt thresholds must satisfy 0 < lo < hi")

    @property
    def dp_min(self) -> float:
        if self.adapt.dp_min is not None:
            return self.adapt.dp_min
        return abs(self.dp_init) / 1024.0

    @property
    def dp_max(self) -> float:
        return 16.0 * abs(self.dp_init)


@dataclass
class TrajectoryPoint:
    p: float
    s: complex
    phi: np.ndarray
    residual: float
    dp_used: float
    corrector_iters: int
    flags: Set[str] = field(default_factory=set)


class Trajectory:
    """Ordered accepted records of a tracking run."""

    def __init__(self, points: Optional[List[TrajectoryPoint]] = None):
        self.points = points or []

    def append(self, pt: TrajectoryPoint) -> None:
        self.points.append(pt)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    @property
    def p_values(self) -> np.ndarray:
        return np.array([pt.p for pt in self.points])

    def has_flag(self, name: str) -> bool:
        return any(name in pt.flags for pt in self.points)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "s_re", "s_im", "residual", "dp",
                        "corrector_iters", "flags"])
            for pt in self.points:
                w.writerow([repr(float(pt.p)), repr(float(pt.s.real)),
                            repr(float(pt.s.imag)), repr(float(pt.residual)),
                            repr(float(pt.dp_used)),
                            pt.corrector_iters, ";".join(sorted(pt.flags))])

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        points = []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                flags = set(t for t in row["flags"].split(";") if t)
                points.append(TrajectoryPoint(
                    p=float(row["p"]),
                    s=complex(float(row["s_re"]), float(row["s_im"])),
                    phi=np.empty(0, dtype=complex),
                    residual=float(row["residual"]),
                    dp_used=float(row["dp"]),
                    corrector_iters=int(row["corrector_iters"]),
                    flags=flags))
        return cls(points)

    def to_json(self, path, include_vectors: bool = False) -> None:
        recs = []
        for pt in self.points:
            rec = {"p": pt.p, "s_re": pt.s.real, "s_im": pt.s.imag,
                   "residual": pt.residual, "dp": pt.dp_used,
                   "corrector_iters": pt.corrector_iters,
                   "flags": sorted(pt.flags)}
            if include_vectors:
                rec["phi_re"] = pt.phi.real.tolist()
                rec["phi_im"] = pt.phi.imag.tolist()
            recs.append(rec)
        with open(path, "w") as fh:
            json.dump(recs, fh, indent=1)


def residual(E, A, s: complex, phi: np.ndarray) -> float:
    """Relative pencil residual ||(sE - A) phi|| / ((|s| ||E||_F + ||A||_F) ||phi||)."""
    return _relative(s * (E @ phi) - A @ phi, s, phi, _fro_norms(E, A))


def _fro_norms(E, A):
    return sp.linalg.norm(E, "fro"), sp.linalg.norm(A, "fro")


def _relative(Pphi: np.ndarray, s: complex, phi: np.ndarray, norms) -> float:
    """:func:`residual` from Pphi = (sE - A) phi and (||E||_F, ||A||_F)."""
    nphi = np.linalg.norm(phi)
    if nphi == 0:
        raise ValueError("residual undefined for a zero vector")
    num = np.linalg.norm(Pphi)
    scale = (abs(s) * norms[0] + norms[1]) * nphi
    return float(num / scale) if scale > 0 else float(num)


def init_from_eigenpair(E, A, s: complex, phi: np.ndarray,
                        p: float = 0.0) -> TrackerState:
    """Build a tracker state from a computed eigenpair.

    The eigenvector is rescaled so that the bilinear product
    phi^T phi (no conjugation) equals 1.  A vector with
    phi^T phi = 0 is isotropic and cannot carry this normalization.
    """
    phi = np.asarray(phi, dtype=complex)
    res = residual(E, A, s, phi)
    if res > INIT_RES_TOL:
        raise ValueError(
            f"input eigenpair residual {res:.2e} exceeds {INIT_RES_TOL:.1e}")
    q = phi @ phi
    if abs(q) <= 1e-12 * np.linalg.norm(phi) ** 2:
        raise DegenerateVector("phi^T phi = 0; rotate the phase")
    phi = phi * np.sqrt(1.0 / q)
    return TrackerState(phi=phi, s=complex(s), p=p)


def assemble_system(E, A, state: TrackerState):
    """Bordered matrix M = [[sE - A, E phi], [phi^T, 0]] at ``state``:
    the predictors solve M [phi'; s'] = h, the corrector M delta = -G.

    M is a dense complex array when r < ``DENSE_LIMIT`` and a sparse CSC
    matrix otherwise; :func:`~eigtrack.linalg.lu_factor` takes either.
    """
    phi, s = state.phi, state.s
    r = len(phi)
    if r < DENSE_LIMIT:
        M = np.empty((r + 1, r + 1), dtype=complex)
        M[:r, :r] = s * E.toarray() - A.toarray()
        M[:r, r] = E @ phi
        M[r, :r] = phi
        M[r, r] = 0.0
        return M
    P = (s * E - A).tocoo()
    border = np.arange(r)
    rows = np.concatenate([P.row, border, np.full(r, r)])
    cols = np.concatenate([P.col, np.full(r, r), border])
    data = np.concatenate([P.data, E @ phi, phi])
    return sp.csc_matrix((data, (rows, cols)), shape=(r + 1, r + 1))


def _velocity(sample, state: TrackerState) -> np.ndarray:
    """[phi'; s'] from M [phi'; s'] = h with h = [(Adot - s Edot) phi; 0]:
    the differentiated eigenproblem and normalization phi^T phi' = 0."""
    M = assemble_system(sample.E, sample.A, state)
    h = np.append(sample.Adot @ state.phi - state.s * (sample.Edot @ state.phi),
                  0.0)
    return lu_factor(M).solve(h)


def predict_fem(sample, state: TrackerState, dp: float) -> TrackerState:
    """One explicit Euler step of length dp on M [phi'; s'] = h."""
    ydot = _velocity(sample, state)
    return TrackerState(phi=state.phi + dp * ydot[:-1],
                        s=complex(state.s + dp * ydot[-1]),
                        p=state.p + dp)


def predict_rk4(provider, state: TrackerState, dp: float,
                h_p: Optional[float] = None) -> TrackerState:
    """Classical 4-stage Runge-Kutta step; matrices rebuilt per stage.

    Each distinct stage parameter is sampled once: k2 and k3 share the
    sample at p0 + dp/2.
    """
    p0 = state.p
    sample0 = provider.sample(p0, h_p)
    if provider.affine_in_p:
        def stage_sample(p):
            E0, A0 = provider.matrices(p)
            return replace(sample0, E=E0, A=A0)
    else:
        def stage_sample(p):
            return provider.sample(p, h_p)

    def F(sample, p, y):
        return _velocity(sample, TrackerState(phi=y[:-1], s=complex(y[-1]), p=p))

    pm, p1 = p0 + dp / 2, p0 + dp
    y0 = np.append(state.phi, state.s)
    k1 = F(sample0, p0, y0)
    mid = stage_sample(pm)
    k2 = F(mid, pm, y0 + dp / 2 * k1)
    k3 = F(mid, pm, y0 + dp / 2 * k2)
    k4 = F(stage_sample(p1), p1, y0 + dp * k3)
    y = y0 + dp / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return TrackerState(phi=y[:-1], s=complex(y[-1]), p=p0 + dp)


def correct_newton(pencil, state: TrackerState, tol: float = 1e-10,
                   max_iter: int = 10):
    """Newton refinement onto the exact eigenproblem manifold.

    ``pencil`` is the pair (E, A) at ``state.p``; no parameter
    derivative enters.  Solves G(phi, s) = [(sE-A)phi; phi^T phi - 1] = 0
    in complex arithmetic (G is analytic: no conjugation).  Its Jacobian
    is diag(I, 2) M with M from :func:`assemble_system`, so each step
    solves M delta = -[(sE-A)phi; (phi^T phi - 1)/2].
    Returns (state, iterations).
    """
    E, A = pencil
    norms = _fro_norms(E, A)
    st = state.copy()
    ds_hist = [0.0, 0.0]
    for it in range(max_iter + 1):
        Pphi = st.s * (E @ st.phi) - A @ st.phi
        nrm = st.phi @ st.phi - 1.0
        # A near-defective eigenvalue lets the residual converge while the
        # iterate itself keeps drifting; requiring the last Newton update
        # on s to be small AND strongly contracting rejects such
        # ill-conditioned solutions instead of returning an eigenvalue
        # whose forward error dwarfs its residual.  (The contraction check
        # matters at the round-off floor, where a single update can be
        # accidentally tiny while the iterate still wanders at the defect
        # scale; near a defect updates only halve instead of collapsing.)
        scale = max(1.0, abs(st.s))
        step_ok = it == 0 or (
            ds_hist[-1] <= STEP_TOL * scale
            and (it == 1 or ds_hist[-1] <= 0.1 * ds_hist[-2]
                 or ds_hist[-1] <= 1e-13 * scale))
        if (_relative(Pphi, st.s, st.phi, norms) <= tol
                and abs(nrm) <= NORM_TOL and step_ok):
            return st, it
        if it == max_iter:
            break
        M = assemble_system(E, A, st)
        delta = lu_factor(M).solve(-np.append(Pphi, nrm / 2))
        ds_hist.append(abs(delta[-1]))
        y = np.append(st.phi, st.s) + delta
        if not np.all(np.isfinite(y)):
            raise NoConvergence("corrector iterate diverged")
        st = TrackerState(phi=y[:-1], s=complex(y[-1]), p=st.p)
    raise NoConvergence(f"corrector did not converge in {max_iter} iterations")


def adapt_step(ds_abs: float, dp: float, adapt: AdaptConfig,
               dp_min: float, dp_max: float) -> float:
    """Double below the low threshold, halve above the high one, clamp."""
    if dp == 0.0:
        raise ValueError("dp must be nonzero")
    if ds_abs < adapt.lo:
        dp = 2.0 * dp
    elif ds_abs > adapt.hi:
        dp = 0.5 * dp
    mag = min(max(abs(dp), dp_min), dp_max)
    return math.copysign(mag, dp)


def perturb_epsilon(state: TrackerState, eps: float) -> TrackerState:
    """Add a small imaginary part to a real eigenpair.

    Lets a real eigenvalue survive the merge into (and split out of) a
    complex pair instead of being stuck on the real axis.
    """
    if eps == 0.0:
        return state.copy()
    phi = state.phi.real + 1j * (state.phi.real * eps + state.phi.imag)
    q = phi @ phi
    phi = phi * np.sqrt(1.0 / q)
    return TrackerState(phi=phi, s=complex(state.s.real, eps), p=state.p)


def detect_fold(prev: TrackerState, next: TrackerState,
                eps: float = 1e-6) -> bool:
    """Fold test between two consecutive accepted states.

    Flags a sign flip of the imaginary part, a collapse of a clearly
    complex eigenvalue onto the real axis, or the emergence of a clearly
    complex eigenvalue from the real axis.
    """
    pi, ni = abs(prev.s.imag), abs(next.s.imag)
    if min(pi, ni) >= eps and (prev.s.imag > 0) != (next.s.imag > 0):
        return True
    return min(pi, ni) < eps and max(pi, ni) > 10.0 * eps


def reinitialize(provider, p: float, reference_phi: np.ndarray,
                 s_prev: Optional[complex] = None) -> TrackerState:
    """Restart from a full eigendecomposition at p.

    Picks the :func:`~eigtrack.spectrum.best_match` of ``reference_phi``
    (ties broken by eigenvalue distance to ``s_prev``) and raises
    :class:`NoCandidate` when its MAC is below ``MIN_MAC``.
    """
    pairs = full_spectrum(provider, p, pencil_coords=provider.r != provider.n)
    i, m = best_match(pairs, reference_phi, s_prev)
    if m < MIN_MAC:
        raise NoCandidate(f"best MAC {m:.3f} below {MIN_MAC} at p={p}")
    pair = pairs[i]
    E, A = provider.matrices(p)
    return init_from_eigenpair(E, A, pair.s, pair.right, p=p)


def _record(state: TrackerState, E, A, dp_used: float, iters: int,
            flags: Set[str]) -> TrajectoryPoint:
    return TrajectoryPoint(p=state.p, s=state.s, phi=state.phi.copy(),
                           residual=residual(E, A, state.s, state.phi),
                           dp_used=dp_used, corrector_iters=iters, flags=flags)


def _attempt(provider, state: TrackerState, dp: float, cfg: TrackerConfig):
    """One predictor step of length dp, then the corrector if configured.

    Returns ``(candidate, corrector iterations)``; the corrector reads
    only the candidate's ``(E, A)``.  The predictor and the corrector
    are looked up as module attributes on every call.
    """
    if cfg.predictor == "fem":
        cand = predict_fem(provider.sample(state.p, cfg.h_p), state, dp)
    elif cfg.predictor == "rk4":
        cand = predict_rk4(provider, state, dp, cfg.h_p)
    else:
        cand = TrackerState(state.phi.copy(), state.s, state.p + dp)
    if cfg.corrector is None:
        return cand, 0
    return correct_newton(provider.matrices(cand.p), cand,
                          tol=cfg.corrector.tol, max_iter=cfg.corrector.max_iter)


def track(provider, init: TrackerState, cfg: TrackerConfig) -> Trajectory:
    """Run the full continuation sweep from cfg.p_init to cfg.p_fin.

    Per step: run the predictor from the accepted p (the only reader of
    parameter derivatives) and optionally the Newton corrector on the
    pencil at the new p, adapt the step from |Delta s|, and record the
    accepted state.  A step whose corrector fails, or whose eigenvalue
    displacement exceeds four times the high adaptation threshold, is
    retried with a halved step down to dp_min; a displacement that survives
    at dp_min is accepted as a flagged jump (corrector on).  The next step
    starts from ``adapt_step`` of the accepted step when adaptivity is on,
    and from ``|dp_init|`` again when it is off, so a halved step never
    pins the rest of a non-adaptive sweep at dp_min.  A step that still
    fails at dp_min restarts from a full spectrum under
    ``cfg.reinit_policy == "on_failure"`` and aborts the sweep under
    ``"never"``.  Raises
    :class:`TrackingAborted` (carrying the partial trajectory) on
    unrecoverable failure; any other :class:`EigtrackError` out of a step
    (a failed re-initialization, a parameter off a tabulated provider's
    grid) is re-raised as one.
    """
    traj = Trajectory()
    state = init.copy()
    state.p = cfg.p_init
    span = cfg.p_fin - cfg.p_init
    first_flags: Set[str] = set()
    if cfg.epsilon_imag and state.s.imag == 0.0:
        eps_mag = cfg.epsilon_imag * max(1.0, abs(state.s))
        state = perturb_epsilon(state, eps_mag)
        first_flags.add("perturbed")
    eps_ref = (cfg.epsilon_imag or 1e-6) * max(1.0, abs(state.s))
    E0, A0 = provider.matrices(state.p)
    traj.append(_record(state, E0, A0, 0.0, 0, first_flags))
    if span == 0.0:
        return traj

    sgn = 1.0 if span > 0 else -1.0
    dp_base = math.copysign(abs(cfg.dp_init), sgn)
    dp = dp_base
    ptol = 1e-12 * max(1.0, abs(cfg.p_init), abs(cfg.p_fin))
    jump_bar = 4.0 * cfg.adapt.hi

    try:
        while (cfg.p_fin - state.p) * sgn > ptol:
            remaining = cfg.p_fin - state.p
            dp_step = math.copysign(min(abs(dp), abs(remaining)), sgn)
            while True:
                try:
                    new, iters = _attempt(provider, state, dp_step, cfg)
                    failure = None
                    ds = abs(new.s - state.s)
                except (SingularMatrix, NoConvergence) as exc:
                    failure, ds = exc, math.inf
                jumped = cfg.predictor != "none" and ds > jump_bar
                if ((failure is not None or jumped)
                        and abs(dp_step) > cfg.dp_min * (1 + 1e-9)):
                    dp_step = dp_step / 2.0
                    continue
                break

            flags = {"jump_detected"} if jumped else set()
            if failure is not None:
                if cfg.reinit_policy != "on_failure":
                    raise TrackingAborted(
                        f"step from p={state.p} failed at dp_min: {failure}",
                        trajectory=traj)
                new = reinitialize(provider, state.p + dp_step, state.phi,
                                   s_prev=state.s)
                iters, ds, flags = 0, abs(new.s - state.s), {"reinitialized"}
            # a predictor-only jump is recorded, then aborts the sweep
            uncertified = failure is None and jumped and cfg.corrector is None
            fold = not uncertified and detect_fold(state, new, eps=eps_ref)
            if fold:
                flags.add("fold_detected")
            E, A = provider.matrices(new.p)
            traj.append(_record(new, E, A, dp_step, iters, flags))
            if uncertified:
                raise TrackingAborted(
                    "predictor-only run cannot certify a trajectory jump "
                    f"at p={new.p}", trajectory=traj)
            state = new
            if (failure is None and cfg.reperturb and cfg.epsilon_imag
                    and abs(state.s.imag) < eps_ref):
                state = perturb_epsilon(
                    replace_real(state),
                    cfg.epsilon_imag * max(1.0, abs(state.s)))
            dp = dp_base
            if cfg.adapt.enabled:
                dp = adapt_step(ds, dp_step, cfg.adapt, cfg.dp_min, cfg.dp_max)
    except TrackingAborted:
        raise
    except EigtrackError as exc:
        raise TrackingAborted(
            f"step from p={state.p} stopped by {type(exc).__name__}: {exc}",
            trajectory=traj) from exc
    return traj


def replace_real(state: TrackerState) -> TrackerState:
    """Project a nearly-real state exactly onto the real axis."""
    return TrackerState(phi=state.phi.real.astype(complex),
                        s=complex(state.s.real, 0.0), p=state.p)
