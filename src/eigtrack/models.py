"""Built-in parameterized test systems and file-based pencil ingestion.

``make_companion_fold`` builds the 2-state oscillator whose eigenvalues
are the roots of s^2 + c s + p = 0; it has an analytic quadratic fold
at p = c^2/4 and is the workhorse for fold/branch tests.

``make_multimachine`` builds a desk-scale multi-machine frequency
model: swing dynamics with first-order turbine-governor filters,
machines behind transient reactances, and an algebraic lossless network
with voltage-dependent load mix.  It exhibits one coherent
low-frequency mode with phase-aligned speed participations (a
frequency-regulation mode surrogate), loadability limits, and a genuine
spectrum discontinuity when a governor output limit activates.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .dae import DaeModel, Equilibrium, ParamDescriptor, PencilSample, memo_put
from .errors import (
    DimensionMismatch,
    DisconnectedNetwork,
    InvalidSpec,
    ManifestError,
    NoConvergence,
    OffGrid,
    SingularMatrix,
)
from .linalg import as_csc, lu_factor, read_matrix_market

__all__ = [
    "make_companion_fold",
    "companion_eigenvalues",
    "MultiMachineSpec",
    "make_multimachine",
    "load_model_spec",
    "SyntheticSparseProvider",
    "FilePencilProvider",
    "load_pencil_sequence",
]


# ---------------------------------------------------------------------------
# Companion fold model
# ---------------------------------------------------------------------------

def make_companion_fold(c: float = 2.0, p_init: float = 2.0,
                        p_fin: float = 0.5) -> DaeModel:
    """Two-state model x1' = x2, x2' = -p x1 - c x2 (T = I, m = 0).

    Eigenvalues are the roots of s^2 + c s + p; the complex pair
    coalesces into a defective double eigenvalue at p = c^2/4.
    """
    if c <= 0:
        raise ValueError("damping must be positive")

    def f(x, y, p):
        return np.array([x[1], -p * x[0] - c * x[1]])

    def g(x, y, p):
        return np.empty(0)

    def jac(x, y, p):
        f_x = np.array([[0.0, 1.0], [-p, -c]])
        return f_x, np.empty((2, 0)), np.empty((0, 2)), np.empty((0, 0))

    return DaeModel(
        n=2, m=0, f=f, g=g,
        T=lambda p: np.eye(2),
        R=lambda p: np.zeros((0, 2)),
        param=ParamDescriptor("p", p_init, p_fin),
        jacobians=jac,
        guess=(np.zeros(2), np.empty(0)),
        affine_in_p=True,
    )


def companion_eigenvalues(c: float, p: float) -> Tuple[complex, complex]:
    """Quadratic-formula oracle for the companion fold model."""
    disc = complex(c * c - 4.0 * p)
    root = np.sqrt(disc)
    return (-c + root) / 2.0, (-c - root) / 2.0


# ---------------------------------------------------------------------------
# Multi-machine frequency model
# ---------------------------------------------------------------------------

@dataclass
class MultiMachineSpec:
    """Parameters of the multi-machine test system.

    Machine i sits at bus i; bus ``n_mach + i`` is its load bus.  Lines
    connect each machine bus to its load bus and the load buses in a
    ring.  ``z`` is the constant-impedance share of each load (the rest
    is constant power) and ``mu`` scales all loads by (1 + mu).
    """

    n_mach: int = 6
    inertia: Sequence[float] = ()       # s, per machine
    damping: Sequence[float] = ()       # pu
    droop: Sequence[float] = ()         # pu (governor droop R)
    gov_T: Sequence[float] = ()         # s (governor filter time constant)
    p_max: Sequence[float] = ()         # pu; only machine 0's limit is modelled
    governors: bool = True
    xd: float = 0.3                     # machine transient reactance, pu
    v_set: float = 1.0
    load_p: float = 0.8                 # pu, per load bus
    load_q: float = 0.2
    b_step: float = 8.0                 # machine-to-load-bus susceptance
    b_ring: float = 4.0                 # load-bus ring susceptance
    z: float = 0.0
    mu: float = 0.0
    omega_b: float = 2.0 * math.pi * 50.0

    def __post_init__(self):
        k = self.n_mach
        if k < 2:
            raise InvalidSpec("need at least two machines")
        self.inertia = list(self.inertia) or [10.0] * k
        self.damping = list(self.damping) or [2.0] * k
        self.droop = list(self.droop) or [0.05] * k
        self.gov_T = list(self.gov_T) or [5.0] * k
        self.p_max = list(self.p_max) or [math.inf] * k
        for name in ("inertia", "damping", "droop", "gov_T", "p_max"):
            if len(getattr(self, name)) != k:
                raise InvalidSpec(f"{name} must have one entry per machine")
        if not 0.0 <= self.z <= 1.0:
            raise InvalidSpec("load mix share z must lie in [0, 1]")
        if self.mu < 0.0:
            raise InvalidSpec("loading factor mu must be nonnegative")
        if min(self.p_max[1:]) < self.load_p:
            raise InvalidSpec("p_max of machines 1.. must be at least load_p: "
                              "only machine 0's limit is modelled")

    @property
    def n_bus(self) -> int:
        return 2 * self.n_mach

    def lines(self) -> List[Tuple[int, int, float]]:
        k = self.n_mach
        out = [(i, k + i, self.b_step) for i in range(k)]
        out += [(k + i, k + (i + 1) % k, self.b_ring) for i in range(k)]
        return out

    def check_connected(self) -> None:
        adj = {b: set() for b in range(self.n_bus)}
        for i, j, b in self.lines():
            if b != 0.0:
                adj[i].add(j)
                adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != self.n_bus:
            raise DisconnectedNetwork("bus graph is not connected")


# the swept spec at p, one function per sweepable parameter name
_SWEEPS = {
    "droop": lambda s, p: replace(s, droop=[p] * s.n_mach),
    "droop_scale": lambda s, p: replace(s, droop=[r * p for r in s.droop]),
    "inertia_scale": lambda s, p: replace(s, inertia=[m * p for m in s.inertia]),
    "gov_T": lambda s, p: replace(s, gov_T=[p] * s.n_mach),
    "z": lambda s, p: replace(s, z=p),
    "mu": lambda s, p: replace(s, mu=p),
    "p_max_0": lambda s, p: replace(s, p_max=[p, *s.p_max[1:]]),
}


def _line_arrays(spec: MultiMachineSpec):
    """Line endpoints and susceptances as arrays, plus per-bus sums of b."""
    fr, to, b = (np.array(col) for col in zip(*spec.lines()))
    bsum = np.bincount(fr, b, spec.n_bus) + np.bincount(to, b, spec.n_bus)
    return fr, to, b, bsum


def _network(lines, theta, v):
    """Injections (P, Q) that the lossless network draws from every bus.

    Line (i, j, b) carries v_i v_j b sin(theta_i - theta_j) from i to j
    and takes b (v_i^2 - v_i v_j cos(theta_i - theta_j)) of reactive
    power from each end.
    """
    fr, to, b, bsum = lines
    nb = len(theta)
    d = theta[fr] - theta[to]
    vv = v[fr] * v[to] * b
    vsin = vv * np.sin(d)
    vcos = vv * np.cos(d)
    P = np.bincount(to, vsin, nb) - np.bincount(fr, vsin, nb)
    Q = np.bincount(fr, vcos, nb) + np.bincount(to, vcos, nb) - bsum * v ** 2
    return P, Q


def _network_jacobian(lines, theta, v) -> np.ndarray:
    """Dense d(P, Q)/d(theta, v) of :func:`_network`, (2 nb) x (2 nb).

    With c = b cos(theta_i - theta_j) and s = b sin(theta_i -
    theta_j) on line (i, j): the flow v_i v_j s has angle partials
    (v_i v_j c, -v_i v_j c) and voltage partials (v_j s, v_i s); the
    term v_i v_j c in both ends' Q has angle partials (-v_i v_j s,
    v_i v_j s) and voltage partials (v_j c, v_i c); each bus's
    -bsum v^2 adds -2 bsum v on the Q/v diagonal.
    """
    fr, to, b, bsum = lines
    nb = len(theta)
    d = theta[fr] - theta[to]
    bs, bc = b * np.sin(d), b * np.cos(d)
    vv = v[fr] * v[to]
    vs, vc = vv * bs, vv * bc
    s_fr, s_to = v[to] * bs, v[fr] * bs
    c_fr, c_to = v[to] * bc, v[fr] * bc
    rows = np.concatenate(
        [fr, fr, to, to, nb + fr, nb + fr, nb + to, nb + to] * 2)
    cols = np.concatenate([fr, to] * 4 + [nb + fr, nb + to] * 4)
    vals = np.concatenate([
        -vc, vc, vc, -vc,           # dP/dtheta
        -vs, vs, -vs, vs,           # dQ/dtheta
        -s_fr, -s_to, s_fr, s_to,   # dP/dv
        c_fr, c_to, c_fr, c_to,     # dQ/dv
    ])
    J = np.bincount(rows * (2 * nb) + cols, vals, (2 * nb) ** 2)
    J = J.reshape(2 * nb, 2 * nb)
    diag = np.arange(nb, 2 * nb)
    J[diag, diag] -= 2.0 * bsum * v
    return J


class _FlowEquations:
    """Power-flow mismatch and its analytic Jacobian.

    Bus 0 is the slack, unless machine 0 is ``pinned`` at a dispatch:
    then bus 1 is.  The unknowns ``u`` are [non-slack bus angles;
    load-bus voltages] and the mismatch is [P at non-slack buses; Q at
    load buses]: the network injections plus machine dispatch minus the
    voltage-dependent load.  Machine buses other than the slack inject
    ``load_p`` (machine 0 the pinned value) and hold ``v_set``.
    """

    def __init__(self, spec: MultiMachineSpec, lines,
                 pinned: Optional[float] = None):
        k, nb = spec.n_mach, spec.n_bus
        slack = 0 if pinned is None else 1
        self.spec = spec
        self.lines = lines
        self.nonslack = np.delete(np.arange(nb), slack)
        self.load_buses = np.arange(k, nb)
        # positions of the unknowns in [theta; v] and of the mismatch
        # rows in [P; Q]
        self.rows = np.concatenate([self.nonslack, nb + self.load_buses])
        self.dispatch = np.zeros(nb)
        self.dispatch[:k] = spec.load_p
        if pinned is not None:
            self.dispatch[0] = pinned
        self.dispatch[slack] = 0.0
        scale = 1.0 + spec.mu
        self.demand_p = np.zeros(nb)
        self.demand_q = np.zeros(nb)
        self.demand_p[k:] = scale * spec.load_p
        self.demand_q[k:] = scale * spec.load_q

    def flat_start(self) -> np.ndarray:
        u = np.zeros(len(self.rows))
        u[len(self.nonslack):] = self.spec.v_set
        return u

    def buses(self, u):
        """Bus angles and voltage magnitudes for the unknowns u."""
        nb = self.spec.n_bus
        theta = np.zeros(nb)
        theta[self.nonslack] = u[:nb - 1]
        v = np.full(nb, self.spec.v_set)
        v[self.load_buses] = u[nb - 1:]
        return theta, v

    def mismatch(self, u) -> np.ndarray:
        spec = self.spec
        theta, v = self.buses(u)
        P, Q = _network(self.lines, theta, v)
        shape = spec.z * v ** 2 + (1.0 - spec.z)
        P += self.dispatch - self.demand_p * shape
        Q -= self.demand_q * shape
        return np.concatenate([P, Q])[self.rows]

    def jacobian(self, u) -> np.ndarray:
        """d mismatch / du: the network partials plus the load slopes."""
        nb = self.spec.n_bus
        theta, v = self.buses(u)
        J = _network_jacobian(self.lines, theta, v)
        diag = np.arange(nb)
        load_slope = 2.0 * self.spec.z * v
        J[diag, nb + diag] -= self.demand_p * load_slope
        J[nb + diag, nb + diag] -= self.demand_q * load_slope
        return J[np.ix_(self.rows, self.rows)]


# relative margin by which the unpinned flow's slack dispatch must exceed
# p_max[0] before machine 0 is pinned at its limit: far above the flow's
# 1e-12 stop, so a dispatch equal to the limit up to rounding stays free
GOV_LIMIT_TOL = 1e-9


class _PowerFlow:
    """One Newton solve of the network for one set of flow inputs.

    Of the fields ``_SWEEPS`` moves, the solve reads only z and mu from
    ``spec``; ``pinned`` holds machine 0 at that dispatch with its
    governor saturated, bus 1 taking over as slack.  Newton with the
    analytic Jacobian of :class:`_FlowEquations` runs from a flat start.
    """

    def __init__(self, spec: MultiMachineSpec, lines,
                 pinned: Optional[float] = None):
        eqs = _FlowEquations(spec, lines, pinned)
        u = eqs.flat_start()
        for _ in range(50):
            F = eqs.mismatch(u)
            if np.max(np.abs(F)) < 1e-12:
                break
            try:
                step = np.linalg.solve(eqs.jacobian(u), -F)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"power flow Jacobian singular: {exc}")
            u = u + step
            if not np.all(np.isfinite(u)):
                raise NoConvergence("power flow iterate diverged")
        else:
            raise NoConvergence("power flow did not converge (loadability limit?)")
        # generated active/reactive power at machine buses: what the
        # network draws from them
        k = spec.n_mach
        self.theta, self.vmag = eqs.buses(u)
        P, Q = _network(lines, self.theta, self.vmag)
        self.pgen, qgen = -P[:k], -Q[:k]
        self.saturated = set() if pinned is None else {0}
        self.gov_free = np.ones(k)
        self.gov_free[list(self.saturated)] = 0.0
        # EMF behind transient reactance from the bus solution
        vbus = self.vmag[:k] * np.exp(1j * self.theta[:k])
        current = np.conj((self.pgen + 1j * qgen) / vbus)
        e = vbus + 1j * spec.xd * current
        self.emf = np.abs(e)
        self.delta0 = np.angle(e)


class _MultiMachine:
    """Vectorised f/g closures plus a per-parameter power-flow cache.

    Per-machine quantities are numpy slices of the state (``x[0::pm]``
    angles, ``x[1::pm]`` speeds, ``x[2::pm]`` governor outputs) and the
    network sums use the line arrays built once here.  ``pf(p)`` builds
    the swept spec at p once and makes the governor-limit decision: the
    flow with machine 0 as slack, or, when that dispatch exceeds
    ``p_max[0]`` by more than ``GOV_LIMIT_TOL`` relative, the flow with
    machine 0 pinned at ``p_max[0]``; that flow raises
    :class:`InvalidSpec` when machine 1, its slack, exceeds ``p_max[1]``
    by the same margin.  Solved flows are shared by every
    p with the same ``(z, mu, pinned)``: a droop, inertia or governor
    time-constant sweep solves the flow once per instance, and a
    ``p_max_0`` sweep once unpinned plus once per saturated limit.
    """

    def __init__(self, spec: MultiMachineSpec, param: str):
        if param not in _SWEEPS:
            raise ValueError(f"unknown sweep parameter {param!r}")
        spec.check_connected()
        self.spec = spec
        self.param = param
        self.lines = _line_arrays(spec)
        self.damping = np.asarray(spec.damping, dtype=float)
        self.per_mach = 3 if spec.governors else 2
        self.n = self.per_mach * spec.n_mach
        self.m = 2 * spec.n_bus + spec.n_mach
        self._pf_cache: dict[float, _PowerFlow] = {}
        self._flows: dict[tuple, _PowerFlow] = {}

    def _flow(self, spec: MultiMachineSpec, pinned: Optional[float]):
        key = (spec.z, spec.mu, pinned)
        got = self._flows.get(key)
        if got is None:
            got = memo_put(self._flows, key, _PowerFlow(spec, self.lines, pinned))
        return got

    def pf(self, p: float) -> _PowerFlow:
        got = self._pf_cache.get(p)
        if got is None:
            spec = _SWEEPS[self.param](self.spec, p)
            limit = spec.p_max[0]
            flow = self._flow(spec, None)
            if flow.pgen[0] > limit + GOV_LIMIT_TOL * max(1.0, abs(limit)):
                flow = self._flow(spec, limit)
                cap = spec.p_max[1]  # machine 1 is the slack now
                if flow.pgen[1] > cap + GOV_LIMIT_TOL * max(1.0, abs(cap)):
                    raise InvalidSpec(
                        f"machine 1 would dispatch {flow.pgen[1]:.6g} pu, above "
                        f"its p_max {cap:.6g}, with machine 0 pinned at "
                        f"{limit:.6g} at p={p}: only machine 0's limit is "
                        "modelled")
            got = copy.copy(flow)  # shared by every p with its (z, mu, pinned)
            got.spec, got.droop = spec, np.asarray(spec.droop, dtype=float)
            memo_put(self._pf_cache, p, got)
        return got

    # state layout per machine: delta, omega[, gov]; algebraic layout:
    # theta (n_bus), vmag (n_bus), electrical power (n_mach)
    def split_y(self, y):
        nb = self.spec.n_bus
        return y[:nb], y[nb:2 * nb], y[2 * nb:]

    def f(self, x, y, p):
        pf = self.pf(p)
        spec = pf.spec
        pm = self.per_mach
        pe = self.split_y(y)[2]
        omega = x[1::pm]
        gov = x[2::pm] if spec.governors else 0.0
        out = np.empty(self.n)
        out[0::pm] = spec.omega_b * omega
        out[1::pm] = pf.pgen + gov - pe - self.damping * omega
        if spec.governors:
            out[2::pm] = -(omega / pf.droop) * pf.gov_free - gov
        return out

    def g(self, x, y, p):
        pf = self.pf(p)
        spec = pf.spec
        k = spec.n_mach
        theta, vmag, pe = self.split_y(y)
        P, Q = _network(self.lines, theta, vmag)
        dth = x[0::self.per_mach] - theta[:k]
        emf_v = pf.emf * vmag[:k]
        pe_true = (emf_v / spec.xd) * np.sin(dth)
        P[:k] += pe_true
        Q[:k] += (emf_v * np.cos(dth) - vmag[:k] ** 2) / spec.xd
        scale = 1.0 + spec.mu
        shape = spec.z * vmag[k:] ** 2 + (1.0 - spec.z)
        P[k:] -= scale * spec.load_p * shape
        Q[k:] -= scale * spec.load_q * shape
        return np.concatenate([pe_true - pe, P, Q])

    def jacobians(self, x, y, p):
        """Analytic ``(f_x, f_y, g_x, g_y)`` of :meth:`f` and :meth:`g`, dense.

        The rows of g are [pe_true - pe; P; Q] and its columns [theta;
        vmag; pe]: the network partials of :func:`_network_jacobian`,
        the machine terms pe_true = e v sin(delta - theta) / xd and
        (e v cos(delta - theta) - v^2) / xd at machine buses in P and Q,
        and the slopes of the voltage-dependent loads.
        """
        pf = self.pf(p)
        spec = pf.spec
        k, nb, pm = spec.n_mach, spec.n_bus, self.per_mach
        theta, vmag, _ = self.split_y(y)
        d = np.arange(0, self.n, pm)        # angle rows/columns
        mach = np.arange(k)
        f_x = np.zeros((self.n, self.n))
        f_y = np.zeros((self.n, self.m))
        f_x[d, d + 1] = spec.omega_b
        f_x[d + 1, d + 1] = -self.damping
        f_y[d + 1, 2 * nb + mach] = -1.0
        if spec.governors:
            f_x[d + 1, d + 2] = 1.0
            f_x[d + 2, d + 1] = -pf.gov_free / pf.droop
            f_x[d + 2, d + 2] = -1.0
        g_x = np.zeros((self.m, self.n))
        g_y = np.zeros((self.m, self.m))
        g_y[k:, :2 * nb] = _network_jacobian(self.lines, theta, vmag)
        g_y[mach, 2 * nb + mach] = -1.0
        dth = x[0::pm] - theta[:k]
        sin, cos = np.sin(dth), np.cos(dth)
        emf_v = pf.emf * vmag[:k] / spec.xd
        # d/d delta (= -d/d theta) and d/d v of pe_true and of the
        # machine-bus Q term, placed in the rows that carry them
        pe_delta, pe_v = emf_v * cos, pf.emf * sin / spec.xd
        q_delta, q_v = -emf_v * sin, (pf.emf * cos - 2.0 * vmag[:k]) / spec.xd
        for rows, by_delta, by_v in ((mach, pe_delta, pe_v),
                                     (k + mach, pe_delta, pe_v),
                                     (k + nb + mach, q_delta, q_v)):
            g_x[rows, d] = by_delta
            g_y[rows, mach] -= by_delta
            g_y[rows, nb + mach] += by_v
        loads = np.arange(k, nb)
        load_slope = 2.0 * (1.0 + spec.mu) * spec.z * vmag[k:]
        g_y[k + loads, nb + loads] -= spec.load_p * load_slope
        g_y[k + nb + loads, nb + loads] -= spec.load_q * load_slope
        return f_x, f_y, g_x, g_y

    def equilibrium(self, model, p):
        pf = self.pf(p)
        x0 = np.zeros(self.n)
        x0[0::self.per_mach] = pf.delta0
        y0 = np.concatenate([pf.theta, pf.vmag, pf.pgen])
        res = max(np.max(np.abs(self.f(x0, y0, p))),
                  np.max(np.abs(self.g(x0, y0, p))))
        if res > 1e-8:
            raise NoConvergence(f"steady-state residual {res:.2e} too large")
        return Equilibrium(x0, y0, p)

    def speed_indices(self) -> List[int]:
        return [self.per_mach * i + 1 for i in range(self.spec.n_mach)]


def make_multimachine(spec: Optional[MultiMachineSpec] = None,
                      param: str = "droop", p_init: float = 0.2,
                      p_fin: float = 0.02) -> DaeModel:
    """Semi-implicit multi-machine DAE swept through ``param``.

    The returned model carries the speed-state index list in
    ``model.speed_indices`` for participation-factor analysis.
    """
    spec = spec or MultiMachineSpec()
    core = _MultiMachine(spec, param)

    def T(p):
        swept = core.pf(p).spec
        cols = [np.ones(spec.n_mach), swept.inertia]
        if spec.governors:
            cols.append(swept.gov_T)
        return np.diag(np.column_stack(cols).ravel())

    model = DaeModel(
        n=core.n, m=core.m, f=core.f, g=core.g,
        T=T,
        R=lambda p: np.zeros((core.m, core.n)),
        param=ParamDescriptor(param, p_init, p_fin),
        jacobians=core.jacobians,
        equilibrium_solver=core.equilibrium,
        affine_in_p=False,
    )
    model.speed_indices = core.speed_indices()
    model.core = core
    return model


def load_model_spec(path) -> MultiMachineSpec:
    """Read a MultiMachineSpec from a JSON file."""
    import json

    with open(path) as fh:
        data = json.load(fh)
    return MultiMachineSpec(**data)


# ---------------------------------------------------------------------------
# Synthetic sparse provider (cost benchmarks)
# ---------------------------------------------------------------------------

class SyntheticSparseProvider:
    """Sparse tridiagonal pencil A(p) = A0 + p * diag(d), E = I.

    The skew off-diagonal part gives a genuinely complex spectrum; the
    affine parameter dependence makes derivative caching exact.
    """

    def __init__(self, size: int = 400, seed: int = 0, coupling: float = 1.0):
        rng = np.random.default_rng(seed)
        diag0 = -2.0 - rng.uniform(0.0, 1.0, size)
        off = rng.uniform(0.2, coupling, size - 1)
        self._A0 = sp.diags([off, diag0, -off], [-1, 0, 1], format="csc")
        self._A1 = sp.diags(rng.uniform(-1.0, 0.0, size), 0, format="csc")
        self._E = sp.identity(size, format="csc")
        self.n = self.r = size
        self.affine_in_p = True

    def matrices(self, p):
        return self._E, as_csc(self._A0 + p * self._A1)

    def sample(self, p, h_p=None):
        E, A = self.matrices(p)
        return PencilSample(E=E, A=A,
                            Edot=as_csc(sp.csc_matrix(self._E.shape)),
                            Adot=self._A1)

    def reduced(self, p):
        _, A = self.matrices(p)
        return A.toarray()

    def lift(self, p, phi_x):
        return np.asarray(phi_x)


# ---------------------------------------------------------------------------
# File-based pencil sequences
# ---------------------------------------------------------------------------

class FilePencilProvider:
    """Pencil sequence read from Matrix Market files, no interpolation.

    Evaluation is only defined at the listed parameter values;
    derivatives come from neighbor differences.
    """

    def __init__(self, p_values, E_list, A_list):
        self.p_values = list(p_values)
        self._E = E_list
        self._A = A_list
        shapes = {M.shape for M in E_list} | {M.shape for M in A_list}
        if len(shapes) != 1:
            raise DimensionMismatch(f"mixed pencil dimensions: {sorted(shapes)}")
        shape = shapes.pop()
        if shape[0] != shape[1]:
            raise DimensionMismatch("pencil matrices must be square")
        self.r = self.n = shape[0]
        self.affine_in_p = False
        diffs = np.diff(self.p_values)
        if len(self.p_values) < 1 or (len(diffs) and not
                                      (np.all(diffs > 0) or np.all(diffs < 0))):
            raise ManifestError("parameter values must be strictly monotone")

    def _index(self, p):
        tol = 1e-9 * max(1.0, max(abs(q) for q in self.p_values))
        for k, q in enumerate(self.p_values):
            if abs(p - q) <= tol:
                return k
        raise OffGrid(f"p={p} is not one of the listed parameter values")

    def matrices(self, p):
        k = self._index(p)
        return self._E[k], self._A[k]

    def sample(self, p, h_p=None):
        k = self._index(p)
        j = k + 1 if k + 1 < len(self.p_values) else k - 1
        if j < 0:
            zero = as_csc(sp.csc_matrix((self.r, self.r)))
            return PencilSample(self._E[k], self._A[k], zero, zero)
        dpk = self.p_values[j] - self.p_values[k]
        Edot = as_csc((self._E[j] - self._E[k]) / dpk)
        Adot = as_csc((self._A[j] - self._A[k]) / dpk)
        return PencilSample(self._E[k], self._A[k], Edot, Adot)

    def reduced(self, p):
        E, A = self.matrices(p)
        try:
            return lu_factor(E).solve(A.toarray())
        except SingularMatrix:
            raise SingularMatrix(
                "file pencil has singular E; no reduced form available")

    def lift(self, p, phi_x):
        return np.asarray(phi_x)


def load_pencil_sequence(manifest_path) -> FilePencilProvider:
    """Build a FilePencilProvider from a manifest file.

    Each non-comment line reads ``p <tab> E-file <tab> A-file`` with
    paths relative to the manifest location.
    """
    manifest_path = Path(manifest_path)
    p_values: List[float] = []
    E_list, A_list = [], []
    try:
        text = manifest_path.read_text()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}")
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ManifestError(f"line {ln}: expected 'p<TAB>E<TAB>A'")
        try:
            p = float(parts[0])
        except ValueError:
            raise ManifestError(f"line {ln}: bad parameter value {parts[0]!r}")
        e_path = manifest_path.parent / parts[1]
        a_path = manifest_path.parent / parts[2]
        for q in (e_path, a_path):
            if not q.exists():
                raise ManifestError(f"line {ln}: missing file {q}")
        p_values.append(p)
        E_list.append(read_matrix_market(e_path))
        A_list.append(read_matrix_market(a_path))
    if not p_values:
        raise ManifestError("manifest lists no pencils")
    return FilePencilProvider(p_values, E_list, A_list)
