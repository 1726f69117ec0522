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

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .dae import (
    DaeModel,
    ModelPencilProvider,
    ParamDescriptor,
    PencilSample,
    fd_matrix_derivatives,
)
from .errors import (
    DimensionMismatch,
    DisconnectedNetwork,
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
    "sweep_parameter",
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
        T=lambda p: sp.identity(2, format="csc"),
        R=lambda p: sp.csc_matrix((0, 2)),
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
    p_max: Sequence[float] = ()         # pu (governor/dispatch limit)
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
            raise ValueError("need at least two machines")
        self.inertia = list(self.inertia) or [10.0] * k
        self.damping = list(self.damping) or [2.0] * k
        self.droop = list(self.droop) or [0.05] * k
        self.gov_T = list(self.gov_T) or [5.0] * k
        self.p_max = list(self.p_max) or [math.inf] * k
        for name in ("inertia", "damping", "droop", "gov_T", "p_max"):
            if len(getattr(self, name)) != k:
                raise ValueError(f"{name} must have one entry per machine")
        if not 0.0 <= self.z <= 1.0:
            raise ValueError("load mix share z must lie in [0, 1]")
        if self.mu < 0.0:
            raise ValueError("loading factor mu must be nonnegative")

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


_SWEEPABLE = ("droop", "droop_scale", "inertia_scale", "gov_T", "z", "mu",
              "p_max_0")


def _apply_param(spec: MultiMachineSpec, name: str, p: float) -> MultiMachineSpec:
    if name == "droop":
        return replace(spec, droop=[p] * spec.n_mach)
    if name == "droop_scale":
        return replace(spec, droop=[r * p for r in spec.droop])
    if name == "inertia_scale":
        return replace(spec, inertia=[m * p for m in spec.inertia])
    if name == "gov_T":
        return replace(spec, gov_T=[p] * spec.n_mach)
    if name == "z":
        return replace(spec, z=p)
    if name == "mu":
        return replace(spec, mu=p)
    if name == "p_max_0":
        return replace(spec, p_max=[p] + list(spec.p_max[1:]))
    raise ValueError(f"unknown sweep parameter {name!r}; "
                     f"expected one of {_SWEEPABLE}")


class _PowerFlow:
    """Steady-state solution of the network for one parameter value.

    Machine bus 0 starts as slack; if its computed dispatch exceeds the
    machine's active power limit, the flow is re-solved with that
    machine pinned at the limit, bus 1 taking over as slack, and the
    governor of the limited machine marked saturated.
    """

    def __init__(self, spec: MultiMachineSpec):
        spec.check_connected()
        self.spec = spec
        k = spec.n_mach
        self.dispatch_base = [spec.load_p] * k  # non-slack machine setpoints
        theta, vmag, pgen, saturated = self._solve(slack=0, pinned={})
        if pgen[0] > spec.p_max[0]:
            theta, vmag, pgen, saturated = self._solve(
                slack=1, pinned={0: spec.p_max[0]})
            saturated = {0}
        self.theta = theta
        self.vmag = vmag
        self.pgen = pgen
        self.saturated = saturated
        self._init_machines()

    def _loads(self, v: np.ndarray):
        spec = self.spec
        scale = 1.0 + spec.mu
        shape = spec.z * v ** 2 + (1.0 - spec.z)
        return scale * spec.load_p * shape, scale * spec.load_q * shape

    def _solve(self, slack: int, pinned: dict):
        spec = self.spec
        k, nb = spec.n_mach, spec.n_bus
        lines = spec.lines()
        mach_buses = list(range(k))
        load_buses = list(range(k, nb))
        nonslack = [b for b in range(nb) if b != slack]

        def dispatch(i):
            if i in pinned:
                return pinned[i]
            return self.dispatch_base[i]

        def mismatch(u):
            theta = np.zeros(nb)
            theta[nonslack] = u[: nb - 1]
            v = np.full(nb, spec.v_set)
            v[load_buses] = u[nb - 1:]
            pl, ql = self._loads(v[load_buses])
            P = np.zeros(nb)
            Q = np.zeros(nb)
            for i, j, b in lines:
                pij = v[i] * v[j] * b * math.sin(theta[i] - theta[j])
                P[i] -= pij
                P[j] += pij
                Q[i] -= b * (v[i] ** 2 - v[i] * v[j] * math.cos(theta[i] - theta[j]))
                Q[j] -= b * (v[j] ** 2 - v[i] * v[j] * math.cos(theta[i] - theta[j]))
            for i in mach_buses:
                if i != slack:
                    P[i] += dispatch(i)
            for idx, b in enumerate(load_buses):
                P[b] -= pl[idx]
                Q[b] -= ql[idx]
            return np.concatenate([P[nonslack], Q[load_buses]]), theta, v

        nun = (nb - 1) + k
        u = np.zeros(nun)
        u[nb - 1:] = spec.v_set
        for _ in range(50):
            F, theta, v = mismatch(u)
            if np.max(np.abs(F)) < 1e-12:
                break
            J = np.empty((nun, nun))
            for j in range(nun):
                h = 1e-7 * (1.0 + abs(u[j]))
                up = u.copy()
                up[j] += h
                Fp, _, _ = mismatch(up)
                J[:, j] = (Fp - F) / h
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"power flow Jacobian singular: {exc}")
            u = u + step
            if not np.all(np.isfinite(u)):
                raise NoConvergence("power flow iterate diverged")
        else:
            raise NoConvergence("power flow did not converge (loadability limit?)")
        # recover generated active/reactive power at machine buses
        pgen = np.zeros(k)
        qgen = np.zeros(k)
        for i, j, b in lines:
            pij = v[i] * v[j] * b * math.sin(theta[i] - theta[j])
            qi = b * (v[i] ** 2 - v[i] * v[j] * math.cos(theta[i] - theta[j]))
            qj = b * (v[j] ** 2 - v[i] * v[j] * math.cos(theta[j] - theta[i]))
            if i < k:
                pgen[i] += pij
                qgen[i] += qi
            if j < k:
                pgen[j] -= pij
                qgen[j] += qj
        self._qgen = qgen
        return theta, v, pgen, set()

    def _init_machines(self):
        """EMF behind transient reactance from the bus solution."""
        spec = self.spec
        k = spec.n_mach
        self.emf = np.zeros(k)
        self.delta0 = np.zeros(k)
        for i in range(k):
            vbus = self.vmag[i] * np.exp(1j * self.theta[i])
            s_inj = self.pgen[i] + 1j * self._qgen[i]
            current = np.conj(s_inj / vbus)
            e = vbus + 1j * spec.xd * current
            self.emf[i] = abs(e)
            self.delta0[i] = np.angle(e)


class _MultiMachine:
    """Closures plus per-parameter power-flow cache for the DAE form."""

    def __init__(self, spec: MultiMachineSpec, param: str):
        if param not in _SWEEPABLE:
            raise ValueError(f"unknown sweep parameter {param!r}")
        spec.check_connected()
        self.spec = spec
        self.param = param
        self._pf_cache: dict[float, _PowerFlow] = {}

    def pf(self, p: float) -> _PowerFlow:
        got = self._pf_cache.get(p)
        if got is None:
            got = _PowerFlow(_apply_param(self.spec, self.param, p))
            if len(self._pf_cache) > 64:
                self._pf_cache.clear()
            self._pf_cache[p] = got
        return got

    # state layout per machine: delta, omega[, gov]; algebraic layout:
    # theta (n_bus), vmag (n_bus), electrical power (n_mach)
    @property
    def per_mach(self) -> int:
        return 3 if self.spec.governors else 2

    @property
    def n(self) -> int:
        return self.per_mach * self.spec.n_mach

    @property
    def m(self) -> int:
        return 2 * self.spec.n_bus + self.spec.n_mach

    def split_y(self, y):
        nb = self.spec.n_bus
        return y[:nb], y[nb:2 * nb], y[2 * nb:]

    def f(self, x, y, p):
        spec = _apply_param(self.spec, self.param, p)
        pf = self.pf(p)
        k = spec.n_mach
        pm = self.per_mach
        theta, vmag, pe = self.split_y(y)
        out = np.empty(self.n)
        for i in range(k):
            delta = x[pm * i]
            omega = x[pm * i + 1]
            gov = x[pm * i + 2] if spec.governors else 0.0
            out[pm * i] = spec.omega_b * omega
            out[pm * i + 1] = pf.pgen[i] + gov - pe[i] - spec.damping[i] * omega
            if spec.governors:
                if i in pf.saturated:
                    out[pm * i + 2] = -gov
                else:
                    out[pm * i + 2] = -omega / spec.droop[i] - gov
        return out

    def g(self, x, y, p):
        spec = _apply_param(self.spec, self.param, p)
        pf = self.pf(p)
        k, nb = spec.n_mach, spec.n_bus
        pm = self.per_mach
        theta, vmag, pe = self.split_y(y)
        scale = 1.0 + spec.mu
        out = np.zeros(self.m)
        P = np.zeros(nb)
        Q = np.zeros(nb)
        for i, j, b in spec.lines():
            pij = vmag[i] * vmag[j] * b * math.sin(theta[i] - theta[j])
            P[i] -= pij
            P[j] += pij
            Q[i] -= b * (vmag[i] ** 2
                         - vmag[i] * vmag[j] * math.cos(theta[i] - theta[j]))
            Q[j] -= b * (vmag[j] ** 2
                         - vmag[i] * vmag[j] * math.cos(theta[j] - theta[i]))
        for i in range(k):
            delta = x[pm * i]
            pe_true = (pf.emf[i] * vmag[i] / spec.xd) * math.sin(delta - theta[i])
            out[i] = pe_true - pe[i]
            P[i] += pe_true
            Q[i] += (pf.emf[i] * vmag[i] * math.cos(delta - theta[i])
                     - vmag[i] ** 2) / spec.xd
        for idx in range(k):
            b = k + idx
            shape = spec.z * vmag[b] ** 2 + (1.0 - spec.z)
            P[b] -= scale * spec.load_p * shape
            Q[b] -= scale * spec.load_q * shape
        out[k:k + nb] = P
        out[k + nb:] = Q
        return out

    def equilibrium(self, model, p, guess):
        from .dae import Equilibrium

        pf = self.pf(p)
        spec = _apply_param(self.spec, self.param, p)
        k = spec.n_mach
        pm = self.per_mach
        x0 = np.zeros(self.n)
        for i in range(k):
            x0[pm * i] = pf.delta0[i]
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
    k = spec.n_mach

    def T(p):
        diag = []
        for i in range(k):
            diag.append(1.0)
            diag.append(spec.inertia[i] if param != "inertia_scale"
                        else spec.inertia[i] * p)
            if spec.governors:
                diag.append(spec.gov_T[i] if param != "gov_T" else p)
        return sp.diags(diag, format="csc")

    model = DaeModel(
        n=core.n, m=core.m, f=core.f, g=core.g,
        T=T,
        R=lambda p: sp.csc_matrix((core.m, core.n)),
        param=ParamDescriptor(param, p_init, p_fin),
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


def sweep_parameter(model: DaeModel, name: str) -> ModelPencilProvider:
    """Pencil provider sweeping the model's named parameter."""
    if name != model.param.name:
        raise ValueError(
            f"model is bound to parameter {model.param.name!r}, not {name!r}")
    return ModelPencilProvider(model)


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
        self.m = 0
        self.affine_in_p = True

    def clone(self):
        return self

    def matrices(self, p):
        return self._E, as_csc(self._A0 + p * self._A1)

    def sample(self, p, h_p=None):
        E, A = self.matrices(p)
        return PencilSample(E=E, A=A,
                            Edot=as_csc(sp.csc_matrix(self._E.shape)),
                            Adot=self._A1, p=p)

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
        self.m = 0
        self.affine_in_p = False
        diffs = np.diff(self.p_values)
        if len(self.p_values) < 1 or (len(diffs) and not
                                      (np.all(diffs > 0) or np.all(diffs < 0))):
            raise ManifestError("parameter values must be strictly monotone")

    def clone(self):
        return self

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
            return PencilSample(self._E[k], self._A[k], zero, zero, p)
        dpk = self.p_values[j] - self.p_values[k]
        Edot = as_csc((self._E[j] - self._E[k]) / dpk)
        Adot = as_csc((self._A[j] - self._A[k]) / dpk)
        return PencilSample(self._E[k], self._A[k], Edot, Adot, p)

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
