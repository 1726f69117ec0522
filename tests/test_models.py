"""Benchmark model factories, synthetic providers, and file-based pencils."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from eigtrack.dae import (
    Equilibrium,
    ModelPencilProvider,
    fd_jacobians,
    solve_equilibrium,
)
from eigtrack.errors import (
    DimensionMismatch,
    DisconnectedNetwork,
    ManifestError,
    NoConvergence,
)
from eigtrack.linalg import as_csc, eig_dense, write_matrix_market
from eigtrack.models import (
    MultiMachineSpec,
    SyntheticSparseProvider,
    companion_eigenvalues,
    load_model_spec,
    load_pencil_sequence,
    make_companion_fold,
    make_multimachine,
)

from conftest import dense
from eigtrack.models import _FlowEquations
from eigtrack.spectrum import EigenPair, participation_factors


def quadratic_roots(c, p):
    """Roots of s^2 + c s + p by the quadratic formula (complex-safe)."""
    disc = np.sqrt(complex(c * c - 4.0 * p))
    return sorted([(-c + disc) / 2.0, (-c - disc) / 2.0],
                  key=lambda z: (z.real, z.imag))


class TestCompanionFold:
    @pytest.mark.parametrize("p", [0.25, 0.75, 1.25, 2.0, 4.0])
    def test_dense_oracle_matches_quadratic_formula(self, p, companion_provider):
        got = sorted((s for s, _, _ in eig_dense(companion_provider.reduced(p))),
                     key=lambda z: (z.real, z.imag))
        want = quadratic_roots(2.0, p)
        assert np.allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("p", [0.25, 0.75, 1.25, 2.0, 4.0])
    def test_helper_matches_quadratic_formula(self, p):
        got = sorted(companion_eigenvalues(2.0, p),
                     key=lambda z: (z.real, z.imag))
        assert np.allclose(got, quadratic_roots(2.0, p), atol=1e-12)

    def test_fold_at_quarter_c_squared(self):
        # discriminant zero at p = c^2 / 4: both roots coalesce at -c/2
        a, b = companion_eigenvalues(2.0, 1.0)
        assert a == pytest.approx(-1.0)
        assert b == pytest.approx(-1.0)

    def test_declared_sweep_range(self):
        model = make_companion_fold()
        assert model.param.p_init == 2.0
        assert model.param.p_fin == 0.5

    def test_analytic_jacobians_match_finite_differences(self, companion_model):
        from eigtrack.dae import Equilibrium, fd_jacobians

        eq = Equilibrium(x0=np.zeros(2), y0=np.zeros(0), p=1.7)
        f_x, _, _, _ = companion_model.jacobians(eq.x0, eq.y0, 1.7)
        fd = fd_jacobians(companion_model, eq)
        assert np.allclose(np.asarray(f_x.todense() if sp.issparse(f_x) else f_x),
                           dense(fd.f_x), atol=1e-6)


def fr_mode_index(pairs, P, speed_idx, min_part=0.01, align_deg=10.0):
    """Index of the frequency-regulation mode, or None.

    The mode is identified among nonzero oscillatory modes whose speed
    participations are all significant, as the one whose eigenvector
    speed components are pairwise phase-aligned.
    """
    hits = []
    for i, pr in enumerate(pairs):
        if abs(pr.s) < 1e-6 or pr.s.imag < 1e-6:
            continue
        if np.abs(P[speed_idx, i]).min() < min_part:
            continue
        ang = np.angle(pr.right[speed_idx], deg=True)
        d = np.abs(((ang[:, None] - ang[None, :]) + 180.0) % 360.0 - 180.0)
        if d.max() < align_deg:
            hits.append(i)
    if len(hits) != 1:
        return None if not hits else hits
    return hits[0]


def participation_spread_deg(pairs, P, speed_idx, i):
    ang = np.angle(P[speed_idx, i], deg=True)
    d = np.abs(((ang[:, None] - ang[None, :]) + 180.0) % 360.0 - 180.0)
    return float(d.max())


def spectrum_with_participation(spec, p=1.0, param="droop_scale"):
    model = make_multimachine(spec, param=param)
    prov = ModelPencilProvider(model, form="reduced")
    pairs = [EigenPair(s=s, right=v, left=w)
             for s, v, w in eig_dense(prov.reduced(p), want_left=True)]
    return model, pairs, participation_factors(pairs)


class TestMultiMachine:
    def test_two_machines_no_governors_swing_structure(self):
        # classical two-machine analysis: one zero eigenvalue from the
        # angle reference, one real damping mode, one oscillatory
        # inter-machine pair
        model = make_multimachine(
            MultiMachineSpec(n_mach=2, governors=False),
            param="inertia_scale", p_init=1.0, p_fin=0.1)
        prov = ModelPencilProvider(model, form="reduced")
        vals = sorted((s for s, _, _ in eig_dense(prov.reduced(1.0))),
                      key=lambda z: (z.imag, z.real))
        assert len(vals) == 4
        assert min(abs(s) for s in vals) <= 1e-8
        osc = [s for s in vals if s.imag > 1e-6]
        assert len(osc) == 1
        assert osc[0].conjugate() in [min(vals, key=lambda z: abs(z - osc[0].conjugate()))]
        reals = sorted(s.real for s in vals if abs(s.imag) <= 1e-6 and abs(s) > 1e-8)
        assert len(reals) == 1 and reals[0] < 0.0

    def test_fr_mode_unique_and_participations_aligned(self):
        model, pairs, P = spectrum_with_participation(MultiMachineSpec())
        si = model.speed_indices
        i = fr_mode_index(pairs, P, si)
        assert isinstance(i, int)
        # the common mode is slow compared to the inter-machine swings
        swing = [p.s.imag for p in pairs if p.s.imag > 2.0]
        assert abs(pairs[i].s.imag) < min(swing) / 5.0
        # speed participations pairwise phase-aligned well inside 10 deg
        assert participation_spread_deg(pairs, P, si, i) < 10.0
        # and coherent: every machine participates equally
        mags = np.abs(P[si, i])
        assert mags.min() > 0.9 * mags.max()

    def test_fr_mode_is_slowest_speed_participating_mode(self):
        model, pairs, P = spectrum_with_participation(MultiMachineSpec())
        si = model.speed_indices
        i = fr_mode_index(pairs, P, si)
        candidates = [
            j for j, pr in enumerate(pairs)
            if abs(pr.s) > 1e-6 and pr.s.imag > 1e-6
            and np.abs(P[si, j]).min() > 0.01
        ]
        assert i == min(candidates, key=lambda j: abs(pairs[j].s))

    def test_droop_detune_perturbs_alignment(self):
        # one governor detuned 10x: the coherent response degrades and
        # the participation phases fan out by orders of magnitude, while
        # the uniform-droop mode is aligned to numerical precision
        uni = spectrum_with_participation(MultiMachineSpec())
        det = spectrum_with_participation(
            MultiMachineSpec(droop=[0.5] + [0.05] * 5))
        spreads = []
        for model, pairs, P in (uni, det):
            si = model.speed_indices
            i = fr_mode_index(pairs, P, si)
            assert isinstance(i, int)
            spreads.append(participation_spread_deg(pairs, P, si, i))
        assert spreads[0] < 1e-4
        assert spreads[1] > 1e3 * spreads[0]

    def test_inertia_reduction_speeds_up_swing_modes(self):
        model = make_multimachine(MultiMachineSpec(),
                                  param="inertia_scale",
                                  p_init=1.0, p_fin=0.1)
        prov = ModelPencilProvider(model, form="reduced")
        freqs = []
        for p in [1.0, 0.8, 0.6, 0.4, 0.2]:
            vals = [s for s, _, _ in eig_dense(prov.reduced(p))]
            freqs.append(max(s.imag for s in vals))
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_droop_sweep_changes_only_governor_rows(self):
        model = make_multimachine(MultiMachineSpec(), param="droop")
        prov = ModelPencilProvider(model, form="pencil")
        E1, A1 = prov.matrices(0.05)
        E2, A2 = prov.matrices(0.2)
        assert np.count_nonzero(dense(abs(E1 - E2))) == 0
        diff = sp.coo_matrix(A1 - A2)
        changed = set(diff.row[np.abs(diff.data) > 1e-12].tolist())
        gov_rows = {3 * i + 2 for i in range(6)}
        assert changed
        assert changed <= gov_rows

    def test_loading_sweep_past_loadability_fails(self):
        model = make_multimachine(MultiMachineSpec(), param="mu",
                                  p_init=0.0, p_fin=1.5)
        prov = ModelPencilProvider(model)
        prov.reduced(0.0)  # base case solvable
        failed_at = None
        for p in np.linspace(0.0, 1.5, 16):
            try:
                prov.reduced(p)
            except NoConvergence:
                failed_at = p
                break
        assert failed_at is not None

    def test_load_mix_sweep_changes_bus_voltages(self):
        model = make_multimachine(MultiMachineSpec(mu=0.3), param="z",
                                  p_init=0.0, p_fin=1.0)
        e0 = solve_equilibrium(model, 0.0)
        e1 = solve_equilibrium(model, 1.0)
        assert np.max(np.abs(e0.y0 - e1.y0)) > 1e-6

    def test_governor_limit_activation_is_discontinuous(self):
        # machine dispatch is 0.8 pu; dropping P_max of machine 0 through
        # that value switches its governor state to algebraic and the
        # spectrum jumps
        model = make_multimachine(MultiMachineSpec(), param="p_max_0",
                                  p_init=1.0, p_fin=0.6)
        prov = ModelPencilProvider(model, form="reduced")

        def spectrum(p):
            return np.array(sorted(
                (s for s, _, _ in eig_dense(prov.reduced(p))),
                key=lambda z: (z.real, z.imag)))

        delta = 1e-6
        above = spectrum(0.8 + delta)
        below = spectrum(0.8 - delta)
        jump = np.max(np.abs(above - below))
        assert jump > 0.1
        # away from the switch the spectrum is parameter-continuous
        drift = np.max(np.abs(spectrum(0.9) - spectrum(0.9 - delta)))
        assert drift < 1e-4

    def test_pencil_dimensions_unchanged_by_saturation(self):
        model = make_multimachine(MultiMachineSpec(), param="p_max_0",
                                  p_init=1.0, p_fin=0.6)
        prov = ModelPencilProvider(model, form="pencil")
        E1, A1 = prov.matrices(0.9)
        E2, A2 = prov.matrices(0.7)
        assert E1.shape == E2.shape
        assert A1.shape == A2.shape

    @pytest.mark.parametrize("param, governors, expect", [
        ("inertia_scale", True, [1.0, 3.0, 5.0, 1.0, 6.0, 7.0]),
        ("gov_T", True, [1.0, 2.0, 1.5, 1.0, 4.0, 1.5]),
        ("droop", False, [1.0, 2.0, 1.0, 4.0]),
    ])
    def test_mass_matrix_diagonal(self, param, governors, expect):
        """T(p) = diag(1, M_i, T_gov,i) per machine, the swept entry at p."""
        spec = MultiMachineSpec(n_mach=2, inertia=[2.0, 4.0],
                                gov_T=[5.0, 7.0], governors=governors)
        T = make_multimachine(spec, param=param).T(1.5)
        assert T.format == "csc"
        assert np.array_equal(T.toarray(), np.diag(expect))

    def test_disconnected_network_rejected(self):
        with pytest.raises(DisconnectedNetwork):
            make_multimachine(MultiMachineSpec(b_ring=0.0))

    def test_spec_field_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiMachineSpec(n_mach=3, droop=[0.05, 0.05])


# (spec fields, swept parameter, p): the base case, machine 0 pinned at
# its governor limit, and a loaded network with voltage-dependent loads
NETWORK_CASES = {
    "base": ({}, "droop", 0.05),
    "saturated": ({}, "p_max_0", 0.7),
    "loaded": ({"mu": 0.3, "z": 0.5}, "z", 0.5),
    "no_governors": ({"n_mach": 2, "governors": False}, "inertia_scale", 0.5),
}


def network_case(name):
    fields, param, p = NETWORK_CASES[name]
    model = make_multimachine(MultiMachineSpec(**fields), param=param)
    return model, p


def loop_f_g(core, x, y, p):
    """Per-machine, per-line loop evaluation of the multimachine f and g."""
    pf = core.pf(p)
    spec = pf.spec
    k, nb, pm = spec.n_mach, spec.n_bus, core.per_mach
    theta, vmag, pe = y[:nb], y[nb:2 * nb], y[2 * nb:]
    f = np.empty(core.n)
    for i in range(k):
        omega = x[pm * i + 1]
        gov = x[pm * i + 2] if spec.governors else 0.0
        f[pm * i] = spec.omega_b * omega
        f[pm * i + 1] = pf.pgen[i] + gov - pe[i] - spec.damping[i] * omega
        if spec.governors:
            f[pm * i + 2] = (-gov if i in pf.saturated
                             else -omega / spec.droop[i] - gov)
    P = np.zeros(nb)
    Q = np.zeros(nb)
    for i, j, b in spec.lines():
        d = theta[i] - theta[j]
        pij = vmag[i] * vmag[j] * b * math.sin(d)
        P[i] -= pij
        P[j] += pij
        Q[i] -= b * (vmag[i] ** 2 - vmag[i] * vmag[j] * math.cos(d))
        Q[j] -= b * (vmag[j] ** 2 - vmag[i] * vmag[j] * math.cos(d))
    g = np.zeros(core.m)
    for i in range(k):
        dth = x[pm * i] - theta[i]
        pe_true = (pf.emf[i] * vmag[i] / spec.xd) * math.sin(dth)
        g[i] = pe_true - pe[i]
        P[i] += pe_true
        Q[i] += (pf.emf[i] * vmag[i] * math.cos(dth) - vmag[i] ** 2) / spec.xd
    for b in range(k, nb):
        shape = spec.z * vmag[b] ** 2 + (1.0 - spec.z)
        P[b] -= (1.0 + spec.mu) * spec.load_p * shape
        Q[b] -= (1.0 + spec.mu) * spec.load_q * shape
    g[k:k + nb] = P
    g[k + nb:] = Q
    return f, g


class TestNetworkEquations:
    @pytest.mark.parametrize("case", ["base", "saturated", "loaded"])
    def test_power_flow_jacobian_matches_central_difference(self, case):
        model, p = network_case(case)
        pf = model.core.pf(p)
        assert pf.saturated == ({0} if case == "saturated" else set())
        slack, pinned = ((1, {0: 0.7}) if pf.saturated else (0, {}))
        eqs = _FlowEquations(pf.spec, model.core.lines, slack, pinned)
        nb = pf.spec.n_bus
        u = np.concatenate([pf.theta[eqs.nonslack], pf.vmag[eqs.load_buses]])
        assert np.max(np.abs(eqs.mismatch(u))) < 1e-10
        rng = np.random.default_rng(3)
        for point in (u, u + 0.05 * rng.standard_normal(len(u))):
            J = eqs.jacobian(point)
            fd = np.empty_like(J)
            h = 1e-6
            for j in range(len(point)):
                e = np.zeros(len(point))
                e[j] = h
                fd[:, j] = (eqs.mismatch(point + e)
                            - eqs.mismatch(point - e)) / (2 * h)
            assert J.shape == (nb - 1 + pf.spec.n_mach,) * 2
            assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))

    @pytest.mark.parametrize("case", sorted(NETWORK_CASES))
    def test_vectorised_f_g_match_loop_oracle(self, case):
        model, p = network_case(case)
        eq = solve_equilibrium(model, p)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = eq.x0 + 0.05 * rng.standard_normal(model.n)
            y = eq.y0 + 0.05 * rng.standard_normal(model.m)
            f_ref, g_ref = loop_f_g(model.core, x, y, p)
            assert np.max(np.abs(model.f(x, y, p) - f_ref)) <= 1e-12
            assert np.max(np.abs(model.g(x, y, p) - g_ref)) <= 1e-12

    @pytest.mark.parametrize("case", sorted(NETWORK_CASES))
    def test_model_jacobians_match_central_difference(self, case):
        model, p = network_case(case)
        eq = solve_equilibrium(model, p)
        rng = np.random.default_rng(11)
        points = [(eq.x0, eq.y0),
                  (eq.x0 + 0.05 * rng.standard_normal(model.n),
                   eq.y0 + 0.05 * rng.standard_normal(model.m))]
        for x, y in points:
            fd = fd_jacobians(model, Equilibrium(x, y, p), scheme="central")
            blocks = model.core.jacobians(x, y, p)
            for name, got in zip(("f_x", "f_y", "g_x", "g_y"), blocks):
                ref = dense(getattr(fd, name))
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_governor_limit_switches_one_ulp_below_setpoint(self):
        # the lossless network dispatches exactly the 0.8 pu setpoint at
        # the slack, so the limit check flips between these two values
        core = make_multimachine(MultiMachineSpec(), param="p_max_0").core
        assert core.pf(0.8).saturated == set()
        assert core.pf(0.7999999999999999).saturated == {0}


class TestModelSpecFile:
    def test_round_trip(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "n_mach": 4, "droop": [0.04, 0.05, 0.06, 0.07], "z": 0.5}))
        spec = load_model_spec(path)
        assert spec.n_mach == 4
        assert spec.droop == [0.04, 0.05, 0.06, 0.07]
        assert spec.z == 0.5
        make_multimachine(spec)  # buildable

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"wrong_field": 1}')
        with pytest.raises(TypeError):
            load_model_spec(path)


class TestSyntheticSparseProvider:
    def test_dimensions_and_identity_e(self):
        prov = SyntheticSparseProvider(size=50, seed=1)
        E, A = prov.matrices(0.3)
        assert E.shape == (50, 50)
        assert (E != sp.identity(50, format="csc")).nnz == 0
        assert prov.r == 50

    def test_seed_reproducibility(self):
        a = SyntheticSparseProvider(size=30, seed=7).reduced(0.5)
        b = SyntheticSparseProvider(size=30, seed=7).reduced(0.5)
        c = SyntheticSparseProvider(size=30, seed=8).reduced(0.5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spectrum_is_stable_and_partly_complex(self):
        prov = SyntheticSparseProvider(size=60, seed=2)
        vals = [s for s, _, _ in eig_dense(prov.reduced(1.0))]
        assert max(s.real for s in vals) < 0.0
        assert any(abs(s.imag) > 1e-6 for s in vals)

    def test_sample_derivative_is_exact(self):
        prov = SyntheticSparseProvider(size=20, seed=3)
        smp = prov.sample(0.4)
        _, A1 = prov.matrices(0.4)
        _, A2 = prov.matrices(0.9)
        fd = (A2 - A1) / 0.5
        assert abs(fd - smp.Adot).max() < 1e-12


def write_pencil_files(tmp_path, entries):
    """Write Matrix Market pairs plus a manifest; return the manifest path."""
    lines = []
    for k, (p, E, A) in enumerate(entries):
        e_name, a_name = f"E{k}.mtx", f"A{k}.mtx"
        write_matrix_market(tmp_path / e_name, as_csc(E))
        write_matrix_market(tmp_path / a_name, as_csc(A))
        lines.append(f"{p}\t{e_name}\t{a_name}")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


class TestFilePencilSequence:
    def test_identity_sequence(self, tmp_path):
        eye = np.eye(3)
        manifest = write_pencil_files(tmp_path, [
            (0.0, eye, -1.0 * eye),
            (0.5, eye, -2.0 * eye),
            (1.0, eye, -3.0 * eye),
        ])
        prov = load_pencil_sequence(manifest)
        assert prov.r == 3
        E, A = prov.matrices(0.5)
        assert np.allclose(A.toarray(), -2.0 * eye)
        assert np.allclose(prov.reduced(1.0), -3.0 * eye)

    def test_neighbor_difference_derivative(self, tmp_path):
        eye = np.eye(2)
        manifest = write_pencil_files(tmp_path, [
            (0.0, eye, 0.0 * eye),
            (1.0, eye, -4.0 * eye),
        ])
        smp = load_pencil_sequence(manifest).sample(0.0)
        assert np.allclose(smp.Adot.toarray(), -4.0 * eye)
        assert smp.Edot.nnz == 0

    def test_off_grid_parameter_rejected(self, tmp_path):
        eye = np.eye(2)
        manifest = write_pencil_files(tmp_path, [(0.0, eye, -eye)])
        with pytest.raises(ValueError):
            load_pencil_sequence(manifest).matrices(0.3)

    def test_mismatched_dimensions(self, tmp_path):
        manifest = write_pencil_files(tmp_path, [
            (0.0, np.eye(2), -np.eye(2)),
            (1.0, np.eye(3), -np.eye(3)),
        ])
        with pytest.raises(DimensionMismatch):
            load_pencil_sequence(manifest)

    def test_non_monotone_parameters(self, tmp_path):
        eye = np.eye(2)
        manifest = write_pencil_files(tmp_path, [
            (0.0, eye, -eye), (1.0, eye, -eye), (0.5, eye, -eye)])
        with pytest.raises(ManifestError):
            load_pencil_sequence(manifest)

    def test_missing_file_reported(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("0.0\tnope_E.mtx\tnope_A.mtx\n")
        with pytest.raises(ManifestError):
            load_pencil_sequence(manifest)

    def test_malformed_line_reported(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("0.0 only-two-fields\n")
        with pytest.raises(ManifestError):
            load_pencil_sequence(manifest)
