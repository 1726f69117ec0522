"""Dense-oracle spectra, MAC matching, participation factors, references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigtrack.dae import (
    ModelPencilProvider,
    assemble_pencil,
    reduce_state_matrix,
)
from eigtrack.errors import DegeneratePair, NoCandidate, ZeroVector
from eigtrack.linalg import as_csc, eig_dense
from eigtrack.spectrum import (
    EigenPair,
    best_match,
    damping_ratio,
    frequency_hz,
    full_spectrum,
    mac,
    participation_factors,
    reference_trajectory,
    write_spectrum_csv,
)

from conftest import simple_blocks


class MatrixProvider:
    """Fixed-function dense provider for oracle tests."""

    def __init__(self, fn, n):
        self.fn = fn
        self.n = self.r = n
        self.affine_in_p = False

    def matrices(self, p):
        A = as_csc(self.fn(p))
        return as_csc(np.eye(self.n)), A

    def reduced(self, p):
        return np.asarray(self.fn(p), dtype=float)

    def lift(self, p, v):
        return np.asarray(v)


def spring_chain():
    """Symmetric two-mass spring chain: states (x1, v1, x2, v2).

    Unit masses, unit ground springs, and a coupling spring between the
    masses; light uniform damping keeps the modes strictly complex.
    """
    k, kc, d = 1.0, 0.5, 0.1
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-(k + kc), -d, kc, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [kc, 0.0, -(k + kc), -d],
    ])


class TestFullSpectrum:
    def test_reduced_scalar_block_example(self):
        blocks = simple_blocks()

        class BlockProvider(MatrixProvider):
            def __init__(self):
                super().__init__(lambda p: reduce_state_matrix(blocks), 1)

        pairs = full_spectrum(BlockProvider(), 0.0)
        assert len(pairs) == 1
        assert pairs[0].s == pytest.approx(-0.5, abs=1e-12)

    def test_decoupled_diagonal(self):
        pairs = full_spectrum(MatrixProvider(lambda p: np.diag([-1.0, -2.0]), 2), 0.0)
        assert sorted(p.s.real for p in pairs) == pytest.approx([-2.0, -1.0])

    def test_real_matrix_conjugate_symmetry(self):
        pairs = full_spectrum(MatrixProvider(lambda p: spring_chain(), 4), 0.0)
        vals = sorted((p.s for p in pairs), key=lambda z: (z.real, z.imag))
        conj = sorted((p.s.conjugate() for p in pairs),
                      key=lambda z: (z.real, z.imag))
        assert np.allclose(vals, conj)

    def test_pencil_coordinate_lift(self, coupled_dae_model):
        prov = ModelPencilProvider(coupled_dae_model, form="pencil")
        pairs = full_spectrum(prov, 0.3, pencil_coords=True)
        E, A = prov.matrices(0.3)
        for pair in pairs:
            res = np.linalg.norm(pair.s * (E @ pair.right) - A @ pair.right)
            assert res / np.linalg.norm(pair.right) <= 1e-6

    def test_pencil_coordinates_one_elimination(self, monkeypatch):
        # 18 modes of the droop pencil: the reduction and one lift of the
        # whole eigenvector matrix factor T and the Schur complement twice
        from eigtrack import dae
        from eigtrack.models import MultiMachineSpec, make_multimachine

        prov = ModelPencilProvider(
            make_multimachine(MultiMachineSpec(), param="droop",
                              p_init=0.2, p_fin=0.02), form="pencil")
        E, A = prov.matrices(0.2)
        lus = []
        lu = dae.lu_factor
        monkeypatch.setattr(dae, "lu_factor",
                            lambda M: lus.append(M.shape) or lu(M))
        pairs = full_spectrum(prov, 0.2, pencil_coords=True)
        assert len(pairs) == prov.n == 18
        assert len(lus) == 4
        for pair in pairs:
            assert len(pair.right) == prov.r
            res = np.linalg.norm(pair.s * (E @ pair.right) - A @ pair.right)
            assert res / np.linalg.norm(pair.right) <= 1e-8


class TestMac:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0j])
        assert mac(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert mac(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_complex_scale_invariance(self):
        v = np.array([1.0, -2.0, 0.5j])
        assert mac(v, 2.0j * v) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            mac(np.zeros(2), np.ones(2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000),
           st.floats(0.01, 100.0), st.floats(-np.pi, np.pi))
    def test_scalar_invariance_property(self, seed, mag, phase):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        scale = mag * np.exp(1j * phase)
        assert mac(a, scale * b) == pytest.approx(mac(a, b), abs=1e-9)
        assert mac(scale * a, b) == pytest.approx(mac(a, b), abs=1e-9)


class TestBestMatch:
    def test_identity_on_same_list(self):
        pairs = full_spectrum(MatrixProvider(lambda p: spring_chain(), 4), 0.0)
        assert [best_match(pairs, pr.right)[0] for pr in pairs] == list(range(4))
        assert all(best_match(pairs, pr.right)[1] == pytest.approx(1.0)
                   for pr in pairs)

    def test_recovers_permutation(self):
        pairs = full_spectrum(MatrixProvider(lambda p: spring_chain(), 4), 0.0)
        shuffled = [pairs[2], pairs[3], pairs[0], pairs[1]]
        assert [best_match(shuffled, pr.right, pr.s)[0]
                for pr in pairs] == [2, 3, 0, 1]

    def test_crossing_modes_follow_eigenvectors(self):
        # Decoupled 2-mode family: eigenvalues cross at p = 0 but each
        # keeps its own coordinate eigenvector.  Distance matching at the
        # crossing +/- delta would swap the labels; MAC must not.
        def A(p):
            return np.diag([-1.0 + p, -1.0 - p])

        before = full_spectrum(MatrixProvider(A, 2), -0.05)
        after = full_spectrum(MatrixProvider(A, 2), 0.05)
        for pr in before:
            j, m = best_match(after, pr.right, pr.s)
            assert m == pytest.approx(1.0)
            assert mac(pr.right, after[j].right) == pytest.approx(1.0)
        # the labels crossed in eigenvalue order: -1.05 -> -0.95
        assert before[0].s.real == pytest.approx(-1.05)
        j, _ = best_match(after, before[0].right, before[0].s)
        assert after[j].s.real == pytest.approx(-0.95)

    def test_empty_rejected(self):
        with pytest.raises(NoCandidate):
            best_match([], np.ones(2))

    def test_equal_mac_tie_goes_to_nearer_s_then_first_index(self):
        v = np.array([1.0 + 0j, 0.0])
        pairs = [EigenPair(s=-3.0, right=v), EigenPair(s=-1.0, right=2j * v),
                 EigenPair(s=0.0, right=np.array([0.0, 1.0 + 0j]))]
        assert best_match(pairs, v, s_ref=-1.2) == (1, 1.0)
        assert best_match(pairs, v, s_ref=-2.9) == (0, 1.0)
        assert best_match(pairs, v) == (0, 1.0)


class TestParticipationFactors:
    def spectrum_with_left(self, A):
        return [EigenPair(s=s, right=v, left=w)
                for s, v, w in eig_dense(A, want_left=True)]

    def test_diagonal_matrix_identity_participation(self):
        P = participation_factors(self.spectrum_with_left(np.diag([-1.0, -2.0, -3.0])))
        assert np.allclose(np.abs(P), np.eye(3), atol=1e-12)

    def test_mode_sums_to_one(self):
        rng = np.random.default_rng(5)
        P = participation_factors(self.spectrum_with_left(rng.standard_normal((6, 6))))
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-10)

    def test_spring_chain_in_phase_mode_symmetric(self):
        pairs = self.spectrum_with_left(spring_chain())
        # in-phase mode: the slower oscillatory pair (coupling spring idle)
        osc = [p for p in pairs if p.s.imag > 1e-6]
        in_phase = min(osc, key=lambda p: abs(p.s.imag))
        P = participation_factors(pairs)
        i = pairs.index(in_phase)
        # speed states are indices 1 and 3; symmetry makes them equal
        assert abs(P[1, i]) == pytest.approx(abs(P[3, i]), rel=1e-8)

    def test_missing_left_vector_rejected(self):
        with pytest.raises(ValueError):
            participation_factors([EigenPair(s=-1.0, right=np.ones(2))])

    def test_degenerate_pair_detected(self):
        # Jordan block: left and right vectors of the defective eigenvalue
        # are orthogonal, so psi phi = 0.
        J = np.array([[2.0, 1.0], [0.0, 2.0]])
        pairs = [EigenPair(s=2.0, right=np.array([1.0, 0.0]),
                           left=np.array([0.0, 1.0]))]
        with pytest.raises(DegeneratePair):
            participation_factors(pairs)


class TestReferenceTrajectory:
    def test_scalar_linear_grid(self):
        prov = MatrixProvider(lambda p: np.array([[-p]]), 1)
        ref = reference_trajectory(prov, [0.0, 0.5, 1.0],
                                   full_spectrum(prov, 0.0)[0])
        assert np.allclose(ref.tracked_values(), [0.0, -0.5, -1.0])

    def test_companion_fold_flags_low_mac(self, companion_provider):
        # grid straddles the fold at p = 1 (1.04 -> 0.96) so the pairing
        # sees the eigenvector discontinuity in one step
        grid = np.arange(2.0, 0.5, -0.08)
        pairs = full_spectrum(companion_provider, 2.0)
        seed = max(range(2), key=lambda i: pairs[i].s.imag)
        ref = reference_trajectory(companion_provider, grid, pairs[seed],
                                   low_mac=0.99)
        # the eigenvector is discontinuous at the fold (p = 1)
        assert ref.low_mac_steps
        flagged_p = [grid[k] for k in ref.low_mac_steps]
        assert any(0.9 <= p <= 1.1 for p in flagged_p)

    def test_constant_provider_constant_trajectory(self):
        prov = MatrixProvider(lambda p: spring_chain(), 4)
        ref = reference_trajectory(prov, [0.0, 1.0, 2.0],
                                   full_spectrum(prov, 0.0)[1])
        vals = ref.tracked_values()
        assert np.allclose(vals, vals[0])
        assert not ref.low_mac_steps


class TestSpectrumCsv:
    def test_schema_and_values(self, tmp_path):
        pairs = [EigenPair(s=-1.0 + 2.0j, right=np.array([1.0 + 0j]))]
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, pairs)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,s_re,s_im,damping_ratio,frequency_hz"
        cells = lines[1].split(",")
        assert float(cells[1]) == -1.0
        assert float(cells[3]) == pytest.approx(1.0 / np.sqrt(5.0))
        assert float(cells[4]) == pytest.approx(2.0 / (2 * np.pi))


class TestScalars:
    def test_damping_ratio(self):
        assert damping_ratio(-1.0 + 1.0j) == pytest.approx(1 / np.sqrt(2))
        assert damping_ratio(0.0) == 0.0

    def test_frequency(self):
        assert frequency_hz(-0.5 + 2 * np.pi * 1j) == pytest.approx(1.0)
