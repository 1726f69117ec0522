"""Continuation core: complex bordered system, predictors, corrector,
adaptation, fold handling, re-initialization, and the full tracking loop."""

import concurrent.futures

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from eigtrack import tracker
from eigtrack.dae import ModelPencilProvider, PencilSample
from eigtrack.errors import (
    DegenerateVector,
    EigtrackError,
    NoCandidate,
    NoConvergence,
    TrackingAborted,
)
from eigtrack.linalg import as_csc, eig_dense
from eigtrack.models import companion_eigenvalues
from eigtrack.spectrum import full_spectrum, mac
from eigtrack.tracker import (
    AdaptConfig,
    NewtonConfig,
    Trajectory,
    TrackerConfig,
    TrackerState,
    adapt_step,
    assemble_system,
    correct_newton,
    detect_fold,
    init_from_eigenpair,
    perturb_epsilon,
    predict_fem,
    predict_rk4,
    reinitialize,
    residual,
    track,
)


def scalar_pencil(a):
    return as_csc(np.eye(1)), as_csc(np.array([[a]]))


def scalar_sample(a, adot=0.0):
    E, A = scalar_pencil(a)
    return PencilSample(E=E, A=A, Edot=as_csc(np.zeros((1, 1))),
                        Adot=as_csc(np.array([[adot]])))


def as_dense(M):
    """assemble_system's M as an ndarray, whichever path built it."""
    return M.toarray() if sp.issparse(M) else np.asarray(M)


def velocity(sample, state):
    """[phi'; s'] as an explicit Euler step of length 1 moves the state."""
    out = predict_fem(sample, state, 1.0)
    return np.append(out.phi - state.phi, out.s - state.s)


def companion_state(provider, p, which="imag_max"):
    pairs = full_spectrum(provider, p)
    key = {"imag_max": lambda e: (e.s.imag, e.s.real),
           "real_max": lambda e: e.s.real,
           "real_min": lambda e: -e.s.real}[which]
    pair = max(pairs, key=key)
    E, A = provider.matrices(p)
    return init_from_eigenpair(E, A, pair.s, pair.right, p=p)


class TestResidual:
    def test_exact_scalar_pair_is_zero(self):
        assert residual(as_csc(np.eye(1)), as_csc(np.array([[-2.0]])),
                        -2.0, np.array([1.0 + 0j])) == 0.0

    def test_unit_mismatch_example(self):
        # s = 0, E = A = [1], phi = [1]: ||-phi|| / ||A||_F = 1.
        assert residual(as_csc(np.eye(1)), as_csc(np.eye(1)),
                        0.0, np.array([1.0 + 0j])) == pytest.approx(1.0)

    def test_oracle_pairs_have_small_residual(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((10, 10))
        E = as_csc(np.eye(10))
        for s, v, _ in eig_dense(A):
            assert residual(E, as_csc(A), s, v) <= 1e-8

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            residual(as_csc(np.eye(1)), as_csc(np.eye(1)), 0.0,
                     np.zeros(1, dtype=complex))


class TestInitFromEigenpair:
    def test_scalar_rescale(self):
        st_ = init_from_eigenpair(as_csc(np.eye(1)), as_csc(np.array([[-2.0]])),
                                  -2.0, np.array([5.0 + 0j]))
        assert np.allclose(st_.phi, [1.0])
        assert st_.s == -2.0

    def test_isotropic_vector_rejected(self):
        with pytest.raises(DegenerateVector):
            init_from_eigenpair(as_csc(np.eye(2)), as_csc(np.eye(2)),
                                1.0, np.array([1.0, 1.0j]))

    def test_two_state_rescale(self):
        st_ = init_from_eigenpair(as_csc(np.eye(2)),
                                  as_csc(np.diag([-1.0, -3.0])),
                                  -1.0, np.array([2.0, 0.0]))
        assert np.allclose(st_.phi, [1.0, 0.0])

    def test_bad_residual_rejected(self):
        with pytest.raises(ValueError):
            init_from_eigenpair(as_csc(np.eye(1)), as_csc(np.array([[-2.0]])),
                                -1.0, np.array([1.0 + 0j]))


class TestAssembleSystem:
    def test_hand_built_scalar_system(self):
        # Real scalar eigenpair with Edot = 0, Adot = [adot]:
        # the continuation velocity is (phi', s') = (0, adot).
        adot = 0.37
        state = TrackerState(phi=np.array([1.0 + 0j]), s=-1.0, p=0.0)
        M = assemble_system(*scalar_pencil(-1.0), state)
        assert M.shape == (2, 2)
        assert np.iscomplexobj(as_dense(M))
        assert np.allclose(as_dense(M), [[0, 1], [1, 0]])
        ydot = velocity(scalar_sample(-1.0, adot=adot), state)
        assert np.allclose(ydot, [0, adot])
        assert np.allclose(as_dense(M) @ ydot, [adot, 0])  # h

    def test_stationary_pencil_gives_zero_rhs(self):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=-1.0, p=0.0)
        M = assemble_system(*scalar_pencil(-1.0), state)
        ydot = velocity(scalar_sample(-1.0, adot=0.0), state)
        assert np.allclose(as_dense(M) @ ydot, 0.0)

    def test_complex_rhs_is_adot_minus_s_edot_phi(self):
        # Complex pair: the first r entries of h are (Adot - s Edot) phi.
        # The eigenvector [1, i] is isotropic (phi^T phi = 0, M singular),
        # so h is read at a non-isotropic phi where M can be solved.
        Edot = np.array([[0.5, 0.0], [0.0, -0.25]])
        Adot = np.array([[1.0, 2.0], [0.0, 1.0]])
        sample = PencilSample(
            E=as_csc(np.eye(2)), A=as_csc(np.array([[-1.0, 1.0], [-1.0, -1.0]])),
            Edot=as_csc(Edot), Adot=as_csc(Adot))
        phi = np.array([1.0, 0.5j])
        s = -1.0 + 1.0j
        state = TrackerState(phi=phi, s=s, p=0.0)
        M = assemble_system(sample.E, sample.A, state)
        assert M.shape == (3, 3)
        dense = as_dense(M)
        h = dense @ velocity(sample, state)
        assert np.allclose(h[:2], (Adot - s * Edot) @ phi)
        assert abs(h[2]) <= 1e-12
        assert np.allclose(dense[:2, :2], s * np.eye(2) - sample.A.toarray())
        assert np.allclose(dense[:2, 2], phi)
        assert np.allclose(dense[2, :2], phi)

    def test_sparse_path_matches_dense(self, companion_provider, monkeypatch):
        # r = 2 is below DENSE_LIMIT; DENSE_LIMIT = 0 forces the CSC path
        state = companion_state(companion_provider, 2.0)
        sample = companion_provider.sample(2.0)
        pencil = companion_provider.matrices(2.05)
        start = predict_fem(sample, state, 0.05)

        def run():
            fixed, iters = correct_newton(pencil, start, tol=1e-12)
            return (assemble_system(sample.E, sample.A, state),
                    velocity(sample, state), fixed, iters)

        M_dense, v_dense, fix_dense, it_dense = run()
        monkeypatch.setattr(tracker, "DENSE_LIMIT", 0)
        M_sparse, v_sparse, fix_sparse, it_sparse = run()
        assert isinstance(M_dense, np.ndarray) and sp.issparse(M_sparse)
        assert np.array_equal(M_dense, M_sparse.toarray())
        assert np.allclose(v_dense, v_sparse, rtol=1e-12, atol=1e-12)
        assert it_dense == it_sparse > 0
        assert abs(fix_dense.s - fix_sparse.s) <= 1e-12 * abs(fix_sparse.s)
        assert np.allclose(fix_dense.phi, fix_sparse.phi, rtol=1e-12, atol=1e-12)

    def test_singular_e_velocity_matches_oracle(self, coupled_dae_model):
        # Pencil form of a DAE: E = [[T, R], [0, 0]] is singular.  For each
        # finite eigenvalue, the s' solved from the bordered system must
        # match a central difference of the dense oracle's eigenvalue.
        provider = ModelPencilProvider(coupled_dae_model, form="pencil")
        p, h = 0.3, 1e-3
        sample = provider.sample(p, h_p=1e-4)
        assert np.linalg.matrix_rank(sample.E.toarray()) < provider.r

        def oracle(q, s0):
            return min((e.s for e in full_spectrum(provider, q)),
                       key=lambda z: abs(z - s0))

        for pair in full_spectrum(provider, p, pencil_coords=True):
            state = init_from_eigenpair(sample.E, sample.A, pair.s, pair.right,
                                        p=p)
            sdot = velocity(sample, state)[-1]
            central = (oracle(p + h, pair.s) - oracle(p - h, pair.s)) / (2 * h)
            assert abs(sdot - central) <= 1e-4 * max(1.0, abs(central))


class TestPredictors:
    def test_fem_linear_eigenvalue_exact(self, scalar_linear_provider):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=0.0, p=0.0)
        sample = scalar_linear_provider.sample(0.0)
        out = predict_fem(sample, state, 0.1)
        # ds/dp = -1 exactly, but the FD Adot carries its own first-order
        # step error, so "exact" means up to the derivative step.
        assert out.s.real == pytest.approx(-0.1, abs=1e-6)
        assert out.p == pytest.approx(0.1)

    def test_fem_zero_rhs_keeps_state(self):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=-1.0, p=0.0)
        out = predict_fem(scalar_sample(-1.0), state, 0.05)
        assert out.s == state.s
        assert np.allclose(out.phi, state.phi)
        assert out.p == pytest.approx(0.05)

    def test_fem_local_error_second_order(self, companion_provider):
        errs = []
        for dp in (0.1, 0.05):
            state = companion_state(companion_provider, 2.0)
            sample = companion_provider.sample(2.0)
            out = predict_fem(sample, state, dp)
            oracle = companion_eigenvalues(2.0, 2.0 + dp)
            errs.append(min(abs(out.s - r) for r in oracle))
        assert 2.5 <= errs[0] / errs[1] <= 6.0  # about 4x for one halving

    def test_rk4_linear_eigenvalue_exact(self, scalar_linear_provider):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=0.0, p=0.0)
        out = predict_rk4(scalar_linear_provider, state, 0.1)
        assert out.s.real == pytest.approx(-0.1, abs=1e-6)

    def test_rk4_endpoint_accuracy(self, companion_provider):
        state = companion_state(companion_provider, 2.0)
        p = 2.0
        while p < 3.0 - 1e-12:
            state = predict_rk4(companion_provider, state, 0.05)
            p = state.p
        oracle = companion_eigenvalues(2.0, 3.0)
        assert min(abs(state.s - r) for r in oracle) <= 1e-6

    def test_rk4_samples_each_stage_p_once(self, coupled_dae_model):
        # k2 and k3 both read the sample at p0 + dp/2
        provider = ModelPencilProvider(coupled_dae_model, form="pencil")
        assert not provider.affine_in_p
        pair = full_spectrum(provider, 0.3, pencil_coords=True)[0]
        E, A = provider.matrices(0.3)
        state = init_from_eigenpair(E, A, pair.s, pair.right, p=0.3)
        sampled = []
        sample = provider.sample
        provider.sample = lambda p, h_p=None: sampled.append(p) or sample(p, h_p)
        predict_rk4(provider, state, 0.1)
        assert sampled == pytest.approx([0.3, 0.35, 0.4])


class TestCorrectNewton:
    def test_scalar_linear_single_iteration(self):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=-0.99, p=0.0)
        out, iters = correct_newton(scalar_pencil(-1.0), state, tol=1e-12)
        assert out.s == pytest.approx(-1.0, abs=1e-12)
        assert iters <= 2  # one Newton step plus the guard's confirmation

    def test_exact_input_zero_iterations(self):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=-1.0, p=0.0)
        out, iters = correct_newton(scalar_pencil(-1.0), state)
        assert iters == 0
        assert out.s == -1.0

    def test_far_start_with_tiny_budget_fails(self):
        pencil = (as_csc(np.eye(2)),
                  as_csc(np.array([[0.0, 1.0], [-2.0, -3.0]])))
        state = TrackerState(phi=np.array([1.0, 5.0j]), s=40.0 + 7.0j, p=0.0)
        with pytest.raises(NoConvergence):
            correct_newton(pencil, state, max_iter=1)

    def test_restores_normalization(self, companion_provider):
        state = companion_state(companion_provider, 2.0)
        state.phi = state.phi * 1.01  # spoil the normalization
        out, _ = correct_newton(companion_provider.matrices(2.0), state,
                                tol=1e-12)
        assert abs(out.phi @ out.phi - 1.0) <= 1e-10


class TestAdaptStep:
    def test_small_displacement_doubles(self):
        assert adapt_step(0.03, 0.0025, AdaptConfig(enabled=True),
                          1e-5, 1.0) == pytest.approx(0.005)

    def test_large_displacement_halves(self):
        assert adapt_step(0.1, 0.005, AdaptConfig(enabled=True),
                          1e-5, 1.0) == pytest.approx(0.0025)

    def test_in_band_unchanged(self):
        assert adapt_step(0.06, 0.004, AdaptConfig(enabled=True),
                          1e-5, 1.0) == pytest.approx(0.004)

    def test_clamped_to_bounds(self):
        assert adapt_step(0.01, 0.5, AdaptConfig(enabled=True), 1e-5, 0.6) \
            == pytest.approx(0.6)
        assert adapt_step(0.5, 2e-5, AdaptConfig(enabled=True), 1e-5, 0.6) \
            == pytest.approx(1e-5)

    def test_sign_preserved(self):
        assert adapt_step(0.03, -0.01, AdaptConfig(enabled=True),
                          1e-5, 1.0) == pytest.approx(-0.02)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            adapt_step(0.05, 0.0, AdaptConfig(enabled=True), 1e-5, 1.0)


class TestPerturbEpsilon:
    def test_adds_imaginary_part(self):
        state = TrackerState(phi=np.array([1.0 + 0j, 0.0 + 0j]), s=-1.0, p=0.0)
        out = perturb_epsilon(state, 1e-6)
        assert out.s == pytest.approx(-1.0 + 1e-6j)
        assert abs(out.phi @ out.phi - 1.0) <= 1e-12

    def test_zero_eps_is_identity(self):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=-1.0, p=0.0)
        out = perturb_epsilon(state, 0.0)
        assert out.s == state.s
        assert np.allclose(out.phi, state.phi)


class TestDetectFold:
    def test_collapse_flagged(self):
        prev = TrackerState(phi=np.ones(1, complex), s=-1.0 + 0.05j, p=0.0)
        nxt = TrackerState(phi=np.ones(1, complex), s=-1.0 + 1e-9j, p=0.1)
        assert detect_fold(prev, nxt, eps=1e-6)

    def test_smooth_decrease_not_flagged(self):
        prev = TrackerState(phi=np.ones(1, complex), s=-1.0 + 0.05j, p=0.0)
        nxt = TrackerState(phi=np.ones(1, complex), s=-1.0 + 0.04j, p=0.1)
        assert not detect_fold(prev, nxt, eps=1e-6)

    def test_sign_flip_flagged(self):
        prev = TrackerState(phi=np.ones(1, complex), s=-1.0 + 0.5j, p=0.0)
        nxt = TrackerState(phi=np.ones(1, complex), s=-1.0 - 0.5j, p=0.1)
        assert detect_fold(prev, nxt, eps=1e-6)

    def test_emergence_flagged(self):
        # A real eigenvalue turning clearly complex (splitting off a fold).
        prev = TrackerState(phi=np.ones(1, complex), s=-1.0 + 1e-9j, p=0.0)
        nxt = TrackerState(phi=np.ones(1, complex), s=-1.0 + 0.05j, p=0.1)
        assert detect_fold(prev, nxt, eps=1e-6)


class TestReinitialize:
    def test_picks_mac_best(self):
        class Diag:
            n = r = 2
            affine_in_p = True

            def matrices(self, p):
                return as_csc(np.eye(2)), as_csc(np.diag([-1.0, -2.0]))

            def reduced(self, p):
                return np.diag([-1.0, -2.0])

            def lift(self, p, v):
                return np.asarray(v)

        st_ = reinitialize(Diag(), 0.0, np.array([1.0, 0.0]))
        assert st_.s == pytest.approx(-1.0)

    def test_orthogonal_reference_no_candidate(self):
        class Fixed:
            n = r = 4
            affine_in_p = True

            def matrices(self, p):
                return as_csc(np.eye(4)), as_csc(-np.eye(4))

            def reduced(self, p):
                return -np.eye(4)

            def lift(self, p, v):
                return np.asarray(v)

        # -I has the coordinate eigenvectors e1..e4; each matches ones(4)
        # with MAC 1/4, below the 0.3 acceptance floor
        with pytest.raises(NoCandidate):
            reinitialize(Fixed(), 0.0, np.ones(4))


class TestTrack:
    def test_scalar_fem_no_corrector(self, scalar_linear_provider):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=0.0, p=0.0)
        cfg = TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=0.01,
                            predictor="fem", corrector=None, epsilon_imag=0.0)
        traj = track(scalar_linear_provider, state, cfg)
        # trajectory is linear in p, so explicit Euler is exact up to the
        # finite-difference error in Adot accumulated over 100 steps
        assert traj[-1].s.real == pytest.approx(-1.0, abs=1e-4)
        assert traj[-1].p == pytest.approx(1.0)

    def test_scalar_fem_with_corrector_exact(self, scalar_linear_provider):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=0.0, p=0.0)
        cfg = TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=0.01,
                            predictor="fem",
                            corrector=NewtonConfig(tol=1e-13),
                            epsilon_imag=0.0)
        traj = track(scalar_linear_provider, state, cfg)
        assert traj[-1].s.real == pytest.approx(-1.0, abs=1e-12)

    def test_zero_length_sweep_single_record(self, companion_provider):
        state = companion_state(companion_provider, 2.0)
        cfg = TrackerConfig(p_init=2.0, p_fin=2.0, dp_init=0.01)
        traj = track(companion_provider, state, cfg)
        assert len(traj) == 1
        assert traj[0].p == 2.0

    def test_companion_downward_matches_oracle(self, companion_provider):
        state = companion_state(companion_provider, 2.0)
        cfg = TrackerConfig(p_init=2.0, p_fin=0.5, dp_init=-0.01,
                            predictor="rk4",
                            corrector=NewtonConfig(tol=1e-12, max_iter=12),
                            adapt=AdaptConfig(enabled=True),
                            epsilon_imag=0.0, reinit_policy="on_failure")
        traj = track(companion_provider, state, cfg)
        for rec in traj:
            oracle = companion_eigenvalues(2.0, rec.p)
            assert min(abs(rec.s - r) for r in oracle) <= 1e-8
        assert traj.has_flag("fold_detected")
        # continues along one real branch after the fold
        post = [rec for rec in traj if rec.p < 0.99]
        assert all(abs(rec.s.imag) <= 1e-6 for rec in post)

    def test_p_strictly_monotone(self, companion_provider):
        state = companion_state(companion_provider, 2.0)
        cfg = TrackerConfig(p_init=2.0, p_fin=0.5, dp_init=-0.01,
                            predictor="rk4",
                            corrector=NewtonConfig(tol=1e-12, max_iter=12),
                            adapt=AdaptConfig(enabled=True),
                            epsilon_imag=0.0, reinit_policy="on_failure")
        traj = track(companion_provider, state, cfg)
        assert np.all(np.diff(traj.p_values) < 0)

    def test_residual_and_normalization_invariants(self, companion_provider):
        state = companion_state(companion_provider, 2.0)
        cfg = TrackerConfig(p_init=2.0, p_fin=1.5, dp_init=-0.01,
                            predictor="fem",
                            corrector=NewtonConfig(tol=1e-10),
                            epsilon_imag=0.0)
        traj = track(companion_provider, state, cfg)
        for rec in traj:
            assert rec.residual <= 1e-10
            assert abs(rec.phi @ rec.phi - 1.0) <= 1e-10

    def test_consecutive_mac_away_from_fold(self, companion_provider):
        state = companion_state(companion_provider, 2.0)
        cfg = TrackerConfig(p_init=2.0, p_fin=1.2, dp_init=-0.01,
                            predictor="rk4", corrector=NewtonConfig(tol=1e-12),
                            epsilon_imag=0.0)
        traj = track(companion_provider, state, cfg)
        for a, b in zip(traj, traj[1:]):
            assert mac(a.phi, b.phi) >= 0.99

    def test_predictor_only_aborts_at_jump(self):
        # Pencil sequence with an abrupt spectrum change mid-sweep.
        class Jumpy:
            n = r = 1
            affine_in_p = False

            def matrices(self, p):
                a = -1.0 if p < 0.5 else -10.0
                return as_csc(np.eye(1)), as_csc(np.array([[a]]))

            def sample(self, p, h_p=None):
                E, A = self.matrices(p)
                return PencilSample(E, A, as_csc(np.zeros((1, 1))),
                                    as_csc(np.zeros((1, 1))))

            def reduced(self, p):
                return self.matrices(p)[1].toarray()

            def lift(self, p, v):
                return np.asarray(v)

        state = TrackerState(phi=np.array([1.0 + 0j]), s=-1.0, p=0.0)
        cfg = TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=0.05,
                            predictor="none",
                            corrector=NewtonConfig(tol=1e-10),
                            epsilon_imag=0.0)
        traj = track(Jumpy(), state, cfg)
        assert traj[-1].s.real == pytest.approx(-10.0, abs=1e-8)

    def test_aborted_carries_partial_trajectory(self):
        class Breaks:
            n = r = 1
            affine_in_p = False

            def matrices(self, p):
                if p > 0.5:
                    raise NoConvergence("model breaks past 0.5")
                return as_csc(np.eye(1)), as_csc(np.array([[-1.0 - p]]))

            def sample(self, p, h_p=None):
                E, A = self.matrices(p)
                return PencilSample(E, A, as_csc(np.zeros((1, 1))),
                                    as_csc(np.array([[-1.0]])))

            def reduced(self, p):
                return self.matrices(p)[1].toarray()

            def lift(self, p, v):
                return np.asarray(v)

        state = TrackerState(phi=np.array([1.0 + 0j]), s=-1.0, p=0.0)
        cfg = TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=0.1,
                            predictor="fem", corrector=NewtonConfig(),
                            epsilon_imag=0.0)
        with pytest.raises(TrackingAborted) as exc_info:
            track(Breaks(), state, cfg)
        assert len(exc_info.value.trajectory) >= 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=-0.1)
        with pytest.raises(ValueError):
            TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=0.1, predictor="abc")
        with pytest.raises(ValueError):
            TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=0.1,
                          adapt=AdaptConfig(enabled=True, lo=0.1, hi=0.05))

    def test_newton_only_needs_a_corrector(self):
        with pytest.raises(ValueError, match="corrector"):
            TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=0.1,
                          predictor="none", corrector=None)

    def test_derivatives_only_for_the_predictor(self, monkeypatch):
        # FEM reads Edot/Adot once per step at the accepted p; the Newton
        # corrector reads (E, A) at the candidate p and no derivative
        from eigtrack import dae
        from eigtrack.models import MultiMachineSpec, make_multimachine

        model = make_multimachine(MultiMachineSpec(), param="droop",
                                  p_init=0.2, p_fin=0.02)
        provider = ModelPencilProvider(model, form="pencil")
        pair = max((pr for pr in full_spectrum(provider, 0.2,
                                               pencil_coords=True)
                    if 0.05 < pr.s.imag < 2.0), key=lambda pr: pr.s.imag)
        E, A = provider.matrices(0.2)
        init = init_from_eigenpair(E, A, pair.s, pair.right, p=0.2)
        cfg = TrackerConfig(p_init=0.2, p_fin=0.2 - 10 * 0.0018,
                            dp_init=-0.0018, predictor="fem",
                            corrector=NewtonConfig(tol=1e-10, max_iter=12),
                            epsilon_imag=0.0)
        calls = []
        fd = dae.fd_matrix_derivatives
        monkeypatch.setattr(dae, "fd_matrix_derivatives",
                            lambda *a, **k: calls.append(a[1]) or fd(*a, **k))
        traj = track(provider, init, cfg)
        assert len(traj) == 11
        assert calls == [pt.p for pt in traj[:-1]]

    def test_concurrent_trackers_bitwise_identical(self, companion_model):
        from eigtrack.dae import ModelPencilProvider

        provider = ModelPencilProvider(companion_model, form="reduced")
        cfg = TrackerConfig(p_init=2.0, p_fin=1.5, dp_init=-0.01,
                            predictor="rk4", corrector=NewtonConfig(tol=1e-12),
                            epsilon_imag=0.0)
        inits = [companion_state(provider, 2.0, which=w)
                 for w in ("imag_max", "real_min")]

        sequential = [track(provider, st_, cfg) for st_ in inits]
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(
                lambda st_: track(provider, st_, cfg), inits))
        for a, b in zip(sequential, threaded):
            assert len(a) == len(b)
            for ra, rb in zip(a, b):
                assert ra.p == rb.p
                assert ra.s == rb.s
                assert np.array_equal(ra.phi, rb.phi)


class SampleBreaksPastHalf:
    """A(p) = [-1 - p], E = [1]; ``sample`` (not ``matrices``) fails from
    p = 0.5 on, so the predictor of every step from there fails at dp_min
    while the corrector (which reads ``matrices`` only) and a
    re-initialization from the full spectrum still work."""

    n = r = 1
    affine_in_p = True

    def matrices(self, p):
        return as_csc(np.eye(1)), as_csc(np.array([[-1.0 - p]]))

    def sample(self, p, h_p=None):
        if p >= 0.5:
            raise NoConvergence("derivatives unavailable from 0.5 on")
        E, A = self.matrices(p)
        return PencilSample(E, A, as_csc(np.zeros((1, 1))),
                            as_csc(np.array([[-1.0]])))

    def reduced(self, p):
        return self.matrices(p)[1].toarray()

    def lift(self, p, v):
        return np.asarray(v)


class ImagAxisCrossing:
    """A(p) = [[-1, k w], [-w/k, -1]], E = I, w = 0.5 - p: the eigenvalue
    -1 + i w (eigenvector [k, i]) crosses the real axis at p = 0.5
    through a semisimple double eigenvalue, a fold flag away from any
    defective point."""

    n = r = 2
    affine_in_p = True
    k = 2.0

    def matrices(self, p):
        w = 0.5 - p
        return (as_csc(np.eye(2)),
                as_csc(np.array([[-1.0, self.k * w], [-w / self.k, -1.0]])))

    def sample(self, p, h_p=None):
        E, A = self.matrices(p)
        Adot = as_csc(np.array([[0.0, -self.k], [1.0 / self.k, 0.0]]))
        return PencilSample(E, A, as_csc(np.zeros((2, 2))), Adot)

    def reduced(self, p):
        return self.matrices(p)[1].toarray()

    def lift(self, p, v):
        return np.asarray(v)


class TestReinitPolicy:
    def failing_cfg(self, policy):
        return TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=0.1,
                             predictor="fem", corrector=NewtonConfig(),
                             epsilon_imag=0.0, reinit_policy=policy)

    @pytest.mark.parametrize("policy", ["never"])
    def test_failure_at_dp_min_aborts(self, policy):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=-1.0, p=0.0)
        with pytest.raises(TrackingAborted) as exc_info:
            track(SampleBreaksPastHalf(), state, self.failing_cfg(policy))
        traj = exc_info.value.trajectory
        assert traj[-1].p == pytest.approx(0.5)
        assert not traj.has_flag("reinitialized")

    def test_on_failure_reinitializes_past_failure(self):
        state = TrackerState(phi=np.array([1.0 + 0j]), s=-1.0, p=0.0)
        traj = track(SampleBreaksPastHalf(), state,
                     self.failing_cfg("on_failure"))
        assert traj[-1].p == pytest.approx(1.0)
        past = [rec for rec in traj if rec.p > 0.5]
        assert past and all("reinitialized" in rec.flags for rec in past)
        for rec in traj:
            assert rec.s.real == pytest.approx(-1.0 - rec.p, abs=1e-10)

    @pytest.mark.parametrize("policy", ["never", "on_failure"])
    def test_reinitializes_after_fold_only_on_fold(self, policy):
        cfg = TrackerConfig(p_init=0.0, p_fin=1.0, dp_init=0.03,
                            predictor="fem", corrector=NewtonConfig(),
                            epsilon_imag=0.0, reinit_policy=policy)
        prov = ImagAxisCrossing()
        E, A = prov.matrices(0.0)
        state = init_from_eigenpair(E, A, -1.0 + 0.5j,
                                    np.array([ImagAxisCrossing.k, 1j]))
        traj = track(prov, state, cfg)
        assert traj[-1].p == pytest.approx(1.0)
        folds = [i for i, rec in enumerate(traj) if "fold_detected" in rec.flags]
        assert len(folds) == 1
        i = folds[0]
        assert traj[i - 1].s.imag > 0 > traj[i].s.imag
        assert not traj.has_flag("reinitialized")
        for rec in traj:
            assert rec.s == pytest.approx(-1.0 + 1j * (0.5 - rec.p), abs=1e-9)

    def test_on_fold_rejected(self):
        # a restart after each fold-flagged step cannot cross a defective
        # fold: the corrector fails there before any step is flagged
        with pytest.raises(ValueError, match="on_fold"):
            self.failing_cfg("on_fold")


class TestStepRegrowth:
    def test_non_adaptive_step_returns_to_dp_init(self, companion_provider):
        # the corrector fails at the fold p = 1 and the step is halved
        # down to dp_min; after the re-initialization the sweep goes on
        # with |dp_init| instead of staying at dp_min
        init = companion_state(companion_provider, 1.1)
        cfg = TrackerConfig(p_init=1.1, p_fin=0.9, dp_init=-0.01,
                            predictor="fem",
                            corrector=NewtonConfig(tol=1e-12),
                            adapt=AdaptConfig(enabled=False),
                            epsilon_imag=1e-6, reinit_policy="on_failure")
        traj = track(companion_provider, init, cfg)
        assert traj.has_flag("reinitialized")
        assert traj[-1].p == pytest.approx(0.9, abs=1e-12)
        assert len(traj) <= 64
        k = next(i for i, pt in enumerate(traj) if "reinitialized" in pt.flags)
        assert max(abs(pt.dp_used) for pt in traj[k + 1:]) == pytest.approx(0.01)


class TestConvergenceOrder:
    def endpoint_error(self, provider, predictor, dp):
        state = companion_state(provider, 2.0)
        cfg = TrackerConfig(p_init=2.0, p_fin=4.0, dp_init=dp,
                            predictor=predictor, corrector=None,
                            epsilon_imag=0.0, h_p=1e-8)
        traj = track(provider, state, cfg)
        oracle = companion_eigenvalues(2.0, 4.0)
        return min(abs(traj[-1].s - r) for r in oracle)

    def test_fem_first_order(self, companion_provider):
        e1 = self.endpoint_error(companion_provider, "fem", 0.05)
        e2 = self.endpoint_error(companion_provider, "fem", 0.025)
        assert 1.7 <= e1 / e2 <= 2.3

    def test_rk4_fourth_order(self, companion_provider):
        e1 = self.endpoint_error(companion_provider, "rk4", 0.2)
        e2 = self.endpoint_error(companion_provider, "rk4", 0.1)
        assert 12.0 <= e1 / e2 <= 20.0


class TestTypedFailures:
    """Whatever a companion sweep runs into, ``track`` either returns or
    raises an :class:`EigtrackError`; an abort carries the trajectory
    from ``p_init`` on."""

    @settings(max_examples=40, deadline=None)
    @given(p_init=st.floats(0.3, 2.5), p_fin=st.floats(0.3, 2.5),
           dp=st.floats(0.02, 0.5),
           predictor=st.sampled_from(["fem", "rk4", "none"]),
           reinit=st.sampled_from(["never", "on_failure"]),
           max_iter=st.integers(1, 3), adapt=st.booleans(),
           epsilon=st.sampled_from([0.0, 1e-6]))
    def test_any_failure_is_typed(self, p_init, p_fin, dp, predictor,
                                  reinit, max_iter, adapt, epsilon):
        from eigtrack.models import make_companion_fold

        provider = ModelPencilProvider(make_companion_fold(), form="reduced")
        init = companion_state(provider, p_init)
        cfg = TrackerConfig(
            p_init=p_init, p_fin=p_fin,
            dp_init=dp if p_fin >= p_init else -dp, predictor=predictor,
            corrector=NewtonConfig(tol=1e-12, max_iter=max_iter),
            # dp_min = dp/8 keeps examples short: under on_failure a
            # tolerance max_iter cannot reach re-initialises every step
            adapt=AdaptConfig(enabled=adapt, dp_min=dp / 8),
            epsilon_imag=epsilon,
            reinit_policy=reinit)
        try:
            track(provider, init, cfg)
        except TrackingAborted as exc:
            assert exc.trajectory is not None and len(exc.trajectory) >= 1
            assert exc.trajectory[0].p == p_init
        except EigtrackError:
            pass  # typed; anything else propagates and fails the test


class TestNormalizationDrift:
    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.005, 0.05))
    def test_predictor_drift_quadratic_in_dp(self, dp):
        from eigtrack.dae import ModelPencilProvider
        from eigtrack.models import make_companion_fold

        provider = ModelPencilProvider(make_companion_fold(), form="reduced")
        state = companion_state(provider, 2.0)
        out = predict_fem(provider.sample(2.0), state, dp)
        drift = abs(out.phi @ out.phi - 1.0)
        assert drift <= 50.0 * dp ** 2


class TestTrajectoryIO:
    def build(self, companion_provider):
        state = companion_state(companion_provider, 2.0)
        cfg = TrackerConfig(p_init=2.0, p_fin=1.8, dp_init=-0.01,
                            predictor="rk4", corrector=NewtonConfig(tol=1e-12),
                            epsilon_imag=0.0)
        return track(companion_provider, state, cfg)

    def test_csv_round_trip_full_precision(self, companion_provider, tmp_path):
        traj = self.build(companion_provider)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert len(back) == len(traj)
        for a, b in zip(traj, back):
            assert b.p == a.p
            assert b.s == a.s
            assert b.residual == a.residual
            assert b.flags == a.flags

    def test_csv_header(self, companion_provider, tmp_path):
        traj = self.build(companion_provider)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "p,s_re,s_im,residual,dp,corrector_iters,flags"

    def test_json_with_vectors(self, companion_provider, tmp_path):
        import json

        traj = self.build(companion_provider)
        path = tmp_path / "traj.json"
        traj.to_json(path, include_vectors=True)
        data = json.loads(path.read_text())
        assert len(data) == len(traj)
        assert "phi_re" in data[0]
        assert np.allclose(data[0]["phi_re"], traj[0].phi.real)
