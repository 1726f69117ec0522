"""Equilibria, linearization, pencil assembly/reduction."""

from collections import Counter
from collections.abc import Iterable
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from eigtrack import dae
from eigtrack.dae import (
    DaeModel,
    ModelBlocks,
    ModelPencilProvider,
    ParamDescriptor,
    assemble_pencil,
    fd_jacobians,
    fd_matrix_derivatives,
    lift_eigenvector,
    reduce_state_matrix,
    solve_equilibrium,
)
from eigtrack.errors import (
    DimensionMismatch,
    NoConvergence,
    SingularSchurComplement,
)
from eigtrack.linalg import as_csc, eig_dense

from conftest import dense, simple_blocks


def scalar_model(f, g=None, n=1, m=0, jac=None, guess=None):
    return DaeModel(
        n=n, m=m, f=f, g=g or (lambda x, y, p: np.empty(0)),
        T=lambda p: sp.identity(n, format="csc"),
        R=lambda p: sp.csc_matrix((m, n)),
        param=ParamDescriptor("p", 0.0, 1.0),
        jacobians=jac,
        guess=guess or (np.zeros(n), np.zeros(m)),
    )


class TestSolveEquilibrium:
    def test_linear_system(self):
        model = scalar_model(
            f=lambda x, y, p: np.array([-x[0] + 2.0]),
            g=lambda x, y, p: np.array([y[0] - x[0]]),
            m=1,
        )
        eq = solve_equilibrium(model, 0.0)
        assert eq.x0[0] == pytest.approx(2.0, abs=1e-10)
        assert eq.y0[0] == pytest.approx(2.0, abs=1e-10)

    def test_cube_root(self):
        model = scalar_model(
            f=lambda x, y, p: np.array([-x[0] ** 3 + 8.0]),
            g=lambda x, y, p: np.array([y[0] - 1.0]),
            m=1,
            guess=(np.array([1.0]), np.array([0.0])),
        )
        eq = solve_equilibrium(model, 0.0)
        assert eq.x0[0] == pytest.approx(2.0, abs=1e-8)
        assert eq.y0[0] == pytest.approx(1.0, abs=1e-10)

    def test_analytic_jacobians_drive_newton(self):
        calls = Counter()

        def jac(x, y, p):
            calls["jacobians"] += 1
            return (np.array([[-3.0 * x[0] ** 2]]), np.zeros((1, 1)),
                    np.zeros((1, 1)), np.array([[1.0]]))

        model = scalar_model(
            f=lambda x, y, p: np.array([-x[0] ** 3 + 8.0]),
            g=lambda x, y, p: np.array([y[0] - 1.0]),
            m=1, jac=jac,
            guess=(np.array([1.0]), np.array([0.0])),
        )
        eq = solve_equilibrium(model, 0.0)
        assert eq.x0[0] == pytest.approx(2.0, abs=1e-10)
        assert calls["jacobians"] > 0

    def test_no_real_root_raises(self):
        model = scalar_model(
            f=lambda x, y, p: np.array([x[0] ** 2 + 1.0]),
            g=lambda x, y, p: np.array([y[0]]),
            m=1,
            guess=(np.array([1.0]), np.array([0.0])),
        )
        with pytest.raises(NoConvergence):
            solve_equilibrium(model, 0.0)

    def test_residual_invariant(self, coupled_dae_model):
        eq = solve_equilibrium(coupled_dae_model, 0.3)
        assert np.max(np.abs(coupled_dae_model.f(eq.x0, eq.y0, 0.3))) <= 1e-10
        assert np.max(np.abs(coupled_dae_model.g(eq.x0, eq.y0, 0.3))) <= 1e-10


class TestFdJacobians:
    def test_linear_state_derivative(self):
        model = scalar_model(f=lambda x, y, p: np.array([3.0 * x[0]]))
        eq = solve_equilibrium(model, 0.0)
        blocks = fd_jacobians(model, eq)
        assert dense(blocks.f_x) == pytest.approx(np.array([[3.0]]), abs=1e-6)

    def test_f_independent_of_y_gives_zero_block(self):
        model = scalar_model(
            f=lambda x, y, p: np.array([-x[0]]),
            g=lambda x, y, p: np.array([y[0]]),
            m=1,
        )
        blocks = fd_jacobians(model, solve_equilibrium(model, 0.0))
        assert np.count_nonzero(dense(blocks.f_y)) == 0

    def test_algebraic_row_derivatives(self):
        model = scalar_model(
            f=lambda x, y, p: np.array([-x[0]]),
            g=lambda x, y, p: np.array([y[0] - x[0]]),
            m=1,
        )
        blocks = fd_jacobians(model, solve_equilibrium(model, 0.0))
        assert dense(blocks.g_x) == pytest.approx(np.array([[-1.0]]), abs=1e-6)
        assert dense(blocks.g_y) == pytest.approx(np.array([[1.0]]), abs=1e-6)

    def test_forward_difference_first_order(self):
        # Error against the analytic derivative roughly halves with h_x.
        model = scalar_model(
            f=lambda x, y, p: np.array([np.sin(x[0]) - 0.5 * x[0] ** 2]),
            guess=(np.array([0.0]), np.empty(0)),
        )
        from eigtrack.dae import Equilibrium
        eq = Equilibrium(np.array([0.7]), np.empty(0), 0.0)
        exact = np.cos(0.7) - 0.7
        errs = []
        for h in (1e-4, 5e-5):
            blocks = fd_jacobians(model, eq, h_x=h)
            errs.append(abs(dense(blocks.f_x)[0, 0] - exact))
        assert 1.5 <= errs[0] / errs[1] <= 2.5

    def test_central_scheme_beats_forward_on_quadratic(self):
        model = scalar_model(
            f=lambda x, y, p: np.array([x[0] ** 2]),
        )
        from eigtrack.dae import Equilibrium
        eq = Equilibrium(np.array([1.0]), np.empty(0), 0.0)
        fwd = dense(fd_jacobians(model, eq, h_x=1e-5).f_x)[0, 0]
        cen = dense(fd_jacobians(model, eq, h_x=1e-5, scheme="central").f_x)[0, 0]
        assert abs(cen - 2.0) < abs(fwd - 2.0)

    def test_bad_step_rejected(self):
        model = scalar_model(f=lambda x, y, p: np.array([-x[0]]))
        from eigtrack.dae import Equilibrium
        with pytest.raises(ValueError):
            fd_jacobians(model, Equilibrium(np.zeros(1), np.empty(0), 0.0), h_x=0.0)


class TestAssemblePencil:
    def test_direct_block_placement(self):
        E, A = assemble_pencil(simple_blocks())
        assert np.allclose(E.toarray(), [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(A.toarray(), [[-1.0, 1.0], [1.0, -2.0]])

    def test_explicit_form(self):
        blocks = ModelBlocks(
            T=as_csc(np.eye(2)), R=as_csc(np.zeros((0, 2))),
            f_x=as_csc(np.array([[0.0, 1.0], [-2.0, -3.0]])),
            f_y=as_csc(np.zeros((2, 0))), g_x=as_csc(np.zeros((0, 2))),
            g_y=as_csc(np.zeros((0, 0))),
        )
        E, A = assemble_pencil(blocks)
        assert np.allclose(E.toarray(), np.eye(2))
        assert np.allclose(A.toarray(), blocks.f_x.toarray())

    def test_last_m_columns_of_E_structurally_zero(self, coupled_dae_model):
        eq = solve_equilibrium(coupled_dae_model, 0.2)
        blocks = fd_jacobians(coupled_dae_model, eq)
        E, _ = assemble_pencil(blocks)
        n, m = blocks.n, blocks.m
        assert np.count_nonzero(dense(E)[:, n:]) == 0
        # rank over the first n columns is full: E carries exactly n finite
        # eigenvalue directions
        assert np.linalg.matrix_rank(dense(E)) == n

    def test_dimension_mismatch(self):
        blocks = simple_blocks()
        blocks.f_y = as_csc(np.ones((1, 2)))
        with pytest.raises(DimensionMismatch):
            assemble_pencil(blocks)


class TestReduceStateMatrix:
    def test_hand_evaluated_example(self):
        # T^-1 (f_x - f_y (g_y - R T^-1 f_y)^-1 (g_x - R T^-1 f_x))
        # = -1 - 1 * (-2)^-1 * 1 = -0.5
        red = reduce_state_matrix(simple_blocks())
        assert red == pytest.approx(np.array([[-0.5]]), abs=1e-12)

    def test_m_zero_returns_f_x(self):
        blocks = ModelBlocks(
            T=as_csc(np.eye(2)), R=as_csc(np.zeros((0, 2))),
            f_x=as_csc(np.array([[0.0, 1.0], [-1.0, -2.0]])),
            f_y=as_csc(np.zeros((2, 0))), g_x=as_csc(np.zeros((0, 2))),
            g_y=as_csc(np.zeros((0, 0))),
        )
        assert np.allclose(reduce_state_matrix(blocks), blocks.f_x.toarray())

    def test_singular_schur_complement(self):
        blocks = simple_blocks()
        blocks.g_y = as_csc(np.zeros((1, 1)))
        blocks.g_x = as_csc(np.zeros((1, 1)))
        with pytest.raises(SingularSchurComplement):
            reduce_state_matrix(blocks)


class TestLiftEigenvector:
    def test_lifted_vector_is_pencil_eigenvector(self, coupled_dae_model):
        eq = solve_equilibrium(coupled_dae_model, 0.1)
        blocks = fd_jacobians(coupled_dae_model, eq)
        E, A = assemble_pencil(blocks)
        red = reduce_state_matrix(blocks)
        for s, phi_x, _ in eig_dense(red):
            phi = lift_eigenvector(blocks, phi_x)
            res = np.linalg.norm(s * (E @ phi) - A @ phi)
            assert res / np.linalg.norm(phi) <= 1e-6

    def test_m_zero_identity(self):
        blocks = ModelBlocks(
            T=as_csc(np.eye(2)), R=as_csc(np.zeros((0, 2))),
            f_x=as_csc(np.eye(2)), f_y=as_csc(np.zeros((2, 0))),
            g_x=as_csc(np.zeros((0, 2))), g_y=as_csc(np.zeros((0, 0))),
        )
        v = np.array([1.0, 2.0])
        assert np.allclose(lift_eigenvector(blocks, v), v)


class TestFdMatrixDerivatives:
    def test_quadratic_parameter_dependence(self):
        class Quad:
            n = r = 1
            affine_in_p = False

            def matrices(self, p):
                return as_csc(np.eye(1)), as_csc(np.array([[p ** 2]]))

        Edot, Adot = fd_matrix_derivatives(Quad(), 1.0, h_p=1e-6)
        assert Adot.toarray()[0, 0] == pytest.approx(2.0, abs=1e-5)
        assert Edot.nnz == 0

    def test_constant_pencil_gives_exact_zero(self):
        class Const:
            n = r = 2
            affine_in_p = True

            def matrices(self, p):
                return as_csc(np.eye(2)), as_csc(np.array([[0.0, 1.0], [-1.0, -2.0]]))

        Edot, Adot = fd_matrix_derivatives(Const(), 0.5)
        assert Edot.nnz == 0
        assert Adot.nnz == 0

    def test_negative_step_rejected(self, companion_provider):
        with pytest.raises(ValueError):
            fd_matrix_derivatives(companion_provider, 1.0, h_p=-1.0)


class TestSpectrumEquivalence:
    def test_pencil_and_reduced_agree_with_det_roots(self, coupled_dae_model):
        """Finite pencil eigenvalues == reduced-matrix eigenvalues.

        Oracle: roots of det(sE - A), expanded symbolically, independent
        of both library code paths.
        """
        import sympy

        eq = solve_equilibrium(coupled_dae_model, 0.4)
        blocks = fd_jacobians(coupled_dae_model, eq)
        E, A = assemble_pencil(blocks)
        s = sympy.symbols("s")
        P = sympy.Matrix(dense(E)) * s - sympy.Matrix(dense(A))
        poly = sympy.Poly(sympy.expand(P.det(method="berkowitz")), s)
        # degree n: the pencil has m infinite eigenvalues
        assert poly.degree() == blocks.n
        det_roots = sorted(
            (complex(z) for z in poly.nroots(n=20)),
            key=lambda z: (z.real, z.imag))
        red_vals = sorted((t[0] for t in eig_dense(reduce_state_matrix(blocks))),
                          key=lambda z: (z.real, z.imag))
        for a, b in zip(det_roots, red_vals):
            assert abs(a - b) <= 1e-6


class TestModelPencilProvider:
    def test_reduced_form_has_identity_E(self, companion_provider):
        E, A = companion_provider.matrices(2.0)
        assert np.allclose(dense(E), np.eye(2))
        assert np.allclose(dense(A), [[0.0, 1.0], [-2.0, -2.0]])

    def test_pencil_form_dimensions(self, coupled_dae_model):
        prov = ModelPencilProvider(coupled_dae_model, form="pencil")
        assert prov.r == 4
        E, A = prov.matrices(0.2)
        assert E.shape == (4, 4) and A.shape == (4, 4)

    def test_unknown_form_rejected(self, companion_model):
        with pytest.raises(ValueError):
            ModelPencilProvider(companion_model, form="dense")


@pytest.fixture
def dae_calls(monkeypatch):
    """Counts of the provider's model-layer calls, by function name."""
    counts = Counter()
    for name in ("solve_equilibrium", "fd_jacobians", "assemble_pencil",
                 "reduce_state_matrix"):
        def counted(*args, _fn=getattr(dae, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dae, name, counted)
    return counts


def droop_model():
    from eigtrack.models import MultiMachineSpec, make_multimachine

    return make_multimachine(MultiMachineSpec(), param="droop",
                             p_init=0.2, p_fin=0.02)


class TestProviderMemo:
    @pytest.mark.parametrize("form,builder", [("pencil", "assemble_pencil"),
                                              ("reduced", "reduce_state_matrix")])
    def test_second_call_reuses_the_pencil(self, dae_calls, form, builder):
        model = droop_model()
        prov = ModelPencilProvider(model, form=form)
        E, A = prov.matrices(0.1)
        assert dae_calls == {"solve_equilibrium": 1, builder: 1}
        E2, A2 = prov.matrices(0.1)
        smp = prov.sample(0.1)
        assert E2 is E and A2 is A and smp.E is E and smp.A is A
        # only the derivative stencil's p + h_p is new
        assert dae_calls == {"solve_equilibrium": 2, builder: 2}
        E3, A3 = ModelPencilProvider(model, form=form).matrices(0.1)
        assert (np.count_nonzero(dense(E3) != dense(E)) == 0
                and np.count_nonzero(dense(A3) != dense(A)) == 0)

    @pytest.mark.parametrize("form", ["pencil", "reduced"])
    def test_pencil_does_not_depend_on_visit_order(self, coupled_dae_model,
                                                   form):
        # a nonlinear model without analytic Jacobians: an equilibrium
        # solve started from the previous p would move A by ~1e-10 and
        # the forward-difference Adot by ~1e-4
        def at_03(prov):
            smp = prov.sample(0.3)
            return [*prov.matrices(0.3), smp.E, smp.A, smp.Edot, smp.Adot]

        visited = ModelPencilProvider(coupled_dae_model, form=form)
        visited.matrices(0.9)
        visited.sample(0.6)
        fresh = ModelPencilProvider(coupled_dae_model, form=form)
        for mine, ref in zip(at_03(visited), at_03(fresh)):
            assert np.array_equal(dense(mine), dense(ref))

    def test_droop_sweep_builds_each_p_once(self, dae_calls):
        from eigtrack.spectrum import full_spectrum
        from eigtrack.tracker import (NewtonConfig, TrackerConfig,
                                      init_from_eigenpair, track)

        steps = 10
        prov = ModelPencilProvider(droop_model(), form="pencil")
        pairs = full_spectrum(prov, 0.2, pencil_coords=True)
        tgt = max((pr for pr in pairs if 0.05 < pr.s.imag < 2.0),
                  key=lambda pr: pr.s.imag)
        E, A = prov.matrices(0.2)
        init = init_from_eigenpair(E, A, tgt.s, tgt.right, p=0.2)
        cfg = TrackerConfig(p_init=0.2, p_fin=0.2 - steps * 0.0018,
                            dp_init=-0.0018, predictor="fem",
                            corrector=NewtonConfig(tol=1e-10, max_iter=12),
                            epsilon_imag=0.0)
        dae_calls.clear()
        traj = track(prov, init, cfg)
        assert len(traj) == steps + 1
        assert dae_calls["solve_equilibrium"] <= 2 * steps + 2
        assert dae_calls["assemble_pencil"] <= 2 * steps + 2

    def test_memos_evict_oldest_entry(self, dae_calls, monkeypatch):
        # both the provider memo and the model's power-flow memo keep the
        # newest MEMO_SIZE parameter values instead of starting over
        from eigtrack import models

        flows = Counter()
        flow = models._PowerFlow
        monkeypatch.setattr(models, "_PowerFlow",
                            lambda *a: flows.update(["new"]) or flow(*a))
        model = droop_model()
        prov = ModelPencilProvider(model, form="pencil")
        grid = [0.2 - 0.002 * k for k in range(70)]
        for p in grid:
            prov.matrices(p)
        newest = grid[-dae.MEMO_SIZE:]
        dae_calls.clear()
        flows.clear()
        for p in newest:
            prov.matrices(p)
        assert not dae_calls
        for p in newest:
            ModelPencilProvider(model, form="pencil").matrices(p)
        assert dae_calls["solve_equilibrium"] == len(newest) == 64
        assert not flows
        prov.matrices(grid[0])
        assert dae_calls["solve_equilibrium"] == 65


    def test_reduced_memo_holds_only_the_pencil(self):
        # reduced form reads neither the (n+m) blocks nor anything but
        # (I, A_red), so a full memo holds exactly MEMO_SIZE such pairs
        from eigtrack.models import MultiMachineSpec, make_multimachine

        model = make_multimachine(MultiMachineSpec(), param="p_max_0",
                                  p_init=1.0, p_fin=0.6)
        prov = ModelPencilProvider(model, form="reduced")
        for k in range(dae.MEMO_SIZE + 3):
            prov.matrices(1.0 - 0.005 * k)

        def nbytes(obj):
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            if sp.issparse(obj):
                return sum(a.nbytes for a in (obj.data, obj.indices, obj.indptr))
            if isinstance(obj, ModelBlocks):
                obj = vars(obj).values()
            return sum(map(nbytes, obj)) if isinstance(obj, Iterable) else 0

        assert len(prov._cache) == dae.MEMO_SIZE
        assert nbytes(prov._cache.values()) == dae.MEMO_SIZE * 2 * model.n ** 2 * 8


class TestLinearize:
    def test_multimachine_provider_makes_no_fd_calls(self, dae_calls):
        model = droop_model()
        E, A = ModelPencilProvider(model).matrices(0.1)
        assert dae_calls["fd_jacobians"] == 0
        E_fd, A_fd = ModelPencilProvider(
            replace(model, jacobians=None)).matrices(0.1)
        assert dae_calls["fd_jacobians"] == 1
        assert abs(E - E_fd).max() == 0.0
        assert abs(A - A_fd).max() <= 1e-5 * abs(A).max()


class TestDenseCscSplit:
    """Below DENSE_LIMIT the model layer carries ndarrays, above it CSC;
    DENSE_LIMIT = 0 forces the CSC path on the same small models."""

    @staticmethod
    def outputs(prov, p, vecs):
        smp = prov.sample(p)
        return {"E": smp.E, "A": smp.A, "Edot": smp.Edot, "Adot": smp.Adot,
                "reduced": prov.reduced(p), "lift": prov.lift(p, vecs)}

    @pytest.mark.parametrize("case", ["droop-pencil", "droop-reduced",
                                      "coupled-pencil", "coupled-reduced",
                                      "companion-pencil", "companion-reduced"])
    def test_csc_path_matches_dense_path(self, case, coupled_dae_model,
                                         companion_model, monkeypatch):
        name, form = case.split("-")
        if name == "droop":
            model, p = droop_model(), 0.1
        elif name == "companion":  # m = 0: empty R, f_y, g_x and g_y blocks
            model, p = companion_model, 1.5
        else:
            # The generic Newton factors its Jacobian with LAPACK on one
            # path and SuperLU on the other, so the equilibrium at p + h_p
            # differs in the last bits, and the forward difference of the
            # finite-difference A magnifies that to ~1e-4 in Adot.  Each
            # equilibrium is solved once (on the dense path, asserted
            # below to agree with the CSC solve) and serves both paths.
            solved = {}

            def pinned(model, p):
                if p not in solved:
                    solved[p] = solve_equilibrium(coupled_dae_model, p)
                return solved[p]

            model, p = replace(coupled_dae_model,
                               equilibrium_solver=pinned), 0.3
        vecs = np.column_stack(
            [v for _, v, _ in eig_dense(ModelPencilProvider(model).reduced(p))])
        got = self.outputs(ModelPencilProvider(model, form=form), p, vecs)
        monkeypatch.setattr(dae, "DENSE_LIMIT", 0)
        ref = self.outputs(ModelPencilProvider(model, form=form), p, vecs)
        if name == "coupled":
            for q, eq in solved.items():
                csc = solve_equilibrium(coupled_dae_model, q)
                for mine, want in ((eq.x0, csc.x0), (eq.y0, csc.y0)):
                    assert np.max(np.abs(mine - want)) <= 1e-14
        for key in ("E", "A", "Edot", "Adot"):
            assert isinstance(got[key], np.ndarray), key
            assert sp.issparse(ref[key]), key
        # the forward differences over h_p = 1e-6 carry the rounding of
        # the matrices they difference, divided by h_p
        h_p = 1e-6
        scale = {"Edot": np.max(np.abs(dense(ref["E"]))) / h_p,
                 "Adot": np.max(np.abs(dense(ref["A"]))) / h_p}
        for key, mine in got.items():
            want = dense(ref[key])
            assert mine.shape == want.shape, key
            assert (np.max(np.abs(mine - want), initial=0.0)
                    <= 1e-14 * scale.get(key, np.max(np.abs(want)))), key

    def test_droop_sweep_matches_csc_path(self, monkeypatch):
        from eigtrack.spectrum import full_spectrum
        from eigtrack.tracker import (NewtonConfig, TrackerConfig,
                                      init_from_eigenpair, track)

        def sweep():
            prov = ModelPencilProvider(droop_model(), form="pencil")
            pairs = full_spectrum(prov, 0.2, pencil_coords=True)
            tgt = max((pr for pr in pairs if 0.05 < pr.s.imag < 2.0),
                      key=lambda pr: pr.s.imag)
            E, A = prov.matrices(0.2)
            init = init_from_eigenpair(E, A, tgt.s, tgt.right, p=0.2)
            cfg = TrackerConfig(p_init=0.2, p_fin=0.02, dp_init=-0.0018,
                                predictor="fem",
                                corrector=NewtonConfig(tol=1e-10, max_iter=12),
                                epsilon_imag=0.0)
            return track(prov, init, cfg)

        mine = sweep()
        monkeypatch.setattr(dae, "DENSE_LIMIT", 0)
        ref = sweep()
        assert len(mine) == len(ref) == 101
        for a, b in zip(mine, ref):
            assert a.p == b.p and a.corrector_iters == b.corrector_iters
            assert abs(a.s - b.s) <= 1e-12 * abs(b.s)

    def test_memo_blocks_are_views_of_the_pencil(self):
        prov = ModelPencilProvider(droop_model(), form="pencil")
        blocks, (E, A) = prov.blocks(0.1), prov.matrices(0.1)
        for M, parts in ((E, ("T", "R")), (A, ("f_x", "f_y", "g_x", "g_y"))):
            for part in parts:
                assert np.shares_memory(getattr(blocks, part), M), part
