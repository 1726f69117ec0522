"""Sparse and dense LU, dense eigendecomposition, and Matrix Market I/O."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from eigtrack.errors import DimensionMismatch, NoConvergence, SingularMatrix
from eigtrack.linalg import (
    as_csc,
    eig_dense,
    lu_factor,
    read_matrix_market,
    write_matrix_market,
)


class TestLuFactor:
    def test_identity_solve_is_identity(self):
        F = lu_factor(sp.identity(2, format="csc"))
        b = np.array([1.0, -2.0])
        assert np.allclose(F.solve(b), b)

    def test_diagonal_solve(self):
        F = lu_factor(as_csc(np.array([[2.0, 0.0], [0.0, 4.0]])))
        assert np.allclose(F.solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_rank_one_raises_singular(self):
        with pytest.raises(SingularMatrix):
            lu_factor(as_csc(np.ones((2, 2))))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            lu_factor(as_csc(np.ones((2, 3))))

    def test_pivot_floor_configurable(self):
        M = as_csc(np.diag([1.0, 1e-20]))
        with pytest.raises(SingularMatrix):
            lu_factor(M)

    def test_rhs_dimension_checked(self):
        F = lu_factor(sp.identity(3, format="csc"))
        with pytest.raises(DimensionMismatch):
            F.solve(np.ones(4))


class TestDenseLu:
    """ndarray input takes the LAPACK path, CSC input SuperLU."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_dense_and_csc_solves_agree(self, dtype):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((7, 7)) + np.diag(3.0 + rng.random(7))
        B = rng.standard_normal((7, 2))
        if dtype is complex:
            M = M + 1j * rng.standard_normal((7, 7))
            B = B + 1j * rng.standard_normal((7, 2))
        dense, sparse = lu_factor(M), lu_factor(as_csc(M))
        for b in (B[:, 0], B):
            x, ref = dense.solve(b), sparse.solve(b)
            assert x.shape == ref.shape and x.dtype == ref.dtype
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("M", [
        np.diag([1.0, 1e-20]),
        np.ones((2, 2)),
        np.zeros((3, 3), dtype=complex),
        np.array([[1.0, 2.0], [2.0, 4.0]]) * (1 + 1j),
    ])
    def test_pivot_floor_raises_singular(self, M):
        with pytest.raises(SingularMatrix):
            lu_factor(M)

    @pytest.mark.parametrize("M", [np.ones((2, 3)), np.ones(3)])
    def test_nonsquare_rejected(self, M):
        with pytest.raises(DimensionMismatch):
            lu_factor(M)

    def test_rhs_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            lu_factor(np.eye(3)).solve(np.ones(4))

    def test_complex_rhs_on_real_factor_rejected(self):
        for M in (np.eye(2), sp.identity(2, format="csc")):
            with pytest.raises(TypeError):
                lu_factor(M).solve(np.array([1.0, 1j]))

    def test_later_change_to_the_matrix_leaves_the_factors(self):
        M = np.array([[4.0, 1.0], [1.0, 3.0]])
        F = lu_factor(M)
        M[:] = np.eye(2)
        b = np.array([1.0, 2.0])
        want = np.linalg.solve(np.array([[4.0, 1.0], [1.0, 3.0]]), b)
        assert np.allclose(F.solve(b), want)
        assert np.allclose(F.solve(np.column_stack([b, b])),
                           np.column_stack([want, want]))


class TestLuSolve:
    def test_identity(self):
        F = lu_factor(sp.identity(2, format="csc"))
        assert np.allclose(F.solve(np.array([3.0, 7.0])), [3.0, 7.0])

    def test_permutation(self):
        F = lu_factor(as_csc(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.allclose(F.solve(np.array([5.0, 6.0])), [6.0, 5.0])

    def test_hand_elimination_system(self):
        # [[4,3],[6,3]] x = [10,12]: row-reduce to x = [1, 2].
        F = lu_factor(as_csc(np.array([[4.0, 3.0], [6.0, 3.0]])))
        assert np.allclose(F.solve(np.array([10.0, 12.0])), [1.0, 2.0],
                           atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 50), st.integers(0, 10_000))
    def test_random_well_conditioned_residual(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n)) * 0.1 + np.diag(2.0 + rng.random(n))
        b = rng.standard_normal(n)
        x = lu_factor(as_csc(M)).solve(b)
        res = np.linalg.norm(M @ x - b, np.inf)
        scale = np.abs(M).sum(axis=1).max() * np.linalg.norm(x, np.inf) \
            + np.linalg.norm(b, np.inf)
        assert res / scale <= 1e-10


class TestEigDense:
    def test_diagonal(self):
        triples = eig_dense(np.diag([1.0, 2.0]))
        vals = sorted(t[0].real for t in triples)
        assert np.allclose(vals, [1.0, 2.0])
        for s, v, _ in triples:
            k = int(np.argmax(np.abs(v)))
            e = np.zeros(2)
            e[k] = 1.0
            assert np.allclose(np.abs(v), e)

    def test_rotation_generator(self):
        vals = sorted((t[0] for t in eig_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))),
                      key=lambda z: z.imag)
        assert np.allclose(vals, [-1j, 1j])

    def test_companion_charpoly(self):
        # det(sI - A) = s^2 + 3 s + 2 = (s + 1)(s + 2).
        vals = sorted(t[0].real for t in eig_dense(np.array([[0.0, 1.0], [-2.0, -3.0]])))
        assert np.allclose(vals, [-2.0, -1.0], atol=1e-12)

    def test_right_residual_contract(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((12, 12))
        scale = np.linalg.norm(A, "fro")
        for s, v, _ in eig_dense(A):
            res = np.linalg.norm(A @ v - s * v) / (scale * np.linalg.norm(v))
            assert res <= 1e-8

    def test_left_vectors_satisfy_row_relation(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        for s, _, psi in eig_dense(A, want_left=True):
            res = np.linalg.norm(psi @ A - s * psi)
            assert res / (np.linalg.norm(A, "fro") * np.linalg.norm(psi)) <= 1e-8

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            eig_dense(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            eig_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 10_000))
    def test_trace_and_det_identities(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        vals = np.array([t[0] for t in eig_dense(A)])
        assert abs(vals.sum() - np.trace(A)) <= 1e-8 * np.linalg.norm(A, "fro")
        det = np.linalg.det(A)
        if abs(det) > 1e-6:
            assert abs(np.prod(vals) - det) <= 1e-6 * abs(det)


class TestMatrixMarket:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        M = sp.random(9, 9, density=0.3, random_state=7, format="csc")
        path = tmp_path / "m.mtx"
        write_matrix_market(path, M)
        back = read_matrix_market(path)
        assert np.allclose(M.toarray(), back.toarray())

    def test_header_is_coordinate_real_general(self, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, sp.identity(3, format="csc"))
        first = path.read_text().splitlines()[0]
        assert first.startswith("%%MatrixMarket matrix coordinate real general")

    def test_indices_are_one_based(self, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, as_csc(np.array([[5.0]])))
        rows = [ln for ln in path.read_text().splitlines()
                if ln and not ln.startswith("%")]
        # size line then the single entry at (1, 1)
        assert rows[1].split()[:2] == ["1", "1"]
