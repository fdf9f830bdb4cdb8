import numpy as np
import pytest
import scipy.sparse as sp

from axisiga.solve import (
    SolveError,
    convergence_rate,
    solve_generalized_eig,
    solve_saddle_point,
)
from axisiga.splines import KnotVector, SplineSpace1D
from axisiga.quadrature import gauss_legendre


class TestGeneralizedEig:
    def test_diagonal_with_kernel(self):
        A = np.diag([0.0, 1.0, 4.0])
        res = solve_generalized_eig(A, np.eye(3), 2)
        assert res.eigenvalues == pytest.approx([1.0, 4.0])
        assert res.num_filtered == 1

    def test_dirichlet_laplacian_p1(self):
        # classical P1 FEM on [0,1] with 64 elements: lambda_1 ~ pi^2
        s = SplineSpace1D(KnotVector.uniform(1, 64))
        n = s.num_basis
        rule = gauss_legendre(2)
        K = np.zeros((n, n))
        M = np.zeros((n, n))
        for a, b in s.elements:
            xs, ws = rule.mapped(a, b)
            for x, w in zip(xs, ws):
                f, v = s.eval_basis(x)
                _, d = s.eval_basis_deriv(x)
                K[f : f + 2, f : f + 2] += w * np.outer(d, d)
                M[f : f + 2, f : f + 2] += w * np.outer(v, v)
        free = np.arange(1, n - 1)  # drop the boundary hats
        res = solve_generalized_eig(K[np.ix_(free, free)],
                                    M[np.ix_(free, free)], 3)
        assert res.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-3)
        assert np.all(res.residuals <= 1e-8)

    def test_m_orthonormal_vectors(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 30))
        A = X @ X.T
        Y = rng.standard_normal((30, 30))
        M = Y @ Y.T + 30 * np.eye(30)
        res = solve_generalized_eig(A, M, 5)
        gram = res.eigenvectors.T @ M @ res.eigenvectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-10

    def test_too_many_requested(self):
        with pytest.raises(SolveError):
            solve_generalized_eig(np.diag([0.0, 1.0]), np.eye(2), 2)

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(SolveError):
            solve_generalized_eig(A, np.eye(2), 1)


def _solve_both(A, B, f):
    """The KKT solution for dense and for sparse (A, B), after checking
    that both give the same u and p."""
    dense = solve_saddle_point(A, B, f)
    sparse = solve_saddle_point(sp.csr_matrix(A), sp.csr_matrix(B), f)
    for a, b in ((sparse.u, dense.u), (sparse.p, dense.p)):
        assert np.abs(a - b).max() <= 1e-13 * max(np.abs(b).max(), 1.0)
    return dense, sparse


class TestSaddlePoint:
    def test_hand_solved_2x2(self):
        for sol in _solve_both(np.array([[2.0]]), np.array([[1.0]]),
                               np.array([3.0])):
            assert sol.u == pytest.approx([0.0], abs=1e-12)
            assert sol.p == pytest.approx([3.0], abs=1e-12)

    def test_consistent_data_zero_multiplier(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 5))
        A = X @ X.T + 5 * np.eye(5)
        B = rng.standard_normal((5, 2))
        # u0 orthogonal to range-constraint: B^T u0 = 0
        ns = np.linalg.svd(B.T)[2][2:].T  # null-space basis of B^T
        u0 = ns @ rng.standard_normal(3)
        for sol in _solve_both(A, B, A @ u0):
            assert np.allclose(sol.u, u0, atol=1e-10)
            assert np.abs(sol.p).max() <= 1e-10 * np.abs(A @ u0).max()
            assert sol.residual_gauge <= 1e-10

    def test_extreme_scale_separation(self):
        # mimics 1/mu ~ 1e6 stiffness against eps ~ 1e-12 constraint blocks
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 8))
        A = 1e6 * (X @ X.T + 8 * np.eye(8))
        B = 1e-12 * rng.standard_normal((8, 3))
        f = rng.standard_normal(8)
        for sol in _solve_both(A, B, f):
            assert sol.residual_primal <= 1e-10
            assert sol.residual_gauge <= 1e-10

    def test_zero_constraint_rejected(self):
        for B in (np.zeros((2, 1)), sp.csr_matrix((2, 1))):
            with pytest.raises(SolveError):
                solve_saddle_point(np.eye(2), B, np.ones(2))


class TestConvergenceRate:
    def test_exact_quadratic(self):
        hs = np.array([0.5, 0.25, 0.125, 0.0625])
        assert convergence_rate(hs, hs**2) == pytest.approx(2.0, abs=1e-12)

    def test_constant_drops_out(self):
        hs = np.array([0.4, 0.2, 0.1])
        assert convergence_rate(hs, 3 * hs**3) == pytest.approx(3.0, abs=1e-12)

    def test_noisy_fourth_order(self):
        rng = np.random.default_rng(3)
        hs = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
        noise = 1 + 0.05 * (2 * rng.random(5) - 1)
        rate = convergence_rate(hs, hs**4 * noise)
        assert rate == pytest.approx(4.0, abs=0.2)

    def test_bad_inputs(self):
        with pytest.raises(SolveError):
            convergence_rate([0.5, 0.25], [1.0, 2.0])
        with pytest.raises(SolveError):
            convergence_rate([0.5, 0.25, 0.1], [1.0, -2.0, 1.0])
