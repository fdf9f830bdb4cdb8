import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from axisiga.assembly import MaterialConstants, MeshForms, build_mode_system
from axisiga.derham import DeRhamComplex2D
from axisiga.geometry import BUILTIN_GEOMETRIES
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
        res = solve_generalized_eig(A, np.eye(3), 2, 1)
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
                                    M[np.ix_(free, free)], 3, 0)
        assert res.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-3)
        assert np.all(res.residuals <= 1e-8)

    def test_m_orthonormal_vectors(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 30))
        A = X @ X.T
        Y = rng.standard_normal((30, 30))
        M = Y @ Y.T + 30 * np.eye(30)
        res = solve_generalized_eig(A, M, 5, 0)
        gram = res.eigenvectors.T @ M @ res.eigenvectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-10

    def test_too_many_requested(self):
        with pytest.raises(SolveError):
            solve_generalized_eig(np.diag([0.0, 1.0]), np.eye(2), 2, 1)

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(SolveError):
            solve_generalized_eig(A, np.eye(2), 1, 0)

    def test_dense_inputs_untouched(self):
        # LAPACK overwrites its operands: they must be copies, even of
        # Fortran-ordered float arrays
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 20))
        A = np.asfortranarray(X @ X.T)
        M = np.asfortranarray(X.T @ X + 20 * np.eye(20))
        A0, M0 = A.copy(), M.copy()
        dense = solve_generalized_eig(A, M, 3, 0)
        assert np.array_equal(A, A0) and np.array_equal(M, M0)
        sparse = solve_generalized_eig(sp.csr_matrix(A), sp.csr_matrix(M),
                                       3, 0)
        assert np.array_equal(dense.eigenvalues, sparse.eigenvalues)


def _cavity_pencil(name, sub, m):
    """Reduced (A, M) of one mode of a p=2 cavity and its kernel dimension,
    the number of free Z^0 DoFs."""
    s = lambda: SplineSpace1D(KnotVector.uniform(2, sub))
    forms = MeshForms(DeRhamComplex2D(s(), s()), BUILTIN_GEOMETRIES[name](),
                      MaterialConstants(1.0, 1.0))
    A, M, B, _ = build_mode_system(forms, m).reduced()
    return A, M, B.shape[1]


CAVITIES = [(name, sub, m) for name in ("pillbox-section", "quarter-annulus")
            for sub in (4, 8) for m in (1, 26)]


class TestKernelDimensionOracle:
    """Full dense ``eigh`` of the cavity pencil is the oracle of the kernel
    dimension and of the returned eigenpairs."""

    @pytest.mark.parametrize("name,sub,m", CAVITIES)
    def test_matches_full_spectrum(self, name, sub, m):
        A, M, kernel_dim = _cavity_pencil(name, sub, m)
        vals, vecs = sla.eigh(A.toarray(), M.toarray())
        assert kernel_dim == np.count_nonzero(vals <= 1e-6 * vals[-1])
        res = solve_generalized_eig(A, M, 10, kernel_dim)
        ref_vals = vals[kernel_dim:kernel_dim + 10]
        ref_vecs = vecs[:, kernel_dim:kernel_dim + 10]
        assert np.abs(res.eigenvalues / ref_vals - 1).max() <= 1e-10
        signs = np.sign(np.sum(res.eigenvectors * ref_vecs, axis=0))
        assert (np.abs(res.eigenvectors * signs - ref_vecs).max()
                <= 1e-10 * np.abs(ref_vecs).max())
        assert res.num_filtered == kernel_dim
        assert res.eigenvalues[0] >= 1e6 * res.threshold > 0

    @pytest.mark.parametrize("name,sub,m", CAVITIES)
    def test_wrong_kernel_dim_rejected(self, name, sub, m):
        A, M, kernel_dim = _cavity_pencil(name, sub, m)
        for wrong in (kernel_dim - 1, kernel_dim + 1):
            with pytest.raises(SolveError):
                solve_generalized_eig(A, M, 10, wrong)


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
