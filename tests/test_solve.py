import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from axisiga.assembly import MaterialConstants, MeshForms, build_mode_system
from axisiga.derham import DeRhamComplex2D
from axisiga.geometry import BUILTIN_GEOMETRIES
from axisiga import solve
from axisiga.solve import (
    SolveError,
    convergence_rate,
    solve_generalized_eig,
    solve_saddle_point,
)
from axisiga.splines import KnotVector, SplineSpace1D
from axisiga.quadrature import gauss_legendre


def _diagonal_pencil(n=12):
    """A = diag(0, 0, 1, ..., n - 2) and M = I, with the kernel basis G of
    the first two unit vectors."""
    return np.diag(np.r_[0.0, 0.0, np.arange(1.0, n - 1)]), np.eye(n), \
        np.eye(n)[:, :2]


def _random_pencil(n=30, k=3, seed=0):
    """A random PSD A with a k-dimensional kernel, its kernel basis G and a
    random SPD M."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n - k, n))
    G = sla.null_space(X)
    Y = rng.standard_normal((n, n))
    return X.T @ X, Y @ Y.T + n * np.eye(n), G


class TestGeneralizedEig:
    def test_diagonal_with_kernel(self):
        A, M, G = _diagonal_pencil()
        res = solve_generalized_eig(A, M, 3, G)
        assert res.eigenvalues == pytest.approx([1.0, 2.0, 3.0], rel=1e-13)
        assert res.num_filtered == 2 and res.threshold == 0.0
        assert res.factor_nnz == 2 * 12   # L stores its unit diagonal
        # a dropped column leaves an exact zero eigenvalue, and the exactly
        # zero kernel pencil a threshold of 0
        with pytest.raises(SolveError, match="no gap"):
            solve_generalized_eig(A, M, 3, G[:, 1:])
        for k in (1, 3):    # a one-column kernel pencil is a ratio
            A, M, G = _random_pencil(k=k)
            vals = sla.eigh(A, M, eigvals_only=True)
            res = solve_generalized_eig(A, M, 5, G)
            assert np.abs(res.eigenvalues / vals[k:k + 5] - 1).max() <= 1e-12
            assert res.eigenvalues[0] >= 1e6 * res.threshold > 0

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
                                    M[np.ix_(free, free)], 3,
                                    np.zeros((n - 2, 0)))
        assert res.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-3)
        assert res.num_filtered == 0 and res.threshold == 0.0
        assert np.all(res.residuals <= 1e-8)

    def test_m_orthonormal_vectors(self):
        A, M, G = _random_pencil()
        res = solve_generalized_eig(A, M, 5, G)
        gram = res.eigenvectors.T @ M @ res.eigenvectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-10
        # and M-orthogonal to the kernel
        assert np.abs(G.T @ M @ res.eigenvectors).max() <= 1e-10
        assert np.all(res.residuals <= 1e-12)

    def test_too_many_requested(self):
        # Lanczos needs one vector more than pairs in the 10-dimensional
        # complement of the kernel
        A, M, G = _diagonal_pencil()
        res = solve_generalized_eig(A, M, 9, G)
        assert res.eigenvalues == pytest.approx(np.arange(1.0, 10), rel=1e-13)
        for count in (10, 11, 0):
            with pytest.raises(SolveError):
                solve_generalized_eig(A, M, count, G)

    def test_dependent_kernel_basis_rejected(self):
        # G^T M G is singular: its sparse factor fails
        A, M, G = _diagonal_pencil()
        with pytest.raises(SolveError, match="factorization"):
            solve_generalized_eig(A, M, 3, np.c_[G, G[:, :1]])

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(SolveError):
            solve_generalized_eig(A, np.eye(2), 1, np.zeros((2, 0)))

    def test_dense_inputs_untouched(self):
        A, M, G = (np.asfortranarray(a) for a in _random_pencil(seed=4))
        As, Ms, Gs = (sp.csc_matrix(a) for a in (A, M, G))
        copies = [a.copy() for a in (A, M, G, As.data, Ms.data, Gs.data)]
        solve_generalized_eig(A, M, 3, G)
        solve_generalized_eig(As, Ms, 3, Gs)
        for a, b in zip((A, M, G, As.data, Ms.data, Gs.data), copies):
            assert np.array_equal(a, b)

    def test_dense_and_sparse_agree(self):
        A, M, G = _random_pencil(seed=5)
        dense = solve_generalized_eig(A, M, 4, G)
        sparse = solve_generalized_eig(sp.csr_matrix(A), sp.csr_matrix(M), 4,
                                       sp.csr_matrix(G))
        assert np.array_equal(dense.eigenvalues, sparse.eigenvalues)
        assert np.array_equal(dense.eigenvectors, sparse.eigenvectors)
        assert dense.threshold == sparse.threshold


def _cavity_pencil(name, p, sub, m):
    """Reduced (A, M) of one mode of a cavity and its kernel basis, the
    reduced G."""
    s = lambda: SplineSpace1D(KnotVector.uniform(p, sub))
    forms = MeshForms(DeRhamComplex2D(s(), s()), BUILTIN_GEOMETRIES[name](),
                      MaterialConstants(1.0, 1.0))
    sys_ = build_mode_system(forms, m)
    A, M, _, _ = sys_.reduced()
    return A, M, sys_.G


# p=2 on two geometries, and p=3 on the symmetric pillbox section, where an
# unlucky start vector misses modes
CAVITIES = [pytest.param(name, 2, sub, m, id=f"{name}-{sub}-{m}")
            for name in ("pillbox-section", "quarter-annulus")
            for sub in (4, 8) for m in (1, 26)] + [
    pytest.param("pillbox-section", 3, 16, m, id=f"pillbox-section-p3-16-{m}")
    for m in (1, 26)]


class TestKernelDimensionOracle:
    """Full dense ``eigh`` of the cavity pencil is the oracle of the kernel
    dimension and of the returned eigenpairs."""

    @pytest.mark.parametrize("name,p,sub,m", CAVITIES)
    def test_matches_full_spectrum(self, name, p, sub, m):
        A, M, G = _cavity_pencil(name, p, sub, m)
        vals, vecs = sla.eigh(A.toarray(), M.toarray())
        kernel_dim = G.shape[1]
        assert kernel_dim == np.count_nonzero(vals <= 1e-6 * vals[-1])
        res = solve_generalized_eig(A, M, 10, G)
        ref_vals = vals[kernel_dim:kernel_dim + 10]
        ref_vecs = vecs[:, kernel_dim:kernel_dim + 10]
        assert np.abs(res.eigenvalues / ref_vals - 1).max() <= 1e-10
        signs = np.sign(np.sum(res.eigenvectors * ref_vecs, axis=0))
        assert (np.abs(res.eigenvectors * signs - ref_vecs).max()
                <= 1e-10 * np.abs(ref_vecs).max())
        assert res.num_filtered == kernel_dim
        assert res.eigenvalues[0] >= 1e6 * res.threshold > 0
        assert res.residuals.max() <= 1e-12

    @pytest.mark.parametrize("name,p,sub,m", CAVITIES)
    def test_wrong_kernel_dim_rejected(self, name, p, sub, m):
        A, M, G = _cavity_pencil(name, p, sub, m)
        # one kernel column too few, or one non-kernel column too many
        extra = np.random.default_rng(0).standard_normal((G.shape[0], 1))
        for wrong in (G[:, 1:], sp.hstack([G, sp.csr_matrix(extra)])):
            with pytest.raises(SolveError):
                solve_generalized_eig(A, M, 10, wrong)

    def test_repeatable(self):
        # byte-reproducible CSV rows rest on the seeded start vector
        A, M, G = _cavity_pencil("pillbox-section", 3, 16, 1)
        first, second = (solve_generalized_eig(A, M, 10, G) for _ in "ab")
        assert np.array_equal(first.eigenvalues, second.eigenvalues)


class TestBlasThreads:
    """The eigensolve runs on one thread of scipy's OpenBLAS and gives the
    thread count back after it."""

    @pytest.fixture
    def threads(self):
        funcs = solve._scipy_openblas()
        if funcs is None:
            pytest.skip("scipy bundles no OpenBLAS here")
        get, put = funcs
        before = get()
        put(2)      # a count the pin has to change and give back
        yield get
        put(before)

    def test_pinned_during_the_solve_and_restored(self, threads, monkeypatch):
        during, eigsh = [], solve.eigsh

        def counting_eigsh(*args, **kwargs):
            during.append(threads())
            return eigsh(*args, **kwargs)

        before = threads()
        monkeypatch.setattr(solve, "eigsh", counting_eigsh)
        A, M, G = _random_pencil()
        res = solve_generalized_eig(A, M, 5, G)
        assert during == [1, 1]        # the pencil's and the kernel pencil's
        assert res.blas_threads == 1
        assert threads() == before
        vals = sla.eigh(A, M, eigvals_only=True)
        assert np.abs(res.eigenvalues / vals[3:8] - 1).max() <= 1e-12

    def test_restored_after_a_failed_solve(self, threads):
        before = threads()
        A, M, G = _diagonal_pencil()
        with pytest.raises(SolveError, match="no gap"):
            solve_generalized_eig(A, M, 3, G[:, 1:])
        with pytest.raises(SolveError, match="factorization"):
            solve_generalized_eig(A, M, 3, np.c_[G, G[:, :1]])
        assert threads() == before

    def test_runs_unpinned_without_openblas(self, monkeypatch):
        A, M, G = _cavity_pencil("pillbox-section", 2, 4, 1)
        pinned = solve_generalized_eig(A, M, 5, G)
        monkeypatch.setattr(solve, "_scipy_openblas", lambda: None)
        plain = solve_generalized_eig(A, M, 5, G)
        assert plain.blas_threads is None
        assert np.abs(plain.eigenvalues / pinned.eigenvalues - 1).max() \
            <= 1e-13


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

    def test_residuals_are_scale_invariant(self):
        # a tiny B or f leaves the relative residuals at round-off, neither
        # vanishing with the scale (absolute) nor growing
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 8))
        A = X @ X.T + 8 * np.eye(8)
        B = rng.standard_normal((8, 3))
        f = rng.standard_normal(8)
        for B_, f_ in ((B, f), (1e-12 * B, f), (B, 1e-10 * f)):
            for sol in _solve_both(A, B_, f_):
                assert 1e-18 < sol.residual_primal < 1e-14
                assert 1e-18 < sol.residual_gauge < 1e-14


class TestSaddlePointLoads:
    """Several loads, one factorization: F of shape (n, r)."""

    @staticmethod
    def _system(seed=5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((9, 9))
        A = X @ X.T + 9 * np.eye(9)
        A[0, 1:3] = A[1:3, 0] = 0.0          # some structural zeros
        B = rng.standard_normal((9, 4))
        B[::2, 1] = 0.0
        return A, B, rng.standard_normal((9, 2))

    def test_columns_match_single_solves(self):
        A, B, F = self._system()
        for A_, B_ in ((A, B), (sp.csr_matrix(A), sp.csr_matrix(B))):
            both = solve_saddle_point(A_, B_, F)
            assert both.u.shape == (9, 2) and both.p.shape == (4, 2)
            cols = [solve_saddle_point(A_, B_, f) for f in F.T]
            for j, one in enumerate(cols):
                for x, y in ((both.u[:, j], one.u), (both.p[:, j], one.p)):
                    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
            assert isinstance(both.residual_primal, float)
            assert isinstance(both.residual_gauge, float)

    def test_one_dimensional_load_keeps_shapes(self):
        A, B, F = self._system()
        sol = solve_saddle_point(A, B, F[:, 0])
        assert sol.u.shape == (9,) and sol.p.shape == (4,)

    def test_zero_load(self):
        A, B, F = self._system()
        F[:, 0] = 0.0
        sol = solve_saddle_point(A, B, F)
        assert not sol.u[:, 0].any() and not sol.p[:, 0].any()
        # the residuals are the worst column's, not the first's
        assert sol.residual_primal > 0 and sol.residual_gauge > 0
        zero = solve_saddle_point(A, B, np.zeros((9, 1)))
        assert not zero.u.any()
        assert zero.residual_primal == zero.residual_gauge == 0.0

    @pytest.mark.parametrize("shape", [(8,), (10, 2), (9, 2, 1)])
    def test_bad_load_shape_rejected(self, shape):
        A, B, _ = self._system()
        with pytest.raises(SolveError):
            solve_saddle_point(A, B, np.ones(shape))


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
