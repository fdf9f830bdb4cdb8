import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from axisiga.assembly import (MaterialConstants, MeshForms, _element_rule,
                              build_mode_system)
from axisiga.derham import DeRhamComplex2D
from axisiga.geometry import BUILTIN_GEOMETRIES
from axisiga.manufactured import ManufacturedSolution
from axisiga import solve
from axisiga.solve import (
    SolveError,
    convergence_rate,
    solve_generalized_eig,
    solve_saddle_point,
)
from axisiga.splines import KnotVector, SplineSpace1D


def _diagonal_pencil(n=12):
    """A = diag(1, ..., n - 2, 0, 0) and M = I, with the kernel basis G of
    the last two unit vectors."""
    return np.diag(np.r_[np.arange(1.0, n - 1), 0.0, 0.0]), np.eye(n), \
        np.eye(n)[:, -2:]


def _random_pencil(n=30, k=3, seed=0):
    """A random PSD A = X^T X with a k-dimensional kernel, its kernel basis
    G = [W; -I] (X G = 0; the last k rows a diagonal block, as the gradient
    of a de Rham complex has them) and a random SPD M."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n - k, n))
    N = sla.null_space(X)
    G = np.r_[-N[:n - k] @ np.linalg.inv(N[n - k:]), -np.eye(k)]
    Y = rng.standard_normal((n, n))
    return X.T @ X, Y @ Y.T + n * np.eye(n), G


class TestGeneralizedEig:
    def test_diagonal_with_kernel(self):
        A, M, G = _diagonal_pencil()
        res = solve_generalized_eig(A, M, 3, G)
        assert res.eigenvalues == pytest.approx([1.0, 2.0, 3.0], rel=1e-13)
        assert res.num_filtered == 2 and res.kernel_residual == 0.0
        # the round-off floor eps * max(diag A / diag M) = 10 eps
        assert res.threshold == 10 * np.finfo(float).eps
        # the factor of A's leading block of order 10: SuperLU stores L's
        # unit diagonal and U's diagonal
        assert res.factor_nnz == 2 * 10
        # a dropped column leaves the leading block exactly singular
        with pytest.raises(SolveError, match="no gap"):
            solve_generalized_eig(A, M, 3, G[:, 1:])
        for k in (1, 3):
            A, M, G = _random_pencil(k=k)
            vals = sla.eigh(A, M, eigvals_only=True)
            res = solve_generalized_eig(A, M, 5, G)
            assert np.abs(res.eigenvalues / vals[k:k + 5] - 1).max() <= 1e-12
            assert res.eigenvalues[0] >= 1e6 * res.threshold > 0

    def test_dirichlet_laplacian_p1(self):
        # classical P1 FEM on [0,1] with 64 elements: lambda_1 ~ pi^2
        s = SplineSpace1D(KnotVector.uniform(1, 64))
        n = s.num_basis
        K = np.zeros((n, n))
        M = np.zeros((n, n))
        for x, w in zip(*_element_rule(s.breakpoints, 2)):
            f, v = s.eval_basis(x)
            _, d = s.eval_basis_deriv(x)
            K[f : f + 2, f : f + 2] += w * np.outer(d, d)
            M[f : f + 2, f : f + 2] += w * np.outer(v, v)
        free = np.arange(1, n - 1)  # drop the boundary hats
        res = solve_generalized_eig(K[np.ix_(free, free)],
                                    M[np.ix_(free, free)], 3,
                                    np.zeros((n - 2, 0)))
        assert res.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-3)
        assert res.num_filtered == 0 and res.kernel_residual == 0.0
        assert res.threshold == np.finfo(float).eps * max(
            np.diag(K)[free] / np.diag(M)[free])
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
        assert dense.kernel_residual == sparse.kernel_residual

    def test_op_applications_are_arpack_calls(self, monkeypatch):
        # op_applications counts the operator calls ARPACK makes, with no
        # probe of the operator outside the Lanczos run
        calls, eigsh = [], solve.eigsh

        def counting_eigsh(*args, OPinv=None, **kwargs):
            if OPinv is not None:
                def matvec(x, inner=OPinv):
                    calls.append(1)
                    return inner.matvec(x)
                OPinv = LinearOperator(OPinv.shape, matvec, dtype=float)
            return eigsh(*args, OPinv=OPinv, **kwargs)

        monkeypatch.setattr(solve, "eigsh", counting_eigsh)
        for A, M, G in (_random_pencil(),
                        _cavity_pencil("pillbox-section", 2, 4, 1)):
            calls.clear()
            res = solve_generalized_eig(A, M, 5, G)
            assert res.op_applications == len(calls) > 0

    def test_arpack_gets_the_callers_csr_m(self, monkeypatch):
        seen, eigsh = [], solve.eigsh

        def recording_eigsh(*args, **kwargs):
            seen.append(kwargs["M"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(solve, "eigsh", recording_eigsh)
        A, M, G = _cavity_pencil("pillbox-section", 2, 4, 1)
        assert M.format == "csr"
        res = solve_generalized_eig(A, M, 5, G)
        # the pencil's M, not a CSC copy, drives the Lanczos products
        assert seen[0].format == "csr"
        assert np.shares_memory(seen[0].data, M.data)
        vals = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True)
        k = G.shape[1]
        assert np.abs(res.eigenvalues / vals[k:k + 5] - 1).max() <= 1e-12


def _cavity_pencil(name, p, sub, m):
    """Reduced (A, M) of one mode of a cavity and its kernel basis, the
    reduced G."""
    s = lambda: SplineSpace1D(KnotVector.uniform(p, sub))
    forms = MeshForms(DeRhamComplex2D(s(), s()), BUILTIN_GEOMETRIES[name](),
                      MaterialConstants(1.0, 1.0))
    sys_ = build_mode_system(forms, m)
    A, M, _ = sys_.reduced()
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
        assert res.kernel_residual <= 1e3 * np.finfo(float).eps
        assert res.residuals.max() <= 1e-12

    @pytest.mark.parametrize("name,p,sub,m", CAVITIES)
    def test_wrong_kernel_dim_rejected(self, name, p, sub, m):
        A, M, G = _cavity_pencil(name, p, sub, m)
        # one kernel column too few, or one non-kernel column too many
        extra = np.random.default_rng(0).standard_normal((G.shape[0], 1))
        for wrong in (G[:, 1:], sp.hstack([G, sp.csr_matrix(extra)])):
            with pytest.raises(SolveError):
                solve_generalized_eig(A, M, 10, wrong)

    @pytest.mark.parametrize("name,p,sub,m", CAVITIES)
    def test_perturbed_kernel_column_rejected(self, name, p, sub, m):
        # a relative 1e-8 in the meridional part of one gradient keeps the
        # diagonal row, K's factor and lambda_0's gap above round-off: only
        # A G = 0 catches it
        A, M, G = _cavity_pencil(name, p, sub, m)
        n, k = G.shape
        wrong = G.tolil()
        wrong[:n - k, 0] += 1e-8 * abs(G).max() * np.random.default_rng(
            3).standard_normal((n - k, 1))
        with pytest.raises(SolveError, match=r"range\(G\)"):
            solve_generalized_eig(A, M, 10, wrong)

    def test_repeatable(self):
        # byte-reproducible CSV rows rest on the seeded start vector
        A, M, G = _cavity_pencil("pillbox-section", 3, 16, 1)
        first, second = (solve_generalized_eig(A, M, 10, G) for _ in "ab")
        assert np.array_equal(first.eigenvalues, second.eigenvalues)


class TestBlasThreads:
    """The eigensolve and the saddle-point solve run on one thread of
    scipy's OpenBLAS and give the thread count back after them."""

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
        assert during == [1]           # one Lanczos run
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

    def test_saddle_point_pinned_and_restored(self, threads, monkeypatch):
        during, splu = [], solve.splu

        def counting_splu(*args, **kwargs):
            during.append(threads())
            return splu(*args, **kwargs)

        before = threads()
        monkeypatch.setattr(solve, "splu", counting_splu)
        A, M, G = _random_pencil(30, 3, seed=0)
        f = np.random.default_rng(10).standard_normal(30)
        sol = solve_saddle_point(A, M, f, G)
        assert during == [1, 1] and sol.blas_threads == 1   # S, A[:n-k, :n-k]
        assert threads() == before
        # a G missing a kernel column leaves the residual at O(1)
        with pytest.raises(SolveError, match="kernel"):
            solve_saddle_point(A, M, f, G[:, 1:])
        assert threads() == before
        monkeypatch.setattr(solve, "_scipy_openblas", lambda: None)
        plain = solve_saddle_point(A, M, f, G)
        assert plain.blas_threads is None
        assert _rel(plain.u, sol.u) <= 1e-13

    def test_runs_unpinned_without_openblas(self, monkeypatch):
        A, M, G = _cavity_pencil("pillbox-section", 2, 4, 1)
        pinned = solve_generalized_eig(A, M, 5, G)
        monkeypatch.setattr(solve, "_scipy_openblas", lambda: None)
        plain = solve_generalized_eig(A, M, 5, G)
        assert plain.blas_threads is None
        assert np.abs(plain.eigenvalues / pinned.eigenvalues - 1).max() \
            <= 1e-13


def _dense_kkt(A, B, F):
    """The oracle: a dense symmetric-indefinite (LDL^T) solve of the whole
    (n + k) KKT matrix [A sB; sB^T 0], with s = max|A| / max|B|."""
    a, b = sp.coo_matrix(A), sp.coo_matrix(B)
    a.sum_duplicates()
    b.sum_duplicates()
    n, k = b.shape
    sigma = np.abs(a.data).max() / np.abs(b.data).max()
    K = np.zeros((n + k, n + k))
    K[a.row, a.col] = a.data
    K[b.row, n + b.col] = K[n + b.col, b.row] = sigma * b.data
    F = np.asarray(F, dtype=float)
    x = sla.solve(K, np.concatenate([F, np.zeros((k,) + F.shape[1:])]),
                  assume_a="sym")
    return x[:n], sigma * x[n:]


def _kernel_system(n=9, k=4, seed=5, a_scale=1.0, m_scale=1.0):
    """(A, M, G) of a random pencil: PSD A with kernel range(G) and SPD M,
    each scaled."""
    A, M, G = _random_pencil(n, k, seed)
    return a_scale * A, m_scale * M, G


def _solve_both(A, M, f, G):
    """The saddle-point solution for dense and for sparse (A, M, G), after
    checking that both give the same u and p."""
    dense = solve_saddle_point(A, M, f, G)
    sparse = solve_saddle_point(sp.csr_matrix(A), sp.csr_matrix(M), f,
                                sp.csr_matrix(G))
    for a, b in ((sparse.u, dense.u), (sparse.p, dense.p)):
        assert np.abs(a - b).max() <= 1e-13 * max(np.abs(b).max(), 1.0)
    return dense, sparse


def _rel(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


def _count_applications(monkeypatch) -> list:
    """Record the shape of each load the saddle-point solves that follow
    apply the complement inverse to."""
    applied = []
    make = solve._complement_inverse

    def counted(*args):
        inverse, factor_nnz = make(*args)

        def apply(x):
            applied.append(x.shape)
            return inverse(x)
        return apply, factor_nnz

    monkeypatch.setattr(solve, "_complement_inverse", counted)
    return applied


# A = [1 -1; -1 1] has the kernel G = (1, 1); M = I, so B = G
_HAND = np.array([[1.0, -1.0], [-1.0, 1.0]]), np.eye(2), np.ones((2, 1))


class TestSaddlePoint:
    def test_hand_solved_2x2(self):
        # G^T f = 4 = G^T G p gives p = 2; A u = f - B p = (1, -1) with
        # u_1 + u_2 = 0 gives u = (1/2, -1/2)
        A, M, G = _HAND
        for sol in _solve_both(A, M, np.array([3.0, 1.0]), G):
            assert sol.u == pytest.approx([0.5, -0.5], abs=1e-12)
            assert sol.p == pytest.approx([2.0], abs=1e-12)

    def test_consistent_data_zero_multiplier(self):
        A, M, G = _kernel_system(8, 3, seed=1)
        # u0 in ker B^T: a random vector with its range(G) part projected
        # out M-orthogonally
        r = np.random.default_rng(11).standard_normal(8)
        u0 = r - G @ np.linalg.solve(G.T @ M @ G, G.T @ M @ r)
        for sol in _solve_both(A, M, A @ u0, G):
            assert np.allclose(sol.u, u0, atol=1e-10)
            assert np.abs(sol.p).max() <= 1e-10 * np.abs(A @ u0).max()
            assert sol.residual_gauge <= 1e-10

    def test_extreme_scale_separation(self):
        # mimics 1/mu ~ 1e6 stiffness against eps ~ 1e-12 constraint blocks
        A, M, G = _kernel_system(8, 3, seed=2, a_scale=1e6, m_scale=1e-12)
        f = np.random.default_rng(12).standard_normal(8)
        for sol in _solve_both(A, M, f, G):
            assert sol.residual_primal <= 1e-10
            assert sol.residual_gauge <= 1e-10

    def test_zero_constraint_rejected(self):
        # B = M G is zero exactly when G is
        A, M, _ = _HAND
        for G in (np.zeros((2, 1)), sp.csr_matrix((2, 1))):
            with pytest.raises(SolveError):
                solve_saddle_point(A, M, np.ones(2), G)

    def test_residuals_are_scale_invariant(self):
        # a tiny B or f leaves the relative residuals at round-off, neither
        # vanishing with the scale (absolute) nor growing; order 12, as on
        # order 8 or 9 the projection can leave B^T u exactly 0
        f = np.random.default_rng(14).standard_normal(12)
        for m_scale, f_ in ((1.0, f), (1e-12, f), (1.0, 1e-10 * f)):
            A, M, G = _kernel_system(12, 3, seed=4, m_scale=m_scale)
            for sol in _solve_both(A, M, f_, G):
                assert 1e-18 < sol.residual_primal < 1e-14
                assert 1e-18 < sol.residual_gauge < 1e-14


class TestSaddlePointLoads:
    """Several loads, one pair of factors: F of shape (n, r)."""

    @staticmethod
    def _system(seed=5):
        A, M, G = _kernel_system(seed=seed)
        # a stream apart from the pencil's, whose first numbers span A's
        # range
        F = np.random.default_rng(10 + seed).standard_normal((9, 2))
        return A, M, F, G

    def test_columns_match_single_solves(self):
        A, M, F, G = self._system()
        for A_, M_, G_ in ((A, M, G), (sp.csr_matrix(A), sp.csr_matrix(M),
                                       sp.csr_matrix(G))):
            both = solve_saddle_point(A_, M_, F, G_)
            assert both.u.shape == (9, 2) and both.p.shape == (4, 2)
            cols = [solve_saddle_point(A_, M_, f, G_) for f in F.T]
            for j, one in enumerate(cols):
                for x, y in ((both.u[:, j], one.u), (both.p[:, j], one.p)):
                    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
            assert isinstance(both.residual_primal, float)
            assert isinstance(both.residual_gauge, float)

    def test_one_dimensional_load_keeps_shapes(self):
        A, M, F, G = self._system()
        sol = solve_saddle_point(A, M, F[:, 0], G)
        assert sol.u.shape == (9,) and sol.p.shape == (4,)

    def test_zero_load(self):
        A, M, F, G = self._system()
        F[:, 0] = 0.0
        sol = solve_saddle_point(A, M, F, G)
        assert not sol.u[:, 0].any() and not sol.p[:, 0].any()
        # the residuals are the worst column's, not the first's
        assert sol.residual_primal > 0 and sol.residual_gauge > 0
        zero = solve_saddle_point(A, M, np.zeros((9, 1)), G)
        assert not zero.u.any() and not zero.p.any()
        assert zero.residual_primal == zero.residual_gauge == 0.0

    @pytest.mark.parametrize("shape", [(8,), (10, 2), (9, 2, 1)])
    def test_bad_load_shape_rejected(self, shape):
        A, M, _, G = self._system()
        with pytest.raises(SolveError):
            solve_saddle_point(A, M, np.ones(shape), G)


class TestSaddlePointOracle:
    """The LDL^T solve of the whole KKT matrix is the oracle of u and p.
    Each solve takes fixed work: the complement inverse applied to r, then
    once to r - A u, the one refinement step."""

    @pytest.mark.parametrize("n,k,seed", [(9, 4, 5), (30, 3, 0), (40, 12, 7)])
    def test_random_pencils_match_dense_kkt(self, monkeypatch, n, k, seed):
        A, M, G = _kernel_system(n, k, seed=seed)
        F = np.random.default_rng(10 + seed).standard_normal((n, 3))
        u0, p0 = _dense_kkt(A, M @ G, F)
        applied = _count_applications(monkeypatch)
        for sol in _solve_both(A, M, F, G):
            assert _rel(sol.u, u0) <= 1e-11 and _rel(sol.p, p0) <= 1e-11
            assert sol.residual_primal <= 1e-14
        assert applied == [(n, 3)] * 4        # twice in each of two solves

    # mu = 1e6 scales A by 1e-6 against M: the high-contrast pencil
    @pytest.mark.parametrize("p,sub,mu", [
        pytest.param(2, 4, 1.0, id="2-4"), pytest.param(3, 8, 1.0, id="3-8"),
        pytest.param(2, 4, 1e6, id="2-4-mu1e6")])
    def test_rectangle_source_system_matches_dense_kkt(self, monkeypatch, p,
                                                       sub, mu):
        s = lambda: SplineSpace1D(KnotVector.uniform(p, sub))
        mats = MaterialConstants(1.0, mu)
        forms = MeshForms(DeRhamComplex2D(s(), s()),
                          BUILTIN_GEOMETRIES["rectangle"](), mats)
        source = ManufacturedSolution(2.0, mats)
        sys_ = build_mode_system(forms, 3, source=source.current,
                                 neumann=source.neumann)
        A, M, f = sys_.reduced()
        B = sys_.B
        # the manufactured current is divergence-free, so its multiplier
        # is round-off; a random load gives an O(1) one
        F = np.column_stack([f, np.random.default_rng(0).standard_normal(
            A.shape[0])])
        u0, p0 = _dense_kkt(A, B, F)
        applied = _count_applications(monkeypatch)
        sol = solve_saddle_point(A, M, F, sys_.G)
        assert applied == [F.shape] * 2
        for j in range(2):
            assert _rel(sol.u[:, j], u0[:, j]) <= 1e-11
            assert np.linalg.norm(B @ (sol.p[:, j] - p0[:, j])) \
                <= 1e-11 * np.linalg.norm(F[:, j])
        assert _rel(sol.p[:, 1], p0[:, 1]) <= 1e-11
        assert sol.residual_primal <= 1e-14 and sol.residual_gauge <= 1e-14

    @pytest.mark.parametrize("n,k,seed", [(9, 4, 5), (30, 3, 0), (40, 12, 7)])
    def test_gauge_residual_is_that_of_b(self, monkeypatch, n, k, seed):
        # residual_gauge is ||(M G)^T u|| / (max|M G| ||u||) of the worst
        # column, recomputed here with an explicit M G: at round-off on the
        # solve, and to 1e-12 once u gets a range(G) part, which A u
        # does not see
        A, M, G = _kernel_system(n, k, seed=seed)
        F = np.random.default_rng(10 + seed).standard_normal((n, 3))
        B = M @ G

        def gauge(u):
            return max(np.linalg.norm(B.T @ u, axis=0)
                       / (np.abs(B).max() * np.linalg.norm(u, axis=0)))

        sol = solve_saddle_point(A, M, F, G)
        assert sol.residual_gauge == pytest.approx(gauge(sol.u), abs=1e-15)
        make = solve._complement_inverse
        shift = np.random.default_rng(seed).standard_normal((k, 3))

        def shifted(*args):
            inverse, factor_nnz = make(*args)
            return lambda x: inverse(x) + G @ shift, factor_nnz

        monkeypatch.setattr(solve, "_complement_inverse", shifted)
        sol = solve_saddle_point(A, M, F, G)
        assert sol.residual_gauge > 1e-3
        assert sol.residual_gauge == pytest.approx(gauge(sol.u), rel=1e-12)

    def test_basis_outside_the_kernel_rejected(self):
        A, M, G = _random_pencil(30, 3, seed=0)
        f = np.random.default_rng(10).standard_normal(30)
        extra = np.random.default_rng(1).standard_normal((30, 1))
        # one column outside ker A, added or in place of a kernel column
        for wrong in (np.c_[G, extra], np.c_[G[:, 1:], extra]):
            with pytest.raises(SolveError, match="kernel"):
                solve_saddle_point(A, M, f, wrong)

    def test_basis_missing_a_kernel_column_rejected(self):
        A, M, G = _random_pencil(30, 3, seed=0)
        f = np.random.default_rng(10).standard_normal(30)
        with pytest.raises(SolveError):
            solve_saddle_point(A, M, f, G[:, 1:])

    def test_bad_basis_shape_rejected(self):
        A, M, F, G = TestSaddlePointLoads._system()
        for wrong in (G[1:], G[:, 0]):
            with pytest.raises(SolveError, match="shapes"):
                solve_saddle_point(A, M, F, wrong)
        with pytest.raises(SolveError, match="shapes"):
            solve_saddle_point(A, M[1:, 1:], F, G)

    def test_one_factor_for_both_solvers(self):
        # the saddle-point solve factors the eigensolver's leading block of A
        A, M, G = _cavity_pencil("pillbox-section", 2, 4, 1)
        F = np.random.default_rng(3).standard_normal(A.shape[0])
        assert solve_saddle_point(A, M, F, G).factor_nnz \
            == solve_generalized_eig(A, M, 5, G).factor_nnz


class TestNoStoredB:
    """Neither solver keeps B = M G: the projections apply M and G in
    turn, and M G lives only while G^T M G is formed."""

    def test_projections_capture_no_n_by_k_matrix_but_g(self):
        A, M, G = _cavity_pencil("pillbox-section", 2, 4, 1)
        A, M, G = solve._pencil(A, M, G)
        _, project, dual, max_b = solve._gauge_projection(G, M)
        B = M @ G
        assert max_b == np.abs(B.toarray()).max()
        for fn in (project, dual):
            held = [c.cell_contents for c in fn.__closure__]
            assert any(h is G for h in held)
            assert not any(sp.issparse(h) and h.shape == G.shape
                           and h is not G for h in held)
        x = np.random.default_rng(0).standard_normal(G.shape[0])
        S = (G.T @ B).toarray()
        want = x - G @ np.linalg.solve(S, B.T @ x)
        assert _rel(project(x), want) <= 1e-12
        want = x - B @ np.linalg.solve(S, G.T @ x)
        assert _rel(dual(x), want) <= 1e-12


def _eig(A, M, G):
    return solve_generalized_eig(A, M, 3, G)


def _saddle(A, M, G):
    f = np.random.default_rng(2).standard_normal(A.shape[0])
    return solve_saddle_point(A, M, f, G)


SOLVERS = [pytest.param(_eig, id="eig"), pytest.param(_saddle, id="saddle")]


class TestKernelBasisContract:
    """Both solvers factor the leading block of A of order n - k, on the
    complement of range(G) that the first n - k unit vectors span: the last
    k rows of G must be a nonsingular diagonal block."""

    @pytest.mark.parametrize("solve_with", SOLVERS)
    def test_tail_not_a_nonsingular_diagonal_rejected(self, solve_with):
        A, M, G = _random_pencil()
        # the same kernel in a basis whose last rows mix columns, the rows
        # of the pencil reversed so that W comes last, and a zero pivot
        mixed = G @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                              [0.0, 0.0, 1.0]])
        zero = G.copy()
        zero[-1, -1] = 0.0
        for A_, M_, G_ in ((A, M, mixed), (A[::-1, ::-1], M[::-1, ::-1],
                                           G[::-1]), (A, M, zero)):
            with pytest.raises(SolveError, match="nonsingular diagonal"):
                solve_with(A_, M_, G_)

    @pytest.mark.parametrize("solve_with", SOLVERS)
    def test_missing_kernel_column_rejected(self, solve_with):
        # the dropped kernel vector lies in the leading block's coordinates:
        # the block is singular, exactly for the diagonal pencil
        for A, M, G in (_diagonal_pencil(), _random_pencil(),
                        _cavity_pencil("pillbox-section", 2, 4, 1)):
            with pytest.raises(SolveError, match="kernel"):
                solve_with(A, M, G[:, 1:])

    @pytest.mark.parametrize("solve_with,message", [
        pytest.param(_eig, r"range\(G\) is not in the kernel", id="eig"),
        pytest.param(_saddle, "residual .*not the kernel", id="saddle")])
    def test_non_kernel_column_with_its_diagonal_row_rejected(
            self, solve_with, message):
        # the leading block stays definite, so the factor succeeds and the
        # A G check or the residual check has to catch the basis
        A, M, G = _random_pencil()
        wrong = G.copy()
        wrong[:-3, 0] += np.random.default_rng(1).standard_normal(27)
        with pytest.raises(SolveError, match=message):
            solve_with(A, M, wrong)


class TestSymmetryCheck:
    """A must be symmetric to 1e-10 of its largest entry, at any scale."""

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    @pytest.mark.parametrize("solve_with", SOLVERS)
    def test_asymmetric_rejected_at_any_scale(self, solve_with, scale):
        A, M, G = _random_pencil(6, 2)
        A[0, 1] += 1e-6 * np.abs(A).max()
        with pytest.raises(SolveError, match="not symmetric"):
            solve_with(scale * A, M, G)

    def test_symmetric_solves_at_small_scale(self):
        A, M, G = _random_pencil(6, 2)
        small = 1e-12 * A
        assert _rel(_eig(small, M, G).eigenvalues,
                    1e-12 * _eig(A, M, G).eigenvalues) <= 1e-12
        assert _rel(_saddle(small, M, G).u, 1e12 * _saddle(A, M, G).u) \
            <= 1e-12


class TestSolverMemory:
    def test_main_lanczos_starts_within_half_the_pencil(self, monkeypatch):
        # numpy memory the eigensolver holds when its main Lanczos run
        # starts: the factors and the projection's operands, not cached
        # copies of them (1.01x the bytes of A, M and G while SuperLU's L
        # and U were read and cached on the factor)
        A, M, G = _cavity_pencil("pillbox-section", 3, 16, 26)
        solve_generalized_eig(A, M, 10, G)      # lazy imports and caches
        live, eigsh = [], solve.eigsh

        def recording_eigsh(*args, **kwargs):
            if "OPinv" in kwargs:
                live.append(tracemalloc.get_traced_memory()[0])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(solve, "eigsh", recording_eigsh)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_generalized_eig(A, M, 10, G)
        finally:
            tracemalloc.stop()
        pencil = sum(X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
                     for X in (A, M, G))
        assert live[0] - base <= 0.5 * pencil


class TestHeapRelease:
    """Each solve gives the heap's free memory back once, after its input
    check and before its first factor; where the C library has no
    malloc_trim it does nothing, and the results are the same."""

    @pytest.mark.parametrize("solve_with", SOLVERS)
    def test_once_after_the_check_before_the_factors(self, solve_with,
                                                      monkeypatch):
        events = []

        def spy(name):
            fn = getattr(solve, name)

            def recorded(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(solve, name, recorded)

        for name in ("_pencil", "_release_heap", "_symmetric_lu"):
            spy(name)
        solve_with(*_cavity_pencil("pillbox-section", 2, 4, 1))
        assert events == ["_pencil", "_release_heap", "_symmetric_lu",
                          "_symmetric_lu"]      # S, then K

    @pytest.mark.parametrize("solve_with", SOLVERS)
    def test_same_results_without_malloc_trim(self, solve_with,
                                              monkeypatch):
        pencil = _cavity_pencil("pillbox-section", 2, 4, 1)
        trimmed = solve_with(*pencil)
        monkeypatch.setattr(solve, "_libc_malloc_trim", lambda: None)
        plain = solve_with(*pencil)
        for key, value in vars(trimmed).items():
            assert np.array_equal(vars(plain)[key], value), key


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
