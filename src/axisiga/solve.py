"""Linear-algebra backends: sparse generalized eigensolver, saddle-point
solve, and log-log rate fitting.

The cavity eigensolver is sparse throughout: shift-invert Lanczos (ARPACK) on
a sparse LU factor, with the kernel range(G) projected out exactly, so its
memory grows with the factor and not with n**2.  The saddle-point solve is a
dense symmetric-indefinite (LAPACK) factorization, shared by all the loads
it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import (ArpackError, LinearOperator, eigsh, splu)


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class EigenResult:
    """Smallest nonzero eigenpairs of A v = lambda M v.

    ``residuals`` holds the relative residuals
    ||A v - lambda M v|| / (||A v|| + |lambda| ||M v||) per returned pair.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray   # columns, M-orthonormal
    residuals: np.ndarray
    num_filtered: int          # kernel dimension: columns of the basis G
    threshold: float           # largest |lambda| of (G^T A G, G^T M G),
                               # 0 without a kernel
    factor_nnz: int            # nonzeros of the sparse L + U of A - sigma M


KERNEL_GAP = 1e6   # least lambda_0 / threshold
_EXTRA = 4         # Ritz pairs computed beyond the requested count
_SEED = 0          # ARPACK start vector and restarts: results repeat exactly


def _lu(matrix, **options):
    """Sparse LU of a square matrix; a singular factor is a SolveError."""
    try:
        return splu(sp.csc_matrix(matrix), **options)
    except RuntimeError as exc:
        raise SolveError(f"sparse factorization failed: {exc}") from exc


def _kernel_threshold(GAG, GMG, gmg_lu, rng) -> float:
    """Largest |lambda| of the kernel pencil (G^T A G, G^T M G), which is
    round-off when G spans a kernel of A."""
    k = GAG.shape[0]
    if not GAG.count_nonzero():   # ARPACK cannot start where G^T A G v0 = 0
        return 0.0
    if k == 1:                    # ARPACK needs two Lanczos vectors
        return float(abs(GAG[0, 0] / GMG[0, 0]))
    vals = eigsh(GAG, 1, M=GMG, Minv=LinearOperator(GMG.shape, gmg_lu.solve),
                 which="LM", ncv=min(k, 20), v0=rng.standard_normal(k),
                 return_eigenvectors=False, rng=rng)
    return float(abs(vals).max())


def solve_generalized_eig(A, M, count: int, G) -> EigenResult:
    """The ``count`` smallest eigenpairs of (A, M) above the kernel range(G).

    A is symmetric positive semi-definite and M symmetric positive definite;
    the n x k basis G spans the kernel of A (for a curl-curl pencil the
    gradients of the free Z^0 DoFs, by exactness of the complex).  With
    P = I - G (G^T M G)^{-1} G^T M, the M-orthogonal projector onto the
    complement of range(G), shift-invert Lanczos runs on P (A - sigma M)^{-1}
    for a sigma just below 0, so the kernel never enters the Krylov space
    and the converged (tol=0) Ritz pairs need no further projection or
    Rayleigh-Ritz step; count + 4 pairs are computed and the ``count``
    smallest returned.  Sparse input forms no dense n x n array.
    SolveError is raised when count >= n - k (Lanczos needs one vector more
    than it returns pairs), on a singular factor, on an ARPACK failure, and
    unless lambda_0 >= KERNEL_GAP * max(threshold, eps * max(diag A / diag M)),
    where threshold is the largest |lambda| of the kernel pencil
    (G^T A G, G^T M G): a basis that misses part of the kernel or holds a
    non-kernel vector fails that check.
    """
    A, M, G = (a if sp.issparse(a) else np.asarray(a, dtype=float)
               for a in (A, M, G))
    n = A.shape[0]
    if A.shape != M.shape or A.shape != (n, n) or G.ndim != 2 \
            or G.shape[0] != n:
        raise SolveError("A and M must be square with equal shapes and G "
                         "must have their order of rows")
    if abs(A - A.T).max() > 1e-10 * max(abs(A).max(), 1.0):
        raise SolveError("A is not symmetric")
    k = G.shape[1]
    if count < 1 or count >= n - k:
        raise SolveError(f"order {n} has fewer than {count + 1} eigenpairs "
                         f"above a {k}-dimensional kernel")
    As, Ms, Gs = (sp.csc_matrix(a) for a in (A, M, G))
    if not np.all(Ms.diagonal() > 0):
        raise SolveError("M is not positive definite")
    B = Ms @ Gs
    GMG = (Gs.T @ B).tocsc()
    gmg_lu = _lu(GMG)

    def project(x):
        return x - Gs @ gmg_lu.solve(B.T @ x)

    # A - sigma M is positive definite: no pivoting, a symmetric ordering
    scale = float((As.diagonal() / Ms.diagonal()).max())
    sigma = -1e-6 * scale
    lu = _lu(As - sigma * Ms, permc_spec="MMD_AT_PLUS_A",
             diag_pivot_thresh=0, options={"SymmetricMode": True})
    rng = np.random.default_rng(_SEED)
    nev = min(count + _EXTRA, n - k - 1)
    try:
        vals, V = eigsh(As, nev, M=Ms, sigma=sigma,
                        OPinv=LinearOperator((n, n),
                                             lambda x: project(lu.solve(x))),
                        v0=project(rng.standard_normal(n)),
                        ncv=min(n - k, max(2 * nev + 1, 20)), tol=0, rng=rng)
        threshold = _kernel_threshold((Gs.T @ As @ Gs).tocsc(), GMG, gmg_lu,
                                      rng)
    except ArpackError as exc:      # ArpackNoConvergence included
        raise SolveError(f"Lanczos eigensolve failed: {exc}") from exc
    order = np.argsort(vals)[:count]
    vals, vecs = vals[order], V[:, order]
    # a kernel vector left out of G comes back as a round-off eigenvalue,
    # also when the kernel pencil is exactly zero
    floor = max(threshold, np.finfo(float).eps * scale)
    if not vals[0] >= KERNEL_GAP * floor:
        raise SolveError(f"no gap above the {k}-dimensional kernel: lambda = "
                         f"{vals[0]:.3e} after |lambda| = {floor:.3e}")
    AV, LMV = A @ vecs, (M @ vecs) * vals
    num, av, lmv = (np.linalg.norm(X, axis=0) for X in (AV - LMV, AV, LMV))
    res = np.divide(num, av + lmv, out=np.zeros(count), where=av + lmv > 0)
    return EigenResult(vals, vecs, res, k, threshold,
                       lu.L.nnz + lu.U.nnz)


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of [A B; B^T 0] [u; p] = [f; 0], one column per load.

    The residuals are relative and hold for the worst column:
    ``residual_primal`` is ||A u + B p - f|| / (||A u|| + ||B p|| + ||f||)
    and ``residual_gauge`` is ||B^T u|| / (max|B| ||u||), each 0 where its
    denominator is.
    """

    u: np.ndarray              # (n,) for a 1-D load, else (n, r)
    p: np.ndarray              # (k,) for a 1-D load, else (k, r)
    residual_primal: float
    residual_gauge: float


def _worst_ratio(num, den) -> float:
    """Largest num / den over the columns, 0 where den is 0."""
    return float(np.divide(num, den, out=np.zeros_like(num),
                           where=den > 0).max(initial=0.0))


def solve_saddle_point(A, B, F) -> SaddleSolution:
    """Direct symmetric-indefinite solve of the KKT system.

    A and B may be sparse or dense; their entries are written straight into
    the dense KKT matrix, and the residuals use them as passed.  F is one
    load of shape (n,) or r loads as the columns of an (n, r) array: the KKT
    matrix is factored once for all of them, and u and p have the shape of
    F (rows n and k).  The constraint block is rescaled internally
    (B' = sigma B with sigma = ||A|| / ||B||) so that the factorization is
    well conditioned even when the material constants make ||A|| and ||B||
    differ by many orders of magnitude; the multiplier is rescaled back on
    return.
    """
    A, B = (a if sp.issparse(a) else np.asarray(a, dtype=float)
            for a in (A, B))
    F = np.asarray(F, dtype=float)
    n, k = B.shape
    if A.shape != (n, n) or F.ndim not in (1, 2) or F.shape[0] != n:
        raise SolveError("inconsistent saddle-point block shapes")
    a, b = sp.coo_matrix(A), sp.coo_matrix(B)
    a.sum_duplicates()
    b.sum_duplicates()
    nrm_a = np.abs(a.data).max(initial=0.0)
    nrm_b = np.abs(b.data).max(initial=0.0)
    if nrm_b == 0.0:
        raise SolveError("constraint block B is zero")
    sigma = nrm_a / nrm_b if nrm_a > 0 else 1.0
    # Fortran order: LAPACK factors K in place, without a copy
    K = np.zeros((n + k, n + k), order="F")
    K[a.row, a.col] = a.data
    K[b.row, n + b.col] = K[n + b.col, b.row] = sigma * b.data
    rhs = np.concatenate([F, np.zeros((k,) + F.shape[1:])])
    try:
        x = sla.solve(K, rhs, assume_a="sym", overwrite_a=True)
    except sla.LinAlgError as exc:
        raise SolveError(f"saddle-point factorization failed: {exc}") from exc
    u = x[:n]
    p = sigma * x[n:]
    Au, Bp = A @ u, B @ p
    norm = lambda X: np.linalg.norm(X.reshape(X.shape[0], -1), axis=0)
    r1 = _worst_ratio(norm(Au + Bp - F), norm(Au) + norm(Bp) + norm(F))
    r2 = _worst_ratio(norm(B.T @ u), nrm_b * norm(u))
    return SaddleSolution(u, p, r1, r2)


def convergence_rate(hs, errors) -> float:
    """Least-squares slope of log(error) versus log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 3 or len(hs) != len(errors):
        raise SolveError("need at least 3 matching (h, error) pairs")
    if np.any(hs <= 0) or np.any(errors <= 0):
        raise SolveError("rate fitting needs positive h and error values")
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)
