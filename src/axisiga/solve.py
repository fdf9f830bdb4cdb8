"""Dense linear-algebra backends: generalized eigensolver, saddle-point solve,
and log-log rate fitting.

Problem sizes in all benchmark studies stay at a few thousand DoFs per mode,
so dense symmetric-definite reductions (LAPACK via scipy) are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp


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
    num_filtered: int          # kernel dimension skipped below the pairs
    threshold: float           # largest kernel |lambda|, 0 without a kernel


KERNEL_GAP = 1e6   # least lambda[kernel_dim] / |lambda[kernel_dim - 1]|


def solve_generalized_eig(A, M, count: int, kernel_dim: int) -> EigenResult:
    """The ``count`` smallest eigenpairs of (A, M) above its kernel.

    A is symmetric positive semi-definite with a ``kernel_dim``-dimensional
    kernel (for a curl-curl pencil the gradients of the free Z^0 DoFs, by
    exactness of the complex) and M is symmetric positive definite.  LAPACK
    computes only pairs kernel_dim - 1 .. kernel_dim + count - 1, in place on
    Fortran-ordered copies of A and M.  SolveError is raised unless
    lambda[kernel_dim] >= KERNEL_GAP * |lambda[kernel_dim - 1]|.
    """
    A, M = (a if sp.issparse(a) else np.asarray(a, dtype=float)
            for a in (A, M))
    if A.shape != M.shape or A.shape != A.shape[::-1]:
        raise SolveError("A and M must be square with equal shapes")
    if abs(A - A.T).max() > 1e-10 * max(abs(A).max(), 1.0):
        raise SolveError("A is not symmetric")
    if count < 1 or not 0 <= kernel_dim <= A.shape[0] - count:
        raise SolveError(f"order {A.shape[0]} has no {count} eigenpairs "
                         f"above a {kernel_dim}-dimensional kernel")
    k0 = min(kernel_dim, 1)    # the largest kernel pair, if any, comes first
    dense = (a.toarray(order="F") if sp.issparse(a)
             else np.array(a, order="F") for a in (A, M))
    try:
        vals, vecs = sla.eigh(
            *dense, subset_by_index=[kernel_dim - k0, kernel_dim + count - 1],
            overwrite_a=True, overwrite_b=True)
    except sla.LinAlgError as exc:
        raise SolveError(f"generalized eigensolve failed: {exc}") from exc
    threshold = float(abs(vals[0])) if k0 else 0.0
    if not vals[k0] >= KERNEL_GAP * threshold:
        raise SolveError(f"no gap above kernel_dim={kernel_dim}: lambda = "
                         f"{vals[k0]:.3e} after |lambda| = {threshold:.3e}")
    vals, vecs = vals[k0:], vecs[:, k0:]
    AV, LMV = A @ vecs, (M @ vecs) * vals
    num, av, lmv = (np.linalg.norm(X, axis=0) for X in (AV - LMV, AV, LMV))
    res = np.divide(num, av + lmv, out=np.zeros(count), where=av + lmv > 0)
    return EigenResult(vals, vecs, res, kernel_dim, threshold)


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of [A B; B^T 0] [u; p] = [f; 0]."""

    u: np.ndarray
    p: np.ndarray
    residual_primal: float     # ||A u + B p - f|| / max(||f||, 1)
    residual_gauge: float      # ||B^T u|| / ||u||


def solve_saddle_point(A, B, f) -> SaddleSolution:
    """Direct symmetric-indefinite solve of the KKT system.

    A and B may be sparse or dense; their entries are written straight into
    the dense KKT matrix, and the residuals use them as passed.  The
    constraint block is rescaled internally (B' = sigma B with
    sigma = ||A|| / ||B||) so that the factorization is well conditioned even
    when the material constants make ||A|| and ||B|| differ by many orders of
    magnitude; the multiplier is rescaled back on return.
    """
    A, B = (a if sp.issparse(a) else np.asarray(a, dtype=float)
            for a in (A, B))
    f = np.asarray(f, dtype=float)
    n, k = B.shape
    if A.shape != (n, n) or f.shape != (n,):
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
    rhs = np.concatenate([f, np.zeros(k)])
    try:
        x = sla.solve(K, rhs, assume_a="sym", overwrite_a=True)
    except sla.LinAlgError as exc:
        raise SolveError(f"saddle-point factorization failed: {exc}") from exc
    u = x[:n]
    p = sigma * x[n:]
    r1 = np.linalg.norm(A @ u + B @ p - f) / max(np.linalg.norm(f), 1.0)
    nu = np.linalg.norm(u)
    r2 = np.linalg.norm(B.T @ u) / nu if nu > 0 else 0.0
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
