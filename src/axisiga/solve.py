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
    num_filtered: int          # kernel eigenvalues removed by thresholding
    threshold: float


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


def solve_generalized_eig(A, M, count: int,
                          zero_rel_threshold: float = 1e-6) -> EigenResult:
    """The ``count`` smallest eigenvalues of (A, M) above the kernel threshold.

    A must be symmetric positive semi-definite and M symmetric positive
    definite.  The gradient kernel of curl-curl pencils is filtered by the
    relative threshold tau = zero_rel_threshold * max(lambda); by exactness
    of the discrete complex the kernel eigenvalues sit many orders of
    magnitude below the first physical one.
    """
    Ad, Md = _dense(A), _dense(M)
    if Ad.shape != Md.shape or Ad.shape[0] != Ad.shape[1]:
        raise SolveError("A and M must be square with equal shapes")
    if np.abs(Ad - Ad.T).max() > 1e-10 * max(np.abs(Ad).max(), 1.0):
        raise SolveError("A is not symmetric")
    try:
        vals, vecs = sla.eigh(Ad, Md)
    except sla.LinAlgError as exc:
        raise SolveError(f"generalized eigensolve failed: {exc}") from exc
    tau = zero_rel_threshold * abs(vals[-1])
    keep = np.nonzero(vals > tau)[0]
    num_filtered = Ad.shape[0] - len(keep)
    if count > len(keep):
        raise SolveError(
            f"requested {count} eigenvalues, only {len(keep)} above threshold")
    idx = keep[:count]
    vals_k = vals[idx]
    vecs_k = vecs[:, idx]
    res = np.zeros(count)
    for j in range(count):
        av = Ad @ vecs_k[:, j]
        mv = Md @ vecs_k[:, j]
        num = np.linalg.norm(av - vals_k[j] * mv)
        den = np.linalg.norm(av) + abs(vals_k[j]) * np.linalg.norm(mv)
        res[j] = num / den if den > 0 else 0.0
    return EigenResult(vals_k, vecs_k, res, num_filtered, tau)


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
