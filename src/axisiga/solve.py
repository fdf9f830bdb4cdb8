"""Linear-algebra backends: sparse generalized eigensolver, saddle-point
solve, and log-log rate fitting.

Both solvers use the exactness of the sequence: the kernel of A is
range(G), and the last k rows of G = [D_rho; D_z; -I] are a nonsingular
diagonal block, so the first n - k DoFs (the meridional ones) span an exact
complement of the kernel, on which A is definite.  Each solver factors the
SPD leading block K = A[:n-k, :n-k] once, with no shift, and applies
E K^{-1} E^T (E the first n - k unit vectors) between the M-orthogonal
projections onto the complement of range(G); the kernel costs the factor no
fill.  The eigensolver certifies ker A = range(G) exactly: a nonsingular K
leaves ker A at most k dimensions, and A G = 0 puts range(G) inside it.

The cavity eigensolver is shift-invert Lanczos (ARPACK) at 0 on that
operator, so its memory grows with the factors and not with n**2.  The
saddle-point solve takes the multiplier from the sparse SPD factor of
G^T M G and the field from K's factor and one refinement step.  Neither
forms a dense n x n matrix nor one of order n + k, and both run on one
thread of the OpenBLAS that scipy bundles: their BLAS work (Krylov
products with the n x ncv Lanczos basis, sparse triangular solves) is
level-2 and small, and splitting it across threads costs more than it
saves.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy
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
    threshold: float           # eps * max(diag A / diag M), the round-off
                               # floor that lambda_0 must clear
    kernel_residual: float     # max|A G| / (max|A| max|G|), 0 without G
    factor_nnz: int            # entries SuperLU stores for the L and U of
                               # A[:n-k, :n-k] (relaxed supernodes store
                               # some zeros)
    blas_threads: int | None   # scipy's OpenBLAS threads during the solve,
                               # None where they could not be set
    op_applications: int       # calls of the Lanczos run's operator


KERNEL_GAP = 1e6   # least lambda_0 / threshold
KERNEL_TOL = 1e3 * np.finfo(float).eps   # most kernel_residual
_EXTRA = 4         # Ritz pairs computed beyond the requested count
_SEED = 0          # ARPACK start vector and restarts: results repeat exactly


@functools.cache
def _scipy_openblas():
    """The get and set thread-count functions of the OpenBLAS bundled with
    scipy, or None where there is none."""
    libdir = os.path.dirname(scipy.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one thread of scipy's OpenBLAS and restore the
    previous count after it; yields the count it runs with, 1, or None
    where no OpenBLAS was found.  The count is process-wide: solves in
    concurrent threads share it."""
    funcs = _scipy_openblas()
    if funcs is None:
        yield None
        return
    get, put = funcs
    before = get()
    put(1)
    try:
        yield 1
    finally:
        put(before)


@functools.cache
def _libc_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none (macOS,
    musl)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_heap():
    """Give the heap's free memory back to the system.  glibc keeps what
    freed transients (assembly, the input check) leave there, and SuperLU's
    factors, which are mmapped, never reuse it; released before the
    factors, it no longer adds to the peak RSS."""
    trim = _libc_malloc_trim()
    if trim is not None:
        trim(0)


def _symmetric_lu(csc, failure: str):
    """SuperLU factor of a CSC matrix with no pivoting and a symmetric
    ordering, as for G^T M G and A's definite leading block; a singular
    factor is a SolveError that begins with ``failure``.  Callers build the
    CSC in the argument, so that no other copy lives through the factor."""
    try:
        return splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolveError(f"{failure}: {exc}") from exc


def _max_abs(X) -> float:
    """max|X| over the stored entries of a sparse X, 0 for none; max and min
    stand in for abs(), which would copy the entries."""
    return max(X.data.max(initial=0.0), -X.data.min(initial=0.0))


def _pencil(A, M, G):
    """A, M and G as float CSR (ARPACK's products with M run faster on it),
    checked for shapes, for a symmetric A and for a positive diagonal of M."""
    A, M, G = (sp.csr_matrix(a, dtype=float) for a in (A, M, G))
    n = A.shape[0]
    if A.shape != M.shape or A.shape != (n, n) or G.shape[0] != n:
        raise SolveError("A and M must be square with equal shapes and G "
                         "must have their order of rows")
    if _max_abs(A - A.T) > 1e-10 * _max_abs(A):
        raise SolveError("A is not symmetric")
    if not np.all(M.diagonal() > 0):
        raise SolveError("M is not positive definite")
    return A, M, G


def _gauge_projection(G, M):
    """The sparse factor of S = G^T M G, the M-orthogonal projection
    P x = x - G S^{-1} G^T (M x) onto ker (M G)^T, which removes the
    range(G) part of x, its transpose P^T x = x - M (G S^{-1} G^T x) onto
    ker G^T = range(A), and max|M G|.  M G is formed only for S and its
    maximum and dies on return: the projections apply M and G in turn,
    so no n x k matrix besides G lives through a solve.  The transpose
    of G is a view, taken once here rather than on each application."""
    Gt, B = G.T, M @ G
    lu = _symmetric_lu(sp.csc_matrix(Gt @ B), "sparse factorization failed")
    return (lu, lambda x: x - G @ lu.solve(Gt @ (M @ x)),
            lambda x: x - M @ (G @ lu.solve(Gt @ x)), _max_abs(B))


def _complement_inverse(A, G, project, dual):
    """The inverse of A on the complement of range(G), x -> P E K^{-1} E^T
    P^T x, and the entries SuperLU stores for the L and U of
    K = A[:n-k, :n-k].

    The last k rows of G must be a nonsingular diagonal block: then the
    first n - k unit vectors E span a complement of range(G), and K is SPD
    when range(G) holds the kernel of A.  For x in range(A) = ker G^T,
    E K^{-1} E^T x is a preimage of x under A, and P picks the one
    M-orthogonal to range(G).  P^T first sends the round-off part of x
    outside range(A) to 0; E K^{-1} E^T would send it to a non-kernel
    vector."""
    n, k = G.shape
    lead = n - k
    D = G[lead:].tocoo()
    D.sum_duplicates()
    D.eliminate_zeros()
    if D.nnz != k or np.any(D.row != D.col):
        raise SolveError("the last k rows of the kernel basis G must be a "
                         "nonsingular diagonal block")
    lu = _symmetric_lu(sp.csc_matrix(A[:lead, :lead]),
                       f"no gap above the {k}-dimensional kernel: the "
                       f"leading block of A of order {lead} is singular, so "
                       f"range(G) misses part of the kernel of A")

    def inverse(x):
        y = np.zeros_like(x)
        y[:lead] = lu.solve(dual(x)[:lead])
        return project(y)

    # lu.nnz, not lu.L.nnz + lu.U.nnz: reading L or U builds CSC copies of
    # them that stay cached on lu, which ``inverse`` keeps alive
    return inverse, lu.nnz


def _kernel_residual(A, G) -> float:
    """max|A G| / (max|A| max|G|), 0 for a G with no columns.  A G dies on
    return, before the Lanczos run."""
    AG = A @ G
    return float(_max_abs(AG) / (_max_abs(A) * _max_abs(G))) if AG.nnz else 0.0


def solve_generalized_eig(A, M, count: int, G) -> EigenResult:
    """The ``count`` smallest eigenpairs of (A, M) above the kernel range(G).

    A is symmetric positive semi-definite and M symmetric positive definite;
    the n x k basis G spans the kernel of A (for a curl-curl pencil the
    gradients of the free Z^0 DoFs, by exactness of the complex), and its
    last k rows are a nonsingular diagonal block (the -I of G = [D_rho;
    D_z; -I]).  With P = I - G (G^T M G)^{-1} G^T M, the M-orthogonal
    projector onto the complement of range(G), and K = A[:n-k, :n-k],
    shift-invert Lanczos at 0 runs on P E K^{-1} E^T P^T (see
    ``_complement_inverse``; there is no shift), so the kernel never
    enters the Krylov space and the converged (tol=0) Ritz pairs need no
    further projection or Rayleigh-Ritz step; count + 4 pairs are computed
    and the ``count`` smallest returned.  Input is converted to CSR on
    entry: no dense n x n array is formed.  The factorizations and the
    Lanczos run use one thread of scipy's OpenBLAS (see the module
    docstring).  SolveError is raised when count >= n - k (Lanczos needs
    one vector more than it returns pairs), when the last k rows of G are
    not a nonsingular diagonal block, on a singular factor (a singular K
    means a kernel vector outside range(G)), when ``kernel_residual``
    exceeds KERNEL_TOL (a column of G outside the kernel), on an ARPACK
    failure, and unless lambda_0 >= KERNEL_GAP * threshold, the round-off
    floor eps * max(diag A / diag M): a kernel vector whose K pivot is only
    round-off fails that check.
    """
    A, M, G = _pencil(A, M, G)
    _release_heap()
    n, k = G.shape
    if count < 1 or count >= n - k:
        raise SolveError(f"order {n} has fewer than {count + 1} eigenpairs "
                         f"above a {k}-dimensional kernel")
    rng = np.random.default_rng(_SEED)
    nev = min(count + _EXTRA, n - k - 1)
    applications = 0
    with _one_blas_thread() as threads:
        _, project, dual, _ = _gauge_projection(G, M)
        inverse, factor_nnz = _complement_inverse(A, G, project, dual)
        kernel_residual = _kernel_residual(A, G)
        if not kernel_residual <= KERNEL_TOL:
            raise SolveError(f"range(G) is not in the kernel of A: max|A G| "
                             f"/ (max|A| max|G|) = {kernel_residual:.2e}")

        def operator(x):
            nonlocal applications
            applications += 1
            return inverse(x)

        # tol=0 is ARPACK's tol = eps, and dsconv accepts a Ritz value
        # theta = 1/lambda once its error bound is <= tol * max(eps**(2/3),
        # |theta|).  With SI eps and mu, theta ~ 1e-23 lies below
        # eps**(2/3) ~ 3.7e-11, so the test is absolute, about 8e-27, or
        # about 6e-4 relative on the criterion 2 pillbox.  On its mesh (p=3
        # 32x32, 10 eigs) max_residual reads 1.4e-12 after 46 applications
        # at m = 1, 1.7e-5 after 56 at m = 10 and 2.1e-15 after 96 at
        # m = 26.  tol=1e-13 stops after 31, 18 % off; scaling the operator
        # to theta = O(1) makes the test relative but takes 191 applications
        # instead of 96 at m = 26 (ROADMAP item 6).
        try:
            vals, V = eigsh(A, nev, M=M, sigma=0.0,
                            OPinv=LinearOperator((n, n), operator,
                                                 dtype=float),
                            v0=project(rng.standard_normal(n)),
                            ncv=min(n - k, max(2 * nev + 1, 20)), tol=0,
                            rng=rng)
        except ArpackError as exc:      # ArpackNoConvergence included
            raise SolveError(f"Lanczos eigensolve failed: {exc}") from exc
    order = np.argsort(vals)[:count]
    vals, vecs = vals[order], V[:, order]
    # a kernel vector left out of G comes back as a round-off eigenvalue
    floor = np.finfo(float).eps * float((A.diagonal() / M.diagonal()).max())
    if not vals[0] >= KERNEL_GAP * floor:
        raise SolveError(f"no gap above the {k}-dimensional kernel: lambda = "
                         f"{vals[0]:.3e} after |lambda| = {floor:.3e}")
    AV, LMV = A @ vecs, (M @ vecs) * vals
    num, av, lmv = (np.linalg.norm(X, axis=0) for X in (AV - LMV, AV, LMV))
    res = np.divide(num, av + lmv, out=np.zeros(count), where=av + lmv > 0)
    return EigenResult(vals, vecs, res, k, floor, kernel_residual,
                       factor_nnz, threads, applications)


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of [A B; B^T 0] [u; p] = [f; 0], B = M G, per load column.

    The residuals are relative and hold for the worst column:
    ``residual_primal`` is ||A u + B p - f|| / (||A u|| + ||B p|| + ||f||)
    and ``residual_gauge`` is ||B^T u|| / (max|B| ||u||), each 0 where its
    denominator is.
    """

    u: np.ndarray              # (n,) for a 1-D load, else (n, r)
    p: np.ndarray              # (k,) for a 1-D load, else (k, r)
    residual_primal: float
    residual_gauge: float
    factor_nnz: int            # entries SuperLU stores for the L and U of
                               # A[:n-k, :n-k], as in EigenResult
    blas_threads: int | None   # scipy's OpenBLAS threads during the solve,
                               # None where they could not be set


def _worst_ratio(num, den) -> float:
    """Largest num / den over the columns, 0 where den is 0."""
    return float(np.divide(num, den, out=np.zeros_like(num),
                           where=den > 0).max(initial=0.0))


def solve_saddle_point(A, M, F, G) -> SaddleSolution:
    """Solve the KKT system with B = M G through the exact sequence, on the
    eigensolver's sparse factors.

    A (n x n) is symmetric positive semi-definite with kernel exactly
    range(G), M symmetric positive definite, and the last k rows of G a
    nonsingular diagonal block, as for the eigensolver.  If B^T u = 0 and
    A u + B p = f, then G^T A = 0 turns G^T of the first row into
    G^T M G p = G^T f: p comes from the sparse factor of G^T M G.  Then
    u solves A u = r = f - B p on ker B^T, where A is definite: u is
    P E K^{-1} E^T P^T, the eigensolver's inverse of A on the complement
    of range(G) with its factor of K = A[:n-k, :n-k]
    (``_complement_inverse``), applied to r and then once to r - A u.  The
    inverse is exact up to round-off, and one refinement step in working
    precision brings the residual to round-off (Skeel, Math. Comp. 35,
    1980).  Both applications lie in ker B^T, so the gauge is round-off.

    A, M and G may be sparse or dense (CSR on entry).  F is one load of
    shape (n,) or r loads as the columns of an (n, r) array, sharing both
    factors; u and p have the shape of F (rows n and k).  The solve runs on
    one thread of scipy's OpenBLAS.  SolveError is raised on inconsistent
    shapes, when the last k rows of G are not a nonsingular diagonal block,
    on a failed factor (a zero G makes G^T M G singular, a kernel vector
    outside range(G) makes K singular) and when ``residual_primal``
    exceeds sqrt(eps): that is how a G whose range is not the kernel of A
    shows.
    """
    A, M, G = _pencil(A, M, G)
    _release_heap()
    F = np.asarray(F, dtype=float)
    if F.ndim not in (1, 2) or F.shape[0] != A.shape[0]:
        raise SolveError("inconsistent saddle-point block shapes")
    norm = lambda X: np.linalg.norm(X.reshape(X.shape[0], -1), axis=0)
    with _one_blas_thread() as threads:
        s_lu, project, dual, max_b = _gauge_projection(G, M)
        p = s_lu.solve(G.T @ F)
        Bp = M @ (G @ p)
        r = F - Bp
        inverse, factor_nnz = _complement_inverse(A, G, project, dual)
        u = inverse(r)
        u = u + inverse(r - A @ u)
    Au = A @ u
    r1 = _worst_ratio(norm(Au + Bp - F), norm(Au) + norm(Bp) + norm(F))
    # B^T u = G^T (M^T u): M^T is a view, and no B is kept for it
    r2 = _worst_ratio(norm(G.T @ (M.T @ u)), max_b * norm(u))
    tol = np.sqrt(np.finfo(float).eps)
    if not r1 <= tol:
        raise SolveError(f"saddle-point residual {r1:.2e} > {tol:.2e}: "
                         f"range(G) is not the kernel of A")
    return SaddleSolution(u, p, r1, r2, factor_nnz, threads)


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
