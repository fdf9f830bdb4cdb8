"""Linear-algebra backends: sparse generalized eigensolver, saddle-point
solve, and log-log rate fitting.

Both solvers use the exactness of the sequence: the kernel of the curl-curl
matrix A is range(G), and the last k rows of G = [D; d] are a nonsingular
diagonal block d (the -I of G = [D_rho; D_z; -I]).  So A G = 0 fixes A by
its meridional block K = A[:n-k, :n-k]: with W = -D d^{-1},
A = [I; W^T] K [I, W].  Both solvers take K, M and G and never form A;
they apply A as x -> [K w; W^T K w] with w = x[:n-k] + W x[n-k:] (the
saddle-point solve with split products, see ``solve_saddle_point``), and
``stiffness_matrix`` forms it for reading.  The
first n - k DoFs (the meridional ones) span an exact complement of the
kernel, on which A is definite: each solver factors the SPD K once, with no
shift and on its own arrays (K is symmetric, so its CSR arrays are its CSC
arrays), and applies E K^{-1} E^T (E the first n - k unit vectors) between
the M-orthogonal projections onto the complement of range(G); the kernel
costs the factor no fill.  A nonsingular K leaves ker A exactly range(G);
that the K of a mesh is the leading block of C^T M_2 C with C G = 0 is
certified once per mesh, by ``assembly.MeshForms``.

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
    """Smallest nonzero eigenpairs of A v = lambda M v, for the A of K and G.

    ``residuals`` holds the relative residuals
    ||A v - lambda M v|| / (||A v|| + |lambda| ||M v||) per returned pair.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray   # columns, M-orthonormal
    residuals: np.ndarray
    num_filtered: int          # kernel dimension: columns of the basis G
    threshold: float           # eps * max(diag A / diag M), the round-off
                               # floor that lambda_0 must clear
    factor_nnz: int            # entries SuperLU stores for the L and U of K
                               # (relaxed supernodes store some zeros)
    blas_threads: int | None   # scipy's OpenBLAS threads during the solve,
                               # None where they could not be set
    op_applications: int       # calls of the Lanczos run's operator
    m_products: int            # products with M in the Lanczos run


KERNEL_GAP = 1e6   # least lambda_0 / threshold
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
    factors, it no longer adds to the peak RSS.  The transients of the
    factors (M G, G^T M G, SuperLU's work arrays) fault released pages back
    in, and glibc keeps them through a whole Lanczos run, so the
    eigensolver releases once more before it."""
    trim = _libc_malloc_trim()
    if trim is not None:
        trim(0)


def _symmetric_lu(csc, failure: str):
    """SuperLU factor of a CSC matrix with no pivoting and a symmetric
    ordering, as for G^T M G and K; a singular factor is a SolveError that
    begins with ``failure``.  Callers build the CSC in the argument, so that
    no other copy lives through the factor."""
    try:
        return splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolveError(f"{failure}: {exc}") from exc


def _max_abs(X) -> float:
    """max|X| over the stored entries of a sparse X, 0 for none; max and min
    stand in for abs(), which would copy the entries."""
    return max(X.data.max(initial=0.0), -X.data.min(initial=0.0))


def _pencil(K, M, G):
    """K, M and G as float CSR (ARPACK's products with M run faster on it),
    checked for shapes (M of order n, G of n rows and K of order n - k for
    the k columns of G), for a symmetric K and for a positive diagonal of
    M."""
    K, M, G = (sp.csr_matrix(a, dtype=float) for a in (K, M, G))
    n, k = G.shape
    if M.shape != (n, n) or K.shape != (n - k, n - k):
        raise SolveError("inconsistent shapes: M must be square of the order "
                         "n of the rows of G, and K of order n - k for its "
                         "k columns")
    if _max_abs(K - K.T) > 1e-10 * _max_abs(K):
        raise SolveError("K is not symmetric")
    if not np.all(M.diagonal() > 0):
        raise SolveError("M is not positive definite")
    return K, M, G


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


def _meridional_map(G) -> sp.csr_matrix:
    """W = -D d^{-1} for G = [D; d], once the last k rows of G are checked
    to be a nonsingular diagonal block d: then A = [I; W^T] K [I, W] is the
    A with kernel range(G) and leading block K.  W is D itself for d = -I."""
    n, k = G.shape
    lead = n - k
    d = G[lead:].tocoo()
    d.sum_duplicates()
    d.eliminate_zeros()
    if d.nnz != k or np.any(d.row != d.col):
        raise SolveError("the last k rows of the kernel basis G must be a "
                         "nonsingular diagonal block")
    return (G[:lead] @ sp.diags(-1.0 / G[lead:].diagonal())).tocsr()


def _stiffness(K, W):
    """x -> A x for A = [I; W^T] K [I, W], on a vector or on the columns
    of an (n, r) array, in double."""
    lead = K.shape[0]

    def apply(x):
        Kw = K @ (x[:lead] + W @ x[lead:])
        return np.concatenate([Kw, W.T @ Kw])

    return apply


def _stiffness_diagonal(K, W) -> np.ndarray:
    """diag A for A = [I; W^T] K [I, W]: diag K, then the column sums of
    W * (K W), which are diag(D^T K D) / d**2."""
    tail = np.asarray(W.multiply(K @ W).sum(axis=0)).ravel()
    return np.concatenate([K.diagonal(), tail])


def stiffness_matrix(K, G) -> sp.csr_matrix:
    """A = [I; W^T] K [I, W], the matrix with leading block K and kernel
    range(G) that both solvers apply without forming it, as a CSR matrix
    with exactly its nonzeros, symmetrized as (A + A^T) / 2 (exactly
    symmetric); for reading A, as ``ModeSystem.A`` and dense checks do.
    SolveError is raised unless the last k rows of G are a nonsingular
    diagonal block."""
    K = sp.csr_matrix(K, dtype=float)
    W = _meridional_map(sp.csr_matrix(G, dtype=float))
    T = sp.hstack([sp.identity(K.shape[0], format="csr"), W], format="csr")
    A = T.T.tocsr() @ (K @ T)
    A = A + A.T
    A.data *= 0.5
    # a scipy sum keeps room for the entries of both terms
    return sp.csr_matrix((A.data.copy(), A.indices.copy(), A.indptr),
                         shape=A.shape)


def _two_sum(a, b):
    """s = fl(a + b) and e with a + b = s + e exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _accurate_product(X):
    """(hi, lo) -> X (hi + lo) for a CSR X and a vector or the columns of
    an (n, r) array given as the unevaluated sum of two doubles, returned
    the same way, to about 2**-b of the rounding of a product in double,
    with no wider type: Ozaki's error-free splitting (Ozaki, Ogita, Oishi
    and Rump, Numer. Algorithms 59, 2012).  Each entry of X is rounded to
    b bits below the top bit of its row's largest, X = X_1 + X_2, and each
    column of hi to b bits below the top bit of its largest, hi = x_1 +
    x_2: with 2 b + log2(row length) <= 52, X_1 x_1 has exact products and
    exact row sums in double, and X_2 x_1 + X (x_2 + lo), at most 2**-b
    of the row's largest |X| times the row length and the column's
    largest |x|, rounds only at that order."""
    lengths = np.diff(X.indptr)
    bits = (52 - int(lengths.max(initial=0)).bit_length()) // 2

    def chop(v, exponent):
        """v rounded to a multiple of 2**(exponent - bits)."""
        return np.ldexp(np.rint(np.ldexp(v, bits - exponent)),
                        exponent - bits)

    _, top = np.frexp(abs(X).max(axis=1).toarray().ravel())
    head = chop(X.data, np.repeat(top, lengths))
    X1, X2 = (sp.csr_matrix((d, X.indices, X.indptr), shape=X.shape)
              for d in (head, X.data - head))

    def product(hi, lo):
        _, top = np.frexp(np.abs(hi).max(axis=0, initial=0.0))
        x1 = chop(hi, top)
        return _two_sum(X1 @ x1, X2 @ x1 + X @ ((hi - x1) + lo))

    return product


def _accurate_stiffness(K, W):
    """x -> A x for A = [I; W^T] K [I, W] and a double x, as the unevaluated
    sum hi + lo of two doubles, with w = x_E + W x_theta and each product
    split (``_accurate_product``).  In double (``_stiffness``) the rounding
    grows with eps |K| |W| |x|, about 1/h**2 times the eps |A| |x| of an
    assembled A on a mesh of width h; split, it grows with about
    2**-b eps |K| |W| |x|, for b >= 21 bits where rows hold at most 1023
    entries."""
    lead = K.shape[0]
    k_product, w_product = _accurate_product(K), _accurate_product(W)
    wt_product = _accurate_product(W.T.tocsr())

    def apply(x):
        head, tail = x[:lead], x[lead:]
        w_hi, w_lo = w_product(tail, np.zeros_like(tail))
        w_hi, e = _two_sum(head, w_hi)
        k_hi, k_lo = k_product(w_hi, w_lo + e)
        t_hi, t_lo = wt_product(k_hi, k_lo)
        return (np.concatenate([k_hi, t_hi]), np.concatenate([k_lo, t_lo]))

    return apply


def _complement_inverse(K, k: int, project, dual):
    """The inverse of A on the complement of range(G), x -> P E K^{-1} E^T
    P^T x, and the entries SuperLU stores for the L and U of K, the leading
    block of order n - k.

    The first n - k unit vectors E span a complement of range(G) when its
    last k rows are a nonsingular diagonal block (``_meridional_map``), and
    K is SPD when range(G) holds the kernel of A.  For x in range(A) =
    ker G^T, E K^{-1} E^T x is a preimage of x under A, and P picks the one
    M-orthogonal to range(G).  P^T first sends the round-off part of x
    outside range(A) to 0; E K^{-1} E^T would send it to a non-kernel
    vector.  K is symmetric, so its transpose, a CSC view of its own
    arrays, is factored: no copy of K is made."""
    lead = K.shape[0]
    lu = _symmetric_lu(K.T, f"no gap above the {k}-dimensional kernel: the "
                       f"leading block K of A of order {lead} is singular, "
                       f"so range(G) misses part of the kernel of A")

    def inverse(x):
        y = np.zeros_like(x)
        y[:lead] = lu.solve(dual(x)[:lead])
        return project(y)

    # lu.nnz, not lu.L.nnz + lu.U.nnz: reading L or U builds CSC copies of
    # them that stay cached on lu, which ``inverse`` keeps alive
    return inverse, lu.nnz


def solve_generalized_eig(K, M, count: int, G) -> EigenResult:
    """The ``count`` smallest eigenpairs of (A, M) above the kernel range(G),
    for the A = [I; W^T] K [I, W] of K and G (see the module docstring).

    K = A[:n-k, :n-k] is symmetric positive definite and M symmetric
    positive definite; the n x k basis G spans the kernel of A (for a
    curl-curl pencil the gradients of the free Z^0 DoFs, by exactness of the
    complex), and its last k rows are a nonsingular diagonal block d (the
    -I of G = [D_rho; D_z; -I]).  With P = I - G (G^T M G)^{-1} G^T M, the
    M-orthogonal projector onto the complement of range(G), shift-invert
    Lanczos at 0 runs on P E K^{-1} E^T P^T (see ``_complement_inverse``;
    there is no shift), so the kernel never enters the Krylov space and the
    converged (tol=0) Ritz pairs need no further projection or Rayleigh-Ritz
    step; count + 4 pairs are computed and the ``count`` smallest returned.
    ARPACK reads only the shape of the A it is given; it takes M as an
    operator that counts its products.  Input is converted to CSR on entry:
    no dense n x n array is formed.  The heap's free memory is given back
    after the input check and again after both factors, before the Lanczos
    run.  The factorizations and the Lanczos run use one thread of scipy's
    OpenBLAS (see the module docstring).  SolveError is raised when
    count >= n - k (Lanczos needs one vector more than it returns pairs), on
    inconsistent shapes, when the last k rows of G are not a nonsingular
    diagonal block, on a singular factor (a singular K means a kernel vector
    outside range(G)), on an ARPACK failure, and unless
    lambda_0 >= KERNEL_GAP * threshold, the round-off floor
    eps * max(diag A / diag M): a kernel vector whose K pivot is only
    round-off fails that check.
    """
    K, M, G = _pencil(K, M, G)
    _release_heap()
    n, k = G.shape
    if count < 1 or count >= n - k:
        raise SolveError(f"order {n} has fewer than {count + 1} eigenpairs "
                         f"above a {k}-dimensional kernel")
    rng = np.random.default_rng(_SEED)
    nev = min(count + _EXTRA, n - k - 1)
    applications = products = 0
    with _one_blas_thread() as threads:
        _, project, dual, _ = _gauge_projection(G, M)
        W = _meridional_map(G)
        diag_a = _stiffness_diagonal(K, W)
        inverse, factor_nnz = _complement_inverse(K, k, project, dual)
        stiffness = _stiffness(K, W)
        _release_heap()     # what the factors' transients left

        def operator(x):
            nonlocal applications
            applications += 1
            return inverse(x)

        def m_product(x):
            nonlocal products
            products += 1
            return M @ x

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
            vals, V = eigsh(LinearOperator((n, n), stiffness, dtype=float),
                            nev, M=LinearOperator((n, n), m_product,
                                                  dtype=float),
                            sigma=0.0,
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
    floor = np.finfo(float).eps * float((diag_a / M.diagonal()).max())
    if not vals[0] >= KERNEL_GAP * floor:
        raise SolveError(f"no gap above the {k}-dimensional kernel: lambda = "
                         f"{vals[0]:.3e} after |lambda| = {floor:.3e}")
    AV, LMV = stiffness(vecs), (M @ vecs) * vals
    num, av, lmv = (np.linalg.norm(X, axis=0) for X in (AV - LMV, AV, LMV))
    res = np.divide(num, av + lmv, out=np.zeros(count), where=av + lmv > 0)
    return EigenResult(vals, vecs, res, k, floor, factor_nnz, threads,
                       applications, products)


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of [A B; B^T 0] [u; p] = [f; 0], B = M G, per load column,
    for the A of K and G.

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
                               # K, as in EigenResult
    blas_threads: int | None   # scipy's OpenBLAS threads during the solve,
                               # None where they could not be set


def _worst_ratio(num, den) -> float:
    """Largest num / den over the columns, 0 where den is 0."""
    return float(np.divide(num, den, out=np.zeros_like(num),
                           where=den > 0).max(initial=0.0))


def solve_saddle_point(K, M, F, G) -> SaddleSolution:
    """Solve the KKT system with B = M G through the exact sequence, on the
    eigensolver's sparse factors.

    K, M and G are as for the eigensolver: A = [I; W^T] K [I, W] has the
    kernel range(G), with K = A[:n-k, :n-k] symmetric positive definite,
    M symmetric positive definite and the last k rows of G a nonsingular
    diagonal block.  If B^T u = 0 and A u + B p = f, then G^T A = 0 turns
    G^T of the first row into G^T M G p = G^T f: p comes from the sparse
    factor of G^T M G.  Then u solves A u = r = f - B p on ker B^T, where A
    is definite: u is P E K^{-1} E^T P^T, the eigensolver's inverse of A on
    the complement of range(G) with its factor of K
    (``_complement_inverse``), applied to r and then once to r - A u.  The
    inverse is exact up to round-off, and one refinement step brings the
    residual to round-off (Skeel, Math. Comp. 35, 1980) when r - A u is
    accurate.  Through K and W, A u in double is not: its rounding grows
    with |K| |W| |u| where that of an assembled A grows with |A| |u|, a
    factor of about 1/h**2 on a mesh of width h (the primal residual reads
    about 2e-14 against 8e-16 on the p=3 16 x 16 source mesh).  So the
    refinement's r - A u and the primal residual take A u and r = f - B p
    as unevaluated sums of two doubles, A u from error-free splits of the
    products through W, K and W^T (``_accurate_stiffness``), as iterative
    refinement with extended-precision residuals does (Moler, J. ACM 14,
    1967), with no type wider than double.  Both applications lie in
    ker B^T, so the gauge is round-off.

    K, M and G may be sparse or dense (CSR on entry).  F is one load of
    shape (n,) or r loads as the columns of an (n, r) array, sharing both
    factors; u and p have the shape of F (rows n and k).  The solve runs on
    one thread of scipy's OpenBLAS.  SolveError is raised on inconsistent
    shapes, when the last k rows of G are not a nonsingular diagonal block,
    on a failed factor (a zero G makes G^T M G singular, a kernel vector
    outside range(G) makes K singular) and when ``residual_primal``
    exceeds sqrt(eps): that is how a K that is singular to round-off shows.
    """
    K, M, G = _pencil(K, M, G)
    _release_heap()
    F = np.asarray(F, dtype=float)
    if F.ndim not in (1, 2) or F.shape[0] != M.shape[0]:
        raise SolveError("inconsistent saddle-point block shapes")
    norm = lambda X: np.linalg.norm(X.reshape(X.shape[0], -1), axis=0)
    with _one_blas_thread() as threads:
        s_lu, project, dual, max_b = _gauge_projection(G, M)
        p = s_lu.solve(G.T @ F)
        Bp = M @ (G @ p)
        r, r_lo = _two_sum(F, -Bp)
        W = _meridional_map(G)
        inverse, factor_nnz = _complement_inverse(K, G.shape[1], project,
                                                  dual)
        stiffness = _accurate_stiffness(K, W)

        def residual(u):
            """F - B p - A u, rounded once, and A u."""
            hi, lo = stiffness(u)
            s, e = _two_sum(r, -hi)
            return s + ((e + r_lo) - lo), hi

        u = inverse(r)
        u = u + inverse(residual(u)[0])
    res, Au = residual(u)
    r1 = _worst_ratio(norm(res), norm(Au) + norm(Bp) + norm(F))
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
