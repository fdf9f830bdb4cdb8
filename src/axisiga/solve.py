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
shift, and applies E K^{-1} E^T (E the first n - k unit vectors) between
the M-orthogonal projections onto the complement of range(G); the kernel
costs the factor no fill.  A nonsingular K leaves ker A exactly range(G);
that the K of a mesh is the leading block of C^T M_2 C with C G = 0 is
certified once per mesh, by ``assembly.MeshForms``.

Both SPD factors, of K and of G^T M G, are LAPACK's banded Cholesky
(``pbtrf``/``pbtrs``), filled straight from the CSR arrays: on a tensor
B-spline mesh both matrices are narrowly banded once their DoFs follow the
tensor positions (the band method of George and Liu, Computer Solution of
Large Sparse Positive Definite Systems, 1981).  G^T M G already is in the
order of the free Z^0 DoFs, and K is in the order of the first gradient
DoF each of its rows touches (``_tensor_order``), which G gives.  The
factor stores one triangle of the band, n (kd + 1) entries for the
half-bandwidth kd, and a pivot that is not positive fails it, so a factor
that succeeds certifies K positive definite.

The cavity eigensolver is shift-invert Lanczos (ARPACK) at 0 on that
operator, so its memory grows with the factors and not with n**2.  The
saddle-point solve takes the multiplier from the factor of G^T M G and the
field from K's factor and one refinement step.  Neither forms a dense
n x n matrix nor one of order n + k, and both run on one thread of the
OpenBLAS that scipy bundles: their BLAS work (Krylov products with the
n x ncv Lanczos basis, banded factors and triangular solves) is small, and
splitting it across threads costs more than it saves.
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
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh


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
    factor_nnz: int            # entries the banded Cholesky factor of K
                               # stores, (n - k)(kd + 1) for its half-
                               # bandwidth kd in the tensor order
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
    freed transients (assembly, the input check) leave there; released
    before the factors, it no longer adds to the peak RSS, which on the
    criterion 2 pillbox is then set by the assembly of the mode and not by
    the solve.  The factors' transients (M G, G^T M G, the band fill) are
    left to glibc: the Lanczos run reuses them and stays below that
    peak."""
    trim = _libc_malloc_trim()
    if trim is not None:
        trim(0)


def _banded_cholesky(A, name: str, failure: str, order=None):
    """LAPACK's banded Cholesky factor of a symmetric CSR matrix A taken in
    the order ``order`` (the rows of A as they are factored; None keeps
    A's own), as x -> A^{-1} x on a vector or on the columns of an (n, r)
    array, and the entries it stores, n (kd + 1) for the half-bandwidth
    kd of A in that order.

    The lower band ab[i - j, j] = A[i, j], i >= j, is filled straight from
    the CSR arrays into a Fortran-ordered (kd + 1, n) array, which
    ``cholesky_banded`` factors in place.  The fill first scatters the
    entries below the diagonal and subtracts their mirrors above it, so
    that max|A - A^T| is read off the strict band with no transpose
    formed: a SolveError "<name> is not symmetric" is raised above
    1e-10 max|A|.  Then the band is refilled from the entries on and above
    the diagonal, which are factored.  A pivot that is not positive (A
    not positive definite) is a SolveError that begins with ``failure``.
    """
    n, nnz = A.shape[0], A.indptr[-1]
    # positions in the band, n (kd + 1) <= n**2, fit int32 up to n = 46340
    index = np.int32 if n * n < 2**31 else np.intp
    row = np.repeat(np.arange(n, dtype=index), np.diff(A.indptr))
    col = A.indices[:nnz].astype(index, copy=False)
    if order is not None:
        position = np.empty(n, dtype=index)
        position[order] = np.arange(n, dtype=index)
        row, col = position[row], position[col]
    offset = col - row
    upper = offset >= 0
    kd = int(_max_abs(offset))
    # slot = the entry's place in the band, built in place, and the index
    # arrays dropped before the band is allocated
    slot = np.minimum(row, col, out=row)
    del col
    slot *= kd + 1
    slot += np.abs(offset, out=offset)
    del offset
    data = A.data[:nnz]
    ab = np.zeros((kd + 1) * n)
    band = ab.reshape((kd + 1, n), order="F")      # a view of ab
    np.add.at(ab, slot[~upper], data[~upper])
    np.subtract.at(ab, slot[upper], data[upper])
    if _max_abs(band[1:]) > 1e-10 * _max_abs(data):
        raise SolveError(f"{name} is not symmetric")
    ab[:] = 0.0
    np.add.at(ab, slot[upper], data[upper])
    try:
        factor = cholesky_banded(band, overwrite_ab=True, lower=True,
                                 check_finite=False)
    except LinAlgError as exc:
        raise SolveError(f"{failure}: {exc}") from exc

    def solve(b):
        if order is None:
            return cho_solve_banded((factor, True), b, check_finite=False)
        x = np.empty_like(b)
        x[order] = cho_solve_banded((factor, True), b[order],
                                    overwrite_b=True, check_finite=False)
        return x

    return solve, factor.size


def _tensor_order(G) -> np.ndarray:
    """The meridional DoFs, the first n - k rows of G = [D; d], in the
    order of the first and then the last gradient DoF each row touches;
    rows that touch none come first, each tie in its own order.  On a
    tensor mesh it interleaves both components by tensor position, which
    keeps K narrowly banded (half-width 206 on criterion 2, against 1257
    in K's own order)."""
    lead = G.shape[0] - G.shape[1]
    starts = G.indptr[:lead]
    touched = G.indptr[1:lead + 1] > starts
    first, last = np.full(lead, -1), np.full(lead, -1)
    if touched.any():
        indices = G.indices[:G.indptr[lead]]
        first[touched] = np.minimum.reduceat(indices, starts[touched])
        last[touched] = np.maximum.reduceat(indices, starts[touched])
    return np.lexsort((last, first))


def _max_abs(values) -> float:
    """max|values|, 0 for none; max and min stand in for abs(), which would
    copy them."""
    return max(values.max(initial=0.0), -values.min(initial=0.0))


def _pencil(K, M, G):
    """K, M and G as float CSR (ARPACK's products with M run faster on it),
    checked for shapes (M of order n, G of n rows and K of order n - k for
    the k columns of G) and for a positive diagonal of M; K's symmetry is
    checked as its band is filled (``_banded_cholesky``)."""
    K, M, G = (sp.csr_matrix(a, dtype=float) for a in (K, M, G))
    n, k = G.shape
    if M.shape != (n, n) or K.shape != (n - k, n - k):
        raise SolveError("inconsistent shapes: M must be square of the order "
                         "n of the rows of G, and K of order n - k for its "
                         "k columns")
    if not np.all(M.diagonal() > 0):
        raise SolveError("M is not positive definite")
    return K, M, G


def _gauge_projection(G, M):
    """x -> S^{-1} x for S = G^T M G, from its banded Cholesky factor in
    its own order, the M-orthogonal projection P x = x - G S^{-1} G^T (M x)
    onto ker (M G)^T, which removes the range(G) part of x, its transpose
    P^T x = x - M (G S^{-1} G^T x) onto ker G^T = range(A), and max|M G|.
    M G is formed only for S and its maximum and dies on return: the
    projections apply M and G in turn, so no n x k matrix besides G lives
    through a solve.  The transpose of G is a view, taken once here rather
    than on each application."""
    Gt, B = G.T, M @ G
    # G^T B comes out CSC; S is symmetric, so its transpose, a CSR view of
    # the same arrays, is S
    inverse, _ = _banded_cholesky((Gt @ B).T, "G^T M G",
                                  "factorization of G^T M G failed")
    return (inverse, lambda x: x - G @ inverse(Gt @ (M @ x)),
            lambda x: x - M @ (G @ inverse(Gt @ x)), _max_abs(B.data))


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


def _complement_inverse(K, G, project, dual):
    """The inverse of A on the complement of range(G), x -> P E K^{-1} E^T
    P^T x, and the entries the banded Cholesky factor of K, the leading
    block of order n - k, stores.

    The first n - k unit vectors E span a complement of range(G) when its
    last k rows are a nonsingular diagonal block (``_meridional_map``), and
    K is SPD when range(G) holds the kernel of A.  For x in range(A) =
    ker G^T, E K^{-1} E^T x is a preimage of x under A, and P picks the one
    M-orthogonal to range(G).  P^T first sends the round-off part of x
    outside range(A) to 0; E K^{-1} E^T would send it to a non-kernel
    vector.  K is factored in the tensor order that G gives
    (``_tensor_order``), and a pivot that is not positive means a kernel
    vector of A outside range(G)."""
    lead, k = K.shape[0], G.shape[1]
    solve, stored = _banded_cholesky(
        K, "K", f"no gap above the {k}-dimensional kernel: the leading block "
        f"K of A of order {lead} is not positive definite, so range(G) "
        f"misses part of the kernel of A", _tensor_order(G))

    def inverse(x):
        y = np.zeros_like(x)
        y[:lead] = solve(dual(x)[:lead])
        return project(y)

    return inverse, stored


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
    after the input check, before the factors.  The factorizations and the
    Lanczos run use one thread of scipy's OpenBLAS (see the module
    docstring).  SolveError is raised when count >= n - k (Lanczos needs
    one vector more than it returns pairs), on inconsistent shapes, when
    the last k rows of G are not a nonsingular diagonal block, on an
    asymmetric K, on a failed factor (a K that is not positive definite
    means a kernel vector outside range(G)), on an ARPACK failure, and
    unless lambda_0 >= KERNEL_GAP * threshold, the round-off floor
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
        inverse, factor_nnz = _complement_inverse(K, G, project, dual)
        stiffness = _stiffness(K, W)

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
    factor_nnz: int            # entries the banded Cholesky factor of K
                               # stores, as in EigenResult
    blas_threads: int | None   # scipy's OpenBLAS threads during the solve,
                               # None where they could not be set


def _worst_ratio(num, den) -> float:
    """Largest num / den over the columns, 0 where den is 0."""
    return float(np.divide(num, den, out=np.zeros_like(num),
                           where=den > 0).max(initial=0.0))


def solve_saddle_point(K, M, F, G) -> SaddleSolution:
    """Solve the KKT system with B = M G through the exact sequence, on the
    eigensolver's banded factors.

    K, M and G are as for the eigensolver: A = [I; W^T] K [I, W] has the
    kernel range(G), with K = A[:n-k, :n-k] symmetric positive definite,
    M symmetric positive definite and the last k rows of G a nonsingular
    diagonal block.  If B^T u = 0 and A u + B p = f, then G^T A = 0 turns
    G^T of the first row into G^T M G p = G^T f: p comes from the banded
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
    on an asymmetric K, on a failed factor (a zero G makes G^T M G
    singular, a kernel vector outside range(G) makes K singular) and when
    ``residual_primal`` exceeds sqrt(eps): that is how a K that is singular
    to round-off shows.
    """
    K, M, G = _pencil(K, M, G)
    _release_heap()
    F = np.asarray(F, dtype=float)
    if F.ndim not in (1, 2) or F.shape[0] != M.shape[0]:
        raise SolveError("inconsistent saddle-point block shapes")
    norm = lambda X: np.linalg.norm(X.reshape(X.shape[0], -1), axis=0)
    with _one_blas_thread() as threads:
        s_inverse, project, dual, max_b = _gauge_projection(G, M)
        p = s_inverse(G.T @ F)
        Bp = M @ (G @ p)
        r, r_lo = _two_sum(F, -Bp)
        W = _meridional_map(G)
        inverse, factor_nnz = _complement_inverse(K, G, project, dual)
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
