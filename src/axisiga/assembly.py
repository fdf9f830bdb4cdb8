"""Per-mode weighted Galerkin assembly in tilde variables.

All bilinear forms are integrals over the cross-section with the cylindrical
measure rho drho dz.  Trial/test fields are expanded in the Cartesian factor
spaces of the discrete complex; their tilde values reach the physical
cylindrical components through the push-forward of the geometry (covariant
for the curl-conforming pair, Piola for the div-conforming pair, density
scaling for top forms) and the eta^{-1} maps, which multiply by rho and never
divide — every integrand is smooth up to the axis.

Every integral runs over one table of Gauss points, the tensor grid of the
1D points of both directions, which holds the geometry and, per 1D space of
the factors, one sparse basis matrix P (num_basis, N_d) of its values at
the points of its direction, tabulated once.  No integral forms the tensor
values of a basis: it contracts the two P one direction at a time (sum
factorization).  A load maps its data once per point by the transposes of
both maps and takes P1 W P2^T per factor; an error norm maps the field
P1^T U P2 once per point.  Only a mass part pairs per-point directions, the
m = 1 images of the factors' unit components, and sums each pair straight
into the band storage of its pattern, the Kronecker product of two banded 1D
patterns, with no element blocks and no triplets.

The mode m enters only through eta^{-1}, whose factors 1/m multiply whole
components: all of k=0, the (rho, z) pair of k=1, the theta component of
k=2, none of k=3.  The integrands pair like components, so every mass
matrix is M_k(m) = X_k + Y_k / m**2 (Y_k from the 1/m components at m = 1),
the same for m and -m.  The complex is exact in tilde variables, so the
curl C does not depend on m and the curl-curl matrix is C^T M_2(m) C.
``MeshForms`` owns one mesh's tables and its free DoFs (the dirichlet
constraints are the same for every m), and assembles on them once the X and
Y of the Z^1 mass and of the 1/mu-weighted Z^2 mass; a mode then costs two
sparse axpys and one product C^T M_2 C, and its load and error norms on the
same tables.  Per mesh that is cheaper than keeping X and Y of C^T M_2 C,
which takes two products, for up to two mirror pairs of modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .derham import DeRhamComplex2D, DeRhamError, eta_inverse, tilde_push_forward
from .geometry import EDGES, NurbsGeometry, pullback_values
from .splines import SplineSpace1D


class AssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class MaterialConstants:
    """Permittivity (F/m) and permeability (H/m)."""

    eps: float = 8.8541878128e-12
    mu: float = 4.0e-7 * np.pi

    def __post_init__(self):
        if not (0 < self.eps < np.inf and 0 < self.mu < np.inf):
            raise AssemblyError("material constants must be positive and finite")


VACUUM = MaterialConstants()


def default_nquad(complex_: DeRhamComplex2D) -> int:
    """Gauss points per direction.

    The worst integrand factor is rho**3 times a spline product (from the
    rho-weighted measure and the rho factors of eta^{-1}), of 1D degree
    2p + 3 on affine geometry, so p + 2 points are exact there; p + 1 would
    not be.  On a curved NURBS map the integrands are rational and no rule
    is exact, but p + 2 points suffice there too: on the hemispherical
    shell of the curved-cavity test, p + 3 and p + 5 points move the ten
    lowest m = 1 eigenvalues by at most 1.1e-7 relative at p = 2, 8 x 8
    (2.2e-9 at p = 3), against discretization errors of 8.8e-3 (8.1e-4).
    """
    return max(complex_.degrees) + 2


# ---------------------------------------------------------------------------
# quadrature tabulation
# ---------------------------------------------------------------------------

# edge -> (direction of the fixed parametric coordinate, its value, sign of
# the outward normal in the (T_z, -T_rho) convention)
_EDGE_GEOM = {
    "west": (0, 0.0, -1.0),
    "east": (0, 1.0, +1.0),
    "south": (1, 0.0, +1.0),
    "north": (1, 1.0, -1.0),
}


def _element_rule(breakpoints: np.ndarray, n: int):
    """(x, w): numpy's n-point Gauss-Legendre rule, exact for degree
    2n - 1, mapped onto each element between consecutive breakpoints."""
    t, wt = np.polynomial.legendre.leggauss(n)
    a, b = breakpoints[:-1, None], breakpoints[1:, None]
    h = 0.5 * (b - a)
    return (a + h * (t + 1.0)).ravel(), (h * wt).ravel()


def _basis_matrix(space: SplineSpace1D, x: np.ndarray) -> sp.csc_matrix:
    """The basis of a 1D space at the points x, as the CSC matrix P
    (num_basis, len(x)) whose column q holds the p + 1 values at x[q] that
    may be nonzero."""
    firsts, vals, _ = space.tabulate(x)
    p1 = space.degree + 1
    # int32, scipy's index type at these sizes: index arrays built from
    # them enter scipy without a converted copy
    index = (firsts[:, None] + np.arange(p1)).astype(np.int32)
    return sp.csc_matrix(
        (vals.ravel(), index.ravel(),
         np.arange(0, vals.size + 1, p1, dtype=np.int32)),
        shape=(space.num_basis, len(x)))


class _QuadTable:
    """Gauss points of all elements, or of the elements along one edge, with
    the geometry, the quadrature weight of the cylindrical measure and the
    1D basis matrices of every factor space there.

    The points are the tensor grid of the 1D Gauss points of both
    directions, N_d = nel_d * nq_d of them in direction d (one across an
    edge), so point arrays have shape (N1, N2).  ``dx`` is the weight of
    rho drho dz, or of rho ds on an edge, where ``normal`` (N1, N2, 2) is
    the outward unit normal.  One table serves every integral over its
    points.
    """

    def __init__(self, complex_: DeRhamComplex2D, geometry: NurbsGeometry,
                 nquad: int | None = None, edge: str | None = None):
        cx = complex_
        for gz, az in zip(geometry.breakpoints,
                          (cx.s1.breakpoints, cx.s2.breakpoints)):
            if not np.all(np.isin(np.round(gz, 12), np.round(az, 12))):
                raise AssemblyError(
                    "geometry breakpoints must be nested in the analysis mesh")
        self.complex = cx
        nquad = nquad or default_nquad(cx)
        nodes, weights = [], []
        for d, s in enumerate((cx.s1, cx.s2)):
            if edge is not None and _EDGE_GEOM[edge][0] == d:
                x, w = np.array([_EDGE_GEOM[edge][1]]), np.ones(1)
            else:
                x, w = _element_rule(s.breakpoints, nquad)
            nodes.append(x)
            weights.append(w)
        # the six factors of Z^1 and Z^2 take their 1D spaces from two per
        # direction: each is tabulated once
        self.lines = {}
        for space in cx.space_factors(1) + cx.space_factors(2):
            for d, line in enumerate((space.s1, space.s2)):
                if (d, line) not in self.lines:
                    self.lines[d, line] = _basis_matrix(line, nodes[d])
        shape = (len(nodes[0]), len(nodes[1]))
        pts = np.column_stack([np.repeat(nodes[0], shape[1]),
                               np.tile(nodes[1], shape[0])])
        rho, z, J, det = geometry.evaluate(pts)
        if np.any(det <= 0):
            raise AssemblyError("non-positive Jacobian at a quadrature point")
        self.rho, self.z = rho.reshape(shape), z.reshape(shape)
        self.J, self.det = J.reshape(shape + (2, 2)), det.reshape(shape)
        w = np.outer(*weights)
        self.normal = None
        if edge is None:
            self.dx = w * self.det * self.rho
        else:
            fixed_dir, _, sign = _EDGE_GEOM[edge]
            T = self.J[..., :, 1 - fixed_dir]
            length = np.hypot(T[..., 0], T[..., 1])
            self.normal = (sign * np.stack([T[..., 1], -T[..., 0]], axis=-1)
                           / length[..., None])
            self.dx = w * length * self.rho

    def tables(self, k: int):
        """(start, P1, P2) per stacked factor of Z^k: its first Z^k
        coefficient and the basis matrices (see ``_basis_matrix``) of its
        1D spaces; the coefficients of the factor are start + i1 * n2 + i2
        with n2 = P2.shape[0], and the basis function of coefficient
        (i1, i2) has the values P1[i1, :, None] * P2[i2, None, :] on the
        grid."""
        cx = self.complex
        return [(sl.start, self.lines[0, s.s1], self.lines[1, s.s2])
                for s, sl in zip(cx.space_factors(k), cx.block_slices(k))]

    def directions(self, k: int) -> np.ndarray:
        """g (nfactor, N1, N2, ncomp): eta_1^{-1} of the push-forward of
        each factor's unit tilde component, for the mass parts: a basis
        function of factor f with the values v (N1, N2) has the physical
        components v[..., None] * g[f] at m = 1."""
        n = len(self.complex.space_factors(k))
        unit = np.broadcast_to(np.eye(n)[:, None, None],
                               (n,) + self.rho.shape + (n,))
        U = tilde_push_forward(k, self.J, self.det, unit)
        U = U if k in (1, 2) else U[..., 0]
        return eta_inverse(1, k, self.rho, U).reshape(U.shape[:3] + (-1,))

    def at_points(self, name: str, fn, *args, tail: tuple = ()) -> np.ndarray:
        """fn(*args, rho, z), with the edge normals as a last argument on an
        edge, called once on all points, with the table's (N1, N2) leading
        shape; an AssemblyError names fn ``name`` if not (npts,) + tail."""
        pts = (self.rho.ravel(), self.z.ravel())
        if self.normal is not None:
            pts += (self.normal.reshape(-1, 2),)
        out = np.asarray(fn(*args, *pts), dtype=float)
        if out.shape != (want := (self.rho.size,) + tail):
            raise AssemblyError(f"{name} has shape {out.shape}, not {want}")
        return out.reshape(self.rho.shape + tail)


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

# components of eta^{-1} tilde that carry the factor 1/m, per form degree
_INV_M_COMPONENTS = {0: (0,), 1: (0, 1), 2: (2,), 3: ()}


def _band_factor(Pr, Pc):
    """(Q, low, w) of one direction and one pair of 1D spaces, with the
    basis matrices Pr, Pc of their spaces (``_basis_matrix``): the sparse
    Q (n_rows * w, N) with Q[i * w + c, q] = Pr[i, q] Pc[i + low + c, q],
    every pair of basis functions that point q sees.  For W on the points
    of this direction, Q W sums their products into the band storage of
    width w of the 1D pattern; a pair that no point sees stays 0.  Q is
    CSC, one column per point, so it is built without a conversion and its
    product sums each band entry in the order of the points."""
    npts = Pr.shape[1]
    rows, vr = Pr.indices.reshape(npts, -1), Pr.data.reshape(npts, -1)
    cols, vc = Pc.indices.reshape(npts, -1), Pc.data.reshape(npts, -1)
    na, nb = vr.shape[1], vc.shape[1]
    d = cols[:, None, :] - rows[:, :, None]
    low = int(d.min())
    w = int(d.max()) - low + 1
    data = vr[:, :, None] * vc[:, None, :]              # (N, na, nb)
    Q = sp.csc_matrix(
        (data.ravel(), (rows[:, :, None] * w + (d - low)).ravel(),
         np.arange(0, data.size + 1, na * nb, dtype=np.int32)),
        shape=(Pr.shape[0] * w, npts))
    return Q, low, w


def _band_sum(WT, factors) -> np.ndarray:
    """The band (n1, n2, w1 * w2) of one factor pair, Q1 W Q2^T with the
    ``_band_factor``s of both directions and WT = W^T (N2, N1): entry
    (i1, i2, c1 * w2 + c2) is the pair's matrix entry at (i1, i2) and
    (i1 + low1 + c1, i2 + low2 + c2)."""
    (Q1, _, w1), (Q2, _, w2) = factors
    R = Q1 @ (Q2 @ WT).T
    n1, n2 = R.shape[0] // w1, R.shape[1] // w2
    return R.reshape(n1, w1, n2, w2).transpose(0, 2, 1, 3).reshape(n1, n2, -1)


def _band_columns(n1, n2, factors, table) -> np.ndarray:
    """The columns (n1, n2, w1 * w2) of the entries of a ``_band_sum``
    band, for the column factor with the ``_QuadTable.tables`` entry
    table."""
    (_, low1, w1), (_, low2, w2) = factors
    start, n2h = table[0], table[2].shape[0]
    i1, i2, c1, c2 = (np.arange(n, dtype=np.int32) for n in (n1, n2, w1, w2))
    i1 = i1[:, None] + low1 + c1
    i2 = i2[:, None] + low2 + c2
    return ((i1 * n2h + start)[:, None, :, None]
            + i2[None, :, None, :]).reshape(n1, n2, -1)


def _mass_parts(tab: _QuadTable, k: int, weight, free=None):
    """(X, Y) with the weighted Z^k mass M_k(m) = X + Y / m**2: the
    integrals over the eta^{-1} components free of 1/m and over those that
    carry it, both tabulated at m = 1, on the rows and columns ``free``
    (all DoFs for None).

    A factor pair sums straight into the band storage of its Kronecker
    pattern, one direction at a time (sum factorization, see
    ``_band_factor`` and ``_mass_part``): no element block is formed.
    """
    wq = tab.dx * (tab.at_points("weight", weight) if callable(weight)
                   else float(weight))
    g = tab.directions(k)
    inv_m = np.isin(np.arange(g.shape[-1]), _INV_M_COMPONENTS[k])
    # one band factor per direction and pair of 1D spaces
    lines = [(s.s1, s.s2) for s in tab.complex.space_factors(k)]
    pairs = {(d, f[d], h[d]) for f in lines for h in lines for d in (0, 1)}
    band = {(d, a, b): _band_factor(tab.lines[d, a], tab.lines[d, b])
            for d, a, b in pairs}
    factors = {(f, h): [band[d, fl[d], hl[d]] for d in (0, 1)]
               for f, fl in enumerate(lines) for h, hl in enumerate(lines)}
    dim = tab.complex.dim(k)
    renumber = np.full(dim, -1, dtype=np.int32)
    free = np.arange(dim) if free is None else free
    renumber[free] = np.arange(len(free))
    return tuple(_mass_part(tab.tables(k), wq, g[..., comps], factors,
                            renumber) for comps in (~inv_m, inv_m))


def _mass_part(tables, wq, g, factors, renumber) -> sp.csr_matrix:
    """One part of ``_mass_parts``, from the directions g of its
    components, as a CSR matrix on the DoFs that renumber numbers (-1 on
    the others).

    Factors f <= h take W = dx weight g_f . g_h (skipped where zero), the
    same for the blocks (f, h) and (h, f), and each block is Q1 W Q2^T
    (``_band_sum``), a slice of the bands of its row factor.  Row
    i1 * n2 + i2 of factor f holds the bands (f, h) at (i1, i2) in the
    order of h, which is column order; its nonzero entries on free columns
    make the CSR row, so exact zeros are dropped, as a scipy sum drops
    them.  The bands are summed twice, once to count the entries and once
    to fill the CSR arrays, allocated at their final size in between.
    """
    free = np.flatnonzero(renumber >= 0)
    nf = len(tables)
    WT = {}
    for f in range(nf):
        for h in range(f, nf):
            w = wq * np.sum(g[f] * g[h], -1)
            if w.any():
                WT[f, h] = WT[h, f] = w.T

    def row_band(f):
        """The bands of row factor f, the free numbers of their columns
        and the entries kept, each flattened in row order."""
        start, P1, P2 = tables[f]
        n1, n2 = P1.shape[0], P2.shape[0]
        row = [h for h in range(nf) if (f, h) in WT]
        vals = np.concatenate([np.empty((n1, n2, 0))] + [
            _band_sum(WT[f, h], factors[f, h]) for h in row], axis=-1)
        cols = np.concatenate([np.empty((n1, n2, 0), dtype=np.int32)] + [
            _band_columns(n1, n2, factors[f, h], tables[h])
            for h in row], axis=-1)
        # a band entry off the matrix is 0, so its clipped column does not
        # matter
        cols = renumber.take(cols, mode="clip")
        keep = ((vals != 0) & (cols >= 0)
                & (renumber[start:start + n1 * n2] >= 0).reshape(n1, n2, 1))
        return vals.ravel(), cols.ravel(), keep.reshape(n1 * n2, -1)

    counts = np.concatenate([row_band(f)[2].sum(-1) for f in range(nf)])
    indptr = np.zeros(len(free) + 1, dtype=np.int32)
    np.cumsum(counts[free], out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    pos = 0
    for f in range(nf):
        vals, cols, keep = row_band(f)
        n = int(np.count_nonzero(keep))
        np.compress(keep.ravel(), vals, out=data[pos:pos + n])
        np.compress(keep.ravel(), cols, out=indices[pos:pos + n])
        pos += n
    return sp.csr_matrix((data, indices, indptr), shape=(len(free),) * 2)


def _compact(A: sp.csr_matrix) -> sp.csr_matrix:
    """A with data and indices of exactly its nnz entries: a scipy sum
    allocates both for nnz(X) + nnz(Y) and keeps them when the result fills
    more than half."""
    return sp.csr_matrix((A.data.copy(), A.indices.copy(), A.indptr),
                         shape=A.shape)


def _at_mode(parts, m: int) -> sp.csr_matrix:
    """X + Y / m**2 for mode m."""
    if m == 0:
        raise DeRhamError("mode m must be nonzero")
    return _compact(parts[0] + parts[1] / m**2)


def _curlcurl(curl, M2) -> sp.csr_matrix:
    """The symmetrized curl^T M2 curl, (A + A^T) / 2, with exactly nnz
    entries.  Where A's pattern is its transpose's, the sum is taken in A's
    own data, against the sorted transpose: a + b == b + a, so the values
    are scipy's sum's, with no buffer for it.  SpGEMM drops sums that are
    exactly 0, which can leave an entry of round-off size without its
    mirror; then the pattern differs, mostly already in the row counts,
    and scipy adds the two."""
    A = curl.T.tocsr() @ (M2 @ curl)    # CSR products, the cheaper order
    T = A.T.tocsr()                     # sorted indices
    if np.array_equal(T.indptr, A.indptr):
        A.sort_indices()
        if np.array_equal(T.indices, A.indices):
            A.data += T.data
            if not A.data.all():    # scipy's sum drops entries that are 0
                A.eliminate_zeros()
                A = _compact(A)
            A.data *= 0.5
            return A
    A = A + T
    A.data *= 0.5
    return _compact(A)


def assemble_mass(complex_: DeRhamComplex2D, geometry: NurbsGeometry, m: int,
                  k: int = 1, weight=1.0) -> sp.csr_matrix:
    """Weighted L2_rho mass matrix on Z^k_h for mode m.

    Entries are integrals weight * (eta^{-1} tilde_j) . (eta^{-1} tilde_i)
    rho drho dz; ``weight`` is a constant or a callable of (rho, z).
    """
    return _at_mode(_mass_parts(_QuadTable(complex_, geometry), k, weight), m)


def assemble_curlcurl(complex_: DeRhamComplex2D, geometry: NurbsGeometry,
                      m: int, weight) -> sp.csr_matrix:
    """Curl-curl stiffness A_m = C^T M2(weight) C on Z^1_h, with ``weight``
    (1/mu) as in :func:`assemble_mass`.

    The curl is applied exactly through the coefficient matrix C; only the
    weighted Z^2 mass is integrated.
    """
    M2 = _at_mode(_mass_parts(_QuadTable(complex_, geometry), 2, weight), m)
    return _curlcurl(complex_.C, M2)


# ---------------------------------------------------------------------------
# load assembly and error norms
# ---------------------------------------------------------------------------

def _load_vector(tab: _QuadTable, m: int, name: str, fn) -> np.ndarray:
    """Integrals of the callback ``name`` against eta_m^{-1} of every Z^1
    basis function: P1 W P2^T per factor, W its weighted values mapped once
    per point by the transpose of eta_m^{-1} and of the push-forward."""
    v = tab.at_points(name, fn, m, tail=(3,)) * tab.dx[..., None]
    scale = (tab.rho / (m * tab.det))[..., None]
    pair = pullback_values("1*", tab.J, tab.det, v[..., :2] * scale)
    w = (pair[..., 0], pair[..., 1], v[..., 2] - v[..., 0] / m)
    # as (P2 (P1 W)^T)^T: no dense matrix times a sparse one, which scipy
    # takes through two more transposed sparse objects at every call
    return np.concatenate([(P2 @ (P1 @ wf).T).T.ravel()
                           for (_, P1, P2), wf in zip(tab.tables(1), w)])


def assemble_load(forms: MeshForms, m: int, source=None,
                  neumann=None) -> np.ndarray:
    """Load vector on Z^1_h for mode m, on the quadrature tables of
    ``forms``.

    source(m, rho, z) -> (npts, 3): cylindrical components of the current
    density Fourier coefficient; integrated against eta_1^{-1} of each test
    function with measure rho drho dz.  It is called once, with the
    quadrature points of all elements.

    neumann(m, rho, z, normal) -> (npts, 3): surface term density
    (mu^{-1} curl A) x n on edges labeled 'neumann', integrated with the line
    measure rho |T| dt.  It is called once per such edge, with rho and z of
    shape (npts,) and the outward unit normals (n_rho, n_z) as an array of
    shape (npts, 2).
    """
    if m == 0:
        raise DeRhamError("mode m must be nonzero")
    f = np.zeros(forms.complex.dim(1))
    if source is not None:
        f += _load_vector(forms.table, m, "source", source)
    if neumann is not None:
        for tab in forms.edge_tables:
            f += _load_vector(tab, m, "neumann", neumann)
    return f


def l2_rho_error(forms: MeshForms, m: int, k: int, coeffs: np.ndarray,
                 reference) -> float:
    """Weighted L2_rho norm of eta^{-1} u_h - reference for a Z^k field, on
    the interior quadrature table of ``forms``.

    ``coeffs`` are the Z^k coefficients of u_h, exactly dim Z^k of them;
    reference(m, rho, z) returns the physical cylindrical components, of
    shape (npts, 3) for k in {1, 2} and (npts,) otherwise.
    """
    tab, u = forms.table, np.asarray(coeffs, dtype=float)
    if u.shape != (forms.complex.dim(k),):
        raise AssemblyError(f"a Z^{k} field takes {forms.complex.dim(k)} "
                            f"coefficients, not {u.shape}")
    # each factor's values P1^T U P2 (see ``_load_vector``) in one field
    tilde = np.stack([(P2.T @ (P1.T @ u[s:s + P1.shape[0] * P2.shape[0]]
                               .reshape(P1.shape[0], -1)).T).T
                      for s, P1, P2 in tab.tables(k)], axis=-1)
    phys = tilde_push_forward(k, tab.J, tab.det, tilde)
    phys = eta_inverse(m, k, tab.rho, phys if k in (1, 2) else phys[..., 0])
    ref = tab.at_points("reference", reference, m, tail=phys.shape[2:])
    d2 = ((phys - ref) ** 2).reshape(tab.dx.shape + (-1,))
    return float(np.sqrt(np.sum(np.sum(d2, axis=-1) * tab.dx)))


# ---------------------------------------------------------------------------
# essential boundary conditions
# ---------------------------------------------------------------------------

def essential_dofs(complex_: DeRhamComplex2D, k: int,
                   edge_labels: dict) -> np.ndarray:
    """Constrained Z^k DoFs (k in {0, 1}) on dirichlet (PEC) edges.

    On each such edge, every factor of Z^k whose 1D space across the edge
    has full degree is fixed at its first or last index in that direction;
    the reduced-degree (normal) factor stays free.  The axis constrains
    nothing.
    """
    if k not in (0, 1):
        raise AssemblyError(f"essential DoFs are defined for k in {{0, 1}}, not {k}")
    cx = complex_
    out = [np.array([], dtype=int)]
    for space, sl in zip(cx.space_factors(k), cx.block_slices(k)):
        index = sl.start + np.arange(space.dim).reshape(space.shape)
        for edge in EDGES:
            d, side, _ = _EDGE_GEOM[edge]
            full = (space.s1, space.s2)[d].degree == cx.degrees[d]
            if full and edge_labels.get(edge) == "dirichlet":
                out.append(np.take(index, -1 if side else 0, axis=d))
    return np.unique(np.concatenate(out))


# ---------------------------------------------------------------------------
# mode system
# ---------------------------------------------------------------------------

@dataclass
class ModeSystem:
    """Assembled matrices of one Fourier mode on the free DoFs of its mesh.

    ``free_z1`` / ``free_z0`` index the unconstrained DoFs of the full
    coefficient spaces; ``expand_z1`` puts a free Z^1 vector back on them.
    """

    m: int
    complex: DeRhamComplex2D
    A: sp.csr_matrix            # curl-curl (weight 1/mu) on free Z1
    M: sp.csr_matrix            # mass (weight eps) on free Z1
    G: sp.csr_matrix            # gradient, free Z0 -> free Z1: the kernel of A
    f: np.ndarray               # load on free Z1
    free_z1: np.ndarray
    free_z0: np.ndarray

    @property
    def B(self) -> sp.csr_matrix:
        """M(eps) G: free Z0 -> free Z1, formed on each read; the solvers
        take M and G and apply them in turn, keeping no B."""
        return (self.M @ self.G).tocsr()

    def reduced(self):
        """(A, M, f), the system the solvers take with ``G``."""
        return self.A, self.M, self.f

    def expand_z1(self, u_red: np.ndarray) -> np.ndarray:
        u = np.zeros(self.complex.dim(1))
        u[self.free_z1] = u_red
        return u


class MeshForms:
    """One mesh's quadrature, boundary conditions and the mode-independent
    parts of its Galerkin matrices.

    The constructor does the work: the quadrature table of all elements and
    one per neumann edge, each with the basis matrix of every 1D space of
    the factors tabulated once, on which every mode's load and error norms
    run; the free Z^1/Z^0 DoFs, those not fixed on a dirichlet edge; the
    eps-weighted Z^1 mass on them and the 1/mu-weighted Z^2 mass (Z^2 has
    no essential DoFs), each split as X + Y / m**2; the curl C from the
    free Z^1 DoFs, and the gradient G between the free DoFs.
    """

    def __init__(self, complex_: DeRhamComplex2D, geometry: NurbsGeometry,
                 materials: MaterialConstants = VACUUM):
        self.complex = complex_
        self.table = tab = _QuadTable(complex_, geometry)
        self.edge_tables = [_QuadTable(complex_, geometry, edge=edge)
                            for edge in EDGES
                            if geometry.edge_labels[edge] == "neumann"]
        self.free_z1, self.free_z0 = (
            np.setdiff1d(np.arange(complex_.dim(k)),
                         essential_dofs(complex_, k, geometry.edge_labels))
            for k in (1, 0))
        r = self.free_z1
        self.mass = list(_mass_parts(tab, 1, materials.eps, r))
        self.mass2 = list(_mass_parts(tab, 2, 1.0 / materials.mu))
        self.curl = complex_.C[:, r]
        self.G = complex_.G[r][:, self.free_z0]


def build_mode_system(forms: MeshForms, m: int, source=None,
                      neumann=None) -> ModeSystem:
    """A_m, M_m and the load of mode m on the free DoFs.

    M_m and the Z^2 mass are axpys of the parts in ``forms``, and A_m is
    the symmetrized C^T M_2 C; only the load (``assemble_load``, on the
    tables of ``forms``) is integrated per mode.
    """
    f = assemble_load(forms, m, source=source, neumann=neumann)
    return ModeSystem(
        m=m, complex=forms.complex,
        A=_curlcurl(forms.curl, _at_mode(forms.mass2, m)),
        M=_at_mode(forms.mass, m),
        G=forms.G, f=f[forms.free_z1],
        free_z1=forms.free_z1, free_z0=forms.free_z0,
    )
