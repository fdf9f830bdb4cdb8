"""Per-mode weighted Galerkin assembly in tilde variables.

All bilinear forms are integrals over the cross-section with the cylindrical
measure rho drho dz.  Trial/test fields are expanded in the Cartesian factor
spaces of the discrete complex; at each quadrature point the parametric basis
values are pushed forward through the geometry (covariant for the
curl-conforming pair, Piola for the div-conforming pair, density scaling for
top forms) and converted to physical cylindrical components through the
eta^{-1} maps, which multiply by rho and never divide — every integrand is
smooth up to the axis.

Every integral runs over one table of Gauss points, built in a single
batched pass: the 1D basis tables of each direction, the geometry
(rho, z, J, det J) at every point and the push-forwarded tilde values of
every local basis function.  Each assembly routine contracts a table with one
einsum (matrices then come from one COO build).

The mode m enters only through eta^{-1}, whose factors 1/m multiply whole
components: all of k=0, the (rho, z) pair of k=1, the theta component of
k=2, none of k=3.  The integrands pair like components, so every matrix is
M_k(m) = X_k + Y_k / m**2 (Y_k from the 1/m components at m = 1), the same
for m and -m.  ``MeshForms`` owns one mesh's tables and its free DoFs (the
dirichlet constraints are the same for every m) and assembles X and Y on
them once; a mode then costs two sparse axpys, the product M G, and its load
and error norms on the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .derham import DeRhamComplex2D, DeRhamError, eta_inverse, tilde_push_forward
from .geometry import EDGES, NurbsGeometry
from .quadrature import gauss_legendre
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
    not be.
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


def _direction_table(space: SplineSpace1D, nodes: np.ndarray):
    """First indices (nel,) and values (nel, nq, p+1) of the local basis
    functions of a 1D space at per-element nodes (nel, nq)."""
    firsts, vals, _ = space.tabulate(nodes.ravel())
    firsts = firsts.reshape(nodes.shape)
    if np.any(firsts != firsts[:, :1]):
        raise AssemblyError("quadrature node left its element span")
    return firsts[:, 0], vals.reshape(nodes.shape + (space.degree + 1,))


class _QuadTable:
    """Gauss points of all elements, or of the elements along one edge, with
    the geometry and the quadrature weight of the cylindrical measure there.

    Point arrays have shape (nel, nq): element e = e1 * nel2 + e2 and point
    q = i * nq2 + j of the tensor rule.  ``dx`` is the weight of
    rho drho dz, or of rho ds on an edge, where ``normal`` (nel, nq, 2) is the
    outward unit normal.  One table serves every integral over its points.
    """

    def __init__(self, complex_: DeRhamComplex2D, geometry: NurbsGeometry,
                 nquad: int | None = None, edge: str | None = None):
        cx = complex_
        for gz, az in ((geometry.basis.space.s1.breakpoints, cx.s1.breakpoints),
                       (geometry.basis.space.s2.breakpoints, cx.s2.breakpoints)):
            if not np.all(np.isin(np.round(gz, 12), np.round(az, 12))):
                raise AssemblyError(
                    "geometry breakpoints must be nested in the analysis mesh")
        self.complex = cx
        self._kept = {}
        rule = gauss_legendre(nquad or default_nquad(cx))
        self.nodes, weights = [], []
        for d, s in enumerate((cx.s1, cx.s2)):
            if edge is not None and _EDGE_GEOM[edge][0] == d:
                x, w = np.array([[_EDGE_GEOM[edge][1]]]), np.ones((1, 1))
            else:
                z = s.breakpoints
                x, w = rule.mapped(z[:-1, None], z[1:, None])
            self.nodes.append(x)
            weights.append(w)
        (nel1, nq1), (nel2, nq2) = self.nodes[0].shape, self.nodes[1].shape
        grid = (nel1, nel2, nq1, nq2)
        shape = (nel1 * nel2, nq1 * nq2)
        pts = np.column_stack([
            np.broadcast_to(self.nodes[0][:, None, :, None], grid).ravel(),
            np.broadcast_to(self.nodes[1][None, :, None, :], grid).ravel()])
        rho, z, J, det = geometry.evaluate(pts)
        if np.any(det <= 0):
            raise AssemblyError("non-positive Jacobian at a quadrature point")
        self.rho, self.z = rho.reshape(shape), z.reshape(shape)
        self.J, self.det = J.reshape(shape + (2, 2)), det.reshape(shape)
        w = (weights[0][:, None, :, None]
             * weights[1][None, :, None, :]).reshape(shape)
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

    def basis(self, k: int):
        """Every local Z^k basis function as tilde values at the points.

        Returns (idx (nel, nloc), U (nel, nloc, nq, ncomp)): indices into the
        stacked Z^k coefficient vector and the push-forwarded tilde values,
        one component per stacked factor.
        """
        cx = self.complex
        factors = cx.space_factors(k)
        nel, nq = self.rho.shape
        idx, blocks = [], []
        for c, (space, sl) in enumerate(zip(factors, cx.block_slices(k))):
            f1, v1 = _direction_table(space.s1, self.nodes[0])
            f2, v2 = _direction_table(space.s2, self.nodes[1])
            pl1, pl2 = v1.shape[2], v2.shape[2]
            i1 = f1[:, None, None, None] + np.arange(pl1)[:, None]
            i2 = f2[None, :, None, None] + np.arange(pl2)
            idx.append((i1 * space.s2.num_basis + i2).reshape(nel, -1) + sl.start)
            V = np.zeros((nel, pl1 * pl2, nq, len(factors)))
            V[..., c] = np.einsum("Eia,Fjb->EFabij", v1, v2).reshape(
                nel, pl1 * pl2, nq)
            blocks.append(V)
        U = tilde_push_forward(k, self.J[:, None], self.det[:, None],
                               np.concatenate(blocks, axis=1))
        return np.concatenate(idx, axis=1), U

    def shared_basis(self, k: int):
        """``basis(k)``, kept from the first call on for the per-mode
        integrals; the matrix parts call ``basis`` so that theirs is freed."""
        if k not in self._kept:
            self._kept[k] = self.basis(k)
        return self._kept[k]

    def physical(self, m: int, k: int, U: np.ndarray) -> np.ndarray:
        """eta^{-1} of basis tilde values (nel, nloc, nq, ncomp), keeping the
        component axis."""
        rho = self.rho[:, None, :]
        if k in (1, 2):
            return eta_inverse(m, k, rho, U)
        return eta_inverse(m, k, rho, U[..., 0])[..., None]

    def at_points(self, fn, *args) -> np.ndarray:
        """fn(*args, rho, z), with the edge normals as a last argument on an
        edge, called once on all points; the result gets the table's
        (nel, nq) leading shape."""
        pts = (self.rho.ravel(), self.z.ravel())
        if self.normal is not None:
            pts += (self.normal.reshape(-1, 2),)
        out = np.asarray(fn(*args, *pts), dtype=float)
        return out.reshape(self.rho.shape + out.shape[1:])


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

# components of eta^{-1} tilde that carry the factor 1/m, per form degree
_INV_M_COMPONENTS = {0: (0,), 1: (0, 1), 2: (2,), 3: ()}


def _mass_parts(tab: _QuadTable, k: int, weight):
    """(X, Y) with the weighted Z^k mass M_k(m) = X + Y / m**2: the
    integrals over the eta^{-1} components free of 1/m and over those that
    carry it, both tabulated at m = 1."""
    idx, U = tab.basis(k)
    P = tab.physical(1, k, U)
    if callable(weight):
        wq = tab.dx * tab.at_points(weight)
    else:
        wq = tab.dx * float(weight)
    local = np.einsum("eaqc,ebqc->ceab", P, P * wq[:, None, :, None],
                      optimize=True)
    inv_m = np.isin(np.arange(P.shape[-1]), _INV_M_COMPONENTS[k])
    nloc, dim = idx.shape[1], tab.complex.dim(k)
    ij = (np.repeat(idx, nloc, axis=1).ravel(), np.tile(idx, (1, nloc)).ravel())
    return tuple(sp.csr_matrix((local[comps].sum(axis=0).ravel(), ij),
                               shape=(dim, dim)) for comps in (~inv_m, inv_m))


def _curlcurl_parts(tab: _QuadTable, weight):
    """(X, Y) with the symmetrized C^T M2(weight) C = X + Y / m**2."""
    C = tab.complex.C
    AA = [(C.T @ M2 @ C).tocsr() for M2 in _mass_parts(tab, 2, weight)]
    return tuple(0.5 * (A + A.T) for A in AA)


def _at_mode(parts, m: int) -> sp.csr_matrix:
    """X + Y / m**2 for mode m."""
    if m == 0:
        raise DeRhamError("mode m must be nonzero")
    X, Y = parts
    return (X + Y / m**2).tocsr()


def assemble_mass(complex_: DeRhamComplex2D, geometry: NurbsGeometry, m: int,
                  k: int = 1, weight=1.0) -> sp.csr_matrix:
    """Weighted L2_rho mass matrix on Z^k_h for mode m.

    Entries are integrals weight * (eta^{-1} tilde_j) . (eta^{-1} tilde_i)
    rho drho dz; ``weight`` is a constant or a callable of (rho, z).
    """
    tab = _QuadTable(complex_, geometry)
    return _at_mode(_mass_parts(tab, k, weight), m)


def assemble_curlcurl(complex_: DeRhamComplex2D, geometry: NurbsGeometry,
                      m: int, weight) -> sp.csr_matrix:
    """Curl-curl stiffness A_m = C^T M2(weight) C on Z^1_h, with ``weight``
    (1/mu) as in :func:`assemble_mass`.

    The curl is applied exactly through the coefficient matrix C; only the
    weighted Z^2 mass is integrated.
    """
    tab = _QuadTable(complex_, geometry)
    return _at_mode(_curlcurl_parts(tab, weight), m)


# ---------------------------------------------------------------------------
# load assembly and error norms
# ---------------------------------------------------------------------------

def _load_vector(tab: _QuadTable, m: int, values: np.ndarray) -> np.ndarray:
    """Integrals of values (nel, nq, 3) against eta_1^{-1} of every Z^1
    basis function, with the table's measure."""
    idx, U = tab.shared_basis(1)
    P = tab.physical(m, 1, U)
    fe = np.einsum("eaqc,eqc,eq->ea", P, values, tab.dx)
    return np.bincount(idx.ravel(), weights=fe.ravel(),
                       minlength=tab.complex.dim(1))


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
        f += _load_vector(forms.table, m, forms.table.at_points(source, m))
    if neumann is not None:
        for tab in forms.edge_tables:
            f += _load_vector(tab, m, tab.at_points(neumann, m))
    return f


def l2_rho_error(forms: MeshForms, m: int, k: int, coeffs: np.ndarray,
                 reference) -> float:
    """Weighted L2_rho norm of eta^{-1} u_h - reference for a Z^k field, on
    the interior quadrature table of ``forms``.

    ``coeffs`` are the Z^k coefficients of u_h; reference(m, rho, z) returns
    the physical cylindrical components, of shape (npts, 3) for k in {1, 2}
    and (npts,) otherwise.
    """
    tab = forms.table
    idx, U = tab.shared_basis(k)
    phys = np.einsum("eaqc,ea->eqc", tab.physical(m, k, U),
                     np.asarray(coeffs, dtype=float)[idx])
    ref = tab.at_points(reference, m).reshape(phys.shape)
    return float(np.sqrt(np.sum(np.sum((phys - ref) ** 2, axis=-1) * tab.dx)))


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


def _restrict(matrix, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """The submatrix of the given rows and columns."""
    return matrix.tocsr()[rows][:, cols].tocsr()


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
    B: sp.csr_matrix            # M(eps) G: free Z0 -> free Z1
    G: sp.csr_matrix            # gradient, free Z0 -> free Z1: the kernel of A
    f: np.ndarray               # load on free Z1
    free_z1: np.ndarray
    free_z0: np.ndarray

    def reduced(self):
        """(A, M, B, f), the system the solvers take."""
        return self.A, self.M, self.B, self.f

    def expand_z1(self, u_red: np.ndarray) -> np.ndarray:
        u = np.zeros(self.complex.dim(1))
        u[self.free_z1] = u_red
        return u


class MeshForms:
    """One mesh's quadrature, boundary conditions and the mode-independent
    parts of its Galerkin matrices.

    The constructor does the work: the quadrature table of all elements and
    one per neumann edge, on which every mode's load and error norms run;
    the free Z^1/Z^0 DoFs, those not fixed on a dirichlet edge; and, on
    them, the eps-weighted Z^1 mass and the symmetrized 1/mu curl-curl
    C^T M2 C, each split as X + Y / m**2, and the gradient G.
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
        self.mass = [_restrict(P, r, r)
                     for P in _mass_parts(tab, 1, materials.eps)]
        self.curlcurl = [_restrict(P, r, r)
                         for P in _curlcurl_parts(tab, 1.0 / materials.mu)]
        self.G = _restrict(complex_.G, r, self.free_z0)


def build_mode_system(forms: MeshForms, m: int, source=None,
                      neumann=None) -> ModeSystem:
    """A_m, M_m, B_m = M_m G and the load of mode m on the free DoFs.

    The matrices are axpys of the parts in ``forms``; only the load
    (``assemble_load``, on the tables of ``forms``) is integrated per mode.
    """
    M = _at_mode(forms.mass, m)
    f = assemble_load(forms, m, source=source, neumann=neumann)
    return ModeSystem(
        m=m, complex=forms.complex,
        A=_at_mode(forms.curlcurl, m), M=M, B=(M @ forms.G).tocsr(),
        G=forms.G, f=f[forms.free_z1],
        free_z1=forms.free_z1, free_z0=forms.free_z0,
    )
