"""NURBS parametrization of the meridian cross-section and de Rham pullbacks.

The cross-section S in the (rho, z) half-plane is the image of the unit
square under a single-patch NURBS map F.  If an edge of the square maps onto
the symmetry axis {rho = 0} it must be the west edge, F({0} x [0,1]).

The four pullbacks relating physical fields on S to parametric fields on the
square are

    iota0(v) = v o F                      (scalars, 0-forms)
    iota1(v) = J^T (v o F)                (covariant / curl-conforming)
    iota1s(v) = det(J) J^{-1} (v o F)     (contravariant / div-conforming)
    iota2(v) = det(J) (v o F)             (densities, 2-forms)

with J = J_F the 2x2 Jacobian; push-forwards are their inverses.
"""

from __future__ import annotations

import numpy as np

from .splines import KnotVector, NurbsBasis, SplineSpace1D, TensorSplineSpace

EDGES = ("west", "east", "south", "north")
EDGE_LABELS = ("axis", "dirichlet", "neumann")
_SAMPLES = 7   # parametric samples per direction of the construction checks


class GeometryError(ValueError):
    pass


class NurbsGeometry:
    """Single-patch NURBS map F: [0,1]^2 -> S subset {rho >= 0}.

    Parameters
    ----------
    basis : NurbsBasis
        Rational tensor-product basis.
    control : array, shape (n1, n2, 2)
        Control points (rho, z).
    edge_labels : dict
        Maps each of 'west', 'east', 'south', 'north' to one of
        'axis', 'dirichlet', 'neumann'.  An axis label is only legal on
        the west edge.
    """

    def __init__(self, basis: NurbsBasis, control: np.ndarray, edge_labels: dict):
        control = np.asarray(control, dtype=float)
        if control.shape != basis.space.shape + (2,):
            raise GeometryError("control grid must have shape (n1, n2, 2)")
        missing = [e for e in EDGES if e not in edge_labels]
        if missing:
            raise GeometryError(f"untagged edges: {missing}")
        for e in EDGES:
            if edge_labels[e] not in EDGE_LABELS:
                raise GeometryError(f"unknown label {edge_labels[e]!r} on edge {e}")
        axis_edges = [e for e in EDGES if edge_labels[e] == "axis"]
        if axis_edges and axis_edges != ["west"]:
            raise GeometryError("the axis edge must be the west edge, F({0} x [0,1])")
        self.basis = basis
        self.control = control
        self.edge_labels = dict(edge_labels)
        self._validate()

    # -- construction checks ------------------------------------------------

    def _validate(self):
        xs = np.linspace(0.02, 0.98, _SAMPLES)
        grid = np.array([(u, v) for u in xs for v in xs])
        rho, _, _, det = self.evaluate(grid)
        bad = np.flatnonzero(det < 1e-10)
        if bad.size:
            u, v = grid[bad[0]]
            raise GeometryError(
                f"degenerate Jacobian det {det[bad[0]]:.3e} at ({u:.2f}, {v:.2f})")
        bad = np.flatnonzero(rho < -1e-12)
        if bad.size:
            u, v = grid[bad[0]]
            raise GeometryError(f"negative rho at ({u:.2f}, {v:.2f})")
        if self.edge_labels["west"] == "axis":
            axis = np.column_stack([np.zeros(_SAMPLES),
                                    np.linspace(0.0, 1.0, _SAMPLES)])
            if np.any(np.abs(self.evaluate(axis)[0]) > 1e-12):
                raise GeometryError("declared axis edge does not lie on rho = 0")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, pts):
        """F = (rho, z), J_F and det J_F at paired parametric points, in one pass.

        pts has shape (npts, 2).  Returns (rho (npts,), z (npts,),
        J (npts, 2, 2), det (npts,)); column j of J is dF/dxi_j.
        """
        f1, f2, N, dN1, dN2 = self.basis.eval_points(pts)
        block = self.basis.space.local_block(self.control, f1, f2)
        X = np.einsum("qij,qijc->qc", N, block)
        J = np.stack([np.einsum("qij,qijc->qc", dN1, block),
                      np.einsum("qij,qijc->qc", dN2, block)], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        return X[:, 0], X[:, 1], J, det

    def map_point(self, xi1: float, xi2: float) -> np.ndarray:
        """Physical point F(xi) = (rho, z)."""
        rho, z, _, _ = self.evaluate([(xi1, xi2)])
        return np.array([rho[0], z[0]])

    def jacobian(self, xi1: float, xi2: float) -> tuple[np.ndarray, float]:
        """Jacobian J_F(xi) and its determinant."""
        _, _, J, det = self.evaluate([(xi1, xi2)])
        return J[0], float(det[0])

    @property
    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.basis.space.s1.breakpoints, self.basis.space.s2.breakpoints)


# -- pullbacks / push-forwards ----------------------------------------------

_FORM_KINDS = ("0", "1", "1*", "2")


def _inverse_transpose(J: np.ndarray, det: np.ndarray) -> np.ndarray:
    """J^{-T} of a stack of 2x2 matrices (..., 2, 2)."""
    adj_t = np.stack([np.stack([J[..., 1, 1], -J[..., 1, 0]], axis=-1),
                      np.stack([-J[..., 0, 1], J[..., 0, 0]], axis=-1)], axis=-2)
    return adj_t / np.asarray(det)[..., None, None]


def _apply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", A, v)


def pullback_values(k: str, J, det, value):
    """Pull physical field values back to the parametric square, given J_F
    (..., 2, 2) and det J_F (...) at the points.  ``value`` has shape
    (..., 2) for the vector kinds '1' and '1*' and (...) otherwise."""
    if k not in _FORM_KINDS:
        raise GeometryError(f"unknown form kind {k!r}")
    J, det, value = np.asarray(J), np.asarray(det), np.asarray(value)
    if k == "0":
        return value
    if k == "1":
        return _apply(np.swapaxes(J, -1, -2), value)
    if k == "1*":
        J_inv = np.swapaxes(_inverse_transpose(J, det), -1, -2)
        return det[..., None] * _apply(J_inv, value)
    return det * value


def push_forward_values(k: str, J, det, value):
    """Inverse of :func:`pullback_values` for the same form kind."""
    if k not in _FORM_KINDS:
        raise GeometryError(f"unknown form kind {k!r}")
    J, det, value = np.asarray(J), np.asarray(det), np.asarray(value)
    if k == "0":
        return value
    if k == "1":
        return _apply(_inverse_transpose(J, det), value)
    if k == "1*":
        return _apply(J / det[..., None, None], value)
    return value / det


def pullback(k: str, geometry: NurbsGeometry, xi, value):
    """Pull a physical field value at F(xi) back to the parametric square."""
    J, det = geometry.jacobian(*xi)
    return pullback_values(k, J, det, value)


def push_forward(k: str, geometry: NurbsGeometry, xi, value):
    """Inverse of :func:`pullback` for the same form kind."""
    J, det = geometry.jacobian(*xi)
    return push_forward_values(k, J, det, value)


# -- built-in geometries ----------------------------------------------------

def _bilinear_basis():
    kv = KnotVector.uniform(1, 1)
    space = TensorSplineSpace(SplineSpace1D(kv), SplineSpace1D(kv))
    return NurbsBasis(space, np.ones(space.shape))


def rectangle(rho_min: float, rho_max: float, z_min: float, z_max: float,
              edge_labels: dict | None = None) -> NurbsGeometry:
    """Axis-aligned rectangle [rho_min, rho_max] x [z_min, z_max].

    Default tagging: west edge is 'axis' when rho_min == 0 else 'neumann';
    the other edges 'neumann'.
    """
    if rho_min < 0 or rho_max <= rho_min or z_max <= z_min:
        raise GeometryError("invalid rectangle bounds")
    if edge_labels is None:
        edge_labels = {
            "west": "axis" if rho_min == 0.0 else "neumann",
            "east": "neumann", "south": "neumann", "north": "neumann",
        }
    control = np.zeros((2, 2, 2))
    for i, r in enumerate((rho_min, rho_max)):
        for j, z in enumerate((z_min, z_max)):
            control[i, j] = (r, z)
    return NurbsGeometry(_bilinear_basis(), control, edge_labels)


def pillbox_section(radius: float, length: float) -> NurbsGeometry:
    """Meridian rectangle [0, R] x [0, L] of a pillbox cavity, PEC on Gamma."""
    return rectangle(0.0, radius, 0.0, length, edge_labels={
        "west": "axis", "east": "dirichlet",
        "south": "dirichlet", "north": "dirichlet",
    })


def quarter_annulus(r_inner: float, r_outer: float,
                    edge_labels: dict | None = None) -> NurbsGeometry:
    """Exact quarter annulus in the first quadrant of the (rho, z) plane.

    Direction 1 is radial (inner -> outer), direction 2 sweeps the arc from
    the rho-axis to the z-axis; a degree-2 NURBS with the classic conic
    weights (1, sqrt(2)/2, 1) represents the circular arcs exactly.
    """
    if not (0 < r_inner < r_outer):
        raise GeometryError("need 0 < r_inner < r_outer")
    kv1 = KnotVector.uniform(1, 1)
    kv2 = KnotVector.uniform(2, 1)
    space = TensorSplineSpace(SplineSpace1D(kv1), SplineSpace1D(kv2))
    weights = np.ones(space.shape)
    weights[:, 1] = np.sqrt(2.0) / 2.0
    basis = NurbsBasis(space, weights)
    control = np.zeros((2, 3, 2))
    for i, r in enumerate((r_inner, r_outer)):
        control[i, 0] = (r, 0.0)
        control[i, 1] = (r, r)
        control[i, 2] = (0.0, r)
    if edge_labels is None:
        edge_labels = {"west": "neumann", "east": "neumann",
                       "south": "neumann", "north": "neumann"}
    return NurbsGeometry(basis, control, edge_labels)


BUILTIN_GEOMETRIES = {
    "rectangle": lambda: rectangle(0.0, 1.0, 4.0, 5.0, edge_labels={
        "west": "axis", "east": "neumann",
        "south": "neumann", "north": "dirichlet"}),
    "pillbox-section": lambda: pillbox_section(0.035, 0.1),
    "quarter-annulus": lambda: quarter_annulus(1.0, 2.0),
}

