"""Discrete de Rham complex on the parametric square and cylindrical mode spaces.

All discrete unknowns are coefficients in the Cartesian tensor-product factor
spaces ("tilde" variables); the gradient, curl and divergence of the
cylindrical mode complex become exact, mode-independent sparse coefficient
matrices G, C, D.  The Fourier mode m enters only through the eta maps that
convert tilde values to physical cylindrical components and through the
weighted measures of the weak forms.

In tilde variables the operators read

    G  u            = (d/drho u,  d/dz u,  -u)
    C (v1, v2, v3)  = (-v2 - d/dz v3,  v1 + d/drho v3,  d/dz v1 - d/drho v2)
    D (w1, w2, w3)  = d/drho w1 + d/dz w2 - w3

and satisfy C G = 0, D C = 0 identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import push_forward_values
from .splines import SplineSpace1D, TensorSplineSpace, derivative_matrix


class DeRhamError(ValueError):
    pass


class DeRhamComplex2D:
    """The four Cartesian spaces X0, X1, X1*, X2 and their operator matrices.

    X0  = S^{p1,p2}
    X1  = S^{p1-1,p2} x S^{p1,p2-1}      (curl-conforming pair)
    X1* = S^{p1,p2-1} x S^{p1-1,p2}      (div-conforming pair, the swap of X1)
    X2  = S^{p1-1,p2-1}

    The mode spaces stack a scalar factor on top:
    Z1 ~ X1 x X0  (blocks [X1a; X1b; X0]), Z2 ~ X1* x X2.
    """

    def __init__(self, space1: SplineSpace1D, space2: SplineSpace1D):
        if space1.degree < 1 or space2.degree < 1:
            raise DeRhamError("complex construction needs degrees >= 1")
        self.s1, self.s2 = space1, space2
        self.s1r, self.D1 = derivative_matrix(space1)
        self.s2r, self.D2 = derivative_matrix(space2)

        self.X0 = TensorSplineSpace(space1, space2)
        self.X1a = TensorSplineSpace(self.s1r, space2)
        self.X1b = TensorSplineSpace(space1, self.s2r)
        self.X1sa, self.X1sb = self.X1b, self.X1a
        self.X2 = TensorSplineSpace(self.s1r, self.s2r)

        n1, n2 = space1.num_basis, space2.num_basis
        I1, I2 = sp.identity(n1), sp.identity(n2)
        I1r, I2r = sp.identity(n1 - 1), sp.identity(n2 - 1)

        self.D_rho = sp.kron(self.D1, I2, format="csr")   # X0 -> X1a
        self.D_z = sp.kron(I1, self.D2, format="csr")     # X0 -> X1b
        d_rho_b = sp.kron(self.D1, I2r, format="csr")     # X1b -> X2
        d_z_a = sp.kron(I1r, self.D2, format="csr")       # X1a -> X2

        # G: X0 -> [X1a; X1b; X0]
        self.G = sp.vstack([self.D_rho, self.D_z, -sp.identity(self.X0.dim)],
                           format="csr")

        # C: [X1a; X1b; X0] -> [X1sa; X1sb; X2], the table of the docstring
        self.C = sp.bmat([[None, -sp.identity(self.X1b.dim), -self.D_z],
                          [sp.identity(self.X1a.dim), None, self.D_rho],
                          [d_z_a, -d_rho_b, None]], format="csr")

        # D: [X1sa; X1sb; X2] -> X2
        self.D = sp.hstack([d_rho_b, d_z_a, -sp.identity(self.X2.dim)],
                           format="csr")

    @property
    def degrees(self) -> tuple[int, int]:
        return (self.s1.degree, self.s2.degree)

    def space_factors(self, k: int) -> tuple[TensorSplineSpace, ...]:
        """The tensor factor spaces whose coefficient stack forms Z^k."""
        if k == 0:
            return (self.X0,)
        if k == 1:
            return (self.X1a, self.X1b, self.X0)
        if k == 2:
            return (self.X1sa, self.X1sb, self.X2)
        if k == 3:
            return (self.X2,)
        raise DeRhamError(f"form degree {k} outside 0..3")

    def dim(self, k: int) -> int:
        return sum(s.dim for s in self.space_factors(k))

    def block_slices(self, k: int) -> list[slice]:
        """Coefficient slices of the stacked factors of Z^k."""
        dims = [s.dim for s in self.space_factors(k)]
        offs = np.concatenate([[0], np.cumsum(dims)])
        return [slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:])]


def exactness_report(complex_: DeRhamComplex2D, m: int = 1) -> dict:
    """Norms and dense ranks certifying exactness of 0 -> Z0 -> Z1 -> Z2 -> Z3 -> 0.

    Checks dim ker G = 0, dim ker C = rank G, dim ker D = rank C and
    rank D = dim X2.  The mode m only labels the report; the matrices are
    mode-independent.
    """
    if m == 0:
        raise DeRhamError("mode m must be nonzero")
    total = complex_.dim(0) + complex_.dim(1) + complex_.dim(2) + complex_.dim(3)
    if total > 4000:
        raise DeRhamError(f"total dimension {total} exceeds dense-rank cap 4000")
    G, C, D = complex_.G, complex_.C, complex_.D
    CG = (C @ G).toarray()
    DC = (D @ C).toarray()
    rank_G = np.linalg.matrix_rank(G.toarray())
    rank_C = np.linalg.matrix_rank(C.toarray())
    rank_D = np.linalg.matrix_rank(D.toarray())
    dim1, dim2 = complex_.dim(1), complex_.dim(2)
    report = {
        "m": m,
        "norm_CG": float(np.abs(CG).max()) if CG.size else 0.0,
        "norm_DC": float(np.abs(DC).max()) if DC.size else 0.0,
        "rank_G": int(rank_G),
        "rank_C": int(rank_C),
        "rank_D": int(rank_D),
        "dim_ker_G": complex_.dim(0) - int(rank_G),
        "dim_ker_C": dim1 - int(rank_C),
        "dim_ker_D": dim2 - int(rank_D),
        "dim_Z0": complex_.dim(0),
        "dim_Z1": dim1,
        "dim_Z2": dim2,
        "dim_Z3": complex_.dim(3),
    }
    report["exact"] = (
        report["dim_ker_G"] == 0
        and report["dim_ker_C"] == report["rank_G"]
        and report["dim_ker_D"] == report["rank_C"]
        and report["rank_D"] == report["dim_Z3"]
    )
    return report


# -- eta maps ---------------------------------------------------------------

def eta_inverse(m: int, k: int, rho: np.ndarray, tilde: np.ndarray) -> np.ndarray:
    """Physical cylindrical components (u_rho, u_z, u_theta) from tilde values.

    No division by rho occurs, so the result is finite on the axis.
    tilde has shape (npts,) for k in {0, 3} and (npts, 3) for k in {1, 2}.
    """
    if m == 0:
        raise DeRhamError("mode m must be nonzero")
    rho = np.asarray(rho, dtype=float)
    tilde = np.asarray(tilde, dtype=float)
    if k == 0:
        return rho / m * tilde
    if k == 1:
        v1, v2, v3 = tilde[..., 0], tilde[..., 1], tilde[..., 2]
        return np.stack([(rho * v1 - v3) / m, rho * v2 / m, v3], axis=-1)
    if k == 2:
        w1, w2, w3 = tilde[..., 0], tilde[..., 1], tilde[..., 2]
        return np.stack([w1, w2, (rho * w3 + w1) / m], axis=-1)
    if k == 3:
        return tilde
    raise DeRhamError(f"form degree {k} outside 0..3")


def eta_forward(m: int, k: int, rho: np.ndarray, phys: np.ndarray) -> np.ndarray:
    """Tilde values from physical cylindrical components; requires rho > 0."""
    if m == 0:
        raise DeRhamError("mode m must be nonzero")
    rho = np.asarray(rho, dtype=float)
    phys = np.asarray(phys, dtype=float)
    if np.any(rho <= 0.0) and k != 3:
        raise DeRhamError("eta_forward needs rho > 0 (use tilde variables on the axis)")
    if k == 0:
        return m / rho * phys
    if k == 1:
        ur, uz, ut = phys[..., 0], phys[..., 1], phys[..., 2]
        return np.stack([(m * ur + ut) / rho, m * uz / rho, ut], axis=-1)
    if k == 2:
        ur, uz, ut = phys[..., 0], phys[..., 1], phys[..., 2]
        return np.stack([ur, uz, (m * ut - ur) / rho], axis=-1)
    if k == 3:
        return phys
    raise DeRhamError(f"form degree {k} outside 0..3")


# -- mode spaces and field evaluation --------------------------------------

@dataclass(frozen=True)
class FieldEvaluation:
    """Values of a discrete mode field at a set of points."""

    points: np.ndarray        # (npts, 2) parametric
    rho: np.ndarray           # (npts,) physical rho
    tilde: np.ndarray         # (npts,) or (npts, 3)
    physical: np.ndarray      # cylindrical components via eta^{-1}


class ModeSpace:
    """Discrete cylindrical space Z_h^{m,k} for one nonzero Fourier mode.

    The sign of m selects the symmetric (m > 0) or antisymmetric (m < 0)
    trigonometric pairing; the coefficient spaces and operator matrices are
    identical for both signs.
    """

    def __init__(self, complex_: DeRhamComplex2D, m: int):
        if m == 0:
            raise DeRhamError("mode m must be nonzero")
        self.complex = complex_
        self.m = m

    def eval_field(self, k: int, coeffs: np.ndarray, pts: np.ndarray,
                   geometry=None) -> FieldEvaluation:
        """Tilde and physical cylindrical values of a Z^k field at parametric
        points.

        With a geometry, the tilde values are push-forwards of the parametric
        spline fields (see :func:`tilde_push_forward`) and rho is physical.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.complex.dim(k),):
            raise DeRhamError(f"a Z^{k} field takes {self.complex.dim(k)} "
                              f"coefficients, not {coeffs.shape}")
        tilde = np.stack(
            [f.eval_field(coeffs[s], pts) for f, s in
             zip(self.complex.space_factors(k), self.complex.block_slices(k))],
            axis=-1,
        )
        rho = pts[:, 0]
        if geometry is not None:
            rho, _, J, det = geometry.evaluate(pts)
            tilde = tilde_push_forward(k, J, det, tilde)
        tilde = tilde[..., 0] if k in (0, 3) else tilde
        return FieldEvaluation(points=pts, rho=rho, tilde=tilde,
                               physical=eta_inverse(self.m, k, rho, tilde))


def tilde_push_forward(k: int, J: np.ndarray, det: np.ndarray,
                       tilde: np.ndarray) -> np.ndarray:
    """Tilde values of a Z^k field on the cross-section from its parametric
    tilde values, given J_F (..., 2, 2) and det J_F (...) at the points.

    tilde has shape (..., ncomp), one component per stacked factor of Z^k.
    The k=1 pair is covariant, the k=2 pair Piola; the k=1 third component
    is a scalar and the k=2 third component and k=3 are densities.
    """
    if k == 0:
        return tilde
    if k == 3:
        return push_forward_values("2", J, det, tilde[..., 0])[..., None]
    pair = push_forward_values("1" if k == 1 else "1*", J, det, tilde[..., :2])
    third = push_forward_values("0" if k == 1 else "2", J, det, tilde[..., 2])
    return np.concatenate([pair, third[..., None]], axis=-1)
