"""Univariate and tensor-product B-spline / NURBS basis machinery.

Knot vectors are open (first and last knot repeated ``p+1`` times) on the
parametric interval [0, 1].  Evaluation uses the Cox-DeBoor recursion with
the 0/0 = 0 convention; the right endpoint x = 1 is evaluated by left limit
so the last basis function equals 1 there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class SplineError(ValueError):
    """Invalid knot vector, degree, or evaluation request."""


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector described by breakpoints and multiplicities.

    Parameters
    ----------
    degree : int
        Polynomial degree p >= 0.
    breakpoints : array
        Strictly increasing, spanning [0, 1].
    multiplicities : array of int
        One entry per breakpoint.  End multiplicities must equal p+1;
        interior multiplicities satisfy 1 <= r_i <= p+1 (r_i = p+1 gives a
        discontinuous basis, regularity -1, which is legal for L2-type
        factor spaces).
    """

    degree: int
    breakpoints: np.ndarray
    multiplicities: np.ndarray
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.degree
        zeta = np.ascontiguousarray(np.asarray(self.breakpoints, dtype=float))
        mult = np.ascontiguousarray(np.asarray(self.multiplicities, dtype=int))
        if p < 0:
            raise SplineError("degree must be non-negative")
        if zeta.ndim != 1 or zeta.size < 2:
            raise SplineError("need at least two breakpoints")
        if not np.all(np.diff(zeta) > 0.0):
            raise SplineError("breakpoints must be strictly increasing")
        if abs(zeta[0]) > 0 or abs(zeta[-1] - 1.0) > 0:
            raise SplineError("breakpoints must span [0, 1]")
        if mult.shape != zeta.shape:
            raise SplineError("one multiplicity per breakpoint required")
        if mult[0] != p + 1 or mult[-1] != p + 1:
            raise SplineError("end multiplicities must equal degree + 1")
        if np.any(mult[1:-1] < 1) or np.any(mult[1:-1] > p + 1):
            raise SplineError("interior multiplicities must lie in [1, degree+1]")
        object.__setattr__(self, "breakpoints", zeta)
        object.__setattr__(self, "multiplicities", mult)
        object.__setattr__(self, "knots", np.repeat(zeta, mult))

    @classmethod
    def uniform(cls, degree: int, num_elements: int) -> "KnotVector":
        """Maximally smooth knot vector with ``num_elements`` equal elements."""
        if num_elements < 1:
            raise SplineError("need at least one element")
        zeta = np.linspace(0.0, 1.0, num_elements + 1)
        mult = np.full(num_elements + 1, 1, dtype=int)
        mult[0] = mult[-1] = degree + 1
        return cls(degree, zeta, mult)

    @property
    def num_basis(self) -> int:
        """n = sum of multiplicities - (p+1)."""
        return int(self.multiplicities.sum()) - (self.degree + 1)

    @property
    def regularities(self) -> np.ndarray:
        """Per-breakpoint regularity alpha_i = p - r_i."""
        return self.degree - self.multiplicities


def _cox_de_boor(knots: np.ndarray, p: int, n: int, xs: np.ndarray):
    """First indices, values and first derivatives of the p+1 possibly-nonzero
    basis functions at every point of ``xs``, in one vectorized pass.

    The span of x is the index i with knots[i] <= x < knots[i+1], taken as the
    left limit at the right end.  The Cox-DeBoor triangle is run up to degree
    p-1, whose values give the derivatives, and then closed to degree p.
    Returns (firsts (npts,), vals (npts, p+1), ders (npts, p+1)).
    """
    span = np.clip(np.searchsorted(knots, xs, side="right") - 1, p, n - 1)
    npts = len(xs)
    vals = np.zeros((npts, p + 1))
    vals[:, 0] = 1.0
    ders = np.zeros((npts, p + 1))
    left = np.zeros((npts, p + 1))
    right = np.zeros((npts, p + 1))
    for j in range(1, p + 1):
        if j == p:
            low = vals[:, :p].copy()
        left[:, j] = xs - knots[span + 1 - j]
        right[:, j] = knots[span + j] - xs
        saved = np.zeros(npts)
        for r in range(j):
            denom = right[:, r + 1] + left[:, j - r]
            temp = np.divide(vals[:, r], denom, out=np.zeros(npts),
                             where=denom != 0.0)
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    if p > 0:
        # d/dx B_{i,p} = p (B_{i,p-1} / (k_{i+p} - k_i)
        #                   - B_{i+1,p-1} / (k_{i+p+1} - k_{i+1})),
        # with low[:, a] = B_{span-p+1+a, p-1}
        for a in range(p + 1):
            i = span - p + a
            if a >= 1:
                d = knots[i + p] - knots[i]
                ders[:, a] += np.divide(low[:, a - 1], d, out=np.zeros(npts),
                                        where=d > 0.0)
            if a < p:
                d = knots[i + p + 1] - knots[i + 1]
                ders[:, a] -= np.divide(low[:, a], d, out=np.zeros(npts),
                                        where=d > 0.0)
        ders *= p
    return span - p, vals, ders


class SplineSpace1D:
    """Span of the n B-splines generated by an open knot vector."""

    def __init__(self, knot_vector: KnotVector):
        self.kv = knot_vector
        self.degree = knot_vector.degree
        self.num_basis = knot_vector.num_basis
        self.knots = knot_vector.knots
        self.breakpoints = knot_vector.breakpoints

    @property
    def elements(self) -> np.ndarray:
        """Array of shape (num_elements, 2) with element bounds."""
        z = self.breakpoints
        return np.column_stack([z[:-1], z[1:]])

    def tabulate(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First indices, values and first derivatives of the p+1
        possibly-nonzero basis functions at every point of ``xs``.

        Returns (firsts (npts,), vals (npts, p+1), ders (npts, p+1)).
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        bad = ~((xs >= 0.0) & (xs <= 1.0))
        if np.any(bad):
            raise SplineError(f"evaluation point {xs[bad][0]} outside [0, 1]")
        return _cox_de_boor(self.knots, self.degree, self.num_basis, xs)

    def eval_basis(self, x: float) -> tuple[int, np.ndarray]:
        """Values of the p+1 possibly-nonzero basis functions at x.

        Returns the index of the first of them together with the values.
        """
        firsts, vals, _ = self.tabulate(x)
        return int(firsts[0]), vals[0]

    def eval_basis_deriv(self, x: float) -> tuple[int, np.ndarray]:
        """First derivatives of the p+1 local basis functions at x."""
        firsts, _, ders = self.tabulate(x)
        return int(firsts[0]), ders[0]

    def _local_indices(self, firsts: np.ndarray) -> np.ndarray:
        return firsts[:, None] + np.arange(self.degree + 1)

    def eval_field(self, coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Evaluate sum_i c_i B_i at the given points."""
        firsts, vals, _ = self.tabulate(xs)
        c = np.asarray(coeffs, dtype=float)[self._local_indices(firsts)]
        return np.einsum("qa,qa->q", vals, c)


def reduce_degree_regularity(space: SplineSpace1D) -> SplineSpace1D:
    """The derivative space: same breakpoints, degree p-1, regularity alpha-1.

    Interior multiplicities are kept, so every d/dx image of the input space
    is exactly representable in the output space.
    """
    kv = space.kv
    p = kv.degree
    if p < 1:
        raise SplineError("cannot reduce a degree-0 space")
    if np.any(kv.regularities[1:-1] < 0):
        raise SplineError("input space is discontinuous; derivative space undefined")
    mult = kv.multiplicities.copy()
    mult[0] = mult[-1] = p
    return SplineSpace1D(KnotVector(p - 1, kv.breakpoints, mult))


def derivative_matrix(space: SplineSpace1D) -> tuple[SplineSpace1D, sp.csr_matrix]:
    """Exact coefficient matrix of d/dx from S^p_a into S^{p-1}_{a-1}.

    Row j carries the classical bidiagonal stencil
    ``p * (c_{j+1} - c_j) / (xi_{j+p+1} - xi_{j+1})``.
    """
    reduced = reduce_degree_regularity(space)
    p = space.degree
    n = space.num_basis
    xi = space.knots
    d = xi[p + 1:n + p] - xi[1:n]
    c = np.divide(p, d, out=np.zeros(n - 1), where=d > 0.0)
    D = sp.csr_matrix((np.column_stack([-c, c]).ravel(),
                       np.add.outer(np.arange(n - 1), [0, 1]).ravel(),
                       2 * np.arange(n)), shape=(n - 1, n))
    if reduced.num_basis != n - 1:
        raise SplineError("inconsistent derivative-space dimension")
    return reduced, D


class TensorSplineSpace:
    """Tensor product of two univariate spaces on the parametric square.

    Coefficients are flattened C-style, direction 1 slowest:
    global index = i1 * n2 + i2.
    """

    def __init__(self, space1: SplineSpace1D, space2: SplineSpace1D):
        self.s1 = space1
        self.s2 = space2
        self.dim = space1.num_basis * space2.num_basis

    @property
    def shape(self) -> tuple[int, int]:
        return (self.s1.num_basis, self.s2.num_basis)

    def tabulate(self, pts) -> tuple:
        """1D tables of both directions at paired points pts (npts, 2).

        Returns (f1, v1, d1, f2, v2, d2) as in :meth:`SplineSpace1D.tabulate`.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.s1.tabulate(pts[:, 0]) + self.s2.tabulate(pts[:, 1])

    def local_block(self, array: np.ndarray, f1: np.ndarray, f2: np.ndarray):
        """Per-point (p1+1, p2+1) blocks of a coefficient-shaped array."""
        i1 = self.s1._local_indices(f1)[:, :, None]
        i2 = self.s2._local_indices(f2)[:, None, :]
        return array[i1, i2]

    def eval_field(self, coeffs: np.ndarray, pts: np.ndarray,
                   deriv: bool = False) -> np.ndarray:
        """Evaluate a 2D spline field (and optionally its gradient) at points.

        pts has shape (npts, 2).  Returns values of shape (npts,) or, with
        deriv=True, (npts, 3) holding (value, d/dxi1, d/dxi2).
        """
        f1, v1, d1, f2, v2, d2 = self.tabulate(pts)
        c = np.asarray(coeffs, dtype=float).reshape(self.shape)
        block = self.local_block(c, f1, f2)
        value = np.einsum("qa,qab,qb->q", v1, block, v2)
        if not deriv:
            return value
        return np.stack([value,
                         np.einsum("qa,qab,qb->q", d1, block, v2),
                         np.einsum("qa,qab,qb->q", v1, block, d2)], axis=-1)


class NurbsBasis:
    """Rational tensor-product basis with strictly positive weights."""

    def __init__(self, space: TensorSplineSpace, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != space.shape:
            raise SplineError("weight grid must match the tensor space shape")
        if np.any(weights <= 0.0):
            raise SplineError("weights must be strictly positive")
        self.space = space
        self.weights = weights

    def eval_points(self, pts):
        """Local rational basis values and first derivatives at paired points.

        pts has shape (npts, 2).  Returns (first1, first2, N, dN1, dN2) where
        first1/first2 have shape (npts,) and the arrays have shape
        (npts, p1+1, p2+1), covering the possibly-nonzero local functions.
        """
        f1, v1, d1, f2, v2, d2 = self.space.tabulate(pts)
        w = self.space.local_block(self.weights, f1, f2)
        B = np.einsum("qa,qb->qab", v1, v2)
        B1 = np.einsum("qa,qb->qab", d1, v2)
        B2 = np.einsum("qa,qb->qab", v1, d2)
        W = (w * B).sum(axis=(1, 2))[:, None, None]
        if np.any(W <= 0.0):
            raise SplineError("non-positive NURBS denominator")
        W1 = (w * B1).sum(axis=(1, 2))[:, None, None]
        W2 = (w * B2).sum(axis=(1, 2))[:, None, None]
        N = w * B / W
        dN1 = w * (B1 * W - B * W1) / W**2
        dN2 = w * (B2 * W - B * W2) / W**2
        return f1, f2, N, dN1, dN2
