"""Manufactured vector-potential solution for the magnetostatic source study.

The exact potential on the rectangle cross-section [0, 1] x [4, 5] is, in
cylindrical components (A_rho, A_z, A_theta),

    A_rho   = cos(3 theta) (5 - z)^3 rho^(gamma+1) exp(-rho)
    A_z     = rho^2 (sin theta - 2 sin^3 theta) (5 - z)^gamma
    A_theta = sin(2 theta) (1 - cos(5 - z)) rho^(gamma+1)

With sin t - 2 sin^3 t = (sin 3t - sin t)/2 the azimuthal content reduces to
the modes |m| <= 3.  In the signed-mode convention (m > 0: meridian
components pair with cos(m theta), A_theta with sin(m theta); m < 0 swaps
sin and cos) the nonzero coefficient triples are

    m = +3: ((5-z)^3 rho^(gamma+1) e^(-rho), 0, 0)
    m = +2: (0, 0, (1 - cos(5-z)) rho^(gamma+1))
    m = -1: (0, -rho^2 (5-z)^gamma / 2, 0)
    m = -3: (0, +rho^2 (5-z)^gamma / 2, 0)

All components vanish at z = 5, making it the natural homogeneous Dirichlet
(PEC) edge.  The magnetic induction per mode is b = curl_m a, the driving
current density j = mu^{-1} curl_{-m} b, and the Neumann datum on the
remaining boundary is (mu^{-1} b) x n.  The closed-form derivations are done
symbolically and can be cross-validated against finite differences of the
3D field via :func:`validate_derivation`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import sympy as spy

from .assembly import VACUUM, MaterialConstants

_RHO, _Z = spy.symbols("rho z", positive=True)

#: signed modes carrying nonzero data
ACTIVE_MODES = (3, 2, -1, -3)


def curl_mode(a, m):
    """Symbolic cylindrical mode curl: coefficient triple of curl of a k=1
    field with coefficients ``a`` at signed mode m (output is k=2 type)."""
    a1, a2, a3 = a
    c1 = -(m / _RHO) * a2 - spy.diff(a3, _Z)
    c2 = (m / _RHO) * a1 + spy.diff(a3, _RHO) + a3 / _RHO
    c3 = spy.diff(a1, _Z) - spy.diff(a2, _RHO)
    return tuple(spy.simplify(spy.together(c)) for c in (c1, c2, c3))


def _lambdify_vec(exprs):
    fns = [spy.lambdify((_RHO, _Z), e, modules="numpy") for e in exprs]

    def call(rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        out = np.zeros(rho.shape + (3,))
        for c, fn in enumerate(fns):
            out[..., c] = np.broadcast_to(fn(rho, z), rho.shape)
        return out

    return call


@lru_cache(maxsize=16)
def _derive(gamma: float, materials: MaterialConstants):
    """Lambdified per-mode closed forms (a, b, j) for one (gamma, materials).

    The sympy derivation dominates construction, so it is done once per
    parameter set; the returned dicts are shared and must not be mutated.
    """
    g = spy.Rational(gamma) if gamma.is_integer() else spy.Float(gamma)
    f1 = (5 - _Z) ** 3 * _RHO ** (g + 1) * spy.exp(-_RHO)
    f2 = _RHO**2 * (5 - _Z) ** g
    f3 = (1 - spy.cos(5 - _Z)) * _RHO ** (g + 1)
    zero = spy.Integer(0)
    a_sym = {
        3: (f1, zero, zero),
        2: (zero, zero, f3),
        -1: (zero, -f2 / 2, zero),
        -3: (zero, f2 / 2, zero),
    }
    b_sym = {m: curl_mode(a, m) for m, a in a_sym.items()}
    mu_inv = 1.0 / materials.mu
    j_sym = {
        m: tuple(mu_inv * c for c in curl_mode(b, -m))
        for m, b in b_sym.items()
    }
    return tuple({m: _lambdify_vec(e) for m, e in table.items()}
                 for table in (a_sym, b_sym, j_sym))


class ManufacturedSolution:
    """Per-mode closed forms for A, B = curl A, J = mu^{-1} curl B and the
    Neumann boundary datum, on the rectangle [0, 1] x [4, 5]."""

    def __init__(self, gamma: float, materials: MaterialConstants = VACUUM):
        self.gamma = float(gamma)
        self.materials = materials
        self._a_fn, self._b_fn, self._j_fn = _derive(self.gamma, materials)

    def _eval(self, table, m, rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        if m in table:
            return table[m](rho, z)
        return np.zeros(rho.shape + (3,))

    def a(self, m, rho, z):
        """Vector-potential mode coefficients (a_rho, a_z, a_theta)."""
        return self._eval(self._a_fn, m, rho, z)

    def b(self, m, rho, z):
        """Magnetic-induction mode coefficients, b = curl_m a."""
        return self._eval(self._b_fn, m, rho, z)

    def current(self, m, rho, z):
        """Driving current density j = mu^{-1} curl_{-m} b.

        Matches the ``source`` callback signature of assemble_load.
        """
        return self._eval(self._j_fn, m, rho, z)

    def neumann(self, m, rho, z, normal):
        """Surface datum (mu^{-1} b) x n; ``normal`` = (n_rho, n_z) per point,
        of shape (..., 2) matching rho.

        Matches the ``neumann`` callback signature of assemble_load.
        """
        w = self.b(m, rho, z) / self.materials.mu
        normal = np.asarray(normal, dtype=float)
        n_r, n_z = normal[..., 0], normal[..., 1]
        g = np.zeros_like(w)
        g[..., 0] = w[..., 2] * n_z
        g[..., 1] = -w[..., 2] * n_r
        g[..., 2] = w[..., 1] * n_r - w[..., 0] * n_z
        return g

    # -- 3D reconstruction (for independent finite-difference validation) ---

    @staticmethod
    def _trig(m, k, theta):
        """Azimuthal factors (meridian pair, theta component) for a k-form.

        Within a parity branch the pairing alternates with the form degree;
        for vector potentials (k=1) the symmetric branch uses
        (cos, cos, sin) and for inductions (k=2) it uses (sin, sin, cos);
        m < 0 swaps sin and cos.
        """
        am = abs(m)
        c, s = np.cos(am * theta), np.sin(am * theta)
        sym = m > 0
        if k == 1:
            return (c, s) if sym else (s, c)
        if k == 2:
            return (s, c) if sym else (c, s)
        raise ValueError("only k = 1, 2 supported")

    def field_3d(self, which, rho, z, theta):
        """Full 3D cylindrical components of A ('a'), B ('b') or J ('j')."""
        coeff_fn = {"a": self.a, "b": self.b, "j": self.current}[which]
        k = 1 if which in ("a", "j") else 2
        out = np.zeros(np.shape(rho) + (3,)) if np.ndim(rho) else np.zeros(3)
        for m in ACTIVE_MODES:
            coeff = coeff_fn(m, rho, z)
            mer, tht = self._trig(m, k, theta)
            out[..., 0] += coeff[..., 0] * mer
            out[..., 1] += coeff[..., 1] * mer
            out[..., 2] += coeff[..., 2] * tht
        return out


def validate_derivation(gamma: float, npts: int = 100, seed: int = 0,
                        materials: MaterialConstants = VACUUM) -> float:
    """Max relative error of the symbolic B = curl A against central finite
    differences of the reconstructed 3D field at random interior points.

    The source study refuses to run if this exceeds 1e-6.
    """
    ms = ManufacturedSolution(gamma, materials)
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.2, 0.9, npts)
    z = rng.uniform(4.1, 4.9, npts)
    theta = rng.uniform(0.0, 2 * np.pi, npts)
    h = 1e-6
    worst = 0.0
    for r0, z0, t0 in zip(rho, z, theta):
        def A(r, zz, t):
            return ms.field_3d("a", r, zz, t)

        dA_dr = (A(r0 + h, z0, t0) - A(r0 - h, z0, t0)) / (2 * h)
        dA_dz = (A(r0, z0 + h, t0) - A(r0, z0 - h, t0)) / (2 * h)
        dA_dt = (A(r0, z0, t0 + h) - A(r0, z0, t0 - h)) / (2 * h)
        Ar, Az, At = A(r0, z0, t0)
        curl = np.array([
            dA_dt[1] / r0 - dA_dz[2],
            (At + r0 * dA_dr[2] - dA_dt[0]) / r0,
            dA_dz[0] - dA_dr[1],
        ])
        ref = ms.field_3d("b", r0, z0, t0)
        scale = max(np.linalg.norm(ref), 1e-12)
        worst = max(worst, np.linalg.norm(curl - ref) / scale)
    return worst
