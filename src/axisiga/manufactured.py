"""Manufactured vector-potential solution for the magnetostatic source study.

The exact potential on the rectangle cross-section [0, 1] x [4, 5] is, in
cylindrical components (A_rho, A_z, A_theta),

    A_rho   = cos(3 theta) (5 - z)^3 rho^(gamma+1) exp(-rho)
    A_z     = rho^2 (sin theta - 2 sin^3 theta) (5 - z)^gamma
    A_theta = sin(2 theta) (1 - cos(5 - z)) rho^(gamma+1)

With sin t - 2 sin^3 t = (sin 3t - sin t)/2 the azimuthal content reduces to
the modes |m| <= 3.  In the signed-mode convention (m > 0: meridian
components pair with cos(m theta), A_theta with sin(m theta); m < 0 swaps
sin and cos) the magnetic induction per mode is b = curl_m a, with

    curl_m a = (-(m/rho) a_z - d_z a_theta,
                (m/rho) a_rho + d_rho a_theta + a_theta/rho,
                d_z a_rho - d_rho a_z),

the driving current density is j = mu^{-1} curl_{-m} b, and the Neumann
datum on the remaining boundary is (mu^{-1} b) x n.  Written with
w = 5 - z and g = gamma, the nonzero coefficient triples are

    m = +3:  a    = (w^3 rho^(g+1) e^-rho, 0, 0)
             b    = (0, 3 w^3 rho^g e^-rho, -3 w^2 rho^(g+1) e^-rho)
             mu j = (w (9 w^2 - 6 rho^2) rho^(g-1) e^-rho,
                     -3 w^2 (g + 2 - rho) rho^g e^-rho,
                     -3 w^3 (g - rho) rho^(g-1) e^-rho)
    m = +2:  a    = (0, 0, (1 - cos w) rho^(g+1))
             b    = (sin w rho^(g+1), (g + 2)(1 - cos w) rho^g, 0)
             mu j = (2 (g + 2)(1 - cos w) rho^(g-1), -2 sin w rho^g,
                     -cos w rho^(g+1) - g (g + 2)(1 - cos w) rho^(g-1))
    m = -k:  a    = (0, s rho^2 w^g, 0)       k = 1: s = -1/2;  k = 3: s = +1/2
             b    = (k s rho w^g, 0, -2 s rho w^g)
             mu j = (-2 g s rho w^(g-1), (k^2 - 4) s w^g, -k g s rho w^(g-1))

All components of a vanish at z = 5, making it the natural homogeneous
Dirichlet (PEC) edge.  :func:`validate_derivation` checks b = curl a and
j = mu^{-1} curl b against finite differences of the 3D fields.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .assembly import VACUUM, MaterialConstants

#: signed modes carrying nonzero data
ACTIVE_MODES = (3, 2, -1, -3)


def _setup(m, rho, z):
    """(rho, w = 5 - z, zero coefficient triples, amplitude s of m = -1/-3)."""
    rho = np.asarray(rho, dtype=float)
    w = 5.0 - np.asarray(z, dtype=float)
    out = np.zeros(np.broadcast_shapes(rho.shape, w.shape) + (3,))
    return rho, w, out, (0.5 if m == -3 else -0.5)


class ManufacturedSolution:
    """Per-mode closed forms for A, B = curl A, J = mu^{-1} curl B and the
    Neumann boundary datum, on the rectangle [0, 1] x [4, 5]."""

    def __init__(self, gamma: float, materials: MaterialConstants = VACUUM):
        self.gamma = float(gamma)
        self.materials = materials

    def a(self, m, rho, z):
        """Vector-potential mode coefficients (a_rho, a_z, a_theta)."""
        rho, w, out, s = _setup(m, rho, z)
        g = self.gamma
        if m == 3:
            out[..., 0] = w**3 * rho ** (g + 1) * np.exp(-rho)
        elif m == 2:
            out[..., 2] = (1 - np.cos(w)) * rho ** (g + 1)
        elif m in (-1, -3):
            out[..., 1] = s * rho**2 * w**g
        return out

    def b(self, m, rho, z):
        """Magnetic-induction mode coefficients, b = curl_m a."""
        rho, w, out, s = _setup(m, rho, z)
        g = self.gamma
        if m == 3:
            e = rho**g * np.exp(-rho)
            out[..., 1] = 3 * w**3 * e
            out[..., 2] = -3 * w**2 * rho * e
        elif m == 2:
            out[..., 0] = np.sin(w) * rho ** (g + 1)
            out[..., 1] = (g + 2) * (1 - np.cos(w)) * rho**g
        elif m in (-1, -3):
            out[..., 0] = -m * s * rho * w**g
            out[..., 2] = -2 * s * rho * w**g
        return out

    def current(self, m, rho, z):
        """Driving current density j = mu^{-1} curl_{-m} b.

        Matches the ``source`` callback signature of assemble_load.
        """
        rho, w, out, s = _setup(m, rho, z)
        g = self.gamma
        if m == 3:
            e = rho ** (g - 1) * np.exp(-rho)
            out[..., 0] = w * (9 * w**2 - 6 * rho**2) * e
            out[..., 1] = -3 * w**2 * (g + 2 - rho) * rho * e
            out[..., 2] = -3 * w**3 * (g - rho) * e
        elif m == 2:
            c = (1 - np.cos(w)) * rho ** (g - 1)
            out[..., 0] = 2 * (g + 2) * c
            out[..., 1] = -2 * np.sin(w) * rho**g
            out[..., 2] = -np.cos(w) * rho ** (g + 1) - g * (g + 2) * c
        elif m in (-1, -3):
            out[..., 0] = -2 * g * s * rho * w ** (g - 1)
            out[..., 1] = (m * m - 4) * s * w**g
            out[..., 2] = m * g * s * rho * w ** (g - 1)
        return out / self.materials.mu

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
        out = np.zeros(np.shape(rho) + (3,))
        for m in ACTIVE_MODES:
            coeff = coeff_fn(m, rho, z)
            mer, tht = self._trig(m, k, theta)
            out[..., 0] += coeff[..., 0] * mer
            out[..., 1] += coeff[..., 1] * mer
            out[..., 2] += coeff[..., 2] * tht
        return out


def _fd_curl(field, r0, z0, t0, h=1e-6):
    """Cylindrical curl of ``field(rho, z, theta)`` -> (F_rho, F_z, F_theta)
    at the points (r0, z0, t0), by central differences of step h."""
    d_r = (field(r0 + h, z0, t0) - field(r0 - h, z0, t0)) / (2 * h)
    d_z = (field(r0, z0 + h, t0) - field(r0, z0 - h, t0)) / (2 * h)
    d_t = (field(r0, z0, t0 + h) - field(r0, z0, t0 - h)) / (2 * h)
    f_t = field(r0, z0, t0)[..., 2]
    return np.stack([d_t[..., 1] / r0 - d_z[..., 2],
                     (f_t + r0 * d_r[..., 2] - d_t[..., 0]) / r0,
                     d_z[..., 0] - d_r[..., 1]], axis=-1)


def validate_derivation(gamma: float, npts: int = 100, seed: int = 0,
                        materials: MaterialConstants = VACUUM) -> float:
    """Max relative error of the closed-form B = curl A and
    J = mu^{-1} curl B against central finite differences of the
    reconstructed 3D fields at random interior points; ``inf`` when any
    error is not finite.

    The source study refuses to run if this exceeds 1e-6.
    """
    ms = ManufacturedSolution(gamma, materials)
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.2, 0.9, npts)
    z = rng.uniform(4.1, 4.9, npts)
    theta = rng.uniform(0.0, 2 * np.pi, npts)
    worst = 0.0
    for src, dst, scale in (("a", "b", 1.0), ("b", "j", 1.0 / materials.mu)):
        curl = scale * _fd_curl(partial(ms.field_3d, src), rho, z, theta)
        ref = ms.field_3d(dst, rho, z, theta)
        err = np.linalg.norm(curl - ref, axis=-1) / np.maximum(
            np.linalg.norm(ref, axis=-1), 1e-12)
        if not np.all(np.isfinite(err)):
            return float("inf")
        worst = max(worst, err.max())
    return float(worst)
