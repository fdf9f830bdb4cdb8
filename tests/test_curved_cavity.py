"""The eigen path on a curved cavity with an analytic spectrum.

The hemispherical shell a < r < b, z > 0, with PEC on both spheres and on
the plane z = 0, has a quarter annulus as its cross-section: a curved
NURBS map with a non-constant Jacobian whose west edge lies on the axis.
With eps = mu = 1 its eigenvalues are k**2.  For mode m and
l >= max(|m|, 1), the PEC plane keeps TE_l when l + m is even, with
j_l(ka) y_l(kb) - j_l(kb) y_l(ka) = 0, and TM_l when l + m is odd, with
the same cross product of (x j_l(x))' and (x y_l(x))'.
"""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import spherical_jn, spherical_yn

from axisiga.assembly import MaterialConstants, MeshForms, build_mode_system
from axisiga.derham import DeRhamComplex2D
from axisiga.geometry import NurbsGeometry
from axisiga.solve import convergence_rate, solve_generalized_eig
from axisiga.splines import (KnotVector, NurbsBasis, SplineSpace1D,
                             TensorSplineSpace)

INNER, OUTER = 1.0, 2.0
MODE = 1
COUNT = 10
SUBDIVISIONS = (8, 16, 32)


def _shell_section() -> NurbsGeometry:
    """Direction 1 is the degree-2 arc (weights 1, sqrt(2)/2, 1) from the
    z-axis (west, the axis) to the rho-axis (east); direction 2 is radial
    and of degree 1, from the inner sphere (south) to the outer (north)."""
    space = TensorSplineSpace(SplineSpace1D(KnotVector.uniform(2, 1)),
                              SplineSpace1D(KnotVector.uniform(1, 1)))
    weights = np.ones(space.shape)
    weights[1] = np.sqrt(2.0) / 2.0
    arc = np.array([(0.0, 1.0), (1.0, 1.0), (1.0, 0.0)])
    control = arc[:, None, :] * np.array([INNER, OUTER])[None, :, None]
    return NurbsGeometry(NurbsBasis(space, weights), control, {
        "west": "axis", "east": "dirichlet",
        "south": "dirichlet", "north": "dirichlet"})


def _shell_spectrum(m: int, count: int, k_max: float = 8.0) -> list:
    """The ``count`` lowest (k, kind, l, q) of mode m, q the radial root
    index, from brentq on the sign changes of a scan up to ``k_max``."""
    def cross(f, g):
        return lambda k: (f(k * INNER) * g(k * OUTER)
                          - f(k * OUTER) * g(k * INNER))

    ks = np.linspace(0.1, k_max, 4000)
    modes = []
    for l in range(max(abs(m), 1), 30):
        if (l + m) % 2 == 0:
            kind, fun = "TE", cross(lambda x: spherical_jn(l, x),
                                    lambda x: spherical_yn(l, x))
        else:
            d = lambda f: lambda x: f(l, x) + x * f(l, x, derivative=True)
            kind, fun = "TM", cross(d(spherical_jn), d(spherical_yn))
        vals = fun(ks)
        changes = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        for q, i in enumerate(changes, start=1):
            modes.append((brentq(fun, ks[i], ks[i + 1], xtol=1e-14),
                          kind, l, q))
    modes.sort()
    assert len(modes) >= count, "widen the scan"
    return modes[:count]


def test_spectrum_oracle_lowest_roots():
    got = [(round(k, 6), kind, l, q)
           for k, kind, l, q in _shell_spectrum(MODE, 4)]
    assert got == [(1.692938, "TM", 2, 1), (2.954045, "TM", 4, 1),
                   (3.286007, "TE", 1, 1), (3.630130, "TM", 2, 2)]


@pytest.fixture(scope="module")
def spectrum():
    return _shell_spectrum(MODE, COUNT)


def _relative_errors(p: int, sub: int, k_ref: np.ndarray) -> np.ndarray:
    s = lambda: SplineSpace1D(KnotVector.uniform(p, sub))
    forms = MeshForms(DeRhamComplex2D(s(), s()), _shell_section(),
                      MaterialConstants(1.0, 1.0))
    sys_ = build_mode_system(forms, MODE)
    A, M, _ = sys_.reduced()
    k = np.sqrt(solve_generalized_eig(A, M, len(k_ref), sys_.G).eigenvalues)
    return np.abs(k - k_ref) / k_ref


@pytest.mark.parametrize("p", [2, 3])
def test_curved_shell_converges_at_order_2p(p, spectrum):
    k_ref = np.array([mode[0] for mode in spectrum])
    errs = np.array([_relative_errors(p, sub, k_ref)
                     for sub in SUBDIVISIONS])
    # index by index: a spurious or a missing mode would shift the list by
    # at least the 4 % between neighbouring k
    assert errs.max() <= 1e-2
    if p == 3:
        assert errs[-1].max() <= 1e-7      # 4.3e-8 measured
    labels = [mode[1:] for mode in spectrum]
    # TM_2 (5.78 at p = 3) lies near the bound; TM_4 and TE_1 do not
    for label in (("TM", 4, 1), ("TE", 1, 1)):
        rate = convergence_rate([1.0 / sub for sub in SUBDIVISIONS],
                                errs[:, labels.index(label)])
        assert rate >= 2 * p - 0.3, (label, rate)
