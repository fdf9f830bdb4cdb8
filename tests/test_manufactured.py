import numpy as np
import pytest
import sympy as spy

from axisiga.assembly import VACUUM, MaterialConstants
from axisiga.manufactured import (
    ACTIVE_MODES,
    ManufacturedSolution,
    validate_derivation,
)

_RHO, _Z = spy.symbols("rho z", positive=True)
LOW_MU = MaterialConstants(VACUUM.eps, 0.25)


def curl_mode(a, m):
    """Symbolic cylindrical mode curl: coefficient triple of curl of a k=1
    field with coefficients ``a`` at signed mode m (output is k=2 type)."""
    a1, a2, a3 = a
    c1 = -(m / _RHO) * a2 - spy.diff(a3, _Z)
    c2 = (m / _RHO) * a1 + spy.diff(a3, _RHO) + a3 / _RHO
    c3 = spy.diff(a1, _Z) - spy.diff(a2, _RHO)
    return tuple(spy.simplify(spy.together(c)) for c in (c1, c2, c3))


@pytest.fixture(scope="module", params=[0.5, 2.0])
def symbolic(request):
    """(gamma, {m: (a, b = curl_m a, curl_{-m} b)}) derived by sympy from the
    potential of the module docstring, each triple lambdified to numpy."""
    gamma = request.param
    g = spy.Rational(gamma)
    f1 = (5 - _Z) ** 3 * _RHO ** (g + 1) * spy.exp(-_RHO)
    f2 = _RHO**2 * (5 - _Z) ** g
    f3 = (1 - spy.cos(5 - _Z)) * _RHO ** (g + 1)
    zero = spy.Integer(0)
    a_sym = {3: (f1, zero, zero), 2: (zero, zero, f3),
             -1: (zero, -f2 / 2, zero), -3: (zero, f2 / 2, zero)}
    forms = {}
    for m, a in a_sym.items():
        b = curl_mode(a, m)
        forms[m] = [spy.lambdify((_RHO, _Z), list(e), modules="numpy")
                    for e in (a, b, curl_mode(b, -m))]
    return gamma, forms


class TestSymbolicOracle:
    @pytest.mark.parametrize("materials", [VACUUM, LOW_MU],
                             ids=["vacuum", "mu0.25"])
    def test_closed_forms_match_sympy(self, symbolic, materials):
        gamma, forms = symbolic
        ms = ManufacturedSolution(gamma, materials)
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.05, 1.0, 200)
        z = rng.uniform(4.0, 5.0, 200)
        assert set(forms) == set(ACTIVE_MODES)
        for m, (a, b, curl_b) in forms.items():
            for got, fn, scale in ((ms.a, a, 1.0), (ms.b, b, 1.0),
                                   (ms.current, curl_b, 1 / materials.mu)):
                want = scale * np.stack(
                    [np.broadcast_to(c, rho.shape) for c in fn(rho, z)], -1)
                err = np.abs(got(m, rho, z) - want).max()
                assert err <= 1e-13 * np.abs(want).max(), (m, got.__name__)


class TestDerivation:
    @pytest.mark.parametrize("gamma", [2.0, 0.5])
    def test_curl_matches_finite_differences(self, gamma):
        assert validate_derivation(gamma, npts=100, seed=0) <= 1e-6

    @pytest.mark.parametrize("gamma", [2.0, 0.5])
    def test_current_matches_finite_differences(self, gamma):
        # with mu far from vacuum, j = mu^{-1} curl B is checked at its scale
        assert validate_derivation(gamma, npts=40, seed=1,
                                   materials=LOW_MU) <= 1e-6

    def test_flipped_current_sign_detected(self, monkeypatch):
        current = ManufacturedSolution.current

        def flipped(self, m, rho, z):
            j = current(self, m, rho, z)
            if m == 2:
                j[..., 1] *= -1
            return j

        monkeypatch.setattr(ManufacturedSolution, "current", flipped)
        assert validate_derivation(2.0, npts=10) > 1e-6

    def test_non_finite_error_is_inf(self):
        # max() would keep the finite running value and drop a NaN
        assert validate_derivation(np.nan, npts=3) == np.inf


class TestModeContent:
    def test_active_modes(self):
        assert set(ACTIVE_MODES) == {3, 2, -1, -3}

    def test_inactive_modes_are_zero(self):
        ms = ManufacturedSolution(2.0)
        rho = np.array([0.3, 0.7])
        z = np.array([4.2, 4.8])
        for m in (1, -2, 4, -4):
            assert np.abs(ms.a(m, rho, z)).max() == 0.0
            assert np.abs(ms.b(m, rho, z)).max() == 0.0
            assert np.abs(ms.current(m, rho, z)).max() == 0.0

    def test_sin_cubed_splitting(self):
        # rho^2 (sin t - 2 sin^3 t)(5-z)^gamma splits into m = -1 and m = -3
        # with amplitudes -1/2 and +1/2
        ms = ManufacturedSolution(1.0)
        rho, z = np.array([0.5]), np.array([4.5])
        base = rho[0] ** 2 * (5 - z[0])
        assert ms.a(-1, rho, z)[0, 1] == pytest.approx(-base / 2)
        assert ms.a(-3, rho, z)[0, 1] == pytest.approx(base / 2)
        theta = 0.77
        full = ms.field_3d("a", rho[0], z[0], theta)
        assert full[1] == pytest.approx(
            base * (np.sin(theta) - 2 * np.sin(theta) ** 3))

    def test_dirichlet_edge_values_vanish(self):
        ms = ManufacturedSolution(0.5)
        rho = np.linspace(0.05, 1.0, 7)
        z = np.full_like(rho, 5.0)
        for m in ACTIVE_MODES:
            assert np.abs(ms.a(m, rho, z)).max() <= 1e-14


class TestNeumannDatum:
    def test_cross_product_formula(self):
        ms = ManufacturedSolution(2.0)
        rho = np.array([0.6])
        z = np.array([4.3])
        n = np.array([0.8, -0.6])
        g = ms.neumann(3, rho, z, n)[0]
        w = ms.b(3, rho, z)[0] / ms.materials.mu
        # w x n in the orthonormal (e_rho, e_z, e_theta) frame with
        # e_rho x e_z = -e_theta
        expect = np.array([w[2] * n[1], -w[2] * n[0],
                           w[1] * n[0] - w[0] * n[1]])
        assert g == pytest.approx(expect)

    def test_linear_in_b(self):
        m1 = ManufacturedSolution(2.0)
        rho = np.array([0.4, 0.9])
        z = np.array([4.1, 4.6])
        n = np.array([1.0, 0.0])
        g = m1.neumann(2, rho, z, n)
        w = m1.b(2, rho, z) / m1.materials.mu
        assert np.allclose(g[:, 0], 0.0)          # n_z = 0
        assert np.allclose(g[:, 1], -w[:, 2])
        assert np.allclose(g[:, 2], w[:, 1])
