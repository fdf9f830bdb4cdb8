import numpy as np
import pytest
from scipy.special import roots_legendre

from axisiga.assembly import _QuadTable, _element_rule
from axisiga.derham import DeRhamComplex2D
from axisiga.geometry import quarter_annulus, rectangle
from axisiga.splines import KnotVector, SplineSpace1D


def reference_rule(n):
    """The n-point element rule on the single element (-1, 1)."""
    return _element_rule(np.array([-1.0, 1.0]), n)


class TestGaussLegendre:
    def test_single_point(self):
        nodes, weights = reference_rule(1)
        assert nodes == pytest.approx([0.0])
        assert weights == pytest.approx([2.0])

    def test_two_points_closed_form(self):
        nodes, weights = reference_rule(2)
        assert nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)],
                                      abs=1e-15)
        assert weights == pytest.approx([1.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 32))
    def test_weight_sum_and_symmetry(self, n):
        nodes, weights = reference_rule(n)
        assert weights.sum() == pytest.approx(2.0, abs=1e-14)
        assert np.all(weights > 0)
        assert nodes == pytest.approx(-nodes[::-1], abs=1e-15)

    def test_three_points_closed_form(self):
        nodes, weights = reference_rule(3)
        s = np.sqrt(3 / 5)
        assert nodes == pytest.approx([-s, 0.0, s], abs=1e-15)
        assert weights == pytest.approx([5 / 9, 8 / 9, 5 / 9], abs=1e-15)

    def test_four_points_closed_form(self):
        nodes, weights = reference_rule(4)
        inner = np.sqrt(3 / 7 - 2 / 7 * np.sqrt(6 / 5))
        outer = np.sqrt(3 / 7 + 2 / 7 * np.sqrt(6 / 5))
        w_in, w_out = (18 + np.sqrt(30)) / 36, (18 - np.sqrt(30)) / 36
        assert nodes == pytest.approx([-outer, -inner, inner, outer],
                                      abs=1e-15)
        assert weights == pytest.approx([w_out, w_in, w_in, w_out],
                                        abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 32))
    def test_matches_reference_implementation(self, n):
        # scipy's rule is a separate implementation from numpy's leggauss
        x_ref, w_ref = roots_legendre(n)
        nodes, weights = reference_rule(n)
        assert nodes == pytest.approx(x_ref, abs=1e-13)
        assert weights == pytest.approx(w_ref, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30, 31])
    def test_monomial_exactness_boundary(self, n):
        nodes, weights = reference_rule(n)
        # exact for degree 2n-1 (odd: zero) and 2n-2
        for deg in (2 * n - 1, 2 * n - 2):
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            assert np.sum(weights * nodes**deg) == pytest.approx(
                exact, abs=1e-13)
        # NOT exact for degree 2n (the analytic Gauss error shrinks
        # factorially with n, so only small orders show it above roundoff)
        if n <= 13:
            deg = 2 * n
            err = abs(np.sum(weights * nodes**deg) - 2.0 / (deg + 1))
            assert err > 1e-10

    def test_mapped_interval(self):
        x, w = _element_rule(np.array([0.25, 0.75]), 4)
        assert np.all((x > 0.25) & (x < 0.75))
        assert w.sum() == pytest.approx(0.5)
        assert np.sum(w * x**3) == pytest.approx(
            (0.75**4 - 0.25**4) / 4, abs=1e-15)

    def test_order_31_maps(self):
        # no order cap: 31 points (degree 29's default) map onto [0.25, 0.75]
        # and integrate x**61 exactly there
        x, w = _element_rule(np.array([0.25, 0.75]), 31)
        x_ref, w_ref = roots_legendre(31)
        assert x == pytest.approx(0.5 + 0.25 * x_ref, abs=1e-13)
        assert w == pytest.approx(0.25 * w_ref, abs=1e-13)
        assert np.all((x > 0.25) & (x < 0.75))
        assert np.sum(w * x**61) == pytest.approx(
            (0.75**62 - 0.25**62) / 62, rel=1e-13)

    def test_elements_in_order(self):
        # each element's points and weights are those of the one-element
        # rule on it, element by element
        z = np.array([0.0, 0.25, 0.5, 1.0])
        x, w = _element_rule(z, 3)
        for e in range(3):
            xe, we = _element_rule(z[e:e + 2], 3)
            assert np.array_equal(x[3 * e:3 * e + 3], xe)
            assert np.array_equal(w[3 * e:3 * e + 3], we)


def table(geo, breaks1, breaks2, n):
    """Quadrature table of the cylindrical measure on the mesh with the given
    breakpoints (degree-1 spaces; only the mesh matters)."""
    mult = lambda z: [2] + [1] * (len(z) - 2) + [2]
    s1 = SplineSpace1D(KnotVector(1, breaks1, mult(breaks1)))
    s2 = SplineSpace1D(KnotVector(1, breaks2, mult(breaks2)))
    return _QuadTable(DeRhamComplex2D(s1, s2), geo, n)


class TestElementRule:
    """The per-element rule for rho drho dz, from the assembly table: ``dx``
    includes both Gauss weights, the element scaling, det J_F and rho."""

    def test_unit_square_rho_weight(self):
        geo = rectangle(0, 1, 0, 1)
        r = table(geo, [0, 1], [0, 1], 3)
        # integral of rho over the unit square
        assert r.dx.sum() == pytest.approx(0.5, abs=1e-14)

    def test_polynomial_integral(self):
        geo = rectangle(0, 1, 0, 1)
        r = table(geo, [0, 1], [0, 1], 3)
        # integral rho^3 z^2 drho dz = 1/12 (weights already include one rho)
        val = np.sum(r.dx * r.rho**2 * r.z**2)
        assert val == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_axis_element_weights_finite(self):
        geo = rectangle(0, 1, 0, 1)
        r = table(geo, [0, 0.25, 0.5, 0.75, 1], [0, 1], 4)
        # the 4 x 4 points of parametric element (0, 0.25) x (0, 1)
        axis_element = r.dx[:4]
        assert axis_element.shape == (4, 4)
        assert np.all(np.isfinite(axis_element))
        assert np.all(axis_element >= 0)

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 2), (3, 4)])
    def test_affine_tensor_exactness(self, a, b):
        # with n points: rho^i z^j exact for i+1, j <= 2n-1
        n = 3
        geo = rectangle(1, 2, float(a), float(b))
        r = table(geo, [0, 1], [0, 1], n)
        for i in range(2 * n - 2):
            for j in range(2 * n):
                val = np.sum(r.dx * r.rho**i * r.z**j)
                exact = ((2.0 ** (i + 2) - 1.0) / (i + 2)
                         * (float(b) ** (j + 1) - float(a) ** (j + 1)) / (j + 1))
                assert val == pytest.approx(exact, rel=1e-13)

    def test_curved_geometry_area(self):
        # area integral of rho over the quarter annulus, rho = x-coordinate:
        # int rho dA = int_1^2 int_0^{pi/2} (r cos t) r dt dr = 7/3
        # rational integrand, so high-order Gauss converges but is not exact
        geo = quarter_annulus(1.0, 2.0)
        r = table(geo, *geo.breakpoints, 16)
        assert r.dx.sum() == pytest.approx(7.0 / 3.0, rel=1e-9)

    def test_degree_29_table(self):
        # p = 29 takes the default 31 points per direction; the table of the
        # unit square integrates rho exactly
        s = lambda: SplineSpace1D(KnotVector.uniform(29, 1))
        cx = DeRhamComplex2D(s(), s())
        r = _QuadTable(cx, rectangle(0, 1, 0, 1))
        assert r.rho.shape == (31, 31)
        assert r.dx.sum() == pytest.approx(0.5, abs=1e-14)
