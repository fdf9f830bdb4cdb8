import numpy as np
import pytest

from axisiga.geometry import (
    GeometryError,
    pillbox_section,
    pullback,
    push_forward,
    quarter_annulus,
    rectangle,
)

ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestMapping:
    def test_identity_rectangle(self):
        geo = rectangle(0, 1, 0, 1)
        rng = np.random.default_rng(0)
        for xi in rng.uniform(0, 1, (50, 2)):
            assert geo.map_point(*xi) == pytest.approx(xi, abs=1e-14)

    def test_translated_rectangle(self):
        geo = rectangle(0, 1, 4, 5)
        assert geo.map_point(0.5, 0.5) == pytest.approx([0.5, 4.5])

    def test_quarter_annulus_inner_corner(self):
        geo = quarter_annulus(1.0, 2.0)
        pt = geo.map_point(0.0, 0.0)
        assert np.hypot(*pt) == pytest.approx(1.0, abs=1e-14)

    def test_quarter_annulus_arcs_exact(self):
        geo = quarter_annulus(1.0, 2.0)
        for t in np.linspace(0, 1, 9):
            assert np.hypot(*geo.map_point(0.0, t)) == pytest.approx(
                1.0, abs=1e-13)
            assert np.hypot(*geo.map_point(1.0, t)) == pytest.approx(
                2.0, abs=1e-13)


class TestJacobian:
    def test_identity(self):
        geo = rectangle(0, 1, 0, 1)
        J, det = geo.jacobian(0.3, 0.7)
        assert J == pytest.approx(np.eye(2), abs=1e-14)
        assert det == pytest.approx(1.0)

    def test_affine_scaling(self):
        geo = pillbox_section(0.035, 0.1)
        J, det = geo.jacobian(0.2, 0.9)
        assert det == pytest.approx(0.035 * 0.1, abs=1e-15)

    def test_finite_difference_consistency(self):
        geo = quarter_annulus(1.0, 2.0)
        rng = np.random.default_rng(1)
        h = 1e-6
        for xi1, xi2 in rng.uniform(0.05, 0.95, (30, 2)):
            J, det = geo.jacobian(xi1, xi2)
            fd1 = (geo.map_point(xi1 + h, xi2)
                   - geo.map_point(xi1 - h, xi2)) / (2 * h)
            fd2 = (geo.map_point(xi1, xi2 + h)
                   - geo.map_point(xi1, xi2 - h)) / (2 * h)
            scale = max(np.abs(J).max(), 1.0)
            assert np.abs(J[:, 0] - fd1).max() <= 1e-6 * scale
            assert np.abs(J[:, 1] - fd2).max() <= 1e-6 * scale
            assert det == pytest.approx(np.linalg.det(J), rel=1e-12)


class TestValidation:
    def test_axis_edge_must_be_west(self):
        with pytest.raises(GeometryError):
            rectangle(0, 1, 0, 1, edge_labels={
                "west": "neumann", "east": "axis",
                "south": "neumann", "north": "neumann"})

    def test_axis_edge_off_axis_rejected(self):
        with pytest.raises(GeometryError):
            rectangle(0.5, 1, 0, 1, edge_labels={
                "west": "axis", "east": "neumann",
                "south": "neumann", "north": "neumann"})

    def test_untagged_edge_rejected(self):
        from axisiga.geometry import NurbsGeometry
        geo = rectangle(0, 1, 0, 1)
        with pytest.raises(GeometryError):
            NurbsGeometry(geo.basis, geo.control, {"west": "axis"})

    def test_invalid_bounds_rejected(self):
        with pytest.raises(GeometryError):
            rectangle(1.0, 0.5, 0, 1)


class TestPullbacks:
    @pytest.mark.parametrize("k", ["0", "1", "1*", "2"])
    def test_identity_map_is_identity(self, k):
        geo = rectangle(0, 1, 0, 1)
        val = np.array([0.4, -1.1]) if k in ("1", "1*") else 0.7
        out = pullback(k, geo, (0.3, 0.6), val)
        assert np.allclose(out, val, atol=1e-14)

    def test_round_trips_1000_cases(self):
        geo = quarter_annulus(1.0, 2.0)
        rng = np.random.default_rng(42)
        for _ in range(250):  # 250 points x 4 form kinds = 1000 cases
            xi = rng.uniform(0.05, 0.95, 2)
            for k in ("0", "1", "1*", "2"):
                val = rng.standard_normal(2) if k in ("1", "1*") \
                    else rng.standard_normal()
                back = push_forward(k, geo, xi, pullback(k, geo, xi, val))
                assert np.allclose(back, val, atol=1e-13)

    def test_gradient_commutation(self):
        # grad-hat(iota0 v) = iota1(grad v) for v = rho^2 z
        geo = quarter_annulus(1.0, 2.0)
        rng = np.random.default_rng(3)
        h = 1e-6
        for xi in rng.uniform(0.05, 0.95, (20, 2)):
            def v_hat(x1, x2):
                rho, z = geo.map_point(x1, x2)
                return rho**2 * z
            grad_hat = np.array([
                (v_hat(xi[0] + h, xi[1]) - v_hat(xi[0] - h, xi[1])) / (2 * h),
                (v_hat(xi[0], xi[1] + h) - v_hat(xi[0], xi[1] - h)) / (2 * h)])
            rho, z = geo.map_point(*xi)
            grad_phys = np.array([2 * rho * z, rho**2])
            pulled = pullback("1", geo, xi, grad_phys)
            assert np.abs(grad_hat - pulled).max() <= 1e-5

    def test_rotation_relation(self):
        # iota1*(P v) = P iota1(v): the div-conforming pullback of the
        # rotated field equals the rotation of the curl-conforming pullback
        geo = quarter_annulus(1.0, 2.0)
        rng = np.random.default_rng(4)
        for _ in range(200):
            xi = rng.uniform(0.05, 0.95, 2)
            v = rng.standard_normal(2)
            lhs = pullback("1*", geo, xi, ROT90 @ v)
            rhs = ROT90 @ pullback("1", geo, xi, v)
            assert np.allclose(lhs, rhs, atol=1e-12 * max(np.abs(rhs).max(), 1))

