import numpy as np
import pytest

from axisiga.derham import (
    DeRhamComplex2D,
    DeRhamError,
    ModeSpace,
    eta_forward,
    eta_inverse,
    exactness_report,
)
from axisiga.geometry import quarter_annulus, rectangle
from axisiga.splines import KnotVector, SplineSpace1D


def make_complex(p, nel):
    s = lambda: SplineSpace1D(KnotVector.uniform(p, nel))
    return DeRhamComplex2D(s(), s())


class TestConstruction:
    def test_single_element_dims_p2(self):
        cx = make_complex(2, 1)
        assert cx.dim(0) == 9
        assert (cx.X1a.dim, cx.X1b.dim) == (6, 6)
        assert (cx.X1sa.dim, cx.X1sb.dim) == (6, 6)
        assert cx.dim(3) == 4

    def test_p1_2x2_dims(self):
        cx = make_complex(1, 2)
        assert cx.dim(0) == 9
        assert cx.dim(3) == 4

    def test_swap_structure(self):
        cx = make_complex(3, 2)
        assert cx.X1sa.shape == cx.X1b.shape
        assert cx.X1sb.shape == cx.X1a.shape

    def test_degree_lower_bound(self):
        s0 = SplineSpace1D(KnotVector.uniform(0, 3))
        s1 = SplineSpace1D(KnotVector.uniform(1, 3))
        with pytest.raises(DeRhamError):
            DeRhamComplex2D(s0, s1)

    def test_build_from_breakpoints(self):
        s = lambda: SplineSpace1D(KnotVector(2, [0, 0.5, 1], [3, 1, 3]))
        cx = DeRhamComplex2D(s(), s())
        assert cx.degrees == (2, 2)
        assert cx.dim(0) == 16

    def test_derivative_matrix_pointwise(self):
        cx = make_complex(3, 3)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(cx.dim(0))
        d_rho = cx.D_rho @ c
        d_z = cx.D_z @ c
        pts = rng.uniform(0, 1, (100, 2))
        vals = cx.X0.eval_field(c, pts, deriv=True)
        assert np.abs(cx.X1a.eval_field(d_rho, pts) - vals[:, 1]).max() <= 1e-12 * max(1, np.abs(vals).max())
        assert np.abs(cx.X1b.eval_field(d_z, pts) - vals[:, 2]).max() <= 1e-12 * max(1, np.abs(vals).max())


class TestOperators:
    def test_grad_of_constant(self):
        cx = make_complex(2, 2)
        u = np.ones(cx.dim(0))
        g = cx.G @ u
        sl = cx.block_slices(1)
        assert np.abs(g[sl[0]]).max() == 0.0
        assert np.abs(g[sl[1]]).max() == 0.0
        assert np.allclose(g[sl[2]], -1.0)

    def test_grad_of_linear(self):
        cx = make_complex(2, 3)
        # coefficients of the function xi1 are the Greville abscissae
        p = 2
        xi = cx.s1.knots
        grev = np.array([xi[i + 1 : i + 1 + p].mean()
                         for i in range(cx.s1.num_basis)])
        u = np.repeat(grev, cx.s2.num_basis)
        g = cx.G @ u
        sl = cx.block_slices(1)
        assert np.allclose(g[sl[0]], 1.0, atol=1e-12)
        assert np.abs(g[sl[1]]).max() <= 1e-12

    def test_curl_of_scalar_block(self):
        cx = make_complex(2, 2)
        rng = np.random.default_rng(1)
        v3 = rng.standard_normal(cx.dim(0))
        v = np.zeros(cx.dim(1))
        sl1 = cx.block_slices(1)
        v[sl1[2]] = v3
        c = cx.C @ v
        sl2 = cx.block_slices(2)
        assert np.allclose(c[sl2[0]], -(cx.D_z @ v3))
        assert np.allclose(c[sl2[1]], cx.D_rho @ v3)
        assert np.abs(c[sl2[2]]).max() <= 1e-14

    def test_div_of_scalar_block(self):
        cx = make_complex(2, 2)
        rng = np.random.default_rng(2)
        w3 = rng.standard_normal(cx.dim(3))
        w = np.zeros(cx.dim(2))
        w[cx.block_slices(2)[2]] = w3
        assert np.allclose(cx.D @ w, -w3)

    @pytest.mark.parametrize("p,nel", [(1, 1), (1, 2), (2, 2), (3, 3), (4, 8)])
    def test_complex_property(self, p, nel):
        cx = make_complex(p, nel)
        CG = cx.C @ cx.G
        DC = cx.D @ cx.C
        assert abs(CG).max() <= 1e-12 if CG.nnz else True
        assert abs(DC).max() <= 1e-12 if DC.nnz else True

    def test_curl_kills_gradients(self):
        cx = make_complex(3, 4)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(cx.dim(0))
        assert np.abs(cx.C @ (cx.G @ u)).max() <= 1e-12

    def test_pointwise_star_operator_consistency(self):
        # matrix-applied curl agrees with the analytic tilde-variable formula
        # evaluated with exact spline derivatives at 100 random points
        cx = make_complex(2, 3)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(cx.dim(1))
        sl1 = cx.block_slices(1)
        c = cx.C @ v
        sl2 = cx.block_slices(2)
        pts = rng.uniform(0, 1, (100, 2))
        v1 = cx.X1a.eval_field(v[sl1[0]], pts, deriv=True)
        v2 = cx.X1b.eval_field(v[sl1[1]], pts, deriv=True)
        v3 = cx.X0.eval_field(v[sl1[2]], pts, deriv=True)
        ana = np.stack([
            -v2[:, 0] - v3[:, 2],
            v1[:, 0] + v3[:, 1],
            v1[:, 2] - v2[:, 1],
        ], axis=1)
        mat = np.stack([
            cx.X1sa.eval_field(c[sl2[0]], pts),
            cx.X1sb.eval_field(c[sl2[1]], pts),
            cx.X2.eval_field(c[sl2[2]], pts),
        ], axis=1)
        scale = max(np.abs(ana).max(), 1.0)
        assert np.abs(ana - mat).max() <= 1e-12 * scale

    def test_mode_independence(self):
        # operators are built once per complex; no m anywhere in their data
        cx = make_complex(2, 2)
        a = ModeSpace(cx, 5)
        b = ModeSpace(cx, -17)
        assert a.complex.G is b.complex.G
        assert a.complex.C is b.complex.C


class TestExactness:
    @pytest.mark.parametrize("p,nel", [(1, 1), (2, 2), (3, 2)])
    def test_small_instances(self, p, nel):
        rep = exactness_report(make_complex(p, nel), m=1)
        assert rep["exact"]
        assert rep["norm_CG"] <= 1e-12
        assert rep["norm_DC"] <= 1e-12
        assert rep["dim_ker_G"] == 0
        assert rep["dim_ker_C"] == rep["rank_G"]
        assert rep["dim_ker_D"] == rep["rank_C"]
        assert rep["rank_D"] == rep["dim_Z3"]

    def test_rank_d_surjective(self):
        cx = make_complex(2, 2)
        rep = exactness_report(cx, m=2)
        assert rep["rank_D"] == cx.dim(3)

    def test_dimension_cap(self):
        with pytest.raises(DeRhamError):
            exactness_report(make_complex(3, 24), m=1)

    def test_mode_zero_rejected(self):
        with pytest.raises(DeRhamError):
            exactness_report(make_complex(1, 1), m=0)


class TestEtaMaps:
    def test_round_trips_1000_cases(self):
        rng = np.random.default_rng(99)
        for _ in range(125):  # 125 draws x 4 degrees x 2 directions = 1000
            m = int(rng.integers(1, 30)) * int(rng.choice([-1, 1]))
            rho = rng.uniform(0.05, 2.0, 5)
            for k in (0, 1, 2, 3):
                shape = (5,) if k in (0, 3) else (5, 3)
                tilde = rng.standard_normal(shape)
                back = eta_forward(m, k, rho, eta_inverse(m, k, rho, tilde))
                assert np.abs(back - tilde).max() <= 1e-13 * max(
                    1, np.abs(tilde).max())
                phys = rng.standard_normal(shape)
                back2 = eta_inverse(m, k, rho, eta_forward(m, k, rho, phys))
                assert np.abs(back2 - phys).max() <= 1e-13 * max(
                    1, np.abs(phys).max())

    def test_axis_values_finite(self):
        rng = np.random.default_rng(7)
        rho = np.array([0.0, 0.0])
        for k in (0, 1, 2, 3):
            shape = (2,) if k in (0, 3) else (2, 3)
            out = eta_inverse(3, k, rho, rng.standard_normal(shape))
            assert np.all(np.isfinite(out))

    def test_k0_axis_value_zero(self):
        out = eta_inverse(2, 0, np.array([0.0]), np.array([1.7]))
        assert out[0] == 0.0

    def test_forward_requires_positive_rho(self):
        with pytest.raises(DeRhamError):
            eta_forward(1, 0, np.array([0.0]), np.array([1.0]))

    def test_mode_zero_rejected(self):
        with pytest.raises(DeRhamError):
            eta_inverse(0, 1, np.array([1.0]), np.zeros((1, 3)))


class TestModeFieldEvaluation:
    def test_k3_is_identity_without_geometry(self):
        cx = make_complex(2, 2)
        ms = ModeSpace(cx, 4)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(cx.dim(3))
        pts = rng.uniform(0, 1, (20, 2))
        fe = ms.eval_field(3, c, pts)
        assert np.allclose(fe.physical, fe.tilde)

    def test_k1_eta_formula(self):
        cx = make_complex(2, 3)
        m = 3
        ms = ModeSpace(cx, m)
        rng = np.random.default_rng(1)
        c = rng.standard_normal(cx.dim(1))
        pts = rng.uniform(0.1, 0.9, (30, 2))
        fe = ms.eval_field(1, c, pts)
        rho = pts[:, 0]
        expect_rho = (rho * fe.tilde[:, 0] - fe.tilde[:, 2]) / m
        expect_z = rho * fe.tilde[:, 1] / m
        assert np.allclose(fe.physical[:, 0], expect_rho)
        assert np.allclose(fe.physical[:, 1], expect_z)
        assert np.allclose(fe.physical[:, 2], fe.tilde[:, 2])

    def test_geometry_pushforward_consistency(self):
        # tilde pair of a k=1 field transforms covariantly under the map
        cx = make_complex(2, 2)
        geo = quarter_annulus(1.0, 2.0)
        ms = ModeSpace(cx, 2)
        rng = np.random.default_rng(2)
        c = rng.standard_normal(cx.dim(1))
        pts = rng.uniform(0.1, 0.9, (10, 2))
        with_geo = ms.eval_field(1, c, pts, geo).tilde
        plain = ms.eval_field(1, c, pts).tilde
        for q, xi in enumerate(pts):
            J, det = geo.jacobian(*xi)
            assert np.allclose(J.T @ with_geo[q, :2], plain[q, :2], atol=1e-12)
            assert with_geo[q, 2] == plain[q, 2]

    def test_mode_zero_rejected(self):
        with pytest.raises(DeRhamError):
            ModeSpace(make_complex(1, 1), 0)

    def test_coefficient_shape_must_match(self):
        # a stack of fields or a vector of the wrong length is an error,
        # not a reshape failure deep in the factor evaluation
        cx = make_complex(2, 2)
        ms, pts = ModeSpace(cx, 1), np.full((3, 2), 0.5)
        for k in range(4):
            u = np.ones(cx.dim(k))
            assert np.isfinite(ms.eval_field(k, u, pts).physical).all()
            for bad in (np.column_stack([u, u]), np.append(u, 1.0)):
                with pytest.raises(DeRhamError, match="coefficients"):
                    ms.eval_field(k, bad, pts)
