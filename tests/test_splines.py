import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axisiga.splines import (
    KnotVector,
    NurbsBasis,
    SplineError,
    SplineSpace1D,
    TensorSplineSpace,
    derivative_matrix,
    reduce_degree_regularity,
)


def uniform_space(p, nel):
    return SplineSpace1D(KnotVector.uniform(p, nel))


class TestKnotVector:
    def test_bernstein_single_element(self):
        kv = KnotVector(2, [0, 1], [3, 3])
        assert np.array_equal(kv.knots, [0, 0, 0, 1, 1, 1])
        assert kv.num_basis == 3

    def test_interior_knot_count(self):
        kv = KnotVector(2, [0, 0.5, 1], [3, 1, 3])
        assert kv.num_basis == 4  # sum(r) - (p+1) = 7 - 3

    def test_non_strict_breakpoints_rejected(self):
        with pytest.raises(SplineError):
            KnotVector(2, [0, 0.3, 0.3, 1], [3, 1, 1, 3])

    def test_bad_end_multiplicity_rejected(self):
        with pytest.raises(SplineError):
            KnotVector(2, [0, 1], [2, 3])

    def test_multiplicity_out_of_range_rejected(self):
        with pytest.raises(SplineError):
            KnotVector(2, [0, 0.5, 1], [3, 4, 3])

    def test_open_knot_structure(self):
        kv = KnotVector.uniform(3, 5)
        assert np.all(kv.knots[:4] == 0.0)
        assert np.all(kv.knots[-4:] == 1.0)
        assert np.all(np.diff(kv.knots) >= 0)


class TestEvalBasis:
    def test_piecewise_constant(self):
        s = uniform_space(0, 1)
        first, vals = s.eval_basis(0.4)
        assert first == 0
        assert vals == pytest.approx([1.0])

    def test_bernstein_midpoint(self):
        s = uniform_space(2, 1)
        _, vals = s.eval_basis(0.5)
        assert vals == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)

    def test_right_endpoint_left_limit(self):
        s = uniform_space(3, 4)
        first, vals = s.eval_basis(1.0)
        assert first + 3 == s.num_basis - 1
        assert vals[-1] == pytest.approx(1.0, abs=1e-14)

    def test_outside_domain_rejected(self):
        s = uniform_space(2, 2)
        with pytest.raises(SplineError):
            s.eval_basis(1.5)

    @pytest.mark.parametrize("p,nel", [(1, 3), (2, 4), (3, 5), (4, 2)])
    def test_partition_of_unity_1000_points(self, p, nel):
        s = uniform_space(p, nel)
        rng = np.random.default_rng(12345)
        for x in rng.uniform(0, 1, 1000):
            _, vals = s.eval_basis(x)
            assert abs(vals.sum() - 1.0) <= 1e-14
            assert np.all(vals >= -1e-15)

    def test_local_support(self):
        s = uniform_space(2, 5)
        xi = s.knots
        rng = np.random.default_rng(7)
        for x in rng.uniform(0, 1, 300):
            first, vals = s.eval_basis(x)
            full = np.zeros(s.num_basis)
            full[first : first + 3] = vals
            for i in range(s.num_basis):
                if not (xi[i] <= x <= xi[i + 3]):
                    assert abs(full[i]) <= 1e-15


class TestEvalBasisDeriv:
    def test_bernstein_p2_at_zero(self):
        # d/dx of (1-x)^2, 2x(1-x), x^2 at x = 0, confirmed by the
        # finite-difference check below
        s = uniform_space(2, 1)
        _, d = s.eval_basis_deriv(0.0)
        assert d == pytest.approx([-2.0, 2.0, 0.0])
        h = 1e-6
        fd = (np.array([(1 - h) ** 2, 2 * h * (1 - h), h**2])
              - np.array([1.0, 0.0, 0.0])) / h
        assert d == pytest.approx(fd, abs=1e-5)

    def test_derivative_sum_is_zero(self):
        s = uniform_space(3, 4)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 1, 200):
            _, d = s.eval_basis_deriv(x)
            assert abs(d.sum()) <= 1e-12

    def test_hat_function_slopes(self):
        s = uniform_space(1, 4)  # hats with h = 0.25
        _, d = s.eval_basis_deriv(0.1)
        assert d == pytest.approx([-4.0, 4.0])

    @pytest.mark.parametrize("p,nel", [(2, 3), (3, 4), (4, 5)])
    def test_derivative_vs_finite_difference_1000_points(self, p, nel):
        s = uniform_space(p, nel)
        rng = np.random.default_rng(2024)
        h = 1e-6
        coeffs = rng.standard_normal(s.num_basis)
        for x in rng.uniform(2 * h, 1 - 2 * h, 1000 // 3 + 1):
            first, d = s.eval_basis_deriv(x)
            val = d @ coeffs[first : first + p + 1]
            fd = (s.eval_field(coeffs, [x + h])[0]
                  - s.eval_field(coeffs, [x - h])[0]) / (2 * h)
            assert val == pytest.approx(fd, rel=1e-7, abs=1e-7)


class TestDegreeReduction:
    def test_interior_knot_dimensions(self):
        s = SplineSpace1D(KnotVector(2, [0, 0.5, 1], [3, 1, 3]))
        r = reduce_degree_regularity(s)
        assert r.degree == 1
        assert r.num_basis == 3

    def test_bernstein(self):
        r = reduce_degree_regularity(uniform_space(3, 1))
        assert r.degree == 2 and r.num_basis == 3

    def test_discontinuous_input_rejected(self):
        s = SplineSpace1D(KnotVector(2, [0, 0.5, 1], [3, 3, 3]))
        with pytest.raises(SplineError):
            reduce_degree_regularity(s)

    @pytest.mark.parametrize("p,nel", [(2, 3), (3, 4)])
    def test_derivative_exactly_representable(self, p, nel):
        s = uniform_space(p, nel)
        r, D = derivative_matrix(s)
        rng = np.random.default_rng(5)
        c = rng.standard_normal(s.num_basis)
        xs = np.linspace(1e-3, 1 - 1e-3, 40)
        derivs = np.array([
            s.eval_basis_deriv(x)[1] @ c[s.eval_basis_deriv(x)[0]:
                                         s.eval_basis_deriv(x)[0] + p + 1]
            for x in xs])
        # least-squares fit in the reduced space reproduces the derivative
        V = np.array([np.concatenate([
            np.zeros(r.eval_basis(x)[0]),
            r.eval_basis(x)[1],
            np.zeros(r.num_basis - r.eval_basis(x)[0] - p)]) for x in xs])
        coef, *_ = np.linalg.lstsq(V, derivs, rcond=None)
        assert np.abs(V @ coef - derivs).max() <= 1e-12
        # and the exact derivative matrix gives the same function
        assert np.abs(V @ (D @ c) - derivs).max() <= 1e-10


class TestNurbs:
    def test_equal_weights_reduce_to_bsplines(self):
        kv = KnotVector.uniform(2, 2)
        space = TensorSplineSpace(SplineSpace1D(kv), SplineSpace1D(kv))
        nb = NurbsBasis(space, 2.5 * np.ones(space.shape))
        _, _, N, _, _ = nb.eval_points([(0.3, 0.8)])
        _, b1 = space.s1.eval_basis(0.3)
        _, b2 = space.s2.eval_basis(0.8)
        assert np.allclose(N, np.outer(b1, b2), atol=1e-14)

    def test_rational_partition_of_unity(self):
        kv = KnotVector.uniform(2, 1)
        space = TensorSplineSpace(SplineSpace1D(kv), SplineSpace1D(kv))
        rng = np.random.default_rng(11)
        nb = NurbsBasis(space, rng.uniform(0.5, 2.0, space.shape))
        for x, y in rng.uniform(0, 1, (100, 2)):
            _, _, N, dN1, dN2 = nb.eval_points([(x, y)])
            assert N.sum() == pytest.approx(1.0, abs=1e-14)
            assert abs(dN1.sum()) <= 1e-12 and abs(dN2.sum()) <= 1e-12

    def test_quarter_circle_arc(self):
        # degree-2 arc with weights (1, sqrt(2)/2, 1) traces the unit circle
        kv2 = KnotVector.uniform(2, 1)
        kv1 = KnotVector.uniform(1, 1)
        space = TensorSplineSpace(SplineSpace1D(kv1), SplineSpace1D(kv2))
        w = np.ones(space.shape)
        w[:, 1] = np.sqrt(2) / 2
        nb = NurbsBasis(space, w)
        ctrl = np.zeros((2, 3, 2))
        for i in range(2):
            ctrl[i] = [(1, 0), (1, 1), (0, 1)]
        for t in (0.25, 0.5, 0.75):
            _, _, N, _, _ = nb.eval_points([(0.0, t)])
            pt = np.einsum("ij,ijc->c", N[0], ctrl)
            assert np.hypot(*pt) == pytest.approx(1.0, abs=1e-14)

    def test_derivative_vs_finite_difference(self):
        kv = KnotVector.uniform(2, 2)
        space = TensorSplineSpace(SplineSpace1D(kv), SplineSpace1D(kv))
        rng = np.random.default_rng(13)
        nb = NurbsBasis(space, rng.uniform(0.5, 2.0, space.shape))
        h = 1e-6
        for x, y in rng.uniform(0.1, 0.9, (50, 2)):
            _, _, _, dN1, _ = nb.eval_points([(x, y)])
            _, _, Np, _, _ = nb.eval_points([(x + h, y)])
            _, _, Nm, _, _ = nb.eval_points([(x - h, y)])
            fd = (Np - Nm) / (2 * h)
            assert np.abs(dN1 - fd).max() <= 1e-7 * max(np.abs(dN1).max(), 1)

    def test_nonpositive_weight_rejected(self):
        kv = KnotVector.uniform(1, 1)
        space = TensorSplineSpace(SplineSpace1D(kv), SplineSpace1D(kv))
        with pytest.raises(SplineError):
            NurbsBasis(space, np.array([[1.0, 1.0], [0.0, 1.0]]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.integers(1, 4), nel=st.integers(1, 6),
       x=st.floats(0.0, 1.0, allow_nan=False))
def test_partition_of_unity_property(p, nel, x):
    s = uniform_space(p, nel)
    _, vals = s.eval_basis(x)
    assert abs(vals.sum() - 1.0) <= 1e-14
    assert np.all(vals >= -1e-15)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.integers(0, 4), nel=st.integers(1, 8))
def test_dimension_formula_property(p, nel):
    kv = KnotVector.uniform(p, nel)
    assert kv.num_basis == int(kv.multiplicities.sum()) - (p + 1)
    assert len(kv.knots) == kv.num_basis + p + 1


class TestTabulateAgainstScipy:
    """The batched Cox-DeBoor tables against scipy.interpolate.BSpline."""

    @pytest.mark.parametrize("space", [
        uniform_space(1, 3),
        uniform_space(3, 5),
        SplineSpace1D(KnotVector(2, [0, 0.3, 0.5, 1], [3, 2, 1, 3])),
        SplineSpace1D(KnotVector(3, [0, 0.5, 1], [4, 4, 4])),
    ], ids=["p1", "p3", "p2-double-knot", "p3-discontinuous"])
    def test_values_and_derivatives(self, space):
        from scipy.interpolate import BSpline
        spaces = [space]
        if np.all(space.kv.regularities[1:-1] >= 0):
            spaces.append(reduce_degree_regularity(space))
        rng = np.random.default_rng(8)
        for s in spaces:
            # breakpoints (including x = 1) and random interior points
            xs = np.concatenate([s.breakpoints, rng.uniform(0, 1, 50)])
            firsts, vals, ders = s.tabulate(xs)
            full_v = np.zeros((len(xs), s.num_basis))
            full_d = np.zeros((len(xs), s.num_basis))
            cols = firsts[:, None] + np.arange(s.degree + 1)
            np.put_along_axis(full_v, cols, vals, axis=1)
            np.put_along_axis(full_d, cols, ders, axis=1)
            ref = BSpline(s.knots, np.eye(s.num_basis), s.degree)
            # scipy is right-continuous at breakpoints, the left limit at 1
            assert np.abs(full_v - ref(xs)).max() <= 1e-14
            if s.degree > 0:
                assert np.abs(full_d - ref(xs, nu=1)).max() <= 1e-12
            else:
                assert not full_d.any()
