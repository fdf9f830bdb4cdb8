import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from axisiga.assembly import (
    _INV_M_COMPONENTS,
    KERNEL_TOL,
    VACUUM,
    AssemblyError,
    MaterialConstants,
    MeshForms,
    _at_mode,
    _compact,
    _curlcurl,
    _mass_parts,
    _QuadTable,
    _element_rule,
    assemble_curlcurl,
    assemble_load,
    assemble_mass,
    build_mode_system,
    default_nquad,
    essential_dofs,
    l2_rho_error,
)
from axisiga.derham import (
    DeRhamComplex2D,
    DeRhamError,
    ModeSpace,
    eta_inverse,
    tilde_push_forward,
)
from axisiga.geometry import (
    BUILTIN_GEOMETRIES,
    NurbsGeometry,
    pillbox_section,
    quarter_annulus,
    rectangle,
)
from axisiga.splines import KnotVector, SplineSpace1D


def make_complex(p, nel):
    s = lambda: SplineSpace1D(KnotVector.uniform(p, nel))
    return DeRhamComplex2D(s(), s())


UNIT = rectangle(0, 1, 0, 1)
UNIT_MATERIALS = MaterialConstants(1.0, 1.0)


@pytest.mark.parametrize("eps,mu", [
    (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0),
    (1.0, float("inf")), (0.0, 1.0), (1.0, -1.0)])
def test_bad_material_constants_rejected(eps, mu):
    with pytest.raises(AssemblyError):
        MaterialConstants(eps, mu)


class TestMass:
    def test_spd(self):
        cx = make_complex(2, 4)
        M = assemble_mass(cx, UNIT, m=1).toarray()
        assert np.abs(M - M.T).max() <= 1e-14 * np.abs(M).max()
        assert np.linalg.eigvalsh(M).min() > 0

    def test_weight_linearity(self):
        cx = make_complex(1, 2)
        M1 = assemble_mass(cx, UNIT, m=2, weight=1.0)
        M2 = assemble_mass(cx, UNIT, m=2, weight=2.0)
        assert np.abs((2 * M1 - M2).toarray()).max() <= 1e-14 * np.abs(
            M1.toarray()).max()

    def test_callable_weight(self):
        cx = make_complex(1, 2)
        Mc = assemble_mass(cx, UNIT, m=1, weight=lambda rho, z: 3.0 + 0 * rho)
        M3 = assemble_mass(cx, UNIT, m=1, weight=3.0)
        assert np.abs((Mc - M3).toarray()).max() <= 1e-13 * np.abs(
            M3.toarray()).max()

    def test_scalar_mass_exact_entry(self):
        # k=0, single bilinear element on the identity square: the entry for
        # the corner hat B(rho,z) = rho z is
        # (1/m^2) int rho^3 (rho z)^2 = 1/(18 m^2)
        cx = make_complex(1, 1)
        m = 3
        M = assemble_mass(cx, UNIT, m=m, k=0).toarray()
        i = np.ravel_multi_index((1, 1), cx.X0.shape)
        assert M[i, i] == pytest.approx(1.0 / (18 * m**2), rel=1e-13)

    def test_vector_mass_exact_entry_symbolic(self):
        # k=1 diagonal entry for an X0-factor (u_theta) basis function,
        # cross-checked against symbolic integration of the eta^{-1} integrand
        cx = make_complex(1, 1)
        m = 2
        M = assemble_mass(cx, UNIT, m=m, k=1).toarray()
        sl = cx.block_slices(1)
        i = sl[2].start + np.ravel_multi_index((1, 1), cx.X0.shape)
        rho, z = sympy.symbols("rho z", positive=True)
        v3 = rho * z
        # eta^{-1}: u_rho = (rho*v1 - v3)/m with v1 = 0, u_z = 0, u_theta = v3
        integrand = ((-v3 / m) ** 2 + v3**2) * rho
        exact = float(sympy.integrate(integrand, (rho, 0, 1), (z, 0, 1)))
        assert M[i, i] == pytest.approx(exact, rel=1e-13)

    def test_mode_sign_invariance(self):
        cx = make_complex(2, 2)
        Mp = assemble_mass(cx, UNIT, m=3)
        Mn = assemble_mass(cx, UNIT, m=-3)
        assert np.abs((Mp - Mn).toarray()).max() <= 1e-15 * np.abs(
            Mp.toarray()).max()

    def test_mode_zero_rejected(self):
        with pytest.raises(DeRhamError):
            assemble_mass(make_complex(1, 1), UNIT, m=0)


class TestCurlCurl:
    def test_symmetric_psd(self):
        cx = make_complex(2, 3)
        A = assemble_curlcurl(cx, UNIT, m=1, weight=1.0).toarray()
        assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
        assert np.linalg.eigvalsh(A).min() >= -1e-10 * np.abs(A).max()

    def test_gradients_in_kernel(self):
        cx = make_complex(2, 3)
        A = assemble_curlcurl(cx, UNIT, m=2, weight=1.0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(cx.dim(0))
        g = cx.G @ u
        assert np.abs(A @ g).max() <= 1e-10 * np.abs(A.toarray()).max()

    def test_kernel_dimension_equals_gradient_space(self):
        # PEC everywhere except the axis: zero eigenvalues of the constrained
        # pencil = dim of the constrained multiplier space
        cx = make_complex(2, 2)
        geo = pillbox_section(1.0, 1.0)
        sys_ = build_mode_system(MeshForms(cx, geo, UNIT_MATERIALS), m=1)
        A, M = sys_.A, sys_.M
        vals = np.linalg.eigvalsh(
            np.linalg.solve(M.toarray(), A.toarray()) @ np.eye(A.shape[0]))
        # count eigenvalues at numerical zero
        import scipy.linalg as sla
        w = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True)
        nzero = int(np.sum(w < 1e-6 * w.max()))
        assert nzero == len(sys_.free_z0)


class TestMixed:
    """The gradient-coupling block B = M(eps) G of a mode system."""

    def test_independent_pointwise_assembly(self):
        # reassemble B by evaluating the physical mode gradient of each
        # multiplier basis function pointwise and integrating directly
        p, nel, m = 1, 2, 2
        cx = make_complex(p, nel)
        B = build_mode_system(MeshForms(cx, UNIT, UNIT_MATERIALS), m).B.toarray()
        ms = ModeSpace(cx, m)
        nq = default_nquad(cx)
        ref = np.zeros_like(B)
        z1_dim = cx.dim(1)
        eye = np.eye(z1_dim)
        zb = cx.s1.breakpoints
        for e1 in range(nel):
            for e2 in range(nel):
                x1, w1 = _element_rule(zb[e1:e1 + 2], nq)
                x2, w2 = _element_rule(zb[e2:e2 + 2], nq)
                pts = np.array([(a, b) for a in x1 for b in x2])
                wq = np.outer(w1, w2).ravel()
                rho = pts[:, 0]
                tests = [ms.eval_field(1, eye[i], pts).physical
                         for i in range(z1_dim)]
                for j in range(cx.dim(0)):
                    u = np.zeros(cx.dim(0))
                    u[j] = 1.0
                    vals = cx.X0.eval_field(u, pts, deriv=True)
                    # the physical multiplier is b = (rho/m) u; its mode
                    # gradient (d_rho b, d_z b, -(m/rho) b) has no 1/rho
                    grad = np.stack(
                        [(vals[:, 0] + rho * vals[:, 1]) / m,
                         rho * vals[:, 2] / m,
                         -vals[:, 0]], axis=1)
                    for i in range(z1_dim):
                        ref[i, j] += np.sum(
                            wq * rho * np.sum(grad * tests[i], axis=1))
        assert np.abs(B - ref).max() <= 1e-12 * np.abs(B).max()

    def test_constant_multiplier_column(self):
        cx = make_complex(2, 2)
        B = build_mode_system(MeshForms(cx, UNIT, UNIT_MATERIALS), 1).B
        M = assemble_mass(cx, UNIT, m=1, weight=1.0)
        ones = np.ones(cx.dim(0))
        # grad of a constant in tilde variables is (0, 0, -const)
        v = np.zeros(cx.dim(1))
        v[cx.block_slices(1)[2]] = -1.0
        assert np.allclose(B @ ones, M @ v, atol=1e-13 * np.abs(M.toarray()).max())


class TestLoad:
    def test_zero_source(self):
        cx = make_complex(1, 2)
        f = assemble_load(MeshForms(cx, UNIT), m=1,
                          source=lambda m, r, z: np.zeros(r.shape + (3,)))
        assert np.abs(f).max() == 0.0

    def test_linearity(self):
        cx = make_complex(2, 2)
        src = lambda m, r, z: np.stack([r * z, r**2, z], axis=-1)
        forms = MeshForms(cx, UNIT)
        f1 = assemble_load(forms, m=2, source=src)
        f3 = assemble_load(
            forms, m=2,
            source=lambda m, r, z: 3.0 * src(m, r, z))
        assert np.allclose(f3, 3 * f1, atol=1e-14 * np.abs(f1).max())

    def test_neumann_constant_field_edge_integral(self):
        # g = (0, 0, 1) on the east edge of the unit square: the load on a
        # u_theta basis function i equals int_edge B_i(1, z) * rho dz with
        # rho = 1 on that edge
        cx = make_complex(2, 2)
        geo = rectangle(0, 1, 0, 1, edge_labels={
            "west": "axis", "east": "neumann",
            "south": "dirichlet", "north": "dirichlet"})
        g = lambda m, r, z, n: np.stack(
            [np.zeros_like(r), np.zeros_like(r), np.ones_like(r)], axis=-1)
        f = assemble_load(MeshForms(cx, geo), m=1, neumann=g)
        sl = cx.block_slices(1)
        # only u_theta (X0) entries on the east edge are loaded
        assert np.abs(f[sl[0]]).max() <= 1e-14
        i_edge = sl[2].start + np.ravel_multi_index(
            (cx.s1.num_basis - 1, 2), cx.X0.shape)
        total = 0.0
        for x, w in zip(*_element_rule(cx.s2.breakpoints, 6)):
            fb, vb = cx.s2.eval_basis(x)
            full = np.zeros(cx.s2.num_basis)
            full[fb : fb + 3] = vb
            total += w * full[2]
        assert f[i_edge] == pytest.approx(total, rel=1e-12)

    def test_callback_shapes_are_checked(self):
        # p = 1 with one element: an edge has 3 points, so a scalar neumann
        # value per point would broadcast against 3 components
        cx = make_complex(1, 1)
        forms = MeshForms(cx, UNIT)
        vec = lambda m, r, z, *n: np.zeros(r.shape + (3,))
        assert not assemble_load(forms, 1, source=vec, neumann=vec).any()
        cases = [("source", lambda m, r, z: r, r"\(9,\), not \(9, 3\)"),
                 ("source", lambda m, r, z: np.zeros((len(r), 2)),
                  r"\(9, 2\), not \(9, 3\)"),
                 ("neumann", lambda m, r, z, n: r, r"\(3,\), not \(3, 3\)")]
        for name, fn, shapes in cases:
            with pytest.raises(AssemblyError, match=f"{name} has shape {shapes}"):
                assemble_load(forms, 1, **{name: fn})


class TestEssentialBC:
    def test_all_neumann_removes_nothing(self):
        cx = make_complex(2, 2)
        labels = {e: "neumann" for e in ("west", "east", "south", "north")}
        assert essential_dofs(cx, 1, labels).size == 0
        assert essential_dofs(cx, 0, labels).size == 0

    def test_all_pec_rectangle_count(self):
        cx = make_complex(2, 2)
        labels = {e: "dirichlet" for e in ("west", "east", "south", "north")}
        n1 = n2 = cx.s1.num_basis  # 4
        n2r = cx.s2r.num_basis     # 3
        # per edge: one factor row of the tangential meridian block plus one
        # X0 row; the four X0 corners are shared between adjacent edges
        expect = 2 * (n2r + n2) + 2 * ((n1 - 1) + n1) - 4
        assert essential_dofs(cx, 1, labels).size == expect

    def test_axis_never_constrained(self):
        cx = make_complex(2, 2)
        labels = {"west": "axis", "east": "dirichlet",
                  "south": "dirichlet", "north": "dirichlet"}
        dofs = essential_dofs(cx, 1, labels)
        sl = cx.block_slices(1)
        n2 = cx.s2.num_basis
        # interior west-edge u_theta DoFs: on the axis but not on the
        # south/north Dirichlet edges (corners are legitimately constrained
        # by those edges)
        west_theta = set(sl[2].start + np.arange(1, n2 - 1))
        assert not west_theta.intersection(dofs)
        # and the west meridian-tangential factor row stays free as well
        n2r = cx.s2r.num_basis
        west_vz = set(sl[1].start + np.arange(n2r))
        assert not west_vz.intersection(dofs)

    def test_gradient_maps_free_to_free(self):
        cx = make_complex(2, 3)
        labels = {"west": "axis", "east": "neumann",
                  "south": "neumann", "north": "dirichlet"}
        z1c = essential_dofs(cx, 1, labels)
        z0f = MeshForms(cx, rectangle(0, 1, 0, 1, edge_labels=labels)).free_z0
        G = cx.G.tocsc()
        for j in z0f:
            rows = G[:, j].nonzero()[0]
            assert not set(rows).intersection(z1c)

    def test_constrained_eigenvector_trace(self):
        # solved eigenmode has vanishing tangential trace on the PEC boundary
        cx = make_complex(2, 3)
        geo = pillbox_section(1.0, 1.0)
        sys_ = build_mode_system(MeshForms(cx, geo, UNIT_MATERIALS), m=1)
        K, M, _ = sys_.reduced()
        from axisiga.solve import solve_generalized_eig
        res = solve_generalized_eig(K, M, 1, sys_.G)
        u = sys_.expand_z1(res.eigenvectors[:, 0])
        ms = ModeSpace(cx, 1)
        ts = np.linspace(0, 1, 11)
        # east edge (rho = R): tangential directions are z and theta
        pts = np.array([(1.0, t) for t in ts])
        fe = ms.eval_field(1, u, pts, geo)
        scale = max(1.0, np.abs(fe.physical).max())
        assert np.abs(fe.physical[:, 1]).max() <= 1e-10 * scale
        assert np.abs(fe.physical[:, 2]).max() <= 1e-10 * scale
        # north edge (z = L): tangential directions are rho and theta
        pts = np.array([(t, 1.0) for t in ts])
        fe = ms.eval_field(1, u, pts, geo)
        assert np.abs(fe.physical[:, 0]).max() <= 1e-10 * scale
        assert np.abs(fe.physical[:, 2]).max() <= 1e-10 * scale

    def test_only_z0_and_z1(self):
        labels = {e: "dirichlet" for e in ("west", "east", "south", "north")}
        with pytest.raises(AssemblyError):
            essential_dofs(make_complex(1, 1), 2, labels)


class TestModeSystem:
    def test_build_and_shapes(self):
        cx = make_complex(2, 2)
        geo = pillbox_section(0.035, 0.1)
        sys_ = build_mode_system(MeshForms(cx, geo), m=26)
        n1, n0 = len(sys_.free_z1), len(sys_.free_z0)
        assert n1 < cx.dim(1) and n0 < cx.dim(0)    # PEC walls fix DoFs
        assert sys_.A.shape == sys_.M.shape == (n1, n1)
        assert sys_.K.shape == (n1 - n0, n1 - n0)
        assert sys_.B.shape == sys_.G.shape == (n1, n0)
        assert sys_.f.shape == (n1,)

    @pytest.mark.parametrize("name", ["pillbox-section", "rectangle"])
    def test_free_dofs_equal_restricted_full_space(self, name):
        # K, M, B, G and f are the full-space ones cut by hand to the
        # complement of essential_dofs, with difference 0, K the leading
        # block of A, which is formed from K to round-off
        geo = BUILTIN_GEOMETRIES[name]()
        cx = make_complex(2, 3)
        mats = MaterialConstants(2.0, 0.25)
        forms = MeshForms(cx, geo, mats)
        con0, con1 = (essential_dofs(cx, k, geo.edge_labels) for k in (0, 1))
        assert con0.size and con1.size
        r0 = np.setdiff1d(np.arange(cx.dim(0)), con0)
        r1 = np.setdiff1d(np.arange(cx.dim(1)), con1)
        cut = lambda X, cols: X.toarray()[np.ix_(r1, cols)]
        for m in (1, -3):
            sys_ = build_mode_system(forms, m, source=_source,
                                     neumann=_neumann)
            M = assemble_mass(cx, geo, m, weight=mats.eps)
            A = assemble_curlcurl(cx, geo, m, 1.0 / mats.mu)
            f = assemble_load(forms, m, source=_source, neumann=_neumann)
            assert np.array_equal(sys_.free_z1, r1)
            assert np.array_equal(sys_.free_z0, r0)
            assert np.array_equal(sys_.M.toarray(), cut(M, r1))
            lead = len(r1) - len(r0)
            assert np.array_equal(sys_.K.toarray(), cut(A, r1)[:lead, :lead])
            assert rel(sys_.A.toarray(), cut(A, r1)) <= 1e-13
            assert np.array_equal(sys_.B.toarray(), cut(M @ cx.G, r0))
            assert np.array_equal(sys_.G.toarray(), cut(cx.G, r0))
            assert np.array_equal(sys_.f, f[r1])
            u = sys_.expand_z1(np.ones(len(r1)))
            assert not u[con1].any() and u[r1].all()

    def test_mode_matrices_are_compact(self):
        # K, M and the A formed from K hold exactly their nnz entries, with
        # no spare capacity of a scipy sum kept through .base, and K and A
        # are exactly symmetric
        cx = make_complex(3, 4)
        forms = MeshForms(cx, pillbox_section(1.0, 1.0))
        for m in (1, -2, 26):
            sys_ = build_mode_system(forms, m)
            A = sys_.A
            for P in (sys_.K, A, sys_.M, *forms.mass2):
                for a in (P.data, P.indices):
                    assert a.size == P.nnz
                    assert a.base is None or a.base.size == a.size
            assert (sys_.K != sys_.K.T).nnz == 0
            assert (A != A.T).nnz == 0

    def test_reduced_gradient_is_the_kernel_basis(self):
        # reduced B is reduced M times reduced G exactly, and A G vanishes
        cx = make_complex(2, 3)
        geo = pillbox_section(1.0, 1.0)
        for m in (1, -26):
            sys_ = build_mode_system(MeshForms(cx, geo), m)
            A, M, B, G = sys_.A, sys_.M, sys_.B, sys_.G
            assert G.shape == B.shape
            assert abs(B - M @ G).max() == 0.0
            assert abs(A @ G).max() <= 1e-12 * abs(A).max()

    def test_no_stored_n_by_n_matrix_but_m(self):
        # the curl-curl matrix A is formed only when read: of the n x n
        # matrices of a mode only M is stored, with K of order n - k
        cx = make_complex(2, 3)
        sys_ = build_mode_system(MeshForms(cx, pillbox_section(1.0, 1.0)), 1)
        n, k = sys_.G.shape
        square = [name for name, value in vars(sys_).items()
                  if getattr(value, "shape", None) == (n, n)]
        assert square == ["M"]
        assert sys_.K.shape == (n - k, n - k)
        assert sys_.A is not sys_.A     # a new matrix on each read

    def test_mode_decoupling_is_structural(self):
        # systems for different modes share no mutable state
        cx = make_complex(1, 2)
        geo = pillbox_section(1.0, 1.0)
        forms = MeshForms(cx, geo)
        s1 = build_mode_system(forms, m=1)
        s2 = build_mode_system(forms, m=2)
        assert s1.K is not s2.K
        assert np.abs((s1.A - s2.A).toarray()).max() > 0  # genuinely m-dependent

    def test_one_mesh_serves_every_mode(self):
        # X + Y/m^2 from one MeshForms against a per-mode pointwise oracle
        # on a curved geometry
        cx = make_complex(2, 3)
        geo = quarter_annulus(1.0, 2.0)
        mats = MaterialConstants(2.0, 0.25)
        forms = MeshForms(cx, geo, mats)
        rel = lambda a, b: np.abs(a - b).max() / np.abs(b).max()
        C, G = cx.C.toarray(), cx.G.toarray()
        for m in (1, -1, 2, 26):
            sys_ = build_mode_system(forms, m)
            M = mats.eps * _oracle_mass(cx, geo, m, 1)
            A = C.T @ (_oracle_mass(cx, geo, m, 2) / mats.mu) @ C
            assert rel(sys_.M.toarray(), M) <= 1e-13
            assert rel(sys_.A.toarray(), 0.5 * (A + A.T)) <= 1e-13
            assert rel(sys_.B.toarray(), M @ G) <= 1e-13
        assert (build_mode_system(forms, 2).A
                != build_mode_system(forms, -2).A).nnz == 0


class TestErrorNorm:
    def test_zero_field_gives_reference_norm(self):
        # u_h = 0, k=0 reference rho: int rho^2 * rho drho dz = 1/4
        cx = make_complex(2, 2)
        err = l2_rho_error(MeshForms(cx, UNIT), 1, 0, np.zeros(cx.dim(0)),
                           lambda m, r, z: r)
        assert err == pytest.approx(0.5, rel=1e-13)

    def test_represented_field_has_zero_error(self):
        # all-ones X2 coefficients are the constant density 1 (partition of
        # unity); on the unit square det J = 1, so eta^{-1} gives 1
        cx = make_complex(2, 3)
        err = l2_rho_error(MeshForms(cx, UNIT), 2, 3, np.ones(cx.dim(3)),
                           lambda m, r, z: np.ones_like(r))
        assert err <= 1e-14

    def test_coefficient_count_must_match(self):
        # an extra trailing entry or a missing one is an error, not a
        # field whose tail is ignored or an IndexError
        cx = make_complex(2, 2)
        forms = MeshForms(cx, UNIT)
        u = np.ones(cx.dim(1))
        ref = lambda m, r, z: np.zeros(r.shape + (3,))
        assert np.isfinite(l2_rho_error(forms, 1, 1, u, ref))
        for bad in (np.append(u, 1e9), u[:-1]):
            with pytest.raises(AssemblyError, match="coefficients"):
                l2_rho_error(forms, 1, 1, bad, ref)

    def test_reference_shape_must_match(self):
        # (npts, 3) for k in {1, 2}, (npts,) for k in {0, 3}
        cx = make_complex(1, 1)
        forms = MeshForms(cx, UNIT)
        scalar = lambda m, r, z: r
        vector = lambda m, r, z: np.zeros(r.shape + (3,))
        column = lambda m, r, z: r[:, None]
        for k, good, bads in ((0, scalar, (vector, column)),
                              (1, vector, (scalar, column)),
                              (2, vector, (scalar,)), (3, scalar, (vector,))):
            u = np.ones(cx.dim(k))
            assert np.isfinite(l2_rho_error(forms, 1, k, u, good))
            for bad in bads:
                with pytest.raises(AssemblyError,
                                   match=r"reference has shape .*, not \(9"):
                    l2_rho_error(forms, 1, k, u, bad)


class TestSharedTables:
    """One MeshForms serves the loads and error norms of every mode."""

    def test_each_mode_matches_a_fresh_mesh(self):
        # a value kept on the tables that depends on the mode would leak
        # from one mode into the next
        cx = make_complex(2, 3)
        geo = quarter_annulus(1.0, 2.0)
        rng = np.random.default_rng(4)
        u1, u2 = rng.standard_normal(cx.dim(1)), rng.standard_normal(cx.dim(2))

        def results(forms, m):
            return (assemble_load(forms, m, source=_source),
                    assemble_load(forms, m, neumann=_neumann),
                    l2_rho_error(forms, m, 1, u1, _source),
                    l2_rho_error(forms, m, 2, u2, _source))

        shared = MeshForms(cx, geo)
        assert shared.edge_tables
        for m in (1, -3, 1):
            got, fresh = results(shared, m), results(MeshForms(cx, geo), m)
            for a, b in zip(got, fresh):
                assert np.array_equal(a, b)


class TestFactorTables:
    """A table keeps the 1D basis values of each direction, and the
    integrals contract them without forming the tensor values."""

    @pytest.mark.parametrize("name", BUILTIN_GEOMETRIES)
    def test_factors_equal_tensor_tabulation(self, name):
        # kron(P1, P2) of every Z^k factor is its tensor basis at the
        # table's grid, bit for bit against TensorSplineSpace.tabulate at
        # the same points
        geo = BUILTIN_GEOMETRIES[name]()
        cx = make_complex(3, 2)
        tab = _QuadTable(cx, geo)
        x1, x2 = (_element_rule(s.breakpoints, default_nquad(cx))[0]
                  for s in (cx.s1, cx.s2))
        pts = np.column_stack([np.repeat(x1, len(x2)), np.tile(x2, len(x1))])
        assert np.array_equal(geo.evaluate(pts)[0].reshape(tab.rho.shape),
                              tab.rho)
        for k in range(4):
            for (start, P1, P2), space, sl in zip(
                    tab.tables(k), cx.space_factors(k), cx.block_slices(k)):
                assert start == sl.start
                f1, v1, _, f2, v2, _ = space.tabulate(pts)
                i1 = f1[:, None] + np.arange(space.s1.degree + 1)
                i2 = f2[:, None] + np.arange(space.s2.degree + 1)
                rows = i1[:, :, None] * space.s2.num_basis + i2[:, None, :]
                want = np.zeros((space.dim, len(pts)))
                want[rows, np.arange(len(pts))[:, None, None]] = (
                    v1[:, :, None] * v2[:, None, :])
                assert np.array_equal(sp.kron(P1, P2).toarray(), want)

    def test_peak_memory_within_three_parts(self):
        # no triplets of all factor pairs at once and no tensor values of
        # the factors: the element blocks come from the 1D tables, and the
        # constructor's tracemalloc peak stays within 3x the bytes of the
        # four mass parts it keeps (3.3x with every factor's tensor values
        # held through the loop, 3.6x with each pair's blocks formed from
        # them)
        geo = BUILTIN_GEOMETRIES["rectangle"]()
        MeshForms(make_complex(3, 1), geo)    # lazy imports, the rule cache
        cx = make_complex(3, 16)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            forms = MeshForms(cx, geo)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        parts = sum(P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
                    for P in (*forms.mass, *forms.mass2))
        assert peak <= 3 * parts


# ---------------------------------------------------------------------------
# pointwise oracle for the batched tabulation
# ---------------------------------------------------------------------------

def _oracle_basis(cx, geo, m, k, xi):
    """Physical components (dim_k, ncomp) of every Z^k basis function at one
    parametric point, from map_point, jacobian and eval_basis only."""
    rho, _ = geo.map_point(*xi)
    J, det = geo.jacobian(*xi)
    ncomp = 3 if k in (1, 2) else 1
    blocks = []
    for c, space in enumerate(cx.space_factors(k)):
        full = []
        for s, x in ((space.s1, xi[0]), (space.s2, xi[1])):
            f, v = s.eval_basis(x)
            row = np.zeros(s.num_basis)
            row[f : f + len(v)] = v
            full.append(row)
        T = np.zeros((space.dim, ncomp))
        T[:, c] = np.outer(*full).ravel()
        blocks.append(T)
    T = np.vstack(blocks)
    if k == 1:      # covariant pair: J^{-T} v
        T[:, :2] = T[:, :2] @ np.linalg.inv(J)
    elif k == 2:    # Piola pair J v / det, density third component
        T[:, :2] = T[:, :2] @ J.T / det
        T[:, 2] /= det
    elif k == 3:
        T /= det
    if k == 0:
        return rho / m * T
    if k == 1:
        return np.column_stack([(rho * T[:, 0] - T[:, 2]) / m,
                                rho * T[:, 1] / m, T[:, 2]])
    if k == 2:
        return np.column_stack([T[:, 0], T[:, 1],
                                (rho * T[:, 2] + T[:, 0]) / m])
    return T


def _gauss_points(space, nq):
    return zip(*_element_rule(space.breakpoints, nq))


def _oracle_mass(cx, geo, m, k):
    nq = default_nquad(cx)
    M = np.zeros((cx.dim(k), cx.dim(k)))
    for x1, w1 in _gauss_points(cx.s1, nq):
        for x2, w2 in _gauss_points(cx.s2, nq):
            P = _oracle_basis(cx, geo, m, k, (x1, x2))
            rho = geo.map_point(x1, x2)[0]
            M += w1 * w2 * geo.jacobian(x1, x2)[1] * rho * (P @ P.T)
    return M


def _oracle_source_load(cx, geo, m, source):
    nq = default_nquad(cx)
    f = np.zeros(cx.dim(1))
    for x1, w1 in _gauss_points(cx.s1, nq):
        for x2, w2 in _gauss_points(cx.s2, nq):
            rho, z = geo.map_point(x1, x2)
            g = source(m, np.array([rho]), np.array([z]))[0]
            f += (w1 * w2 * geo.jacobian(x1, x2)[1] * rho
                  * _oracle_basis(cx, geo, m, 1, (x1, x2)) @ g)
    return f


def _oracle_neumann_load(cx, geo, m, neumann):
    nq = default_nquad(cx)
    f = np.zeros(cx.dim(1))
    edges = {"west": (0, 0.0), "east": (0, 1.0), "south": (1, 0.0),
             "north": (1, 1.0)}
    for edge, (fixed, value) in edges.items():
        if geo.edge_labels[edge] != "neumann":
            continue
        along = cx.s2 if fixed == 0 else cx.s1
        for t, w in _gauss_points(along, nq):
            xi = (value, t) if fixed == 0 else (t, value)
            rho, z = geo.map_point(*xi)
            J, _ = geo.jacobian(*xi)
            T = J[:, 1 - fixed]
            normal = np.array([T[1], -T[0]]) / np.hypot(*T)
            outward = J[:, fixed] * (1.0 if value == 1.0 else -1.0)
            normal *= np.sign(normal @ outward)
            g = neumann(m, np.array([rho]), np.array([z]), normal[None])[0]
            f += (w * np.hypot(*T) * rho
                  * _oracle_basis(cx, geo, m, 1, xi) @ g)
    return f


def _oracle_l2_error(cx, geo, m, k, u, reference):
    nq = default_nquad(cx)
    total = 0.0
    for x1, w1 in _gauss_points(cx.s1, nq):
        for x2, w2 in _gauss_points(cx.s2, nq):
            rho, z = geo.map_point(x1, x2)
            ref = reference(m, np.array([rho]), np.array([z])).ravel()
            diff = u @ _oracle_basis(cx, geo, m, k, (x1, x2)) - ref
            total += w1 * w2 * geo.jacobian(x1, x2)[1] * rho * (diff @ diff)
    return np.sqrt(total)


def _source(m, rho, z):
    return np.stack([rho * z, rho**2 + m, z * z - rho], axis=-1)


def _neumann(m, rho, z, normal):
    n_r, n_z = normal[..., 0], normal[..., 1]
    return np.stack([n_r * z, n_z * rho + m, rho * z + n_r], axis=-1)


def _scalar_reference(m, rho, z):
    return rho * z + m


def _repeated_knots():
    # interior multiplicities 2, 1, 3 and 1, 2 at p = 3: the first index
    # of an element is not e + const, and the reduced spaces keep a C^0 knot
    s1 = SplineSpace1D(KnotVector(3, [0, .2, .5, .7, 1], [4, 2, 1, 3, 4]))
    s2 = SplineSpace1D(KnotVector(3, [0, .1, .4, 1], [4, 1, 2, 4]))
    return DeRhamComplex2D(s1, s2), rectangle(0, 1, 0, 1)


def _uniform(name, degrees=(2, 2)):
    """The case of a builtin geometry and a 3 x 3 mesh."""
    return lambda: (DeRhamComplex2D(*(SplineSpace1D(KnotVector.uniform(p, 3))
                                      for p in degrees)),
                    BUILTIN_GEOMETRIES[name]())


_ORACLE_CASES = [
    pytest.param(_uniform(name), m, id=name if m == -3 else f"{name}-m{m}")
    for name in ("rectangle", "pillbox-section", "quarter-annulus")
    for m in (-3, 1, 26)] + [
    pytest.param(_repeated_knots, m, id="repeated-knots" + suffix)
    for m, suffix in ((-3, ""), (26, "-m26"))]


def rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestPointwiseOracle:
    """The batched tabulation reproduces a point-by-point assembly built from
    the scalar public API to round-off."""

    @pytest.mark.parametrize("case,m", _ORACLE_CASES + [
        # unequal degrees: a swapped direction in a factor table shows
        pytest.param(_uniform("quarter-annulus", (2, 3)), -3,
                     id="quarter-annulus-p2p3")])
    def test_mass_and_loads(self, case, m):
        cx, geo = case()
        for k in range(4):
            M = assemble_mass(cx, geo, m, k=k).toarray()
            assert rel(M, _oracle_mass(cx, geo, m, k)) <= 1e-13
        forms = MeshForms(cx, geo)
        f = assemble_load(forms, m, source=_source)
        assert rel(f, _oracle_source_load(cx, geo, m, _source)) <= 1e-13
        f = assemble_load(forms, m, neumann=_neumann)
        ref = _oracle_neumann_load(cx, geo, m, _neumann)
        if "neumann" not in geo.edge_labels.values():   # the pillbox
            assert not f.any() and not ref.any()
        else:
            assert rel(f, ref) <= 1e-13

    @pytest.mark.parametrize("case,m", _ORACLE_CASES)
    def test_error_norms(self, case, m):
        cx, geo = case()
        forms = MeshForms(cx, geo)
        rng = np.random.default_rng(11)
        for k in range(4):
            u = rng.standard_normal(cx.dim(k))
            ref = _source if k in (1, 2) else _scalar_reference
            exact = _oracle_l2_error(cx, geo, m, k, u, ref)
            assert l2_rho_error(forms, m, k, u, ref) == pytest.approx(
                exact, rel=1e-13)


def _oracle_split(M1, M2):
    """(X, Y) of M(m) = X + Y / m**2 from its values at m = 1 and m = 2."""
    return (4 * M2 - M1) / 3, 4 * (M1 - M2) / 3


class TestSplitParts:
    """The parts X and Y themselves, not only X + Y / m**2, match the split
    of the pointwise oracle."""

    @pytest.mark.parametrize("name", BUILTIN_GEOMETRIES)
    def test_mass_parts_every_degree(self, name):
        geo = BUILTIN_GEOMETRIES[name]()
        cx = make_complex(2, 3)
        tab = _QuadTable(cx, geo)
        for k in range(4):
            ref = _oracle_split(*(_oracle_mass(cx, geo, m, k) for m in (1, 2)))
            for part, oracle in zip(_mass_parts(tab, k, 1.0), ref):
                # k = 0 has no X and k = 3 no Y: both sides are exactly 0
                assert (np.abs(part.toarray() - oracle).max()
                        <= 1e-13 * np.abs(oracle).max())

    def test_mesh_forms_parts(self):
        # the Z^1 mass parts on the free DoFs, the Z^2 parts on all of Z^2,
        # and the curl-curl of a mode from them through the restricted curl
        cx = make_complex(2, 3)
        geo = quarter_annulus(1.0, 2.0, edge_labels={
            "west": "neumann", "east": "dirichlet",
            "south": "neumann", "north": "dirichlet"})
        mats = MaterialConstants(2.0, 0.25)
        forms = MeshForms(cx, geo, mats)
        r = forms.free_z1
        assert len(r) < cx.dim(1)
        M = [mats.eps * _oracle_mass(cx, geo, m, 1) for m in (1, 2)]
        for part, oracle in zip(forms.mass, _oracle_split(*M)):
            assert rel(part.toarray(), oracle[np.ix_(r, r)]) <= 1e-13
        M2 = [_oracle_mass(cx, geo, m, 2) / mats.mu for m in (1, 2)]
        for part, oracle in zip(forms.mass2, _oracle_split(*M2)):
            assert rel(part.toarray(), oracle) <= 1e-13
        Cr = cx.C.toarray()[:, r]
        for m in (1, -3):
            A = Cr.T @ (_oracle_mass(cx, geo, m, 2) / mats.mu) @ Cr
            sys_ = build_mode_system(forms, m)
            assert rel(sys_.A.toarray(), 0.5 * (A + A.T)) <= 1e-13


# ---------------------------------------------------------------------------
# band assembly against the Kronecker product of the basis matrices
# ---------------------------------------------------------------------------

def _pair_matrix(tf, th, W, dim):
    """The block of two factors with the tables tf, th of
    ``_QuadTable.tables``, K_f diag(W) K_h^T with K = kron(P1, P2) the
    tensor basis at the grid points, as a (dim, dim) CSR."""
    (sf, P1f, P2f), (sh, P1h, P2h) = tf, th
    B = (sp.kron(P1f, P2f, format="csr") @ sp.diags(W.ravel())
         @ sp.kron(P1h, P2h, format="csr").T).tocoo()
    return sp.csr_matrix((B.data, (B.row + sf, B.col + sh)),
                         shape=(dim, dim))


def _kron_mass_parts(tab, k, weight):
    """(X, Y) summed as one CSR matrix per factor pair f <= h, the diagonal
    pairs at half weight, and symmetrized as S + S^T: scipy's sums drop
    exact zeros."""
    wq = tab.dx * weight
    g = tab.directions(k)
    inv_m = np.isin(np.arange(g.shape[-1]), _INV_M_COMPONENTS[k])
    tables, dim = tab.tables(k), tab.complex.dim(k)
    parts = []
    for gp in (g[..., ~inv_m], g[..., inv_m]):
        S = sp.csr_matrix((dim, dim))
        for f, tf in enumerate(tables):
            for h, th in enumerate(tables[f:], f):
                W = (0.5 if f == h else 1.0) * wq * np.sum(gp[f] * gp[h], -1)
                if W.any():
                    S = S + _pair_matrix(tf, th, W, dim)
        parts.append((S + S.T).tocsr())
    return parts


def _shell():
    from test_curved_cavity import _shell_section
    return make_complex(3, 4), _shell_section()


_BAND_CASES = {
    "pillbox-p3-8x8": lambda: (make_complex(3, 8), pillbox_section(1.0, 1.0)),
    # exact zeros: without dropping them the Z^1 parts hold 3576 entries
    # instead of 3216
    "rectangle-p2-4x4": lambda: (make_complex(2, 4),
                                 BUILTIN_GEOMETRIES["rectangle"]()),
    "shell-p3-4x4": _shell,
    "repeated-knots": _repeated_knots,
}


class TestBandAssembly:
    """Each mass part, summed straight into the band storage of its
    Kronecker pattern, has the sparsity pattern of the sum of per-pair
    products K_f diag(W) K_h^T exactly and its values to round-off."""

    @staticmethod
    def _assert_same(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert (np.abs(got.data - want.data).max(initial=0.0)
                <= 1e-14 * np.abs(want.data).max(initial=0.0))

    @pytest.mark.parametrize("case", _BAND_CASES)
    def test_parts_match_triplet_summation(self, case):
        cx, geo = _BAND_CASES[case]()
        tab = _QuadTable(cx, geo)
        for k in (1, 2):
            for got, want in zip(_mass_parts(tab, k, 2.0),
                                 _kron_mass_parts(tab, k, 2.0)):
                assert want.nnz > 0
                self._assert_same(got, want)

    @pytest.mark.parametrize("case", ["pillbox-p3-8x8", "repeated-knots"])
    def test_free_dofs_match_the_restricted_part(self, case):
        # the restriction to the free DoFs drops band rows and columns; the
        # case's complex on a rectangle with three PEC edges
        cx, _ = _BAND_CASES[case]()
        geo = rectangle(0.5, 1.5, 0.0, 1.0, edge_labels={
            "west": "dirichlet", "east": "dirichlet",
            "south": "neumann", "north": "dirichlet"})
        r = np.setdiff1d(np.arange(cx.dim(1)),
                         essential_dofs(cx, 1, geo.edge_labels))
        tab = _QuadTable(cx, geo)
        for got, want in zip(_mass_parts(tab, 1, 1.0, r),
                             _kron_mass_parts(tab, 1, 1.0)):
            self._assert_same(got, want[r][:, r].tocsr())

    @pytest.mark.parametrize("case", _BAND_CASES)
    def test_k_is_the_leading_block_of_the_restricted_curlcurl(self, case):
        # K of the meridional columns of the curl is the leading block of
        # the curl-curl matrix of all columns, cut to the free DoFs, entry
        # for entry; the A formed from K is that matrix to round-off
        cx, geo = _BAND_CASES[case]()
        forms = MeshForms(cx, geo)
        r = forms.free_z1
        lead = len(r) - len(forms.free_z0)
        for m in (1, -3):
            sys_ = build_mode_system(forms, m)
            A = assemble_curlcurl(cx, geo, m, 1.0 / VACUUM.mu)[r][:, r]
            want, got = A[:lead, :lead].tocsr(), sys_.K.copy()
            want.sort_indices()
            got.sort_indices()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert rel(sys_.A.toarray(), A.toarray()) <= 1e-13

    def test_mode_mass_is_exactly_symmetric(self):
        # a block (h, f) sums the same products in the same order as its
        # transpose (f, h)
        cx, geo = _BAND_CASES["shell-p3-4x4"]()
        forms = MeshForms(cx, geo)
        for m in (1, -3):
            M = build_mode_system(forms, m).M
            assert (M != M.T).nnz == 0


class TestKernelCertificate:
    """MeshForms certifies C G = 0 on its free DoFs once per mesh: the
    ratio max|C G| / (max|C| max|G|) is its ``kernel_residual``, and above
    KERNEL_TOL it is an AssemblyError that names range(G).  Every A of the
    mesh is C^T M_2 C, so the certificate gives A G = 0 for every mode."""

    @pytest.mark.parametrize("case", _BAND_CASES)
    def test_zero_on_the_meshes(self, case):
        # C G has no stored entry: the certificate reads exactly 0
        forms = MeshForms(*_BAND_CASES[case]())
        assert forms.kernel_residual == 0.0
        assert KERNEL_TOL == 1e3 * np.finfo(float).eps

    def test_non_kernel_column_with_its_diagonal_row_rejected(self):
        # the meridional part of one gradient replaced by random entries: the
        # diagonal row stays, so the leading block of A would stay definite
        cx = make_complex(2, 3)
        geo = pillbox_section(1.0, 1.0)
        n, k = cx.G.shape
        free = MeshForms(cx, geo).free_z0[0]
        wrong = cx.G.tolil()
        wrong[:n - k, free] = np.random.default_rng(1).standard_normal(
            (n - k, 1))
        cx.G = wrong.tocsr()
        with pytest.raises(AssemblyError, match=r"range\(G\)"):
            MeshForms(cx, geo)

    def test_perturbed_curl_entry_rejected(self):
        # a relative 1e-8 in one entry of C on a free column
        cx = make_complex(2, 3)
        geo = pillbox_section(1.0, 1.0)
        forms = MeshForms(cx, geo)
        wrong = cx.C.tolil()
        row, col = forms.curl[:, 0].nonzero()[0][0], forms.free_z1[0]
        wrong[row, col] *= 1.0 + 1e-8
        cx.C = wrong.tocsr()
        with pytest.raises(AssemblyError, match=r"range\(G\)"):
            MeshForms(cx, geo)

    def test_constrained_dofs_do_not_count(self):
        # a gradient column of a DoF a dirichlet edge fixes is not in the
        # free G, and so not certified
        cx = make_complex(2, 3)
        geo = pillbox_section(1.0, 1.0)
        fixed = essential_dofs(cx, 0, geo.edge_labels)[0]
        n, k = cx.G.shape
        wrong = cx.G.tolil()
        wrong[:n - k, fixed] = np.ones((n - k, 1))
        cx.G = wrong.tocsr()
        assert MeshForms(cx, geo).kernel_residual == 0.0


# ---------------------------------------------------------------------------
# loads and error norms against the per-factor direction tensor
# ---------------------------------------------------------------------------

def _mode_directions(tab, m, k):
    """g (nfactor, N1, N2, ncomp): eta_m^{-1} of the push-forward of each
    factor's unit tilde component at every point of tab."""
    n = len(tab.complex.space_factors(k))
    unit = np.broadcast_to(np.eye(n)[:, None, None],
                           (n,) + tab.rho.shape + (n,))
    U = tilde_push_forward(k, tab.J, tab.det, unit)
    U = U if k in (1, 2) else U[..., 0]
    return eta_inverse(m, k, tab.rho, U).reshape(U.shape[:3] + (-1,))


def _direction_load(tab, m, values):
    """The load P1 W P2^T per factor with W = dx sum_c g_fc values_c."""
    w = np.einsum("fxyc,xyc,xy->fxy", _mode_directions(tab, m, 1), values,
                  tab.dx)
    return np.concatenate([P1 @ wf @ P2.T
                           for (_, P1, P2), wf in zip(tab.tables(1), w)],
                          axis=None)


def _direction_error(tab, m, k, u, reference):
    """The error norm with u_h = sum_f (P1^T U_f P2) g_f."""
    phys = 0.0
    for (start, P1, P2), g in zip(tab.tables(k), _mode_directions(tab, m, k)):
        U = u[start:start + P1.shape[0] * P2.shape[0]].reshape(P1.shape[0], -1)
        phys = phys + (P1.T @ U @ P2)[..., None] * g
    ref = tab.at_points("reference", reference, m,
                        tail=(3,) if k in (1, 2) else ()).reshape(phys.shape)
    return float(np.sqrt(np.sum(np.sum((phys - ref) ** 2, axis=-1) * tab.dx)))


def _neumann_shell():
    """The shell with its three edges off the axis labelled neumann."""
    cx, geo = _shell()
    return cx, NurbsGeometry(geo.basis, geo.control, {
        "west": "axis", "east": "neumann",
        "south": "neumann", "north": "neumann"})


class TestDirectionTensorOracle:
    """A load maps its data and an error norm its field once per point;
    both agree with contracting a per-factor direction tensor, each unit
    tilde component pushed through both maps, to round-off."""

    @pytest.mark.parametrize("m", [1, -2, 3, 26])
    @pytest.mark.parametrize("case", [
        pytest.param(_uniform("quarter-annulus", (3, 3)), id="quarter-annulus"),
        pytest.param(_neumann_shell, id="shell"),
        pytest.param(_repeated_knots, id="repeated-knots")])
    def test_loads_and_norms(self, case, m):
        cx, geo = case()
        forms = MeshForms(cx, geo)
        assert len(forms.edge_tables) >= 3
        tab = forms.table
        want = _direction_load(tab, m, tab.at_points("source", _source, m,
                                                     tail=(3,)))
        assert rel(assemble_load(forms, m, source=_source), want) <= 1e-15
        want = sum(_direction_load(t, m, t.at_points("neumann", _neumann, m,
                                                     tail=(3,)))
                   for t in forms.edge_tables)
        assert rel(assemble_load(forms, m, neumann=_neumann), want) <= 1e-15
        rng = np.random.default_rng(5)
        for k in range(4):
            u = rng.standard_normal(cx.dim(k))
            ref = _source if k in (1, 2) else _scalar_reference
            want = _direction_error(tab, m, k, u, ref)
            assert abs(l2_rho_error(forms, m, k, u, ref) - want) <= 1e-15 * want


# ---------------------------------------------------------------------------
# exact symmetrization of the curl-curl product
# ---------------------------------------------------------------------------

def _scipy_symmetrized(curl, M2):
    """(A + A^T) / 2 of A = curl^T M2 curl as scipy's sum gives it, with
    exactly nnz entries."""
    A = curl.T.tocsr() @ (M2 @ curl)
    A = A + A.T
    A.data *= 0.5
    return _compact(A)


def _unmirrored(A) -> int:
    """Entries of A whose transposed position holds none."""
    S = A.copy()
    S.data[:] = 1.0
    return (S != S.T).nnz


_SYMMETRIZATION_MESHES = {
    "pillbox-p3-8x8": _BAND_CASES["pillbox-p3-8x8"],
    "rectangle-p3-16x16": lambda: (make_complex(3, 16),
                                   BUILTIN_GEOMETRIES["rectangle"]()),
    "rectangle-p2-4x4": _BAND_CASES["rectangle-p2-4x4"],
    "shell-p3-4x4": _shell,
}


class TestSymmetrization:
    """The curl-curl product of the free columns of the curl is scipy's
    (A + A^T) / 2 of it, bitwise, whether the sum is taken in A's own data
    (the product's pattern is symmetric) or by scipy (SpGEMM left entries
    without a mirror), and so is the K of a mode, the product of the
    meridional columns."""

    @pytest.mark.parametrize("mesh,m,unmirrored", [
        ("pillbox-p3-8x8", 1, False), ("pillbox-p3-8x8", 26, False),
        ("rectangle-p3-16x16", 1, True), ("rectangle-p3-16x16", 2, True),
        ("rectangle-p3-16x16", 3, False), ("rectangle-p2-4x4", -2, False),
        ("shell-p3-4x4", 1, False)])
    def test_equals_scipy_sum(self, mesh, m, unmirrored):
        forms = MeshForms(*_SYMMETRIZATION_MESHES[mesh]())
        M2 = _at_mode(forms.mass2, m)
        curl = forms.complex.C[:, forms.free_z1]
        product = curl.T.tocsr() @ (M2 @ curl)
        assert (_unmirrored(product) > 0) == unmirrored
        for got, want in ((_curlcurl(curl, M2), _scipy_symmetrized(curl, M2)),
                          (build_mode_system(forms, m).K,
                           _scipy_symmetrized(forms.curl, M2))):
            assert got.data.size == got.indices.size == got.nnz
            assert (got != got.T).nnz == 0
            got, want = got.copy(), want.copy()
            got.sort_indices()
            want.sort_indices()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_k_compacted_where_mirror_zeros_dropped(self):
        # on this mesh SpGEMM drops exactly-zero sums of the meridional
        # product in mirror pairs: the pattern stays symmetric, but the
        # arrays keep the size SpGEMM bounded them by, which K must not
        forms = MeshForms(make_complex(2, 8), BUILTIN_GEOMETRIES["rectangle"]())
        for m in (2, -2):
            M2 = _at_mode(forms.mass2, m)
            product = forms.curl.T.tocsr() @ (M2 @ forms.curl)
            assert _unmirrored(product) == 0
            assert product.data.base.size > product.nnz
            K = build_mode_system(forms, m).K
            for a in (K.data, K.indices):
                assert a.size == K.nnz
                assert a.base is None or a.base.size == a.size
            want = _scipy_symmetrized(forms.curl, M2)
            K.sort_indices()
            want.sort_indices()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(K, name), getattr(want, name))

    def test_sum_of_exactly_zero_dropped(self):
        # an entry whose mirror is its negative sums to 0, which scipy's
        # sum does not store
        curl = sp.identity(2, format="csr")
        M2 = sp.csr_matrix(np.array([[1.0, 1.0], [-1.0, 2.0]]))
        got = _curlcurl(curl, M2)
        assert got.nnz == got.data.size == 2
        assert np.array_equal(got.toarray(), np.diag([1.0, 2.0]))
        want = _scipy_symmetrized(curl, M2)
        assert np.array_equal(got.indices, want.indices)
