import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from axisiga.assembly import (
    AssemblyError,
    MaterialConstants,
    MeshForms,
    VACUUM,
    apply_essential_bc,
    assemble_curlcurl,
    assemble_load,
    assemble_mass,
    build_mode_system,
    default_nquad,
    essential_dofs,
    free_dofs,
    l2_rho_error,
)
from axisiga.derham import DeRhamComplex2D, DeRhamError, ModeSpace
from axisiga.geometry import pillbox_section, quarter_annulus, rectangle
from axisiga.quadrature import gauss_legendre
from axisiga.splines import KnotVector, SplineSpace1D


def make_complex(p, nel):
    s = lambda: SplineSpace1D(KnotVector.uniform(p, nel))
    return DeRhamComplex2D(s(), s())


UNIT = rectangle(0, 1, 0, 1)
UNIT_MATERIALS = MaterialConstants(1.0, 1.0)


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
        i = cx.X0.ravel(1, 1)
        assert M[i, i] == pytest.approx(1.0 / (18 * m**2), rel=1e-13)

    def test_vector_mass_exact_entry_symbolic(self):
        # k=1 diagonal entry for an X0-factor (u_theta) basis function,
        # cross-checked against symbolic integration of the eta^{-1} integrand
        cx = make_complex(1, 1)
        m = 2
        M = assemble_mass(cx, UNIT, m=m, k=1).toarray()
        sl = cx.block_slices(1)
        i = sl[2].start + cx.X0.ravel(1, 1)
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
        A, M, _, _ = sys_.reduced()
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
        rule = gauss_legendre(nq)
        ref = np.zeros_like(B)
        z1_dim = cx.dim(1)
        eye = np.eye(z1_dim)
        zb = cx.s1.breakpoints
        for e1 in range(nel):
            for e2 in range(nel):
                x1, w1 = rule.mapped(zb[e1], zb[e1 + 1])
                x2, w2 = rule.mapped(zb[e2], zb[e2 + 1])
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
        i_edge = sl[2].start + cx.X0.ravel(cx.s1.num_basis - 1, 2)
        rule = gauss_legendre(6)
        total = 0.0
        for a, b in cx.s2.elements:
            xs, ws = rule.mapped(a, b)
            for x, w in zip(xs, ws):
                fb, vb = cx.s2.eval_basis(x)
                full = np.zeros(cx.s2.num_basis)
                full[fb : fb + 3] = vb
                total += w * full[2]
        assert f[i_edge] == pytest.approx(total, rel=1e-12)


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
        z0f = free_dofs(cx.dim(0), essential_dofs(cx, 0, labels))
        G = cx.G.tocsc()
        for j in z0f:
            rows = G[:, j].nonzero()[0]
            assert not set(rows).intersection(z1c)

    def test_constrained_eigenvector_trace(self):
        # solved eigenmode has vanishing tangential trace on the PEC boundary
        cx = make_complex(2, 3)
        geo = pillbox_section(1.0, 1.0)
        sys_ = build_mode_system(MeshForms(cx, geo, UNIT_MATERIALS), m=1)
        A, M, _, _ = sys_.reduced()
        from axisiga.solve import solve_generalized_eig
        res = solve_generalized_eig(A, M, 1, sys_.reduced_gradient())
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

    def test_reduction_helpers(self):
        cx = make_complex(1, 2)
        labels = {"west": "axis", "east": "dirichlet",
                  "south": "neumann", "north": "neumann"}
        M = assemble_mass(cx, UNIT, m=1)
        con = essential_dofs(cx, 1, labels)
        fr = free_dofs(cx.dim(1), con)
        red = apply_essential_bc(M, fr, fr)
        assert red.shape == (len(fr), len(fr))
        assert sp.issparse(red)

    def test_only_z0_and_z1(self):
        labels = {e: "dirichlet" for e in ("west", "east", "south", "north")}
        with pytest.raises(AssemblyError):
            essential_dofs(make_complex(1, 1), 2, labels)


class TestModeSystem:
    def test_build_and_shapes(self):
        cx = make_complex(2, 2)
        geo = pillbox_section(0.035, 0.1)
        sys_ = build_mode_system(MeshForms(cx, geo), m=26)
        assert sys_.A.shape == (cx.dim(1), cx.dim(1))
        assert sys_.B.shape == (cx.dim(1), cx.dim(0))
        assert sys_.parity == "symmetric"
        assert sys_.materials is VACUUM

    def test_reduced_gradient_is_the_kernel_basis(self):
        # reduced B is reduced M times reduced G exactly, and A G vanishes
        cx = make_complex(2, 3)
        geo = pillbox_section(1.0, 1.0)
        for m in (1, -26):
            sys_ = build_mode_system(MeshForms(cx, geo), m)
            A, M, B, _ = sys_.reduced()
            G = sys_.reduced_gradient()
            assert G.shape == B.shape
            assert abs(B - M @ G).max() == 0.0
            assert abs(A @ G).max() <= 1e-12 * abs(A).max()

    def test_mode_decoupling_is_structural(self):
        # systems for different modes share no mutable state
        cx = make_complex(1, 2)
        geo = pillbox_section(1.0, 1.0)
        forms = MeshForms(cx, geo)
        s1 = build_mode_system(forms, m=1)
        s2 = build_mode_system(forms, m=2)
        assert s1.A is not s2.A
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
    rule = gauss_legendre(nq)
    for a, b in space.elements:
        yield from zip(*rule.mapped(a, b))


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


def _source(m, rho, z):
    return np.stack([rho * z, rho**2 + m, z * z - rho], axis=-1)


def _neumann(m, rho, z, normal):
    n_r, n_z = normal[..., 0], normal[..., 1]
    return np.stack([n_r * z, n_z * rho + m, rho * z + n_r], axis=-1)


class TestPointwiseOracle:
    """The batched tabulation reproduces a point-by-point assembly built from
    the scalar public API to round-off."""

    @pytest.mark.parametrize("name,m", [
        pytest.param(name, m, id=name if m == -3 else f"{name}-m{m}")
        for name in ("rectangle", "pillbox-section", "quarter-annulus")
        for m in (-3, 1, 26)])
    def test_mass_and_loads(self, name, m):
        from axisiga.geometry import BUILTIN_GEOMETRIES
        geo = BUILTIN_GEOMETRIES[name]()
        cx = make_complex(2, 3)
        rel = lambda a, b: np.abs(a - b).max() / np.abs(b).max()
        for k in range(4):
            M = assemble_mass(cx, geo, m, k=k).toarray()
            assert rel(M, _oracle_mass(cx, geo, m, k)) <= 1e-13
        forms = MeshForms(cx, geo)
        f = assemble_load(forms, m, source=_source)
        assert rel(f, _oracle_source_load(cx, geo, m, _source)) <= 1e-13
        f = assemble_load(forms, m, neumann=_neumann)
        ref = _oracle_neumann_load(cx, geo, m, _neumann)
        if name == "pillbox-section":   # PEC walls and the axis only
            assert not f.any() and not ref.any()
        else:
            assert rel(f, ref) <= 1e-13
