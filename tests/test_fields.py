"""Fields, L2 projection, and the shifted (moment + interface-average) projection.

The shifted projection is checked against an independent oracle built in the
monomial basis (different basis, different assembly path) and against frozen
hand values like P*(x^3) = (3/5)x on the reference cell.
"""

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
from scipy.integrate import quad

from dgcentral.basis import gauss_rule, legendre_table
from dgcentral.fields import (
    ModalField,
    SpaceKind,
    _mass_vector,
    _weak_local_system_1d,
    basis_table,
    jacobian,
    l2_project,
    mass_weights,
    sample,
    shift_local_matrix_1d,
    shift_local_matrix_2d,
    shifted_projection,
    shifted_projection_1d,
    shifted_projection_2d,
)
from dgcentral.mesh import Mesh1D, alpha_mesh, random_mesh, tensor_mesh, uniform_mesh
from dgcentral.operators import SpatialOperator
from dgcentral.study import PROBLEMS


class TestSpaceKind:
    def test_dof_counts(self):
        assert SpaceKind("P1D", 2).dof == 3
        assert SpaceKind("Q2D", 2).dof == 9
        assert SpaceKind("P2D", 2).dof == 6
        assert SpaceKind("P2D", 3).dof == 10

    def test_degree_ordering(self):
        assert SpaceKind("P1D", 2).degrees == (0, 1, 2)
        assert SpaceKind("Q2D", 1).degrees == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert SpaceKind("P2D", 1).degrees == ((0, 0), (0, 1), (1, 0))

    def test_invalid(self):
        with pytest.raises(ValueError):
            SpaceKind("P3D", 2)
        with pytest.raises(ValueError):
            SpaceKind("P1D", -1)


def test_sample_puts_cells_first_then_points():
    mx, my = alpha_mesh(5, 0.2, (0.0, 1.0)), random_mesh(3, 0.3, 4, (2.0, 3.0))
    xi, eta = np.array([-0.5, 0.25]), np.array([-0.75, 0.0, 0.5, 0.9])
    vals = sample(lambda x, y: x + 10.0 * y, tensor_mesh(mx, my), xi, eta)
    assert vals.shape == (5, 3, 2, 4)
    x = mx.centers[:, None] + 0.5 * mx.widths[:, None] * xi  # (Nx, Qx)
    y = my.centers[:, None] + 0.5 * my.widths[:, None] * eta  # (Ny, Qy)
    for i, j, q, r in np.ndindex(vals.shape):
        assert vals[i, j, q, r] == pytest.approx(x[i, q] + 10.0 * y[j, r], rel=1e-15)


def test_sample_maps_reference_endpoints_onto_stored_nodes():
    mesh = random_mesh(40, 0.5, 8, (0.0, 2.0 * np.pi))
    ends = sample(lambda x: x, mesh, np.array([-1.0, 1.0]))
    np.testing.assert_array_equal(ends, np.stack([mesh.nodes[:-1], mesh.nodes[1:]], axis=1))


@pytest.mark.parametrize("kind", ["P1D", "Q2D", "P2D"])
@pytest.mark.parametrize("k", range(5))
def test_basis_table_is_a_product_of_legendre_tables(kind, k):
    space = SpaceKind(kind, k)
    xi = [np.random.default_rng(k).uniform(-1.0, 1.0, n) for n in (3, 5)[: space.dimension]]
    tables = [legendre_table(k, x) for x in xi]
    got = basis_table(space, *xi)
    assert got.shape == (space.dof,) + tuple(x.size for x in xi)
    for idx, deg in enumerate(space.degrees):
        expected = tables[0][deg] if kind == "P1D" else np.outer(tables[0][deg[0]], tables[1][deg[1]])
        np.testing.assert_array_equal(got[idx], expected)


def _mesh(dimension):
    axis = uniform_mesh(3, (0.0, 1.0))
    return axis if dimension == 1 else tensor_mesh(axis, axis)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ModalField(SpaceKind("P1D", 1), _mesh(1), np.zeros((3, 2))).eval_at(0.5, 0.5), ValueError),
        (lambda: ModalField(SpaceKind("Q2D", 1), _mesh(2), np.zeros((3, 3, 4))).eval_at(0.5), ValueError),
        (lambda: ModalField(SpaceKind("Q2D", 1), _mesh(1), np.zeros((3, 4))), TypeError),
        (lambda: ModalField(SpaceKind("P1D", 1), _mesh(2), np.zeros((3, 3, 2))), TypeError),
        (lambda: l2_project(np.sin, _mesh(2), SpaceKind("P1D", 1)), TypeError),
        (lambda: l2_project(lambda x, y: x * y, _mesh(1), SpaceKind("P2D", 1)), TypeError),
        (lambda: SpatialOperator(_mesh(2), SpaceKind("P1D", 1)), TypeError),
        (lambda: SpatialOperator(_mesh(1), SpaceKind("Q2D", 1)), TypeError),
    ],
    ids=[
        "eval_at-1D-two-coords",
        "eval_at-2D-one-coord",
        "field-Q2D-on-1D-mesh",
        "field-P1D-on-2D-mesh",
        "l2_project-P1D-on-2D-mesh",
        "l2_project-P2D-on-1D-mesh",
        "operator-P1D-on-2D-mesh",
        "operator-Q2D-on-1D-mesh",
    ],
)
def test_dimension_mismatch_is_rejected(call, error):
    with pytest.raises(error):
        call()


def _legendre_coeff_oracle(f, lo, hi, k):
    """L2 projection coefficients on one cell via scipy.integrate.quad."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    out = []
    for m in range(k + 1):
        e = np.zeros(m + 1)
        e[m] = 1.0
        val, _ = quad(lambda xi: f(mid + half * xi) * npleg.legval(xi, e), -1.0, 1.0, limit=200)
        out.append((2 * m + 1) / 2.0 * val)
    return np.array(out)


def test_l2_project_matches_quad_oracle():
    f = lambda x: np.exp(np.sin(x))
    mesh = Mesh1D(np.array([0.2, 1.1]))
    field = l2_project(f, mesh, SpaceKind("P1D", 3))
    np.testing.assert_allclose(field.coeffs[0], _legendre_coeff_oracle(f, 0.2, 1.1, 3), atol=1e-12)


def test_l2_project_reproduces_polynomials():
    mesh = random_mesh(5, 0.4, 3, (0.0, 2.0))
    f = lambda x: 1.0 - 2.0 * x + 0.5 * x**2
    field = l2_project(f, mesh, SpaceKind("P1D", 2))
    for x in np.linspace(0.0, 2.0, 33):
        assert field.eval_at(x) == pytest.approx(f(x), abs=1e-13)


def test_l2_project_error_decays_at_order_k_plus_1():
    f = lambda x: np.exp(np.sin(x))
    space = SpaceKind("P1D", 2)
    errs = []
    for n in (8, 16, 32):
        mesh = uniform_mesh(n, (0.0, 2.0 * np.pi))
        field = l2_project(f, mesh, space)
        xs = np.linspace(0.0, 2.0 * np.pi, 500, endpoint=False)
        errs.append(max(abs(field.eval_at(x) - f(x)) for x in xs))
    assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(8.0, rel=0.3)


def test_l2_project_2d_exact_for_in_space_function():
    mesh = tensor_mesh(uniform_mesh(3, (0.0, 1.0)), uniform_mesh(2, (0.0, 1.0)))
    f = lambda x, y: x * y  # total degree 2: inside P2D k=2 and Q2D k=1
    for kind, k in (("Q2D", 1), ("P2D", 2)):
        field = l2_project(f, mesh, SpaceKind(kind, k))
        for x, y in [(0.1, 0.9), (0.5, 0.5), (0.99, 0.01)]:
            assert field.eval_at(x, y) == pytest.approx(f(x, y), abs=1e-14)


def test_l2_project_p2d_is_q2d_truncation():
    # orthogonality: the P2D coefficients are the Q2D ones restricted to
    # total degree <= k
    mesh = tensor_mesh(uniform_mesh(2, (0.0, 2.0)), uniform_mesh(2, (0.0, 2.0)))
    f = lambda x, y: np.sin(x + 0.5 * y)
    q = l2_project(f, mesh, SpaceKind("Q2D", 2))
    p = l2_project(f, mesh, SpaceKind("P2D", 2))
    qdeg = SpaceKind("Q2D", 2).degrees
    pdeg = SpaceKind("P2D", 2).degrees
    for col, d in enumerate(pdeg):
        np.testing.assert_allclose(p.coeffs[..., col], q.coeffs[..., qdeg.index(d)], atol=1e-14)


def _shifted_projection_monomial_oracle(f, lo, hi, k):
    """Independent assembly of the shifted projection in the monomial basis.

    Conditions: cell moments against 1, x, ..., x^{k-1} and the plain average
    of the two endpoint values.  Returns polynomial coefficients (lowest
    degree first) on the physical cell.
    """
    mat = np.zeros((k + 1, k + 1))
    rhs = np.zeros(k + 1)
    for row in range(k):
        for col in range(k + 1):
            p = row + col + 1
            mat[row, col] = (hi**p - lo**p) / p
        rhs[row], _ = quad(lambda x: f(x) * x**row, lo, hi, limit=200)
    mat[k] = 0.5 * (lo ** np.arange(k + 1) + hi ** np.arange(k + 1))
    rhs[k] = 0.5 * (f(lo) + f(hi))
    return np.linalg.solve(mat, rhs)


@pytest.mark.parametrize("k", [2, 4])
def test_shifted_projection_matches_monomial_oracle(k):
    f = np.sin
    lo, hi = 0.3, 0.9
    coeffs = _shifted_projection_monomial_oracle(f, lo, hi, k)
    field = shifted_projection_1d(f, Mesh1D(np.array([lo, hi])), k)
    for x in np.linspace(lo, hi, 17):
        assert field.eval_at(x) == pytest.approx(np.polyval(coeffs[::-1], x), abs=1e-12)


def test_shifted_projection_x_cubed_reference_cell():
    field = shifted_projection_1d(lambda x: x**3, Mesh1D(np.array([-1.0, 1.0])), 2)
    np.testing.assert_allclose(field.coeffs[0], [0.0, 0.6, 0.0], atol=1e-13)


def test_shifted_projection_reproduces_degree_k():
    f = lambda x: 1.0 + 2.0 * x + 3.0 * x**2
    mesh = alpha_mesh(6, 0.2, (0.0, 3.0))
    field = shifted_projection_1d(f, mesh, 2)
    for x in np.linspace(0.0, 3.0, 40):
        assert field.eval_at(x) == pytest.approx(f(x), rel=1e-12)


@pytest.mark.parametrize(
    "mesh, f, kind",
    [
        (random_mesh(7, 0.2, 5, (0.0, 2.0)), lambda x: np.cos(3.0 * x), "P1D"),
        (
            tensor_mesh(alpha_mesh(6, 0.2, (0.0, 1.0)), random_mesh(5, 0.4, 3, (0.0, 1.0))),
            lambda x, y: np.cos(3.0 * x) * np.exp(y),
            "Q2D",
        ),
    ],
    ids=["1D", "2D"],
)
def test_shifted_projection_k0_is_cell_average(mesh, f, kind):
    star = shifted_projection(f, mesh, 0)
    plain = l2_project(f, mesh, SpaceKind(kind, 0))
    np.testing.assert_allclose(star.coeffs, plain.coeffs, atol=1e-13)


def test_shifted_projection_preserves_cell_averages():
    f = np.exp
    mesh = random_mesh(6, 0.3, 9, (0.0, 1.0))
    field = shifted_projection_1d(f, mesh, 2)
    for j in range(mesh.num_cells):
        lo, hi = mesh.nodes[j], mesh.nodes[j + 1]
        exact_avg = (np.exp(hi) - np.exp(lo)) / (hi - lo)
        assert field.cell_average(j) == pytest.approx(exact_avg, abs=1e-12)


@pytest.mark.parametrize("k", [1, 3])
def test_shifted_projection_rejects_odd_degree(k):
    with pytest.raises(ValueError, match="odd degree"):
        shifted_projection_1d(np.sin, Mesh1D(np.array([-1.0, 1.0])), k)
    # the discarded mode's column is identically zero -> singular matrix
    mat = shift_local_matrix_1d(k)
    np.testing.assert_allclose(mat[:, k], 0.0, atol=0.0)
    with pytest.raises(ValueError, match="odd degree"):
        shifted_projection_2d(lambda x, y: x + y, tensor_mesh(uniform_mesh(2, (0, 1)), uniform_mesh(2, (0, 1))), k)


def test_weak_form_equals_moment_form():
    for k in (2, 4):
        mat, rhs = _weak_local_system_1d(np.exp, k)
        weak = np.linalg.solve(mat, rhs)
        moment = shifted_projection_1d(np.exp, Mesh1D(np.array([-1.0, 1.0])), k).coeffs[0]
        np.testing.assert_allclose(weak, moment, atol=1e-12)


class TestShiftedProjection2D:
    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_its_defining_conditions(self, k):
        # Pf - f has zero interior moments against L_a(x)L_b(y) (a, b < k), zero
        # degree < k moments of its mean over the two faces of each axis, and a
        # zero four-corner average; integrals by a finer rule than the projection's
        f = lambda x, y: np.exp(np.sin(2.0 * x + 1.0)) * np.cos(3.0 * y) + x * y
        mesh = tensor_mesh(alpha_mesh(7, 0.2, (0.0, 1.0)), random_mesh(5, 0.4, 3, (0.0, 1.0)))
        field = shifted_projection(f, mesh, k)
        rule = gauss_rule(k + 12)
        q, ends = rule.nodes, np.array([-1.0, 1.0])
        moments = (legendre_table(k - 1, q) * rule.weights).T  # (Q, k): against L_0..L_{k-1}

        def residual(xi, eta):
            exact = sample(f, mesh, xi, eta)
            return field.sample(xi, eta) - exact, exact

        def check(err, ref):
            assert np.max(np.abs(err)) <= 1e-12 * np.max(np.abs(ref))

        err, ref = residual(q, q)
        check(*(np.einsum("...pq,pa,qb->...ab", v, moments, moments) for v in (err, ref)))
        err, ref = residual(q, ends)  # the two y-faces: mean over y = -1, 1, moments in x
        check(*(v.mean(axis=-1) @ moments for v in (err, ref)))
        err, ref = residual(ends, q)
        check(*(v.mean(axis=-2) @ moments for v in (err, ref)))
        err, ref = residual(ends, ends)
        check(*(v.mean(axis=(-2, -1)) for v in (err, ref)))

    def test_reproduces_xy(self):
        mesh = tensor_mesh(alpha_mesh(3, 0.2, (0.0, 1.0)), uniform_mesh(2, (0.0, 1.0)))
        field = shifted_projection_2d(lambda x, y: x * y, mesh, 2)
        for x, y in [(0.05, 0.2), (0.5, 0.55), (0.93, 0.99)]:
            assert field.eval_at(x, y) == pytest.approx(x * y, abs=1e-12)

    def test_x_cubed_decouples(self):
        # on the reference cell the x-direction behaves exactly like 1D
        mesh = tensor_mesh(Mesh1D(np.array([-1.0, 1.0])), Mesh1D(np.array([-1.0, 1.0])))
        field = shifted_projection_2d(lambda x, y: x**3 + 0.0 * y, mesh, 2)
        degs = field.space.degrees
        expect = np.zeros(9)
        expect[degs.index((1, 0))] = 0.6
        np.testing.assert_allclose(field.coeffs[0, 0], expect, atol=1e-13)

    def test_zero_function(self):
        mesh = tensor_mesh(uniform_mesh(2, (0.0, 1.0)), uniform_mesh(3, (0.0, 1.0)))
        field = shifted_projection_2d(lambda x, y: 0.0 * x * y, mesh, 2)
        np.testing.assert_allclose(field.coeffs, 0.0, atol=0.0)

    def test_odd_degree_matrix_singular(self):
        mat = shift_local_matrix_2d(1)
        degs = SpaceKind("Q2D", 1).degrees
        np.testing.assert_allclose(mat[:, degs.index((1, 1))], 0.0, atol=0.0)


class TestModalField:
    def test_eval_at_owning_cell(self):
        mesh = uniform_mesh(2, (0.0, 2.0))
        field = ModalField(SpaceKind("P1D", 1), mesh, np.array([[1.0, 0.5], [2.0, 0.0]]))
        # cell 0 spans [0,1]: value at center is 1, slope 0.5 in xi = x - 0.5
        assert field.eval_at(0.5) == pytest.approx(1.0)
        assert field.eval_at(1.0) == pytest.approx(2.0)  # left-closed: owned by cell 1
        assert field.eval_at(0.75) == pytest.approx(1.25)

    def test_cell_average_is_leading_coefficient(self):
        mesh = uniform_mesh(3, (0.0, 1.0))
        coeffs = np.arange(9.0).reshape(3, 3)
        field = ModalField(SpaceKind("P1D", 2), mesh, coeffs)
        assert field.cell_average(1) == 3.0

    def test_norm_hand_value(self):
        # integral (1 + x)^2 over [-1,1] = 8/3
        field = ModalField(SpaceKind("P1D", 1), Mesh1D(np.array([-1.0, 1.0])), np.array([[1.0, 1.0]]))
        assert field.norm_l2_squared() == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_norm_matches_quadrature_2d(self):
        mesh = tensor_mesh(uniform_mesh(2, (0.0, 1.0)), uniform_mesh(2, (0.0, 1.0)))
        f = lambda x, y: np.sin(x) * np.cos(y)
        field = l2_project(f, mesh, SpaceKind("Q2D", 4))
        exact = quad(lambda x: np.sin(x) ** 2, 0, 1)[0] * quad(lambda y: np.cos(y) ** 2, 0, 1)[0]
        assert field.norm_l2_squared() == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("kind", ["P1D", "Q2D", "P2D"])
    def test_inner_is_the_two_contraction_formula(self, kind):
        # one dot product with mass_weights, against contracting the mass and then the Jacobian
        axis = random_mesh(6, 0.3, 3, (0.0, 2.0))
        mesh = axis if kind == "P1D" else tensor_mesh(axis, alpha_mesh(5, 0.2, (0.0, 1.0)))
        space = SpaceKind(kind, 3)
        rng = np.random.default_rng(5)
        u, v = (ModalField(space, mesh, 0.5 + rng.random(mass_weights(space, mesh).shape)) for _ in range(2))
        old = float(((u.coeffs * v.coeffs) @ _mass_vector(kind, 3)).ravel() @ jacobian(mesh).ravel())
        assert u.inner(v) == pytest.approx(old, rel=1e-14, abs=0.0)

    def test_shape_validation(self):
        mesh = uniform_mesh(2, (0.0, 1.0))
        with pytest.raises(ValueError):
            ModalField(SpaceKind("P1D", 1), mesh, np.zeros((2, 3)))
        with pytest.raises(TypeError):
            ModalField(SpaceKind("Q2D", 1), mesh, np.zeros((2, 2, 4)))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_problem_exact_matches_initial_at_t0(name):
    prob = PROBLEMS[name]
    lo, hi = prob.domain
    pts = np.linspace(lo, hi, 11)
    if prob.dimension == 1:
        np.testing.assert_allclose(prob.exact(pts, 0.0), prob.initial(pts), atol=1e-13)
    else:
        np.testing.assert_allclose(
            prob.exact(pts[:, None], pts[None, :], 0.0), prob.initial(pts[:, None], pts[None, :]), atol=1e-13
        )
