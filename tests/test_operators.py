"""Semi-discrete operator: bilinear forms, duality with the modal RHS,
conservation structure, and the uniform-patch superconvergence identities."""

import numpy as np
import pytest

from dgcentral.basis import reference_operators
from dgcentral.fields import ModalField, SpaceKind, _mass_vector, l2_project
from dgcentral.mesh import alpha_mesh, random_mesh, tensor_mesh, uniform_mesh
from dgcentral.operators import (
    SpatialOperator,
    _stencil_1d,
    flux_cancellation_residual_2d,
    superconvergence_residual_1d,
    superconvergence_residual_2d,
)

TWO_PI = 2.0 * np.pi


def _global_linear_field(mesh, k):
    """Project f(x) = x exactly (degree >= 1 reproduces it per cell)."""
    return l2_project(lambda x: x, mesh, SpaceKind("P1D", k))


def test_bilinear_a_of_x_against_one_is_cell_width():
    # volume term vanishes for v = 1 and the central fluxes of a globally
    # continuous u reduce to point values: a_j(x, 1) = x_{j+1/2} - x_{j-1/2}
    mesh = random_mesh(6, 0.3, 2, (0.0, 1.0))
    op = SpatialOperator(mesh, SpaceKind("P1D", 2))
    u = _global_linear_field(mesh, 2)
    v_one = np.array([1.0, 0.0, 0.0])
    for j in range(1, mesh.num_cells - 1):  # interior cells: no periodic seam in x itself
        assert op.bilinear_a(j, u, v_one) == pytest.approx(mesh.widths[j], rel=1e-12)


def test_bilinear_a_of_constant_vanishes():
    mesh = alpha_mesh(8, 0.25, (0.0, TWO_PI))
    op = SpatialOperator(mesh, SpaceKind("P1D", 3))
    ones = np.zeros((8, 4))
    ones[:, 0] = 1.0
    u = ModalField(SpaceKind("P1D", 3), mesh, ones)
    for j in range(8):
        for m in range(4):
            v = np.zeros(4)
            v[m] = 1.0
            assert abs(op.bilinear_a(j, u, v)) < 1e-14


def test_apply_rhs_is_dual_to_bilinear_a():
    # w = L(u) is defined by (w, v)_j = -a_j(u, v) for every cell and basis v
    mesh = random_mesh(5, 0.3, 8, (0.0, TWO_PI))
    space = SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    rng = np.random.default_rng(4)
    u = ModalField(space, mesh, rng.standard_normal((5, 3)))
    w = op.apply_rhs(u)
    mass = _mass_vector("P1D", 2)
    for j in range(5):
        for m in range(3):
            v = np.zeros(3)
            v[m] = 1.0
            inner = 0.5 * mesh.widths[j] * mass[m] * w.coeffs[j, m]
            assert inner == pytest.approx(-op.bilinear_a(j, u, v), abs=1e-13)


def test_apply_rhs_is_dual_to_bilinear_b():
    mesh = tensor_mesh(alpha_mesh(3, 0.2, (0.0, TWO_PI)), uniform_mesh(4, (0.0, TWO_PI)))
    space = SpaceKind("Q2D", 2)
    op = SpatialOperator(mesh, space)
    rng = np.random.default_rng(9)
    u = ModalField(space, mesh, rng.standard_normal((3, 4, 9)))
    w = op.apply_rhs(u)
    mass = _mass_vector("Q2D", 2)
    for i in range(3):
        for j in range(4):
            area = 0.25 * mesh.mesh_x.widths[i] * mesh.mesh_y.widths[j]
            for m in range(9):
                v = np.zeros(9)
                v[m] = 1.0
                inner = area * mass[m] * w.coeffs[i, j, m]
                assert inner == pytest.approx(op.bilinear_b(i, j, u, v), abs=1e-12)


def test_apply_rhs_duality_p2d_space():
    mesh = tensor_mesh(uniform_mesh(3, (0.0, TWO_PI)), uniform_mesh(3, (0.0, TWO_PI)))
    space = SpaceKind("P2D", 2)
    op = SpatialOperator(mesh, space)
    rng = np.random.default_rng(11)
    u = ModalField(space, mesh, rng.standard_normal((3, 3, 6)))
    w = op.apply_rhs(u)
    mass = _mass_vector("P2D", 2)
    area = 0.25 * mesh.mesh_x.widths[0] * mesh.mesh_y.widths[0]
    for m in range(6):
        v = np.zeros(6)
        v[m] = 1.0
        assert area * mass[m] * w.coeffs[1, 2, m] == pytest.approx(op.bilinear_b(1, 2, u, v), abs=1e-12)


def test_apply_rhs_linearity_and_free_stream():
    mesh = alpha_mesh(10, 0.1, (0.0, TWO_PI))
    space = SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    rng = np.random.default_rng(1)
    a = ModalField(space, mesh, rng.standard_normal((10, 3)))
    b = ModalField(space, mesh, rng.standard_normal((10, 3)))
    lhs = op.apply_rhs(ModalField(space, mesh, 2.0 * a.coeffs - 3.0 * b.coeffs)).coeffs
    rhs = 2.0 * op.apply_rhs(a).coeffs - 3.0 * op.apply_rhs(b).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    ones = np.zeros((10, 3))
    ones[:, 0] = 1.0
    steady = op.apply_rhs(ModalField(space, mesh, ones))
    assert np.max(np.abs(steady.coeffs)) < 1e-13


def test_apply_rhs_approximates_negative_derivative():
    # L(P u) -> -u_x for the advection operator; error contracts by ~2^k
    f = lambda x: np.exp(np.sin(x))
    fprime = lambda x: np.cos(x) * np.exp(np.sin(x))
    space = SpaceKind("P1D", 2)
    errs = []
    for n in (16, 32, 64):
        mesh = uniform_mesh(n, (0.0, TWO_PI))
        w = SpatialOperator(mesh, space).apply_rhs(l2_project(f, mesh, space))
        target = l2_project(lambda x: -fprime(x), mesh, space)
        diff = ModalField(space, mesh, w.coeffs - target.coeffs)
        errs.append(diff.norm_l2())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_global_skew_symmetry_random_fields():
    from dgcentral.verify import inner_l2

    mesh = tensor_mesh(alpha_mesh(6, 0.3, (0.0, TWO_PI)), random_mesh(5, 0.2, 3, (0.0, TWO_PI)))
    space = SpaceKind("Q2D", 2)
    op = SpatialOperator(mesh, space)
    rng = np.random.default_rng(123)
    for _ in range(20):
        u = ModalField(space, mesh, rng.standard_normal((6, 5, 9)))
        w = op.apply_rhs(u)
        assert abs(inner_l2(w, u)) <= 1e-12 * u.norm_l2_squared()


def test_operator_validates_mesh_and_field():
    mesh1d = uniform_mesh(4, (0.0, 1.0))
    with pytest.raises(TypeError):
        SpatialOperator(mesh1d, SpaceKind("Q2D", 2))
    op = SpatialOperator(mesh1d, SpaceKind("P1D", 2))
    wrong = ModalField(SpaceKind("P1D", 1), mesh1d, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        op.apply_rhs(wrong)


class TestSuperconvergence:
    """a_j(P*u - u, v) on the middle cell of a three-cell patch, u = x^{k+1}."""

    def test_uniform_patch_identity_k2(self):
        assert superconvergence_residual_1d(2) < 1e-12

    def test_uniform_patch_identity_k4(self):
        assert superconvergence_residual_1d(4) < 1e-11

    def test_nonuniform_patch_breaks_identity(self):
        assert superconvergence_residual_1d(2, widths=(1.0, 2.0, 1.0)) > 1e-6

    @pytest.mark.parametrize("direction", ["x", "y", "both"])
    def test_2d_identity_k2(self, direction):
        assert superconvergence_residual_2d(2, direction=direction) < 1e-11

    @pytest.mark.parametrize("k", [2, 4])
    def test_edge_flux_moments_cancel(self, k):
        assert flux_cancellation_residual_2d(k) < 1e-12


def test_stencil_reproduces_dense_assembly():
    """The vectorized RHS equals a brute-force evaluation built from the
    bilinear form, on a mesh small enough to enumerate."""
    mesh = alpha_mesh(4, 0.2, (0.0, TWO_PI))
    space = SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    rng = np.random.default_rng(77)
    u = ModalField(space, mesh, rng.standard_normal((4, 3)))
    w = op.apply_rhs(u)
    ref = reference_operators(2)
    for j in range(4):
        for m in range(3):
            v = np.zeros(3)
            v[m] = 1.0
            expect = -op.bilinear_a(j, u, v) / (0.5 * mesh.widths[j] * ref.mass_diag[m])
            assert w.coeffs[j, m] == pytest.approx(expect, abs=1e-12)


# -- the assembled 1D matrix ---------------------------------------------------

_MESHES_1D = {
    "uniform": lambda: uniform_mesh(9, (0.0, TWO_PI)),
    "alpha": lambda: alpha_mesh(10, 0.1, (0.0, TWO_PI)),
    "random": lambda: random_mesh(11, 0.3, 5, (0.0, TWO_PI)),
}


def _stencil_rhs(op, c):
    """The per-cell stencil form: own, right- and left-neighbour blocks, rows scaled by 1/h."""
    own, right, left = _stencil_1d(op.space.degree)
    out = c @ own.T + np.roll(c, -1, axis=0) @ right.T + np.roll(c, 1, axis=0) @ left.T
    return out / op.mesh.widths[:, None]


@pytest.mark.parametrize("family", sorted(_MESHES_1D))
@pytest.mark.parametrize("k", range(5))
def test_matrix_matches_stencil_rhs(family, k):
    mesh = _MESHES_1D[family]()
    space = SpaceKind("P1D", k)
    op = SpatialOperator(mesh, space)
    c = np.random.default_rng(k).standard_normal((mesh.num_cells, k + 1))
    expected = _stencil_rhs(op, c)
    got = (op.matrix @ c.ravel()).reshape(c.shape)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.max(np.abs(expected)))
    np.testing.assert_array_equal(op.apply_rhs(ModalField(space, mesh, c)).coeffs, got)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_on_tiny_periodic_meshes(n):
    # with N <= 2 the left and right neighbours coincide and their blocks add
    mesh = uniform_mesh(n, (0.0, 1.0))
    op = SpatialOperator(mesh, SpaceKind("P1D", 2))
    c = np.random.default_rng(n).standard_normal((n, 3))
    np.testing.assert_allclose((op.matrix @ c.ravel()).reshape(c.shape), _stencil_rhs(op, c), rtol=0, atol=1e-13)


def test_matrix_is_1d_only():
    mesh = tensor_mesh(uniform_mesh(3, (0.0, 1.0)), uniform_mesh(3, (0.0, 1.0)))
    with pytest.raises(ValueError, match="1D"):
        SpatialOperator(mesh, SpaceKind("Q2D", 1)).matrix


@pytest.mark.parametrize("family", sorted(_MESHES_1D))
@pytest.mark.parametrize("k", range(5))
def test_mass_times_matrix_is_exactly_skew(family, k):
    # d/dt ||u||^2 = u^T (M L + (M L)^T) u vanishes for every u, not only sampled ones
    mesh = _MESHES_1D[family]()
    op = SpatialOperator(mesh, SpaceKind("P1D", k))
    mass = np.outer(0.5 * mesh.widths, _mass_vector("P1D", k)).ravel()
    ml = op.matrix.multiply(mass[:, None]).toarray()
    # each entry is a product of a few rounded factors: allow 16 ulps of its size
    bound = 16 * np.finfo(float).eps * np.maximum(np.abs(ml), np.abs(ml.T))
    assert np.all(np.abs(ml + ml.T) <= bound)
