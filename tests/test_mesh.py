import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcentral.fields import ModalField, SpaceKind
from dgcentral.mesh import Mesh1D, alpha_mesh, random_mesh, tensor_mesh, uniform_mesh


def test_uniform_mesh_nodes():
    mesh = uniform_mesh(4, (0.0, 1.0))
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0.0)
    assert mesh.num_cells == 4
    assert mesh.min_width == pytest.approx(0.25)
    assert mesh.regularity_ratio == pytest.approx(1.0)


def test_alpha_mesh_hand_values():
    # h = 0.25, interior nodes 1 and 3 move right by 0.025
    mesh = alpha_mesh(4, 0.1, (0.0, 1.0))
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.275, 0.5, 0.775, 1.0], atol=1e-15)
    np.testing.assert_allclose(mesh.widths, [0.275, 0.225, 0.275, 0.225], atol=1e-15)


@pytest.mark.parametrize("alpha", [0.1, 0.3])
def test_alpha_mesh_regularity_ratio(alpha):
    mesh = alpha_mesh(16, alpha, (0.0, 2.0 * np.pi))
    assert mesh.regularity_ratio == pytest.approx((1.0 + alpha) / (1.0 - alpha), rel=1e-12)


def test_alpha_mesh_odd_cell_count_shifts_floor_half():
    mesh = alpha_mesh(5, 0.3, (0.0, 1.0))
    uniform = np.linspace(0.0, 1.0, 6)
    moved = np.nonzero(np.abs(mesh.nodes - uniform) > 1e-12)[0]
    np.testing.assert_array_equal(moved, [1, 3])


def test_alpha_zero_is_uniform():
    np.testing.assert_array_equal(alpha_mesh(8, 0.0, (0.0, 1.0)).nodes, uniform_mesh(8, (0.0, 1.0)).nodes)


def test_random_mesh_deterministic_and_bounded():
    a = random_mesh(20, 0.3, 42, (0.0, 2.0 * np.pi))
    b = random_mesh(20, 0.3, 42, (0.0, 2.0 * np.pi))
    np.testing.assert_array_equal(a.nodes, b.nodes)
    c = random_mesh(20, 0.3, 43, (0.0, 2.0 * np.pi))
    assert np.any(a.nodes != c.nodes)

    h = 2.0 * np.pi / 20
    uniform = np.linspace(0.0, 2.0 * np.pi, 21)
    assert a.nodes[0] == 0.0 and a.nodes[-1] == pytest.approx(2.0 * np.pi)
    assert np.max(np.abs(a.nodes - uniform)) <= 0.5 * 0.3 * h


@given(
    n=st.integers(min_value=2, max_value=60),
    fraction=st.floats(min_value=0.0, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_random_mesh_always_valid(n, fraction, seed):
    mesh = random_mesh(n, fraction, seed, (-1.0, 3.0))
    assert mesh.num_cells == n
    assert np.all(mesh.widths > 0)
    assert mesh.lo == -1.0 and mesh.hi == 3.0
    # each cell keeps at least (1 - fraction) of the uniform width
    assert mesh.min_width >= (1.0 - fraction) * 4.0 / n - 1e-12


def test_locate():
    mesh = uniform_mesh(4, (0.0, 1.0))
    assert mesh.locate(0.0) == 0
    assert mesh.locate(0.1) == 0
    assert mesh.locate(0.25) == 1  # left-closed cells
    assert mesh.locate(0.999) == 3
    assert mesh.locate(1.0) == 3  # right endpoint owned by the last cell
    with pytest.raises(ValueError):
        mesh.locate(-0.01)
    with pytest.raises(ValueError):
        mesh.locate(1.01)


def test_a_nan_point_is_outside_every_mesh():
    # NaN fails every comparison, so only a check that x satisfies lo <= x <= hi rejects it
    mesh = uniform_mesh(4, (0.0, 1.0))
    with pytest.raises(ValueError, match="outside mesh domain"):
        mesh.locate(float("nan"))
    field = ModalField(SpaceKind("P1D", 1), mesh, np.ones((4, 2)))
    with pytest.raises(ValueError, match="outside mesh domain"):
        field.eval_at(np.nan)
    square = ModalField(SpaceKind("Q2D", 1), tensor_mesh(mesh, mesh), np.ones((4, 4, 4)))
    with pytest.raises(ValueError, match="outside mesh domain"):
        square.eval_at(0.5, np.nan)


def test_mesh_is_immutable():
    mesh = uniform_mesh(4, (0.0, 1.0))
    with pytest.raises(ValueError):
        mesh.nodes[0] = -1.0


def test_mesh_leaves_the_callers_nodes_writeable():
    nodes = np.linspace(0.0, 1.0, 5)
    mesh = Mesh1D(nodes)
    nodes[0] = -1.0
    assert mesh.nodes[0] == 0.0


def test_invalid_constructions():
    with pytest.raises(ValueError):
        Mesh1D(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        Mesh1D(np.array([1.0]))
    with pytest.raises(ValueError):
        uniform_mesh(0, (0.0, 1.0))
    with pytest.raises(ValueError):
        uniform_mesh(4, (1.0, 0.0))
    with pytest.raises(ValueError):
        alpha_mesh(4, 1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        random_mesh(4, 1.0, 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        random_mesh(4, -0.1, 0, (0.0, 1.0))


def test_tensor_mesh():
    mesh = tensor_mesh(uniform_mesh(4, (0.0, 1.0)), alpha_mesh(8, 0.3, (0.0, 2.0)))
    assert mesh.num_cells == (4, 8)
    assert mesh.min_width == pytest.approx(0.25 * 0.7)
