import math

import numpy as np
import pytest

from dgcentral import operators, timestepping
from dgcentral.fields import SpaceKind, l2_project
from dgcentral.mesh import Mesh1D, alpha_mesh, random_mesh, tensor_mesh, uniform_mesh
from dgcentral.metrics import error_cell_average, error_interface_flux, error_l2
from dgcentral.operators import SpatialOperator
from dgcentral.study import PROBLEMS
from dgcentral.timestepping import (
    SCHEMES,
    IntegrationConfig,
    IntegrationDivergedError,
    RKScheme,
    energy_drift,
    integrate,
    register_scheme,
    stability_coefficients,
)


# Forward Euler and Heun raise the energy of the central-flux operator for
# every dt, so the package does not ship them.  As 1- and 2-stage tableaus
# they still exercise the integrator, registered only inside these tests.
_LOW_ORDER = (
    RKScheme("euler", [[0.0]], [1.0], [0.0], order=1),
    RKScheme("heun", [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 1.0], order=2),
)
_ALL_NAMES = ["euler", "heun", "ssprk3", "rk4"]
_BOX = (0.0, 2.0 * np.pi)


@pytest.fixture
def low_order_schemes():
    for scheme in _LOW_ORDER:
        register_scheme(scheme)
    yield
    for scheme in _LOW_ORDER:
        SCHEMES.pop(scheme.name, None)


def test_registry_ships_only_energy_stable_schemes():
    assert sorted(SCHEMES) == ["rk4", "ssprk3"]


def test_rk4_scalar_decay_accuracy():
    u = integrate(lambda v: -v, np.array([1.0]), IntegrationConfig(t_final=1.0, dt=0.01))
    assert abs(u[0] - np.exp(-1.0)) < 1e-9


def test_zero_rhs_is_identity():
    u0 = np.array([1.5, -2.25, 0.125])
    u = integrate(lambda v: 0.0 * v, u0, IntegrationConfig(t_final=2.0, dt=0.125))
    np.testing.assert_array_equal(u, u0)


@pytest.mark.usefixtures("low_order_schemes")
@pytest.mark.parametrize("name", _ALL_NAMES)
def test_temporal_order(name):
    """Halving dt must reduce the error by 2^p within 10%."""
    p = SCHEMES[name].order
    errs = []
    for dt in (0.1, 0.05):
        u = integrate(lambda v: -v, np.array([1.0]), IntegrationConfig(t_final=1.0, scheme=name, dt=dt))
        errs.append(abs(u[0] - np.exp(-1.0)))
    assert errs[0] / errs[1] == pytest.approx(2.0**p, rel=0.10)


def test_integration_is_bitwise_deterministic():
    mesh = uniform_mesh(12, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    u0 = l2_project(lambda x: np.exp(np.sin(x)), mesh, space)
    cfg = IntegrationConfig(t_final=0.5)
    a = integrate(op.apply_rhs, u0, cfg)
    b = integrate(op.apply_rhs, u0, cfg)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_divergence_raises_with_step_metadata():
    with pytest.raises(IntegrationDivergedError) as err:
        integrate(lambda v: 1e155 * v, np.array([1.0]), IntegrationConfig(t_final=1.0, dt=0.1))
    assert err.value.step >= 1
    assert "non-finite" in str(err.value)


def test_final_step_lands_exactly_on_t():
    calls = []

    def rhs(v):
        calls.append(1)
        return 0.0 * v

    # T = 1, dt = 0.3 -> 4 steps (last one shortened), 4 stages each
    integrate(rhs, np.array([1.0]), IntegrationConfig(t_final=1.0, dt=0.3))
    assert len(calls) == 4 * 4

    # exact divisor: no phantom extra step
    calls.clear()
    integrate(rhs, np.array([1.0]), IntegrationConfig(t_final=1.0, dt=0.25))
    assert len(calls) == 4 * 4


def test_field_roundtrip_preserves_mesh_and_space():
    mesh = uniform_mesh(8, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    u0 = l2_project(np.sin, mesh, space)
    u = integrate(op.apply_rhs, u0, IntegrationConfig(t_final=0.1))
    assert u.space == space
    assert u.mesh is mesh


def test_energy_log_records_every_step_boundary():
    mesh = uniform_mesh(8, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    u0 = l2_project(np.sin, mesh, space)
    log = []
    integrate(op.apply_rhs, u0, IntegrationConfig(t_final=0.5, dt=0.025), energy_log=log)
    assert len(log) == 21  # t = 0 plus twenty steps
    # dt here is coarse, so only rk4's own O(dt^4) energy error shows up
    assert energy_drift(log) < 1e-8


def test_energy_drift_edge_cases():
    assert energy_drift([2.0, 2.0, 2.0]) == 0.0
    assert energy_drift([1.0, 1.1]) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        energy_drift([])


class TestSchemeValidation:
    def test_builtin_tableaus_are_consistent(self):
        for scheme in SCHEMES.values():
            assert scheme.b.sum() == pytest.approx(1.0, abs=1e-14)
            np.testing.assert_allclose(scheme.a.sum(axis=1), scheme.c, atol=1e-14)

    def test_rejects_implicit_tableau(self):
        with pytest.raises(ValueError, match="explicit"):
            RKScheme("bad", [[0.5]], [1.0], [0.5], order=1)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            RKScheme("bad", [[0.0]], [0.9], [0.0], order=1)

    def test_rejects_inconsistent_nodes(self):
        with pytest.raises(ValueError, match="row sums"):
            RKScheme("bad", [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 0.5], order=2)

    def test_register_custom_scheme(self):
        ralston = RKScheme(
            "ralston-test", [[0.0, 0.0], [2.0 / 3.0, 0.0]], [0.25, 0.75], [0.0, 2.0 / 3.0], order=2
        )
        try:
            register_scheme(ralston)
            u = integrate(lambda v: -v, np.array([1.0]), IntegrationConfig(t_final=1.0, scheme="ralston-test", dt=0.05))
            assert abs(u[0] - np.exp(-1.0)) < 1e-3
        finally:
            SCHEMES.pop("ralston-test", None)


class TestConfig:
    def test_dt_rule_uses_min_width(self):
        cfg = IntegrationConfig(t_final=1.0, c=0.02)
        assert cfg.resolve_dt(0.5) == pytest.approx(0.01)

    def test_explicit_dt_wins(self):
        cfg = IntegrationConfig(t_final=1.0, c=0.02, dt=0.007)
        assert cfg.resolve_dt(0.5) == 0.007

    def test_meshless_state_requires_dt(self):
        with pytest.raises(ValueError, match="mesh-free"):
            integrate(lambda v: -v, np.array([1.0]), IntegrationConfig(t_final=1.0))

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            IntegrationConfig(t_final=0.0)
        with pytest.raises(ValueError):
            IntegrationConfig(t_final=1.0, c=-0.1)
        with pytest.raises(ValueError):
            IntegrationConfig(t_final=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            IntegrationConfig(t_final=1.0, scheme="nope")


# -- the linear route: u <- P(hL) u on the assembled L of a declined operator ----


def _alpha_operator(k=2, n=12):
    mesh = alpha_mesh(n, 0.1, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", k)
    return SpatialOperator(mesh, space), l2_project(lambda x: np.exp(np.sin(x)), mesh, space)


def _uniform_operator_1d(n, k=2):
    mesh = uniform_mesh(n, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", k)
    return SpatialOperator(mesh, space), l2_project(lambda x: np.exp(np.sin(x)), mesh, space)


@pytest.mark.usefixtures("low_order_schemes")
@pytest.mark.parametrize("name", _ALL_NAMES)
def test_stability_coefficients_match_the_tableau(name):
    scheme = SCHEMES[name]
    gammas = stability_coefficients(scheme)
    assert gammas.size == scheme.stages + 1
    # order p matches exp(z) through z^p
    for j in range(scheme.order + 1):
        assert gammas[j] == pytest.approx(1.0 / math.factorial(j), rel=1e-15)
    # P(z) is the stage loop's amplification factor on u' = z u
    for z in (-0.7, 0.3, 1.1):
        u = integrate(lambda v: z * v, np.array([1.0]), IntegrationConfig(t_final=1.0, scheme=name, dt=1.0))
        assert u[0] == pytest.approx(np.polyval(gammas[::-1], z), rel=1e-14)


def test_rk4_stability_coefficients():
    np.testing.assert_allclose(stability_coefficients(SCHEMES["rk4"]), [1, 1, 1 / 2, 1 / 6, 1 / 24], rtol=1e-15)


@pytest.mark.usefixtures("low_order_schemes")
@pytest.mark.parametrize("name", _ALL_NAMES)
def test_matrix_step_equals_one_stage_loop_step(name):
    # coefficient arrays, not fields: euler and heun would trip the energy guard
    op, u0 = _alpha_operator()
    dt = 0.01 * u0.mesh.min_width
    # a full step, a full step followed by a shortened last one, then paired
    # full steps with an odd or even count left before the last step
    for t_final in (dt, 1.37 * dt, 5.37 * dt, 6.37 * dt, 8 * dt):
        cfg = IntegrationConfig(t_final=t_final, scheme=name, dt=dt)
        fast = integrate(op, u0.coeffs, cfg)
        stages = integrate(lambda v: op.apply_rhs(u0.like(v)).coeffs, u0.coeffs, cfg)
        assert np.max(np.abs(fast - stages)) <= 1e-14 * np.max(np.abs(stages))


def test_a_declined_1d_operator_builds_each_step_once_per_run(monkeypatch):
    # Q1 = P(hL) - I is built once per distinct h of the run, and the pair increment once, from Q1 at dt
    op, u0 = _alpha_operator()
    assert op.spectral_route is None
    dt = 0.01 * u0.mesh.min_width
    cfg = IntegrationConfig(t_final=7.37 * dt)
    h_last = cfg.t_final - 7 * dt
    steps, pairs = [], []
    step_band, pair_band = timestepping._step_band, timestepping._pair_band
    monkeypatch.setattr(timestepping, "_step_band", lambda op, h, gammas: steps.append(h) or step_band(op, h, gammas))
    monkeypatch.setattr(timestepping, "_pair_band", lambda q: pairs.append(q) or pair_band(q))
    integrate(op, u0, cfg)  # three pairs, the odd full step, and the shortened last step
    assert steps == [dt, h_last]
    assert len(pairs) == 1
    # a run that logs every step takes them all alone: it builds Q1 at each h, and no pair increment
    integrate(op, u0, cfg, energy_log=[])
    assert steps == [dt, h_last] * 2 and len(pairs) == 1


@pytest.mark.parametrize("kind", ["P2D", "Q2D"])
def test_a_declined_2d_operator_forms_no_increment(kind, monkeypatch):
    # a 2D Q2 would fill in: every step is Horner's rule on the vector, logged or not
    monkeypatch.setattr(operators, "_AXIS_EIGEN_CAP", 0)  # Q2D off its per-axis eigenbases
    formed = []
    monkeypatch.setattr(timestepping, "_step_band", lambda *args: formed.append(args))
    monkeypatch.setattr(timestepping, "_pair_band", lambda *args: formed.append(args))
    op, u0 = _operator_2d(kind)
    assert op.spectral_route is None
    cfg = IntegrationConfig(t_final=7.37 * 0.01 * u0.mesh.min_width)
    for log in (None, []):
        integrate(op, u0, cfg, energy_log=log)
    assert formed == []


def _dense(band):
    """A band of row blocks (cells, dof, width, dof) as the square matrix it stands for, wrapped blocks summed."""
    cells, dof, width = band.shape[:3]
    out = np.zeros((cells, dof, cells, dof))
    for j in range(cells):
        for d in range(width):
            out[j, :, (j + d - width // 2) % cells] += band[j, :, d]
    return out.reshape(cells * dof, cells * dof)


def _step_oracle(op, h, scheme):
    """P(hL) - I by Horner's rule on the dense assembled L."""
    hl = h * op.matrix.toarray()
    gammas = stability_coefficients(scheme)
    q = gammas[-1] * hl
    for gamma in gammas[-2:0:-1]:
        q = hl @ (q + gamma * np.identity(len(hl)))
    return q


@pytest.mark.usefixtures("low_order_schemes")
def test_the_step_band_is_the_polynomial_in_hl_minus_identity():
    op, _ = _alpha_operator(k=1, n=5)
    hl = 0.3 * op.matrix.toarray()
    expected = hl + hl @ hl / 2 + hl @ hl @ hl / 6 + hl @ hl @ hl @ hl / 24
    rk4, euler = (timestepping._step_band(op, 0.3, stability_coefficients(SCHEMES[name])) for name in ("rk4", "euler"))
    assert rk4.shape == (5, 2, 9, 2) and euler.shape == (5, 2, 3, 2)  # 2s + 1 cells: one more a product with hL
    np.testing.assert_allclose(_dense(rk4), expected, rtol=0, atol=1e-14)
    np.testing.assert_allclose(_dense(euler), hl, rtol=0, atol=1e-15)


# Q2 couples 4s+1 = 17 cells (rk4): it wraps the periodic meshes of N <= 8 and sums duplicate entries; N = 40 does not
_WRAPPING_MESHES = {
    "alpha2": alpha_mesh(2, 0.1, (0.0, 1.0)),
    "alpha4": alpha_mesh(4, 0.1, (0.0, 1.0)),
    "alpha40": alpha_mesh(40, 0.1, (0.0, 1.0)),
    "random3": random_mesh(3, 0.3, 5, (0.0, 1.0)),
    "random7": random_mesh(7, 0.3, 5, (0.0, 1.0)),
    "random40": random_mesh(40, 0.3, 5, (0.0, 1.0)),
}


@pytest.mark.usefixtures("low_order_schemes")
@pytest.mark.parametrize("name", _ALL_NAMES)
@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("mesh", list(_WRAPPING_MESHES))
def test_pair_increment_is_the_square_of_the_step_minus_identity(name, k, mesh):
    mesh = _WRAPPING_MESHES[mesh]
    op = SpatialOperator(mesh, SpaceKind("P1D", k))
    h, scheme = 0.1 * mesh.min_width, SCHEMES[name]
    q = _step_oracle(op, h, scheme)
    step = np.identity(len(q)) + q
    expected = step @ step - np.identity(len(q))
    pair = timestepping._pair_band(timestepping._step_band(op, h, stability_coefficients(scheme)))
    assert pair.shape[2] == 4 * scheme.stages + 1
    # relative to the size of the blocks summed: a wrapped mesh sums blocks of several offsets into one entry,
    # and at k = 0 on N = 2 they cancel (L u_j = (u_j+1 - u_j-1) / 2h_j is 0) up to the roundoff of each block
    assert np.max(np.abs(_dense(pair) - expected)) <= 1e-14 * np.max(_dense(np.abs(pair)))


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("mesh", list(_WRAPPING_MESHES))
def test_the_row_tiles_hold_the_pair_increment_exactly(k, mesh):
    # N = 2 and 4 wrap the band onto itself: the halo repeats the state, and each tile still holds its rows' blocks
    mesh = _WRAPPING_MESHES[mesh]
    op, gammas = SpatialOperator(mesh, SpaceKind("P1D", k)), stability_coefficients(SCHEMES["rk4"])
    pair = timestepping._pair_band(timestepping._step_band(op, 0.01 * mesh.min_width, gammas))
    tiles, index, _ = timestepping._row_tiles(pair)
    cells, dof, width = pair.shape[:3]
    c, w = timestepping._TILE_CELLS, width // 2
    count = -(-cells // c)
    assert tiles.shape == (count, c * dof, (c + 2 * w) * dof)
    # the extended state is u periodically continued from cell -w, through the last tile's window
    assert np.array_equal(index, np.arange(-w * dof, (count * c + w) * dof) % (cells * dof))
    # row cell t c + i of tile t reads window cells i .. i + 2w: cells t c + i - w .. t c + i + w
    blocks = tiles.reshape(count * c, dof, c + 2 * w, dof)
    for row in range(count * c):
        i = row % c
        held = blocks[row, :, i : i + width]
        assert np.array_equal(held, pair[row] if row < cells else np.zeros_like(held))
        assert not np.any(blocks[row, :, :i]) and not np.any(blocks[row, :, i + width :])


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("family", ["alpha", "random"])
def test_paired_march_equals_the_single_steps_of_a_logged_run(k, family):
    # an energy log needs an entry per step, so the logged run takes every step alone
    mesh = alpha_mesh(40, 0.1, (0.0, 2.0 * np.pi)) if family == "alpha" else random_mesh(40, 0.3, 11, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", k)
    op, u0 = SpatialOperator(mesh, space), l2_project(lambda x: np.exp(np.sin(x)), mesh, space)
    assert op.spectral_route is None
    cfg = IntegrationConfig(t_final=1.0)
    log = []
    single = integrate(op, u0, cfg, energy_log=log).coeffs
    paired = integrate(op, u0, cfg).coeffs
    assert len(log) == math.ceil(1.0 / (0.01 * mesh.min_width)) + 1
    assert np.max(np.abs(paired - single)) <= 1e-13 * np.max(np.abs(single))


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("mesh", list(_WRAPPING_MESHES))
def test_a_paired_advance_is_the_pair_product_added_to_the_state(k, mesh):
    # the product overwrites its buffer: each pair must start from none of the last one's product
    mesh = _WRAPPING_MESHES[mesh]
    op = SpatialOperator(mesh, SpaceKind("P1D", k))
    dt = 0.01 * mesh.min_width
    q2 = _dense(timestepping._pair_band(timestepping._step_band(op, dt, stability_coefficients(SCHEMES["rk4"]))))
    advance = timestepping._tiled_step(op, SCHEMES["rk4"])
    x = np.random.default_rng(k).standard_normal((mesh.num_cells, k + 1))
    for _ in range(3):
        before = x.ravel().copy()
        assert advance(x, dt, 2) is x
        assert np.max(np.abs(x.ravel() - (before + q2 @ before))) <= 1e-14 * np.max(np.abs(before))


def _counted_products(monkeypatch, seed=None):
    """Record every kernel product, a matmul of the tiles into a stack of columns; `seed(calls, out)` may alter it."""
    calls, matmul = [], np.matmul

    def counted(*args, **kwargs):
        result = matmul(*args, **kwargs)
        if "out" in kwargs and kwargs["out"].shape[-1] == 1:
            calls.append(None)
            if seed is not None:
                seed(calls, kwargs["out"])
        return result

    monkeypatch.setattr(np, "matmul", counted)
    return calls


def test_a_state_the_kernel_cannot_read_is_rejected_before_it_runs(monkeypatch):
    calls = _counted_products(monkeypatch)
    op, u0 = _alpha_operator()
    advance = timestepping._tiled_step(op, SCHEMES["rk4"])
    dt = 0.01 * u0.mesh.min_width
    size = u0.coeffs.size
    for state in (np.ones(size + 3), np.ones(size - 3), np.ones(size, dtype=np.float32), np.ones(2 * size)[::2]):
        before = state.copy()
        with pytest.raises(ValueError, match="C-contiguous float64"):
            advance(state, dt, 2)
        assert not calls
        np.testing.assert_array_equal(state, before)
    advance(np.ones(size), dt, 2)
    assert len(calls) == 1


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("logged", [False, True])
@pytest.mark.parametrize("mesh", list(_WRAPPING_MESHES))
def test_the_tiled_march_matches_horner_steps_on_the_assembled_matrix(mesh, logged, k):
    # the pairs (unlogged) and the single steps (logged) against s products with the CSR L per step
    mesh = _WRAPPING_MESHES[mesh]
    space = SpaceKind("P1D", k)
    op, u0 = SpatialOperator(mesh, space), l2_project(lambda x: np.exp(np.sin(2.0 * np.pi * x)), mesh, space)
    assert op.spectral_route is None
    cfg = IntegrationConfig(t_final=1.0)
    dt = 0.01 * mesh.min_width
    nsteps = math.ceil(1.0 / dt - 1e-12)
    mat, gammas, expected = op.matrix, stability_coefficients(SCHEMES["rk4"]), u0.coeffs.ravel()
    for step in range(nsteps):
        h = dt if step < nsteps - 1 else 1.0 - (nsteps - 1) * dt
        q = gammas[-1] * expected
        for gamma in gammas[-2:0:-1]:
            q = h * (mat @ q) + gamma * expected
        expected = expected + h * (mat @ q)
    tiled = integrate(op, u0, cfg, energy_log=[] if logged else None).coeffs.ravel()
    assert np.max(np.abs(tiled - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_matrix_path_conserves_mass_to_roundoff(monkeypatch):
    # the cell averages are conserved exactly by L; P(hL) stored with its
    # identity drifted them by ~5e-13 over a P4 run
    mesh = uniform_mesh(80, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", 4)
    u0 = l2_project(lambda x: np.exp(np.sin(x)), mesh, space)
    op = SpatialOperator(mesh, space)
    for route in ("bloch", None):  # the Bloch route, then P(hL) once the spectral march declines
        if route is None:
            _stepped(monkeypatch)
        assert op.spectral_route == route
        u = integrate(op, u0, IntegrationConfig(t_final=1.0))
        drift = abs(mesh.widths @ u.coeffs[:, 0] - mesh.widths @ u0.coeffs[:, 0])
        assert drift <= 1e-13  # the mass itself is about 8


def test_matrix_path_is_bitwise_deterministic():
    op, u0 = _alpha_operator()
    cfg = IntegrationConfig(t_final=0.5)
    a = integrate(op, u0, cfg)
    b = integrate(SpatialOperator(u0.mesh, u0.space), u0, cfg)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(a.coeffs, integrate(op, u0.coeffs, cfg))  # a field and its coefficient array alike


def test_matrix_path_keeps_field_and_energy_log_semantics():
    op, u0 = _alpha_operator()
    log = []
    u = integrate(op, u0, IntegrationConfig(t_final=0.5, dt=0.025), energy_log=log)
    assert u.space == u0.space and u.mesh is u0.mesh
    assert len(log) == 21  # t = 0 plus twenty steps
    assert energy_drift(log) < 1e-8


@pytest.mark.parametrize("route", ["P(hL)", "stepped-2d"])
def test_energy_log_runs_from_the_initial_to_the_final_norm(route):
    # the log's mass-weighted dot products are the fields' own squared norms
    op, u0 = _alpha_operator() if route == "P(hL)" else _operator_2d("P2D")
    log = []
    u = integrate(op, u0, IntegrationConfig(t_final=0.2), energy_log=log)
    assert len(log) > 10
    assert log[0] == pytest.approx(u0.norm_l2_squared(), rel=1e-14, abs=0.0)
    assert log[-1] == pytest.approx(u.norm_l2_squared(), rel=1e-14, abs=0.0)


def test_matrix_path_divergence_reports_step_and_time():
    # |P(hL)| ~ (h|L|)^4 / 24 per step at h = 1000 overflows within a few dozen steps, taken in pairs
    op, u0 = _alpha_operator()
    with pytest.raises(IntegrationDivergedError, match="non-finite") as err:
        integrate(op, u0, IntegrationConfig(t_final=1e6, dt=1e3))
    assert err.value.step == 22  # the 11th pair is the first whose state overflows
    assert err.value.time == pytest.approx(1e3 * err.value.step)


def test_an_unstable_alpha_level_reports_the_pair_that_overflows():
    # rk4 at k = 2 is stable up to c ~ 0.35: at c = 0.5 the paired march overflows before T = 100
    op, u0 = _alpha_operator(n=40)
    with pytest.raises(IntegrationDivergedError) as err:
        integrate(op, u0, IntegrationConfig(t_final=100.0, c=0.5))
    assert str(err.value) == "non-finite state detected at step 452 (t = 31.95)"
    assert err.value.step == 452


@pytest.mark.filterwarnings("error")
def test_a_finite_state_of_infinite_energy_reports_its_growth_without_a_warning():
    # at c = 0.5 and T = 20 the state is still finite at T (it overflows at step 452), but its energy is not
    op, u0 = _alpha_operator(n=40)
    with pytest.raises(IntegrationDivergedError, match="energy grew by inf relative") as err:
        integrate(op, u0, IntegrationConfig(t_final=20.0, c=0.5))
    assert err.value.step == 283


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pair", [1, 5])
def test_a_non_finite_kernel_product_stops_the_run_at_its_pair(value, pair, monkeypatch):
    # the kernel writes `value` into one entry of its product at the given pair (1-based), as an overflow would

    def seed(calls, out):
        if len(calls) == pair:
            out.reshape(-1)[7] = value

    calls = _counted_products(monkeypatch, seed)
    op, u0 = _alpha_operator()
    dt = 0.01 * u0.mesh.min_width
    with pytest.raises(IntegrationDivergedError, match=f"non-finite state detected at step {2 * pair} ") as err:
        integrate(op, u0, IntegrationConfig(t_final=20.37 * dt))
    assert len(calls) == pair
    assert err.value.time == pytest.approx(2 * pair * dt)


def _operator_2d(kind="Q2D", k=2):
    mesh = tensor_mesh(alpha_mesh(5, 0.3, (0.0, 2.0 * np.pi)), random_mesh(4, 0.3, 7, (0.0, 2.0 * np.pi)))
    space = SpaceKind(kind, k)
    return SpatialOperator(mesh, space), l2_project(lambda x, y: np.exp(np.sin(x) + np.cos(y)), mesh, space)


@pytest.mark.usefixtures("low_order_schemes")
@pytest.mark.parametrize("route", ["matrix", "stages", "stepped-2d"])
def test_energy_growth_raises(route):
    # euler amplifies every nonzero mode of a skew operator: |1 + iy|^2 = 1 + y^2
    if route == "stepped-2d":
        rhs, u0 = _operator_2d("P2D")
    else:
        op, u0 = _alpha_operator()
        rhs = op if route == "matrix" else op.apply_rhs
    with pytest.raises(IntegrationDivergedError, match="energy grew") as err:
        integrate(rhs, u0, IntegrationConfig(t_final=0.5, scheme="euler"))
    assert err.value.time == pytest.approx(0.5)


# -- the stepped 2D route: P(hL) on the assembled L, one step at a time ----------


@pytest.mark.usefixtures("low_order_schemes")
@pytest.mark.parametrize("kind", ["Q2D", "P2D"])
@pytest.mark.parametrize("name", _ALL_NAMES)
def test_stepped_2d_route_equals_one_stage_loop_step(name, kind, monkeypatch):
    # coefficient arrays, not fields: euler and heun would trip the energy guard
    _stepped(monkeypatch)
    op, u0 = _operator_2d(kind)
    dt = 0.05 * u0.mesh.min_width
    # a full step, a full step followed by a shortened last one, then paired
    # full steps with an odd or even count left before the last step
    for t_final in (dt, 1.37 * dt, 5.37 * dt, 6.37 * dt, 8 * dt):
        cfg = IntegrationConfig(t_final=t_final, scheme=name, dt=dt)
        fast = integrate(op, u0.coeffs, cfg)
        stages = integrate(lambda v: op.apply_rhs(u0.like(v)).coeffs, u0.coeffs, cfg)
        assert fast.shape == u0.coeffs.shape
        assert np.max(np.abs(fast - stages)) <= 1e-14 * np.max(np.abs(stages))


def test_stepped_2d_route_keeps_field_and_energy_log_semantics():
    op, u0 = _operator_2d("P2D")
    assert op.spectral_route is None
    before = u0.coeffs.copy()
    log = []
    u = integrate(op, u0, IntegrationConfig(t_final=0.5, dt=0.025), energy_log=log)
    assert u.space == u0.space and u.mesh is u0.mesh
    assert len(log) == 21  # t = 0 plus twenty steps
    assert energy_drift(log) < 1e-8
    np.testing.assert_array_equal(u0.coeffs, before)  # the march works on its own copy


@pytest.mark.parametrize("kind", ["P1D", "Q2D"])
def test_operator_route_rejects_a_field_of_another_space(kind):
    op, u0 = _alpha_operator() if kind == "P1D" else _operator_2d()
    other = l2_project(np.cos if kind == "P1D" else (lambda x, y: np.cos(x)), u0.mesh, SpaceKind(kind, 1))
    with pytest.raises(ValueError, match="space"):
        integrate(op, other, IntegrationConfig(t_final=0.1))


_UNIFORM8 = uniform_mesh(8, _BOX)


@pytest.mark.parametrize(
    "op_mesh, field_mesh, kind",
    [
        (_UNIFORM8, uniform_mesh(16, _BOX), "P1D"),
        (alpha_mesh(8, 0.1, _BOX), _UNIFORM8, "P1D"),
        (tensor_mesh(*[uniform_mesh(4, _BOX)] * 2), tensor_mesh(*[uniform_mesh(6, _BOX)] * 2), "P2D"),
    ],
    ids=["bloch-N8-on-N16", "alpha-on-uniform", "P2D-4x4-on-6x6"],
)
def test_operator_route_rejects_a_field_of_another_mesh(op_mesh, field_mesh, kind):
    # the operator's L would march the field's coefficients as if they lay on its own mesh
    space = SpaceKind(kind, 2)
    initial = np.sin if kind == "P1D" else (lambda x, y: np.sin(x + y))
    cfg = IntegrationConfig(t_final=0.1)
    with pytest.raises(ValueError, match="mesh"):
        integrate(SpatialOperator(op_mesh, space), l2_project(initial, field_mesh, space), cfg)
    # a mesh built again with the same nodes is the same mesh
    if kind == "P1D":
        integrate(SpatialOperator(op_mesh, space), l2_project(initial, Mesh1D(op_mesh.nodes.copy()), space), cfg)


# an operator and a field on its mesh, per march route
_ROUTE_OPERATORS = {
    "bloch": lambda: _uniform_operator_1d(8),
    "axes": lambda: _operator_2d("Q2D"),
    "P(hL)-1d": _alpha_operator,
    "P(hL)-2d": lambda: _operator_2d("P2D"),
}


@pytest.mark.parametrize("route", sorted(_ROUTE_OPERATORS))
def test_operator_route_rejects_an_array_not_shaped_as_its_coefficients(route):
    op, u0 = _ROUTE_OPERATORS[route]()
    assert op.spectral_route == (route if route in ("bloch", "axes") else None)
    cfg = IntegrationConfig(t_final=0.1, dt=0.01)
    for state in (u0.coeffs.ravel(), u0.coeffs[..., :-1]):
        with pytest.raises(ValueError, match="shape"):
            integrate(op, state, cfg)
    assert integrate(op, u0.coeffs, cfg).shape == u0.coeffs.shape


@pytest.mark.parametrize("route", sorted(_ROUTE_OPERATORS))
def test_operator_route_takes_dt_from_its_mesh_for_an_array(route):
    # with no explicit dt the rule dt = c * min h reads the operator's mesh, which a field's must equal
    op, u0 = _ROUTE_OPERATORS[route]()
    cfg = IntegrationConfig(t_final=0.1)
    np.testing.assert_array_equal(integrate(op, u0.coeffs, cfg), integrate(op, u0, cfg).coeffs)


def test_stepped_2d_route_divergence_reports_step_and_time():
    # |P(hL)| ~ (h|L|)^4 / 24 per step at h = 1000 overflows within a few dozen steps
    op, u0 = _operator_2d("P2D")
    with pytest.raises(IntegrationDivergedError, match="non-finite") as err:
        integrate(op, u0, IntegrationConfig(t_final=1e6, dt=1e3))
    assert 1 <= err.value.step < 1000
    assert err.value.time == pytest.approx(1e3 * err.value.step)


@pytest.mark.parametrize(
    "kwargs",
    [{"t_final": float("nan")}, {"t_final": float("inf")}, {"t_final": 1.0, "c": float("nan")}, {"t_final": 1.0, "dt": float("nan")}],
)
def test_non_finite_terminal_time_and_step_are_rejected(kwargs):
    with pytest.raises(ValueError, match="finite"):
        IntegrationConfig(**kwargs)


# -- the spectral route: the rk4 polynomial mode by mode ------------------------


def _stepped(monkeypatch):
    """Send every operator to the stepped route, P(hL) on its assembled L, for the rest of the test."""
    monkeypatch.setattr(operators, "_AXIS_EIGEN_CAP", 0)
    monkeypatch.setattr(operators, "_UNIFORM_RTOL", -1.0)


def _longdouble_march(op, u0, cfg):
    """The rk4 stage loop in extended precision, on the same assembled L."""
    mat = op.matrix.toarray().astype(np.longdouble)
    dt = cfg.resolve_dt(u0.mesh.min_width)
    nsteps = math.ceil(cfg.t_final / dt - 1e-12)
    w = u0.coeffs.ravel().astype(np.longdouble)
    for step in range(nsteps):
        h = np.longdouble(dt) if step < nsteps - 1 else cfg.t_final - (nsteps - 1) * np.longdouble(dt)
        k1 = mat @ w
        k2 = mat @ (w + h / 2 * k1)
        k3 = mat @ (w + h / 2 * k2)
        k4 = mat @ (w + h * k3)
        w = w + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u0.like(w.astype(float).reshape(u0.coeffs.shape))


_SPECTRAL_LEVELS = {
    "Q2D-alpha-random": ("Q2D", 2, lambda: (alpha_mesh(6, 0.3, _BOX), random_mesh(5, 0.3, 7, _BOX))),
    "Q2D-alpha-odd": ("Q2D", 2, lambda: (alpha_mesh(7, 0.3, _BOX),) * 2),
    "P2D-uniform-k1": ("P2D", 1, lambda: (uniform_mesh(6, _BOX),) * 2),
    "P2D-uniform-k2": ("P2D", 2, lambda: (uniform_mesh(6, _BOX), uniform_mesh(5, _BOX))),
    "P2D-uniform-k2-N5x6": ("P2D", 2, lambda: (uniform_mesh(5, _BOX), uniform_mesh(6, _BOX))),
    "P2D-uniform-k3": ("P2D", 3, lambda: (uniform_mesh(5, _BOX),) * 2),
    # N = 1 and N = 2: a cell is its own neighbour, or both its neighbours are one cell; on the
    # half spectrum they keep xi = 0 (and N/2) alone, N = 9 and 16 weight the conjugate pairs
    "P1D-uniform-k0-N1": ("P1D", 0, lambda: (uniform_mesh(1, _BOX),)),
    "P1D-uniform-k1-N2": ("P1D", 1, lambda: (uniform_mesh(2, _BOX),)),
    "P1D-uniform-k2-N9": ("P1D", 2, lambda: (uniform_mesh(9, _BOX),)),
    "P1D-uniform-k3-N2": ("P1D", 3, lambda: (uniform_mesh(2, _BOX),)),
    "P1D-uniform-k4-N1": ("P1D", 4, lambda: (uniform_mesh(1, _BOX),)),
    "P1D-uniform-k4-N16": ("P1D", 4, lambda: (uniform_mesh(16, _BOX),)),
}


@pytest.mark.parametrize("level", list(_SPECTRAL_LEVELS))
def test_spectral_route_matches_a_longdouble_march(level):
    kind, k, axes = _SPECTRAL_LEVELS[level]
    one_d = kind == "P1D"
    prob = PROBLEMS["advect1d_expsin" if one_d else "advect2d_sin"]
    mesh, space = (axes()[0] if one_d else tensor_mesh(*axes())), SpaceKind(kind, k)
    op = SpatialOperator(mesh, space)
    assert op.spectral_route == ("axes" if kind == "Q2D" else "bloch")
    u0 = l2_project(prob.initial, mesh, space)
    cfg = IntegrationConfig(t_final=1.0)
    fast, ref = integrate(op, u0, cfg), _longdouble_march(op, u0, cfg)
    for norm in (error_l2, error_cell_average) + ((error_interface_flux,) if one_d else ()):
        r = norm(prob.exact, ref, 1.0)
        assert abs(norm(prob.exact, fast, 1.0) - r) <= 1e-10 * abs(r) + 1e-13


def test_a_billion_step_level_marches_in_closed_form():
    # the last step starts at (n - 1) dt, not at a sum over the steps, and no per-step
    # energy array is made without a log: 1e9 rk4 steps of P2 on N = 10 take milliseconds
    prob = PROBLEMS["advect1d_expsin"]
    mesh, space = uniform_mesh(10, prob.domain), SpaceKind("P1D", 2)
    u0 = l2_project(prob.initial, mesh, space)
    e2 = [
        error_l2(prob.exact, integrate(SpatialOperator(mesh, space), u0, cfg), 1.0)
        for cfg in (IntegrationConfig(t_final=1.0, dt=1e-9), IntegrationConfig(t_final=1.0))
    ]
    assert e2[0] == pytest.approx(e2[1], rel=1e-6)


def test_spectral_energy_log_matches_the_steps(monkeypatch):
    # at c = 0.1 rk4 visibly damps the fast modes of random data, and
    # T = 0.5 is 5.68 (Q2D) and 5.57 (P1D, N = 7) steps: the log must follow
    # each step, the shortened last one too
    levels = [_operator_2d(), _uniform_operator_1d(7)]
    fields = [u0.like(np.random.default_rng(1).standard_normal(u0.coeffs.shape)) for _, u0 in levels]
    assert [op.spectral_route for op, _ in levels] == ["axes", "bloch"]
    cfg = IntegrationConfig(t_final=0.5, c=0.1)
    closed = [[] for _ in levels]
    for (op, _), u0, log in zip(levels, fields, closed):
        integrate(op, u0, cfg, energy_log=log)
    _stepped(monkeypatch)
    for u0, log in zip(fields, closed):
        stepped = []
        integrate(SpatialOperator(u0.mesh, u0.space), u0, cfg, energy_log=stepped)
        assert len(log) == len(stepped) == 7
        assert stepped[-2] - stepped[-1] > 1e-5 * stepped[-1]
        np.testing.assert_allclose(log, stepped, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "data, c, entries",
    [("smooth", 0.01, 1 << 16), ("smooth", 0.01, 1000), ("random", 0.3, 1000)],
    ids=["verify-drift-level", "verify-drift-level-small-blocks", "damped"],
)
def test_closed_form_energy_log_equals_the_per_step_loop(data, c, entries, monkeypatch):
    # verify's drift level (exp(sin x), P2 uniform N=40, c=0.01) is 637 steps x 120
    # modes: two blocks of steps at the default size, 77 at 1000 entries (the last
    # short).  Its drift is roundoff, so random data at c=0.3 (22 steps, 8 a block)
    # checks that each entry takes the right power and the last one P(h_last lam).
    monkeypatch.setattr(timestepping, "_LOG_ENTRIES", entries)
    mesh, space = uniform_mesh(40, (0.0, 2.0 * np.pi)), SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    u0 = l2_project(lambda x: np.exp(np.sin(x)), mesh, space)
    if data == "random":
        u0 = u0.like(np.random.default_rng(3).standard_normal(u0.coeffs.shape))
    cfg = IntegrationConfig(t_final=1.0, c=c)
    modes = []
    propagate = op.propagate

    def spy(coeffs, gain):
        return propagate(coeffs, lambda lam, z: modes.append((lam.copy(), z.copy())) or gain(lam, z))

    monkeypatch.setattr(op, "propagate", spy)
    log = []
    integrate(op, u0, cfg, energy_log=log)
    dt = cfg.resolve_dt(mesh.min_width)
    nsteps = math.ceil(cfg.t_final / dt - 1e-12)
    h_last = cfg.t_final - (nsteps - 1) * dt
    assert len(log) == nsteps + 1
    rk4 = lambda z: sum(g * z**j for j, g in enumerate(stability_coefficients(SCHEMES["rk4"])))
    loop = np.zeros(nsteps)
    for lam, z in modes:
        weight = np.abs(z) ** 2
        for n in range(nsteps):
            weight *= np.abs(rk4((dt if n < nsteps - 1 else h_last) * lam)) ** 2
            loop[n] += weight.sum()
    np.testing.assert_allclose(log[1:], loop, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kind", ["Q2D", "P2D", "P1D"])
def test_growing_spectral_level_is_stepped_and_raises_as_before(kind, monkeypatch):
    # rk4 at c = 0.5 is unstable for k = 2: the march hands the level to P(hL) on the assembled L
    space = SpaceKind(kind, 2)
    if kind == "P1D":
        u0 = _uniform_operator_1d(8)[1]
    else:
        u0 = l2_project(lambda x, y: np.exp(np.sin(x) + np.cos(y)), tensor_mesh(*[uniform_mesh(8, _BOX)] * 2), space)
    mesh = u0.mesh
    assert SpatialOperator(mesh, space).spectral_route is not None
    cfg = IntegrationConfig(t_final=1.0, c=0.5)
    errors = []
    for _ in range(2):
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(SpatialOperator(mesh, space), u0, cfg)
        errors.append((str(err.value), err.value.step, err.value.time))
        _stepped(monkeypatch)
    assert errors[0] == errors[1]
    assert "energy grew" in errors[0][0]


def test_p2d_on_a_random_mesh_steps_horner_on_its_matrix():
    # each step is u + hL(g1 u + hL(g2 u + ... + gs hL u)), the increment added to u last
    op, u0 = _operator_2d("P2D", 3)
    assert op.spectral_route is None
    cfg = IntegrationConfig(t_final=0.3)
    dt = cfg.resolve_dt(u0.mesh.min_width)
    nsteps = math.ceil(cfg.t_final / dt - 1e-12)
    gammas = stability_coefficients(SCHEMES["rk4"])
    u = u0.coeffs.ravel()
    for step in range(nsteps):
        h = dt if step < nsteps - 1 else cfg.t_final - (nsteps - 1) * dt
        q = gammas[4] * u
        for gamma in gammas[3:0:-1]:
            q = gamma * u + h * (op.matrix @ q)
        u = u + h * (op.matrix @ q)
    np.testing.assert_array_equal(integrate(op, u0, cfg).coeffs, u.reshape(u0.coeffs.shape))


@pytest.mark.parametrize(
    "kind, axis", [("Q2D", alpha_mesh(7, 0.3, _BOX)), ("P2D", uniform_mesh(6, _BOX))], ids=["Q2D-alpha", "P2D-uniform"]
)
def test_spectral_route_does_not_assemble_the_matrix(kind, axis):
    # the 2D L is built only for a level the spectral march declines
    space = SpaceKind(kind, 2)
    op = SpatialOperator(tensor_mesh(axis, axis), space)
    integrate(op, l2_project(PROBLEMS["advect2d_sin"].initial, op.mesh, space), IntegrationConfig(t_final=0.1))
    assert op.spectral_route is not None
    assert "matrix" not in op.__dict__


def _power_bases():
    """|z| = 1 exactly, |z| near and below 1 (rk4 gains on the imaginary axis among them), and 0.

    |z| >= 0.9 keeps z ** 4097 a normal double, so the relative error measures the powering.
    """
    rng = np.random.default_rng(5)
    rk4 = np.polyval(stability_coefficients(SCHEMES["rk4"])[::-1], 1j * rng.uniform(-1.0, 1.0, 40))
    circle = np.exp(2j * np.pi * rng.uniform(size=20))
    return np.concatenate([[1.0, -1.0, 1j, -1j, 0.0], rk4, circle, 0.9 * circle])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1477, 4097])
def test_power_by_squaring_matches_a_longdouble_reference(n):
    z = _power_bases()
    assert np.max(np.abs(z[:4])) == np.min(np.abs(z[:4])) == 1.0
    out = np.empty_like(z)
    got = timestepping._power(z.copy(), n, out)
    assert got is out
    ref = z.astype(np.clongdouble) ** n
    err = np.abs(got - ref)
    scale = np.abs(ref)
    assert np.all(err[scale == 0] == 0)  # 0 ** n = 0 exactly for n >= 1
    rel = (err[scale > 0] / scale[scale > 0]).astype(float)
    assert np.max(rel) <= 4 * (n + 1) * np.finfo(float).eps


def test_a_mode_just_past_gain_roundoff_hands_the_level_to_p_hl(monkeypatch):
    # a step 0.1% past rk4's limit |dt lam| <= 2 sqrt(2) on the imaginary axis: the fastest mode
    # grows by a factor 1 + growth per step, and the march declines once growth > _GAIN_ROUNDOFF
    mesh = tensor_mesh(uniform_mesh(8, _BOX), uniform_mesh(8, _BOX))
    space = SpaceKind("Q2D", 2)
    u0 = l2_project(PROBLEMS["advect2d_sin"].initial, mesh, space)
    lams = []
    SpatialOperator(mesh, space).propagate(u0.coeffs, lambda lam, z: lams.append(lam.copy()) or z)
    lam = np.concatenate([block.ravel() for block in lams])
    dt = 1.001 * 2.0 * np.sqrt(2.0) / np.max(np.abs(lam))
    growth = np.max(np.abs(np.polyval(stability_coefficients(SCHEMES["rk4"])[::-1], dt * lam))) - 1.0
    assert 0 < growth < 1e-2
    args = (u0.coeffs, dt, 3, dt, SCHEMES["rk4"], None)
    monkeypatch.setattr(timestepping, "_GAIN_ROUNDOFF", 2.0 * growth)
    assert timestepping._spectral_march(SpatialOperator(mesh, space), *args) is not None
    monkeypatch.setattr(timestepping, "_GAIN_ROUNDOFF", 0.5 * growth)
    assert timestepping._spectral_march(SpatialOperator(mesh, space), *args) is None
    # only the factors the run applies are tested: P(dt lam) is raised to nsteps - 1
    for nsteps, declined in ((2, True), (1, False)):
        args = (u0.coeffs, dt, nsteps, 0.5 * dt, SCHEMES["rk4"], None)
        assert (timestepping._spectral_march(SpatialOperator(mesh, space), *args) is None) == declined
    # integrate then steps P(hL) on the assembled L, exactly as a level with no diagonalising basis
    cfg = IntegrationConfig(t_final=3 * dt, dt=dt)
    op = SpatialOperator(mesh, space)
    stepped = integrate(op, u0, cfg)
    assert "matrix" in op.__dict__
    _stepped(monkeypatch)
    np.testing.assert_array_equal(stepped.coeffs, integrate(SpatialOperator(mesh, space), u0, cfg).coeffs)
