import math
import warnings

import numpy as np
import pytest

from dgcentral import timestepping
from dgcentral.fields import ModalField, SpaceKind, l2_project
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


def test_energy_drift_edge_cases():
    assert energy_drift([2.0, 2.0, 2.0]) == 0.0
    assert energy_drift([1.0, 1.1]) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        energy_drift([])


def test_a_zero_run_drifts_by_zero_and_a_zero_start_is_rejected():
    # a zero field keeps zero energy; a series that leaves a zero start has no relative drift
    mesh, space = uniform_mesh(8, (0.0, 2.0 * np.pi)), SpaceKind("P1D", 2)
    u0 = l2_project(np.zeros_like, mesh, space)
    u = integrate(SpatialOperator(mesh, space), u0, IntegrationConfig(t_final=0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert energy_drift([u0.norm_l2_squared(), u.norm_l2_squared()]) == energy_drift([0.0, 0.0]) == 0.0
        with pytest.raises(ValueError, match="starts at zero"):
            energy_drift([0.0, 1.0])


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


# -- the P(hL) routes: u <- P(hL) u for an operator with no diagonalising basis --


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
    # a full step, a full step followed by a shortened last one, then four full
    # steps at a time with 0, 1, 2 or 3 full steps left before the last step
    for t_final in (dt, 1.37 * dt, 4.37 * dt, 5.37 * dt, 6.37 * dt, 8 * dt):
        cfg = IntegrationConfig(t_final=t_final, scheme=name, dt=dt)
        fast = integrate(op, u0.coeffs, cfg)
        stages = integrate(lambda v: op.apply_rhs(u0.like(v)).coeffs, u0.coeffs, cfg)
        assert np.max(np.abs(fast - stages)) <= 1e-14 * np.max(np.abs(stages))


@pytest.mark.parametrize(
    "steps, dt, m",
    [
        (0.37, None, 1),
        (1.37, None, 1),
        (3.37, None, 2),
        (6.37, None, 4),
        (32.37, None, 16),
        (33.37, None, 16),
        (40.37, None, 16),
        (47.37, None, 16),
        (33, 2.0**-10, 16),
    ],
    ids=["one-step", "odd-step", "pair", "quad", "rest0", "rest1", "rest8", "rest15", "exact-divisor"],
)
def test_a_1d_p_hl_march_builds_each_step_once_per_run(steps, dt, m, monkeypatch):
    # Q1 = P(dt L) - I is built once per run (not at all for a single step), QM once from Q1 by doublings while the
    # run has more than 2M steps, up to M = 16 (P2 at c = 0.01); the kernel runs once per M full steps and once per
    # full step left over ((n - 1) mod M = 0, 1, M/2 and M - 1), and the last step goes on the state with no band
    op, u0 = _alpha_operator()
    assert op.spectral_route is None
    dt = dt or 0.01 * u0.mesh.min_width
    cfg = IntegrationConfig(t_final=steps * dt, dt=dt)
    nsteps = math.ceil(steps)
    (products, rest), h_last = divmod(nsteps - 1, m), cfg.t_final - (nsteps - 1) * dt
    assert (h_last == dt) == (steps == 33)  # the exact divisor's last step is a full one
    built, doubled = [], []
    step_band, pair_band = timestepping._step_band, timestepping._pair_band
    monkeypatch.setattr(timestepping, "_step_band", lambda op, h, gammas: built.append(h) or step_band(op, h, gammas))
    monkeypatch.setattr(timestepping, "_pair_band", lambda q, half: doubled.append(q.shape[2]) or pair_band(q, half))
    calls = _counted_products(monkeypatch)
    integrate(op, u0, cfg)
    assert built == [dt] * (nsteps > 1)
    # Q1 (2s + 1 = 9 cells for rk4), then Q2, Q4 and Q8 trimmed: 17, 21 and 25 cells of 17, 33 and 65 at c = 0.01,
    # and 15, 17 and 19 at the exact divisor's c = 0.0083
    assert doubled == ([9, 15, 17, 19] if steps == 33 else [9, 17, 21, 25])[: m.bit_length() - 1]
    assert len(calls) == products + rest


def test_a_large_c_run_marches_by_the_untrimmed_quad(monkeypatch):
    # at c = 0.3 no band trims: Q8 would be 8 * 8 + 1 = 65 cells wide, so the march takes Q4 (33 cells) as it did
    # before bands were trimmed, and builds nothing wider
    op, u0 = _alpha_operator(n=320)
    cfg = IntegrationConfig(t_final=10.0, c=0.3)
    dt = cfg.resolve_dt(u0.mesh.min_width)
    nsteps = math.ceil(cfg.t_final / dt - 1e-12)
    doubled, pair_band = [], timestepping._pair_band
    monkeypatch.setattr(timestepping, "_pair_band", lambda q, half: doubled.append(2 * half + 1) or pair_band(q, half))
    calls = _counted_products(monkeypatch)
    integrate(op, u0, cfg)
    assert doubled == [17, 33]
    assert len(calls) == (nsteps - 1) // 4 + (nsteps - 1) % 4


@pytest.mark.parametrize("kind", ["P2D", "Q2D"])
def test_a_stepped_2d_operator_forms_no_increment(kind, monkeypatch):
    # a 2D Q2 would fill in: every step is Horner's rule on the vector
    _stepped(monkeypatch)  # Q2D off its per-axis eigenbases
    formed = []
    monkeypatch.setattr(timestepping, "_step_band", lambda *args: formed.append(args))
    monkeypatch.setattr(timestepping, "_pair_band", lambda *args: formed.append(args))
    op, u0 = _operator_2d(kind)
    assert op.spectral_route is None
    cfg = IntegrationConfig(t_final=7.37 * 0.01 * u0.mesh.min_width)
    integrate(op, u0, cfg)
    assert formed == []


def _single_steps(op, u0, cfg):
    """The run's coefficients after every step taken alone by Q1's tiles, as the march takes those after its quads."""
    gammas = stability_coefficients(SCHEMES[cfg.scheme])
    dt = cfg.resolve_dt(op.mesh.min_width)
    nsteps = math.ceil(cfg.t_final / dt - 1e-12)
    h_last = cfg.t_final - (nsteps - 1) * dt
    full, last = (timestepping._row_tiles(timestepping._step_band(op, h, gammas))[2] for h in (dt, h_last))
    state = u0.coeffs.copy()
    for step in range(nsteps):
        (full if step < nsteps - 1 else last)(state.reshape(-1))
    return state


def _dense(band):
    """A band of row blocks (cells, dof, width, dof) as the square matrix it stands for, wrapped blocks summed."""
    cells, dof, width = band.shape[:3]
    out = np.zeros((cells, cells, dof, dof))
    rows = np.arange(cells)[:, None]
    np.add.at(out, (rows, (rows + np.arange(width) - width // 2) % cells), band.transpose(0, 2, 1, 3))
    return out.transpose(0, 2, 1, 3).reshape(cells * dof, cells * dof)


def _doubled(band):
    """The march's doubling of a band of QM = P^M - I: Q2M, trimmed."""
    return timestepping._pair_band(band, timestepping._doubled_half(band))


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


# Q2 couples 4s+1 = 17 cells (rk4) and Q4 8s+1 = 33, untrimmed: they wrap the periodic meshes of N <= 8 and N <= 16
# and sum duplicate entries; N = 40 wraps neither
_WRAPPING_MESHES = {
    "alpha2": alpha_mesh(2, 0.1, (0.0, 1.0)),
    "alpha4": alpha_mesh(4, 0.1, (0.0, 1.0)),
    "alpha40": alpha_mesh(40, 0.1, (0.0, 1.0)),
    "random3": random_mesh(3, 0.3, 5, (0.0, 1.0)),
    "random7": random_mesh(7, 0.3, 5, (0.0, 1.0)),
    "random40": random_mesh(40, 0.3, 5, (0.0, 1.0)),
}


@pytest.mark.usefixtures("low_order_schemes")
@pytest.mark.parametrize("c", [0.1, 0.01])
@pytest.mark.parametrize("name", _ALL_NAMES)
@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("mesh", list(_WRAPPING_MESHES))
def test_pair_increment_is_the_square_of_the_step_minus_identity(name, k, mesh, c):
    # the march's doublings up to 16 steps against the dense increments, E2M = 2 EM + EM EM of E1 = P(hL) - I.
    # QM keeps at most its 2Ms + 1 cells, and every entry it drops (the dense EM beyond its cells) lies below
    # `_TRIM` of EM's largest: at c = 0.01 a step moves about 0.01 cells, and Q4 and up drop their outer cells
    mesh = _WRAPPING_MESHES[mesh]
    op = SpatialOperator(mesh, SpaceKind("P1D", k))
    h, scheme = c * mesh.min_width, SCHEMES[name]
    band, expected = timestepping._step_band(op, h, stability_coefficients(scheme)), _step_oracle(op, h, scheme)
    for steps in (2, 4, 8, 16):
        band, expected = _doubled(band), 2.0 * expected + expected @ expected
        assert band.shape[2] <= 2 * steps * scheme.stages + 1
        # relative to the size of the blocks summed: a wrapped mesh sums blocks of several offsets into one entry,
        # and at k = 0 on N = 2 they cancel (L u_j = (u_j+1 - u_j-1) / 2h_j is 0) up to the roundoff of each block
        assert np.max(np.abs(_dense(band) - expected)) <= 1e-14 * np.max(_dense(np.abs(band)))
        if band.shape[2] <= mesh.num_cells:  # no block wraps: the entries outside the band are the ones dropped
            dropped = expected[_dense(np.ones_like(band)) == 0]
            assert np.max(np.abs(dropped), initial=0.0) <= timestepping._TRIM * np.max(np.abs(expected))


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("mesh", list(_WRAPPING_MESHES))
def test_the_row_tiles_hold_the_pair_increment_exactly(k, mesh):
    # N = 2 and 4 wrap the band onto itself: the halo repeats the state, and each tile still holds its rows' blocks
    mesh = _WRAPPING_MESHES[mesh]
    op, gammas = SpatialOperator(mesh, SpaceKind("P1D", k)), stability_coefficients(SCHEMES["rk4"])
    pair = _doubled(timestepping._step_band(op, 0.01 * mesh.min_width, gammas))
    for band in (pair, _doubled(pair), _doubled(_doubled(_doubled(pair)))):  # the pair, the quad and Q16
        tiles, index, _ = timestepping._row_tiles(band)
        cells, dof, width = band.shape[:3]
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
            assert np.array_equal(held, band[row] if row < cells else np.zeros_like(held))
            assert not np.any(blocks[row, :, :i]) and not np.any(blocks[row, :, i + width :])


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("family", ["alpha", "random"])
def test_paired_march_equals_its_single_steps(k, family):
    mesh = alpha_mesh(40, 0.1, (0.0, 2.0 * np.pi)) if family == "alpha" else random_mesh(40, 0.3, 11, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", k)
    op, u0 = SpatialOperator(mesh, space), l2_project(lambda x: np.exp(np.sin(x)), mesh, space)
    assert op.spectral_route is None
    cfg = IntegrationConfig(t_final=1.0)
    single = _single_steps(op, u0, cfg)
    paired = integrate(op, u0, cfg).coeffs
    assert np.max(np.abs(paired - single)) <= 1e-13 * np.max(np.abs(single))


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("mesh", list(_WRAPPING_MESHES))
def test_a_paired_advance_is_the_pair_product_added_to_the_state(k, mesh):
    # the product overwrites its buffer: each pair (or quad) must start from none of the last one's product
    mesh = _WRAPPING_MESHES[mesh]
    op = SpatialOperator(mesh, SpaceKind("P1D", k))
    dt = 0.01 * mesh.min_width
    pair = _doubled(timestepping._step_band(op, dt, stability_coefficients(SCHEMES["rk4"])))
    for band in (pair, _doubled(pair), _doubled(_doubled(_doubled(pair)))):
        increment, advance = _dense(band), timestepping._row_tiles(band)[2]
        x = np.random.default_rng(k).standard_normal((mesh.num_cells, k + 1)).ravel()
        for _ in range(3):
            before = x.copy()
            advance(x)  # in place
            assert np.max(np.abs(x - (before + increment @ before))) <= 1e-14 * np.max(np.abs(before))


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


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("mesh", list(_WRAPPING_MESHES))
def test_the_tiled_march_matches_horner_steps_on_the_assembled_matrix(mesh, single, k):
    # the quads (the march) or the single steps against s products with the CSR L per step
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
    tiled = (_single_steps(op, u0, cfg) if single else integrate(op, u0, cfg).coeffs).ravel()
    assert np.max(np.abs(tiled - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_matrix_path_conserves_mass_to_roundoff(monkeypatch):
    # the cell averages are conserved exactly by L; P(hL) stored with its
    # identity drifted them by ~5e-13 over a P4 run
    mesh = uniform_mesh(80, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", 4)
    u0 = l2_project(lambda x: np.exp(np.sin(x)), mesh, space)
    op = SpatialOperator(mesh, space)
    for route in ("bloch", None):  # the Bloch route, then P(hL) on the same level
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


def test_matrix_path_keeps_field_semantics_and_energy():
    op, u0 = _alpha_operator()
    u = integrate(op, u0, IntegrationConfig(t_final=0.5, dt=0.025))  # twenty steps
    assert u.space == u0.space and u.mesh is u0.mesh
    # dt here is coarse, so only rk4's own O(dt^4) energy error shows up; |P| <= 1, so the change at T is the largest
    assert energy_drift([u0.norm_l2_squared(), u.norm_l2_squared()]) < 1e-8


@pytest.mark.parametrize("route", ["P(hL)", "stepped-2d", "bloch", "axes"])
def test_every_route_loses_only_rk4s_damping_of_the_energy(route):
    # the central flux conserves the energy, and rk4 at c = 0.01 damps it by O(dt^4) (here 1e-14 to 3e-12
    # relative); "bloch" is verify's drift level (P2, N = 40, T = 1: 637 steps)
    levels = {
        "P(hL)": (_alpha_operator, 0.2),
        "stepped-2d": (lambda: _operator_2d("P2D"), 0.2),
        "bloch": (lambda: _uniform_operator_1d(40), 1.0),
        "axes": (_operator_2d, 0.2),
    }
    build, t_final = levels[route]
    op, u0 = build()
    assert op.spectral_route == {"bloch": "bloch", "axes": "axes"}.get(route)
    u = integrate(op, u0, IntegrationConfig(t_final=t_final))
    assert u.space == u0.space and u.mesh is u0.mesh
    energy0, energy = u0.norm_l2_squared(), u.norm_l2_squared()
    assert 0.0 < energy0 - energy <= 1e-10 * energy0


def test_matrix_path_divergence_reports_step_and_time():
    # |P(hL)| ~ (h|L|)^4 / 24 per step at h = 1000 overflows within a few dozen steps, taken four at a time
    op, u0 = _alpha_operator()
    with pytest.raises(IntegrationDivergedError, match="non-finite") as err:
        integrate(op, u0, IntegrationConfig(t_final=1e6, dt=1e3))
    assert err.value.step == 1000  # the overflow stays non-finite to the run's last step, where it is judged
    assert err.value.time == pytest.approx(1e6)


def test_an_unstable_alpha_level_reports_the_pair_that_overflows():
    # rk4 at k = 2 is stable up to c ~ 0.35: at c = 0.5 the march overflows before T = 100, in its 113th quad;
    # the state stays non-finite to the run's last step, where it is judged
    op, u0 = _alpha_operator(n=40)
    cfg = IntegrationConfig(t_final=100.0, c=0.5)
    nsteps = math.ceil(cfg.t_final / cfg.resolve_dt(u0.mesh.min_width) - 1e-12)
    with pytest.raises(IntegrationDivergedError) as err:
        integrate(op, u0, cfg)
    assert str(err.value) == f"non-finite state detected at step {nsteps} (t = 100)"
    assert err.value.step == nsteps == 1415


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
    # the kernel writes `value` into one entry of its product at the given product (1-based), as an overflow
    # would; the run's 21 steps are 5 quads, all 5 products run, and the entry, added into the state, stays
    # non-finite through the last step (taken on the state) to the final state, judged at step 21

    def seed(calls, out):
        if len(calls) == pair:
            out.reshape(-1)[7] = value

    calls = _counted_products(monkeypatch, seed)
    op, u0 = _alpha_operator()
    dt = 0.01 * u0.mesh.min_width
    with pytest.raises(IntegrationDivergedError, match="non-finite state detected at step 21 ") as err:
        integrate(op, u0, IntegrationConfig(t_final=20.37 * dt))
    assert len(calls) == 5
    assert err.value.time == pytest.approx(20.37 * dt)


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


def test_growth_from_zero_energy_is_reported_without_a_relative_figure():
    # a source term raises a field that starts at zero energy, where a relative growth does not exist
    u0 = l2_project(lambda x: 0 * x, uniform_mesh(4, (0.0, 1.0)), SpaceKind("P1D", 1))
    with pytest.raises(IntegrationDivergedError, match=r"^discrete energy grew from 0 to 1\.333e-02 \(") as err:
        integrate(lambda u: u.like(np.ones_like(u.coeffs)), u0, IntegrationConfig(t_final=0.1, dt=0.05))
    assert (err.value.step, err.value.time) == (2, pytest.approx(0.1))


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


def test_stepped_2d_route_keeps_field_semantics_and_energy():
    op, u0 = _operator_2d("P2D")
    assert op.spectral_route is None
    before = u0.coeffs.copy()
    u = integrate(op, u0, IntegrationConfig(t_final=0.5, dt=0.025))  # twenty steps
    assert u.space == u0.space and u.mesh is u0.mesh
    assert energy_drift([u0.norm_l2_squared(), u.norm_l2_squared()]) < 1e-8
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


_LAYOUTS = {
    "F-ordered": np.asfortranarray,
    "strided": lambda a: np.stack([a, -a], axis=-1)[..., 0],  # every other entry of a larger buffer
    "float32": lambda a: a.astype(np.float32),
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("as_field", [False, True], ids=["array", "field"])
@pytest.mark.parametrize("route", sorted(_ROUTE_OPERATORS) + ["callable"])
def test_a_state_of_any_layout_marches_as_its_c_ordered_float64_copy(route, as_field, layout):
    # the 1D tiles step a reshaped state in place: an F-ordered one would reshape to a copy and be left unchanged
    op, u0 = _ROUTE_OPERATORS["P(hL)-1d" if route == "callable" else route]()
    rhs = op
    if route == "callable":  # the 1D alpha operator by the stages
        rhs = op.apply_rhs if as_field else (lambda v: op.apply_rhs(u0.like(v)).coeffs)
    state = _LAYOUTS[layout](u0.coeffs)
    assert state.dtype != np.float64 or not state.flags.c_contiguous
    cfg = IntegrationConfig(t_final=0.1, dt=0.01)

    def run(coeffs):
        return integrate(rhs, u0.like(coeffs), cfg).coeffs if as_field else integrate(rhs, coeffs, cfg)

    expected, before = run(np.ascontiguousarray(state, dtype=float)), state.copy()
    assert np.max(np.abs(expected - u0.coeffs)) > 1e-6  # the run moved the state
    np.testing.assert_array_equal(run(state), expected)
    np.testing.assert_array_equal(state, before)  # the march steps its own copy


def test_stepped_2d_route_divergence_reports_step_and_time():
    # |P(hL)| ~ (h|L|)^4 / 24 per step at h = 1000 overflows within a few dozen steps; the run is judged at its last
    op, u0 = _operator_2d("P2D")
    with pytest.raises(IntegrationDivergedError, match="non-finite") as err:
        integrate(op, u0, IntegrationConfig(t_final=1e6, dt=1e3))
    assert err.value.step == 1000
    assert err.value.time == pytest.approx(1e6)


@pytest.mark.parametrize(
    "kwargs",
    [{"t_final": float("nan")}, {"t_final": float("inf")}, {"t_final": 1.0, "c": float("nan")}, {"t_final": 1.0, "dt": float("nan")}],
)
def test_non_finite_terminal_time_and_step_are_rejected(kwargs):
    with pytest.raises(ValueError, match="finite"):
        IntegrationConfig(**kwargs)


# -- the spectral route: the rk4 polynomial mode by mode ------------------------


def _stepped(monkeypatch):
    """Send every operator to the stepped route, P(hL), for the rest of the test."""
    monkeypatch.setattr(SpatialOperator, "spectral_route", None)


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
    # the axes route marches the first axis's null block at weight 1 and its omega > 0 half weighted: a
    # null block of two modes at odd k (N = 7 and 5) or even N (6), of one at even k and odd N (N = 1)
    "Q2D-alpha-odd-k1": ("Q2D", 1, lambda: (alpha_mesh(7, 0.3, _BOX), alpha_mesh(5, 0.3, _BOX))),
    "Q2D-alpha-odd-k3": ("Q2D", 3, lambda: (alpha_mesh(5, 0.3, _BOX), alpha_mesh(3, 0.3, _BOX))),
    "Q2D-uniform-k2-N6": ("Q2D", 2, lambda: (uniform_mesh(6, _BOX),) * 2),
    "Q2D-k2-N1x7": ("Q2D", 2, lambda: (uniform_mesh(1, _BOX), alpha_mesh(7, 0.3, _BOX))),
    "Q2D-k3-N2x5": ("Q2D", 3, lambda: (uniform_mesh(2, _BOX), alpha_mesh(5, 0.3, _BOX))),
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


# (family, k, N, steps): the bands of rk4 at c = 0.01 wrap N = 1, 2 and 3 many times over, and ceil(steps) - 1
# full steps leave (n - 1) mod 16 = 0, 1, 8 or 15 of them to Q1 after the products by Q16 (every band up to Q16
# fits 33 cells here); N = 40 and 20 wrap no band
_TILED_LEVELS = {
    "alpha-k0-N1-rest0": ("alpha", 0, 1, 32.37),
    "alpha-k1-N2-rest1": ("alpha", 1, 2, 33.37),
    "alpha-k2-N3-rest8": ("alpha", 2, 3, 40.37),
    "alpha-k3-N2-rest15": ("alpha", 3, 2, 47.37),
    "alpha-k4-N3-rest0": ("alpha", 4, 3, 48.37),
    "alpha-k2-N40": ("alpha", 2, 40, None),
    "random-k0-N3-rest15": ("random", 0, 3, 47.37),
    "random-k1-N1-rest8": ("random", 1, 1, 40.37),
    "random-k2-N2-rest1": ("random", 2, 2, 33.37),
    "random-k3-N3-rest0": ("random", 3, 3, 32.37),
    "random-k4-N2-rest8": ("random", 4, 2, 56.37),
    "random-k4-N20": ("random", 4, 20, None),
}


@pytest.mark.parametrize("level", list(_TILED_LEVELS))
def test_tiled_route_matches_a_longdouble_march(level, monkeypatch):
    family, k, n, steps = _TILED_LEVELS[level]
    mesh = alpha_mesh(n, 0.1, _BOX) if family == "alpha" else random_mesh(n, 0.3, 11, _BOX)
    if n == 1:  # one cell is a uniform mesh: sent off the Bloch route
        _stepped(monkeypatch)
    prob, space = PROBLEMS["advect1d_expsin"], SpaceKind("P1D", k)
    op, u0 = SpatialOperator(mesh, space), l2_project(prob.initial, mesh, space)
    assert op.spectral_route is None
    dt = 0.01 * mesh.min_width
    cfg = IntegrationConfig(t_final=1.0) if steps is None else IntegrationConfig(t_final=steps * dt, dt=dt)
    fast, ref = integrate(op, u0, cfg), _longdouble_march(op, u0, cfg)
    for norm in (error_l2, error_cell_average, error_interface_flux):
        r = norm(prob.exact, ref, cfg.t_final)
        assert abs(norm(prob.exact, fast, cfg.t_final) - r) <= 1e-10 * abs(r) + 1e-13


def test_a_billion_step_level_marches_in_closed_form():
    # the last step starts at (n - 1) dt, not at a sum over the steps, and the march keeps
    # nothing per step: 1e9 rk4 steps of P2 on N = 10 take milliseconds
    prob = PROBLEMS["advect1d_expsin"]
    mesh, space = uniform_mesh(10, prob.domain), SpaceKind("P1D", 2)
    u0 = l2_project(prob.initial, mesh, space)
    e2 = [
        error_l2(prob.exact, integrate(SpatialOperator(mesh, space), u0, cfg), 1.0)
        for cfg in (IntegrationConfig(t_final=1.0, dt=1e-9), IntegrationConfig(t_final=1.0))
    ]
    assert e2[0] == pytest.approx(e2[1], rel=1e-6)


def test_the_spectral_march_is_the_forced_stepped_run(monkeypatch):
    # At c = 0.1 rk4 visibly damps the fast modes of random data, and T = 0.5 is 5.68 (Q2D), 5.57
    # (P1D, N = 7) and 4.77 (P2D, N = 6) steps, the shortened last one included
    p2d = tensor_mesh(uniform_mesh(6, _BOX), uniform_mesh(5, _BOX))
    ops = [_operator_2d()[0], _uniform_operator_1d(7)[0], SpatialOperator(p2d, SpaceKind("P2D", 2))]
    assert [op.spectral_route for op in ops] == ["axes", "bloch", "bloch"]
    rng = np.random.default_rng(1)
    shapes = [tuple(axis.num_cells for axis in op.mesh.axes) + (op.space.dof,) for op in ops]
    fields = [ModalField(op.space, op.mesh, rng.standard_normal(shape)) for op, shape in zip(ops, shapes)]
    cfg = IntegrationConfig(t_final=0.5, c=0.1)
    marched = [integrate(op, u0, cfg) for op, u0 in zip(ops, fields)]
    _stepped(monkeypatch)
    for u0, m in zip(fields, marched):
        u = integrate(SpatialOperator(u0.mesh, u0.space), u0, cfg)
        assert np.max(np.abs(u.coeffs - m.coeffs)) <= 1e-12 * np.max(np.abs(m.coeffs))
        energy0, energy = u0.norm_l2_squared(), u.norm_l2_squared()
        assert energy0 - energy > 1e-5 * energy


@pytest.mark.parametrize("kind", ["Q2D", "P2D", "P1D"])
def test_a_growing_spectral_level_raises_as_its_steps_do(kind, monkeypatch):
    # rk4 at c = 0.5 is unstable for k = 2: the march applies the growing factors, which the steps apply too
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
    "kind, axis",
    [("Q2D", alpha_mesh(7, 0.3, _BOX)), ("P2D", uniform_mesh(6, _BOX)), ("P1D", uniform_mesh(8, _BOX))],
    ids=["Q2D-alpha", "P2D-uniform", "P1D-uniform"],
)
def test_spectral_route_does_not_assemble_the_matrix(kind, axis, monkeypatch):
    # a level with a diagonalising basis builds neither L nor 1D row blocks, stable (c = 0.01) or not (c = 0.5)
    monkeypatch.setattr(timestepping, "_step_band", lambda *args: pytest.fail("1D row blocks were built"))
    space = SpaceKind(kind, 2)
    op = SpatialOperator(axis if kind == "P1D" else tensor_mesh(axis, axis), space)
    assert op.spectral_route is not None
    u0 = l2_project(PROBLEMS["advect1d_expsin" if kind == "P1D" else "advect2d_sin"].initial, op.mesh, space)
    integrate(op, u0, IntegrationConfig(t_final=0.1))
    with pytest.raises(IntegrationDivergedError, match="energy grew"):
        integrate(op, u0, IntegrationConfig(t_final=1.0, c=0.5))
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
