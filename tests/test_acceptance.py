"""Acceptance gate: every advertised convergence result at its stated tolerance.

One test per claim; `pytest -v tests/test_acceptance.py` prints one pass/fail
line for each.  The studies here run the same ladders as the shipped configs
(desk scale, T=1, c=0.01) and take about 7 s in total on a 2-vCPU host.
Every table is guarded by the re-quadrature check: raising the error
quadrature by two orders must not move E2 by more than 0.1%, so the reported
digits measure the discretization, not the error integration.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dgcentral.fields import SpaceKind, l2_project, shift_local_matrix_1d, shifted_projection_1d
from dgcentral.mesh import alpha_mesh, uniform_mesh
from dgcentral.operators import (
    SpatialOperator,
    flux_cancellation_residual_2d,
    superconvergence_residual_1d,
    superconvergence_residual_2d,
)
from dgcentral.study import ERROR_FLOOR, StudyConfig, load_config, run_study
from dgcentral.timestepping import IntegrationConfig, energy_drift, integrate
from dgcentral.verify import (
    _translation_residual_1d,
    _translation_residual_2d,
    suite_energy,
)

TWO_PI = 2.0 * np.pi
ROOT = Path(__file__).resolve().parents[1]  # the checkout, whatever the working directory


def _table(cfg: StudyConfig, paper_scale: bool = False):
    table = run_study(cfg, paper_scale=paper_scale)
    assert max(table.e2_requad_reldiff) < 1e-3, "error quadrature is not converged"
    return table


def _shipped(name: str) -> StudyConfig:
    # strip output.dir so acceptance runs leave no files behind
    return replace(load_config(ROOT / "configs" / name), out_dir=None)


def _cfg_1d(degree: int, family: str, ns: tuple[int, ...], **kw) -> StudyConfig:
    return StudyConfig(
        problem="advect1d_expsin",
        space_kind="P1D",
        degree=degree,
        family=family,
        ns=ns,
        **kw,
    )


def test_criterion_01_1d_p2_alpha_suboptimal_orders():
    table = _table(_shipped("advect1d_alpha_p2.cfg"))
    print(f"LS(E2)={table.ls2:.3f}  LS(EA)={table.lsa:.3f}  LS(Ef)={table.lsf:.3f}")
    assert 1.93 <= table.ls2 <= 2.63
    assert table.lsa >= 2.9
    assert table.lsf >= 2.8


def test_criterion_02_1d_p2_uniform_optimal_orders_and_spot_value():
    table = _table(_shipped("advect1d_uniform_p2.cfg"))
    print(f"LS(E2)={table.ls2:.3f}  LS(EA)={table.lsa:.3f}  LS(Ef)={table.lsf:.3f}")
    assert 2.73 <= table.ls2 <= 3.43
    assert table.lsa >= 4.3
    assert table.lsf >= 3.5
    e2_40 = table.e2[table.ns.index(40)]
    print(f"E2(N=40)={e2_40:.3e}")
    assert e2_40 == pytest.approx(6.12e-05, rel=0.15)


def test_criterion_03_1d_p4_orders():
    ns = (10, 20, 40, 80, 160)
    shifted = _table(_cfg_1d(4, "alpha", ns, alpha=0.1))
    uniform = _table(_cfg_1d(4, "uniform", ns))
    print(f"LS(E2) alpha={shifted.ls2:.3f}  uniform={uniform.ls2:.3f}")
    assert 4.7 <= uniform.ls2 <= 5.5
    assert 3.8 <= shifted.ls2 <= 4.5


def test_criterion_04_1d_p0_dichotomy():
    uniform = _table(_cfg_1d(0, "uniform", (20, 40, 80, 160, 320)))
    print(f"uniform finest rates: E2 {uniform.rate2[-1]:.3f}, EA {uniform.ratea[-1]:.3f}")
    assert uniform.rate2[-1] == pytest.approx(1.0, abs=0.05)
    assert uniform.ratea[-1] == pytest.approx(2.0, abs=0.05)

    # the alpha ladder needs one paper-scale level to show two N >= 320 rows
    shifted = _table(_cfg_1d(0, "alpha", (80, 160, 320, 640), alpha=0.1), paper_scale=True)
    for n, e2, rate in zip(shifted.ns, shifted.e2, shifted.rate2):
        if n >= 320:
            print(f"N={n}: E2={e2:.4e} rate={rate:.3f}")
            assert e2 == pytest.approx(1.75e-01, rel=0.10)
            assert abs(rate) <= 0.05


def test_criterion_05_1d_p2_random_mesh_order_between_k_and_k_plus_1():
    table = _table(_shipped("advect1d_random_p2.cfg"))
    print(f"LS(E2)={table.ls2:.3f}")
    assert 2.0 < table.ls2 < 3.0


def test_criterion_06_2d_q2_orders():
    shifted = _table(_shipped("advect2d_alpha_q2.cfg"))
    uniform = _table(_shipped("advect2d_uniform_q2.cfg"))
    print(f"LS(E2) alpha={shifted.ls2:.3f}  uniform={uniform.ls2:.3f}")
    assert 1.7 <= shifted.ls2 <= 2.3
    assert 2.9 <= uniform.ls2 <= 3.5


def test_criterion_07_2d_total_degree_rates():
    expected = {1: 1.0, 2: 2.0}
    for degree, target in expected.items():
        cfg = StudyConfig(
            problem="advect2d_sin",
            space_kind="P2D",
            degree=degree,
            family="uniform",
            ns=(4, 8, 16, 32, 64, 128),
        )
        table = _table(cfg)
        finest = table.rate2[-2:]
        print(f"P{degree} finest rates: {finest[0]:.3f}, {finest[1]:.3f}")
        for rate in finest:
            assert rate == pytest.approx(target, abs=0.15)

    table = _table(_shipped("advect2d_uniform_p3.cfg"))
    finest = table.rate2[-2:]
    print(f"P3 finest rates: {finest[0]:.3f}, {finest[1]:.3f}")
    for rate in finest:
        assert rate == pytest.approx(3.0, abs=0.15)


def test_criterion_08_energy_conservation():
    # semi-discrete skewness on 200 random fields in each of four configs
    for res in suite_energy(fields_per_config=200):
        print(("PASS " if res.passed else "FAIL ") + f"{res.name}: {res.detail}")
        assert res.passed, f"{res.name}: {res.detail}"

    # full-run drift, k=2, N=40, T=1
    mesh = uniform_mesh(40, (0.0, TWO_PI))
    space = SpaceKind("P1D", 2)
    u0 = l2_project(lambda x: np.exp(np.sin(x)), mesh, space)
    op = SpatialOperator(mesh, space)
    # the energy at every step boundary of the rk4 run at c = 0.01: one integrate call per step
    dt = 0.01 * mesh.min_width
    nsteps = math.ceil(1.0 / dt - 1e-12)
    u, energies = u0, [u0.norm_l2_squared()]
    for step in range(nsteps):
        h = dt if step < nsteps - 1 else 1.0 - (nsteps - 1) * dt
        u = integrate(op.apply_rhs, u, IntegrationConfig(t_final=h, dt=h))
        energies.append(u.norm_l2_squared())
    drift = energy_drift(energies)
    print(f"full-run energy drift: {drift:.3e}")
    assert drift <= 1e-10


def test_criterion_09_projection_properties():
    # superconvergence residuals on uniform patches
    for k in (2, 4):
        res = superconvergence_residual_1d(k)
        print(f"1D superconvergence residual k={k}: {res:.3e}")
        assert res <= 1e-11
    for direction in ("x", "y"):
        res = superconvergence_residual_2d(2, direction)
        print(f"2D superconvergence residual ({direction}): {res:.3e}")
        assert res <= 1e-11
    for k in (2, 4):
        assert flux_cancellation_residual_2d(k) <= 1e-11

    # odd-degree singularity with the expected null direction
    for k in (1, 3):
        mat = shift_local_matrix_1d(k)
        s = np.linalg.svd(mat, compute_uv=False)
        print(f"k={k} singular-value ratio: {s[-1] / s[0]:.3e}")
        assert s[-1] / s[0] <= 1e-12
        null = np.linalg.svd(mat)[2][-1]
        assert abs(null[k]) > 1.0 - 1e-10  # the degree-k Legendre mode

    # translation invariance of the shifted projection
    for k in (2, 4):
        assert _translation_residual_1d(k) <= 1e-12
    for axis in ("x", "y"):
        assert _translation_residual_2d(2, axis) <= 1e-12

    # cell-average preservation on a nonuniform mesh
    mesh = alpha_mesh(8, 0.3, (0.0, TWO_PI))
    proj = shifted_projection_1d(np.exp, mesh, 2)
    lo, hi = mesh.nodes[:-1], mesh.nodes[1:]
    exact_avg = (np.exp(hi) - np.exp(lo)) / mesh.widths
    worst = float(np.max(np.abs(proj.coeffs[:, 0] - exact_avg)))
    print(f"cell-average preservation residual: {worst:.3e}")
    assert worst <= 1e-12

    # P*(x^3) with k=2 on [-1,1] is (3/5)x
    cell = uniform_mesh(1, (-1.0, 1.0))
    coeffs = shifted_projection_1d(lambda x: x**3, cell, 2).coeffs[0]
    np.testing.assert_allclose(coeffs, [0.0, 0.6, 0.0], atol=1e-13)


def test_criterion_10_paper_scale_regime_is_documented_not_reproduced():
    readme = " ".join((ROOT / "README.md").read_text().split())
    assert "double precision" in readme
    assert "--paper-scale" in readme

    # the runner documents and enforces the truncation rule
    from dgcentral import study

    assert ERROR_FLOOR == 100.0 * np.finfo(float).eps
    assert "100x machine epsilon" in study.__doc__
    assert study.DESK_CAP_1D == 320 and study.DESK_CAP_2D_LOW == 128


def _odd_degree_uniform(degree: int):
    # the uniform P2 ladder at an odd degree, where the shifted projection P* does not exist and E2 converges at
    # order k, not k + 1 (Bloch route; LS(E2) read 0.995 at k = 1 and 2.906 at k = 3)
    table = _table(replace(_shipped("advect1d_uniform_p2.cfg"), degree=degree))
    print(f"LS(E2)={table.ls2:.3f}")
    return table.ls2


def test_criterion_11_1d_p1_uniform_order_k():
    assert 0.7 <= _odd_degree_uniform(1) <= 1.3


def test_criterion_12_1d_p3_uniform_order_k():
    assert 2.7 <= _odd_degree_uniform(3) <= 3.3
