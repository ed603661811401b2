"""Executable verification suites for the structural properties of the scheme.

Three suites, each a list of named checks with hard tolerances:

* ``energy`` — the semi-discrete operator is skew (central fluxes make
  d/dt ||u||^2 vanish exactly), constants are steady states, and a full
  integration conserves the discrete energy to time-integrator accuracy.
* ``projection`` — the shifted projection reproduces polynomials, preserves
  cell averages, is singular exactly for odd degrees, matches its defining
  weak form, and has translation-invariant error on uniform meshes.
* ``superconvergence`` — the projected residual of x^{k+1} vanishes on
  uniform interior patches (1D and 2D), the across-edge flux moments cancel,
  and the property demonstrably fails on a 1:2:1 patch.

``run_suite`` renders a pass/fail report; the CLI maps any failure to a
dedicated exit code so scripts can gate on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import gauss_rule, legendre_table
from .fields import (
    ModalField,
    SpaceKind,
    _mass_vector,
    _weak_local_system_1d,
    l2_project,
    shift_local_matrix_1d,
    shift_local_matrix_2d,
    shifted_projection_1d,
    shifted_projection_2d,
)
from .mesh import Mesh1D, TensorMesh2D, alpha_mesh, random_mesh, tensor_mesh, uniform_mesh
from .operators import (
    SpatialOperator,
    flux_cancellation_residual_2d,
    superconvergence_residual_1d,
    superconvergence_residual_2d,
)
from .timestepping import IntegrationConfig, energy_drift, integrate

__all__ = ["CheckResult", "SUITES", "run_suite", "suite_energy", "suite_projection", "suite_superconvergence"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, value: float, bound: float, kind: str = "<=") -> CheckResult:
    value = float(value)
    if kind == "<=":
        ok = value <= bound
        detail = f"{value:.3e} <= {bound:.1e}"
    else:
        ok = value > bound
        detail = f"{value:.3e} > {bound:.1e}"
    return CheckResult(name, ok, detail)


def inner_l2(u: ModalField, w: ModalField) -> float:
    """Global L2 inner product of two fields on the same mesh/space."""
    mass = _mass_vector(u.space.kind, u.space.degree)
    prod = (u.coeffs * w.coeffs) @ mass
    if u.space.dimension == 1:
        return float((0.5 * u.mesh.widths) @ prod)
    hx = 0.5 * u.mesh.mesh_x.widths
    hy = 0.5 * u.mesh.mesh_y.widths
    return float(hx @ prod @ hy)


def _skew_configs() -> list[tuple[str, SpaceKind, Mesh1D | TensorMesh2D]]:
    span = (0.0, 2.0 * np.pi)
    return [
        ("P1D k=2 uniform N=16", SpaceKind("P1D", 2), uniform_mesh(16, span)),
        ("P1D k=2 alpha=0.1 N=16", SpaceKind("P1D", 2), alpha_mesh(16, 0.1, span)),
        ("Q2D k=2 uniform 8x8", SpaceKind("Q2D", 2), tensor_mesh(uniform_mesh(8, span), uniform_mesh(8, span))),
        ("P2D k=2 uniform 8x8", SpaceKind("P2D", 2), tensor_mesh(uniform_mesh(8, span), uniform_mesh(8, span))),
    ]


def suite_energy(fields_per_config: int = 50) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(20240317)
    for label, space, mesh in _skew_configs():
        op = SpatialOperator(mesh, space)
        shape = (mesh.num_cells, space.dof) if space.dimension == 1 else (*mesh.num_cells, space.dof)
        worst = 0.0
        for _ in range(fields_per_config):
            u = ModalField(space, mesh, rng.standard_normal(shape))
            w = op.apply_rhs(u)
            worst = max(worst, abs(inner_l2(w, u)) / u.norm_l2_squared())
        results.append(_check(f"skew-symmetry |(Lu,u)|/||u||^2, {label}", worst, 1e-12))

        ones = np.zeros(shape)
        ones[..., 0] = 1.0
        resid = np.max(np.abs(op.apply_rhs(ModalField(space, mesh, ones)).coeffs))
        results.append(_check(f"free-stream |L(1)|, {label}", resid, 1e-13))

    # Full integration of the smooth advection problem through the assembled L,
    # the route the 1D ladders take: rk4's O(dt^4) energy error is invisible
    # at this resolution, so the drift is pure roundoff.
    mesh = uniform_mesh(40, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    u0 = l2_project(lambda x: np.exp(np.sin(x)), mesh, space)
    log: list[float] = []
    integrate(op.matrix, u0, IntegrationConfig(t_final=1.0, c=0.01), energy_log=log)
    results.append(_check("energy drift over [0,1], exp(sin x), k=2 N=40 rk4", energy_drift(log), 1e-10))
    return results


def _sample_error_grid_1d(field: ModalField, f, k: int, points: int = 20) -> np.ndarray:
    xi = np.linspace(-1.0, 1.0, points)
    vals = legendre_table(k, xi)
    mesh = field.mesh
    out = np.empty((mesh.num_cells, points))
    for j in range(mesh.num_cells):
        x = mesh.centers[j] + 0.5 * mesh.widths[j] * xi
        out[j] = field.coeffs[j] @ vals - f(x)
    return out


def _translation_residual_1d(k: int) -> float:
    mesh = uniform_mesh(4, (-4.0, 4.0))
    f = lambda x: x ** (k + 1)
    errs = _sample_error_grid_1d(shifted_projection_1d(f, mesh, k), f, k)
    scale = max(abs(mesh.lo), abs(mesh.hi)) ** (k + 1)
    return float(np.max(np.abs(errs - errs[0])) / scale)


def _translation_residual_2d(k: int, axis: str) -> float:
    n = 5
    mx = uniform_mesh(n, (-5.0, 5.0))
    mesh = tensor_mesh(mx, uniform_mesh(n, (-5.0, 5.0)))
    if axis == "x":
        f = lambda x, y: x ** (k + 1) + 0.0 * y
    else:
        f = lambda x, y: y ** (k + 1) + 0.0 * x
    field = shifted_projection_2d(f, mesh, k)
    xi = np.linspace(-1.0, 1.0, 8)
    vals = legendre_table(k, xi)
    degs = field.space.degrees
    ref = None
    worst = 0.0
    for i in range(n):
        for j in range(n):
            x = mx.centers[i] + 0.5 * mx.widths[i] * xi
            y = mesh.mesh_y.centers[j] + 0.5 * mesh.mesh_y.widths[j] * xi
            grid = np.zeros((8, 8))
            for idx, (a, b) in enumerate(degs):
                grid += field.coeffs[i, j, idx] * np.outer(vals[a], vals[b])
            err = grid - f(x[:, None], y[None, :])
            if ref is None:
                ref = err
            else:
                worst = max(worst, float(np.max(np.abs(err - ref))))
    return worst / 5.0 ** (k + 1)


# Measured operator-norm surrogates ||P*f||_inf / ||f||_inf over a seeded
# ensemble of random Legendre series on the reference cell; frozen (measured
# value + 5%) so a regression that degrades the projection's stability trips.
_BOUNDEDNESS_CAP_1D = {0: 0.88, 2: 1.41, 4: 1.81}


def _boundedness_ratio_1d(k: int, samples: int = 100) -> float:
    rng = np.random.default_rng(97 + k)
    cell = Mesh1D(np.array([-1.0, 1.0]))
    fine = np.linspace(-1.0, 1.0, 401)
    vals = legendre_table(k + 3, fine)
    proj_vals = legendre_table(k, fine)
    worst = 0.0
    for _ in range(samples):
        coef = rng.standard_normal(k + 4)
        f_fine = coef @ vals
        f = lambda x: np.tensordot(coef, legendre_table(k + 3, np.asarray(x)), axes=(0, 0))
        p = shifted_projection_1d(f, cell, k)
        worst = max(worst, float(np.max(np.abs(p.coeffs[0] @ proj_vals)) / np.max(np.abs(f_fine))))
    return worst


def suite_projection() -> list[CheckResult]:
    results: list[CheckResult] = []

    # Odd degrees: the local system is exactly rank-deficient, with the
    # highest Legendre mode (x itself when k=1) as the null direction.
    for k in (1, 3):
        mat = shift_local_matrix_1d(k)
        s = np.linalg.svd(mat, compute_uv=False)
        results.append(_check(f"1D odd-degree singularity k={k}, sigma_min/sigma_max", s[-1] / s[0], 1e-12))
        null = np.linalg.svd(mat)[2][-1]
        align = float(abs(null[k]))  # unit null vector should be +-e_k
        results.append(CheckResult(
            f"1D odd-degree null direction k={k} is the L_{k} mode",
            align > 1.0 - 1e-10,
            f"|<null, e_{k}>| = {align:.12f}",
        ))
    mat2 = shift_local_matrix_2d(1)
    s2 = np.linalg.svd(mat2, compute_uv=False)
    results.append(_check("2D odd-degree singularity k=1, sigma_min/sigma_max", s2[-1] / s2[0], 1e-12))

    # P*(x^3) on the reference cell for k=2 is (3/5)x: moments against 1 and
    # x plus the endpoint average pin down exactly that polynomial.
    cell = Mesh1D(np.array([-1.0, 1.0]))
    p = shifted_projection_1d(lambda x: x**3, cell, 2)
    dev = float(np.max(np.abs(p.coeffs[0] - np.array([0.0, 0.6, 0.0]))))
    results.append(_check("P*(x^3) = (3/5)x on [-1,1] (k=2)", dev, 1e-13))

    # Degree-k inputs are reproduced exactly.
    for k in (0, 2, 4):
        mesh = random_mesh(6, 0.3, 11, (0.0, 3.0))
        coef = np.arange(1, k + 2, dtype=float)
        f = lambda x: sum(c * x**i for i, c in enumerate(coef))
        field = shifted_projection_1d(f, mesh, k)
        xs = np.linspace(0.01, 2.99, 50)
        dev = max(abs(field.eval_at(x) - f(x)) for x in xs)
        results.append(_check(f"reproduces degree-{k} polynomials (k={k})", dev, 1e-11))

    # Cell averages survive the projection on nonuniform meshes.
    f = np.exp
    fmax = float(np.e)
    for k in (0, 2, 4):
        mesh = random_mesh(8, 0.3, 7, (0.0, 1.0))
        field = shifted_projection_1d(f, mesh, k)
        worst = 0.0
        rule = gauss_rule(k + 6)
        for j in range(mesh.num_cells):
            x = mesh.centers[j] + 0.5 * mesh.widths[j] * rule.nodes
            exact_int = 0.5 * mesh.widths[j] * (f(x) @ rule.weights)
            proj_int = mesh.widths[j] * field.cell_average(j)
            worst = max(worst, abs(proj_int - exact_int) / (mesh.widths[j] * fmax))
        results.append(_check(f"1D cell-average preservation (k={k})", worst, 1e-12))

    mesh2 = tensor_mesh(alpha_mesh(4, 0.2, (0.0, 1.0)), alpha_mesh(4, 0.1, (0.0, 1.0)))
    f2 = lambda x, y: np.sin(x + y) + 2.0
    field2 = shifted_projection_2d(f2, mesh2, 2)
    rule = gauss_rule(8)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            mx, my = mesh2.mesh_x, mesh2.mesh_y
            x = mx.centers[i] + 0.5 * mx.widths[i] * rule.nodes
            y = my.centers[j] + 0.5 * my.widths[j] * rule.nodes
            cell_int = 0.25 * mx.widths[i] * my.widths[j] * (rule.weights @ f2(x[:, None], y[None, :]) @ rule.weights)
            proj_int = mx.widths[i] * my.widths[j] * field2.cell_average(i, j)
            worst = max(worst, abs(proj_int - cell_int) / (mx.widths[i] * my.widths[j] * 3.0))
    results.append(_check("2D cell-average preservation (k=2)", worst, 1e-12))

    # Moment form vs the defining weak form: same local solution.
    for k in (2, 4):
        fns = [("exp", np.exp), ("cos2x", lambda x: np.cos(2.0 * x)), (f"x^{k + 1}", lambda x: x ** (k + 1))]
        for label, fn in fns:
            mat, rhs = _weak_local_system_1d(fn, k)
            weak = np.linalg.solve(mat, rhs)
            moment = shifted_projection_1d(fn, Mesh1D(np.array([-1.0, 1.0])), k).coeffs[0]
            dev = float(np.max(np.abs(weak - moment)) / max(1.0, np.max(np.abs(moment))))
            results.append(_check(f"moment form == weak form (k={k}, f={label})", dev, 1e-12))

    # Projection error of x^{k+1} is the same function on every uniform cell.
    for k in (2, 4):
        results.append(_check(f"1D translation-invariant error (k={k})", _translation_residual_1d(k), 1e-12))
    for axis in ("x", "y"):
        results.append(_check(f"2D translation-invariant error (k=2, {axis}^3)", _translation_residual_2d(2, axis), 1e-12))

    for k, cap in _BOUNDEDNESS_CAP_1D.items():
        ratio = _boundedness_ratio_1d(k)
        results.append(_check(f"boundedness surrogate sup||P*f||/||f|| (k={k})", ratio, cap))

    for k in (0, 2, 4):
        cond = float(np.linalg.cond(shift_local_matrix_1d(k)))
        results.append(_check(f"local matrix condition number (1D, k={k})", cond, 50.0))
    for k in (0, 2):
        cond = float(np.linalg.cond(shift_local_matrix_2d(k)))
        results.append(_check(f"local matrix condition number (2D, k={k})", cond, 50.0))
    return results


def suite_superconvergence() -> list[CheckResult]:
    results: list[CheckResult] = []
    results.append(_check("1D residual a_j(P*u - u, v), k=2, uniform patch", superconvergence_residual_1d(2), 1e-12))
    results.append(_check("1D residual a_j(P*u - u, v), k=4, uniform patch", superconvergence_residual_1d(4), 1e-11))
    results.append(_check(
        "1D residual on a 1:2:1 patch is NOT small (k=2)",
        superconvergence_residual_1d(2, widths=(1.0, 2.0, 1.0)),
        1e-6,
        kind=">",
    ))
    for direction in ("x", "y"):
        results.append(_check(
            f"2D residual b_ij(Pi*u - u, v), k=2, {direction}^3",
            superconvergence_residual_2d(2, direction=direction),
            1e-11,
        ))
    for k in (2, 4):
        results.append(_check(
            f"across-edge flux moments of the projection error cancel (k={k})",
            flux_cancellation_residual_2d(k),
            1e-12,
        ))
    return results


SUITES = {
    "energy": suite_energy,
    "projection": suite_projection,
    "superconvergence": suite_superconvergence,
}


def run_suite(name: str) -> tuple[str, bool]:
    """Run one suite (or 'all'); returns (report text, all passed)."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown verification suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    lines: list[str] = []
    ok = True
    for suite_name in names:
        lines.append(f"[{suite_name}]")
        for res in SUITES[suite_name]():
            status = "PASS" if res.passed else "FAIL"
            ok &= res.passed
            lines.append(f"  {status}  {res.name}: {res.detail}")
    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    return "\n".join(lines) + "\n", ok
