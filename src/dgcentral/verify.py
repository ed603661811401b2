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
  and the property demonstrably fails on a 1:2:1 patch.  Both sides of the
  residual are read off the stencil of the L that marches.

``run_checks`` returns the results and ``run_suite`` renders them as a
pass/fail report; the CLI maps any failure to a dedicated exit code so
scripts can gate on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import default_rule, legendre_table
from .fields import (
    SpaceKind,
    _shift_axis_map,
    _weak_local_system_1d,
    l2_project,
    mass_weights,
    sample,
    shift_local_matrix_1d,
    shift_local_matrix_2d,
    shifted_projection_1d,
    shifted_projection_2d,
)
from .metrics import _errors
from .mesh import Mesh1D, TensorMesh2D, alpha_mesh, random_mesh, tensor_mesh, uniform_mesh
from .operators import (
    SpatialOperator,
    flux_cancellation_residual_2d,
    superconvergence_residual_1d,
    superconvergence_residual_2d,
)
from .timestepping import IntegrationConfig, energy_drift, integrate

__all__ = ["CheckResult", "SUITES", "run_checks", "run_suite", "suite_energy", "suite_projection", "suite_superconvergence"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, value: float, bound: float, kind: str = "<=") -> CheckResult:
    value = float(value)
    return CheckResult(name, value <= bound if kind == "<=" else value > bound, f"{value:.3e} {kind} {bound:.1e}")


def _skew_configs() -> list[tuple[str, SpaceKind, Mesh1D | TensorMesh2D]]:
    span = (0.0, 2.0 * np.pi)
    return [
        ("P1D k=2 uniform N=16", SpaceKind("P1D", 2), uniform_mesh(16, span)),
        ("P1D k=2 alpha=0.1 N=16", SpaceKind("P1D", 2), alpha_mesh(16, 0.1, span)),
        ("Q2D k=2 uniform 8x8", SpaceKind("Q2D", 2), tensor_mesh(uniform_mesh(8, span), uniform_mesh(8, span))),
        ("P2D k=2 uniform 8x8", SpaceKind("P2D", 2), tensor_mesh(uniform_mesh(8, span), uniform_mesh(8, span))),
    ]


def _skew_ratio(op: SpatialOperator, u: np.ndarray) -> float:
    """max |(Lu,u)| / ||u||^2 over the rows u (flattened coefficients), with one product by L for all rows."""
    weights = mass_weights(op.space, op.mesh).ravel()
    return float(np.max(np.abs(((op.matrix @ u.T).T * u) @ weights) / ((u * u) @ weights)))


def suite_energy(fields_per_config: int = 50) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(20240317)
    for label, space, mesh in _skew_configs():
        op = SpatialOperator(mesh, space)
        u = rng.standard_normal((fields_per_config, op.matrix.shape[0]))
        results.append(_check(f"skew-symmetry |(Lu,u)|/||u||^2, {label}", _skew_ratio(op, u), 1e-12))
        ones = np.zeros(op.matrix.shape[0])
        ones[:: space.dof] = 1.0  # u = 1: the constant mode of every cell
        results.append(_check(f"free-stream |L(1)|, {label}", np.max(np.abs(op.matrix @ ones)), 1e-13))

    # Full integration of the smooth advection problem on the Bloch route, which returns only the final
    # state (criterion 8 steps the same run through `apply_rhs`).  With |P| <= 1 the energy cannot rise, so
    # its largest change is the one at T; rk4's O(dt^4) energy error is invisible at this resolution, so the
    # drift of the returned state is the march's roundoff.
    mesh = uniform_mesh(40, (0.0, 2.0 * np.pi))
    space = SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    u0 = l2_project(lambda x: np.exp(np.sin(x)), mesh, space)
    u = integrate(op, u0, IntegrationConfig(t_final=1.0, c=0.01))
    drift = energy_drift([u0.norm_l2_squared(), u.norm_l2_squared()])
    results.append(_check("energy drift over [0,1], exp(sin x), k=2 N=40 rk4", drift, 1e-10))
    return results


def _translation_residual(project, f, mesh: Mesh1D | TensorMesh2D, k: int, points: int) -> float:
    """Spread over cells of the projection error of f = (one coordinate)^(k+1) on a reference grid.

    Relative to f at the domain's upper end.  On a uniform mesh the error is
    the same function on every cell, so the spread is roundoff.
    """
    xi = [np.linspace(-1.0, 1.0, points)] * len(mesh.axes)
    errs = project(f, mesh, k).sample(*xi) - sample(f, mesh, *xi)
    errs = errs.reshape(-1, *errs.shape[len(mesh.axes):])
    return float(np.max(np.abs(errs - errs[0]))) / mesh.axes[0].hi ** (k + 1)


def _translation_residual_1d(k: int) -> float:
    return _translation_residual(shifted_projection_1d, lambda x: x ** (k + 1), uniform_mesh(4, (-4.0, 4.0)), k, 20)


def _translation_residual_2d(k: int, axis: str) -> float:
    mesh = tensor_mesh(uniform_mesh(5, (-5.0, 5.0)), uniform_mesh(5, (-5.0, 5.0)))
    return _translation_residual(shifted_projection_2d, lambda *x: x["xy".index(axis)] ** (k + 1), mesh, k, 8)


# Measured operator-norm surrogates ||P*f||_inf / ||f||_inf over a seeded
# ensemble of random Legendre series of degree k+3 on the reference cell,
# sup norms taken on 401 points; frozen (measured value + 5%) so a regression
# that degrades the projection's stability trips.  P* is linear, so the k+4
# Legendre modes are projected once and every P*f is a combination of them.
_BOUNDEDNESS_CAP_1D = {0: 0.88, 2: 1.41, 4: 1.81}


def _boundedness_ratio_1d(k: int, samples: int = 100) -> float:
    images = legendre_table(k + 3, np.concatenate([default_rule(k).nodes, [-1.0, 1.0]])) @ _shift_axis_map(k).T
    fine = np.linspace(-1.0, 1.0, 401)
    coef = np.random.default_rng(97 + k).standard_normal((samples, k + 4))
    f_fine, p_fine = coef @ legendre_table(k + 3, fine), coef @ images @ legendre_table(k, fine)
    return float(np.max(np.max(np.abs(p_fine), axis=1) / np.max(np.abs(f_fine), axis=1)))


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
        cells = np.searchsorted(mesh.nodes, xs, side="right") - 1  # left-closed cells, as `Mesh1D.locate`
        xi = 2.0 * (xs - mesh.centers[cells]) / mesh.widths[cells]
        dev = np.max(np.abs(np.einsum("pm,mp->p", field.coeffs[cells], legendre_table(k, xi)) - f(xs)))
        results.append(_check(f"reproduces degree-{k} polynomials (k={k})", dev, 1e-11))

    # Cell averages survive the projection on nonuniform meshes.
    for k in (0, 2, 4):
        field = shifted_projection_1d(np.exp, random_mesh(8, 0.3, 7, (0.0, 1.0)), k)
        worst = np.max(np.abs(_errors(np.exp, field)[1])) / np.e
        results.append(_check(f"1D cell-average preservation (k={k})", worst, 1e-12))
    f2 = lambda x, y: np.sin(x + y) + 2.0
    mesh2 = tensor_mesh(alpha_mesh(4, 0.2, (0.0, 1.0)), alpha_mesh(4, 0.1, (0.0, 1.0)))
    worst = np.max(np.abs(_errors(f2, shifted_projection_2d(f2, mesh2, 2))[1])) / 3.0
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


def run_checks(name: str) -> dict[str, list[CheckResult]]:
    """Run one suite (or 'all'); returns each suite's results under its name."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown verification suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return {suite_name: SUITES[suite_name]() for suite_name in names}


def run_suite(name: str) -> tuple[str, bool]:
    """Run one suite (or 'all'); returns (report text, all passed)."""
    lines: list[str] = []
    ok = True
    for suite_name, results in run_checks(name).items():
        lines.append(f"[{suite_name}]")
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            ok &= res.passed
            lines.append(f"  {status}  {res.name}: {res.detail}")
    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    return "\n".join(lines) + "\n", ok
