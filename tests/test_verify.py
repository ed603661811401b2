"""Executable verification suites: all pass, the report format is stable, and the batched sampled checks match one linear map per sample."""

import json
from pathlib import Path

import numpy as np
import pytest

from dgcentral.basis import legendre_table
from dgcentral.fields import ModalField, shifted_projection_1d
from dgcentral.mesh import Mesh1D
from dgcentral.operators import SpatialOperator
from dgcentral.verify import (
    SUITES,
    CheckResult,
    _boundedness_ratio_1d,
    _skew_configs,
    _skew_ratio,
    run_checks,
    run_suite,
)


def test_every_registered_suite_passes():
    for name in SUITES:
        report, ok = run_suite(name)
        assert ok, f"suite {name} failed:\n{report}"


def test_all_runs_every_suite():
    report, ok = run_suite("all")
    assert ok
    for name in SUITES:
        assert f"[{name}]" in report
    assert "FAIL" not in report
    assert report.rstrip().endswith("all checks passed")


def test_every_check_the_bench_reference_names_passes():
    # the bench matches `verify all` against these names: a renamed check would show there only as failed operations
    reference = json.loads((Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text())
    passed = {r.name for results in run_checks("all").values() for r in results if r.passed}
    assert reference["verify"]
    assert [name for name in reference["verify"] if name not in passed] == []


def test_report_lines_are_pass_or_fail():
    report, _ = run_suite("projection")
    body = [ln for ln in report.splitlines()[1:-1] if ln.strip()]
    assert body
    for line in body:
        assert line.startswith(("  PASS  ", "  FAIL  "))


def test_unknown_suite_raises_keyerror():
    with pytest.raises(KeyError, match="unknown verification suite"):
        run_suite("bogus")


def test_suites_return_check_results():
    for name, suite in SUITES.items():
        results = suite()
        assert results, f"suite {name} returned no checks"
        for res in results:
            assert isinstance(res, CheckResult)
            assert res.name and res.detail
            assert res.passed is True


# -- the batched samples against one linear map per sample ------------------------


def _boundedness_loop(k: int, samples: int = 100) -> float:
    """One shifted projection per random Legendre series, as the surrogate was first written."""
    rng = np.random.default_rng(97 + k)
    cell = Mesh1D(np.array([-1.0, 1.0]))
    fine = np.linspace(-1.0, 1.0, 401)
    worst = 0.0
    for _ in range(samples):
        coef = rng.standard_normal(k + 4)
        f = lambda x: np.tensordot(coef, legendre_table(k + 3, np.asarray(x)), axes=(0, 0))
        p = shifted_projection_1d(f, cell, k)
        ratio = np.max(np.abs(p.coeffs[0] @ legendre_table(k, fine))) / np.max(np.abs(f(fine)))
        worst = max(worst, float(ratio))
    return worst


@pytest.mark.parametrize("k", [0, 2, 4])
def test_boundedness_ratio_matches_one_projection_per_sample(k):
    assert _boundedness_ratio_1d(k) == pytest.approx(_boundedness_loop(k), rel=1e-12, abs=0.0)


def test_batched_skew_ratio_matches_one_product_per_field():
    rng = np.random.default_rng(20240317)  # suite_energy's draws, in its order
    for label, space, mesh in _skew_configs():
        op = SpatialOperator(mesh, space)
        u = rng.standard_normal((50, op.matrix.shape[0]))
        shape = tuple(axis.num_cells for axis in mesh.axes) + (space.dof,)
        fields = [ModalField(space, mesh, row.reshape(shape)) for row in u]
        loop = max(abs(op.apply_rhs(f).inner(f)) / f.norm_l2_squared() for f in fields)
        assert abs(_skew_ratio(op, u) - loop) <= 1e-14, label
