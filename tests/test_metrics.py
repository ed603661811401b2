"""Error norms, rate computations, and table serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcentral import fields
from dgcentral.basis import error_rule
from dgcentral.fields import ModalField, SpaceKind, gauss_table, jacobian, l2_project, sample
from dgcentral.mesh import alpha_mesh, random_mesh, tensor_mesh, uniform_mesh
from dgcentral.metrics import (
    ConvergenceTable,
    convergence_rates,
    error_cell_average,
    error_interface_flux,
    error_l2,
    error_norms,
    ls_order,
)

TWO_PI = 2.0 * np.pi


class TestLsOrder:
    def test_exact_power_law(self):
        ns = [10, 20, 40, 80, 160]
        errors = [3.7 * n**-2.5 for n in ns]
        assert ls_order(ns, errors) == pytest.approx(2.5, abs=1e-12)

    def test_two_points_reduce_to_pairwise_rate(self):
        assert ls_order([10, 20], [1e-2, 2.5e-3]) == pytest.approx(2.0, abs=1e-12)

    def test_frozen_published_column(self):
        # LS slope of a measured E2 column (digits as printed, N = 10..80);
        # the expected value is the normal-equations solution computed by hand
        got = ls_order([10, 20, 40, 80], [9.30e-3, 7.82e-4, 1.33e-4, 2.00e-5])
        assert got == pytest.approx(2.9139003079792, abs=1e-10)

    @given(
        p=st.floats(min_value=0.5, max_value=6.0),
        logc=st.floats(min_value=-6.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_recovers_noisy_power_law_within_tenth(self, p, logc, seed):
        ns = np.array([10, 20, 40, 80, 160, 320], dtype=float)
        rng = np.random.default_rng(seed)
        noise = rng.uniform(-0.05, 0.05, size=ns.size)
        errors = 10.0**logc * ns**-p * np.exp(noise)
        assert abs(ls_order(ns, errors) - p) <= 0.1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ls_order([10], [1e-3])
        with pytest.raises(ValueError):
            ls_order([10, 20], [1e-3, 0.0])
        with pytest.raises(ValueError):
            ls_order([10, 20], [1e-3, -1e-4])


def test_convergence_rates():
    rates = convergence_rates([10, 20, 40], [1.0, 0.25, 0.0625])
    assert rates[0] is None
    assert rates[1] == pytest.approx(2.0)
    assert rates[2] == pytest.approx(2.0)


class TestErrorNorms1D:
    def test_zero_for_exactly_represented_solution(self):
        mesh = alpha_mesh(6, 0.2, (0.0, TWO_PI))
        space = SpaceKind("P1D", 2)
        coeffs = np.zeros((6, 3))
        coeffs[:, 0] = 1.5
        u = ModalField(space, mesh, coeffs)
        exact = lambda x, t: 1.5 + 0.0 * np.asarray(x)
        assert error_l2(exact, u, t=0.3) < 1e-14
        assert error_cell_average(exact, u, t=0.3) < 1e-14
        assert error_interface_flux(exact, u, t=0.3) < 1e-14

    def test_l2_of_zero_field_is_function_norm(self):
        mesh = uniform_mesh(12, (0.0, TWO_PI))
        u = ModalField(SpaceKind("P1D", 2), mesh, np.zeros((12, 3)))
        exact = lambda x, t: np.sin(np.asarray(x))
        # ||sin|| over [0, 2pi] = sqrt(pi)
        assert error_l2(exact, u, t=0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_cell_average_error_hand_oracle(self):
        mesh = uniform_mesh(4, (0.0, TWO_PI))
        u = ModalField(SpaceKind("P1D", 1), mesh, np.zeros((4, 2)))
        exact = lambda x, t: np.sin(np.asarray(x))
        h = TWO_PI / 4
        avgs = (np.cos(mesh.nodes[:-1]) - np.cos(mesh.nodes[1:])) / h
        expect = np.sqrt(np.mean(avgs**2))
        assert error_cell_average(exact, u, t=0.0) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("value, expected", [(5.0, 3.0), (2.0, 0.0)])
    def test_interface_flux_error_hand_oracle(self, value, expected):
        # per-cell constants 1 and 3: the central value is 2 at node 1 and,
        # across the periodic seam (cell 1's right end, cell 0's left end), at node 2
        mesh = uniform_mesh(2, (0.0, 2.0))
        u = ModalField(SpaceKind("P1D", 0), mesh, np.array([[1.0], [3.0]]))
        exact = lambda x, t: value + 0.0 * np.asarray(x)
        assert error_interface_flux(exact, u, t=0.0) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_requadrature_stability_for_resolved_field(self):
        mesh = uniform_mesh(20, (0.0, TWO_PI))
        space = SpaceKind("P1D", 2)
        exact = lambda x, t: np.exp(np.sin(np.asarray(x)))
        u = l2_project(lambda x: exact(x, 0.0), mesh, space)
        base = error_l2(exact, u, t=0.0)
        finer = error_l2(exact, u, t=0.0, extra_order=2)
        assert abs(finer - base) / base < 1e-3


class TestErrorNorms2D:
    def test_l2_of_zero_field(self):
        mesh = tensor_mesh(uniform_mesh(8, (0.0, TWO_PI)), uniform_mesh(8, (0.0, TWO_PI)))
        u = ModalField(SpaceKind("Q2D", 2), mesh, np.zeros((8, 8, 9)))
        exact = lambda x, y, t: np.sin(x + y)
        # ||sin(x+y)||^2 over the periodic box = 2 pi^2
        assert error_l2(exact, u, t=0.0) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-12)

    def test_exact_in_space_solution(self):
        mesh = tensor_mesh(uniform_mesh(3, (0.0, 1.0)), uniform_mesh(4, (0.0, 1.0)))
        space = SpaceKind("Q2D", 1)
        u = l2_project(lambda x, y: x * y, mesh, space)
        exact = lambda x, y, t: np.asarray(x) * np.asarray(y)
        assert error_l2(exact, u, t=0.7) < 1e-14
        assert error_cell_average(exact, u, t=0.7) < 1e-14

    def test_interface_flux_is_1d_only(self):
        mesh = tensor_mesh(uniform_mesh(2, (0.0, 1.0)), uniform_mesh(2, (0.0, 1.0)))
        u = ModalField(SpaceKind("Q2D", 1), mesh, np.zeros((2, 2, 4)))
        with pytest.raises(ValueError):
            error_interface_flux(lambda x, y, t: 0.0, u, t=0.0)


@pytest.mark.parametrize("dimension", [1, 2])
def test_error_norms_equal_their_out_of_place_expressions(dimension):
    # E2 subtracts and squares in place in its own array, so the sample that EA reads is left as it was
    if dimension == 1:
        mesh, space = alpha_mesh(10, 0.1, (0.0, TWO_PI)), SpaceKind("P1D", 3)
        exact = lambda x, t: np.exp(np.sin(x - t))
    else:
        mesh = tensor_mesh(alpha_mesh(5, 0.3, (0.0, TWO_PI)), random_mesh(4, 0.3, 7, (0.0, TWO_PI)))
        space = SpaceKind("P2D", 2)
        exact = lambda x, y, t: np.sin(x + y - 2.0 * t)
    u = l2_project(lambda *x: exact(*x, 0.0), mesh, space)
    g = gauss_table(space, error_rule(space.degree))
    samples = sample(lambda *x: exact(*x, 0.3), mesh, *g.points).reshape(u.coeffs.shape[:-1] + (-1,))  # whole grid
    diff = samples - u.coeffs @ g.values
    e2 = float(np.sqrt((diff**2 @ g.weights).ravel() @ jacobian(mesh).ravel()))
    ea = float(np.sqrt(np.mean((0.5**dimension * (samples @ g.weights) - u.coeffs[..., 0]) ** 2)))
    assert error_norms(exact, u, 0.3) == (e2, ea)
    assert error_l2(exact, u, 0.3) == e2 and error_cell_average(exact, u, 0.3) == ea


@pytest.mark.parametrize("dimension", [1, 2])
def test_a_level_samples_in_blocks_of_first_axis_rows(dimension, monkeypatch):
    # the projection, E2 with EA, and the re-quadrature E2 sample at most _SAMPLE_ENTRIES entries at a time
    # (whole rows of the first cell axis, at least one); a level that fits takes one block, on its own mesh.
    # numpy multiplies a 2D block row by row, as it does the whole grid, so EA and the projection keep their
    # bits; a 1D block is one BLAS product whose kernel depends on its length, so they agree to roundoff
    if dimension == 1:
        mesh, space = random_mesh(11, 0.3, 5, (0.0, TWO_PI)), SpaceKind("P1D", 3)
        exact = lambda x, t: np.exp(np.sin(x - t))
    else:
        mesh = tensor_mesh(alpha_mesh(7, 0.3, (0.0, TWO_PI)), random_mesh(4, 0.3, 7, (0.0, TWO_PI)))
        space = SpaceKind("Q2D", 2)
        exact = lambda x, y, t: np.exp(np.sin(x + y - 2.0 * t))
    u = l2_project(lambda *x: exact(*x, 0.0), mesh, space)

    def agree(got, want):
        if dimension == 2:
            return np.array_equal(got, want)
        return np.allclose(got, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))

    meshes, sample_cells, budget = [], fields.sample, fields._SAMPLE_ENTRIES

    def counted(f, part, *xi):
        meshes.append(part)
        return sample_cells(f, part, *xi)

    monkeypatch.setattr(fields, "sample", counted)
    n, k = mesh.axes[0].num_cells, space.degree
    three = [3, 3, 1] if dimension == 2 else [3, 3, 3, 2]
    for points, call, same in (
        (k + 4, lambda: l2_project(lambda *x: exact(*x, 0.0), mesh, space).coeffs, agree),
        (k + 6, lambda: error_norms(exact, u, 0.3), lambda a, b: a[0] == pytest.approx(b[0], rel=1e-14) and agree(a[1], b[1])),
        (k + 8, lambda: error_l2(exact, u, 0.3, extra_order=2), lambda a, b: a == pytest.approx(b, rel=1e-14)),
    ):
        monkeypatch.setattr(fields, "_SAMPLE_ENTRIES", budget)
        meshes.clear()
        whole = call()
        assert meshes == [mesh]  # one block, on the level's own mesh
        row = int(np.prod(u.coeffs.shape[1:-1])) * points**dimension  # entries per row of cells
        for entries, blocks in ((3 * row + row - 1, three), (row, [1] * n), (1, [1] * n)):  # a row over the budget is one block
            monkeypatch.setattr(fields, "_SAMPLE_ENTRIES", entries)
            meshes.clear()
            assert same(call(), whole)
            assert [part.axes[0].num_cells for part in meshes] == blocks


class TestConvergenceTable:
    def _table(self):
        return ConvergenceTable(
            label="demo",
            ns=[10, 20],
            e2=[1.0e-2, 1.25e-3],
            ea=[4.0e-3, 2.5e-4],
            ef=[2.0e-3, 2.5e-4],
            e2_requad_reldiff=[0.0, 0.0],
        )

    def test_csv_golden(self):
        lines = self._table().to_csv_text().splitlines()
        assert lines[0] == "N,E2,rate2,EA,rateA,Ef,ratef"
        assert len(lines) == 4

        row10 = lines[1].split(",")
        assert row10[0] == "10"
        assert row10[2] == row10[4] == row10[6] == ""  # no rate on first level
        assert [float(row10[i]) for i in (1, 3, 5)] == [1.0e-2, 4.0e-3, 2.0e-3]

        row20 = lines[2].split(",")
        assert row20[0] == "20"
        assert [float(row20[i]) for i in (1, 3, 5)] == [1.25e-3, 2.5e-4, 2.5e-4]
        assert float(row20[2]) == pytest.approx(3.0, abs=1e-12)
        assert float(row20[4]) == pytest.approx(4.0, abs=1e-12)
        assert float(row20[6]) == pytest.approx(np.log2(2.0e-3 / 2.5e-4), abs=1e-12)

        ls = lines[3].split(",")
        assert ls[0] == "LS" and ls[2] == ls[4] == ls[6] == ""
        assert float(ls[1]) == pytest.approx(3.0, abs=1e-12)
        assert float(ls[3]) == pytest.approx(4.0, abs=1e-12)
        assert float(ls[5]) == pytest.approx(3.0, abs=1e-12)

    def test_markdown_golden(self):
        expect = (
            "### demo\n"
            "\n"
            "| N | E2 | rate | EA | rate | Ef | rate |\n"
            "|---|---|---|---|---|---|---|\n"
            "| 10 | 1.00E-02 |  | 4.00E-03 |  | 2.00E-03 |  |\n"
            "| 20 | 1.25E-03 | 3.00 | 2.50E-04 | 4.00 | 2.50E-04 | 3.00 |\n"
            "| LS | 3.00 |  | 4.00 |  | 3.00 |  |\n"
        )
        assert self._table().to_markdown_text() == expect

    def test_2d_table_omits_flux_columns(self):
        table = ConvergenceTable(label="d2", ns=[4, 8], e2=[1e-1, 1e-2], ea=[1e-2, 1e-3])
        text = table.to_csv_text()
        assert text.splitlines()[0] == "N,E2,rate2,EA,rateA"
        assert "Ef" not in text

    def test_single_row_table_has_blank_ls(self):
        table = ConvergenceTable(label="one", ns=[4], e2=[1e-1], ea=[1e-2])
        assert table.ls2 is None
        assert table.to_csv_text().splitlines()[-1] == "LS,,,,"

    def test_full_precision_round_trips(self):
        value = 0.0091055525751199025
        table = ConvergenceTable(label="p", ns=[10, 20], e2=[value, value / 8], ea=[1e-3, 1e-4])
        line = table.to_csv_text().splitlines()[1]
        assert float(line.split(",")[1]) == value
