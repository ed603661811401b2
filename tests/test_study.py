"""Config parsing, study runner, output files, and the CLI front end."""

import contextlib
import dataclasses
import io
import itertools
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgcentral import cli, verify
from dgcentral.fields import Problem, l2_project, sample
from dgcentral.mesh import Mesh1D, TensorMesh2D, alpha_mesh, random_mesh, uniform_mesh
from dgcentral.operators import SpatialOperator
from dgcentral.study import (
    DESK_CAP_1D,
    DESK_CAP_2D_LOW,
    ERROR_FLOOR,
    MAX_DEGREE,
    OUTPUT_ROOT_ENV,
    PROBLEMS,
    ConfigError,
    StudyConfig,
    _KEYS,
    build_mesh,
    dump_field,
    dump_mesh,
    load_config,
    output_root,
    parse_config,
    run_study,
    serialize_config,
)

BASE_1D = """
problem = advect1d_expsin
space.kind = P1D
space.degree = 1
mesh.family = uniform
study.ns = 8
time.T = 0.5
time.c = 0.2
time.scheme = rk4
"""

BASE_2D = """
problem = advect2d_sin
space.kind = Q2D
space.degree = 2
mesh.family = uniform
study.ns = 4
time.T = 0.1
time.c = 0.5
"""


def _with(base: str, **kv: str) -> str:
    return base + "".join(f"{k} = {v}\n" for k, v in kv.items())


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
# float64 and int extremes, and non-ASCII text (Unicode digits parse as numbers)
_EXTREMES = ["nan", "inf", "-inf", "0", "-0.0", "1e308", "-1e308", "5e-324", "-5e-324"]
_EXTREMES += [str(2**64), str(-(10**30)), "é", "１２"]


def _field_overrides() -> list[tuple[str, ...]]:
    """Per field of the config table, each way to set its keys to an extreme or to a shipped config's value."""
    pools = {key.name: dict.fromkeys(_EXTREMES) for key in _KEYS}
    for path in sorted(CONFIGS.glob("*.cfg")):
        for line in serialize_config(load_config(path)).splitlines():
            name, value = line.split(" = ")
            pools[name][value] = None
    fields: dict[str, list[str]] = {}
    for key in _KEYS:
        fields.setdefault(key.field, []).append(key.name)
    return [
        tuple(f"{name}={value}" for name, value in zip(names, values))
        for names in fields.values()
        for values in itertools.product(*(pools[name] for name in names))
    ]


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(
            "problem = advect1d_expsin\n"
            "space.kind = P1D\n"
            "space.degree = 2\n"
            "mesh.family = uniform\n"
            "study.ns = 10, 20,40\n"
        )
        assert cfg.ns == (10, 20, 40)
        assert cfg.t_final == 1.0 and cfg.time_c == 0.01 and cfg.scheme == "rk4"
        assert cfg.alpha is None and cfg.fraction is None and cfg.seed is None
        assert cfg.domain is None and cfg.out_dir is None

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# full-line comment\n"
            "problem = advect1d_expsin  # trailing comment\n"
            "\n"
            "space.kind = P1D\n"
            "space.degree = 1\n"
            "mesh.family = uniform\n"
            "study.ns = 8\n"
        )
        assert cfg.problem == "advect1d_expsin"

    def test_override_wins_over_file(self):
        cfg = parse_config(BASE_1D, overrides=("space.degree=3", "study.ns=4,8"))
        assert cfg.degree == 3
        assert cfg.ns == (4, 8)

    def test_alpha_family(self):
        cfg = parse_config(_with(BASE_1D, **{"mesh.family": "alpha", "mesh.alpha": "0.1"}))
        assert cfg.family == "alpha" and cfg.alpha == 0.1
        assert cfg.label == "advect1d_expsin_P1D1_alpha_a0.1"

    def test_random_family(self):
        cfg = parse_config(
            _with(BASE_1D, **{"mesh.family": "random", "mesh.fraction": "0.3", "mesh.seed": "42"})
        )
        assert cfg.fraction == 0.3 and cfg.seed == 42
        assert cfg.label == "advect1d_expsin_P1D1_random_f0.3_s42"

    def test_domain_override(self):
        cfg = parse_config(_with(BASE_1D, **{"domain.lo": "-1.0", "domain.hi": "3.0"}))
        assert cfg.domain == (-1.0, 3.0)
        assert cfg.problem_def.domain == (-1.0, 3.0)

    @pytest.mark.parametrize(
        ("text", "match"),
        [
            (BASE_1D.replace("problem = advect1d_expsin", "junk"), "expected 'key = value'"),
            (BASE_1D.replace("problem = advect1d_expsin", "problem ="), "empty key or value"),
            (BASE_1D.replace("problem = advect1d_expsin\n", ""), "problem: missing"),
            (BASE_1D.replace("advect1d_expsin", "nope"), "problem: unknown"),
            (BASE_1D.replace("space.kind = P1D\n", ""), "space.kind: missing"),
            (BASE_1D.replace("space.degree = 1\n", ""), "space.degree: missing"),
            (BASE_1D.replace("space.degree = 1", "space.degree = two"), "expected an integer"),
            (BASE_1D.replace("space.degree = 1", "space.degree = -1"), "space.degree:"),
            (BASE_1D.replace("space.kind = P1D", "space.kind = p1d"), "space.kind: expected one of"),
            (BASE_1D.replace("P1D", "Q2D"), "is 2D but problem"),
            (BASE_1D.replace("mesh.family = uniform", "mesh.family = chebyshev"), "mesh.family"),
            (_with(BASE_1D.replace("uniform", "alpha")), "mesh.alpha: required"),
            (
                _with(BASE_1D.replace("uniform", "alpha"), **{"mesh.alpha": "1.0"}),
                r"\|alpha\| < 1",
            ),
            (_with(BASE_1D.replace("uniform", "random")), "mesh.fraction: required"),
            (
                _with(BASE_1D.replace("uniform", "random"), **{"mesh.fraction": "0.3"}),
                "mesh.seed: required",
            ),
            (
                _with(
                    BASE_1D.replace("uniform", "random"),
                    **{"mesh.fraction": "1.0", "mesh.seed": "1"},
                ),
                r"\[0, 1\)",
            ),
            (BASE_1D.replace("study.ns = 8\n", ""), "study.ns: missing"),
            (BASE_1D.replace("study.ns = 8", "study.ns = 8;16"), "comma-separated"),
            (BASE_1D.replace("study.ns = 8", "study.ns = 0,8"), "positive cell count"),
            (
                _with(
                    BASE_1D.replace("uniform", "alpha").replace("study.ns = 8", "study.ns = 1"),
                    **{"mesh.alpha": "0.1"},
                ),
                "N >= 2",
            ),
            (BASE_1D.replace("time.T = 0.5", "time.T = 0"), "time.T"),
            (BASE_1D.replace("time.c = 0.2", "time.c = -1"), "time.c"),
            (BASE_1D.replace("rk4", "rk99"), "unknown scheme"),
            (_with(BASE_1D, **{"domain.lo": "0.0"}), "both or neither"),
            (
                _with(BASE_1D, **{"domain.lo": "1.0", "domain.hi": "1.0"}),
                "must exceed",
            ),
            (_with(BASE_1D, **{"mesh.spice": "hot"}), "unknown config keys"),
            # another family's mesh key is unknown, not ignored
            (
                _with(BASE_1D.replace("uniform", "alpha"), **{"mesh.alpha": "0.1", "mesh.seed": "1"}),
                "^unknown config keys: mesh.seed$",
            ),
            # the width overflows to inf; N+1 float64 nodes do not fit between 1e300 and the next-but-one float
            (
                _with(BASE_1D, **{"domain.lo": "-1e308", "domain.hi": "1e308"}),
                r"^domain.lo/domain.hi: the width or a cell center of \[-1e\+308, 1e\+308\] overflows float64$",
            ),
            (
                _with(BASE_1D, **{"domain.lo": "1e300", "domain.hi": "1.0000000000000002e300"}),
                r"^domain.lo/domain.hi: \[1e\+300, 1.0000000000000002e\+300\] holds too few floats for the uniform mesh at N=8$",
            ),
            (
                _with(BASE_1D.replace("study.ns = 8", "study.ns = 4,10000000000000000000")),
                r"^study.ns: \[0.0, 6.28\d+\] holds too few floats for the uniform mesh at N=10000000000000000000$",
            ),
        ],
    )
    def test_rejects_invalid(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_rejects_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(BASE_1D, overrides=("study.ns:4",))

    @pytest.mark.parametrize(
        ("override", "message"),
        [
            ("study.ns:4", "override 'study.ns:4' is not of the form key=value"),
            ("=x", "override '=x': empty key or value"),
            ("output.dir=", "override 'output.dir=': empty key or value"),
            ("#", "override '#' is not of the form key=value"),  # an override is not a config line: no comments
        ],
    )
    def test_malformed_override_message(self, override, message):
        with pytest.raises(ConfigError) as raised:
            parse_config(BASE_1D, overrides=(override,))
        assert str(raised.value) == message


class TestSerializeRoundTrip:
    def test_all_families_round_trip(self):
        configs = [
            parse_config(BASE_1D),
            parse_config(_with(BASE_1D, **{"mesh.family": "alpha", "mesh.alpha": "0.1"})),
            parse_config(
                _with(
                    BASE_1D,
                    **{"mesh.family": "random", "mesh.fraction": "0.3", "mesh.seed": "42"},
                )
            ),
            parse_config(_with(BASE_2D, **{"output.dir": "results/demo"})),
        ]
        for cfg in configs:
            assert parse_config(serialize_config(cfg)) == cfg

    @given(
        degree=st.integers(min_value=0, max_value=4),
        space=st.sampled_from([("advect1d_expsin", "P1D"), ("advect2d_sin", "Q2D"), ("advect2d_sin", "P2D")]),
        family=st.sampled_from(["uniform", "alpha", "random"]),
        alpha=st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
        fraction=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31),
        # study.ns must be strictly increasing
        ns=st.lists(st.integers(min_value=2, max_value=5000), min_size=1, max_size=6, unique=True).map(sorted),
        t_final=st.floats(min_value=1e-3, max_value=50.0, allow_nan=False),
        time_c=st.floats(min_value=1e-4, max_value=2.0, allow_nan=False),
        scheme=st.sampled_from(["rk4", "ssprk3"]),
        with_domain=st.booleans(),
        lo=st.floats(min_value=-1e3, max_value=1e3),
        width=st.floats(min_value=1e-2, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_identity(
        self, degree, space, family, alpha, fraction, seed, ns, t_final, time_c, scheme, with_domain, lo, width
    ):
        cfg = StudyConfig(
            problem=space[0],
            space_kind=space[1],
            degree=degree,
            family=family,
            ns=tuple(ns),
            t_final=t_final,
            time_c=time_c,
            scheme=scheme,
            alpha=alpha if family == "alpha" else None,
            fraction=fraction if family == "random" else None,
            seed=seed if family == "random" else None,
            domain=(lo, lo + width) if with_domain else None,
            out_dir="results/prop" if with_domain else None,
        )
        assert parse_config(serialize_config(cfg)) == cfg


class TestShippedConfigs:
    def test_all_configs_parse(self):
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
        assert len(paths) == 7
        for path in paths:
            cfg = load_config(path)
            assert cfg.out_dir is not None and cfg.out_dir.startswith("results/")
            assert parse_config(serialize_config(cfg)) == cfg

    def test_every_shipped_level_keeps_its_route(self):
        # None is the tiled 1D P(hL) march; the bench's ladder1d and ladder2d run the alpha ladders
        routes = {
            "advect1d_alpha_p2": None,
            "advect1d_random_p2": None,
            "advect1d_uniform_p2": "bloch",
            "advect2d_uniform_p3": "bloch",
            "advect2d_alpha_q2": "axes",
            "advect2d_random_q2": "axes",
            "advect2d_uniform_q2": "axes",
        }
        assert sorted(routes) == sorted(path.stem for path in CONFIGS.glob("*.cfg"))
        for name, route in routes.items():
            cfg = load_config(CONFIGS / f"{name}.cfg")
            taken = {n: SpatialOperator(build_mesh(cfg, n), cfg.space).spectral_route for n in cfg.ns}
            assert taken == dict.fromkeys(cfg.ns, route), name

    @pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.cfg")))
    def test_every_shipped_table_matches_its_golden(self, name):
        # tests/golden holds each config's desk-scale table; nothing is written under results/.  The .md
        # (3 significant digits) matches byte for byte, each CSV cell within the bench's reference tolerance
        table = run_study(dataclasses.replace(load_config(CONFIGS / f"{name}.cfg"), out_dir=None))
        assert table.to_markdown_text() == (GOLDEN / f"{name}.md").read_text()
        rows = [line.split(",") for line in table.to_csv_text().splitlines()]
        golden = [line.split(",") for line in (GOLDEN / f"{name}.csv").read_text().splitlines()]
        assert [len(row) for row in rows] == [len(row) for row in golden]
        for row, want in zip(rows, golden):
            for cell, ref in zip(row, want):
                try:
                    r = float(ref)
                except ValueError:  # the header, the LS label and empty rate cells
                    assert cell == ref
                    continue
                assert abs(float(cell) - r) <= 1e-10 * abs(r) + 1e-13, (name, row[0], cell, ref)

    @pytest.mark.parametrize("name", ["advect1d_alpha_p2", "advect1d_random_p2"])
    def test_every_golden_level_cell_lies_within_roundoff_of_its_oracle(self, name):
        # `golden/oracle.py` marches the ladder in extended precision and writes <config>.oracle.csv: each level's
        # E2, EA and Ef must lie within the reference tolerance of it.  An LS cell is a slope over the whole ladder,
        # limited by the roundoff of its finest levels (golden/README.md), so its distance is only reported
        golden, oracle = ((GOLDEN / f"{name}{kind}.csv").read_text().splitlines() for kind in ("", ".oracle"))
        assert [row.split(",")[0] for row in golden] == [row.split(",")[0] for row in oracle]  # header and levels
        header = golden[0].split(",")
        for row, ref in zip(golden[1:], oracle[1:]):
            cells, refs = dict(zip(header, row.split(","))), dict(zip(header, ref.split(",")))
            for label in ("E2", "EA", "Ef"):
                cell, r = float(cells[label]), float(refs[label])
                if cells["N"] == "LS":
                    print(f"{name} LS({label}) {cell!r} is {abs(cell - r) / abs(r):.2g} relative from the oracle's")
                else:
                    assert abs(cell - r) <= 1e-10 * abs(r) + 1e-13, (name, cells["N"], label)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_advect2d_sin_per_axis_form_is_the_direct_sine(t):
    # `sample` hands each axis its own array, shaped (Nx, 1, Qx, 1) and (1, Ny, 1, Qy)
    prob = PROBLEMS["advect2d_sin"]
    dom = (0.0, 2.0 * np.pi)
    mesh = TensorMesh2D(random_mesh(7, 0.3, 1, dom), random_mesh(6, 0.3, 2, dom))
    points = (np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 4))
    cases = [
        (sample(prob.initial, mesh, *points), sample(lambda x, y: np.sin(x + y), mesh, *points)),
        (
            sample(lambda x, y: prob.exact(x, y, t), mesh, *points),
            sample(lambda x, y: np.sin(x + y - 2.0 * t), mesh, *points),
        ),
    ]
    for got, want in cases:
        assert got.shape == (7, 6, 5, 4) and got.dtype == float and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-15)
    for x, y in [(1.3, 4.1), (np.float64(6.2), np.float64(0.0))]:
        for got, want in [(prob.initial(x, y), np.sin(x + y)), (prob.exact(x, y, t), np.sin(x + y - 2.0 * t))]:
            assert np.ndim(got) == 0 and abs(got - want) <= 2e-15


class TestBuildMesh:
    def test_uniform(self):
        cfg = parse_config(BASE_1D)
        mesh = build_mesh(cfg, 8)
        assert isinstance(mesh, Mesh1D)
        np.testing.assert_allclose(mesh.nodes, uniform_mesh(8, (0.0, 2.0 * np.pi)).nodes)

    def test_alpha(self):
        cfg = parse_config(_with(BASE_1D, **{"mesh.family": "alpha", "mesh.alpha": "0.25"}))
        np.testing.assert_array_equal(
            build_mesh(cfg, 6).nodes, alpha_mesh(6, 0.25, (0.0, 2.0 * np.pi)).nodes
        )

    def test_random_2d_axes_use_independent_seeds(self):
        cfg = parse_config(
            _with(BASE_2D, **{"mesh.family": "random", "mesh.fraction": "0.3", "mesh.seed": "9"})
        )
        mesh = build_mesh(cfg, 10)
        assert isinstance(mesh, TensorMesh2D)
        dom = (0.0, 2.0 * np.pi)
        np.testing.assert_array_equal(mesh.mesh_x.nodes, random_mesh(10, 0.3, 9, dom).nodes)
        np.testing.assert_array_equal(mesh.mesh_y.nodes, random_mesh(10, 0.3, 10, dom).nodes)
        assert not np.array_equal(mesh.mesh_x.nodes, mesh.mesh_y.nodes)


class TestRunStudy:
    def test_writes_tables_and_is_reproducible(self, tmp_path):
        cfg = parse_config(
            _with(
                BASE_1D.replace("study.ns = 8", "study.ns = 8,16"),
                **{
                    "mesh.family": "random",
                    "mesh.fraction": "0.3",
                    "mesh.seed": "7",
                    "output.dir": str(tmp_path),
                },
            )
        )
        table = run_study(cfg)
        assert table.ns == [8, 16]
        csv_path = tmp_path / f"{cfg.label}.csv"
        md_path = tmp_path / f"{cfg.label}.md"
        assert csv_path.is_file() and md_path.is_file()
        # a rerun must byte-for-byte reproduce every artifact
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        run_study(cfg)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first

    def test_random_family_dumps_realized_nodes(self, tmp_path):
        cfg = parse_config(
            _with(
                BASE_1D,
                **{
                    "mesh.family": "random",
                    "mesh.fraction": "0.3",
                    "mesh.seed": "7",
                    "output.dir": str(tmp_path),
                },
            )
        )
        run_study(cfg)
        nodes_path = tmp_path / f"{cfg.label}_nodes_N8.csv"
        lines = nodes_path.read_text().splitlines()
        assert lines[0] == "x"
        written = np.array([float(tok) for tok in lines[1:]])
        np.testing.assert_array_equal(written, build_mesh(cfg, 8).nodes)

    @pytest.mark.parametrize(
        "base, overrides",
        [
            (BASE_1D, ()),
            (BASE_2D, ("mesh.family=alpha", "mesh.alpha=0.3", "study.ns=5", "time.c=0.1")),
            (BASE_1D, ("study.ns=8,",)),  # an empty token is dropped: study.ns parses to (8,)
        ],
        ids=["1d", "2d", "1d-trailing-comma"],
    )
    def test_error_columns_match_direct_computation(self, tmp_path, base, overrides):
        # run_study samples the exact solution once for E2 and EA; the digits are those of the standalone norms
        from dgcentral.metrics import error_cell_average, error_l2
        from dgcentral.timestepping import IntegrationConfig, integrate

        cfg = parse_config(_with(base, **{"output.dir": str(tmp_path)}), overrides=overrides)
        table = run_study(cfg)
        prob = cfg.problem_def
        mesh = build_mesh(cfg, cfg.ns[0])
        u = integrate(
            SpatialOperator(mesh, cfg.space),
            l2_project(prob.initial, mesh, cfg.space),
            IntegrationConfig(t_final=cfg.t_final, c=cfg.time_c),
        )
        assert table.e2[0] == error_l2(prob.exact, u, cfg.t_final)
        assert table.ea[0] == error_cell_average(prob.exact, u, cfg.t_final)

    def test_one_shortened_step_stays_spectral(self, monkeypatch):
        # BASE_2D's dt = 0.785 exceeds T = 0.1: the run is one step of h = T, stable at
        # c = 0.5, and P(dt lam), unstable there, is never applied
        built = []
        monkeypatch.setattr("dgcentral.study.SpatialOperator", lambda *args: built.append(SpatialOperator(*args)) or built[-1])
        run_study(parse_config(BASE_2D))
        assert len(built) == 1 and built[0].spectral_route == "axes"
        assert "matrix" not in built[0].__dict__

    def test_desk_cap_filters_levels(self):
        cfg = parse_config(BASE_2D, overrides=(f"study.ns=4,{2 * DESK_CAP_2D_LOW}",))
        table = run_study(cfg)
        assert table.ns == [4]

    def test_all_levels_capped_is_an_error(self):
        cfg = parse_config(BASE_1D, overrides=(f"study.ns={2 * DESK_CAP_1D}",))
        with pytest.raises(ConfigError, match="paper scale"):
            run_study(cfg)

    def test_paper_scale_lifts_cap(self):
        cfg = parse_config(
            BASE_1D,
            overrides=(
                f"study.ns={DESK_CAP_1D + 80}",
                "time.T=0.05",
                "time.c=0.3",
            ),
        )
        table = run_study(cfg, paper_scale=True)
        assert table.ns == [DESK_CAP_1D + 80]

    def test_stops_at_double_precision_floor(self):
        PROBLEMS["const1d_test"] = Problem(
            name="const1d_test",
            dimension=1,
            domain=(0.0, 2.0 * np.pi),
            initial=lambda x: np.ones_like(x),
            exact=lambda x, t: np.ones_like(x),
        )
        try:
            cfg = StudyConfig(
                problem="const1d_test",
                space_kind="P1D",
                degree=1,
                family="uniform",
                ns=(4, 8, 16),
                t_final=0.5,
                time_c=0.2,
            )
            messages: list[str] = []
            table = run_study(cfg, log=messages.append)
            # a constant is advected exactly, so the very first level hits the floor
            assert table.ns == [4]
            assert table.e2[0] < ERROR_FLOOR
            assert any("floor" in msg for msg in messages)
        finally:
            PROBLEMS.pop("const1d_test")

    def test_output_root_env_rebases_relative_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = parse_config(_with(BASE_1D, **{"output.dir": "sub/demo"}))
        run_study(cfg)
        assert (tmp_path / "sub" / "demo" / f"{cfg.label}.csv").is_file()

    def test_output_root_unset(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        assert output_root() is None


class TestDumps:
    def test_dump_mesh_1d(self, tmp_path):
        cfg = parse_config(BASE_1D, overrides=("study.ns=4,8",))
        paths = dump_mesh(cfg, tmp_path)
        assert [p.name for p in paths] == [
            f"{cfg.label}_mesh_N4.csv",
            f"{cfg.label}_mesh_N8.csv",
        ]
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "x" and len(lines) == 6  # N+1 nodes

    def test_dump_mesh_2d(self, tmp_path):
        cfg = parse_config(BASE_2D, overrides=("study.ns=5",))
        paths = dump_mesh(cfg, tmp_path)
        assert [p.name for p in paths] == [
            f"{cfg.label}_mesh_N5_x.csv",
            f"{cfg.label}_mesh_N5_y.csv",
        ]
        for path in paths:
            assert len(path.read_text().splitlines()) == 7

    def test_dump_mesh_2d_alpha_17(self, tmp_path):
        # the plot-ready dump of the 17x17 alpha=0.3 mesh: 18 nodes per axis
        cfg = parse_config(
            _with(BASE_2D, **{"mesh.family": "alpha", "mesh.alpha": "0.3"}),
            overrides=("study.ns=17",),
        )
        paths = dump_mesh(cfg, tmp_path)
        assert len(paths) == 2
        for path in paths:
            nodes = [float(tok) for tok in path.read_text().splitlines()[1:]]
            assert len(nodes) == 18
            assert nodes[0] == 0.0 and nodes[-1] == pytest.approx(2.0 * np.pi)

    def test_dump_field_1d(self, tmp_path):
        cfg = parse_config(BASE_1D, overrides=("space.degree=2", "study.ns=4,8"))
        path = dump_field(cfg, tmp_path)
        assert path.name == f"{cfg.label}_field_N4.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "x,c0,c1,c2"
        assert len(lines) == 5
        mesh = build_mesh(cfg, 4)
        field = l2_project(cfg.problem_def.initial, mesh, cfg.space)
        row = [float(tok) for tok in lines[1].split(",")]
        assert row[0] == mesh.centers[0]
        np.testing.assert_array_equal(row[1:], field.coeffs[0])

    def test_dump_field_2d(self, tmp_path):
        cfg = parse_config(BASE_2D, overrides=("space.degree=1",))
        path = dump_field(cfg, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,c0,c1,c2,c3"
        assert len(lines) == 1 + 16  # 4x4 cells


class TestCli:
    def _write(self, tmp_path, text: str):
        path = tmp_path / "study.cfg"
        path.write_text(text)
        return path

    def test_run_ok(self, tmp_path, capsys):
        out = tmp_path / "res"
        path = self._write(
            tmp_path, _with(BASE_1D.replace("study.ns = 8", "study.ns = 8,16"), **{"output.dir": str(out)})
        )
        assert cli.main(["run", str(path)]) == 0
        captured = capsys.readouterr()
        assert "N=     8" in captured.out and "| N " in captured.out
        assert (out / "advect1d_expsin_P1D1_uniform.csv").is_file()

    def test_run_with_overrides(self, tmp_path, capsys):
        path = self._write(tmp_path, _with(BASE_1D, **{"output.dir": str(tmp_path / "res")}))
        assert cli.main(["run", str(path), "--set", "space.degree=2"]) == 0
        assert (tmp_path / "res" / "advect1d_expsin_P1D2_uniform.csv").is_file()

    def test_run_logs_the_rebased_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        path = self._write(tmp_path, _with(BASE_1D, **{"output.dir": "sub/res"}))
        assert cli.main(["run", str(path)]) == 0
        assert f"(tables written under {tmp_path / 'root' / 'sub' / 'res'})" in capsys.readouterr().out

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = self._write(tmp_path, _with(BASE_1D, **{"mesh.spice": "hot"}))
        assert cli.main(["run", str(path)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_divergence_exits_2(self, tmp_path, capsys):
        # c = 1.0 is far beyond the stable step size; the run blows up to inf
        path = self._write(
            tmp_path,
            BASE_1D.replace("space.degree = 1", "space.degree = 2")
            .replace("study.ns = 8", "study.ns = 320")
            .replace("time.T = 0.5", "time.T = 10.0")
            .replace("time.c = 0.2", "time.c = 1.0"),
        )
        assert cli.main(["run", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, overrides, nsteps",
        [
            ("advect1d_alpha_p2", ("study.ns=10", "time.T=200"), 708),
            ("advect2d_random_q2", ("space.kind=P2D", "study.ns=5", "time.T=400"), 779),
            ("advect2d_alpha_q2", ("study.ns=5", "time.T=100"), 228),
            ("advect1d_uniform_p2", ("study.ns=10", "time.T=200"), 637),
        ],
        ids=["tiles", "stepped-2d", "axes", "bloch"],
    )
    def test_an_unstable_level_exits_2_and_writes_no_table(self, tmp_path, capsys, config, overrides, nsteps):
        # c = 0.5 is beyond rk4's stable step at k = 2 on every route: each run overflows, and its final state,
        # judged once at the last step, is what stops it
        out = tmp_path / "res"
        overrides += ("time.c=0.5", f"output.dir={out}")
        argv = ["run", str(CONFIGS / f"{config}.cfg")] + [arg for kv in overrides for arg in ("--set", kv)]
        assert cli.main(argv) == 2
        cfg = load_config(CONFIGS / f"{config}.cfg", overrides)
        assert capsys.readouterr().err == f"error: non-finite state detected at step {nsteps} (t = {cfg.t_final:g})\n"
        assert not (out / f"{cfg.label}.csv").exists() and not (out / f"{cfg.label}.md").exists()

    def test_verify_suite_ok(self, capsys):
        assert cli.main(["verify", "superconvergence"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_unknown_suite_exits_1(self, capsys):
        assert cli.main(["verify", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_verify_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_suite", lambda name: ("FAIL boom\n", False))
        assert cli.main(["verify", "energy"]) == 3
        assert "boom" in capsys.readouterr().out

    def test_verify_json_lists_every_check(self, capsys):
        assert cli.main(["verify", "superconvergence", "--json"]) == 0
        checks = json.loads(capsys.readouterr().out)
        assert [list(check) for check in checks] == [["suite", "name", "passed", "detail"]] * len(checks)
        assert all(check["suite"] == "superconvergence" and check["passed"] for check in checks)
        report, _ = verify.run_suite("superconvergence")
        assert [f"  PASS  {c['name']}: {c['detail']}" for c in checks] == report.splitlines()[1:-1]

    def test_verify_json_failure_exits_3_and_text_is_unchanged(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "energy", lambda: [verify.CheckResult("boom", False, "1 <= 0")])
        assert cli.main(["verify", "energy", "--json"]) == 3
        assert json.loads(capsys.readouterr().out) == [{"suite": "energy", "name": "boom", "passed": False, "detail": "1 <= 0"}]
        assert cli.main(["verify", "energy"]) == 3
        assert capsys.readouterr().out == "[energy]\n  FAIL  boom: 1 <= 0\nSOME CHECKS FAILED\n"
        assert cli.main(["verify", "bogus", "--json"]) == 1

    def test_paper_scale_flag(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            BASE_1D.replace("study.ns = 8", f"study.ns = {DESK_CAP_1D + 80}")
            .replace("time.T = 0.5", "time.T = 0.05")
            .replace("time.c = 0.2", "time.c = 0.3"),
        )
        assert cli.main(["run", str(path)]) == 1
        assert "paper scale" in capsys.readouterr().err
        assert cli.main(["run", str(path), "--paper-scale"]) == 0

    def test_dump_mesh_cli(self, tmp_path, capsys):
        path = self._write(tmp_path, BASE_1D)
        assert cli.main(["dump-mesh", str(path), "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 1 and printed[0].endswith("_mesh_N8.csv")

    def test_dump_field_cli(self, tmp_path, capsys):
        path = self._write(tmp_path, BASE_1D)
        assert cli.main(["dump-field", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip().endswith("_field_N8.csv")


class TestInputHoles:
    """Inputs that used to crash with a traceback or write a meaningless table."""

    RANDOM_1D = _with(BASE_1D.replace("uniform", "random"), **{"mesh.fraction": "0.3", "mesh.seed": "42"})

    @pytest.mark.parametrize(
        ("override", "key"),
        [
            ("mesh.seed=-1", "mesh.seed"),  # PCG64 rejects negative seeds
            ("time.T=nan", "time.T"),  # slipped past the <= 0 check into math.ceil(nan)
            ("time.T=inf", "time.T"),
            ("time.c=nan", "time.c"),
            ("study.ns=10,10", "study.ns"),  # wrote nan rates
            ("study.ns=20,10", "study.ns"),
            ("study.ns=4,10000000000000000000", "study.ns"),  # wrote the N=4 table; dump-mesh crashed in linspace
            ("time.c=1e-320", "time.T/time.c"),  # T/dt overflowed in math.ceil
            ("time.T=1e308", "time.T/time.c"),
            ("output.dir=", "override 'output.dir='"),  # wrote the tables into the working directory
            ("=x", "override '=x'"),
        ],
    )
    def test_rejected_naming_the_key(self, tmp_path, capsys, override, key):
        out = tmp_path / "res"
        path = tmp_path / "study.cfg"
        path.write_text(_with(self.RANDOM_1D, **{"output.dir": str(out)}))
        assert cli.main(["run", str(path), "--set", override]) == 1
        err = capsys.readouterr().err
        assert f"config error: {key}:" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "dump-mesh"])
    @pytest.mark.parametrize(
        ("lo", "hi"), [("-1e308", "1e308"), ("1e300", "1.0000000000000002e300")], ids=["wide", "narrow"]
    )
    def test_a_domain_that_cannot_hold_the_mesh_exits_1_before_any_level(
        self, tmp_path, capsys, monkeypatch, command, lo, hi
    ):
        # the width overflows, or N+1 distinct float64 nodes do not fit: both used to crash in Mesh1D
        monkeypatch.setattr("dgcentral.study.build_mesh", lambda *a: pytest.fail("a level ran"))
        out = tmp_path / "res"
        args = [command, str(CONFIGS / "advect1d_uniform_p2.cfg"), "--set", f"domain.lo={lo}", "--set", f"domain.hi={hi}"]
        assert cli.main(args + ["--set", f"output.dir={out}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: domain.lo/domain.hi: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "dump-field", "dump-mesh"])
    @pytest.mark.parametrize("degree", [str(10**30), str(MAX_DEGREE + 1)])
    def test_a_degree_above_the_cap_exits_1_before_any_level(self, tmp_path, capsys, monkeypatch, command, degree):
        # 10**30 escaped as a numpy ValueError from the Gauss rule; 100000 asked for a 74.5 GiB basis table
        monkeypatch.setattr("dgcentral.study.build_mesh", lambda *a: pytest.fail("a level ran"))
        out = tmp_path / "res"
        args = [command, str(CONFIGS / "advect1d_uniform_p2.cfg"), "--set", f"space.degree={degree}"]
        assert cli.main(args + ["--set", f"output.dir={out}"]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: space.degree: must be at most {MAX_DEGREE}, got {degree}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "dump-mesh"])
    def test_a_negative_zero_fraction_gives_the_fraction_0_mesh(self, tmp_path, command):
        # -0.0 passes 0 <= fraction, and numpy's uniform(0.0, -0.0) raised "high - low < 0"; as a label,
        # -0.0 named the files and the .md title f-0 (or a-0), not f0
        box = (0.0, 2.0 * np.pi)
        assert np.array_equal(random_mesh(8, -0.0, 42, box).nodes, random_mesh(8, 0.0, 42, box).nodes)
        for config, key in (("advect1d_random_p2.cfg", "mesh.fraction"), ("advect1d_alpha_p2.cfg", "mesh.alpha")):
            written = []
            for value in ("0", "-0.0"):
                out = tmp_path / key / value
                args = [command, str(CONFIGS / config), "--set", f"{key}={value}"]
                assert cli.main(args + ["--set", "study.ns=4,8", "--set", f"output.dir={out}"]) == 0
                written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
            assert len(written[0]) >= 2 and written[0] == written[1]

    def test_the_highest_degree_parses(self):
        assert parse_config(BASE_1D, overrides=(f"space.degree={MAX_DEGREE}",)).degree == MAX_DEGREE

    def test_shipped_config_with_uncountable_steps_exits_1(self, tmp_path, capsys):
        # T/dt = 1.6e300: the run used to hang summing the start of the last step
        out = tmp_path / "res"
        config = Path(__file__).resolve().parents[1] / "configs" / "advect1d_uniform_p2.cfg"
        args = ["run", str(config), "--set", "study.ns=10", "--set", "time.c=1e-300"]
        assert cli.main(args + ["--set", f"output.dir={out}"]) == 1
        assert "config error: time.T/time.c: the step count T/dt = 1.59e+300 at N=10 exceeds 2**53" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_run_rejects_an_unusable_output_dir_before_the_first_level(self, tmp_path, capsys, monkeypatch, below):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        path = tmp_path / "study.cfg"
        path.write_text(BASE_1D)
        monkeypatch.setattr("dgcentral.study.build_mesh", lambda *a: pytest.fail("a level ran"))
        out = blocker / "res" if below else blocker
        assert cli.main(["run", str(path), "--set", f"output.dir={out}"]) == 1
        err = capsys.readouterr().err
        assert "config error: output.dir:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["dump-mesh", "dump-field"])
    def test_dump_rejects_an_unusable_out_dir(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        path = tmp_path / "study.cfg"
        path.write_text(BASE_1D)
        assert cli.main([command, str(path), "--out", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert "config error: --out:" in err
        assert "Traceback" not in err
        assert cli.main([command, str(path), "--set", f"output.dir={blocker / 'res'}"]) == 1
        assert "config error: output.dir:" in capsys.readouterr().err

    def test_a_config_file_that_is_not_utf8_text_exits_1(self, tmp_path, capsys):
        path = tmp_path / "study.cfg"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\xfe")
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: cannot read config file {path}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["dump-mesh", "dump-field"])
    @given(config=st.sampled_from(sorted(CONFIGS.glob("*.cfg"))), overrides=st.sampled_from(_field_overrides()))
    @settings(derandomize=True, database=None, max_examples=250, deadline=None)
    def test_dump_mesh_exits_cleanly_on_extreme_overrides(self, command, config, overrides):
        # dump-mesh builds every level's mesh and marches none, dump-field projects the first level's initial
        # data in blocks of rows; an override of study.ns replaces 4,8.  Warnings are shown as in the run test
        args = [command, str(config), "--set", "study.ns=4,8", *(arg for ov in overrides for arg in ("--set", ov))]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(args + ["--out", out]) in (0, 1, 2)
        lines = err.getvalue().splitlines() + [warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught]
        assert not [line for line in lines if "Traceback" in line or "Warning" in line]

    @given(config=st.sampled_from(sorted(CONFIGS.glob("*.cfg"))), overrides=st.sampled_from(_field_overrides()))
    @example(config=CONFIGS / "advect1d_random_p2.cfg", overrides=("mesh.fraction=-0.0",))
    @example(config=CONFIGS / "advect1d_uniform_p2.cfg", overrides=("time.c=1e308",))
    @settings(derandomize=True, database=None, max_examples=250, deadline=None)
    def test_run_exits_cleanly_on_extreme_overrides(self, config, overrides):
        # the last override cuts every ladder to 4,8; a relative output.dir lands under the output root.
        # A warning would print to stderr outside pytest, which records it instead: it is shown as stderr shows it
        args = ["run", str(config), *(arg for ov in overrides for arg in ("--set", ov)), "--set", "study.ns=4,8"]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as root, mock.patch.dict(os.environ, {OUTPUT_ROOT_ENV: root}):
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    assert cli.main(args) in (0, 1, 2)
        lines = err.getvalue().splitlines() + [warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught]
        assert not [line for line in lines if "Traceback" in line or "Warning" in line]

    def test_2d_random_mesh_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="mesh.seed"):
            parse_config(_with(BASE_2D.replace("uniform", "random"), **{"mesh.fraction": "0.3", "mesh.seed": "-1"}))

    def test_non_finite_domain_is_rejected(self):
        with pytest.raises(ConfigError, match="domain"):
            parse_config(_with(BASE_1D, **{"domain.lo": "nan", "domain.hi": "1.0"}))

    def test_unstable_step_exits_2_without_a_table(self, tmp_path, capsys):
        # rk4 is stable up to c ~ 0.35 for P2 on a uniform mesh; c = 0.5 raises
        # the discrete energy long before the state overflows
        out = tmp_path / "res"
        path = tmp_path / "study.cfg"
        text = BASE_1D.replace("space.degree = 1", "space.degree = 2").replace("study.ns = 8", "study.ns = 10,20")
        path.write_text(_with(text.replace("time.T = 0.5", "time.T = 1.0"), **{"output.dir": str(out)}))
        assert cli.main(["run", str(path), "--set", "time.c=0.5"]) == 2
        err = capsys.readouterr().err
        assert "energy grew" in err
        assert not out.exists()

    def test_unstable_2d_step_exits_2_without_a_table(self, tmp_path, capsys):
        # the 2D rk4 limit is about half the 1D one: c = 0.5 is unstable for Q2
        out = tmp_path / "res"
        path = tmp_path / "study.cfg"
        text = BASE_2D.replace("study.ns = 4", "study.ns = 6,8").replace("time.T = 0.1", "time.T = 2.0")
        path.write_text(_with(text, **{"output.dir": str(out)}))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "energy grew" in err
        assert not out.exists()
