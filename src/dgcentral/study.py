"""Configuration-driven convergence studies.

A study config is a flat ``key = value`` text file with dotted sections; `#`
starts a comment, and the same ``key=value`` strings work as command-line
overrides.  `_KEYS` lists every key once: the `StudyConfig` field it sets, how
its text parses, whether it must be given, and the check its value must pass.

For each N the runner builds the mesh, projects the initial data, integrates
to T, and records E2/EA(/Ef); results go to ``<label>.csv`` (full precision)
and ``<label>.md`` (3 significant digits), written atomically.  Random-mesh
studies also dump the realized node coordinates per level so the tables are
auditable.

Resolution ladders are capped at desk scale (N <= 320 in 1D; N <= 128 in 2D
for k <= 2, N <= 256 for higher degree) unless ``paper_scale`` is set, and
always stop after the first level whose E2 falls below 100x machine epsilon:
beyond that point double precision measures roundoff, not discretization
error.
"""

from __future__ import annotations

import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import Problem, SpaceKind, l2_project
from .mesh import Mesh1D, TensorMesh2D, alpha_mesh, random_mesh, tensor_mesh, uniform_mesh
from .metrics import ConvergenceTable, error_cell_average, error_interface_flux, error_l2, error_samples
from .operators import SpatialOperator
from .timestepping import SCHEMES, IntegrationConfig, integrate

__all__ = [
    "ConfigError",
    "StudyConfig",
    "PROBLEMS",
    "parse_config",
    "serialize_config",
    "load_config",
    "build_mesh",
    "run_study",
    "dump_mesh",
    "dump_field",
    "atomic_write_text",
    "output_root",
]

OUTPUT_ROOT_ENV = "DGCENTRAL_OUTPUT_ROOT"
DESK_CAP_1D = 320
DESK_CAP_2D_LOW = 128  # k <= 2
DESK_CAP_2D_HIGH = 256
ERROR_FLOOR = 100.0 * np.finfo(float).eps
# The tests march every route up to degree 4 and check the Legendre basis against numpy up to degree 8; the
# basis tables grow as k^2 (74.5 GiB at k = 100000), so a config may not ask for more.
MAX_DEGREE = 8


class ConfigError(ValueError):
    """Invalid study configuration; message names the offending key."""


def _sin_of_sum(a, y):
    """sin(a + y) as Im(e^(ia) e^(iy)): one exponential per axis, and one product on the full grid.

    `sample` hands each axis its own broadcastable coordinate array, so each
    exponential is taken on one axis's cells x points.  The imaginary part is
    copied out, so the complex product is freed on return; a scalar stays a
    scalar.
    """
    return (np.exp(1j * a) * np.exp(1j * y)).imag.copy()


# advect2d_sin's sin(x + y - 2t) is written per axis with a = x - 2t (see `_sin_of_sum`).
PROBLEMS: dict[str, Problem] = {
    "advect1d_expsin": Problem(
        name="advect1d_expsin",
        dimension=1,
        domain=(0.0, 2.0 * np.pi),
        initial=lambda x: np.exp(np.sin(x)),
        exact=lambda x, t: np.exp(np.sin(x - t)),
    ),
    "advect2d_sin": Problem(
        name="advect2d_sin",
        dimension=2,
        domain=(0.0, 2.0 * np.pi),
        initial=_sin_of_sum,
        exact=lambda x, y, t: _sin_of_sum(x - 2.0 * t, y),
    ),
}

_FAMILIES = {"uniform": (), "alpha": ("mesh.alpha",), "random": ("mesh.fraction", "mesh.seed")}  # and their keys


@dataclass(frozen=True)
class StudyConfig:
    problem: str
    space_kind: str
    degree: int
    family: str
    ns: tuple[int, ...]
    t_final: float = 1.0
    time_c: float = 0.01
    scheme: str = "rk4"
    alpha: float | None = None
    fraction: float | None = None
    seed: int | None = None
    domain: tuple[float, float] | None = None
    out_dir: str | None = None

    @property
    def problem_def(self) -> Problem:
        prob = PROBLEMS[self.problem]
        if self.domain is not None and self.domain != prob.domain:
            return Problem(prob.name, prob.dimension, self.domain, prob.initial, prob.exact)
        return prob

    @property
    def space(self) -> SpaceKind:
        return SpaceKind(self.space_kind, self.degree)

    @property
    def label(self) -> str:
        parts = [self.problem, f"{self.space_kind}{self.degree}", self.family]
        if self.family == "alpha":
            parts.append(f"a{self.alpha:g}")
        elif self.family == "random":
            parts.append(f"f{self.fraction:g}_s{self.seed}")
        return "_".join(parts)


def _parse_pairs(text: str, overrides: tuple[str, ...] = ()) -> dict[str, str]:
    """The text's ``key = value`` lines, then the overrides; a later key wins.

    `#` comments and blank lines are skipped in the text only: each override is one whole pair.
    """
    entries = [  # (pair, message if it has no '=', message if a side is empty)
        (line, f"line {i}: expected 'key = value', got {raw!r}", f"line {i}: empty key or value in {raw!r}")
        for i, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0]).strip()
    ]
    for ov in overrides:
        entries.append((ov, f"override {ov!r} is not of the form key=value", f"override {ov!r}: empty key or value"))
    pairs: dict[str, str] = {}
    for line, no_equals, empty in entries:
        if "=" not in line:
            raise ConfigError(no_equals)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(empty)
        pairs[key] = value
    return pairs


@dataclass(frozen=True)
class _Key:
    """One config key: the StudyConfig field it sets, its text parse, whether it is required, and its check."""

    name: str
    field: str
    parse: tuple  # (text -> value, raising ValueError; what the text must be, for the message)
    required: str | None  # why an absent key is rejected; None: an absent key leaves the field's default
    check: object = lambda value: None  # value -> why it is rejected, or None to accept it


_TEXT, _INT, _FLOAT = (str, "text"), (int, "an integer"), (float, "a number")
_NS = (lambda text: tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok), "comma-separated integers")


def _positive_finite(x: float) -> str | None:
    return None if math.isfinite(x) and x > 0 else "must be positive and finite"


# Every config key, once, in the order serialize_config writes them.  domain.lo and domain.hi
# together fill the one field `domain`.
_KEYS = (
    _Key("problem", "problem", _TEXT, "missing (choose from " + ", ".join(sorted(PROBLEMS)) + ")",
         lambda v: None if v in PROBLEMS else f"unknown id {v!r}; choose from {sorted(PROBLEMS)}"),
    _Key("space.kind", "space_kind", _TEXT, "missing"),
    _Key("space.degree", "degree", _INT, "missing",
         lambda v: None if v <= MAX_DEGREE else f"must be at most {MAX_DEGREE}, got {v}"),
    _Key("mesh.family", "family", _TEXT, f"expected one of {tuple(_FAMILIES)}, got None",
         lambda v: None if v in _FAMILIES else f"expected one of {tuple(_FAMILIES)}, got {v!r}"),
    _Key("mesh.alpha", "alpha", _FLOAT, "required for the alpha family",
         lambda v: None if abs(v) < 1.0 else "must satisfy |alpha| < 1"),
    _Key("mesh.fraction", "fraction", _FLOAT, "required for the random family",
         lambda v: None if 0.0 <= v < 1.0 else "must lie in [0, 1)"),
    _Key("mesh.seed", "seed", _INT, "required for the random family",
         lambda v: None if v >= 0 else "must be a non-negative integer"),
    _Key("study.ns", "ns", _NS, "missing (comma-separated cell counts)",
         lambda v: None if v and min(v) >= 1 else "needs at least one positive cell count"),
    _Key("time.T", "t_final", _FLOAT, None, _positive_finite),
    _Key("time.c", "time_c", _FLOAT, None, _positive_finite),
    _Key("time.scheme", "scheme", _TEXT, None,
         lambda v: None if v in SCHEMES else f"unknown scheme {v!r}; registered: {sorted(SCHEMES)}"),
    _Key("domain.lo", "domain", _FLOAT, None),
    _Key("domain.hi", "domain", _FLOAT, None),
    _Key("output.dir", "out_dir", _TEXT, None),
)
_FAMILY_KEYS = {name for names in _FAMILIES.values() for name in names}


def _check_domain(cfg: StudyConfig) -> None:
    """Reject a domain that is not finite, is empty, overflows, or cannot hold some level's N+1 nodes in float64.

    A node lands within a few float64 spacings (at the largest |x|) of its exact place, plus h = width / N's rounding
    summed over N steps; the narrowest cell, (1 - |alpha|) h or (1 - fraction) h, must exceed 16 spacings plus that.
    """
    lo, hi = cfg.problem_def.domain
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("domain.lo/domain.hi: must be finite")
    if hi <= lo:
        raise ConfigError("domain.hi: must exceed domain.lo")
    edge = max(abs(lo), abs(hi))
    if not math.isfinite(2.0 * edge):  # 2 edge bounds the width, and the sum of two nodes that gives a cell center
        raise ConfigError(f"domain.lo/domain.hi: the width or a cell center of [{lo!r}, {hi!r}] overflows float64")
    width = hi - lo
    narrowest = (1.0 - max(abs(cfg.alpha or 0.0), cfg.fraction or 0.0)) * width  # times N
    spacing = 16 * math.ulp(edge)
    for n in cfg.ns:  # `n >= narrowest / spacing` first: an int beyond float range never reaches width / n
        if n >= narrowest / spacing or narrowest / n <= spacing + n * math.ulp(width / n):
            key = "study.ns" if cfg.domain is None else "domain.lo/domain.hi"
            raise ConfigError(f"{key}: [{lo!r}, {hi!r}] holds too few floats for the {cfg.family} mesh at N={n}")


def parse_config(text: str, overrides: tuple[str, ...] = ()) -> StudyConfig:
    """Parse config text plus ``key=value`` override strings into a StudyConfig."""
    pairs = _parse_pairs(text, overrides)
    given: dict[str, object] = {}
    for key in _KEYS:
        if key.name in _FAMILY_KEYS and key.name not in _FAMILIES[given["mesh.family"]]:
            continue  # another family's key stays in `pairs`, to be reported as unknown
        if (raw := pairs.pop(key.name, None)) is None:
            if key.required:
                raise ConfigError(f"{key.name}: {key.required}")
            continue
        try:
            value = key.parse[0](raw)
        except ValueError:
            raise ConfigError(f"{key.name}: expected {key.parse[1]}, got {raw!r}") from None
        if why := key.check(value):
            raise ConfigError(f"{key.name}: {why}")
        given[key.name] = value

    problem, kind, ns = given["problem"], given["space.kind"], given["study.ns"]
    try:
        space = SpaceKind(kind, given["space.degree"])
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from None
    if space.dimension != (dimension := PROBLEMS[problem].dimension):
        raise ConfigError(f"space.kind: {kind} is {space.dimension}D but problem {problem!r} is {dimension}D")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"study.ns: cell counts must be strictly increasing, got {','.join(map(str, ns))!r}")
    if given["mesh.family"] == "alpha" and ns[0] < 2:
        raise ConfigError("study.ns: alpha meshes need N >= 2")
    lo, hi = given.pop("domain.lo", None), given.pop("domain.hi", None)
    if (lo is None) != (hi is None):
        raise ConfigError("domain.lo/domain.hi: provide both or neither")
    fields = {key.field: given[key.name] for key in _KEYS if key.name in given}
    cfg = StudyConfig(**fields, domain=None if lo is None else (lo, hi))
    _check_domain(cfg)
    if pairs:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(pairs)))
    return cfg


def serialize_config(cfg: StudyConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    values = {key.name: getattr(cfg, key.field) for key in _KEYS}
    values["study.ns"] = ",".join(map(str, cfg.ns))
    values["domain.lo"], values["domain.hi"] = cfg.domain or (None, None)
    return "".join(f"{name} = {value}\n" for name, value in values.items() if value is not None)


def load_config(path: str | Path, overrides: tuple[str, ...] = ()) -> StudyConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text, overrides)


def build_mesh(cfg: StudyConfig, n: int) -> Mesh1D | TensorMesh2D:
    """Mesh for one refinement level; 2D tensor meshes perturb each axis independently."""
    domain = cfg.problem_def.domain

    def axis(seed_offset: int) -> Mesh1D:
        if cfg.family == "uniform":
            return uniform_mesh(n, domain)
        if cfg.family == "alpha":
            return alpha_mesh(n, cfg.alpha, domain)
        return random_mesh(n, cfg.fraction, cfg.seed + seed_offset, domain)

    if cfg.problem_def.dimension == 1:
        return axis(0)
    return tensor_mesh(axis(0), axis(1))


def _desk_cap(cfg: StudyConfig) -> int:
    if cfg.problem_def.dimension == 1:
        return DESK_CAP_1D
    return DESK_CAP_2D_LOW if cfg.degree <= 2 else DESK_CAP_2D_HIGH


def output_root() -> Path | None:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(root) if root else None


def _resolve_out_dir(cfg: StudyConfig) -> Path | None:
    if cfg.out_dir is None:
        return None
    out = Path(cfg.out_dir)
    root = output_root()
    if root is not None and not out.is_absolute():
        out = root / out
    return out


def _check_output_dir(path: Path, key: str) -> None:
    """Reject `path` unless its nearest existing ancestor is a writable directory."""
    existing = next(p for p in (path, *path.absolute().parents) if p.exists())
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"{key}: cannot use {path} as the output directory: {existing} is not a writable directory")


@contextmanager
def _output_errors(key: str):
    """An OSError from writing the outputs becomes a ConfigError naming the key that chose their directory."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{key}: cannot write the output: {exc}") from None


def atomic_write_text(path: Path, text: str) -> Path:
    """Write via a temp file in the target directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _write_nodes(out_dir: Path, stem: str, mesh: Mesh1D | TensorMesh2D) -> list[Path]:
    """One node-coordinate CSV per axis: <stem>.csv in 1D, <stem>_x.csv and <stem>_y.csv in 2D."""
    suffixes = ("",) if len(mesh.axes) == 1 else ("_x", "_y")
    return [
        atomic_write_text(out_dir / f"{stem}{suffix}.csv", "x\n" + "\n".join(f"{x:.17g}" for x in axis.nodes) + "\n")
        for suffix, axis in zip(suffixes, mesh.axes)
    ]


def run_study(cfg: StudyConfig, paper_scale: bool = False, log=None) -> ConvergenceTable:
    """Run the refinement ladder of a config and return (and maybe write) its table."""
    prob = cfg.problem_def
    space = cfg.space
    cap = _desk_cap(cfg)
    ns = list(cfg.ns) if paper_scale else [n for n in cfg.ns if n <= cap]
    if not ns:
        raise ConfigError(f"study.ns: all levels exceed the desk-scale cap {cap}; use paper scale")
    out_dir = _resolve_out_dir(cfg)
    if out_dir is not None:  # before the first level, not after the last
        _check_output_dir(out_dir, "output.dir")
    has_ef = prob.dimension == 1  # the interface-flux error is 1D only
    e2s: list[float] = []
    eas: list[float] = []
    efs: list[float] = []
    requad: list[float] = []
    used: list[int] = []
    for n in ns:
        mesh = build_mesh(cfg, n)
        u0 = l2_project(prob.initial, mesh, space)
        tcfg = IntegrationConfig(t_final=cfg.t_final, c=cfg.time_c, scheme=cfg.scheme)
        dt = tcfg.resolve_dt(mesh.min_width)
        steps = cfg.t_final / dt if dt > 0 else math.inf
        if steps > 2.0**53:  # float64 counts steps, and places t = n dt, only up to 2**53
            raise ConfigError(
                f"time.T/time.c: the step count T/dt = {steps:.3g} at N={n} exceeds 2**53,"
                f" more steps than float64 can count (dt = c * min h = {dt:.3g})"
            )
        # the operator picks the route (`timestepping`): one factor per mode on a diagonalising basis, else P(hL)
        u = integrate(SpatialOperator(mesh, space), u0, tcfg)
        samples = error_samples(prob.exact, u, cfg.t_final)  # one sample for E2 and EA
        e2 = error_l2(prob.exact, u, cfg.t_final, samples=samples)
        ea = error_cell_average(prob.exact, u, cfg.t_final, samples=samples)
        del samples  # freed before the larger sample of the requad grid
        e2_hi = error_l2(prob.exact, u, cfg.t_final, extra_order=2)
        used.append(n)
        e2s.append(e2)
        eas.append(ea)
        requad.append(abs(e2_hi - e2) / e2 if e2 > 0 else 0.0)
        if has_ef:
            efs.append(error_interface_flux(prob.exact, u, cfg.t_final))
        if out_dir is not None and cfg.family == "random":
            with _output_errors("output.dir"):
                _write_nodes(out_dir, f"{cfg.label}_nodes_N{n}", mesh)
        if log is not None:
            msg = f"N={n:6d}  E2={e2:.6e}  EA={ea:.6e}"
            if has_ef:
                msg += f"  Ef={efs[-1]:.6e}"
            log(msg)
        if e2 < ERROR_FLOOR:
            if log is not None:
                log(f"stopping: E2 reached the double-precision floor ({ERROR_FLOOR:.2e})")
            break
    table = ConvergenceTable(
        label=cfg.label,
        ns=used,
        e2=e2s,
        ea=eas,
        ef=efs if has_ef else None,
        e2_requad_reldiff=requad,
    )
    if out_dir is not None:
        with _output_errors("output.dir"):
            atomic_write_text(out_dir / f"{cfg.label}.csv", table.to_csv_text())
            atomic_write_text(out_dir / f"{cfg.label}.md", table.to_markdown_text())
    return table


def dump_mesh(cfg: StudyConfig, out_dir: str | Path | None = None) -> list[Path]:
    """Write node coordinates for every level of the config's ladder."""
    target = Path(out_dir) if out_dir is not None else (_resolve_out_dir(cfg) or Path.cwd())
    written: list[Path] = []
    with _output_errors("output.dir" if out_dir is None else "--out"):
        for n in cfg.ns:
            written += _write_nodes(target, f"{cfg.label}_mesh_N{n}", build_mesh(cfg, n))
    return written


def dump_field(cfg: StudyConfig, out_dir: str | Path | None = None) -> Path:
    """Project the initial data at the coarsest level and dump the coefficients.

    CSV columns: cell center coordinates, then one column per basis function
    in the space's documented (lexicographic) degree order.
    """
    target = Path(out_dir) if out_dir is not None else (_resolve_out_dir(cfg) or Path.cwd())
    prob = cfg.problem_def
    n = cfg.ns[0]
    mesh = build_mesh(cfg, n)
    field = l2_project(prob.initial, mesh, cfg.space)
    names = ["x", "y"][: len(mesh.axes)] + [f"c{i}" for i in range(cfg.space.dof)]
    centers = np.meshgrid(*[axis.centers for axis in mesh.axes], indexing="ij")
    rows = [",".join(names)]
    for cell in np.ndindex(field.coeffs.shape[:-1]):
        rows.append(",".join(f"{v:.17g}" for v in [*(c[cell] for c in centers), *field.coeffs[cell]]))
    with _output_errors("output.dir" if out_dir is None else "--out"):
        return atomic_write_text(target / f"{cfg.label}_field_N{n}.csv", "\n".join(rows) + "\n")
