"""Configuration-driven convergence studies.

A study config is a flat ``key = value`` text file with dotted sections::

    problem = advect1d_expsin
    space.kind = P1D
    space.degree = 2
    mesh.family = alpha
    mesh.alpha = 0.1
    study.ns = 10,20,40,80,160,320
    time.T = 1.0
    time.c = 0.01
    time.scheme = rk4
    output.dir = results/alpha_k2

`#` starts a comment; the same ``key=value`` strings work as command-line
overrides.  For each N the runner builds the mesh, projects the initial
data, integrates to T, and records E2/EA(/Ef); results go to
``<label>.csv`` (full precision) and ``<label>.md`` (3 significant digits),
written atomically.  Random-mesh studies also dump the realized node
coordinates per level so the tables are auditable.

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

_FAMILIES = ("uniform", "alpha", "random")


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


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        pairs[key] = value
    return pairs


def _require(pairs: dict[str, str], key: str, why: str = "missing") -> str:
    value = pairs.pop(key, None)
    if value is None:
        raise ConfigError(f"{key}: {why}")
    return value


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _as_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def parse_config(text: str, overrides: tuple[str, ...] = ()) -> StudyConfig:
    """Parse config text plus ``key=value`` override strings into a StudyConfig."""
    pairs = _parse_pairs(text)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not of the form key=value")
        key, value = (part.strip() for part in ov.split("=", 1))
        if not key or not value:
            raise ConfigError(f"override {ov!r}: empty key or value")
        pairs[key] = value

    problem = _require(pairs, "problem", "missing (choose from " + ", ".join(sorted(PROBLEMS)) + ")")
    if problem not in PROBLEMS:
        raise ConfigError(f"problem: unknown id {problem!r}; choose from {sorted(PROBLEMS)}")
    prob = PROBLEMS[problem]

    kind = _require(pairs, "space.kind")
    degree = _as_int("space.degree", _require(pairs, "space.degree"))
    try:
        space = SpaceKind(kind, degree)
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from None
    if space.dimension != prob.dimension:
        raise ConfigError(
            f"space.kind: {kind} is {space.dimension}D but problem {problem!r} is {prob.dimension}D"
        )

    family = pairs.pop("mesh.family", None)
    if family not in _FAMILIES:
        raise ConfigError(f"mesh.family: expected one of {_FAMILIES}, got {family!r}")
    alpha = fraction = seed = None
    if family == "alpha":
        alpha = _as_float("mesh.alpha", _require(pairs, "mesh.alpha", "required for the alpha family"))
        if not abs(alpha) < 1.0:
            raise ConfigError("mesh.alpha: must satisfy |alpha| < 1")
    elif family == "random":
        fraction = _as_float("mesh.fraction", _require(pairs, "mesh.fraction", "required for the random family"))
        seed = _as_int("mesh.seed", _require(pairs, "mesh.seed", "required for the random family"))
        if not 0.0 <= fraction < 1.0:
            raise ConfigError("mesh.fraction: must lie in [0, 1)")
        if seed < 0:
            raise ConfigError("mesh.seed: must be a non-negative integer")

    ns_s = _require(pairs, "study.ns", "missing (comma-separated cell counts)")
    try:
        ns = tuple(int(tok) for tok in ns_s.replace(" ", "").split(",") if tok)
    except ValueError:
        raise ConfigError(f"study.ns: expected comma-separated integers, got {ns_s!r}") from None
    if not ns or any(n < 1 for n in ns):
        raise ConfigError("study.ns: needs at least one positive cell count")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"study.ns: cell counts must be strictly increasing, got {ns_s!r}")
    if family == "alpha" and any(n < 2 for n in ns):
        raise ConfigError("study.ns: alpha meshes need N >= 2")

    t_final = _as_float("time.T", pairs.pop("time.T", "1.0"))
    if not (math.isfinite(t_final) and t_final > 0):
        raise ConfigError("time.T: must be positive and finite")
    time_c = _as_float("time.c", pairs.pop("time.c", "0.01"))
    if not (math.isfinite(time_c) and time_c > 0):
        raise ConfigError("time.c: must be positive and finite")
    scheme = pairs.pop("time.scheme", "rk4")
    if scheme not in SCHEMES:
        raise ConfigError(f"time.scheme: unknown scheme {scheme!r}; registered: {sorted(SCHEMES)}")

    domain = None
    lo_s, hi_s = pairs.pop("domain.lo", None), pairs.pop("domain.hi", None)
    if (lo_s is None) != (hi_s is None):
        raise ConfigError("domain.lo/domain.hi: provide both or neither")
    if lo_s is not None:
        domain = (_as_float("domain.lo", lo_s), _as_float("domain.hi", hi_s))
        if not all(math.isfinite(x) for x in domain):
            raise ConfigError("domain.lo/domain.hi: must be finite")
        if domain[1] <= domain[0]:
            raise ConfigError("domain.hi: must exceed domain.lo")

    out_dir = pairs.pop("output.dir", None)
    if pairs:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(pairs)))
    return StudyConfig(
        problem=problem,
        space_kind=kind,
        degree=degree,
        family=family,
        ns=ns,
        t_final=t_final,
        time_c=time_c,
        scheme=scheme,
        alpha=alpha,
        fraction=fraction,
        seed=seed,
        domain=domain,
        out_dir=out_dir,
    )


def serialize_config(cfg: StudyConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = [
        f"problem = {cfg.problem}",
        f"space.kind = {cfg.space_kind}",
        f"space.degree = {cfg.degree}",
        f"mesh.family = {cfg.family}",
    ]
    if cfg.alpha is not None:
        lines.append(f"mesh.alpha = {cfg.alpha!r}")
    if cfg.fraction is not None:
        lines.append(f"mesh.fraction = {cfg.fraction!r}")
    if cfg.seed is not None:
        lines.append(f"mesh.seed = {cfg.seed}")
    lines.append("study.ns = " + ",".join(str(n) for n in cfg.ns))
    lines.append(f"time.T = {cfg.t_final!r}")
    lines.append(f"time.c = {cfg.time_c!r}")
    lines.append(f"time.scheme = {cfg.scheme}")
    if cfg.domain is not None:
        lines.append(f"domain.lo = {cfg.domain[0]!r}")
        lines.append(f"domain.hi = {cfg.domain[1]!r}")
    if cfg.out_dir is not None:
        lines.append(f"output.dir = {cfg.out_dir}")
    return "\n".join(lines) + "\n"


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
        # the operator picks the route: one rk4 factor per mode where L has a diagonalising
        # basis (Q2D; P1D, P2D on uniform axes), else P(hL) on the assembled L
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
