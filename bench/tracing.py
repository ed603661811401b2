"""Per-layer spans recorded from outside the package.

`instrument` replaces, for the duration of a `with` block, the names that
dgcentral's modules call across layer boundaries with wrappers that record a
span (name, start, end, parent, run id) in a `Tracer`.  Nothing inside
`src/` is changed.  A span's name is `<layer>.<boundary>`, where the layer is
the package module that does the work.

From the spans, `layer_metrics` derives the per-layer metrics of one traced
run: inclusive time and call counts at each boundary, and self time (a span's
duration minus that of its child spans).  A boundary that saw no calls
reports zero, so a change that bypasses it shows.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
from collections import defaultdict
from time import perf_counter

import dgcentral.operators
import dgcentral.study
import dgcentral.verify

# (owner, attribute, span name): the names a package module looks up at call
# time.  Module-level imports are wrapped in the module that calls them.
_BOUNDARIES = [
    (dgcentral.study, "run_study", "study.run_study"),
    (dgcentral.study, "build_mesh", "mesh.build"),
    (dgcentral.study, "l2_project", "fields.l2_project"),
    (dgcentral.study, "integrate", "timestepping.integrate"),
    (dgcentral.study, "error_l2", "metrics.error"),
    (dgcentral.study, "error_cell_average", "metrics.error"),
    (dgcentral.study, "error_interface_flux", "metrics.error"),
    (dgcentral.verify, "run_suite", "verify.run_suite"),
    (dgcentral.verify, "l2_project", "fields.l2_project"),
    (dgcentral.verify, "integrate", "timestepping.integrate"),
    (dgcentral.verify, "shifted_projection_1d", "fields.shifted_projection"),
    (dgcentral.verify, "shifted_projection_2d", "fields.shifted_projection"),
    (dgcentral.verify, "superconvergence_residual_1d", "operators.probe"),
    (dgcentral.verify, "superconvergence_residual_2d", "operators.probe"),
    (dgcentral.verify, "flux_cancellation_residual_2d", "operators.probe"),
    (dgcentral.operators, "shifted_projection_1d", "fields.shifted_projection"),
    (dgcentral.operators, "shifted_projection_2d", "fields.shifted_projection"),
    (dgcentral.operators.SpatialOperator, "__init__", "operators.build"),
    (dgcentral.operators.SpatialOperator, "apply_rhs", "operators.rhs"),
]

# Per-layer metrics and their units, in report order.
METRICS = {
    "operators.rhs_s": "s",
    "operators.rhs_calls": "count",
    "operators.rhs_us_p50": "us",
    "operators.rhs_us_p99": "us",
    "operators.rhs_ns_per_dof": "ns",
    "timestepping.integrate_s": "s",
    "timestepping.stages": "count",
    "timestepping.self_s": "s",
    "timestepping.self_us_per_stage": "us",
    "operators.build_s": "s",
    "operators.build_calls": "count",
    "operators.probe_s": "s",
    "fields.l2_project_s": "s",
    "fields.shifted_projection_s": "s",
    "fields.shifted_projection_calls": "count",
    "metrics.error_s": "s",
    "metrics.error_calls": "count",
    "mesh.build_s": "s",
    "study.self_s": "s",
    "study.finest_level_s": "s",
    "verify.energy_s": "s",
    "verify.projection_s": "s",
    "verify.superconvergence_s": "s",
    "trace.overhead_s": "s",
}

NAME, START, END, PARENT, RUN, SIZE = range(6)


class Tracer:
    """Spans of one traced run, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id, state size]
        self.run = 0
        self._stack: list[int] = []

    def call(self, name: str, size: int, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run, size])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][END] = perf_counter()

    def dump(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[RUN], s[SIZE]] for s in self.spans]
        with gzip.open(path, "wt") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "run", "size"], "spans": rows}, handle)


def _wrap(tracer: Tracer, name: str, fn):
    if name == "operators.rhs":
        @functools.wraps(fn)
        def traced(self, u):
            return tracer.call(name, u.coeffs.size, fn, (self, u), {})
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, 0, fn, args, kwargs)
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every boundary call (and each verify suite) through `tracer`."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in _BOUNDARIES]
    suites = dict(dgcentral.verify.SUITES)
    try:
        for (owner, attr, name), (_, _, fn) in zip(_BOUNDARIES, saved):
            setattr(owner, attr, _wrap(tracer, name, fn))
        for suite, fn in suites.items():
            dgcentral.verify.SUITES[suite] = _wrap(tracer, f"verify.{suite}", fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
        dgcentral.verify.SUITES.update(suites)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_self_times(spans) -> dict[str, float]:
    """Total self time per layer (the span name's prefix)."""
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s[NAME].split(".", 1)[0]] += own
    return dict(out)


def _pass_metrics(spans, ids, own) -> tuple[dict[str, float], list[float], int]:
    """Metrics of the pass made of spans[ids]; also its finest-level RHS call times and state size."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    for i in ids:
        name = spans[i][NAME]
        dur[name] += spans[i][END] - spans[i][START]
        calls[name] += 1
        self_by_name[name] += own[i]
    integrate_ids = {i for i in ids if spans[i][NAME] == "timestepping.integrate"}
    stage_spans = [spans[i] for i in ids if spans[i][NAME] == "operators.rhs" and spans[i][PARENT] in integrate_ids]
    # The finest level is the pass's last integrate call (the only one in verify).
    last = max(integrate_ids, default=-2)
    finest = [s for s in stage_spans if s[PARENT] == last]
    size = finest[0][SIZE] if finest else 0

    finest_level = 0.0
    roots = [i for i in ids if spans[i][NAME] == "study.run_study"]
    if roots:
        kids = [spans[i] for i in ids if spans[i][PARENT] == roots[-1]]
        builds = [s for s in kids if s[NAME] == "mesh.build"]
        if builds:
            finest_level = kids[-1][END] - builds[-1][START]

    stages = len(stage_spans)
    step_self = self_by_name["timestepping.integrate"]
    m = {
        "operators.rhs_s": dur["operators.rhs"],
        "operators.rhs_calls": calls["operators.rhs"],
        "timestepping.integrate_s": dur["timestepping.integrate"],
        "timestepping.stages": stages,
        "timestepping.self_s": step_self,
        "timestepping.self_us_per_stage": 1e6 * step_self / stages if stages else 0.0,
        "operators.build_s": dur["operators.build"],
        "operators.build_calls": calls["operators.build"],
        "operators.probe_s": dur["operators.probe"],
        "fields.l2_project_s": dur["fields.l2_project"],
        "fields.shifted_projection_s": dur["fields.shifted_projection"],
        "fields.shifted_projection_calls": calls["fields.shifted_projection"],
        "metrics.error_s": dur["metrics.error"],
        "metrics.error_calls": calls["metrics.error"],
        "mesh.build_s": dur["mesh.build"],
        "study.self_s": self_by_name["study.run_study"],
        "study.finest_level_s": finest_level,
        "verify.energy_s": dur["verify.energy"],
        "verify.projection_s": dur["verify.projection"],
        "verify.superconvergence_s": dur["verify.superconvergence"],
    }
    return m, [s[END] - s[START] for s in finest], size


def layer_metrics(tracer: Tracer, traced_walls: list[float], plain_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run: the median over its traced passes.

    The RHS percentiles pool the finest-level calls of every traced pass;
    `trace.overhead_s` is the median traced pass minus the median untraced one.
    """
    own = self_times(tracer.spans)
    by_run = defaultdict(list)
    for i, s in enumerate(tracer.spans):
        by_run[s[RUN]].append(i)
    per_pass, finest, size = [], [], 0
    for ids in by_run.values():
        m, times, size = _pass_metrics(tracer.spans, ids, own)
        per_pass.append(m)
        finest += times
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]} if per_pass else {}
    if len(finest) >= 2:
        q = statistics.quantiles(finest, n=100, method="inclusive")
        p50, p99 = statistics.median(finest), q[98]
    else:
        p50 = p99 = finest[0] if finest else 0.0
    out["operators.rhs_us_p50"] = 1e6 * p50
    out["operators.rhs_us_p99"] = 1e6 * p99
    out["operators.rhs_ns_per_dof"] = 1e9 * p50 / size if size else 0.0
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return {name: round(out.get(name, 0)) if unit == "count" else out.get(name, 0.0) for name, unit in METRICS.items()}
