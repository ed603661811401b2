"""Error functionals, per-level rates, and least-squares order fitting.

Three errors against a known exact solution at time t:

* ``error_l2``   - global L2 norm of u - u_h (CSV column E2);
* ``error_cell_average`` - RMS of per-cell average errors with 1/N (1D) or
  1/(Nx*Ny) (2D) normalization (column EA);
* ``error_interface_flux`` - RMS over interfaces of the difference between
  the exact nodal value and the central flux value of u_h; 1D only (Ef).

Each error samples the exact solution with ``fields.sample`` on a Gauss grid
of k+6 points per axis, two orders above the projection default, so
measured errors are not quadrature artifacts; the same code serves 1D and
2D fields.  E2 and EA read the same grid, so ``run_study`` samples it once
per level (``error_samples``) and hands the array to both.  Without that
array ``error_l2`` samples its grid in blocks of rows of the first cell axis,
so a raised-order grid (the re-quadrature guard) never exists whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import error_rule, reference_operators
from .fields import ModalField, gauss_table, jacobian, sample
from .mesh import Mesh1D, TensorMesh2D

__all__ = [
    "error_samples",
    "error_l2",
    "error_cell_average",
    "error_interface_flux",
    "ls_order",
    "convergence_rates",
    "ConvergenceTable",
]

# Entries of the error grid that `error_l2` samples at a time (512 KB) when it is not handed the samples.  The
# re-quadrature E2 of `study.run_study` samples k + 8 points per axis: in one block it was the memory peak of the
# Q2 alpha ladder (10.2 MB traced at N=65, 422,500 entries), in these blocks 1.6 MB at the same speed.  Every 1D
# level of the shipped ladders and 2D levels up to N=25 at Q2 take one block.
_SAMPLE_ENTRIES = 1 << 16


def error_samples(exact, u: ModalField, t: float, extra_order: int = 0) -> np.ndarray:
    """exact(., t) on the error grid of u in every cell (shape cells + (Q,)), as E2 and EA read it."""
    return gauss_table(u.space, error_rule(u.space.degree, extra_order)).sample(lambda *x: exact(*x, t), u.mesh)


def error_l2(exact, u: ModalField, t: float, extra_order: int = 0, samples=None) -> float:
    """sqrt of the integrated squared difference between exact(., t) and u; `samples` is its `error_samples`.

    Without `samples` the grid is sampled in blocks of rows of the first cell axis, `_SAMPLE_ENTRIES` at a time.
    """
    g = gauss_table(u.space, error_rule(u.space.degree, extra_order))
    if samples is not None:
        return float(np.sqrt(_squared_error(u, g, samples)))
    cells = u.coeffs.shape[:-1]
    rows = max(1, _SAMPLE_ENTRIES // (np.prod(cells[1:], dtype=int) * g.weights.size))
    total = 0.0
    for start in range(0, cells[0], rows):
        part = _rows(u, start, start + rows)
        total += _squared_error(part, g, error_samples(exact, part, t, extra_order))
    return float(np.sqrt(total))


def _squared_error(u: ModalField, g, samples) -> float:
    """The integrated squared difference between the samples on g's grid and u."""
    # in place in u's own array: `samples` is shared with `error_cell_average`
    diff = u.coeffs @ g.values
    np.subtract(samples, diff, out=diff)
    diff *= diff
    return float((diff @ g.weights).ravel() @ jacobian(u.mesh).ravel())


def _rows(u: ModalField, start: int, stop: int) -> ModalField:
    """u on cells start..stop - 1 of its first axis, a mesh of their nodes (the other axis whole)."""
    first, *rest = u.mesh.axes
    part = Mesh1D(first.nodes[start : stop + 1])
    return ModalField(u.space, TensorMesh2D(part, *rest) if rest else part, u.coeffs[start:stop])


def _cell_average_errors(f, u: ModalField, samples=None) -> np.ndarray:
    """Per cell, the average of f (by the error rule, from `samples` if given) minus that of u."""
    g = gauss_table(u.space, error_rule(u.space.degree))
    return 0.5 ** len(g.points) * ((g.sample(f, u.mesh) if samples is None else samples) @ g.weights) - u.coeffs[..., 0]


def error_cell_average(exact, u: ModalField, t: float, samples=None) -> float:
    """RMS of per-cell average errors (cell count normalization); `samples` as in `error_l2`."""
    diff = _cell_average_errors(lambda *x: exact(*x, t), u, samples)
    return float(np.sqrt(np.mean(diff**2)))


def error_interface_flux(exact, u: ModalField, t: float) -> float:
    """RMS over the N interfaces of (exact nodal value - central flux value); 1D only."""
    if u.space.dimension != 1:
        raise ValueError("interface-flux error is defined for 1D fields only")
    ref = reference_operators(u.space.degree)
    left_limits = u.coeffs @ ref.edge_right  # value at each cell's right end
    right_limits = u.coeffs @ ref.edge_left  # value at each cell's left end
    central = 0.5 * (left_limits + np.roll(right_limits, -1))  # at nodes 1..N
    exact_nodes = sample(lambda x: exact(x, t), u.mesh, 1.0)[:, 0]
    return float(np.sqrt(np.mean((exact_nodes - central) ** 2)))


def ls_order(ns, errors) -> float:
    """Negated slope of the ordinary least-squares line of log E against log N."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.size != errors.size or ns.size < 2:
        raise ValueError("need at least two (N, error) pairs")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
    return float(-slope)


def convergence_rates(ns, errors) -> list:
    """Per-level orders log(E_prev/E_cur) / log(N_cur/N_prev); None for the first row."""
    out = [None]
    for i in range(1, len(ns)):
        out.append(float(np.log(errors[i - 1] / errors[i]) / np.log(ns[i] / ns[i - 1])))
    return out


def _fmt_full(x) -> str:
    return "" if x is None else f"{x:.17g}"


def _fmt_sig(x, digits=3) -> str:
    return "" if x is None else f"{x:.{digits - 1}E}"


def _fmt_rate(x) -> str:
    return "" if x is None else f"{x:.2f}"


@dataclass
class ConvergenceTable:
    """One refinement study: errors, per-level rates, and LS-fitted orders.

    `ns` is the per-axis cell count ladder.  `ef` is None for 2D studies.
    `e2_requad_reldiff` records, per level, the relative change of E2 when
    the error quadrature is raised by two orders (a measurement guard).
    """

    label: str
    ns: list[int]
    e2: list[float]
    ea: list[float]
    ef: list[float] | None = None
    e2_requad_reldiff: list[float] = field(default_factory=list)

    @property
    def rate2(self) -> list:
        return convergence_rates(self.ns, self.e2)

    @property
    def ratea(self) -> list:
        return convergence_rates(self.ns, self.ea)

    @property
    def ratef(self) -> list:
        return convergence_rates(self.ns, self.ef) if self.ef is not None else None

    @property
    def ls2(self) -> float | None:
        return ls_order(self.ns, self.e2) if len(self.ns) >= 2 else None

    @property
    def lsa(self) -> float | None:
        return ls_order(self.ns, self.ea) if len(self.ns) >= 2 else None

    @property
    def lsf(self) -> float | None:
        if self.ef is None or len(self.ns) < 2:
            return None
        return ls_order(self.ns, self.ef)

    def _rows(self, fmt_error, fmt_ls) -> list[list[str]]:
        """The cells of both tables: per level N and each error with its rate, then the LS fits."""
        columns = [(self.e2, self.rate2, self.ls2), (self.ea, self.ratea, self.lsa)]
        if self.ef is not None:
            columns.append((self.ef, self.ratef, self.lsf))
        rows = []
        for i, n in enumerate(self.ns):
            rows.append([str(n)] + [cell for err, rate, _ in columns for cell in (fmt_error(err[i]), _fmt_rate(rate[i]))])
        return rows + [["LS"] + [cell for _, _, ls in columns for cell in (fmt_ls(ls), "")]]

    def to_csv_text(self) -> str:
        """Full-precision CSV: N,E2,rate2,EA,rateA[,Ef,ratef] + trailing LS row."""
        header = "N,E2,rate2,EA,rateA" + (",Ef,ratef" if self.ef is not None else "")
        return "\n".join([header] + [",".join(row) for row in self._rows(_fmt_full, _fmt_full)]) + "\n"

    def to_markdown_text(self) -> str:
        """Markdown table with 3-significant-digit errors and 2-decimal rates."""
        cols = ["N", "E2", "rate", "EA", "rate"] + (["Ef", "rate"] if self.ef is not None else [])
        lines = [f"### {self.label}", "", "| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
        lines += ["| " + " | ".join(row) + " |" for row in self._rows(_fmt_sig, _fmt_rate)]
        return "\n".join(lines) + "\n"
