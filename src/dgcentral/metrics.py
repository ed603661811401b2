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
2D fields.  Every grid is sampled in blocks of rows of the first cell axis,
at most ``fields._SAMPLE_ENTRIES`` entries at a time (``GaussTable.row_blocks``),
so none exists whole.  One sweep (``_errors``) reduces each block to E2's sum
and EA's per-cell errors; ``error_norms`` reads both, and the re-quadrature E2
(``error_l2`` two orders higher) reads the sum of the raised grid's sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import error_rule, reference_operators
from .fields import ModalField, gauss_table, jacobian, sample

__all__ = [
    "error_norms",
    "error_l2",
    "error_cell_average",
    "error_interface_flux",
    "ls_order",
    "convergence_rates",
    "ConvergenceTable",
]


def _errors(f, u: ModalField, extra_order: int = 0) -> tuple[float, np.ndarray]:
    """The integrated squared difference between f and u, and per cell f's average minus u's, from one sample.

    The sample is taken on the error grid raised by extra_order, block by block (`GaussTable.row_blocks`).
    """
    g = gauss_table(u.space, error_rule(u.space.degree, extra_order))
    total, averages = 0.0, np.empty(u.coeffs.shape[:-1])
    for rows, mesh in g.row_blocks(u.mesh):
        samples = g.sample(f, mesh)
        averages[rows] = 0.5 ** len(g.points) * (samples @ g.weights) - u.coeffs[rows, ..., 0]
        diff = u.coeffs[rows] @ g.values
        np.subtract(samples, diff, out=diff)
        diff *= diff
        total += float((diff @ g.weights).ravel() @ jacobian(mesh).ravel())
        del samples, diff  # held over into the next block, they doubled the re-quadrature E2's time at Q2 N=65
    return total, averages


def error_norms(exact, u: ModalField, t: float) -> tuple[float, float]:
    """E2 and EA of u against exact(., t), from one sample of the error grid."""
    total, averages = _errors(lambda *x: exact(*x, t), u)
    return float(np.sqrt(total)), float(np.sqrt(np.mean(averages**2)))


def error_l2(exact, u: ModalField, t: float, extra_order: int = 0) -> float:
    """sqrt of the integrated squared difference between exact(., t) and u, on the error grid raised by extra_order."""
    return float(np.sqrt(_errors(lambda *x: exact(*x, t), u, extra_order)[0]))


def error_cell_average(exact, u: ModalField, t: float) -> float:
    """RMS of per-cell average errors (cell count normalization)."""
    return error_norms(exact, u, t)[1]


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
