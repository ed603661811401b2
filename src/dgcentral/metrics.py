"""Error functionals, per-level rates, and least-squares order fitting.

Three errors against a known exact solution at time t:

* ``error_l2``   - global L2 norm of u - u_h (CSV column E2);
* ``error_cell_average`` - RMS of per-cell average errors with 1/N (1D) or
  1/(Nx*Ny) (2D) normalization (column EA);
* ``error_interface_flux`` - RMS over interfaces of the difference between
  the exact nodal value and the central flux value of u_h; 1D only (Ef).

Error quadrature uses k+6 Gauss points per direction, two orders above the
projection default, so measured errors are not quadrature artifacts.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .basis import error_rule, legendre_table, reference_operators
from .fields import ModalField, _cell_points_1d, _eval_1d, _eval_2d

__all__ = [
    "error_l2",
    "error_cell_average",
    "error_interface_flux",
    "ls_order",
    "convergence_rates",
    "ConvergenceTable",
]


def _error_tables(k: int, extra_order: int = 0):
    rule = error_rule(k, extra_order)
    return rule, legendre_table(k, rule.nodes)


def error_l2(exact, u: ModalField, t: float, extra_order: int = 0) -> float:
    """sqrt of the integrated squared difference between exact(., t) and u."""
    k = u.space.degree
    rule, vals = _error_tables(k, extra_order)
    if u.space.dimension == 1:
        pts = _cell_points_1d(u.mesh, rule.nodes)
        diff = _eval_1d(lambda x: exact(x, t), pts) - u.coeffs @ vals
        return float(np.sqrt((diff**2 @ rule.weights) @ (0.5 * u.mesh.widths)))
    mx, my = u.mesh.mesh_x, u.mesh.mesh_y
    px = _cell_points_1d(mx, rule.nodes)
    py = _cell_points_1d(my, rule.nodes)
    exact_vals = _eval_2d(lambda x, y: exact(x, y, t), px[:, None, :, None], py[None, :, None, :])
    degs = u.space.degrees
    basis_x = np.stack([vals[a] for a, _ in degs])  # (dof, Q)
    basis_y = np.stack([vals[b] for _, b in degs])
    approx = np.einsum("ijd,dq,dr->ijqr", u.coeffs, basis_x, basis_y, optimize=True)
    sq = (exact_vals - approx) ** 2
    w2 = np.outer(rule.weights, rule.weights)
    per_cell = np.einsum("ijqr,qr->ij", sq, w2, optimize=True)
    scale = np.outer(0.5 * mx.widths, 0.5 * my.widths)
    return float(np.sqrt(np.sum(per_cell * scale)))


def error_cell_average(exact, u: ModalField, t: float, extra_order: int = 0) -> float:
    """RMS of per-cell average errors (cell count normalization)."""
    k = u.space.degree
    rule, _ = _error_tables(k, extra_order)
    if u.space.dimension == 1:
        pts = _cell_points_1d(u.mesh, rule.nodes)
        exact_avg = 0.5 * (_eval_1d(lambda x: exact(x, t), pts) @ rule.weights)
        diff = exact_avg - u.coeffs[:, 0]
        return float(np.sqrt(np.mean(diff**2)))
    mx, my = u.mesh.mesh_x, u.mesh.mesh_y
    px = _cell_points_1d(mx, rule.nodes)
    py = _cell_points_1d(my, rule.nodes)
    exact_vals = _eval_2d(lambda x, y: exact(x, y, t), px[:, None, :, None], py[None, :, None, :])
    w2 = np.outer(rule.weights, rule.weights)
    exact_avg = 0.25 * np.einsum("ijqr,qr->ij", exact_vals, w2, optimize=True)
    diff = exact_avg - u.coeffs[:, :, 0]
    return float(np.sqrt(np.mean(diff**2)))


def error_interface_flux(exact, u: ModalField, t: float) -> float:
    """RMS over the N interfaces of (exact nodal value - central flux value); 1D only."""
    if u.space.dimension != 1:
        raise ValueError("interface-flux error is defined for 1D fields only")
    ref = reference_operators(u.space.degree)
    left_limits = u.coeffs @ ref.edge_right  # value at each cell's right end
    right_limits = u.coeffs @ ref.edge_left  # value at each cell's left end
    central = 0.5 * (left_limits + np.roll(right_limits, -1))  # at nodes 1..N
    exact_nodes = _eval_1d(lambda x: exact(x, t), u.mesh.nodes[1:])
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

    def to_csv_text(self) -> str:
        """Full-precision CSV: N,E2,rate2,EA,rateA[,Ef,ratef] + trailing LS row."""
        buf = io.StringIO()
        has_ef = self.ef is not None
        header = "N,E2,rate2,EA,rateA" + (",Ef,ratef" if has_ef else "")
        buf.write(header + "\n")
        r2, ra = self.rate2, self.ratea
        rf = self.ratef
        for i, n in enumerate(self.ns):
            row = [str(n), _fmt_full(self.e2[i]), _fmt_rate(r2[i]), _fmt_full(self.ea[i]), _fmt_rate(ra[i])]
            if has_ef:
                row += [_fmt_full(self.ef[i]), _fmt_rate(rf[i])]
            buf.write(",".join(row) + "\n")
        ls = ["LS", _fmt_full(self.ls2), "", _fmt_full(self.lsa), ""]
        if has_ef:
            ls += [_fmt_full(self.lsf), ""]
        buf.write(",".join(ls) + "\n")
        return buf.getvalue()

    def to_markdown_text(self) -> str:
        """Markdown table with 3-significant-digit errors and 2-decimal rates."""
        has_ef = self.ef is not None
        cols = ["N", "E2", "rate", "EA", "rate", "Ef", "rate"] if has_ef else ["N", "E2", "rate", "EA", "rate"]
        lines = [f"### {self.label}", "", "| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
        r2, ra = self.rate2, self.ratea
        rf = self.ratef
        for i, n in enumerate(self.ns):
            row = [str(n), _fmt_sig(self.e2[i]), _fmt_rate(r2[i]), _fmt_sig(self.ea[i]), _fmt_rate(ra[i])]
            if has_ef:
                row += [_fmt_sig(self.ef[i]), _fmt_rate(rf[i])]
            lines.append("| " + " | ".join(row) + " |")
        ls = ["LS", _fmt_rate(self.ls2), "", _fmt_rate(self.lsa), ""]
        if has_ef:
            ls += [_fmt_rate(self.lsf), ""]
        lines.append("| " + " | ".join(ls) + " |")
        return "\n".join(lines) + "\n"
