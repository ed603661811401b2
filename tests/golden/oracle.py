"""Extended-precision oracle tables for the 1D P(hL) and the Q2D configs.

Every level of a config's desk ladder is marched by rk4 in `np.longdouble` on
the operator's CSR L (in 2D the whole Kronecker sum), each row of L times the
state summed by `np.add.reduceat`, on the time grid `integrate` uses (n - 1
steps of dt and a last one of h_last).  The final state is rounded to float64
and its errors go through `run_study`, so E2, EA, Ef (1D) and the LS cells
come from the same `metrics` code as the golden tables.  For each config the
script writes `<config>.oracle.csv` next to this file and prints, per level,
the largest |u - oracle| of the package's own march, then each LS cell's
distance from the oracle's LS for the golden table.

From the root of the repository (about 3 s per 1D config and 30 s per Q2D
config on one core; with no names it runs all five):

    PYTHONPATH=src python tests/golden/oracle.py advect1d_alpha_p2 advect1d_random_p2
    PYTHONPATH=src python tests/golden/oracle.py advect2d_alpha_q2 advect2d_random_q2 advect2d_uniform_q2
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from dgcentral import study
from dgcentral.study import load_config, run_study

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parents[1] / "configs"


def longdouble_march(op, u0, cfg):
    """The rk4 stages of u' = L u in extended precision from u0's coefficients, rounded to float64 at the end."""
    if cfg.scheme != "rk4":
        raise ValueError(f"the oracle marches rk4, not {cfg.scheme}")
    csr = op.matrix
    data, columns, starts = csr.data.astype(np.longdouble), csr.indices, csr.indptr[:-1]
    apply = lambda w: np.add.reduceat(data * w[columns], starts)
    dt = cfg.resolve_dt(op.mesh.min_width)
    nsteps = max(1, math.ceil(cfg.t_final / dt - 1e-12))
    h_last = cfg.t_final - (nsteps - 1) * dt  # as `integrate` takes it
    w = u0.coeffs.ravel().astype(np.longdouble)
    for step in range(nsteps):
        h = np.longdouble(dt if step < nsteps - 1 else h_last)
        k1 = apply(w)
        k2 = apply(w + h / 2 * k1)
        k3 = apply(w + h / 2 * k2)
        k4 = apply(w + h * k3)
        w = w + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return w.astype(float).reshape(u0.coeffs.shape)


def oracle_table(name: str, distances: list | None = None):
    """The config's desk-scale table from the oracle march; appends (N, max |u - oracle|) of the package's march."""
    cfg = dataclasses.replace(load_config(CONFIGS / f"{name}.cfg"), out_dir=None)
    integrate = study.integrate

    def oracle(op, u0, tcfg):
        u = longdouble_march(op, u0, tcfg)
        if distances is not None:
            distances.append((op.mesh.axes[0].num_cells, float(np.max(np.abs(integrate(op, u0, tcfg).coeffs - u)))))
        return u0.like(u)

    study.integrate = oracle
    try:
        return run_study(cfg)
    finally:
        study.integrate = integrate


def _ls_cells(csv_text: str) -> list[float]:
    return [float(cell) for cell in csv_text.splitlines()[-1].split(",")[1:] if cell]


def main(names: list[str]) -> None:
    for name in names:
        distances: list = []
        table = oracle_table(name, distances)
        (HERE / f"{name}.oracle.csv").write_text(table.to_csv_text())
        print(name)
        for n, distance in distances:
            print(f"  N={n:4d}  max |u - oracle| = {distance:.3g}")
        oracle_ls = _ls_cells(table.to_csv_text())
        golden_ls = _ls_cells((HERE / f"{name}.csv").read_text())
        for label, ls, ref in zip(("LS(E2)", "LS(EA)", "LS(Ef)"), golden_ls, oracle_ls):
            print(f"  {label}  golden {ls!r}  oracle {ref!r}  relative distance {abs(ls - ref) / abs(ref):.2g}")


if __name__ == "__main__":
    main(sys.argv[1:] or [f"advect1d_{m}_p2" for m in ("alpha", "random")] + [f"advect2d_{m}_q2" for m in ("alpha", "random", "uniform")])
