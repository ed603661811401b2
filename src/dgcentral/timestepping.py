"""Explicit Runge-Kutta integration of the semi-discrete system.

The default stepper is the classical 4-stage RK4 with dt = c * min_j h_j and
c = 0.01.  Error budget for that choice: the global temporal error scales
like (c h)^4 = 1e-8 h^4, while the spatial error is at best O(h^(k+1)); for
every degree k <= 4 and resolution exercised here the temporal term sits
several orders below the spatial one (and far below the tabulated error
magnitudes), so a higher-order stepper would not change any reported digit.

Schemes are explicit Butcher tableaus; the registry ships ssprk3 and rk4,
and `register_scheme` accepts custom explicit tableaus.  Forward Euler and
Heun are not shipped: on this skew operator their amplification factors
satisfy |P(iy)|^2 = 1 + y^2 and 1 + y^4/4, so they raise the discrete energy
for every dt.

For u' = L u a step of size h is u <- P(hL) u, P(z) = sum_j gamma_j z^j with
gamma_0 = 1 and gamma_j = b^T A^(j-1) 1, so a run of n steps computes
P(h_last L) P(dt L)^(n-1) u0.  `integrate` hands the whole run to one march,
(rhs, state, dt, nsteps, h_last, scheme) -> state, that an operator's space
and mesh pick; all keep one time grid:

* `_spectral_march`: an operator with a diagonalising basis (Q2D; P1D and P2D
  on uniform axes; see `SpatialOperator.propagate`).  The whole run is one
  factor P(h_last lam) P(dt lam)^(n-1) per mode, with no steps; the power
  takes ~log2(n) complex products by squaring, relative error < 4 (n+1) eps.
  It computes only the final state and never builds L.  L is skew in the mass
  inner product, so on this basis the steps are exactly these factors, a
  growing one too (the Fourier view of DG: Zhong & Shu, CMAME 2011): an
  unstable level grows or overflows as its steps would, and raises below.
* `_tiled_march`: non-uniform P1D.  Q1 = P(dt L) - I is built once from L's
  `_axis_blocks` as per-cell row blocks, QM = P(dt L)^M - I from Q1 by trimmed
  doublings, and both are applied as dense row tiles, M full steps per product;
  the shortened last step is Horner's rule on the state with the same blocks.
* `_stepped_march`: one step at a time.  For P2D off uniform axes a step is
  Horner's rule on the vector with the CSR L (a 2D Q2 would fill in), the one
  march route that imports ``scipy.sparse``; for a callable ``rhs`` (any
  field, scalar or custom state) it is one RHS call per stage of the tableau.

The marches only multiply; `integrate` judges the final state once, on every
route.  A non-finite entry stays non-finite under sums and products, so a run
that overflows anywhere ends non-finite and raises `IntegrationDivergedError`
at its last step.  For field states, a final discrete energy
(`ModalField.norm_l2_squared`) above the initial one by more than
`ENERGY_GROWTH_TOL` (relative) raises it too: the central-flux operator is
skew in the mass inner product, so a stable step never raises the energy.

Stability limit of rk4 on uniform meshes (largest stable c in dt = c*h):

    k      0      1      2      3      4
    c    2.83   0.707  0.350  0.213  0.144
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .fields import ModalField
from .operators import SpatialOperator, _axis_blocks

__all__ = [
    "RKScheme",
    "IntegrationConfig",
    "IntegrationDivergedError",
    "SCHEMES",
    "register_scheme",
    "stability_coefficients",
    "integrate",
    "energy_drift",
]


# Relative growth of the discrete energy over a run above which it is unstable.
ENERGY_GROWTH_TOL = 1e-8

_TRIM = 1e-20  # a doubled 1D band drops the outer cells whose entries are bounded below this fraction of its largest
_PAIR_CELLS = 32  # cells per product of a doubling: whole at N=320, its 1 MB padded halo raised ladder1d peak RSS by 1 MB
_TILE_CELLS = 4  # cells per row tile of the 1D P(hL) march: on Q16 at P2 and P4, no count from 2 to 10 beat it by over 10%


class IntegrationDivergedError(RuntimeError):
    """Raised when a run's final state is non-finite or its energy grew; carries the run's last step and time."""

    def __init__(self, step: int, time: float, reason: str = "non-finite state detected"):
        super().__init__(f"{reason} at step {step} (t = {time:.6g})")
        self.step = step
        self.time = time


@dataclass(frozen=True)
class RKScheme:
    """Explicit Runge-Kutta tableau (strictly lower-triangular stage matrix)."""

    name: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        s = b.size
        if a.shape != (s, s) or c.size != s:
            raise ValueError("tableau dimensions are inconsistent")
        if np.any(np.triu(a) != 0.0):
            raise ValueError("only explicit (strictly lower-triangular) tableaus are supported")
        if abs(b.sum() - 1.0) > 1e-14:
            raise ValueError("stage weights must sum to 1")
        if np.max(np.abs(a.sum(axis=1) - c)) > 1e-14:
            raise ValueError("stage nodes must equal their row sums")
        for name, arr in zip("abc", (a, b, c)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def stages(self) -> int:
        return self.b.size


SCHEMES: dict[str, RKScheme] = {}


def register_scheme(scheme: RKScheme) -> RKScheme:
    """Add a scheme to the registry (overwrites an existing name)."""
    SCHEMES[scheme.name] = scheme
    return scheme


register_scheme(
    RKScheme(
        "ssprk3",
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.25, 0.25, 0.0]],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
        [0.0, 1.0, 0.5],
        order=3,
    )
)
register_scheme(
    RKScheme(
        "rk4",
        [[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
        [0.0, 0.5, 0.5, 1.0],
        order=4,
    )
)


@dataclass
class IntegrationConfig:
    """Terminal time, step-size rule dt = c * min_j h_j, and scheme choice.

    `dt` overrides the mesh-based rule when set (required for mesh-free
    states such as scalar test problems).  The step count is ceil(T / dt)
    with the final step shortened to land exactly on T.
    """

    t_final: float
    c: float = 0.01
    scheme: str = "rk4"
    dt: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError("terminal time must be positive and finite")
        if self.dt is None and not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("step coefficient c must be positive and finite")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("explicit dt must be positive and finite")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; registered: {sorted(SCHEMES)}")

    def resolve_dt(self, min_width: float | None) -> float:
        if self.dt is not None:
            return self.dt
        if min_width is None:
            raise ValueError("dt rule needs a mesh; supply an explicit dt for mesh-free states")
        return self.c * min_width


def stability_coefficients(scheme: RKScheme) -> np.ndarray:
    """gamma_0..gamma_s of the stability polynomial P(z) = sum_j gamma_j z^j.

    gamma_0 = 1 and gamma_j = b^T A^(j-1) 1; A is strictly lower triangular,
    so A^s = 0 and the degree is at most s.
    """
    gammas = [1.0]
    power = np.ones(scheme.stages)
    for _ in range(scheme.stages):
        gammas.append(float(scheme.b @ power))
        power = scheme.a @ power
    return np.array(gammas)


def _horner_increment(apply, x, gammas):
    """(P(z) - 1) x = z(g1 x + ... + z gs x) by Horner's rule (no g0 x); apply(q) is z q, which the next pass adds into."""
    q = apply(gammas[-1] * x)
    for gamma in gammas[-2:0:-1]:
        q += gamma * x
        q = apply(q)
    return q


def _stage_step(f, scheme: RKScheme, state, h):
    """One explicit RK step of size h of u' = f(u) through the tableau's stages."""
    stages = []
    for s in range(scheme.stages):
        y = state
        for m in range(s):
            if scheme.a[s, m] != 0.0:
                y = y + (h * scheme.a[s, m]) * stages[m]
        stages.append(np.asarray(f(y), dtype=float))
    return state + h * sum(w * ks for w, ks in zip(scheme.b, stages))


def _stepped_march(rhs, state, dt: float, nsteps: int, h_last: float, scheme: RKScheme):
    """`nsteps` single steps, the last of h_last: the stages of a callable `rhs`, or Horner's rule on an operator's CSR L."""
    if isinstance(rhs, SpatialOperator):
        mat, gammas = rhs.matrix, stability_coefficients(scheme)
        step = lambda u, h: u + _horner_increment(lambda w: h * (mat @ w.ravel()).reshape(w.shape), u, gammas)
    else:
        step = functools.partial(_stage_step, rhs, scheme)
    for n in range(1, nsteps + 1):
        state = step(state, dt if n < nsteps else h_last)
    return state


def _step_band(op: SpatialOperator, h: float, gammas) -> np.ndarray:
    """Q1 = P(hL) - I of a 1D operator as row blocks (cells, dof, 2s + 1, dof): [j, :, s + d] couples cell j to j + d.

    hL q is one product of the `_axis_blocks` triple with q and its shifts along cells and offsets, scaled by
    h / h_j on row j.  Q1 stores no identity: P(hL)'s diagonal 1 + O(h) would round alike every step, a bias
    that accumulates (~5e-13 in a P4 run's cell averages instead of ~3e-15).
    """
    dof, cells, s = op.space.dof, op.mesh.num_cells, len(gammas) - 1
    blocks, scale = np.concatenate(_axis_blocks(op.space)[0], axis=1), (h / op.mesh.widths)[:, None, None]
    own, right, left = stack = np.zeros((3, dof, cells, 2 * s + 1, dof))  # the rows' degrees first while building

    def apply(q):  # hL q, written over q
        own[...] = q
        right[:, :-1, 1:], right[:, -1:, 1:] = q[:, 1:, :-1], q[:, :1, :-1]  # q[j + 1, d - 1]
        left[:, 1:, :-1], left[:, :1, :-1] = q[:, :-1, 1:], q[:, -1:, 1:]  # q[j - 1, d + 1]
        np.matmul(blocks, stack.reshape(3 * dof, -1), out=q.reshape(dof, -1))
        q *= scale
        return q

    eye = np.zeros_like(own)
    eye[:, :, s] = np.identity(dof)[:, None]
    return np.ascontiguousarray(_horner_increment(apply, eye, gammas).transpose(1, 0, 2, 3))


def _doubled_half(q: np.ndarray) -> int:
    """Half-width in cells of P^{2m} - I = 2 Q + Q Q, trimmed, from the row blocks of Q = P^m - I, before it is built.

    With m_d Q's largest |entry| at cell offset d, 2 Q + Q Q's entries at offset e are at most b_e = 2 m_e + dof sum_d
    m_d m_(e-d); the outer offsets with b_e < `_TRIM` max b are dropped (none if b is not finite).
    """
    dof, width = q.shape[1:3]
    rows, w = q.reshape(-1, width * dof), width // 2
    m = np.maximum(rows.max(axis=0), -rows.min(axis=0)).reshape(width, dof).max(axis=1)  # |Q| would be a copy
    bound = dof * np.convolve(m, m) + np.pad(2.0 * m, w)
    kept = np.flatnonzero(~(bound < _TRIM * bound.max()))
    return 2 * w - int(min(kept[0], bound.size - 1 - kept[-1], w))


def _pair_band(q: np.ndarray, half: int) -> np.ndarray:
    """P^{2m} - I = 2 Q + Q Q at cell offsets -half..half (half >= w) from the row blocks of Q = P^m - I.

    Row block j of Q meets a strided view of Q's rows at cells j - w .. j + w (periodic), those of cell j + d sheared
    d + w blocks right over zero padding, so block column e + half holds their blocks of offset e - d: one batched
    matmul per `_PAIR_CELLS` cells.  The padded halo, the contiguous buffer `np.take` fills and 2 Q's block are
    allocated once and reused by every block; the halo's padding is never written, so it stays zero.
    """
    cells, dof, width = q.shape[:3]
    w, stride = width // 2, (width + half) * dof  # a row of Q and the `half` zero blocks the shear reads
    cell = dof * (stride + 1)  # each cell's rows start one block further right than the last cell's
    block = min(_PAIR_CELLS, cells)
    flat = np.zeros(half * dof + (block + 2 * w) * cell)
    rows = flat[half * dof :].reshape(-1, cell)[:, : dof * stride].reshape(-1, dof, stride)[:, :, : width * dof]
    taken, twice, out = np.empty(rows.shape), np.empty((block,) + q.shape[1:]), np.empty((cells, dof, 2 * half + 1, dof))
    for j in range(0, cells, _PAIR_CELLS):
        n = min(_PAIR_CELLS, cells - j)
        np.take(q.reshape(cells, dof, -1), np.arange(j - w, j + n + w), axis=0, mode="wrap", out=taken[: n + 2 * w])
        rows[: n + 2 * w] = taken[: n + 2 * w]  # into a strided `out`, np.take would fill a buffer of its own first
        view = as_strided(flat[2 * w * dof :], (n, width * dof, (2 * half + 1) * dof), (cell * 8, stride * 8, 8))
        np.matmul(q[j : j + n].reshape(n, dof, -1), view, out=out[j : j + n].reshape(n, dof, -1))
        out[j : j + n, :, half - w : half + w + 1] += np.multiply(q[j : j + n], 2.0, out=twice[:n])
    return out


def _row_tiles(band: np.ndarray):
    """Row blocks (cells, dof, 2w + 1, dof) as dense tiles of c = `_TILE_CELLS` cells, their input index, u += band u.

    Tile t maps cells t c - w .. t c + c - 1 + w of u extended periodically, u[index] (wrapping as often as
    needed), to its c cells.  One matmul into a reused buffer, added into u.
    """
    cells, dof, width = band.shape[:3]
    c, w, count = _TILE_CELLS, width // 2, -(-cells // _TILE_CELLS)
    tiles = np.zeros((count * c, dof, c + 2 * w, dof))
    for i in range(c):
        tiles[i:cells:c, :, i : i + width] = band[i::c]
    tiles, index = tiles.reshape(count, c * dof, -1), np.arange(-w * dof, (count * c + w) * dof) % (cells * dof)
    ext, out = np.empty(index.size), np.empty((count, c * dof, 1))
    windows, product = sliding_window_view(ext, tiles.shape[2])[:: c * dof, :, None], out.reshape(-1)[: cells * dof]

    def apply(u):
        u.take(index, out=ext)
        np.matmul(tiles, windows, out=out)
        u += product

    return tiles, index, apply


def _tiled_march(op: SpatialOperator, state, dt: float, nsteps: int, h_last: float, scheme: RKScheme):
    """P(h_last L) P(dt L)^(nsteps-1) state of a 1D operator, in place: the full steps by `_row_tiles`.

    Q1 is built once, at dt.  From it `_pair_band` doubles QM = P(dt L)^M - I up to M = 16 while the run has more
    than 2M steps and the next band, trimmed (`_doubled_half`), fits Q4's untrimmed 8s + 1 cells.  The full steps go
    M at a time by QM's tiles, then the (nsteps - 1) mod M left by Q1's, built only if any are left.  The last step
    is the polynomial `_step_band` lays out, applied to the state: Horner's rule with the `_axis_blocks` triple
    scaled by h_last / h_j, so no band or tiles are built for a single product.  Capped
    at 8, 16 or 32 steps without the width rule, a run took (ms; alpha 0.1, rk4, c = 0.01; best of 9, one thread):

        M up to   P2 N=10    20     40     80    160    320    P4 N=80   160
          8         0.55   0.78   1.21   2.37   6.68  17.69      6.53  16.51
         16         0.58   0.82   1.17   2.23   4.97  11.85      6.58  15.85
         32         0.73   0.93   1.27   2.48   4.90  12.03      7.72  17.15
    """
    gammas, u = stability_coefficients(scheme), state.reshape(-1)
    steps, q = 1, _step_band(op, dt, gammas) if nsteps > 1 else None
    q1 = q
    while steps < 16 and 2 * steps < nsteps and (half := _doubled_half(q)) <= 4 * scheme.stages:
        q, steps = _pair_band(q, half), 2 * steps
    for count in divmod(nsteps - 1, steps):  # the products by QM's tiles, then the full steps left by Q1's
        if count:
            apply, q = _row_tiles(q)[2], None  # a band goes once its tiles are built
            for _ in range(count):
                apply(u)
        q, q1 = q1, None
    own, right, left = _axis_blocks(op.space)[0]
    scale = (h_last / op.mesh.widths)[:, None]
    hl = lambda v: scale * (v @ own.T + np.roll(v, -1, axis=0) @ right.T + np.roll(v, 1, axis=0) @ left.T)
    state += _horner_increment(hl, state, gammas)
    return state


def _power(base: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """base ** n (an integer n >= 0) into `out` by binary powering, overwriting base.

    Each of the ~log2(n) + popcount(n) complex products adds a few ulps: relative error below 4 (n+1) eps.
    """
    out.fill(1.0)
    while n:
        if n & 1:
            out *= base
        base *= base
        n >>= 1
    return out


def _spectral_march(op: SpatialOperator, coeffs, dt: float, nsteps: int, h_last: float, scheme: RKScheme):
    """P(h_last L) P(dt L)^(nsteps-1) coeffs, one factor per mode of `SpatialOperator.propagate`.

    A factor is applied as it is, a growing one too.  The power is `_power`'s,
    in reused buffers.  Only the final state is computed.
    """
    gammas = stability_coefficients(scheme)

    def gain(lam, z):
        # P(dt lam) and P(h_last lam) by Horner's rule in one stacked buffer; z is overwritten, and x holds the power
        x = np.multiply.outer([dt, h_last], lam)
        p = np.empty_like(x)  # P - 1, then P
        _horner_increment(lambda q: np.multiply(q, x, out=p), 1.0, gammas)
        p += 1.0
        full, last = p
        z *= np.multiply(_power(full, nsteps - 1, out=x[0]), last, out=x[0])
        return z

    return op.propagate(coeffs, gain)


def integrate(rhs, u0, cfg: IntegrationConfig):
    """March u' = rhs(u) from 0 to cfg.t_final; returns the final state.

    `rhs` is a `SpatialOperator` (u' = L u, marched spectrally where L has a
    diagonalising basis, else by P(hL)) or a callable (the stages); the
    module docstring gives the routes.  `u0` may be a ModalField (a callable
    rhs maps fields to fields) or any ndarray-like state; an operator needs a
    field on its own space and mesh, or an array of its coefficients' shape
    (cells..., dof), and the dt rule reads the operator's mesh.  A run whose
    final state is non-finite raises IntegrationDivergedError at its last step,
    as does, for a field state, a run whose final energy exceeds the initial
    energy by more than ENERGY_GROWTH_TOL (relative).
    """
    is_field = isinstance(u0, ModalField)
    state = np.array(u0.coeffs if is_field else u0, dtype=float, order="C")  # a copy the marches may step in place
    mesh = rhs.mesh if isinstance(rhs, SpatialOperator) else getattr(u0, "mesh", None)  # a field's mesh is checked to be L's
    dt = cfg.resolve_dt(None if mesh is None else mesh.min_width)
    nsteps = max(1, math.ceil(cfg.t_final / dt - 1e-12))
    t_last = (nsteps - 1) * dt  # where the last step starts
    h_last = cfg.t_final - t_last
    energy0 = u0.norm_l2_squared() if is_field else None
    if isinstance(rhs, SpatialOperator):
        if is_field and u0.space != rhs.space:
            raise ValueError("field space does not match operator space")
        if is_field and not all(np.array_equal(a.nodes, b.nodes) for a, b in zip(u0.mesh.axes, rhs.mesh.axes)):
            raise ValueError("field mesh does not match operator mesh")
        shape = tuple(axis.num_cells for axis in rhs.mesh.axes) + (rhs.space.dof,)
        if state.shape != shape:
            raise ValueError(f"state of shape {state.shape} does not match the operator's coefficients {shape}")
        one_d = rhs.space.dimension == 1
        march = _spectral_march if rhs.spectral_route is not None else _tiled_march if one_d else _stepped_march
    else:
        march, f = _stepped_march, rhs
        rhs = (lambda arr: f(u0.like(arr)).coeffs) if is_field else f  # a callable maps fields to fields
    # overflow in a blowing-up state is reported via IntegrationDivergedError, not as a numpy warning mid-run;
    # a finite but huge state has an infinite energy, reported as growth
    with np.errstate(over="ignore", invalid="ignore"):
        state = march(rhs, state, dt, nsteps, h_last, SCHEMES[cfg.scheme])
        if not np.isfinite(state).all():
            raise IntegrationDivergedError(nsteps, t_last + h_last)
        if not is_field:
            return state
        u = u0.like(state)
        growth = u.norm_l2_squared() - energy0
    if growth > ENERGY_GROWTH_TOL * energy0:
        grew = f"by {growth / energy0:.3e} relative" if energy0 else f"from 0 to {growth:.3e}"
        reason = f"discrete energy grew {grew} (unstable step; reduce time.c)"
        raise IntegrationDivergedError(nsteps, t_last + h_last, reason)
    return u


def energy_drift(energy_series) -> float:
    """Largest relative deviation of the squared-norm series from its start; 0 for a series of zeros (a zero field)."""
    series = np.asarray(list(energy_series), dtype=float)
    if series.size == 0:
        raise ValueError("energy series is empty")
    deviation = float(np.max(np.abs(series - series[0])))
    if series[0] == 0.0 and deviation != 0.0:
        raise ValueError("energy series starts at zero but does not stay zero: no relative drift")
    return deviation / series[0] if deviation else 0.0
