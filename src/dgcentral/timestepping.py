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
P(h_last L) P(dt L)^(n-1) u0.  A `SpatialOperator` takes the first of two
routes that accepts it, a callable the stages; all keep one time grid:

* spectral: an operator with a diagonalising basis (Q2D; P1D and P2D on
  uniform axes; see `SpatialOperator.propagate`).  The whole run is one
  factor P(h_last lam) P(dt lam)^(n-1) per mode, with no steps; the power
  takes ~log2(n) complex products by squaring, relative error < 4 (n+1) eps.
  A level where an applied factor grows, |P(h lam)| > 1, is stepped below
  instead, reporting the growth as any stepped run does; L is built only then.
* P(hL): every operator that the spectral march declines.  In 1D, Q1 = P(hL) - I
  and Q2 = P(dt L)^2 - I = 2 Q1 + Q1 Q1 are built from L's `_axis_blocks` and
  the cell widths as per-cell row blocks and applied as dense row tiles; full
  steps but the odd one go in pairs by Q2 unless the run logs its energy.  In
  2D a step is Horner's rule on the vector with the CSR L (a 2D Q2 would fill
  in), the one march route that imports ``scipy.sparse``.
* stages: a callable ``rhs`` (any field, scalar or custom state), one RHS
  call per stage of the tableau.

All routes keep the same non-finite check and energy log; the spectral
route checks the final state and writes the log in closed form, and paired
1D P(hL) steps check after each pair (u . 0, NaN exactly when u holds an inf
or a NaN).  For field states, a final discrete energy above the initial one by
more than `ENERGY_GROWTH_TOL` (relative) raises `IntegrationDivergedError`:
the central-flux operator is skew in the mass inner product, so a stable
step never raises the energy.

Stability limit of rk4 on uniform meshes (largest stable c in dt = c*h):

    k      0      1      2      3      4
    c    2.83   0.707  0.350  0.213  0.144
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import ModalField, mass_weights
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

# |P(dt lam)| of a mode above 1 by more than this hands the run from the
# spectral march to the steps, which then report the growth as they always did.
_GAIN_ROUNDOFF = 1e-13

# Entries (steps x modes) in a block of the closed-form energy log.
_LOG_ENTRIES = 1 << 16

_TILE_CELLS = 4  # cells per row tile of the 1D P(hL) march: fastest measured at P2 and P4 (3 to 10 within ~10%)


class IntegrationDivergedError(RuntimeError):
    """Raised when a run blows up or its energy grows; carries the step index."""

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


def _stage_step(f, scheme: RKScheme):
    """One explicit RK step of size h of u' = f(u) through the tableau's stages (`n` is 1: only P(hL) pairs steps)."""

    def step(state, h, n):
        stages = []
        for s in range(scheme.stages):
            y = state
            for m in range(s):
                if scheme.a[s, m] != 0.0:
                    y = y + (h * scheme.a[s, m]) * stages[m]
            stages.append(np.asarray(f(y), dtype=float))
        return state + h * sum(w * ks for w, ks in zip(scheme.b, stages))

    return step


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


def _pair_band(q: np.ndarray) -> np.ndarray:
    """Q2 = P(hL)^2 - I = 2 Q1 + Q1 Q1 from Q1's row blocks (`_step_band`), 4s + 1 cells wide."""
    cells, dof, width = q.shape[:3]
    halo = np.take(q.reshape(cells, dof, -1), np.arange(-(width // 2), cells + width // 2) % cells, axis=0)
    out = np.zeros((cells, dof, 2 * width - 1, dof))
    out[:, :, width // 2 : width // 2 + width] = 2.0 * q
    for d in range(width):  # the blocks of offset d - s meet the row of the cell they couple to, halo[j + d]
        out[:, :, d : d + width] += (q[:, :, d] @ halo[d : d + cells]).reshape(q.shape)
    return out


def _row_tiles(band: np.ndarray):
    """Row blocks (cells, dof, 2w + 1, dof) as dense tiles of c = `_TILE_CELLS` cells, their input index, u += band u.

    Tile t maps cells t c - w .. t c + c - 1 + w of u extended periodically, u[index] (wrapping as often as
    needed), to its c cells.  One matmul into a reused buffer, added into u; u . 0 is NaN iff u is not finite.
    """
    cells, dof, width = band.shape[:3]
    c, w, count = _TILE_CELLS, width // 2, -(-cells // _TILE_CELLS)
    tiles = np.zeros((count * c, dof, c + 2 * w, dof))
    for i in range(c):
        tiles[i:cells:c, :, i : i + width] = band[i::c]
    tiles, index = tiles.reshape(count, c * dof, -1), np.arange(-w * dof, (count * c + w) * dof) % (cells * dof)
    ext, out, zeros = np.empty(index.size), np.empty((count, c * dof, 1)), np.zeros(cells * dof)
    windows, product = sliding_window_view(ext, tiles.shape[2])[:: c * dof, :, None], out.reshape(-1)[: cells * dof]

    def apply(u):
        u.take(index, out=ext)
        np.matmul(tiles, windows, out=out)
        u += product
        return math.isnan(u.dot(zeros))

    return tiles, index, apply


def _tiled_step(op: SpatialOperator, scheme: RKScheme):
    """`n` steps of size h of u' = L u in 1D, u in place: Q1 if n = 1, else n/2 pairs by Q2 (`_row_tiles`).

    Q1 is built once per distinct h, Q2 and the tiles of each once.  The first pair that leaves u non-finite
    raises `IntegrationDivergedError`, the steps and time counted from the call's start.
    """
    gammas, size = stability_coefficients(scheme), op.mesh.num_cells * op.space.dof
    band = functools.cache(lambda h: _step_band(op, h, gammas))
    kernel = functools.cache(lambda h, paired: _row_tiles(_pair_band(band(h)) if paired else band(h))[2])

    def step(state, h, n):
        if state.dtype != np.float64 or not state.flags.c_contiguous or state.size != size:
            raise ValueError(f"P(hL) steps a C-contiguous float64 state of {size} entries")  # it is stepped in place
        apply, u = kernel(h, n > 1), state.reshape(-1)
        for pair in range(1, max(1, n // 2) + 1):  # Q1 once, or Q2 n/2 times
            if apply(u) and n > 1:  # a single step is checked by its caller, which knows its step
                raise IntegrationDivergedError(2 * pair, 2 * pair * h)
        return state

    return step


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


def _spectral_march(op: SpatialOperator, coeffs, dt: float, nsteps: int, h_last: float, scheme: RKScheme, log):
    """P(h_last L) P(dt L)^(nsteps-1) coeffs, one factor per mode of `SpatialOperator.propagate`.

    Returns None, and the run is stepped instead, where L has no
    diagonalising basis or a factor the run applies (P(dt lam) only if
    nsteps > 1) grows a mode beyond roundoff.  The power is `_power`'s, in
    reused buffers.  If `log` is a list, the energy after each step is
    appended to it in closed form, E_n = sum |P(dt lam)|^(2n) |z|^2 over the
    modes' mass-unitary coordinates z (|P(h_last lam)|^2 for the last factor).
    """
    if op.spectral_route is None:
        return None
    gammas = stability_coefficients(scheme)
    energies = np.zeros(nsteps) if log is not None else None

    def gain(lam, z):
        # P(dt lam) and P(h_last lam) by Horner's rule in one stacked buffer; z is overwritten, and x holds the power
        x = np.multiply.outer([dt, h_last], lam)
        p = np.empty_like(x)  # P - 1, then P
        _horner_increment(lambda q: np.multiply(q, x, out=p), 1.0, gammas)
        p += 1.0
        full, last = p
        applied = p if nsteps > 1 else last  # P(dt lam) is raised to nsteps - 1
        if np.max(np.abs(applied)) > 1.0 + _GAIN_ROUNDOFF:
            return None
        if log is not None:  # a cumulative product over blocks of steps, each within _LOG_ENTRIES entries
            weight, ratio = (np.abs(a).ravel() ** 2 for a in (z, full))
            block = np.empty((max(1, min(nsteps - 1, _LOG_ENTRIES // weight.size)), weight.size))
            for start in range(0, nsteps - 1, len(block)):
                powers = block[: nsteps - 1 - start]
                powers[0] = weight * ratio  # before the next line overwrites the last block's final row
                powers[1:] = ratio
                energies[start : start + len(powers)] += np.cumprod(powers, axis=0, out=powers).sum(axis=1)
                weight = powers[-1]
            energies[-1] += (weight * np.abs(last).ravel() ** 2).sum()
        z *= np.multiply(_power(full, nsteps - 1, out=x[0]), last, out=x[0])
        return z

    out = op.propagate(coeffs, gain)
    if out is not None and log is not None:
        log.extend(energies.tolist())
    return out


def integrate(rhs, u0, cfg: IntegrationConfig, energy_log: list | None = None):
    """March u' = rhs(u) from 0 to cfg.t_final; returns the final state.

    `rhs` is a `SpatialOperator` (u' = L u, marched spectrally, else by
    P(hL)) or a callable (the stages); the module docstring gives the
    routes.  `u0` may be a ModalField (a callable rhs maps fields to fields)
    or any ndarray-like state; an operator needs a field on its own space and
    mesh, or an array of its coefficients' shape (cells..., dof), and the
    dt rule reads the operator's mesh.  If
    `energy_log` is given and the state is a field, the squared L2 norm is
    appended at every step boundary, including t = 0.  For a field state a
    run whose final energy exceeds the initial energy by more than
    ENERGY_GROWTH_TOL (relative) raises IntegrationDivergedError.
    """
    is_field = isinstance(u0, ModalField)
    state = np.array(u0.coeffs if is_field else u0, dtype=float, copy=True)
    mesh = rhs.mesh if isinstance(rhs, SpatialOperator) else getattr(u0, "mesh", None)  # a field's mesh is checked to be L's
    dt = cfg.resolve_dt(None if mesh is None else mesh.min_width)
    nsteps = max(1, math.ceil(cfg.t_final / dt - 1e-12))
    t_last = (nsteps - 1) * dt  # where the last step starts
    h_last = cfg.t_final - t_last
    scheme = SCHEMES[cfg.scheme]
    log = energy_log if is_field else None
    if is_field:
        weights = mass_weights(u0.space, u0.mesh).ravel()
        energy = lambda arr: float((arr * arr).ravel() @ weights)  # `ModalField.norm_l2_squared` of arr
        energy0 = energy(state)
        if log is not None:
            log.append(energy0)
    marched = None
    if isinstance(rhs, SpatialOperator):
        if is_field and u0.space != rhs.space:
            raise ValueError("field space does not match operator space")
        if is_field and not all(np.array_equal(a.nodes, b.nodes) for a, b in zip(u0.mesh.axes, rhs.mesh.axes)):
            raise ValueError("field mesh does not match operator mesh")
        shape = tuple(axis.num_cells for axis in rhs.mesh.axes) + (rhs.space.dof,)
        if state.shape != shape:
            raise ValueError(f"state of shape {state.shape} does not match the operator's coefficients {shape}")
        marched = _spectral_march(rhs, state, dt, nsteps, h_last, scheme, log)
    if marched is not None:
        state, t = marched, t_last + h_last
        if not np.isfinite(state).all():
            raise IntegrationDivergedError(nsteps, t)
    else:
        if not isinstance(rhs, SpatialOperator):
            advance, pairs = _stage_step((lambda arr: rhs(u0.like(arr)).coeffs) if is_field else rhs, scheme), 0
        elif rhs.space.dimension == 1:
            advance, pairs = _tiled_step(rhs, scheme), (nsteps - 1) // 2 if log is None else 0
        else:  # Horner's rule on the vector with the CSR L, assembled only once the spectral march declined
            mat, gammas, pairs = rhs.matrix, stability_coefficients(scheme), 0
            advance = lambda u, h, n: u + _horner_increment(lambda w: h * (mat @ w.ravel()).reshape(w.shape), u, gammas)
        t, step = 0.0, 0
        # overflow in a blowing-up state is reported via IntegrationDivergedError, not as a numpy warning mid-stage
        with np.errstate(over="ignore", invalid="ignore"):
            if pairs:  # every full step but the odd one, from t = 0, in one call that checks each pair
                step = 2 * pairs
                state, t = advance(state, dt, step), step * dt
            while step < nsteps:  # the odd full step and the last one, of h_last, or every step of the run
                h = dt if step < nsteps - 1 else h_last
                state = advance(state, h, 1)
                step, t = step + 1, t + h
                if not np.isfinite(state).all():
                    raise IntegrationDivergedError(step, t)
                if log is not None:
                    log.append(energy(state))
    if not is_field:
        return state
    with np.errstate(over="ignore"):  # a finite but huge state has an infinite energy, reported as growth
        growth = energy(state) - energy0
    if growth > ENERGY_GROWTH_TOL * energy0:
        reason = f"discrete energy grew by {growth / energy0:.3e} relative (unstable step; reduce time.c)"
        raise IntegrationDivergedError(nsteps, t, reason)
    return u0.like(state)


def energy_drift(energy_series) -> float:
    """Largest relative deviation of the squared-norm series from its start."""
    series = np.asarray(list(energy_series), dtype=float)
    if series.size == 0:
        raise ValueError("energy series is empty")
    return float(np.max(np.abs(series - series[0])) / series[0])
