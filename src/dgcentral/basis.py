"""Legendre polynomials, Gauss-Legendre quadrature, and reference-cell operators.

Everything in this module lives on the reference cell [-1, 1].  The modal
basis is the Legendre family L_0, ..., L_k, generated by the three-term
recurrence

    (m + 1) L_{m+1}(x) = (2m + 1) x L_m(x) - m L_{m-1}(x),

which is orthogonal with cell mass  integral(L_m^2) = 2 / (2m + 1).
Physical cells are affine images of the reference cell, so mass scales with
h/2 and stiffness-type integrals are h-free; callers apply the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "ReferenceOperators",
    "legendre_table",
    "legendre_deriv_table",
    "gauss_rule",
    "reference_operators",
    "default_rule",
    "error_rule",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


def legendre_table(k: int, x) -> np.ndarray:
    """Values of L_0..L_k at x, stacked along a new leading axis.

    x may be a scalar or an ndarray; the result has shape (k+1,) + shape(x).
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.empty((k + 1,) + x.shape)
    out[0] = 1.0
    if k >= 1:
        out[1] = x
    for m in range(1, k):
        out[m + 1] = ((2 * m + 1) * x * out[m] - m * out[m - 1]) / (m + 1)
    return out


def legendre_deriv_table(k: int, x) -> np.ndarray:
    """Values of L_0'..L_k' at x (derivative recurrence L'_{m+1} = (2m+1) L_m + L'_{m-1})."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    vals = legendre_table(k, x)
    out = np.zeros((k + 1,) + x.shape)
    if k >= 1:
        out[1] = 1.0
    for m in range(1, k):
        out[m + 1] = (2 * m + 1) * vals[m] + out[m - 1]
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1, 1]; exact for degree <= 2n - 1 (compared by identity)."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1].

    Nodes are the roots of L_n, found by Newton iteration from Chebyshev
    initial guesses cos(pi (i + 3/4) / (n + 1/2)); weights are
    2 / ((1 - x^2) L_n'(x)^2).  Nodes come back ascending, and the rule is
    symmetrized so node/weight pairs mirror exactly about 0.
    """
    if n < 1:
        raise ValueError("a Gauss rule needs at least one point")
    i = np.arange(n)
    x = np.cos(np.pi * (i + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_MAXIT):
        vals = legendre_table(n, x)
        ln, lprev = vals[n], vals[n - 1]
        deriv = n * (x * ln - lprev) / (x * x - 1.0)
        dx = ln / deriv
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:  # pragma: no cover - Newton converges in a handful of iterations
        raise RuntimeError(f"Gauss-Legendre Newton iteration failed for n={n}")
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])  # enforce exact symmetry about the origin
    vals = legendre_table(n, x)
    deriv = n * (x * vals[n] - vals[n - 1]) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * deriv * deriv)
    w = 0.5 * (w + w[::-1])
    return QuadratureRule(_readonly(x), _readonly(w))


def default_rule(k: int) -> QuadratureRule:
    """Default (k+4)-point rule for inner products against a degree-k basis."""
    return gauss_rule(k + 4)


def error_rule(k: int, extra_order: int = 0) -> QuadratureRule:
    """(k+6+extra_order)-point rule used by error norms (per direction in 2D)."""
    return gauss_rule(k + 6 + extra_order)


@dataclass(frozen=True)
class ReferenceOperators:
    """Reference-cell mass, stiffness, and edge traces for the degree-k basis.

    mass_diag[m]  = integral(L_m^2) = 2 / (2m + 1), exactly.
    stiffness[m][n] = integral(L_n L_m'); nonzero only for n < m with m - n odd.
    edge_left[m]  = L_m(-1) = (-1)^m,  edge_right[m] = L_m(+1) = 1.
    """

    degree: int
    mass_diag: np.ndarray
    stiffness: np.ndarray
    edge_left: np.ndarray
    edge_right: np.ndarray


@lru_cache(maxsize=None)
def reference_operators(k: int) -> ReferenceOperators:
    """Assemble (and cache) the reference-cell operators for degree k."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    m = np.arange(k + 1)
    mass = 2.0 / (2 * m + 1)
    rule = gauss_rule(k + 1)  # exact for degree <= 2k + 1 >= 2k
    vals = legendre_table(k, rule.nodes)
    derivs = legendre_deriv_table(k, rule.nodes)
    stiff = (derivs * rule.weights) @ vals.T
    # Parity sparsity: integral(L_n L_m') = 0 unless n < m and m - n is odd.
    rows, cols = np.indices(stiff.shape)
    stiff[(cols >= rows) | ((rows - cols) % 2 == 0)] = 0.0
    edge_left = np.where(m % 2 == 0, 1.0, -1.0)
    edge_right = np.ones(k + 1)
    return ReferenceOperators(
        degree=k,
        mass_diag=_readonly(mass),
        stiffness=_readonly(stiff),
        edge_left=_readonly(edge_left),
        edge_right=_readonly(edge_right),
    )
