"""Periodic interval meshes and tensor-product 2D meshes.

Three 1D families are provided:

* ``uniform_mesh`` - N equal cells;
* ``alpha_mesh`` - start from the uniform nodes and shift every second
  interior node (the 1st, 3rd, 5th, ... counted from the left) by ``alpha*h``,
  producing cells of alternating widths (1+alpha)h / (1-alpha)h while the
  domain endpoints stay put;
* ``random_mesh`` - displace each interior node independently by a uniform
  draw from [-fraction*h/2, +fraction*h/2] using a seeded PCG64 generator,
  so a given (N, fraction, seed) triple reproduces the same mesh everywhere.

2D meshes are tensor products of two 1D meshes, one per axis.  Every mesh
lists its 1D factors as ``axes``; a 1D mesh is its own single axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh1D",
    "TensorMesh2D",
    "uniform_mesh",
    "alpha_mesh",
    "random_mesh",
    "tensor_mesh",
]


@dataclass(frozen=True)
class Mesh1D:
    """A partition lo = x_0 < x_1 < ... < x_N = hi of a periodic interval.

    Cell j spans [nodes[j], nodes[j+1]]; the neighbor of the last cell wraps
    around to the first.  Immutable after construction.
    """

    nodes: np.ndarray
    widths: np.ndarray = field(init=False)
    centers: np.ndarray = field(init=False)

    def __post_init__(self):
        # a copy: freezing the caller's own array would make it read-only too
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a 1D mesh needs at least two nodes")
        widths = np.diff(nodes)
        if not np.all(widths > 0):
            raise ValueError("mesh nodes must be strictly increasing")
        for name, arr in (("nodes", nodes), ("widths", widths), ("centers", 0.5 * (nodes[:-1] + nodes[1:]))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def axes(self) -> tuple["Mesh1D"]:
        return (self,)

    @property
    def num_cells(self) -> int:
        return self.widths.size

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    @property
    def min_width(self) -> float:
        return float(self.widths.min())

    @property
    def regularity_ratio(self) -> float:
        """Ratio of the widest to the narrowest cell (1.0 for uniform meshes)."""
        return float(self.widths.max() / self.widths.min())

    def locate(self, x: float) -> int:
        """Index of the cell owning x (left-closed cells; x == hi owns the last cell)."""
        if not self.lo <= x <= self.hi:  # NaN compares False both ways
            raise ValueError(f"point {x} outside mesh domain [{self.lo}, {self.hi}]")
        j = int(np.searchsorted(self.nodes, x, side="right")) - 1
        return min(max(j, 0), self.num_cells - 1)


@dataclass(frozen=True)
class TensorMesh2D:
    """Tensor product of an x-axis mesh and a y-axis mesh (both periodic)."""

    mesh_x: Mesh1D
    mesh_y: Mesh1D

    @property
    def axes(self) -> tuple[Mesh1D, Mesh1D]:
        return (self.mesh_x, self.mesh_y)

    @property
    def num_cells(self) -> tuple[int, int]:
        return (self.mesh_x.num_cells, self.mesh_y.num_cells)

    @property
    def min_width(self) -> float:
        return min(self.mesh_x.min_width, self.mesh_y.min_width)


def uniform_mesh(n: int, domain: tuple[float, float]) -> Mesh1D:
    """N equal cells on [lo, hi]."""
    lo, hi = _check_domain(n, domain)
    return Mesh1D(np.linspace(lo, hi, n + 1))


def alpha_mesh(n: int, alpha: float, domain: tuple[float, float]) -> Mesh1D:
    """Shift every second interior node of the uniform mesh by alpha*h.

    Interior nodes 1, 3, 5, ... (floor(n/2) of them) move right by alpha*h;
    endpoints are unchanged.  Cells alternate widths (1+alpha)h, (1-alpha)h,
    so the regularity ratio is (1+alpha)/(1-alpha) for even n.  Requires
    |alpha| < 1 to keep nodes strictly increasing; alpha = 0 reproduces the
    uniform mesh.
    """
    lo, hi = _check_domain(n, domain)
    if not abs(alpha) < 1.0:
        raise ValueError("alpha must satisfy |alpha| < 1")
    h = (hi - lo) / n
    nodes = np.linspace(lo, hi, n + 1)
    shifted = np.arange(1, n, 2)  # 1st, 3rd, ... interior nodes
    nodes[shifted] += alpha * h
    return Mesh1D(nodes)


def random_mesh(n: int, fraction: float, seed: int, domain: tuple[float, float]) -> Mesh1D:
    """Perturb each interior node of the uniform mesh by an i.i.d. uniform draw.

    Displacements are drawn from [-fraction*h/2, +fraction*h/2] with a
    PCG64 generator seeded by `seed` (deterministic and portable across
    platforms).  fraction must lie in [0, 1) so cells keep positive width:
    the minimal possible gap is (1 - fraction) * h.
    """
    lo, hi = _check_domain(n, domain)
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    h = (hi - lo) / n
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = np.linspace(lo, hi, n + 1)
    half = 0.5 * abs(fraction) * h  # abs: -0.0 passes the check above and must give the fraction-0 mesh
    nodes[1:-1] += rng.uniform(-half, half, size=n - 1)
    return Mesh1D(nodes)


def tensor_mesh(mesh_x: Mesh1D, mesh_y: Mesh1D) -> TensorMesh2D:
    """Pair two 1D meshes into a tensor-product 2D mesh."""
    return TensorMesh2D(mesh_x, mesh_y)


def _check_domain(n: int, domain: tuple[float, float]) -> tuple[float, float]:
    if n < 1:
        raise ValueError("need at least one cell")
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError("domain upper bound must exceed lower bound")
    return lo, hi
