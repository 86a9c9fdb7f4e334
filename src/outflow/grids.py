"""Radial and angular grids for the exterior domain r >= 1."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RadialGrid", "AngularGrid"]


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes r_0 = 1 < ... < r_M = r_max."""

    nodes: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", r)
        if r.ndim != 1 or r.size < 17:
            raise ValueError("radial grid needs at least 17 nodes (M >= 16)")
        if not np.all(np.isfinite(r)):
            raise ValueError("radial nodes must be finite")
        if r[0] != 1.0:
            raise ValueError("radial grid must start exactly at r = 1")
        if not np.all(np.diff(r) > 0.0):  # written so that NaN fails too
            raise ValueError("radial nodes must be strictly increasing")

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def uniform(cls, r_max: float, m: int) -> "RadialGrid":
        return cls(np.linspace(1.0, float(r_max), m + 1))

    @classmethod
    def geometric(cls, r_max: float, m: int) -> "RadialGrid":
        """Geometrically stretched nodes; spacing grows toward r_max."""
        r = np.exp(np.linspace(0.0, np.log(float(r_max)), m + 1))
        r[0] = 1.0
        r[-1] = float(r_max)
        return cls(r)


@dataclass(frozen=True)
class AngularGrid:
    """n_cells + 1 uniform polar-angle nodes on [0, pi], both endpoints included.

    The axisymmetric solver works on the cell centers between consecutive
    nodes, so no state is ever stored at the poles themselves.
    """

    nodes: np.ndarray = field(init=False)
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 7:
            raise ValueError("angular grid needs at least 8 nodes")
        object.__setattr__(self, "nodes", np.linspace(0.0, np.pi, self.n_cells + 1))

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @property
    def dtheta(self) -> float:
        return float(self.nodes[1] - self.nodes[0])
