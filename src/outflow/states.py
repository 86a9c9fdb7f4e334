"""Time-dependent state containers and initial-data construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_legendre

from .discrete import AxiOps, SymOps
from .grids import AngularGrid, RadialGrid
from .params import FluidParams, pressure
from .steady import SteadyProfile

__all__ = [
    "SymState",
    "AxiState",
    "smooth_bump",
    "perturb_sym",
    "perturb_axi",
    "ops_for",
    "compatibility_residual",
    "boundary_momentum_residual",
]


@dataclass
class SymState:
    """Spherically symmetric fields on the radial grid nodes."""

    t: float
    grid: RadialGrid
    rho: np.ndarray
    u_rad: np.ndarray

    @property
    def velocity(self) -> tuple:
        """The velocity components, radial first."""
        return (self.u_rad,)

    def advanced(self, t: float, rho: np.ndarray, velocity) -> "SymState":
        """The state at time t on the same grid."""
        return SymState(t, self.grid, rho, *velocity)


@dataclass
class AxiState:
    """Axisymmetric fields on radial nodes x angular cell centers.

    Angular cells are staggered away from the poles; the axis conditions
    u_theta(theta=0, pi) = 0 enter through odd-parity ghost closure, so no
    field is ever evaluated at sin(theta) = 0.
    """

    t: float
    grid: RadialGrid
    agrid: AngularGrid
    rho: np.ndarray
    u_r: np.ndarray
    u_theta: np.ndarray

    @property
    def velocity(self) -> tuple:
        """The velocity components, radial first."""
        return (self.u_r, self.u_theta)

    def advanced(self, t: float, rho: np.ndarray, velocity) -> "AxiState":
        """The state at time t on the same grids."""
        return AxiState(t, self.grid, self.agrid, rho, *velocity)


def smooth_bump(r, lo: float, hi: float):
    """C-infinity bump supported exactly on [lo, hi], peak value 1 at the midpoint."""
    r = np.asarray(r, dtype=float)
    s = 2.0 * (r - lo) / (hi - lo) - 1.0
    out = np.zeros_like(r)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si**2))
    return out


def _radial_bump(profile: SteadyProfile, amplitude: float,
                 support: tuple[float, float]) -> np.ndarray:
    """amplitude x `smooth_bump` on [lo, hi] at the profile's nodes.

    Compact support strictly inside (1, r_max) keeps the initial data
    boundary-compatible automatically.
    """
    lo, hi = support
    if not (1.0 < lo < hi < profile.grid.r_max):
        raise ValueError("perturbation support must lie strictly inside (1, r_max)")
    return amplitude * smooth_bump(profile.r, lo, hi)


def perturb_sym(profile: SteadyProfile, amplitude: float,
                support: tuple[float, float]) -> SymState:
    """Steady profile plus a compact density bump; velocity untouched."""
    rho = profile.rho_t + _radial_bump(profile, amplitude, support)
    return SymState(0.0, profile.grid, rho, profile.u_t.copy())


def perturb_axi(profile: SteadyProfile, agrid: AngularGrid, amplitude: float,
                support: tuple[float, float], ell: int = 1) -> AxiState:
    """Steady profile plus a density bump modulated by a Legendre mode in angle."""
    radial = _radial_bump(profile, amplitude, support)
    if ell < 0:  # eval_legendre reads P_-1 as P_0 and P_-2 as P_1
        raise ValueError(f"Legendre degree ell must be >= 0, got {ell}")
    theta = agrid.centers
    mode = eval_legendre(ell, np.cos(theta))
    rho = profile.rho_t[:, None] + radial[:, None] * mode[None, :]
    u_r = np.repeat(profile.u_t[:, None], theta.size, axis=1)
    u_theta = np.zeros_like(rho)
    return AxiState(0.0, profile.grid, agrid, rho, u_r, u_theta)


def ops_for(state, params: FluidParams):
    """The discrete operators of the state's geometry, on its grids."""
    if isinstance(state, SymState):
        return SymOps(state.grid, params.dim_n)
    if isinstance(state, AxiState):
        return AxiOps(state.grid, state.agrid)
    raise TypeError(f"unsupported state type {type(state)!r}")


def boundary_momentum_residual(state, params: FluidParams) -> float:
    """Worst momentum-balance residual on r = 1 (one-sided radial stencils)."""
    ops = ops_for(state, params)
    rho, u = state.rho, state.velocity
    du = ops.first_derivs(u)
    conv = ops.conv(u, u, du)
    visc = ops.visc(u, params.mu, params.lam, du, ops.div(u, du))
    dp = ops.grad(pressure(rho, params))
    return float(max(np.max(np.abs((-rho * c - g + v)[0]))
                     for c, g, v in zip(conv, dp, visc)))


def compatibility_residual(state, profile: SteadyProfile,
                           params: FluidParams) -> tuple[float, float]:
    """Boundary compatibility of initial data: velocity match and momentum balance.

    res1 is the worst mismatch of the boundary velocity against u_b; res2 the
    worst one-sided momentum-balance residual on r = 1.  Solvers accept
    incompatible data but flag it; nothing is projected away silently.
    """
    wall = [w[0] for w in state.velocity]
    wall[0] = wall[0] - params.u_b
    res1 = float(np.max(np.sqrt(sum(w**2 for w in wall))))
    return res1, boundary_momentum_residual(state, params)
