"""Stationary spherically symmetric outflow profile on [1, r_max].

The continuity equation integrates exactly to a constant mass flux
m = r^(n-1) rho U = u_b rho(1), which eliminates the velocity.  What is
left is a second-order ODE for the density alone, closed at r_max by the
two-term far-field asymptotic rho ~ rho_+ + c r^(2-2n) whose coefficient
c = -m^2 / (2 gamma K rho_+^gamma) follows from the leading far-field
balance of pressure against momentum flux.  The boundary-value problem is
solved by damped-Newton collocation (scipy's solve_bvp), with continuation
in u_b when a cold start stalls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_bvp

from .grids import RadialGrid
from .params import FluidParams, dpressure, require_valid

__all__ = [
    "SteadyProfile",
    "NonConvergence",
    "FitWindowTooSmall",
    "solve_steady",
    "verify_decay",
    "RateReport",
    "div_u_profile",
]


class NonConvergence(RuntimeError):
    """The nonlinear stationary solve stalled (|u_b| too large or r_max too small)."""

    def __init__(self, iterations: int, last_residual: float, message: str = ""):
        self.iterations = iterations
        self.last_residual = last_residual
        super().__init__(
            message
            or f"stationary solve did not converge "
            f"(iterations={iterations}, residual={last_residual:.3e})"
        )


class FitWindowTooSmall(ValueError):
    """Decay-rate fit window spans too little of the radial range."""


def _tail_coeff(m: float, params: FluidParams) -> float:
    """Far-field coefficient c in rho ~ rho_+ + c r^(2-2n)."""
    return -(m**2) / (2.0 * params.gamma * params.k_pressure * params.rho_plus**params.gamma)


def _rho_pp(r, rho, v, m: float, params: FluidParams):
    """Second density derivative expressed from the momentum equation.

    Newton iterates may momentarily go nonpositive; clipping the density in
    the power law keeps the residual finite so the damped iteration can
    recover (or report nonconvergence) instead of crashing.
    """
    n = params.dim_n
    visc = 2.0 * params.mu + params.lam
    rho_safe = np.maximum(rho, 1e-12)
    convective = m**2 * r ** (2 - 2 * n) * (-(n - 1) / (r * rho_safe) - v / rho_safe**2)
    pressure_g = (params.gamma * params.k_pressure
                  * rho_safe ** (params.gamma - 1.0) * v)
    return (
        r ** (n - 1) * rho_safe**2 * (convective + pressure_g) / (visc * (-m))
        + (n - 1) * v / r
        + 2.0 * v**2 / rho_safe
    )


@dataclass(frozen=True)
class SteadyProfile:
    """Discrete stationary solution with derivatives on a radial grid.

    rho_t, u_t are the density and radial velocity; d_* and d2_* their
    first and second radial derivatives.  First derivatives come from the
    collocation solution, second derivatives from the ODE right-hand side
    so that decay-rate fits are not polluted by differencing noise.
    """

    grid: RadialGrid
    params: FluidParams
    rho_t: np.ndarray
    u_t: np.ndarray
    d_rho: np.ndarray
    d_u: np.ndarray
    d2_rho: np.ndarray
    d2_u: np.ndarray
    mass_flux: float
    residual_rst2: float

    @property
    def dim_n(self) -> int:
        return self.params.dim_n

    @property
    def r(self) -> np.ndarray:
        return self.grid.nodes


def _velocity(r, rho, drho, m: float, n: int):
    """U = m r^(1-n) / rho from the mass flux, and its derivative U'."""
    u = m * r ** (1.0 - n) / rho
    du = m * ((1 - n) * r ** (-n) / rho - r ** (1 - n) * drho / rho**2)
    return u, du


def _derivatives_from_solution(r, rho, v, m, params):
    n = params.dim_n
    u, du = _velocity(r, rho, v, m, n)
    d2rho = _rho_pp(r, rho, v, m, params)
    d2u = m * (
        n * (n - 1) * r ** (-n - 1) / rho
        - 2.0 * (1 - n) * r ** (-n) * v / rho**2
        - r ** (1 - n) * d2rho / rho**2
        + 2.0 * r ** (1 - n) * v**2 / rho**3
    )
    return u, du, d2rho, d2u


def _solve_once(params: FluidParams, grid: RadialGrid, tol: float, guess=None):
    n = params.dim_n
    rmax = grid.r_max
    rho_p = params.rho_plus

    def fun(r, y, p):
        return np.vstack([y[1], _rho_pp(r, y[0], y[1], p[0], params)])

    def bc(ya, yb, p):
        m = p[0]
        c = _tail_coeff(m, params)
        return np.array([
            m - params.u_b * ya[0],
            yb[0] - (rho_p + c * rmax ** (2 - 2 * n)),
            yb[1] - (2 - 2 * n) * c * rmax ** (1 - 2 * n),
        ])

    if guess is None:
        mesh = grid.nodes
        y0 = np.vstack([np.full_like(mesh, rho_p), np.zeros_like(mesh)])
        p0 = np.array([params.u_b * rho_p])
    else:
        mesh, y0, p0 = guess
    return solve_bvp(fun, bc, mesh, y0, p=p0, tol=min(tol, 1e-10),
                     max_nodes=max(4 * grid.nodes.size, 20000), verbose=0)


def solve_steady(params: FluidParams, grid: RadialGrid, tol: float = 1e-8) -> SteadyProfile:
    """Solve the stationary boundary-value problem on the given grid.

    Raises NonConvergence when the collocation Newton iteration stalls even
    with continuation in u_b, which signals |u_b| outside the small-data
    regime or a too-small truncation radius.
    """
    require_valid(params)
    if not tol > 0.0:  # written so that NaN is refused too
        raise ValueError("tol must be positive")

    sol = _solve_once(params, grid, tol)
    if sol.status != 0:
        # continuation: ramp u_b up from a quarter of the target
        guess = None
        for frac in (0.25, 0.5, 0.75, 1.0):
            pstep = dataclasses.replace(params, u_b=params.u_b * frac)
            sol = _solve_once(pstep, grid, tol, guess=guess)
            if sol.status != 0:
                raise NonConvergence(sol.niter, float(np.max(sol.rms_residuals)))
            guess = (sol.x, sol.y, sol.p)

    m = float(sol.p[0])
    r = grid.nodes
    rho, v = sol.sol(r)
    if np.any(rho <= 0.0):
        raise NonConvergence(sol.niter, float(np.max(sol.rms_residuals)),
                             "solver produced non-positive density")
    u, du, d2rho, d2u = _derivatives_from_solution(r, rho, v, m, params)

    # momentum residual with the second derivative taken from the collocation
    # interpolant rather than the ODE, so the check is not circular
    n = params.dim_n
    d2rho_interp = sol.sol(r, 1)[1]
    visc = 2.0 * params.mu + params.lam
    w_p = -m * (d2rho_interp / (r ** (n - 1) * rho**2)
                - (n - 1) * v / (r**n * rho**2)
                - 2.0 * v**2 / (r ** (n - 1) * rho**3))
    conv = m**2 * r ** (2 - 2 * n) * (-(n - 1) / (r * rho) - v / rho**2)
    res2 = float(np.max(np.abs(conv + dpressure(rho, params) * v - visc * w_p)))
    if res2 > tol:
        raise NonConvergence(sol.niter, res2, "momentum residual above tolerance")

    return SteadyProfile(
        grid=grid, params=params, rho_t=rho, u_t=u, d_rho=v, d_u=du,
        d2_rho=d2rho, d2_u=d2u, mass_flux=m, residual_rst2=res2,
    )


@dataclass(frozen=True)
class RateReport:
    window: tuple[float, float]
    slopes: dict
    targets: dict
    prefactor_ratio: dict
    tolerances: dict

    @property
    def verdicts(self) -> dict:
        """Per key, whether its slope lies within its tolerance of its target."""
        return {k: abs(self.slopes[k] - self.targets[k]) <= self.tolerances[k]
                for k in self.targets}

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())


def _loglog_slope(r, q):
    mask = q > 0.0
    if np.count_nonzero(mask) < 8:
        raise FitWindowTooSmall("not enough positive samples for a log-log fit")
    return float(np.polyfit(np.log(r[mask]), np.log(q[mask]), 1)[0])


_MIN_DECADES = 1.0  # the least span of the fit window, in decades of r


def verify_decay(profile: SteadyProfile, slope_tol: float = 0.2) -> RateReport:
    """Least-squares log-log decay rates over the window [R^0.4, R^0.9].

    Fits the far-field rates of the density/velocity derivatives against
    their theoretical exponents and reports two-sided prefactor ratios
    max/min of quantity * r^(-target) over the window.

    The density rates follow from rho - rho_+ = O(r^(2-2n)).  The velocity
    rates follow from the mass flux U = m r^(1-n)/rho with m != 0:
    differentiating twice gives
    U'' = m n (n-1) r^(-n-1)/rho_+ + O(r^(-n-1-2(n-1))),
    whose leading term is nonzero for n >= 2, so U'' decays like r^-(n+1)
    (not like rho'', which decays like r^-2n).
    """
    n = profile.dim_n
    rmax = profile.grid.r_max
    lo, hi = rmax**0.4, rmax**0.9
    if np.log10(hi / lo) < _MIN_DECADES:
        raise FitWindowTooSmall(
            f"window [{lo:.3g}, {hi:.3g}] spans {np.log10(hi / lo):.2f} decades "
            f"< {_MIN_DECADES}"
        )
    r = profile.r
    sel = (r >= lo) & (r <= hi)
    if np.count_nonzero(sel) < 16:
        raise FitWindowTooSmall("fewer than 16 grid nodes inside the fit window")
    rw = r[sel]

    quantities = {
        "rho_minus_rho_plus": np.abs(profile.rho_t[sel] - profile.params.rho_plus),
        "d_u": np.abs(profile.d_u[sel]),
        "d_rho": np.abs(profile.d_rho[sel]),
        "d2_u": np.abs(profile.d2_u[sel]),
        "d2_rho": np.abs(profile.d2_rho[sel]),
    }
    targets = {
        "rho_minus_rho_plus": -(2 * n - 2),
        "d_u": -n,
        "d_rho": -(2 * n - 1),
        "d2_u": -(n + 1),
        "d2_rho": -2 * n,
    }
    slopes, ratios = {}, {}
    for key, q in quantities.items():
        slopes[key] = _loglog_slope(rw, q)
        compensated = q * rw ** float(-targets[key])
        pos = compensated[compensated > 0]
        ratios[key] = float(np.max(pos) / np.min(pos)) if pos.size else np.inf
    tols = {k: slope_tol for k in targets}
    return RateReport(window=(lo, hi), slopes=slopes, targets=targets,
                      prefactor_ratio=ratios, tolerances=tols)


def div_u_profile(profile: SteadyProfile) -> tuple[np.ndarray, np.ndarray]:
    """div of the stationary velocity, via both equivalent formulas.

    Route one differentiates r^(n-1) U directly; route two uses the mass
    flux to trade the velocity for the density gradient.  The routes are
    algebraically identical, so they agree to round-off relative to the
    operand scale |U'| + (n-1)|U|/r (route one is a cancelling difference:
    far out its value sits many digits below its operands).
    """
    r = profile.r
    n = profile.dim_n
    route1 = profile.d_u + (n - 1) * profile.u_t / r
    rho1 = float(profile.rho_t[0])
    route2 = rho1 * abs(profile.params.u_b) * profile.d_rho / (
        r ** (n - 1) * profile.rho_t**2
    )
    return route1, route2


def div_u_route_gap(profile: SteadyProfile) -> float:
    """Worst disagreement of the two div formulas, relative to their operands."""
    route1, route2 = div_u_profile(profile)
    n = profile.dim_n
    scale = np.abs(profile.d_u) + (n - 1) * np.abs(profile.u_t) / profile.r
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(route1 - route2) / scale))
