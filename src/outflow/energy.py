"""Energy machinery: potential energy density, relative energy,
dissipation monitors, and the linearised-reformulation residual check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .discrete import AxiOps, SymOps
from .params import FluidParams, dpressure, pressure, q_coeff
from .steady import SteadyProfile

__all__ = [
    "potential_energy",
    "potential_energy_quadrature",
    "h_identities",
    "equivalence_constants",
    "EnergyReport",
    "relative_energy",
    "density_corridor",
    "reformulation_residual",
    "reformulation_terms",
    "ReformResult",
    "ReformTerms",
    "composite_monitor",
]


def potential_energy(zeta, xi, params: FluidParams):
    """Potential energy density of zeta relative to xi; convex, zero iff equal.

    For gamma != 1 it is K xi^gamma (r expm1(a log r)/a - (r - 1)) with
    r = zeta/xi and a = gamma - 1, r - 1 and log r taken from d = (zeta - xi)/xi
    so that rounding zeta/xi costs nothing near the diagonal.  It carries no
    1/a cancellation near gamma = 1, and it is more accurate than the
    textbook form K/a (zeta^gamma - xi^gamma - gamma xi^a (zeta - xi)) at
    every gamma.
    """
    zeta = np.asarray(zeta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.any(zeta <= 0.0) or np.any(xi <= 0.0):
        raise ValueError("densities must be positive")
    k, g = params.k_pressure, params.gamma
    if g == 1.0:
        ratio = zeta / xi
        return k * xi * (1.0 - ratio + ratio * np.log(ratio))
    a, d = g - 1.0, (zeta - xi) / xi
    return k * xi**g * ((1.0 + d) * np.expm1(a * np.log1p(d)) / a - d)


def potential_energy_quadrature(zeta: float, xi: float, params: FluidParams) -> float:
    """Defining-integral evaluation zeta * int_xi^zeta (P(z)-P(xi))/z^2 dz."""
    if zeta <= 0.0 or xi <= 0.0:
        raise ValueError("densities must be positive")
    # every z lies between xi and zeta, so the integrand runs in plain floats
    zeta, xi = float(zeta), float(xi)
    k, g = float(params.k_pressure), float(params.gamma)
    p_xi = k * xi**g

    def integrand(z):
        return (k * z**g - p_xi) / z**2

    val, _ = quad(integrand, xi, zeta, epsabs=1e-13, epsrel=1e-12)
    return zeta * val


_FD_STEP = 1e-5  # relative step of the central differences of `h_identities`
_BOX_SAMPLES = 60  # samples per axis of the density box of `equivalence_constants`


def h_identities(zeta, xi, params: FluidParams):
    """Relative residuals of the three structural identities of H.

    Partial derivatives are taken by central differences, so the residuals
    measure the closed forms, not the identities' algebra.
    """
    zeta = np.asarray(zeta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    hz = _FD_STEP * zeta
    hx = _FD_STEP * xi
    h = potential_energy(zeta, xi, params)
    dh_dz = (potential_energy(zeta + hz, xi, params)
             - potential_energy(zeta - hz, xi, params)) / (2.0 * hz)
    dh_dx = (potential_energy(zeta, xi + hx, params)
             - potential_energy(zeta, xi - hx, params)) / (2.0 * hx)
    p_z, p_x = pressure(zeta, params), pressure(xi, params)
    g = params.gamma
    res1 = zeta * dh_dz - h - p_z + p_x
    res2 = zeta * dh_dz + xi * dh_dx - g * h
    res3 = p_z - p_x - dpressure(xi, params) * (zeta - xi) - (g - 1.0) * h
    scale = 1.0 + np.abs(h) + np.abs(p_z) + np.abs(p_x)
    return res1 / scale, res2 / scale, res3 / scale


def equivalence_constants(rho_lo: float, rho_hi: float, params: FluidParams):
    """Extremes of H(rho, rho~)/|rho - rho~|^2 over a density box.

    Finite positive bounds witness the quadratic equivalence of the potential
    energy with the squared density gap on any compact positive range.
    """
    if not (0.0 < rho_lo < rho_hi):
        raise ValueError("need 0 < rho_lo < rho_hi")
    grid = np.linspace(rho_lo, rho_hi, _BOX_SAMPLES)
    zz, xx = np.meshgrid(grid, grid)
    mask = np.abs(zz - xx) > 1e-9 * rho_hi
    ratio = potential_energy(zz[mask], xx[mask], params) / (zz[mask] - xx[mask]) ** 2
    c_low, c_high = float(np.min(ratio)), float(np.max(ratio))
    if not (np.isfinite(c_low) and np.isfinite(c_high) and c_low > 0.0):
        raise ArithmeticError("equivalence constants degenerate")
    return c_low, c_high


# ---------------------------------------------------------------------------
# energy reports


@dataclass(frozen=True)
class EnergyReport:
    """All monitored functionals of one state snapshot."""

    t: float
    total_relative_energy: float
    viscous_dissipation: float
    boundary_H: float
    weighted_phi: float
    weighted_radial_psi: float
    sup_perturbation: float

    def __post_init__(self):
        for name in ("total_relative_energy", "viscous_dissipation", "boundary_H",
                     "weighted_phi", "weighted_radial_psi", "sup_perturbation"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


def _check_grids(grid, *others) -> None:
    """Raise ValueError unless every grid has the nodes of `grid`."""
    for other in others:
        if other is not grid and not np.array_equal(other.nodes, grid.nodes):
            raise ValueError("state, profile and operator grids differ")


def _sum_sq(fields, start=0.0):
    """start + f0**2 + f1**2 + ..., summed left to right."""
    return sum((f**2 for f in fields), start)


def _dot(start, a, b):
    """start + a0 b0 + a1 b1 + ..., summed left to right."""
    for x, y in zip(a, b):
        start = start + x * y
    return start


def relative_energy(state, profile: SteadyProfile, params: FluidParams,
                    ops) -> EnergyReport:
    """Relative energy and dissipation functionals of a state snapshot, on
    `ops`, the operators of the state's geometry and grids."""
    _check_grids(state.grid, profile.grid, ops.grid)
    rt = ops.lift(profile.rho_t)
    if rt.shape != state.rho.shape:
        raise ValueError("the operators are of another geometry or angular grid")
    phi = state.rho - rt
    psi = tuple(u - ut for u, ut in
                zip(state.velocity, ops.lift_velocity(profile.u_t)))
    d_psi = ops.first_derivs(psi)
    grad_sq = ops.vec_grad_sq(psi, d_psi)
    div = ops.div(psi, d_psi)
    # clamp round-off: the closed form of H cancels catastrophically
    # when the two densities agree to near machine precision
    h_gap = np.maximum(potential_energy(state.rho, rt, params), 0.0)
    total = ops.integral(0.5 * state.rho * _sum_sq(psi) + h_gap)
    dissip = ops.integral(0.5 * params.mu * grad_sq
                          + (params.mu + params.lam) * div**2)
    h_wall = np.maximum(potential_energy(state.rho[0], rt[0], params), 0.0)
    r = ops.r_col
    return EnergyReport(
        t=state.t, total_relative_energy=total, viscous_dissipation=dissip,
        boundary_H=abs(params.u_b) * ops.wall_integral(h_wall),
        weighted_phi=abs(params.u_b) ** 3 * ops.integral(phi**2 / r**7),
        weighted_radial_psi=abs(params.u_b) * ops.integral(
            (r * psi[0]) ** 2 / r**9),
        sup_perturbation=float(np.max(np.sqrt(_sum_sq(psi, phi**2)))),
    )


def density_corridor(state, params: FluidParams) -> bool:
    """True iff rho stays within [rho_+/2, 3 rho_+/2] everywhere."""
    rho = state.rho
    return bool(np.all(rho >= 0.5 * params.rho_plus)
                and np.all(rho <= 1.5 * params.rho_plus))


# ---------------------------------------------------------------------------
# reformulation residual


@dataclass(frozen=True)
class ReformResult:
    orig_continuity: np.ndarray
    reform_continuity: np.ndarray
    orig_momentum: np.ndarray
    reform_momentum: np.ndarray

    @property
    def orig_res(self) -> float:
        return float(max(np.max(np.abs(self.orig_continuity)),
                         np.max(np.abs(self.orig_momentum))))

    @property
    def reform_res(self) -> float:
        return float(max(np.max(np.abs(self.reform_continuity)),
                         np.max(np.abs(self.reform_momentum))))

    @property
    def max_gap(self) -> float:
        return float(max(np.max(np.abs(self.orig_continuity - self.reform_continuity)),
                         np.max(np.abs(self.orig_momentum - self.reform_momentum))))


@dataclass(frozen=True, eq=False)
class ReformTerms:
    """The terms of the reformulation check that depend on (rho~, u~) alone.

    `reformulation_terms` builds them once; a run hands the one holder to
    every `reformulation_residual` call, which reads the fluid and the
    operators from it too.  `stat` names its arrays as the residual formulas
    do: the profile on the state's shape (rt, ut), derivatives of the
    stationary fields, P'(rho~) and the stationary residuals st1 and st2.
    """

    params: FluidParams
    ops: object
    stat: dict


def reformulation_terms(profile: SteadyProfile, params: FluidParams, ops) -> ReformTerms:
    """Stationary terms of the reformulation check on SymOps or AxiOps."""
    if not isinstance(ops, (SymOps, AxiOps)):
        raise TypeError("ops must be SymOps or AxiOps")
    _check_grids(profile.grid, ops.grid)
    rt, ut = ops.lift(profile.rho_t), ops.lift_velocity(profile.u_t)
    g_rt = ops.grad(rt)
    d_ut = ops.first_derivs(ut)
    div_ut = ops.div(ut, d_ut)
    lut = ops.visc(ut, params.mu, params.lam, d_ut, div_ut)
    c_uu = ops.conv(ut, ut, d_ut)
    dp_rt = dpressure(rt, params)
    stat = {
        "rt": rt, "ut": ut, "g_rt": g_rt, "div_ut": div_ut, "d_ut": d_ut,
        "c_uu": c_uu, "dp_rt": dp_rt,
        "st1": ut[0] * g_rt[0] + rt * div_ut,
        "st2": [rt * c + dp_rt * g - lu for c, g, lu in zip(c_uu, g_rt, lut)],
    }
    return ReformTerms(params, ops, stat)


def reformulation_residual(state, state_prev, dt: float,
                           terms: ReformTerms) -> ReformResult:
    """Discrete residuals of the governing system and of its linearised form.

    Both sides are assembled from the same collocation derivatives, so they
    agree to round-off whenever the source-term algebra is right; the
    stationary residual is carried explicitly on the linearised side because
    the discrete profile does not annihilate the discrete operator exactly.
    The momentum equations are compared in velocity form (divided by rho),
    one row per velocity component, with the viscous term of `ops.visc`.
    `terms`, from `reformulation_terms`, carry the fluid, the operators and
    the stationary terms of the profile.
    """
    params, ops, st = terms.params, terms.ops, terms.stat
    if not density_corridor(state, params):
        raise ValueError("density outside the a-priori corridor")
    _check_grids(state.grid, state_prev.grid, ops.grid)
    if len(state.velocity) != len(st["ut"]):
        raise ValueError("the reformulation terms are of the other geometry")
    mu, lam = params.mu, params.lam
    rho_p, q_p = params.rho_plus, float(q_coeff(params.rho_plus, params))

    rho, u = state.rho, state.velocity
    rt, ut, g_rt = st["rt"], st["ut"], st["g_rt"]
    phi, phi0 = rho - rt, state_prev.rho - rt
    psi = tuple(w - wt for w, wt in zip(u, ut))
    psi0 = tuple(w - wt for w, wt in zip(state_prev.velocity, ut))

    g_rho = ops.grad(rho)
    d_u = ops.first_derivs(u)
    div_u = ops.div(u, d_u)
    orig_cont = _dot((rho - state_prev.rho) / dt, u, g_rho) + rho * div_u
    d_psi = ops.first_derivs(psi)
    div_psi = ops.div(psi, d_psi)
    g_phi = ops.grad(phi)
    f0 = -phi * div_psi + (rho_p - rt) * div_psi
    for p, g in zip(psi, g_rt):
        f0 = f0 - p * g
    f0 = f0 - phi * st["div_ut"]
    reform_cont = (_dot((phi - phi0) / dt, u, g_phi)
                   + rho_p * div_psi - f0 + st["st1"])

    q_rho = q_coeff(rho, params)
    visc_u = ops.visc(u, mu, lam, d_u, div_u)
    conv_u = ops.conv(u, u, d_u)
    orig_mom = np.stack([
        (w - w0) / dt + c + q_rho * g - v / rho
        for w, w0, c, g, v in zip(u, state_prev.velocity, conv_u, g_rho, visc_u)])

    visc_psi = ops.visc(psi, mu, lam, d_psi, div_psi)
    c_pp = ops.conv(psi, psi, d_psi)
    c_up = ops.conv(ut, psi, d_psi)
    c_pu = ops.conv(psi, ut, st["d_ut"])
    dp_gap = (dpressure(rho, params) - st["dp_rt"]) / rho
    reform = []
    for i in range(len(u)):
        f_visc = -((rho - rho_p) / (rho_p * rho)) * visc_psi[i]
        f_tilde = (-c_pp[i] - c_up[i] - c_pu[i] - (phi / rho) * st["c_uu"][i]
                   + (q_p - q_rho) * g_phi[i]
                   - dp_gap * g_rt[i])
        reform.append((psi[i] - psi0[i]) / dt - visc_psi[i] / rho_p
                      + q_p * g_phi[i] - (f_visc + f_tilde) + st["st2"][i] / rho)
    return ReformResult(orig_cont, reform_cont, orig_mom, np.stack(reform))


def composite_monitor(history: list[EnergyReport]):
    """Cumulative energy balance: E(t) plus time-integrated dissipation terms.

    Returns the monitor series and its worst uphill increment; the series is
    nonincreasing for an exact solution, so the uphill measures scheme error.
    """
    if not history:
        raise ValueError("history is empty")
    t = np.array([rep.t for rep in history])
    e = np.array([rep.total_relative_energy for rep in history])
    d = np.array([rep.viscous_dissipation + rep.boundary_H
                  + rep.weighted_phi + rep.weighted_radial_psi
                  for rep in history])
    cumulative = np.concatenate([[0.0], np.cumsum(
        0.5 * (d[1:] + d[:-1]) * np.diff(t))])
    m = e + cumulative
    uphill = float(np.max(m - np.minimum.accumulate(m)))
    return m, uphill
