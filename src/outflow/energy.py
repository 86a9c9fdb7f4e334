"""Energy machinery: potential energy density, relative energy, norms,
dissipation monitors, and the linearised-reformulation residual check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .discrete import AxiOps, SymOps
from .params import FluidParams, dpressure, pressure, q_coeff
from .states import AxiState, SymState
from .steady import SteadyProfile

__all__ = [
    "potential_energy",
    "potential_energy_quadrature",
    "h_identities",
    "equivalence_constants",
    "EnergyReport",
    "relative_energy",
    "sobolev_norm",
    "energy_norm",
    "density_corridor",
    "reformulation_residual",
    "reformulation_terms",
    "ReformResult",
    "ReformTerms",
    "composite_monitor",
    "SUP_GROUP",
    "INT_GROUP",
]


def potential_energy(zeta, xi, params: FluidParams):
    """Potential energy density of zeta relative to xi; convex, zero iff equal."""
    zeta = np.asarray(zeta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.any(zeta <= 0.0) or np.any(xi <= 0.0):
        raise ValueError("densities must be positive")
    k, g = params.k_pressure, params.gamma
    if g == 1.0:
        ratio = zeta / xi
        return k * xi * (1.0 - ratio + ratio * np.log(ratio))
    return k / (g - 1.0) * (zeta**g - xi**g - g * xi ** (g - 1.0) * (zeta - xi))


def potential_energy_quadrature(zeta: float, xi: float, params: FluidParams) -> float:
    """Defining-integral evaluation zeta * int_xi^zeta (P(z)-P(xi))/z^2 dz."""
    if zeta <= 0.0 or xi <= 0.0:
        raise ValueError("densities must be positive")
    p_xi = float(pressure(xi, params))

    def integrand(z):
        return (float(pressure(z, params)) - p_xi) / z**2

    val, _ = quad(integrand, xi, zeta, epsabs=1e-13, epsrel=1e-12)
    return zeta * val


def h_identities(zeta, xi, params: FluidParams, step: float = 1e-5):
    """Relative residuals of the three structural identities of H.

    Partial derivatives are taken by central differences, so the residuals
    measure the closed forms, not the identities' algebra.
    """
    zeta = np.asarray(zeta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    hz = step * zeta
    hx = step * xi
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


def equivalence_constants(rho_lo: float, rho_hi: float, params: FluidParams,
                          n_grid: int = 60):
    """Extremes of H(rho, rho~)/|rho - rho~|^2 over a density box.

    Finite positive bounds witness the quadratic equivalence of the potential
    energy with the squared density gap on any compact positive range.
    """
    if not (0.0 < rho_lo < rho_hi):
        raise ValueError("need 0 < rho_lo < rho_hi")
    grid = np.linspace(rho_lo, rho_hi, n_grid)
    zz, xx = np.meshgrid(grid, grid)
    mask = np.abs(zz - xx) > 1e-9 * rho_hi
    ratio = potential_energy(zz[mask], xx[mask], params) / (zz[mask] - xx[mask]) ** 2
    c_low, c_high = float(np.min(ratio)), float(np.max(ratio))
    if not (np.isfinite(c_low) and np.isfinite(c_high) and c_low > 0.0):
        raise ArithmeticError("equivalence constants degenerate")
    return c_low, c_high


# ---------------------------------------------------------------------------
# energy reports

SUP_GROUP = ("phi_psi_0", "phi_psi_1", "phi_2", "dt_phi_0", "dt_phi_1", "dt_psi_0")
INT_GROUP = ("phi_1", "phi_2", "psi_1", "dt_phi_0", "dt_phi_1", "dt_psi_0")


@dataclass(frozen=True)
class EnergyReport:
    """All monitored functionals of one state snapshot.

    norm_pieces carries the squared Sobolev summands the solvers resolve
    (derivative order <= 2 for the density gap, <= 1 for the velocity gap
    and the time derivatives); unresolved third-order pieces are omitted
    and listed in `unresolved`.
    """

    t: float
    total_relative_energy: float
    viscous_dissipation: float
    boundary_H: float
    weighted_phi: float
    weighted_radial_psi: float
    sup_perturbation: float
    norm_pieces: dict = field(default_factory=dict)
    unresolved: tuple = ("phi_psi_3", "dt_phi_2", "psi_2", "psi_3", "dt_psi_1")

    def __post_init__(self):
        for name in ("total_relative_energy", "viscous_dissipation", "boundary_H",
                     "weighted_phi", "weighted_radial_psi", "sup_perturbation"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


def _sym_gradients(ops: SymOps, psi: np.ndarray):
    dpsi = ops.d1(psi)
    grad_sq = dpsi**2 + (ops.dim_n - 1) * (psi / ops.r) ** 2
    div = dpsi + (ops.dim_n - 1) * psi / ops.r
    return grad_sq, div


def _axi_gradients(ops: AxiOps, psi_r: np.ndarray, psi_t: np.ndarray):
    r = ops.r[:, None]
    cot = (ops.cos / ops.sin)[None, :]
    dr_pr = ops.d_r(psi_r)
    dr_pt = ops.d_r(psi_t)
    dt_pr = ops.d_theta(psi_r, parity=1)
    dt_pt = ops.d_theta(psi_t, parity=-1)
    grad_sq = (dr_pr**2 + dr_pt**2
               + ((dt_pr - psi_t) / r) ** 2
               + ((dt_pt + psi_r) / r) ** 2
               + ((psi_r + cot * psi_t) / r) ** 2)
    div = ops.div(psi_r, psi_t)
    return grad_sq, div


def relative_energy(state, profile: SteadyProfile, params: FluidParams,
                    dt_fields: dict | None = None) -> EnergyReport:
    """Relative energy and dissipation functionals of a state snapshot.

    dt_fields may carry the instantaneous time derivatives {"rho_t", "u_t"
    [, "utheta_t"]} so the report can include the temporal norm pieces.
    """
    if isinstance(state, SymState):
        if state.grid is not profile.grid and not np.array_equal(
                state.grid.nodes, profile.grid.nodes):
            raise ValueError("state and profile grids differ")
        ops = SymOps(state.grid, params.dim_n)
        phi = state.rho - profile.rho_t
        psi = state.u_rad - profile.u_t
        grad_sq, div = _sym_gradients(ops, psi)
        # clamp round-off: the closed form of H cancels catastrophically
        # when the two densities agree to near machine precision
        h_gap = np.maximum(potential_energy(state.rho, profile.rho_t, params), 0.0)
        e_density = 0.5 * state.rho * psi**2 + h_gap
        total = ops.integral(e_density)
        dissip = ops.integral(0.5 * params.mu * grad_sq
                              + (params.mu + params.lam) * div**2)
        bnd = abs(params.u_b) * ops.boundary_area * float(max(
            potential_energy(state.rho[0], profile.rho_t[0], params), 0.0))
        w_phi = abs(params.u_b) ** 3 * ops.integral(phi**2 / ops.r**7)
        w_psi = abs(params.u_b) * ops.integral((ops.r * psi) ** 2 / ops.r**9)
        sup = float(np.max(np.hypot(phi, psi)))
        pieces = _sym_norm_pieces(ops, phi, psi, dt_fields)
    elif isinstance(state, AxiState):
        ops = AxiOps(state.grid, state.agrid)
        phi = state.rho - profile.rho_t[:, None]
        psi_r = state.u_r - profile.u_t[:, None]
        psi_t = state.u_theta
        grad_sq, div = _axi_gradients(ops, psi_r, psi_t)
        h_gap = np.maximum(
            potential_energy(state.rho, profile.rho_t[:, None], params), 0.0)
        e_density = 0.5 * state.rho * (psi_r**2 + psi_t**2) + h_gap
        total = ops.integral(e_density)
        dissip = ops.integral(0.5 * params.mu * grad_sq
                              + (params.mu + params.lam) * div**2)
        h_ring = np.maximum(
            potential_energy(state.rho[0], profile.rho_t[0], params), 0.0)
        bnd = abs(params.u_b) * float(np.sum(ops.boundary_w * h_ring))
        r2 = ops.r[:, None]
        w_phi = abs(params.u_b) ** 3 * ops.integral(phi**2 / r2**7)
        w_psi = abs(params.u_b) * ops.integral((r2 * psi_r) ** 2 / r2**9)
        sup = float(np.max(np.sqrt(phi**2 + psi_r**2 + psi_t**2)))
        pieces = _axi_norm_pieces(ops, phi, psi_r, psi_t, dt_fields)
    else:
        raise TypeError(f"unsupported state type {type(state)!r}")
    return EnergyReport(
        t=state.t, total_relative_energy=total, viscous_dissipation=dissip,
        boundary_H=bnd, weighted_phi=w_phi, weighted_radial_psi=w_psi,
        sup_perturbation=sup, norm_pieces=pieces,
    )


def _sym_norm_pieces(ops: SymOps, phi, psi, dt_fields):
    n = ops.dim_n
    r = ops.r
    d_phi = ops.d1(phi)
    d2_phi = ops.d2(phi)
    grad_psi_sq, _ = _sym_gradients(ops, psi)
    pieces = {
        "phi_psi_0": ops.integral(phi**2 + psi**2),
        "phi_psi_1": ops.integral(d_phi**2 + grad_psi_sq),
        "phi_1": ops.integral(d_phi**2),
        "psi_1": ops.integral(grad_psi_sq),
        "phi_2": ops.integral(d2_phi**2 + (n - 1) * (d_phi / r) ** 2),
    }
    if dt_fields is not None:
        phi_t = dt_fields["rho_t"]
        psi_t = dt_fields["u_t"]
        d_phi_t = ops.d1(phi_t)
        pieces["dt_phi_0"] = ops.integral(phi_t**2)
        pieces["dt_phi_1"] = ops.integral(d_phi_t**2)
        pieces["dt_psi_0"] = ops.integral(psi_t**2)
    return pieces


def _axi_norm_pieces(ops: AxiOps, phi, psi_r, psi_t, dt_fields):
    r = ops.r[:, None]
    d_phi_sq = ops.d_r(phi) ** 2 + (ops.d_theta(phi, parity=1) / r) ** 2
    grad_psi_sq, _ = _axi_gradients(ops, psi_r, psi_t)
    hess = _axi_scalar_hessian_sq(ops, phi)
    pieces = {
        "phi_psi_0": ops.integral(phi**2 + psi_r**2 + psi_t**2),
        "phi_psi_1": ops.integral(d_phi_sq + grad_psi_sq),
        "phi_1": ops.integral(d_phi_sq),
        "psi_1": ops.integral(grad_psi_sq),
        "phi_2": ops.integral(hess),
    }
    if dt_fields is not None:
        phi_t = dt_fields["rho_t"]
        d_phi_t_sq = (ops.d_r(phi_t) ** 2
                      + (ops.d_theta(phi_t, parity=1) / r) ** 2)
        pieces["dt_phi_0"] = ops.integral(phi_t**2)
        pieces["dt_phi_1"] = ops.integral(d_phi_t_sq)
        pieces["dt_psi_0"] = ops.integral(
            dt_fields["u_t"] ** 2 + dt_fields["utheta_t"] ** 2)
    return pieces


def _axi_scalar_hessian_sq(ops: AxiOps, f):
    r = ops.r[:, None]
    cot = (ops.cos / ops.sin)[None, :]
    fr = ops.d_r(f)
    ft = ops.d_theta(f, parity=1)
    h_rr = ops.d2_r(f)
    h_rt = ops.d_r(ft) / r - ft / r**2
    h_tt = ops.d2_theta(f, parity=1) / r**2 + fr / r
    h_pp = fr / r + cot * ft / r**2
    return h_rr**2 + 2.0 * h_rt**2 + h_tt**2 + h_pp**2


def sobolev_norm(f: np.ndarray, order: int, ops) -> float:
    """L2 norm of the order-k derivative tensor of a scalar field.

    Supports k = 0..2; the solvers store two robust derivatives, so k = 3
    raises.  Radial fields use the exact radial tensor contractions, (r,
    theta) fields the axisymmetric Hessian.
    """
    if order not in (0, 1, 2):
        raise ValueError("derivative order exceeds the stored differentiability")
    if isinstance(ops, SymOps):
        if order == 0:
            return float(np.sqrt(ops.integral(f**2)))
        d1 = ops.d1(f)
        if order == 1:
            return float(np.sqrt(ops.integral(d1**2)))
        d2 = ops.d2(f)
        return float(np.sqrt(ops.integral(
            d2**2 + (ops.dim_n - 1) * (d1 / ops.r) ** 2)))
    if isinstance(ops, AxiOps):
        if order == 0:
            return float(np.sqrt(ops.integral(f**2)))
        r = ops.r[:, None]
        if order == 1:
            g = ops.d_r(f) ** 2 + (ops.d_theta(f, parity=1) / r) ** 2
            return float(np.sqrt(ops.integral(g)))
        return float(np.sqrt(ops.integral(_axi_scalar_hessian_sq(ops, f))))
    raise TypeError("ops must be SymOps or AxiOps")


def energy_norm(history: list[EnergyReport]) -> float:
    """Mixed norm: sup of the instantaneous group plus the time-integrated
    dissipative group, over the resolved pieces."""
    if not history:
        raise ValueError("history is empty")
    t = np.array([rep.t for rep in history])
    sup_vals = np.array([
        sum(rep.norm_pieces.get(k, 0.0) for k in SUP_GROUP) for rep in history
    ])
    int_vals = np.array([
        sum(rep.norm_pieces.get(k, 0.0) for k in INT_GROUP) for rep in history
    ])
    total = float(np.max(sup_vals))
    if t.size > 1:
        total += float(np.trapezoid(int_vals, t))
    return float(np.sqrt(total))


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
    every `reformulation_residual` call.  `stat` names its arrays as the
    residual formulas do: derivatives of the stationary fields, P'(rho~)
    and the stationary residuals st1 and st2.
    """

    profile: SteadyProfile
    params: FluidParams
    ops: object
    stat: dict


def reformulation_terms(profile: SteadyProfile, params: FluidParams, ops) -> ReformTerms:
    """Stationary terms of the reformulation check on SymOps or AxiOps."""
    visc = 2.0 * params.mu + params.lam
    if isinstance(ops, SymOps):
        d = ops.d1
        rt, ut = profile.rho_t, profile.u_t
        d_rt, d_ut = d(rt), d(ut)
        div_ut = ops.div_radial(ut, d_ut)
        dp_rt = dpressure(rt, params)
        stat = {
            "d_rt": d_rt, "d_ut": d_ut, "div_ut": div_ut, "dp_rt": dp_rt,
            "st1": ut * d_rt + rt * div_ut,
            "st2": rt * ut * d_ut + dp_rt * d_rt - visc * d(div_ut),
        }
    elif isinstance(ops, AxiOps):
        rt2 = np.repeat(profile.rho_t[:, None], ops.theta.size, axis=1)
        ut2 = np.repeat(profile.u_t[:, None], ops.theta.size, axis=1)
        zero = np.zeros_like(rt2)
        g_rt = ops.grad(rt2)
        div_ut = ops.div(ut2, zero)
        d_ut = ops.first_derivs(ut2, zero)
        lut = ops.visc(ut2, zero, params.mu, params.lam, d_ut, div_ut)
        c_uu = ops.conv(ut2, zero, ut2, zero, d_ut)
        dp_rt = dpressure(rt2, params)
        stat = {
            "rt2": rt2, "ut2": ut2, "zero": zero, "g_rt": g_rt, "div_ut": div_ut,
            "d_ut": d_ut, "c_uu": c_uu, "dp_rt": dp_rt,
            "st1": ut2 * g_rt[0] + rt2 * div_ut,
            "st2": [rt2 * c_uu[i] + dp_rt * g_rt[i] - lut[i] for i in range(2)],
        }
    else:
        raise TypeError("ops must be SymOps or AxiOps")
    return ReformTerms(profile, params, ops, stat)


def reformulation_residual(state, state_prev, dt: float,
                           profile: SteadyProfile, params: FluidParams,
                           ops=None, terms: ReformTerms | None = None) -> ReformResult:
    """Discrete residuals of the governing system and of its linearised form.

    Both sides are assembled from the same collocation derivatives, so they
    agree to round-off whenever the source-term algebra is right; the
    stationary residual is carried explicitly on the linearised side because
    the discrete profile does not annihilate the discrete operator exactly.
    The momentum equations are compared in velocity form (divided by rho);
    for radial fields the viscous operator is (2 mu + lam) d_r(div).
    `terms` are the stationary terms from `reformulation_terms`; without
    them they are built here, on `ops` or on operators of the state's grid.
    """
    if not density_corridor(state, params):
        raise ValueError("density outside the a-priori corridor")
    axi = isinstance(state, AxiState)
    if terms is None:
        if ops is None:
            ops = (AxiOps(state.grid, state.agrid) if axi
                   else SymOps(state.grid, params.dim_n))
        terms = reformulation_terms(profile, params, ops)
    elif (terms.profile is not profile or terms.params != params
          or (ops is not None and ops is not terms.ops)):
        raise ValueError("the reformulation terms were built for another "
                         "profile, fluid or operator set")
    if axi != isinstance(terms.ops, AxiOps):
        raise ValueError("the reformulation terms are of the other geometry")
    if axi:
        return _reformulation_axi(state, state_prev, dt, params, terms)
    return _reformulation_sym(state, state_prev, dt, params, terms)


def _reformulation_sym(state: SymState, prev: SymState, dt: float,
                       params: FluidParams, terms: ReformTerms) -> ReformResult:
    ops, st = terms.ops, terms.stat
    d = ops.d1
    visc = 2.0 * params.mu + params.lam
    rho_p, q_p = params.rho_plus, float(q_coeff(params.rho_plus, params))

    rho, u = state.rho, state.u_rad
    rho0, u0 = prev.rho, prev.u_rad
    rt, ut = terms.profile.rho_t, terms.profile.u_t
    d_rt, d_ut = st["d_rt"], st["d_ut"]
    phi, psi = rho - rt, u - ut
    phi0, psi0 = rho0 - rt, u0 - ut

    d_rho, d_u, d_phi, d_psi = d(rho), d(u), d(phi), d(psi)
    div_u = ops.div_radial(u, d_u)
    div_psi = ops.div_radial(psi, d_psi)
    q_rho = q_coeff(rho, params)

    orig_cont = (rho - rho0) / dt + u * d_rho + rho * div_u
    f0 = (-phi * div_psi + (rho_p - rt) * div_psi - psi * d_rt - phi * st["div_ut"])
    reform_cont = (phi - phi0) / dt + u * d_phi + rho_p * div_psi - f0 + st["st1"]

    lap_u = d(div_u)
    lap_psi = d(div_psi)
    orig_mom = ((u - u0) / dt + u * d_u + q_rho * d_rho
                - visc * lap_u / rho)
    f_visc = -((rho - rho_p) / (rho_p * rho)) * visc * lap_psi
    f_tilde = (-psi * d_psi - ut * d_psi - psi * d_ut
               - (phi / rho) * ut * d_ut
               + (q_p - q_rho) * d_phi
               - ((dpressure(rho, params) - st["dp_rt"]) / rho) * d_rt)
    reform_mom = ((psi - psi0) / dt - visc * lap_psi / rho_p + q_p * d_phi
                  - (f_visc + f_tilde) + st["st2"] / rho)
    return ReformResult(orig_cont, reform_cont, orig_mom, reform_mom)


def _reformulation_axi(state: AxiState, prev: AxiState, dt: float,
                       params: FluidParams, terms: ReformTerms) -> ReformResult:
    ops, st = terms.ops, terms.stat
    mu, lam = params.mu, params.lam
    rho_p, q_p = params.rho_plus, float(q_coeff(params.rho_plus, params))

    rho, u_r, u_t = state.rho, state.u_r, state.u_theta
    rt2, ut2, zero, g_rt = st["rt2"], st["ut2"], st["zero"], st["g_rt"]
    phi = rho - rt2
    psi_r, psi_t = u_r - ut2, u_t
    phi0 = prev.rho - rt2
    psi_r0, psi_t0 = prev.u_r - ut2, prev.u_theta

    g_rho = ops.grad(rho)
    div_u = ops.div(u_r, u_t)
    orig_cont = ((rho - prev.rho) / dt + u_r * g_rho[0] + u_t * g_rho[1]
                 + rho * div_u)
    div_psi = ops.div(psi_r, psi_t)
    g_phi = ops.grad(phi)
    f0 = (-phi * div_psi + (rho_p - rt2) * div_psi
          - psi_r * g_rt[0] - psi_t * g_rt[1] - phi * st["div_ut"])
    reform_cont = ((phi - phi0) / dt + u_r * g_phi[0] + u_t * g_phi[1]
                   + rho_p * div_psi - f0 + st["st1"])

    q_rho = q_coeff(rho, params)
    d_u = ops.first_derivs(u_r, u_t)
    lu_r, lu_t = ops.visc(u_r, u_t, mu, lam, d_u, div_u)
    co_r, co_t = ops.conv(u_r, u_t, u_r, u_t, d_u)
    orig_mom = np.stack([
        (u_r - prev.u_r) / dt + co_r + q_rho * g_rho[0] - lu_r / rho,
        (u_t - prev.u_theta) / dt + co_t + q_rho * g_rho[1] - lu_t / rho,
    ])

    d_psi = ops.first_derivs(psi_r, psi_t)
    lap_psi = ops.vec_lap(psi_r, psi_t, d_psi)
    gdiv_psi = ops.grad(div_psi)
    c_pp = ops.conv(psi_r, psi_t, psi_r, psi_t, d_psi)
    c_up = ops.conv(ut2, zero, psi_r, psi_t, d_psi)
    c_pu = ops.conv(psi_r, psi_t, ut2, zero, st["d_ut"])
    c_uu = st["c_uu"]
    dp_gap = (dpressure(rho, params) - st["dp_rt"]) / rho
    reform = []
    for i in range(2):
        f_visc = -((rho - rho_p) / (rho_p * rho)) * (
            mu * lap_psi[i] + (mu + lam) * gdiv_psi[i])
        f_tilde = (-c_pp[i] - c_up[i] - c_pu[i] - (phi / rho) * c_uu[i]
                   + (q_p - q_rho) * g_phi[i]
                   - dp_gap * g_rt[i])
        dpsi_dt = ((psi_r - psi_r0) if i == 0 else (psi_t - psi_t0)) / dt
        reform.append(dpsi_dt - (mu / rho_p) * lap_psi[i]
                      - ((mu + lam) / rho_p) * gdiv_psi[i] + q_p * g_phi[i]
                      - (f_visc + f_tilde) + st["st2"][i] / rho)
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
