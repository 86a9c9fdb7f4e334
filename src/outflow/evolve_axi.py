"""Axisymmetric (r, theta) integration of the outflow system.

The non-spherical solver shares the radial flux and viscous kernels, the
wall row, the boundary conditions and the SSP step of the spherically
symmetric one (`evolve_sym.RadialScheme`), so a theta-independent state
reproduces that solver's steps to machine precision.  Angular stencils live on
staggered cell centers and close over the poles by parity; angular advection
uses sin(theta)-weighted edge fluxes, which both telescopes mass exactly and
makes the pole faces carry zero flux.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import eval_legendre

from .discrete import AxiOps
from .grids import AngularGrid
from .params import FluidParams, pressure_unchecked, sound_speed
from .states import AxiState, perturb_axi
from .steady import SteadyProfile
from .evolve_sym import (
    RadialScheme,
    RunResult,
    SymRunConfig,
    SymSolver,
    _relax,
    check_positive,
)

__all__ = [
    "AxiRunConfig",
    "AxiSolver",
    "run_axi_stability",
    "legendre_amplitudes",
]


@dataclass
class AxiRunConfig(SymRunConfig):
    output_every: int = 400
    decay_target: float = 5.0
    mode_ell: int = 1
    n_modes: int = 5  # project onto ell = 0..n_modes-1

    def __post_init__(self):
        super().__post_init__()
        # a mode outside the projection would be graded on aliasing residue
        if not 0 <= self.mode_ell < self.n_modes:
            raise ValueError(f"mode_ell must satisfy 0 <= mode_ell < n_modes = "
                             f"{self.n_modes}, got {self.mode_ell}")


def legendre_amplitudes(phi: np.ndarray, agrid: AngularGrid, n_modes: int = 5):
    """Legendre-mode content of a (r, theta) scalar: coefficients per radius.

    The raw quadrature projection is corrected by the discrete Gram matrix of
    the sampled polynomials, so a field lying in the resolved mode span
    projects exactly: theta-independent data carry no spurious higher modes.
    """
    theta = agrid.centers
    mu = np.cos(theta)
    w = np.sin(theta) * agrid.dtheta
    p = np.stack([eval_legendre(ell, mu) for ell in range(n_modes)])
    gram = (p * w) @ p.T
    rhs = (p * w) @ phi.T
    return np.linalg.solve(gram, rhs)


class AxiSolver(RadialScheme):
    """Method-of-lines axisymmetric solver bound to a steady profile.

    Every grid array it multiplies a field by is a C-contiguous array of the
    state's shape (n_r, n_theta), or of its face or interior rows, so no
    operand of the right-hand side is broadcast.
    """

    def __init__(self, profile: SteadyProfile, params: FluidParams,
                 agrid: AngularGrid, forcing=None):
        self.agrid = agrid
        self.ops = ops = AxiOps(profile.grid, agrid)
        super().__init__(profile, params, forcing)
        n_r = ops.r.size
        r = self.r
        s = self.sin = np.repeat(ops.sin[None, :], n_r, axis=0)
        self.cot = np.repeat(ops.cot_row, n_r, axis=0)
        self.r_sin = r * s
        self.r2_sin = self.r2 * s
        self.r_sin_sq = self.r_sin**2
        self.r_sin_dtheta = self.r_sin * agrid.dtheta
        self.dface_r2 = self.dface * self.r2[1:-1]
        self.h_cell = np.minimum(self.h, r * agrid.dtheta)
        self.h_cell2 = self.h_cell**2
        # theta face weights sin(theta_face) / 2 over the raveled pairs
        # (k, k + 1); the last pair of each row straddles two rows and weighs 0
        face_w = np.zeros(r.shape)
        face_w[:, :-1] = np.sin(agrid.nodes)[1:-1] * 0.5
        self.theta_face_w = face_w.ravel()[:-1]

    # -- angular flux divergence: (1/(r sin)) d_theta(sin q u_theta) ---------
    def _theta_flux_div(self, q: np.ndarray, u_theta: np.ndarray) -> np.ndarray:
        """Edge fluxes over the raveled q u_theta: flux[k] lies between its
        entries k - 1 and k.  Those at the ends of each row are pole faces, or
        pair two rows, and are set to +0, as a pole face carries no flux."""
        g = np.ravel(q * u_theta)
        flux = np.empty(g.size + 1)
        inner = flux[1:-1]
        np.add(g[:-1], g[1:], out=inner)
        inner *= self.theta_face_w
        flux[::self.agrid.n_cells] = 0.0
        return (flux[1:] - flux[:-1]).reshape(q.shape) / self.r_sin_dtheta

    def _lap_radial(self, f: np.ndarray) -> np.ndarray:
        """(1/r^2) d_r(r^2 d_r f) with face-centered first derivatives."""
        g_face = self.rf2 * (f[1:] - f[:-1]) / self.dr
        out = np.zeros_like(f)
        out[1:-1] = (g_face[1:] - g_face[:-1]) / self.dface_r2
        return out

    def rhs(self, state: AxiState, checked: bool = False):
        """(rho_t, mr_t, mt_t).  The wall momentum rows and the far polar row
        are zeroed for BC application; the far density and radial momentum
        rows are `far_rates`, with the angular viscous terms as a source.

        checked=True skips the positivity scan of a density that the caller
        has already scanned (the stages of `step` do).
        """
        p = self.params
        ops = self.ops
        r, r2, s = self.r, self.r2, self.sin
        rho, u_r, u_t = state.rho, state.u_r, state.u_theta
        if not checked:
            check_positive(rho, state.t)
        m_r = rho * u_r
        m_t = rho * u_t

        prs = pressure_unchecked(rho, p)
        rho_t, _, grad = self.continuity(m_r, prs)
        rho_t -= self._theta_flux_div(rho, u_t)

        div_ang = ops.d_theta(s * u_t, parity=1) / self.r_sin
        div_u = ops.d_r(r2 * u_r) / r2 + div_ang
        dth_ur = ops.d_theta(u_r, parity=1)
        dth_ut = ops.d_theta(u_t, parity=-1)

        # radial momentum; visc_ang holds the angular viscous terms
        mr_t = self.advect(m_r * u_r)
        mr_t -= self._theta_flux_div(m_r, u_t)
        mr_t += rho * u_t**2 / r
        mr_t[1:-1] -= grad
        self.add_radial_visc(u_r, mr_t)
        visc_ang = p.mu * (ops.d_theta(s * dth_ur, parity=1) / self.r2_sin
                           - 2.0 * dth_ut / r2
                           - 2.0 * self.cot * u_t / r2)
        visc_ang += (p.mu + p.lam) * ops.d_r(div_ang)
        mr_t += visc_ang

        # polar momentum
        mt_t = self.advect(m_t * u_r)
        mt_t -= self._theta_flux_div(m_t, u_t)
        mt_t -= rho * u_r * u_t / r
        mt_t -= ops.d_theta(prs, parity=1) / r
        visc_t = p.mu * (self._lap_radial(u_t)
                         + ops.d_theta(s * dth_ut, parity=-1) / self.r2_sin
                         + 2.0 * dth_ur / r2
                         - u_t / self.r_sin_sq)
        visc_t += (p.mu + p.lam) * ops.d_theta(div_u, parity=1) / r
        mt_t += visc_t

        s_rho, s_m = 0.0, visc_ang[-1]
        if self.forcing is not None:
            s_rho, s_mr, s_mt = self.forcing(state.t, ops.r, ops.theta)
            rho_t = rho_t + s_rho
            mr_t = mr_t + s_mr
            mt_t = mt_t + s_mt
            s_rho, s_m = s_rho[-1], s_m + s_mr[-1]
        mr_t[0] = 0.0
        mt_t[0] = mt_t[-1] = 0.0
        rho_t[-1], mr_t[-1] = self.far_rates(rho, u_r, s_rho, s_m)
        return rho_t, mr_t, mt_t

    def cfl_dt(self, state: AxiState, safety: float) -> float:
        """safety x the advective and viscous limit; raises ValueError on a
        nonpositive density."""
        c = sound_speed(state.rho, self.params)
        speed = np.hypot(state.u_r, state.u_theta) + c
        adv = self.h_cell / speed
        visc = self.h_cell2 * state.rho / self.visc
        return float(safety * min(np.min(adv), np.min(visc)))

    def state_of(self, rho: np.ndarray, u: np.ndarray) -> AxiState:
        """The theta-independent state of a radial density and velocity."""
        return AxiState(0.0, self.profile.grid, self.agrid, self.ops.lift(rho),
                        *self.ops.lift_velocity(u))

    def mass_balance(self, state: AxiState):
        """FV mass rate against boundary fluxes (theta fluxes telescope away)."""
        rho_t, flux, _ = self.continuity(state.rho * state.u_r,
                                         pressure_unchecked(state.rho, self.params))
        rho_t = rho_t - self._theta_flux_div(state.rho, state.u_theta)
        w_ang = 2.0 * np.pi * self.ops.sin * self.agrid.dtheta
        interior = float(np.sum((self.dual_vol * rho_t[1:-1]) * w_ang[None, :]))
        boundary = float(np.sum((flux[0] - flux[-1]) * w_ang))
        return interior, boundary


def run_axi_stability(profile: SteadyProfile, params: FluidParams,
                      agrid: AngularGrid, config: AxiRunConfig) -> RunResult:
    """Integrate a mode-perturbed profile and grade decay per Legendre mode."""
    solver = AxiSolver(profile, params, agrid)
    # the radial equilibrium, lifted: the radial scheme is shared, so it is
    # a fixed point of the axisymmetric step too
    reference = SymSolver(profile, params).equilibrium()
    eq = solver.state_of(reference.rho_t, reference.u_t)
    state = perturb_axi(profile, agrid, config.amplitude, config.support,
                        ell=config.mode_ell)

    def measure(st):
        phi = st.rho - eq.rho
        psi_r = st.u_r - eq.u_r
        amp = legendre_amplitudes(phi, agrid, config.n_modes)
        return [float(np.max(np.sqrt(phi**2 + psi_r**2 + st.u_theta**2))),
                *np.max(np.abs(amp), axis=1)]

    h_min = float(min(np.min(solver.dr), solver.ops.r[0] * agrid.dtheta))
    res, samples = _relax(solver, state, reference, config, measure, h_min)
    mode_hist = np.asarray([s[1:] for s in samples])  # (n_out, n_modes)
    tail_sel = res.times >= 0.9 * config.t_end
    mode_floor = 1e-3 * params.rho_plus * config.amplitude
    mode_series = {}
    modes_ok = True
    for ell in range(config.n_modes):
        series = mode_hist[:, ell]
        mode_series[ell] = series
        if series[0] > mode_floor:  # carried by the initial perturbation
            m_decay = np.max(series) / max(np.max(series[tail_sel]), 1e-300)
            modes_ok = modes_ok and bool(m_decay >= config.decay_target)
    # the envelope is reported, not graded
    return replace(res, passed=res.passed and modes_ok,
                   reason=res.reason if modes_ok else "mode decay target missed",
                   mode_series=mode_series)
