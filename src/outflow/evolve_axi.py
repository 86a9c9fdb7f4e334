"""Axisymmetric (r, theta) integration of the outflow system.

The non-spherical solver shares the radial flux and viscous kernels of the
spherically symmetric one, so a theta-independent state reproduces that
solver's right-hand side to machine precision.  Angular stencils live on
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
from .params import FluidParams, pressure, sound_speed
from .states import AxiState, boundary_momentum_residual, perturb_axi
from .steady import SteadyProfile
from .evolve_sym import (
    CFLViolation,
    PositivityLoss,
    RunResult,
    SymSolver,
    _relax,
    onesided_first,
    radial_flux_div,
    radial_visc_div,
    radial_visc_w,
)

__all__ = [
    "AxiRunConfig",
    "AxiSolver",
    "run_axi_stability",
    "legendre_amplitudes",
    "boundary_momentum_residual",
    "viscous_formula_selfcheck",
]


@dataclass
class AxiRunConfig:
    t_end: float = 200.0
    dt: float | None = None
    cfl_safety: float = 0.4
    amplitude: float = 0.02
    support: tuple = (1.5, 3.0)
    mode_ell: int = 1
    output_every: int = 400
    decay_target: float = 5.0
    n_modes: int = 5  # project onto ell = 0..n_modes-1
    reform_every: int = 0  # check the linearised-form residual every k steps

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")


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


class AxiSolver:
    """Method-of-lines axisymmetric solver bound to a steady profile."""

    def __init__(self, profile: SteadyProfile, params: FluidParams,
                 agrid: AngularGrid, forcing=None):
        if params.dim_n != 3:
            raise ValueError("the evolution solver is three-dimensional")
        self.profile = profile
        self.params = params
        self.agrid = agrid
        self.forcing = forcing
        self.ops = AxiOps(profile.grid, agrid)
        self.r = profile.grid.nodes
        self.dr = np.diff(self.r)
        self.r_face = 0.5 * (self.r[:-1] + self.r[1:])
        edges = np.concatenate([[self.r[0]], self.r_face, [self.r[-1]]])
        self.dual_vol = (edges[2:-1] ** 3 - edges[1:-2] ** 3) / 3.0
        self.dface = np.diff(edges)[1:-1]
        self.sin_edge = np.sin(agrid.nodes)  # zero at both poles
        self.visc = 2.0 * params.mu + params.lam
        self.bc_far = lambda t: (profile.rho_t[-1], profile.u_t[-1])
        viscous_formula_selfcheck()

    # -- angular flux divergence: (1/(r sin)) d_theta(sin q u_theta) ---------
    def _theta_flux_div(self, q: np.ndarray, u_theta: np.ndarray) -> np.ndarray:
        g = q * u_theta
        flux = np.zeros((q.shape[0], self.agrid.n_cells + 1))
        flux[:, 1:-1] = self.sin_edge[None, 1:-1] * 0.5 * (g[:, :-1] + g[:, 1:])
        r = self.r[:, None]
        s = self.ops.sin[None, :]
        return (flux[:, 1:] - flux[:, :-1]) / (r * s * self.agrid.dtheta)

    def _lap_radial(self, f: np.ndarray) -> np.ndarray:
        """(1/r^2) d_r(r^2 d_r f) with face-centered first derivatives."""
        g_face = (self.r_face**2)[:, None] * (f[1:] - f[:-1]) / self.dr[:, None]
        out = np.zeros_like(f)
        out[1:-1] = (g_face[1:] - g_face[:-1]) / (
            self.dface[:, None] * (self.r[1:-1] ** 2)[:, None])
        return out

    def rhs(self, state: AxiState):
        """(rho_t, mr_t, mt_t); boundary rows are zeroed for BC application."""
        p = self.params
        ops = self.ops
        r = self.r[:, None]
        s = ops.sin[None, :]
        cot = (ops.cos / ops.sin)[None, :]
        rho, u_r, u_t = state.rho, state.u_r, state.u_theta
        if np.any(rho <= 0.0):
            raise PositivityLoss(f"density hit zero at t = {state.t:.6g}")
        m_r = rho * u_r
        m_t = rho * u_t

        rho_t, _ = radial_flux_div(self.r, self.r_face, self.dual_vol, m_r)
        rho_t[0] = -onesided_first(self.r, (self.r**2)[:, None] * m_r) / self.r[0] ** 2
        rho_t -= self._theta_flux_div(rho, u_t)
        rho_t[-1] = 0.0

        prs = pressure(rho, p)
        div_ang = ops.d_theta(s * u_t, parity=1) / (r * s)
        div_u = ops.d_r(r**2 * u_r) / r**2 + div_ang

        # radial momentum
        mr_t, _ = radial_flux_div(self.r, self.r_face, self.dual_vol, m_r * u_r)
        mr_t -= self._theta_flux_div(m_r, u_t)
        mr_t += rho * u_t**2 / r
        mr_t[1:-1] -= (prs[2:] - prs[:-2]) / (self.r[2:] - self.r[:-2])[:, None]
        w = radial_visc_w(self.r, self.r_face, self.dr, u_r)
        visc_r = self.visc * radial_visc_div(self.r_face, self.dface, w)
        visc_r += p.mu * (ops.d_theta(s * ops.d_theta(u_r, parity=1), parity=1)
                          / (r**2 * s)
                          - 2.0 * ops.d_theta(u_t, parity=-1) / r**2
                          - 2.0 * cot * u_t / r**2)
        visc_r += (p.mu + p.lam) * ops.d_r(div_ang)
        mr_t += visc_r

        # polar momentum
        mt_t, _ = radial_flux_div(self.r, self.r_face, self.dual_vol, m_t * u_r)
        mt_t -= self._theta_flux_div(m_t, u_t)
        mt_t -= rho * u_r * u_t / r
        mt_t -= ops.d_theta(prs, parity=1) / r
        visc_t = p.mu * (self._lap_radial(u_t)
                         + ops.d_theta(s * ops.d_theta(u_t, parity=-1), parity=-1)
                         / (r**2 * s)
                         + 2.0 * ops.d_theta(u_r, parity=1) / r**2
                         - u_t / (r * s) ** 2)
        visc_t += (p.mu + p.lam) * ops.d_theta(div_u, parity=1) / r
        mt_t += visc_t

        mr_t[0] = 0.0
        mr_t[-1] = 0.0
        mt_t[0] = 0.0
        mt_t[-1] = 0.0
        rho_t[-1] = 0.0
        if self.forcing is not None:
            s_rho, s_mr, s_mt = self.forcing(state.t, self.r, self.ops.theta)
            rho_t = rho_t + s_rho
            mr_t = mr_t + s_mr
            mt_t = mt_t + s_mt
            rho_t[-1] = 0.0
            mr_t[0] = mr_t[-1] = 0.0
            mt_t[0] = mt_t[-1] = 0.0
        return rho_t, mr_t, mt_t

    def dt_fields(self, state: AxiState):
        rho_t, mr_t, mt_t = self.rhs(state)
        return {
            "rho_t": rho_t,
            "u_t": (mr_t - state.u_r * rho_t) / state.rho,
            "utheta_t": (mt_t - state.u_theta * rho_t) / state.rho,
        }

    def cfl_dt(self, state: AxiState, safety: float) -> float:
        c = sound_speed(state.rho, self.params)
        h_r = np.minimum(np.concatenate([self.dr[:1], self.dr]),
                         np.concatenate([self.dr, self.dr[-1:]]))[:, None]
        h_cell = np.minimum(h_r, self.r[:, None] * self.agrid.dtheta)
        speed = np.hypot(state.u_r, state.u_theta) + c
        adv = h_cell / speed
        visc = h_cell**2 * state.rho / self.visc
        return float(safety * min(np.min(adv), np.min(visc)))

    def apply_bc(self, state: AxiState) -> None:
        rho_far, u_far = self.bc_far(state.t)
        state.u_r[0] = self.params.u_b
        state.u_theta[0] = 0.0
        state.rho[-1] = rho_far
        state.u_r[-1] = u_far
        state.u_theta[-1] = 0.0

    def step(self, state: AxiState, dt: float, safety: float = 0.4) -> AxiState:
        limit = self.cfl_dt(state, 1.0)
        if dt > safety * limit * 1.05:
            raise CFLViolation(f"dt = {dt:.3e} exceeds {safety:.2f} x {limit:.3e}")
        s1 = self._euler(state, dt)
        self.apply_bc(s1)
        s2 = self._euler(s1, dt)
        rho = 0.5 * (state.rho + s2.rho)
        m_r = 0.5 * (state.rho * state.u_r + s2.rho * s2.u_r)
        m_t = 0.5 * (state.rho * state.u_theta + s2.rho * s2.u_theta)
        if np.any(rho <= 0.0):
            raise PositivityLoss(f"density hit zero at t = {state.t + dt:.6g}")
        out = AxiState(state.t + dt, state.grid, state.agrid, rho,
                       m_r / rho, m_t / rho)
        self.apply_bc(out)
        return out

    def _euler(self, state: AxiState, dt: float) -> AxiState:
        rho_t, mr_t, mt_t = self.rhs(state)
        rho = state.rho + dt * rho_t
        if np.any(rho <= 0.0):
            raise PositivityLoss(f"density hit zero at t = {state.t + dt:.6g}")
        m_r = state.rho * state.u_r + dt * mr_t
        m_t = state.rho * state.u_theta + dt * mt_t
        return AxiState(state.t + dt, state.grid, state.agrid, rho,
                        m_r / rho, m_t / rho)

    def steady_residual(self) -> float:
        nt = self.agrid.n_cells
        s = AxiState(0.0, self.profile.grid, self.agrid,
                     np.repeat(self.profile.rho_t[:, None], nt, axis=1),
                     np.repeat(self.profile.u_t[:, None], nt, axis=1),
                     np.zeros((self.r.size, nt)))
        rho_t, mr_t, mt_t = self.rhs(s)
        return float(max(np.max(np.abs(rho_t)), np.max(np.abs(mr_t)),
                         np.max(np.abs(mt_t))))

    def mass_balance(self, state: AxiState):
        """FV mass rate against boundary fluxes (theta fluxes telescope away)."""
        m_r = state.rho * state.u_r
        rho_t, flux = radial_flux_div(self.r, self.r_face, self.dual_vol, m_r)
        rho_t = rho_t - self._theta_flux_div(state.rho, state.u_theta)
        w_ang = 2.0 * np.pi * self.ops.sin * self.agrid.dtheta
        interior = float(np.sum(
            (self.dual_vol[:, None] * rho_t[1:-1]) * w_ang[None, :]))
        boundary = float(np.sum((flux[0] - flux[-1]) * w_ang))
        return interior, boundary


# ---------------------------------------------------------------------------
# continuum-formula self-check of the viscous operator components

_SELFCHECK_DONE = False


def viscous_formula_selfcheck(tol: float = 1e-5):
    """Compare the spherical-component viscous formulas with Cartesian FD.

    Evaluates mu lap u + (mu+lam) grad div u for a smooth axisymmetric field
    both by the component formulas the solver discretises and by Cartesian
    finite differences of the extension; a curvature-term sign error would
    show up far above the gate.  Runs once per process.
    """
    global _SELFCHECK_DONE
    if _SELFCHECK_DONE:
        return
    from .sphops import cart_grad_div, cart_vec_lap, to_spherical, unit_vectors

    def ur_fn(r, th):
        return np.exp(1.0 - r) * (1.0 + 0.3 * np.cos(th))

    def ut_fn(r, th):
        return np.exp(1.0 - r) * 0.4 * np.sin(th) * np.cos(th)

    def field(x):
        r, th, _ = to_spherical(x, "V")
        rhat, that, _ = unit_vectors(x, "V", guard=False)
        return ur_fn(r, th)[..., None] * rhat + ut_fn(r, th)[..., None] * that

    rng = np.random.default_rng(7)
    rr = rng.uniform(1.3, 3.0, 6)
    th = rng.uniform(0.6, 2.5, 6)
    ph = rng.uniform(0, 2 * np.pi, 6)
    from .sphops import from_spherical

    pts = from_spherical(rr, th, ph, "V")
    rhat, that, _ = unit_vectors(pts, "V")

    h = 1e-4
    def d(f, i, j, rv, tv):  # mixed FD in (r, theta) of a profile function
        if (i, j) == (1, 0):
            return (f(rv + h, tv) - f(rv - h, tv)) / (2 * h)
        if (i, j) == (0, 1):
            return (f(rv, tv + h) - f(rv, tv - h)) / (2 * h)
        if (i, j) == (2, 0):
            return (f(rv + h, tv) - 2 * f(rv, tv) + f(rv - h, tv)) / h**2
        if (i, j) == (0, 2):
            return (f(rv, tv + h) - 2 * f(rv, tv) + f(rv, tv - h)) / h**2
        return (f(rv + h, tv + h) - f(rv + h, tv - h)
                - f(rv - h, tv + h) + f(rv - h, tv - h)) / (4 * h**2)

    s, c = np.sin(th), np.cos(th)
    ur, ut = ur_fn(rr, th), ut_fn(rr, th)

    def lap(f):
        return (d(f, 2, 0, rr, th) + 2 / rr * d(f, 1, 0, rr, th)
                + d(f, 0, 2, rr, th) / rr**2
                + (c / s) * d(f, 0, 1, rr, th) / rr**2)

    lap_r = lap(ur_fn) - 2 * ur / rr**2 - 2 * d(ut_fn, 0, 1, rr, th) / rr**2 \
        - 2 * (c / s) * ut / rr**2
    lap_t = lap(ut_fn) + 2 * d(ur_fn, 0, 1, rr, th) / rr**2 - ut / (rr * s) ** 2
    ddiv_r = (d(ur_fn, 2, 0, rr, th) + 2 * d(ur_fn, 1, 0, rr, th) / rr
              - 2 * ur / rr**2 + d(ut_fn, 1, 1, rr, th) / rr
              - d(ut_fn, 0, 1, rr, th) / rr**2
              + (c / s) * (d(ut_fn, 1, 0, rr, th) / rr - ut / rr**2))
    ddiv_t = (d(ur_fn, 1, 1, rr, th) + 2 * d(ur_fn, 0, 1, rr, th) / rr
              + d(ut_fn, 0, 2, rr, th) / rr
              + (c / s) * d(ut_fn, 0, 1, rr, th) / rr
              - ut / (rr * s**2)) / rr

    p_mu, p_lam = 1.0, 0.3
    formula_r = p_mu * lap_r + (p_mu + p_lam) * ddiv_r
    formula_t = p_mu * lap_t + (p_mu + p_lam) * ddiv_t

    cart = p_mu * cart_vec_lap(field, pts) + (p_mu + p_lam) * cart_grad_div(field, pts)
    got_r = np.sum(cart * rhat, axis=-1)
    got_t = np.sum(cart * that, axis=-1)
    err = max(np.max(np.abs(got_r - formula_r)), np.max(np.abs(got_t - formula_t)))
    if err > tol:
        raise AssertionError(
            f"viscous component formulas disagree with the Cartesian oracle: {err:.3e}"
        )
    _SELFCHECK_DONE = True


def run_axi_stability(profile: SteadyProfile, params: FluidParams,
                      agrid: AngularGrid, config: AxiRunConfig) -> RunResult:
    """Integrate a mode-perturbed profile and grade decay per Legendre mode."""
    solver = AxiSolver(profile, params, agrid)
    state = perturb_axi(profile, agrid, config.amplitude, config.support,
                        ell=config.mode_ell)

    def measure(st, base):
        phi = st.rho - base.rho[:, None]
        psi_r = st.u_r - base.u_rad[:, None]
        amp = legendre_amplitudes(phi, agrid, config.n_modes)
        return [float(np.max(np.sqrt(phi**2 + psi_r**2 + st.u_theta**2))),
                *np.max(np.abs(amp), axis=1)]

    h_min = float(min(np.min(solver.dr), solver.r[0] * agrid.dtheta))
    # unperturbed twin: the radial scheme is shared, so a theta-independent
    # base stays theta-independent and can be stepped by the 1D solver
    res, samples = _relax(solver, SymSolver(profile, params), state, config,
                          measure, h_min)
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
