"""Manufactured-solution cases shared by the convergence and acceptance tests.

The forcing is lambdified with common subexpressions (cse=True): the
unsimplified sympy expressions repeat the same derivatives many times, and
evaluating each once makes the forced MMS runs about three times faster.
"""

import numpy as np
import sympy as sp

from outflow import AngularGrid, RadialGrid, solve_steady
from outflow.evolve_axi import AxiSolver
from outflow.evolve_sym import SymSolver
from outflow.states import AxiState, SymState


def manufactured_sym(params, r_max):
    r, t = sp.symbols("r t", positive=True)
    rho_s = params.rho_plus + sp.Rational(1, 25) * sp.exp(-((r - sp.Rational(5, 2)) ** 2)) * sp.cos(sp.Rational(13, 10) * t)
    u_s = params.u_b * sp.exp(1 - r) + sp.Rational(3, 100) * sp.sin(
        sp.Rational(13, 10) * t) * (r - 1) * (r_max - r) * sp.exp(-((r - 3) ** 2))
    prs = params.k_pressure * rho_s**params.gamma
    visc = 2 * params.mu + params.lam
    s_rho = sp.diff(rho_s, t) + sp.diff(r**2 * rho_s * u_s, r) / r**2
    s_m = (sp.diff(rho_s * u_s, t) + sp.diff(r**2 * rho_s * u_s**2, r) / r**2
           + sp.diff(prs, r)
           - visc * sp.diff(sp.diff(r**2 * u_s, r) / r**2, r))
    fns = [sp.lambdify((r, t), expr, "numpy", cse=True)
           for expr in (rho_s, u_s, s_rho, s_m)]
    return fns

def mms_error(params, profile, m, dt, t_fin, fns):
    rho_f, u_f, s_rho_f, s_m_f = fns
    grid = RadialGrid.uniform(profile.grid.r_max, m)
    prof = solve_steady(params, grid)
    forcing = lambda t, r: (s_rho_f(r, t), s_m_f(r, t))  # noqa: E731
    solver = SymSolver(prof, params, forcing=forcing)
    solver.bc_far = lambda t: (rho_f(grid.r_max, t), u_f(grid.r_max, t))
    st = SymState(0.0, grid, rho_f(grid.nodes, 0.0), u_f(grid.nodes, 0.0))
    solver.apply_bc(st)
    steps = int(round(t_fin / dt))
    for _ in range(steps):
        st = solver.step(st, dt, safety=0.9)
    return max(np.max(np.abs(st.rho - rho_f(grid.nodes, st.t))),
               np.max(np.abs(st.u_rad - u_f(grid.nodes, st.t))))

def manufactured_axi(params, r_max, cse=True):
    """rho, u_r, u_theta and their forcing; cse=False lambdifies without
    common subexpressions, whose forcing differs by round-off."""
    r, th, t = sp.symbols("r theta t", positive=True)
    w = sp.Rational(13, 10)
    bump_r = sp.exp(-((r - sp.Rational(11, 5)) ** 2))
    g = (r - 1) * (r_max - r) * sp.exp(-((r - sp.Rational(5, 2)) ** 2))
    rho_s = params.rho_plus + sp.Rational(1, 25) * bump_r * sp.cos(w * t) * (
        1 + sp.Rational(2, 5) * sp.cos(th))
    ur_s = params.u_b * sp.exp(1 - r) + sp.Rational(3, 100) * sp.sin(w * t) * g * (
        1 + sp.Rational(3, 10) * sp.cos(th))
    ut_s = sp.Rational(1, 50) * sp.sin(w * t) * g * sp.sin(th) * sp.cos(th)

    s, c = sp.sin(th), sp.cos(th)
    prs = params.k_pressure * rho_s**params.gamma
    mu, lam = params.mu, params.lam

    div_u = sp.diff(r**2 * ur_s, r) / r**2 + sp.diff(s * ut_s, th) / (r * s)

    def lap_s(f):
        return (sp.diff(r**2 * sp.diff(f, r), r) / r**2
                + sp.diff(s * sp.diff(f, th), th) / (r**2 * s))

    lu_r = mu * (lap_s(ur_s) - 2 * ur_s / r**2
                 - 2 * sp.diff(ut_s, th) / r**2
                 - 2 * c / s * ut_s / r**2) + (mu + lam) * sp.diff(div_u, r)
    lu_t = mu * (lap_s(ut_s) + 2 * sp.diff(ur_s, th) / r**2
                 - ut_s / (r * s) ** 2) + (mu + lam) * sp.diff(div_u, th) / r

    s_rho = (sp.diff(rho_s, t) + sp.diff(r**2 * rho_s * ur_s, r) / r**2
             + sp.diff(s * rho_s * ut_s, th) / (r * s))
    s_mr = (sp.diff(rho_s * ur_s, t)
            + sp.diff(r**2 * rho_s * ur_s**2, r) / r**2
            + sp.diff(s * rho_s * ur_s * ut_s, th) / (r * s)
            - rho_s * ut_s**2 / r + sp.diff(prs, r) - lu_r)
    s_mt = (sp.diff(rho_s * ut_s, t)
            + sp.diff(r**2 * rho_s * ur_s * ut_s, r) / r**2
            + sp.diff(s * rho_s * ut_s**2, th) / (r * s)
            + rho_s * ur_s * ut_s / r + sp.diff(prs, th) / r - lu_t)
    return [sp.lambdify((r, th, t), e, "numpy", cse=cse)
            for e in (rho_s, ur_s, ut_s, s_rho, s_mr, s_mt)]

def mms_error_axi(params, r_max, m_r, n_theta, dt, t_fin, fns):
    rho_f, ur_f, ut_f, s_rho_f, s_mr_f, s_mt_f = fns
    grid = RadialGrid.uniform(r_max, m_r)
    agrid = AngularGrid(n_cells=n_theta)
    prof = solve_steady(params, grid)
    rr, tt = np.meshgrid(grid.nodes, agrid.centers, indexing="ij")

    def forcing(t, r, theta):
        return (s_rho_f(rr, tt, t), s_mr_f(rr, tt, t), s_mt_f(rr, tt, t))

    solver = AxiSolver(prof, params, agrid, forcing=forcing)
    solver.bc_far = lambda t: (rho_f(r_max, agrid.centers, t),
                               ur_f(r_max, np.pi / 2, t))
    st = AxiState(0.0, grid, agrid, rho_f(rr, tt, 0.0), ur_f(rr, tt, 0.0),
                  ut_f(rr, tt, 0.0))
    solver.apply_bc(st)
    for _ in range(int(round(t_fin / dt))):
        st = solver.step(st, dt, safety=0.9)
    return max(np.max(np.abs(st.rho - rho_f(rr, tt, st.t))),
               np.max(np.abs(st.u_r - ur_f(rr, tt, st.t))),
               np.max(np.abs(st.u_theta - ut_f(rr, tt, st.t))))
