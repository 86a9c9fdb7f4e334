"""Acceptance suite: every gate at its stated tolerance, one verdict line each.

Criterion 1 expects the second velocity derivative to decay like
r^-(n+1) = r^-4, because the mass-flux identity U = m r^(1-n)/rho makes the
r^(1-n) prefactor dominate it.
"""

import time

import numpy as np
import pytest

from outflow import AngularGrid, FluidParams, RadialGrid, solve_steady, verify_decay
from outflow.energy import h_identities, potential_energy, potential_energy_quadrature
from outflow.evolve_axi import AxiSolver, legendre_amplitudes
from outflow.evolve_sym import SymSolver
from outflow.opchecks import hardy_check, run_verify_ops
from outflow.states import AxiState, SymState
from outflow.steady import div_u_profile
from mms_cases import manufactured_sym, mms_error


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_stationary_decay_rates(acc_profile):
    t0 = time.time()
    rep = verify_decay(acc_profile, slope_tol=0.2)
    wall = time.time() - t0
    targets = {"rho_minus_rho_plus": -4, "d_u": -3, "d_rho": -5,
               "d2_u": -4, "d2_rho": -6}
    oks = {k: abs(rep.slopes[k] - targets[k]) <= 0.2 for k in targets}
    detail = ", ".join(f"{k}={rep.slopes[k]:+.3f} (target {targets[k]:+d}, "
                       f"{'ok' if oks[k] else 'off'})" for k in targets)
    ok = all(oks.values()) and wall <= 10.0
    _verdict(1, ok, detail + f"; wall={wall:.2f}s")
    assert wall <= 10.0
    for k in targets:
        assert oks[k], (
            f"slope {k} = {rep.slopes[k]:+.3f} misses target {targets[k]} +/- 0.2")
    assert rep.targets == targets
    assert rep.ok


def test_criterion_02_mass_flux_identity(acc_profile):
    r = acc_profile.r
    mf = r**2 * acc_profile.rho_t * acc_profile.u_t
    target = acc_profile.params.u_b * acc_profile.rho_t[0]
    dev = float(np.max(np.abs(mf - target)) / abs(target))
    ok = dev <= 1e-10
    _verdict(2, ok, f"max relative deviation {dev:.3e}")
    assert ok


def test_criterion_03_monotonicity_and_div(acc_profile):
    mono_rho = bool(np.all(np.diff(acc_profile.rho_t) > 0))
    mono_u = bool(np.all(np.diff(np.abs(acc_profile.u_t)) < 0))
    d1, _ = div_u_profile(acc_profile)
    pos = bool(np.min(d1) > 0)
    sel = (acc_profile.r >= acc_profile.grid.r_max**0.4) & \
        (acc_profile.r <= acc_profile.grid.r_max**0.9)
    slope = float(np.polyfit(np.log(acc_profile.r[sel]), np.log(d1[sel]), 1)[0])
    slope_ok = abs(slope + 7.0) <= 0.3
    ok = mono_rho and mono_u and pos and slope_ok
    _verdict(3, ok, f"rho up={mono_rho}, |U| down={mono_u}, div>0={pos}, "
                    f"div slope={slope:+.3f}")
    assert ok


def test_criterion_04_operator_suite():
    t0 = time.time()
    rows = run_verify_ops(seed=0)
    wall = time.time() - t0
    bad = [r for r in rows if not r.passed]
    ok = not bad and wall <= 60.0
    _verdict(4, ok, f"{len(rows)} checks, {len(bad)} failures, wall={wall:.1f}s")
    assert wall <= 60.0
    assert not bad, bad


def test_criterion_05_hardy():
    t0 = time.time()
    r_of = lambda x: np.linalg.norm(x, axis=-1)  # noqa: E731
    fields = {
        "inv_r2": lambda x: r_of(x) ** -2.0,
        "radial_exp": lambda x: np.exp(1.0 - r_of(x)),
        "dipole": lambda x: x[..., 2] / r_of(x) ** 3,
        "skewed": lambda x: np.exp(1.0 - r_of(x)) * (1 + x[..., 0] / (2 * r_of(x))),
        "swirl": lambda x: (np.stack([-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])],
                                     axis=-1) / r_of(x)[..., None] ** 3),
    }
    all_hold = True
    for name, u in fields.items():
        lhs, rhs, _ = hardy_check(u)
        all_hold = all_hold and (lhs <= rhs)
    lhs, rhs, ratio = hardy_check(lambda x: r_of(x) ** -2.0)
    closed_ok = (abs(lhs - 16 * np.pi / 3) / (16 * np.pi / 3) <= 1e-3
                 and abs(rhs - 32 * np.pi) / (32 * np.pi) <= 1e-3)
    wall = time.time() - t0
    ok = all_hold and closed_ok and wall <= 10.0
    _verdict(5, ok, f"{len(fields)} fields hold; closed form lhs={lhs:.6f} "
                    f"rhs={rhs:.4f} ratio={ratio:.4f}; wall={wall:.1f}s")
    assert ok


def test_criterion_06_energy_identities():
    t0 = time.time()
    worst_quad = 0.0
    worst_iden = 0.0
    for gamma in (1.0, 1.4, 2.0):
        p = FluidParams(gamma=gamma)
        grid = np.linspace(0.4, 2.5, 20)
        for z in grid:
            for x in grid:
                closed = float(potential_energy(z, x, p))
                quad = potential_energy_quadrature(z, x, p)
                worst_quad = max(worst_quad,
                                 abs(closed - quad) / (1.0 + abs(closed)))
        zz, xx = np.meshgrid(grid, grid)
        res = h_identities(zz.ravel(), xx.ravel(), p)
        worst_iden = max(worst_iden, float(max(np.max(np.abs(r)) for r in res)))
    wall = time.time() - t0
    ok = worst_quad <= 1e-8 and worst_iden <= 1e-6 and wall <= 5.0
    _verdict(6, ok, f"quadrature gap {worst_quad:.2e}, identity residual "
                    f"{worst_iden:.2e}, wall={wall:.1f}s")
    assert ok


@pytest.mark.slow
def test_criterion_07_reformulation_equivalence(sym_acceptance_run,
                                                axi_acceptance_run):
    sym_res, _ = sym_acceptance_run
    axi_res, _ = axi_acceptance_run
    ok = (sym_res.reform_gap is not None and sym_res.reform_gap <= 1e-8
          and axi_res.reform_gap is not None and axi_res.reform_gap <= 1e-8)
    _verdict(7, ok, f"sym gap {sym_res.reform_gap:.2e} over "
                    f"{sym_res.reform_checks} checks; axi gap "
                    f"{axi_res.reform_gap:.2e} over {axi_res.reform_checks}")
    assert ok


@pytest.mark.slow
def test_criterion_08_spherical_stability(sym_acceptance_run):
    res, wall = sym_acceptance_run
    ok = (res.decay_factor >= 10.0 and res.corridor_ok and res.envelope_ok
          and res.monitor_uphill <= res.tau_scheme and wall <= 300.0)
    _verdict(8, ok, f"decay={res.decay_factor:.1f}, corridor={res.corridor_ok}, "
                    f"envelope={res.envelope_ok}, uphill={res.monitor_uphill:.2e} "
                    f"<= tau={res.tau_scheme:.2e}, steps={res.steps}, "
                    f"wall={wall:.0f}s")
    assert res.decay_factor >= 10.0
    assert res.corridor_ok
    assert len(res.times) >= 40  # fewer samples and the envelope is not graded
    assert res.envelope_ok
    assert res.monitor_uphill <= res.tau_scheme
    assert wall <= 300.0


@pytest.mark.slow
def test_criterion_09_axisymmetric_stability(axi_acceptance_run, axi_profile,
                                             acc_params):
    res, wall = axi_acceptance_run
    mode1 = res.mode_series[1]
    tail = res.times >= 0.9 * res.times[-1]
    mode_decay = float(np.max(mode1) / max(np.max(mode1[tail]), 1e-300))

    # symmetry preservation at the acceptance grid
    agrid = AngularGrid(n_cells=32)
    solver = AxiSolver(axi_profile, acc_params, agrid)
    from outflow.states import perturb_axi

    st = perturb_axi(axi_profile, agrid, 0.02, (1.5, 3.0), ell=0)
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    for _ in range(200):
        st = solver.step(st, dt)
    amp = legendre_amplitudes(st.rho - axi_profile.rho_t[:, None], agrid)
    sym_floor = float(np.max(np.abs(amp[1:])))

    # reduction consistency on theta-independent data
    sym_solver = SymSolver(axi_profile, acc_params)
    rho = axi_profile.rho_t + 0.02 * np.exp(-((axi_profile.r - 2.5) / 0.5) ** 2)
    u = axi_profile.u_t.copy()
    st1 = SymState(0.0, axi_profile.grid, rho, u)
    nt = agrid.n_cells
    st2 = AxiState(0.0, axi_profile.grid, agrid,
                   np.repeat(rho[:, None], nt, 1), np.repeat(u[:, None], nt, 1),
                   np.zeros((axi_profile.r.size, nt)))
    rt1, mt1 = sym_solver.rhs(st1)
    rt2, mrt2, mtt2 = solver.rhs(st2)
    reduction_gap = float(max(np.max(np.abs(rt2 - rt1[:, None])),
                              np.max(np.abs(mrt2 - mt1[:, None])),
                              np.max(np.abs(mtt2))))

    ok = (res.decay_factor >= 5.0 and mode_decay >= 5.0 and res.passed
          and sym_floor <= 1e-8 and reduction_gap <= 1e-10 and wall <= 1200.0)
    _verdict(9, ok, f"sup decay={res.decay_factor:.1f}, mode-1 decay="
                    f"{mode_decay:.1f}, corridor={res.corridor_ok}, "
                    f"uphill={res.monitor_uphill:.2e} <= tau={res.tau_scheme:.2e}, "
                    f"sym floor={sym_floor:.1e}, reduction gap="
                    f"{reduction_gap:.1e}, wall={wall:.0f}s")
    assert res.decay_factor >= 5.0
    assert mode_decay >= 5.0
    assert res.corridor_ok
    assert res.monitor_uphill <= res.tau_scheme
    assert sym_floor <= 1e-8
    assert reduction_gap <= 1e-10
    assert wall <= 1200.0


@pytest.mark.slow
def test_criterion_10_convergence_orders(acc_params, mms_sym_errors, mms_axi_errors):
    e1, e2 = mms_sym_errors
    order_sym = float(np.log2(e1 / e2))

    a1, a2 = mms_axi_errors
    order_axi = float(np.log2(a1 / a2))

    prof = solve_steady(acc_params, RadialGrid.uniform(5.0, 96), tol=1e-8)
    fns = manufactured_sym(acc_params, 5.0)
    errs = [mms_error(acc_params, prof, 128, dt, 0.128, fns)
            for dt in (1.6e-4, 0.8e-4, 0.4e-4)]
    order_time = float(np.log2(abs(errs[0] - errs[1]) / abs(errs[1] - errs[2])))

    ok = order_sym >= 1.9 and order_axi >= 1.8 and 1.5 <= order_time <= 2.6
    _verdict(10, ok, f"sym order={order_sym:.2f}, axi order={order_axi:.2f}, "
                     f"time order={order_time:.2f}")
    assert order_sym >= 1.9
    assert order_axi >= 1.8
    assert 1.5 <= order_time <= 2.6
