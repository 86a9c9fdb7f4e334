import numpy as np
import pytest
from mms_cases import manufactured_sym, mms_error

from outflow import RadialGrid, solve_steady
from outflow.evolve_sym import (
    CFLViolation,
    PositivityLoss,
    SymRunConfig,
    SymSolver,
    run_sym_stability,
)
from outflow.states import SymState, perturb_sym


def test_rhs_vanishes_on_uniform_rest_state(acc_params):
    """Constant density at rest with no outflow: the discrete operator is exactly zero."""
    import dataclasses

    grid = RadialGrid.uniform(30.0, 128)
    profile = solve_steady(acc_params, grid)
    solver = SymSolver(profile, acc_params)
    p0 = dataclasses.replace(acc_params, u_b=-1e-300)
    st = SymState(0.0, grid, np.full(grid.nodes.size, acc_params.rho_plus),
                  np.zeros(grid.nodes.size))
    rho_t, m_t = solver.rhs(st)
    assert np.max(np.abs(rho_t)) == 0.0
    assert np.max(np.abs(m_t)) == 0.0
    del p0


def test_rhs_small_on_steady_profile(run_profile, acc_params):
    solver = SymSolver(run_profile, acc_params)
    assert solver.steady_residual() <= 1e-3


def test_steady_profile_near_fixed_point(run_profile, acc_params):
    solver = SymSolver(run_profile, acc_params)
    st = SymState(0.0, run_profile.grid, run_profile.rho_t.copy(),
                  run_profile.u_t.copy())
    solver.apply_bc(st)
    res0 = solver.steady_residual()
    dt = solver.cfl_dt(st, 0.4)
    for _ in range(1000):
        st = solver.step(st, dt)
    drift = max(np.max(np.abs(st.rho - run_profile.rho_t)),
                np.max(np.abs(st.u_rad - run_profile.u_t)))
    assert drift <= 10.0 * res0


def test_mass_bookkeeping_per_step(run_profile, acc_params):
    solver = SymSolver(run_profile, acc_params)
    st = perturb_sym(run_profile, 0.02, (1.5, 3.0))
    interior, boundary = solver.mass_balance(st)
    assert abs(interior - boundary) <= 1e-8 * max(abs(boundary), 1e-12)


def test_boundary_condition_preserved_in_time(run_profile, acc_params):
    """The discrete time difference of the velocity gap at r = 1 is exactly 0."""
    solver = SymSolver(run_profile, acc_params)
    st = perturb_sym(run_profile, 0.02, (1.5, 3.0))
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    psi_before = st.u_rad[0] - run_profile.u_t[0]
    for _ in range(5):
        st = solver.step(st, dt)
        psi_after = st.u_rad[0] - run_profile.u_t[0]
        assert psi_after - psi_before == 0.0


def test_cfl_violation_raised(run_profile, acc_params):
    solver = SymSolver(run_profile, acc_params)
    st = perturb_sym(run_profile, 0.02, (1.5, 3.0))
    dt = solver.cfl_dt(st, 5.0)  # far beyond the stable region
    with pytest.raises(CFLViolation):
        solver.step(st, dt)


def test_positivity_loss_raised(run_profile, acc_params):
    drain = lambda t, r: (np.full_like(r, -1e6), np.zeros_like(r))  # noqa: E731
    solver = SymSolver(run_profile, acc_params, forcing=drain)
    st = perturb_sym(run_profile, 0.02, (1.5, 3.0))
    with pytest.raises(PositivityLoss):
        solver.step(st, solver.cfl_dt(st, 0.4))






@pytest.fixture(scope="module")
def mms_profile(acc_params):
    return solve_steady(acc_params, RadialGrid.uniform(5.0, 96))


@pytest.mark.slow
def test_manufactured_solution_order(acc_params, mms_profile):
    """Joint space-time refinement shows at least second order."""
    fns = manufactured_sym(acc_params, 5.0)
    e1 = mms_error(acc_params, mms_profile, 96, 2.0e-4, 0.2, fns)
    e2 = mms_error(acc_params, mms_profile, 192, 0.5e-4, 0.2, fns)
    order = np.log2(e1 / e2)
    assert order >= 1.9, (e1, e2, order)


@pytest.mark.slow
def test_step_doubling_second_order_in_time(acc_params, mms_profile):
    fns = manufactured_sym(acc_params, 5.0)
    errs = [mms_error(acc_params, mms_profile, 128, dt, 0.128, fns)
            for dt in (1.6e-4, 0.8e-4, 0.4e-4)]
    d1 = abs(errs[0] - errs[1])
    d2 = abs(errs[1] - errs[2])
    order = np.log2(d1 / d2)
    assert 1.5 <= order <= 2.6, (errs, order)


def test_stability_run_short(run_profile, acc_params):
    cfg = SymRunConfig(t_end=25.0, amplitude=0.02, support=(1.5, 3.0),
                       output_every=200, decay_target=5.0, reform_every=50)
    res = run_sym_stability(run_profile, acc_params, cfg)
    assert res.passed, res.summary()
    assert res.corridor_ok
    assert res.reform_gap is not None and res.reform_gap <= 1e-8
    assert res.compat[0] == 0.0


def test_amplitude_sweep(acc_params):
    """All sweep amplitudes decay past the target; peak energy is quadratic."""
    grid = RadialGrid.uniform(50.0, 512)
    prof = solve_steady(acc_params, grid)
    peaks = []
    for amp in (0.01, 0.02, 0.04):
        cfg = SymRunConfig(t_end=40.0, amplitude=amp, support=(1.5, 3.0),
                           output_every=200, decay_target=10.0)
        res = run_sym_stability(prof, acc_params, cfg)
        assert res.decay_factor >= 10.0, (amp, res.summary())
        assert res.corridor_ok
        peaks.append(max(r.total_relative_energy for r in res.reports))
    for lo, hi in zip(peaks[:-1], peaks[1:]):
        assert 4.0 / 1.3 <= hi / lo <= 4.0 * 1.3


def test_truncation_radius_insensitivity(acc_params):
    """Dirichlet-to-profile far field: R and 2R runs agree where they overlap.

    The grids share nodes exactly (h = 0.125 divides both spans), so the
    comparison isolates the truncation boundary; the horizon is long enough
    for a reflection off R = 30 to have travelled back into r < 15.
    """
    results = {}
    for r_max, m in ((30.0, 232), (60.0, 472)):
        grid = RadialGrid.uniform(r_max, m)
        prof = solve_steady(acc_params, grid)
        cfg = SymRunConfig(t_end=40.0, amplitude=0.02, support=(1.5, 3.0),
                           output_every=10**9, decay_target=1.0)
        res = run_sym_stability(prof, acc_params, cfg)
        st = res.final_state
        results[r_max] = (grid.nodes, st.rho - prof.rho_t)
    r1, phi1 = results[30.0]
    r2, phi2 = results[60.0]
    overlap = r1 <= 15.0
    assert np.max(np.abs(r2[: overlap.sum()] - r1[overlap])) == 0.0
    gap = np.max(np.abs(phi1[overlap] - phi2[: overlap.sum()]))
    assert gap <= 0.05 * max(np.max(np.abs(phi1[overlap])), 1e-12)


@pytest.mark.parametrize("forced", [False, True])
def test_step_with_given_limit_is_bitwise_the_same(small_profile, acc_params, forced):
    """step(s, dt, limit=cfl_dt(s, 1)) reproduces step(s, dt) bit for bit."""
    forcing = None
    if forced:
        fns = manufactured_sym(acc_params, small_profile.grid.r_max)
        forcing = lambda t, r: (fns[2](r, t), fns[3](r, t))  # noqa: E731
    solver = SymSolver(small_profile, acc_params, forcing=forcing)
    st = perturb_sym(small_profile, 0.02, (1.5, 3.0))
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    for _ in range(5):
        a = solver.step(st, dt)
        b = solver.step(st, dt, limit=solver.cfl_dt(st, 1.0))
        assert a.t == b.t
        assert a.rho.tobytes() == b.rho.tobytes()
        assert a.u_rad.tobytes() == b.u_rad.tobytes()
        st = a


def test_relaxation_evaluates_the_cfl_limit_once_per_step(small_profile, acc_params,
                                                          monkeypatch):
    """One limit for the perturbed step and one inside the twin's own step."""
    calls = []
    cfl_dt = SymSolver.cfl_dt

    def counted(self, state, safety):
        calls.append(safety)
        return cfl_dt(self, state, safety)

    monkeypatch.setattr(SymSolver, "cfl_dt", counted)
    cfg = SymRunConfig(t_end=0.2, output_every=20, decay_target=1.0, reform_every=10)
    res = run_sym_stability(small_profile, acc_params, cfg)
    assert res.steps > 10
    assert len(calls) == 2 * res.steps
