import numpy as np
import pytest
import sympy as sp
from mms_cases import manufactured_sym, mms_error

from outflow import FluidParams, RadialGrid, solve_steady
from outflow.evolve_sym import (
    CFLViolation,
    PositivityLoss,
    SymRunConfig,
    SymSolver,
    _envelope_graded,
    odd_even_content,
    run_sym_stability,
)
from outflow.states import SymState, perturb_sym


@pytest.mark.parametrize("kind", ["uniform", "geometric"])
def test_viscous_rows_converge_to_the_closed_form_at_second_order(kind):
    """K u against (2 mu + lam) d_r[(r^2 u)_r / r^2] in closed form on r in
    [1, 5]: order >= 1.8 per halving over the interior rows and on the
    truncation row; the wall row holds no entry."""
    params = FluidParams(gamma=1.4, k_pressure=1.0, mu=1.0, lam=0.3,
                         rho_plus=1.0, u_b=-0.05, dim_n=3)
    r = sp.symbols("r", positive=True)
    u_s = sp.exp(1 - r) * (1 + r / 4) + sp.Rational(1, 10) / r**2
    want_s = (2 * params.mu + params.lam) * sp.diff(sp.diff(r**2 * u_s, r) / r**2, r)
    u_fn, want_fn = sp.lambdify(r, u_s), sp.lambdify(r, want_s)
    errs = []
    for m in (64, 128, 256):
        grid = getattr(RadialGrid, kind)(5.0, m)
        K = SymSolver(solve_steady(params, grid, tol=1e-8), params).K
        assert K.indptr[1] == 0
        err = np.abs(K @ u_fn(grid.nodes) - want_fn(grid.nodes))
        errs.append([np.max(err[1:-1]), err[-1]])
    errs = np.array(errs)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.8), orders


def test_rhs_vanishes_on_uniform_rest_state(acc_params):
    """Constant density at rest with no outflow: the discrete operator is exactly zero."""
    import dataclasses

    grid = RadialGrid.uniform(30.0, 128)
    profile = solve_steady(acc_params, grid, tol=1e-8)
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
    # the balance sums the continuity row that the step uses, Rhie-Chow
    # correction included
    assert interior == float(np.sum(solver.dual_vol * solver.rhs(st)[0][1:-1]))


@pytest.fixture(scope="module")
def run_equilibrium(run_profile, acc_params):
    return SymSolver(run_profile, acc_params).equilibrium()


def test_equilibrium_is_a_stationary_state_of_the_scheme(run_profile, acc_params,
                                                         run_equilibrium):
    solver = SymSolver(run_profile, acc_params)
    rho_t, m_t = solver.rhs(solver.state_of(run_equilibrium.rho_t, run_equilibrium.u_t))
    res = max(np.max(np.abs(rho_t)), np.max(np.abs(m_t)))
    assert res <= 1e-12
    assert run_equilibrium.residual_rst2 <= 1e-12
    assert run_equilibrium.u_t[0] == acc_params.u_b
    # within O(h^2) of the collocation profile
    assert np.max(np.abs(run_equilibrium.rho_t - run_profile.rho_t)) <= 1e-3


def test_equilibrium_is_a_fixed_point_of_step(run_profile, acc_params, run_equilibrium):
    solver = SymSolver(run_profile, acc_params)
    st = solver.state_of(run_equilibrium.rho_t, run_equilibrium.u_t)
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    for _ in range(200):
        st = solver.step(st, dt)
    drift = max(np.max(np.abs(st.rho - run_equilibrium.rho_t)),
                np.max(np.abs(st.u_rad - run_equilibrium.u_t)))
    assert drift <= 1e-12


def test_grid_scale_velocity_mode_decays_monotonically(small_profile, acc_params):
    """A 1e-3 (-1)^i velocity mode on the equilibrium, at 0.4 x the
    advective limit: 11 x the explicit viscous limit here, where an explicit
    step would amplify it.  The mode sits on the inner half of the nodes: at
    the truncation node the characteristic row turns a grid-scale mode into
    a smooth outgoing wave whatever the step."""
    solver = SymSolver(small_profile, acc_params)
    eq = solver.equilibrium()
    st = solver.state_of(eq.rho_t, eq.u_t)
    n = eq.u_t.size
    st.u_rad[1:n // 2] += 1e-3 * (-1.0) ** np.arange(1, n // 2)
    solver.apply_bc(st)
    adv, visc = solver.cfl_limits(st)
    assert adv >= 10.0 * visc
    gaps = []
    for _ in range(30):
        gaps.append(float(np.max(np.abs(st.u_rad - eq.u_t))))
        st = solver.step(st, 0.4 * adv)
    assert np.all(np.diff(gaps) <= 0.0), gaps
    assert gaps[-1] <= 0.1 * gaps[0]


def test_equilibrium_has_no_grid_scale_density_mode(acc_params):
    """Its odd-even content falls at least 3x per halving of h."""
    content = []
    for m in (511, 1023, 2047):
        prof = solve_steady(acc_params, RadialGrid.uniform(100.0, m), tol=1e-8)
        content.append(odd_even_content(SymSolver(prof, acc_params).equilibrium().rho_t))
    assert content[0] >= 3.0 * content[1] >= 9.0 * content[2], content


def test_unperturbed_wave_settles(run_profile, acc_params):
    """Stepped from the collocation profile, the wave comes to rest on the
    scheme's equilibrium: no undamped grid-scale mode keeps it moving."""
    solver = SymSolver(run_profile, acc_params)
    st = solver.state_of(run_profile.rho_t, run_profile.u_t)
    solver.apply_bc(st)
    while st.t < 64.0 - 1e-12:
        limit = solver.cfl_dt(st, 1.0)
        st = solver.step(st, min(0.4 * limit, 64.0 - st.t), limit=limit)
    rho_t, m_t = solver.rhs(st)
    assert max(np.max(np.abs(rho_t)), np.max(np.abs(m_t))) <= 1e-7


def test_far_end_holds_the_incoming_invariant(small_profile, acc_params):
    """apply_bc keeps w+ = u + 2c/(gamma-1) of the state and sets
    w- = u - 2c/(gamma-1) to that of the far-field values."""
    solver = SymSolver(small_profile, acc_params)
    st = perturb_sym(small_profile, 0.02, (1.5, 3.0))
    st.rho[-1] += 1e-3
    st.u_rad[-1] -= 2e-3

    g = acc_params.gamma

    def w(rho, u, sign):
        c = np.sqrt(g * acc_params.k_pressure * rho ** (g - 1.0))
        return u + sign * 2.0 * c / (g - 1.0)

    w_out = w(st.rho[-1], st.u_rad[-1], 1.0)
    solver.apply_bc(st)
    rho_far, u_far = small_profile.rho_t[-1], small_profile.u_t[-1]
    assert w(st.rho[-1], st.u_rad[-1], 1.0) == pytest.approx(w_out, abs=1e-14)
    assert w(st.rho[-1], st.u_rad[-1], -1.0) == pytest.approx(
        w(rho_far, u_far, -1.0), abs=1e-14)


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


def test_a_nan_limit_or_step_is_a_cfl_violation(small_profile, acc_params):
    """A NaN velocity makes the limit NaN, and the step stops on the CFL
    check with both values in its message, not on a later positivity scan;
    so does a NaN dt."""
    solver = SymSolver(small_profile, acc_params)
    st = perturb_sym(small_profile, 0.02, (1.5, 3.0))
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    with pytest.raises(CFLViolation, match=r"^dt = nan exceeds 0\.40 x \d"):
        solver.step(st, float("nan"))
    st.u_rad[40] = np.nan
    assert np.isnan(solver.cfl_dt(st, 1.0))
    with pytest.raises(CFLViolation, match=rf"^dt = {dt:.3e} exceeds 0\.40 x nan$"):
        solver.step(st, dt)


def test_step_neither_changes_nor_shares_its_input(small_profile, acc_params):
    """The stacked step works on its own arrays: the input state keeps every
    byte, and the state it returns shares no memory with it."""
    solver = SymSolver(small_profile, acc_params)
    st = perturb_sym(small_profile, 0.02, (1.5, 3.0))
    solver.apply_bc(st)
    fields = (st.rho, st.u_rad)
    before = [f.tobytes() for f in fields]
    out = solver.step(st, solver.cfl_dt(st, 0.4))
    assert [f.tobytes() for f in fields] == before
    assert not any(np.shares_memory(a, b) for a in (out.rho, out.u_rad) for b in fields)


@pytest.mark.parametrize("split", [False, True])
def test_successive_rates_share_no_memory(small_profile, acc_params, split):
    """Each rhs is a fresh array: no scratch buffer of the solver leaks out."""
    solver = SymSolver(small_profile, acc_params)
    st = perturb_sym(small_profile, 0.02, (1.5, 3.0))
    first, second = solver.rhs(st, split=split), solver.rhs(st, split=split)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == second.tobytes()


def test_positivity_loss_raised(run_profile, acc_params):
    r = run_profile.grid.nodes
    drain = lambda t: (np.full_like(r, -1e6), np.zeros_like(r))  # noqa: E731
    solver = SymSolver(run_profile, acc_params, forcing=drain)
    st = perturb_sym(run_profile, 0.02, (1.5, 3.0))
    with pytest.raises(PositivityLoss):
        solver.step(st, solver.cfl_dt(st, 0.4))


def test_crossed_far_invariants_are_a_positivity_loss(axi_profile, acc_params):
    """A far-end pair with w+ <= w- has no positive density at gamma > 1:
    a bare apply_bc and a step raise PositivityLoss, not the TypeError of a
    complex power."""
    solver = SymSolver(axi_profile, acc_params)

    def crossed():
        st = solver.state_of(axi_profile.rho_t, axi_profile.u_t)
        st.u_rad[-8:] = -20.0
        return st

    with pytest.raises(PositivityLoss, match="far-end invariants"):
        solver.apply_bc(crossed())
    st = crossed()
    with pytest.raises(PositivityLoss, match="far-end invariants"):
        solver.step(st, solver.cfl_dt(st, 0.4))


def test_step_without_a_limit_checks_the_density(run_profile, acc_params):
    """With no limit given, step checks the density before it computes one:
    a zero density is a PositivityLoss, as on every other path."""
    solver = SymSolver(run_profile, acc_params)
    st = perturb_sym(run_profile, 0.02, (1.5, 3.0))
    st.rho[5] = 0.0
    with pytest.raises(PositivityLoss, match="density hit zero"):
        solver.step(st, 1e-4)






@pytest.fixture(scope="module")
def mms_profile(acc_params):
    return solve_steady(acc_params, RadialGrid.uniform(5.0, 96), tol=1e-8)


@pytest.mark.slow
def test_manufactured_solution_order(mms_sym_errors):
    """Joint space-time refinement shows at least second order."""
    e1, e2 = mms_sym_errors
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


def test_a_run_that_breaks_the_corridor_fails_on_the_corridor(acc_params):
    """A large bump meets its decay target but leaves the density corridor:
    the run fails, and its reason names the corridor, not the decay."""
    profile = solve_steady(acc_params, RadialGrid.uniform(20.0, 127), tol=1e-8)
    cfg = SymRunConfig(t_end=3.0, amplitude=0.6, decay_target=5.0)
    res = run_sym_stability(profile, acc_params, cfg)
    assert res.decay_factor >= cfg.decay_target and not res.corridor_ok
    assert not res.passed
    assert "corridor" in res.reason and "decay" not in res.reason, res.reason


def test_amplitude_sweep(acc_params):
    """All sweep amplitudes decay past the target; peak energy is quadratic."""
    grid = RadialGrid.uniform(50.0, 512)
    prof = solve_steady(acc_params, grid, tol=1e-8)
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
    """Characteristic far row: R and 2R runs agree where they overlap.

    The grids share nodes exactly (h = 0.125 divides both spans), so the
    comparison isolates the truncation boundary; the horizon is long enough
    for a reflection off R = 30 to have travelled back into r < 15.
    """
    results = {}
    for r_max, m in ((30.0, 232), (60.0, 472)):
        grid = RadialGrid.uniform(r_max, m)
        prof = solve_steady(acc_params, grid, tol=1e-8)
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
        r = small_profile.grid.nodes
        forcing = lambda t: (fns[2](r, t), fns[3](r, t))  # noqa: E731
    solver = SymSolver(small_profile, acc_params, forcing=forcing)
    st = perturb_sym(small_profile, 0.02, (1.5, 3.0))
    solver.apply_bc(st)
    for _ in range(5):
        # the forcing speeds the flow up by about 0.07 per step at this dt,
        # so each step takes the limit of its own state
        dt = solver.cfl_dt(st, 0.4)
        a = solver.step(st, dt)
        b = solver.step(st, dt, limit=solver.cfl_dt(st, 1.0))
        assert a.t == b.t
        assert a.rho.tobytes() == b.rho.tobytes()
        assert a.u_rad.tobytes() == b.u_rad.tobytes()
        st = a


def test_relaxation_evaluates_the_cfl_limit_once_per_step(small_profile, acc_params,
                                                          monkeypatch):
    """One limit per step: the relaxation loop's, handed on to `step`."""
    calls = []
    cfl_dt = SymSolver.cfl_dt

    def counted(self, state, safety):
        calls.append(safety)
        return cfl_dt(self, state, safety)

    monkeypatch.setattr(SymSolver, "cfl_dt", counted)
    cfg = SymRunConfig(t_end=1.0, output_every=20, decay_target=1.0, reform_every=10)
    res = run_sym_stability(small_profile, acc_params, cfg)
    assert res.steps > 10
    assert len(calls) == res.steps


@pytest.mark.parametrize("fields", [
    {"cfl_safety": 0.0}, {"cfl_safety": -0.4}, {"cfl_safety": float("nan")},
    {"output_every": 0}, {"reform_every": -1}, {"dt": 0.0}, {"dt": float("nan")},
    {"t_end": 0.0}, {"t_end": -1.0}, {"t_end": float("nan")},
    {"amplitude": float("nan")}, {"amplitude": float("inf")},
    {"decay_target": float("nan")}, {"decay_target": float("inf")},
    {"decay_target": -1.0}, {"decay_target": 0.5},
])
def test_run_config_rejects_values_the_run_cannot_use(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        SymRunConfig(**fields)
    assert SymRunConfig(cfl_safety=1e-3, output_every=1, reform_every=0, dt=1e-6,
                        decay_target=1.0)


@pytest.mark.slow
def test_the_default_sampling_grades_the_acceptance_envelope(sym_acceptance_run):
    """The t = 200 acceptance run sampled at the default output_every keeps
    enough samples for the envelope gate: the initial state, every
    output_every-th step and the last."""
    res, _ = sym_acceptance_run
    every = SymRunConfig().output_every
    samples = 1 + res.steps // every + (res.steps % every != 0)
    assert _envelope_graded(np.arange(samples)), (res.steps, every, samples)


@pytest.mark.parametrize("output_every, graded", [(1, True), (20, False)])
def test_result_says_whether_the_envelope_was_graded(small_profile, acc_params,
                                                     output_every, graded):
    """63 steps: sampled every step the run has 64 samples, enough for the 20
    envelope windows; every 20th step it has 5, and passes ungraded."""
    cfg = SymRunConfig(t_end=3.0, output_every=output_every, decay_target=1.0,
                       reform_every=0)
    res = run_sym_stability(small_profile, acc_params, cfg)
    assert res.envelope_graded is graded
    assert (len(res.times) >= 40) is graded
    assert res.envelope_ok
    assert f"envelope_graded={graded}" in res.summary()
