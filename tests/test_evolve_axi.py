import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mms_cases import manufactured_axi, manufactured_sym

from outflow import AngularGrid, FluidParams, RadialGrid, solve_steady
from outflow.discrete import AxiOps
from outflow.evolve_axi import (
    N_MODES,
    AxiRunConfig,
    AxiSolver,
    legendre_amplitudes,
    run_axi_stability,
)
from outflow.evolve_sym import (
    ARS_DELTA,
    ARS_GAMMA,
    CFLViolation,
    PositivityLoss,
    SymSolver,
    tridiagonal_solver,
)
from outflow.sphops import (
    cart_grad_div,
    cart_vec_lap,
    from_spherical,
    to_spherical,
    unit_vectors,
)
from outflow.states import AxiState, SymState, boundary_momentum_residual, perturb_axi


@pytest.fixture(scope="module")
def agrid():
    return AngularGrid(n_cells=32)


# the smooth field both viscous operators are checked on, with mu = 1, lam = 0.3
MU, LAM = 1.0, 0.3


def _ur(r, th):
    return np.exp(1.0 - r) * (1.0 + 0.3 * np.cos(th))


def _ut(r, th):
    return 0.4 * np.exp(1.0 - r) * np.sin(th) * np.cos(th)


def _cartesian_visc(ops):
    """(u_r, u_theta) on the grid of ops and the (r, theta) components of
    mu lap u + (mu + lam) grad div u of the field's Cartesian extension."""
    def field(x):
        r, th, _ = to_spherical(x, "V")
        rhat, that, _ = unit_vectors(x, "V")
        return _ur(r, th)[..., None] * rhat + _ut(r, th)[..., None] * that

    r, th = np.meshgrid(ops.r, ops.theta, indexing="ij")
    pts = from_spherical(r.ravel(), th.ravel(), np.full(r.size, 0.3), "V")
    rhat, that, _ = unit_vectors(pts, "V")
    cart = MU * cart_vec_lap(field, pts) + (MU + LAM) * cart_grad_div(field, pts)
    return ((_ur(r, th), _ut(r, th)),
            tuple(np.sum(cart * e, axis=-1).reshape(r.shape) for e in (rhat, that)))


def test_axi_visc_converges_to_the_cartesian_operator_at_second_order():
    """AxiOps.visc against mu lap u + (mu + lam) grad div u of the Cartesian
    extension, on r in [1, 5]: order >= 1.8 per halving of both steps, for
    each component, over all nodes and on the wall ring alone."""
    errs = []
    for m, n_cells in ((64, 16), (128, 32), (256, 64)):
        ops = AxiOps(RadialGrid.uniform(5.0, m), AngularGrid(n_cells=n_cells))
        u, want = _cartesian_visc(ops)
        du = ops.first_derivs(u)
        row = []
        for g, w in zip(ops.visc(u, MU, LAM, du, ops.div(u, du)), want):
            err = np.abs(g - w)
            row += [np.max(err), np.max(err[0])]
        errs.append(row)
    errs = np.array(errs)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.8), orders


def test_assembled_viscous_operator_converges_to_the_cartesian_operator_at_second_order():
    """AxiSolver.V on [u_r, u_theta, d_theta u_r] against the same Cartesian
    operator: order >= 1.8 per halving of both steps on the interior rows,
    for the radial component at every angle and for the polar one where
    sin(theta) >= 1/4, and on the far radial row, the source of
    `far_rates`.  The wall rows and the far polar row hold no entry.

    The polar rows difference d_theta(sin d_theta u_theta) / sin and
    u_theta / sin^2, which cancel to leading order at the poles; in the two
    pole cells of each row their error falls only linearly (0.32, 0.20,
    0.11 at these grids), so the polar order is taken away from them."""
    params = FluidParams(gamma=1.4, k_pressure=1.0, mu=MU, lam=LAM,
                         rho_plus=1.0, u_b=-0.05, dim_n=3)
    errs = []
    for m, n_cells in ((64, 16), (128, 32), (256, 64)):
        profile = solve_steady(params, RadialGrid.uniform(5.0, m), tol=1e-8)
        solver = AxiSolver(profile, params, AngularGrid(n_cells=n_cells))
        ops = solver.ops
        rows = np.diff(solver.V.indptr).reshape((2, ops.r.size, n_cells))
        assert not rows[:, 0].any() and not rows[1, -1].any()
        assert rows[0, 1:].all() and rows[1, 1:-1].all()
        (u_r, u_t), want = _cartesian_visc(ops)
        x = np.concatenate((u_r, u_t, ops.d_theta(u_r, parity=1)), axis=None)
        got = (solver.V @ x).reshape(rows.shape)
        err_r, err_t = (np.abs(g - w) for g, w in zip(got, want))
        errs.append([np.max(err_r[1:-1]), np.max(err_t[1:-1, ops.sin >= 0.25]),
                     np.max(err_r[-1])])
    errs = np.array(errs)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.8), orders


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_rhs_of_a_lifted_radial_state_is_the_radial_rhs_bit_for_bit(lam, agrid):
    """On theta-independent data d_theta u_r and u_theta are exactly 0, so
    the assembled polar rows are sums of zeros and the radial rows sum the
    entries of the radial solver's K in K's order: every rate is the radial
    one bit for bit and the polar rate is exactly 0, whole and split,
    unforced and under the spherical MMS forcing and its lift with no polar
    source."""
    params = FluidParams(gamma=1.4, k_pressure=1.0, mu=1.0, lam=lam,
                         rho_plus=1.0, u_b=-0.05, dim_n=3)
    profile = solve_steady(params, RadialGrid.uniform(20.0, 128), tol=1e-8)
    st1, st2 = _theta_independent_pair(profile, params, agrid)
    st1.t = st2.t = 0.3
    fns, r = manufactured_sym(params, profile.grid.r_max), profile.grid.nodes

    def sym_forcing(t):
        return fns[2](r, t), fns[3](r, t)

    def axi_forcing(t):
        f_rho, f_m = (np.repeat(f[:, None], agrid.n_cells, 1) for f in sym_forcing(t))
        return f_rho, f_m, np.zeros(f_rho.shape)

    for forcings in ((None, None), (sym_forcing, axi_forcing)):
        sym = SymSolver(profile, params, forcing=forcings[0])
        axi = AxiSolver(profile, params, agrid, forcing=forcings[1])
        for split in (False, True):
            rt1, mt1 = sym.rhs(st1, split=split)
            rt2, mrt2, mtt2 = axi.rhs(st2, split=split)
            assert np.max(np.abs(rt2 - rt1[:, None])) == 0.0
            assert np.max(np.abs(mrt2 - mt1[:, None])) == 0.0
            assert np.all(mtt2 == 0.0)


def _theta_independent_pair(profile, params, agrid):
    """A radial state and its theta-independent axisymmetric copy."""
    grid = profile.grid
    rho = profile.rho_t + 0.02 * np.exp(-((grid.nodes - 2.5) / 0.5) ** 2)
    u = profile.u_t + 0.01 * np.exp(-((grid.nodes - 3.5) / 0.7) ** 2)
    u[0] = params.u_b
    nt = agrid.n_cells
    st2 = AxiState(0.0, grid, agrid, np.repeat(rho[:, None], nt, 1),
                   np.repeat(u[:, None], nt, 1), np.zeros((grid.nodes.size, nt)))
    return SymState(0.0, grid, rho, u), st2


def test_lifted_equilibrium_is_stationary(small_profile, acc_params, agrid):
    """The radial equilibrium, lifted, is a stationary state of the
    axisymmetric scheme too: the run's reference serves both geometries."""
    eq = SymSolver(small_profile, acc_params).equilibrium()
    solver = AxiSolver(small_profile, acc_params, agrid)
    st = solver.state_of(eq.rho_t, eq.u_t)
    assert max(np.max(np.abs(f)) for f in solver.rhs(st)) <= 1e-10


def test_step_tracks_radial_solver(small_profile, acc_params, agrid):
    """The shared SSP step keeps theta-independent data on the radial
    solver's trajectory, with no polar velocity."""
    solver = AxiSolver(small_profile, acc_params, agrid)
    sym = SymSolver(small_profile, acc_params)
    st1, st2 = _theta_independent_pair(small_profile, acc_params, agrid)
    solver.apply_bc(st2)
    sym.apply_bc(st1)
    dt = min(solver.cfl_dt(st2, 0.4), sym.cfl_dt(st1, 0.4))
    for _ in range(50):
        st1 = sym.step(st1, dt)
        st2 = solver.step(st2, dt)
    assert st2.t == st1.t
    assert np.max(np.abs(st2.rho - st1.rho[:, None])) <= 1e-10
    assert np.max(np.abs(st2.u_r - st1.u_rad[:, None])) <= 1e-10
    assert np.max(np.abs(st2.u_theta)) == 0.0


def test_step_is_the_radial_step_bit_for_bit(small_profile, acc_params, agrid):
    """Over 200 steps theta-independent data keep every bit of the radial
    solver's density and radial velocity: the explicit rates agree bit for
    bit, the radial lines share the radial factor, the ring correction is
    exactly 0 and the far end takes its powers in one arithmetic."""
    solver = AxiSolver(small_profile, acc_params, agrid)
    sym = SymSolver(small_profile, acc_params)
    st1, st2 = _theta_independent_pair(small_profile, acc_params, agrid)
    solver.apply_bc(st2)
    sym.apply_bc(st1)
    dt = solver.cfl_dt(st2, 0.4)
    for _ in range(200):
        st1 = sym.step(st1, dt)
        st2 = solver.step(st2, dt)
        assert np.array_equal(st2.rho, np.repeat(st1.rho[:, None], agrid.n_cells, 1))
        assert np.array_equal(st2.u_r, np.repeat(st1.u_rad[:, None], agrid.n_cells, 1))
        assert np.all(st2.u_theta == 0.0)


def test_lifted_equilibrium_is_a_fixed_point_of_step(small_profile, acc_params, agrid):
    solver = AxiSolver(small_profile, acc_params, agrid)
    eq = SymSolver(small_profile, acc_params).equilibrium()
    st = solver.state_of(eq.rho_t, eq.u_t)
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    for _ in range(200):
        st = solver.step(st, dt)
    drift = max(np.max(np.abs(st.rho - eq.rho_t[:, None])),
                np.max(np.abs(st.u_r - eq.u_t[:, None])), np.max(np.abs(st.u_theta)))
    assert drift <= 1e-12


def test_grid_scale_velocity_mode_decays_monotonically(small_profile, acc_params, agrid):
    """A 1e-3 (-1)^(i+j) mode in both velocity components on the lifted
    equilibrium, at 0.4 x the advective limit: 16 x the explicit viscous
    limit here, where an explicit step would amplify it.  The mode sits on
    the inner half of the nodes: at the truncation node the characteristic
    row turns a grid-scale mode into a smooth outgoing wave whatever the step."""
    solver = AxiSolver(small_profile, acc_params, agrid)
    eq = SymSolver(small_profile, acc_params).equilibrium()
    st = solver.state_of(eq.rho_t, eq.u_t)
    n = eq.rho_t.size
    i, j = np.arange(1, n // 2)[:, None], np.arange(agrid.n_cells)[None, :]
    st.u_r[1:n // 2] += 1e-3 * (-1.0) ** (i + j)
    st.u_theta[1:n // 2] += 1e-3 * (-1.0) ** (i + j)
    solver.apply_bc(st)
    adv, visc = solver.cfl_limits(st)
    assert adv >= 10.0 * visc
    gaps = []
    for _ in range(30):
        gaps.append(max(np.max(np.abs(st.u_r - eq.u_t[:, None])),
                        np.max(np.abs(st.u_theta))))
        st = solver.step(st, 0.4 * adv)
    assert np.all(np.diff(gaps) <= 0.0), gaps
    assert gaps[-1] <= 0.1 * gaps[0]


@pytest.mark.parametrize("lam", [0.3, 2.0])
def test_implicit_solve_inverts_the_implicit_rows(lam):
    """Each component's solve returns v with (rho_ref - a V_I) v = m* on the
    interior rows to round-off, the end values of v given, for a real ring
    spectrum (lam = 0.3) and one with complex pairs (lam = 2)."""
    params = FluidParams(gamma=1.4, k_pressure=1.0, mu=1.0, lam=lam,
                         rho_plus=1.0, u_b=-0.05, dim_n=3)
    profile = solve_steady(params, RadialGrid.uniform(20.0, 63), tol=1e-8)
    solver = AxiSolver(profile, params, AngularGrid(n_cells=16))
    a, rho = 0.02, solver.ops.lift(profile.rho_t)
    rng = np.random.default_rng(1)
    m_star, v = rng.standard_normal((2, 2) + rho.shape)
    v[1, [0, -1]] = 0.0  # u_theta has no end values
    for k, (line, solve) in enumerate(zip(solver.lines, solver._factor(a))):
        b = line.load(m_star[k], v[k, 0], v[k, -1], a)
        v[k, 1:-1] = line.back * solve(b) / rho[1:-1]
    x = np.concatenate((v[0], v[1], solver.ops.d_theta(v[0], parity=1)), axis=None)
    n = solver.visc_split.shape[1] // 2
    res = rho * v - a * (solver.visc_split[:, :n] @ x).reshape(v.shape) - m_star
    assert np.max(np.abs(res[:, 1:-1])) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.0, 3.0), n_cells=st.sampled_from([8, 16, 32]),
       a=st.floats(1e-4, 0.1), intervals=st.integers(31, 63))
def test_implicit_solve_inverts_the_implicit_rows_on_any_grid(lam, n_cells, a, intervals):
    """(rho_ref - a V_I) v = m* on the interior rows to round-off for every
    lam / mu in [0, 3] (lam = 2 gives u_theta's ring complex pairs), ring
    size and step, on r_max = 20 grids of 32 to 64 nodes."""
    params = FluidParams(gamma=1.4, k_pressure=1.0, mu=1.0, lam=lam,
                         rho_plus=1.0, u_b=-0.05, dim_n=3)
    profile = solve_steady(params, RadialGrid.uniform(20.0, intervals), tol=1e-8)
    solver = AxiSolver(profile, params, AngularGrid(n_cells=n_cells))
    rho = solver.ops.lift(profile.rho_t)
    m_star, v = np.random.default_rng(intervals).standard_normal((2, 2) + rho.shape)
    v[1, [0, -1]] = 0.0  # u_theta has no end values
    for k, (line, solve) in enumerate(zip(solver.lines, solver._factor(a))):
        b = line.load(m_star[k], v[k, 0], v[k, -1], a)
        v[k, 1:-1] = line.back * solve(b) / rho[1:-1]
    x = np.concatenate((v[0], v[1], solver.ops.d_theta(v[0], parity=1)), axis=None)
    n = solver.visc_split.shape[1] // 2
    res = rho * v - a * (solver.visc_split[:, :n] @ x).reshape(v.shape) - m_star
    assert np.max(np.abs(res[:, 1:-1])) <= 1e-12


def test_implicit_solve_of_theta_independent_data_is_the_radial_solve(
        small_profile, acc_params, agrid):
    """On theta-independent b, u_r's solve is the radial solve of each
    column bit for bit, and u_theta's solve of b = 0 is exactly 0."""
    solver = AxiSolver(small_profile, acc_params, agrid)
    a = 0.01
    solve_r, solve_t = solver._factor(a)
    col = np.random.default_rng(2).standard_normal(small_profile.r.size - 2)
    want = tridiagonal_solver(*solver.lines[0].diagonals(a))(col.copy())
    b = np.repeat(col[:, None], agrid.n_cells, axis=1)
    got = solve_r(b)
    for k in range(agrid.n_cells):
        assert got[:, k].tobytes() == want.tobytes()
    assert np.all(solve_t(np.zeros_like(b)) == 0.0)


def _viscous_step_growth(m_r, n_theta, lam, dt_of, iters=400):
    """Growth per step of the linearised viscous ARS(2,2,2) step, by power
    iteration: rho_ref v_t = V_E v + V_I v with V_I implicit, v = 0 on the
    wall and far rows, on m_r x n_theta cells of r in [1, 20].  dt_of maps
    the solver and the profile's state to the step."""
    params = FluidParams(gamma=1.4, k_pressure=1.0, mu=1.0, lam=lam,
                         rho_plus=1.0, u_b=-0.05, dim_n=3)
    profile = solve_steady(params, RadialGrid.uniform(20.0, m_r - 1), tol=1e-8)
    solver = AxiSolver(profile, params, AngularGrid(n_cells=n_theta))
    dt = dt_of(solver, solver.state_of(profile.rho_t, profile.u_t))
    a, rho = ARS_GAMMA * dt, solver.ops.lift(profile.rho_t)
    n = solver.visc_split.shape[1] // 2
    implicit_rows, explicit_rows = solver.visc_split[:, :n], solver.visc_split[:, n:]
    solves = solver._factor(a)

    def rate(rows, v):
        x = np.concatenate((v[0], v[1], solver.ops.d_theta(v[0], parity=1)), axis=None)
        f = (rows @ x).reshape(v.shape)
        f[:, [0, -1]] = 0.0
        return f

    def implicit(m_star):
        v = np.zeros_like(m_star)
        for k, (line, solve) in enumerate(zip(solver.lines, solves)):
            v[k, 1:-1] = line.back * solve(line.load(m_star[k], 0.0, 0.0, a)) / rho[1:-1]
        return v

    def step(v):
        e1 = rate(explicit_rows, v)
        v2 = implicit(rho * v + a * e1)
        return implicit(rho * v + dt * (ARS_DELTA * e1 + (1.0 - ARS_DELTA) * rate(explicit_rows, v2)
                                        + (1.0 - ARS_GAMMA) * rate(implicit_rows, v2)))

    v = np.random.default_rng(0).standard_normal((2,) + rho.shape)
    v[:, [0, -1]] = 0.0
    ratios = []
    for _ in range(iters):
        w = step(v)
        ratios.append(np.linalg.norm(w) / np.linalg.norm(v))
        v = w / np.linalg.norm(w)
    return float(np.exp(np.mean(np.log(ratios[-20:]))))


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("m_r, n_theta", [(64, 16), (128, 32)])
def test_linearised_viscous_step_does_not_grow(m_r, n_theta, lam):
    """At 0.4 x the advective limit, 8 to 16 x the explicit viscous one,
    the explicit mixed terms stay damped by the implicit rows."""
    growth = _viscous_step_growth(m_r, n_theta, lam,
                                  lambda s, st: 0.4 * s.cfl_limits(st)[0])
    assert growth <= 1.0, growth


@pytest.mark.parametrize("lam", [2.0, 5.0])
def test_coupling_limit_keeps_the_viscous_step_stable(lam):
    """For lam > mu the explicit mixed terms bind: at the full CFL limit,
    safety 1, the linearised viscous step still does not grow."""
    growth = _viscous_step_growth(128, 32, lam, lambda s, st: s.cfl_dt(st, 1.0))
    assert growth <= 1.0, growth


def test_steady_profile_near_fixed_point(small_profile, acc_params, agrid):
    solver = AxiSolver(small_profile, acc_params, agrid)
    res0 = solver.steady_residual()
    nt = agrid.n_cells
    st = AxiState(0.0, small_profile.grid, agrid,
                  np.repeat(small_profile.rho_t[:, None], nt, 1),
                  np.repeat(small_profile.u_t[:, None], nt, 1),
                  np.zeros((small_profile.r.size, nt)))
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    for _ in range(500):
        st = solver.step(st, dt)
    drift = max(np.max(np.abs(st.rho - small_profile.rho_t[:, None])),
                np.max(np.abs(st.u_r - small_profile.u_t[:, None])),
                np.max(np.abs(st.u_theta)))
    assert drift <= 10.0 * res0


def test_symmetry_preservation(small_profile, acc_params, agrid):
    """Pure mode-0 data never excites higher Legendre modes."""
    solver = AxiSolver(small_profile, acc_params, agrid)
    st = perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=0)
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    for _ in range(300):
        st = solver.step(st, dt)
    amp = legendre_amplitudes(st.rho - small_profile.rho_t[:, None], agrid)
    floor = np.max(np.abs(amp), axis=1)
    assert np.all(floor[1:] <= 1e-8)
    # theta-independence holds to round-off, not just mode smallness
    assert np.max(np.abs(st.rho - st.rho[:, :1])) <= 1e-10


def test_reflection_symmetry(small_profile, acc_params, agrid):
    solver = AxiSolver(small_profile, acc_params, agrid)
    a = perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=1)
    solver.apply_bc(a)
    b = AxiState(0.0, a.grid, agrid, a.rho[:, ::-1].copy(),
                 a.u_r[:, ::-1].copy(), -a.u_theta[:, ::-1].copy())
    solver.apply_bc(b)
    dt = solver.cfl_dt(a, 0.4)
    for _ in range(200):
        a = solver.step(a, dt)
        b = solver.step(b, dt)
    assert np.max(np.abs(a.rho - b.rho[:, ::-1])) <= 1e-10
    assert np.max(np.abs(a.u_r - b.u_r[:, ::-1])) <= 1e-10
    assert np.max(np.abs(a.u_theta + b.u_theta[:, ::-1])) <= 1e-10


def test_mass_bookkeeping(small_profile, acc_params, agrid):
    solver = AxiSolver(small_profile, acc_params, agrid)
    st = perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=2)
    interior, boundary = solver.mass_balance(st)
    assert abs(interior - boundary) <= 1e-8 * max(abs(boundary), 1e-12)


def test_angular_derivative_preserves_boundary(small_profile, acc_params, agrid):
    """The polar derivative of the velocity gap vanishes identically on r = 1."""
    solver = AxiSolver(small_profile, acc_params, agrid)
    st = perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=1)
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    ops = AxiOps(st.grid, agrid)
    for _ in range(10):
        st = solver.step(st, dt)
        psi_r = st.u_r - small_profile.u_t[:, None]
        assert np.max(np.abs(ops.d_theta(psi_r, parity=1)[0])) == 0.0
        assert np.max(np.abs(st.u_theta[0])) == 0.0


def test_boundary_momentum_residual_steady_scale(small_profile, acc_params, agrid):
    st = perturb_axi(small_profile, agrid, 0.02, (1.8, 3.0), ell=1)
    nt = agrid.n_cells
    steady = AxiState(0.0, small_profile.grid, agrid,
                      np.repeat(small_profile.rho_t[:, None], nt, 1),
                      np.repeat(small_profile.u_t[:, None], nt, 1),
                      np.zeros((small_profile.r.size, nt)))
    base = boundary_momentum_residual(steady, acc_params)
    pert = boundary_momentum_residual(st, acc_params)
    # perturbation lives away from the wall: the residual stays at the
    # steady discretization level
    assert pert <= base * (1.0 + 1e-9)


def test_cfl_violation(small_profile, acc_params, agrid):
    solver = AxiSolver(small_profile, acc_params, agrid)
    st = perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=1)
    with pytest.raises(CFLViolation):
        solver.step(st, solver.cfl_dt(st, 5.0))


def test_a_nan_limit_is_a_cfl_violation(small_profile, acc_params, agrid):
    """A NaN velocity makes the 2D limit NaN, and the step stops on the CFL
    check with both values in its message."""
    solver = AxiSolver(small_profile, acc_params, agrid)
    st = perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=1)
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    st.u_r[40, 3] = np.nan
    assert np.isnan(solver.cfl_dt(st, 1.0))
    with pytest.raises(CFLViolation, match=rf"^dt = {dt:.3e} exceeds 0\.40 x nan$"):
        solver.step(st, dt)


def test_positivity_loss_raised(small_profile, acc_params, agrid):
    def drain(t):
        shape = (small_profile.r.size, agrid.n_cells)
        return np.full(shape, -1e6), np.zeros(shape), np.zeros(shape)

    solver = AxiSolver(small_profile, acc_params, agrid, forcing=drain)
    st = perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=1)
    with pytest.raises(PositivityLoss):
        solver.step(st, solver.cfl_dt(st, 0.4))


def test_crossed_far_invariants_are_a_positivity_loss(axi_profile, acc_params):
    """A far-end pair with w+ <= w- has no positive density at gamma > 1:
    a bare apply_bc and a step raise PositivityLoss, not the TypeError of a
    complex power."""
    solver = AxiSolver(axi_profile, acc_params, AngularGrid(n_cells=16))

    def crossed():
        st = solver.state_of(axi_profile.rho_t, axi_profile.u_t)
        st.u_r[-8:] = -20.0
        return st

    with pytest.raises(PositivityLoss, match="far-end invariants"):
        solver.apply_bc(crossed())
    st = crossed()
    with pytest.raises(PositivityLoss, match="far-end invariants"):
        solver.step(st, solver.cfl_dt(st, 0.4))


def test_step_without_a_limit_checks_the_density(small_profile, acc_params, agrid):
    """With no limit given, step checks the density before it computes one:
    a zero density is a PositivityLoss, as on every other path."""
    solver = AxiSolver(small_profile, acc_params, agrid)
    st = perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=1)
    st.rho[5, 3] = 0.0
    with pytest.raises(PositivityLoss, match="density hit zero"):
        solver.step(st, 1e-4)


def test_run_config_defaults_and_dt_check():
    cfg = AxiRunConfig()
    assert (cfg.output_every, cfg.decay_target, cfg.mode_ell, N_MODES) == (15, 5.0, 1, 5)
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError):
            AxiRunConfig(dt=dt)


@pytest.mark.parametrize("ell", [-1, -2, 5])
def test_run_config_rejects_a_mode_it_cannot_grade(ell):
    """P_-1 is P_0 and P_-2 is P_1 to eval_legendre, and ell >= N_MODES is
    never projected, so the mode gate would grade another mode or nothing."""
    with pytest.raises(ValueError, match="mode_ell"):
        AxiRunConfig(mode_ell=ell)


def test_perturbation_rejects_a_negative_degree(small_profile, agrid):
    for ell in (-1, -2):
        with pytest.raises(ValueError, match="ell"):
            perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=ell)






@pytest.mark.slow
def test_manufactured_solution_order_axi(mms_axi_errors):
    e1, e2 = mms_axi_errors
    order = np.log2(e1 / e2)
    assert order >= 1.8, (e1, e2, order)


def test_legendre_projection_exact_on_mode_span(agrid):
    from scipy.special import eval_legendre

    mu = np.cos(agrid.centers)
    field = (0.7 * eval_legendre(0, mu) - 0.4 * eval_legendre(1, mu)
             + 0.2 * eval_legendre(3, mu))[None, :] * np.ones((5, 1))
    amp = legendre_amplitudes(field, agrid)
    want = np.array([0.7, -0.4, 0.0, 0.2, 0.0])
    assert np.max(np.abs(amp - want[:, None])) <= 1e-12


def test_stability_run_short(small_profile, acc_params, agrid):
    cfg = AxiRunConfig(t_end=15.0, amplitude=0.02, support=(1.5, 3.0),
                       mode_ell=1, output_every=200, decay_target=2.0,
                       reform_every=100)
    res = run_axi_stability(small_profile, acc_params, agrid, cfg)
    assert res.passed, res.summary()
    assert res.reform_gap is not None and res.reform_gap <= 1e-8
    assert res.compat[0] == 0.0


def test_mode_grading_does_not_depend_on_the_amplitude_sign(acc_params):
    """A density dip grades the modes that a bump of the same size grades,
    those the perturbation carries, and not the round-off of the others; an
    unperturbed run carries only mode 0, the profile's gap to the
    equilibrium."""
    profile = solve_steady(acc_params, RadialGrid.uniform(20.0, 63), tol=1e-8)
    agrid = AngularGrid(n_cells=16)
    runs = [run_axi_stability(profile, acc_params, agrid, AxiRunConfig(t_end=3.0, amplitude=amp))
            for amp in (-0.02, 0.02, 0.0)]
    carried = []
    for res in runs:
        largest = max(series[0] for series in res.mode_series.values())
        carried.append({ell for ell, series in res.mode_series.items()
                        if series[0] >= 1e-3 * largest})
    assert carried == [{0, 1}, {0, 1}, {0}]
    assert [(res.passed, res.reason) for res in runs] == [(True, "decayed")] * 3


@pytest.mark.parametrize("forced", [False, True])
def test_step_with_given_limit_is_bitwise_the_same(small_profile, acc_params, agrid,
                                                   forced):
    """step(s, dt, limit=cfl_dt(s, 1)) reproduces step(s, dt) bit for bit."""
    forcing = None
    if forced:
        fns = manufactured_axi(acc_params, small_profile.grid.r_max)
        rr, tt = np.meshgrid(small_profile.r, agrid.centers, indexing="ij")

        def forcing(t):
            return fns[3](rr, tt, t), fns[4](rr, tt, t), fns[5](rr, tt, t)

    solver = AxiSolver(small_profile, acc_params, agrid, forcing=forcing)
    st = perturb_axi(small_profile, agrid, 0.02, (1.5, 3.0), ell=1)
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    for _ in range(5):
        a = solver.step(st, dt)
        b = solver.step(st, dt, limit=solver.cfl_dt(st, 1.0))
        assert a.t == b.t
        for name in ("rho", "u_r", "u_theta"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        st = a


def test_relaxation_evaluates_the_cfl_limit_once_per_step(small_profile, acc_params,
                                                          agrid, monkeypatch):
    """One 2D limit per step, and no 1D one: nothing steps beside the run."""
    calls = {"axi": 0, "sym": 0}

    def counted(cls, key):
        cfl_dt = cls.cfl_dt

        def wrapper(self, state, safety):
            calls[key] += 1
            return cfl_dt(self, state, safety)
        monkeypatch.setattr(cls, "cfl_dt", wrapper)

    counted(AxiSolver, "axi")
    counted(SymSolver, "sym")
    cfg = AxiRunConfig(t_end=1.0, output_every=20, decay_target=1.0, reform_every=10)
    res = run_axi_stability(small_profile, acc_params, agrid, cfg)
    assert res.steps > 10
    assert calls == {"axi": res.steps, "sym": 0}


def _stepped_state(profile, params, agrid, steps=20):
    """A perturbed state after a few steps, so that u_theta is nonzero."""
    solver = AxiSolver(profile, params, agrid)
    st = perturb_axi(profile, agrid, 0.02, (1.5, 3.0), ell=1)
    solver.apply_bc(st)
    dt = solver.cfl_dt(st, 0.4)
    for _ in range(steps):
        st = solver.step(st, dt)
    assert np.max(np.abs(st.u_theta)) > 0.0
    return solver, st


def test_rhs_and_mass_balance_do_not_depend_on_memory_order(small_profile, acc_params,
                                                            agrid):
    """The kernels ravel their fields in C order whatever the layout, so a
    state of Fortran-ordered copies gives the same bits."""
    solver, st = _stepped_state(small_profile, acc_params, agrid)
    fst = AxiState(st.t, st.grid, st.agrid, np.asfortranarray(st.rho),
                   np.asfortranarray(st.u_r), np.asfortranarray(st.u_theta))
    assert fst.rho.flags.f_contiguous and not fst.rho.flags.c_contiguous
    for a, b in zip(solver.rhs(st), solver.rhs(fst)):
        assert a.tobytes() == np.ascontiguousarray(b).tobytes()
    assert solver.mass_balance(st) == solver.mass_balance(fst)


def test_step_neither_changes_nor_shares_its_input(small_profile, acc_params, agrid):
    """The stacked step works on its own arrays: the input state, with a
    nonzero u_theta, keeps every byte, and the state it returns shares no
    memory with it."""
    solver, st = _stepped_state(small_profile, acc_params, agrid)
    fields = (st.rho, st.u_r, st.u_theta)
    before = [f.tobytes() for f in fields]
    out = solver.step(st, solver.cfl_dt(st, 0.4))
    assert [f.tobytes() for f in fields] == before
    assert not any(np.shares_memory(a, b) for a in (out.rho, *out.velocity) for b in fields)


@pytest.mark.parametrize("split", [False, True])
def test_successive_rates_share_no_memory(small_profile, acc_params, agrid, split):
    """Each rhs is a fresh array, so the memory-order test above compares two
    results and not one buffer with itself."""
    solver, st = _stepped_state(small_profile, acc_params, agrid)
    first, second = solver.rhs(st, split=split), solver.rhs(st, split=split)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == second.tobytes()


def test_theta_flux_divergence_equals_the_zero_filled_flux_form(small_profile,
                                                                acc_params, agrid):
    """The raveled flux zeroes its pole faces and row-straddling pairs to +0,
    so the divergence keeps the bits of the (n_r, n_theta + 1) flux array
    with zero pole columns, the sign of every zero included."""
    solver, st = _stepped_state(small_profile, acc_params, agrid)
    rng = np.random.default_rng(3)
    q = st.rho * rng.choice([1.0, -1.0], size=st.rho.shape)
    u_t = st.u_theta.copy()
    u_t[:, ::3] = -0.0  # signed zeros reach the faces, both poles included
    u_t[5] = 0.0
    face_w = np.sin(agrid.nodes)[None, 1:-1] * 0.5
    g = q * u_t
    flux = np.zeros((q.shape[0], agrid.n_cells + 1))
    flux[:, 1:-1] = face_w * (g[:, :-1] + g[:, 1:])
    want = (flux[:, 1:] - flux[:, :-1]) / solver.r_sin_dtheta
    got = solver._theta_flux_div(q, u_t)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.any((want == 0.0) & np.signbit(want))
