import numpy as np
import pytest
from mms_cases import manufactured_axi, mms_error_axi

from outflow import AngularGrid
from outflow.evolve_axi import (
    AxiRunConfig,
    AxiSolver,
    CFLViolation,
    boundary_momentum_residual,
    legendre_amplitudes,
    run_axi_stability,
    viscous_formula_selfcheck,
)
from outflow.evolve_sym import SymSolver
from outflow.states import AxiState, SymState, perturb_axi


@pytest.fixture(scope="module")
def agrid():
    return AngularGrid(n_cells=32)


def test_viscous_component_formulas():
    viscous_formula_selfcheck(tol=1e-5)


def test_reduction_to_radial_solver(small_profile, acc_params, agrid):
    """theta-independent states drive the axisymmetric operator onto the
    radial one exactly, including the shared viscous kernel."""
    solver = AxiSolver(small_profile, acc_params, agrid)
    sym = SymSolver(small_profile, acc_params)
    grid = small_profile.grid
    rho = small_profile.rho_t + 0.02 * np.exp(-((grid.nodes - 2.5) / 0.5) ** 2)
    u = small_profile.u_t + 0.01 * np.exp(-((grid.nodes - 3.5) / 0.7) ** 2)
    u[0] = acc_params.u_b
    nt = agrid.n_cells
    st2 = AxiState(0.0, grid, agrid, np.repeat(rho[:, None], nt, 1),
                   np.repeat(u[:, None], nt, 1), np.zeros((grid.nodes.size, nt)))
    st1 = SymState(0.0, grid, rho, u)
    rt1, mt1 = sym.rhs(st1)
    rt2, mrt2, mtt2 = solver.rhs(st2)
    assert np.max(np.abs(rt2 - rt1[:, None])) <= 1e-10
    assert np.max(np.abs(mrt2 - mt1[:, None])) <= 1e-10
    assert np.max(np.abs(mtt2)) == 0.0


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
    amp = legendre_amplitudes(st.rho - small_profile.rho_t[:, None], agrid, 5)
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
    from outflow.discrete import AxiOps

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






@pytest.mark.slow
def test_manufactured_solution_order_axi(acc_params):
    fns = manufactured_axi(acc_params, 5.0)
    e1 = mms_error_axi(acc_params, 5.0, 64, 12, 4.0e-4, 0.2, fns)
    e2 = mms_error_axi(acc_params, 5.0, 128, 24, 1.0e-4, 0.2, fns)
    order = np.log2(e1 / e2)
    assert order >= 1.8, (e1, e2, order)


def test_legendre_projection_exact_on_mode_span(agrid):
    from scipy.special import eval_legendre

    mu = np.cos(agrid.centers)
    field = (0.7 * eval_legendre(0, mu) - 0.4 * eval_legendre(1, mu)
             + 0.2 * eval_legendre(3, mu))[None, :] * np.ones((5, 1))
    amp = legendre_amplitudes(field, agrid, 5)
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


@pytest.mark.parametrize("forced", [False, True])
def test_step_with_given_limit_is_bitwise_the_same(small_profile, acc_params, agrid,
                                                   forced):
    """step(s, dt, limit=cfl_dt(s, 1)) reproduces step(s, dt) bit for bit."""
    forcing = None
    if forced:
        fns = manufactured_axi(acc_params, small_profile.grid.r_max)
        rr, tt = np.meshgrid(small_profile.r, agrid.centers, indexing="ij")

        def forcing(t, r, theta):
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
    """One 2D limit for the perturbed step, one 1D limit in the twin's step."""
    calls = {"axi": 0, "sym": 0}

    def counted(cls, key):
        cfl_dt = cls.cfl_dt

        def wrapper(self, state, safety):
            calls[key] += 1
            return cfl_dt(self, state, safety)
        monkeypatch.setattr(cls, "cfl_dt", wrapper)

    counted(AxiSolver, "axi")
    counted(SymSolver, "sym")
    cfg = AxiRunConfig(t_end=0.1, output_every=20, decay_target=1.0, reform_every=10)
    res = run_axi_stability(small_profile, acc_params, agrid, cfg)
    assert res.steps > 10
    assert calls == {"axi": res.steps, "sym": res.steps}
