import os
import subprocess
import sys

import numpy as np
import pytest

import outflow
from outflow import AngularGrid, RadialGrid, compatibility_residual, perturb_axi, perturb_sym
from outflow.discrete import SymOps
from outflow.params import pressure
from outflow.states import AxiState, SymState, smooth_bump


def test_radial_grid_invariants():
    g = RadialGrid.geometric(100.0, 64)
    assert g.nodes[0] == 1.0
    assert g.r_max == 100.0
    assert np.all(np.diff(g.nodes) > 0)
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(2.0, 10.0, 33))  # does not start at 1
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(1.0, 10.0, 10))  # too few nodes
    with pytest.raises(ValueError):
        RadialGrid(np.concatenate([[1.0], np.full(20, 2.0)]))  # not increasing


def test_angular_grid_invariants():
    a = AngularGrid(n_cells=16)
    assert a.nodes[0] == 0.0
    assert a.nodes[-1] == pytest.approx(np.pi)
    assert a.centers.size == 16
    assert np.all(a.centers > 0) and np.all(a.centers < np.pi)
    with pytest.raises(ValueError):
        AngularGrid(n_cells=4)  # too coarse


def test_smooth_bump_support():
    r = np.linspace(1.0, 10.0, 2001)
    b = smooth_bump(r, 1.5, 3.0)
    assert np.all(b[(r <= 1.5) | (r >= 3.0)] == 0.0)
    assert b.max() == pytest.approx(1.0, abs=1e-3)
    assert np.all(b >= 0.0)


def test_perturbations_validate_support(small_profile):
    with pytest.raises(ValueError):
        perturb_sym(small_profile, 0.02, (0.5, 3.0))
    with pytest.raises(ValueError):
        perturb_axi(small_profile, AngularGrid(n_cells=16), 0.02, (1.5, 50.0))


def test_compatibility_of_steady_state(small_profile, acc_params):
    st = SymState(0.0, small_profile.grid, small_profile.rho_t.copy(),
                  small_profile.u_t.copy())
    res1, res2 = compatibility_residual(st, small_profile, acc_params)
    assert res1 == 0.0
    assert res2 <= 0.05  # one-sided discretization level on this grid


def test_compatibility_detects_velocity_mismatch(small_profile, acc_params):
    st = SymState(0.0, small_profile.grid, small_profile.rho_t.copy(),
                  small_profile.u_t.copy())
    st.u_rad[0] = acc_params.u_b + 0.1
    res1, _ = compatibility_residual(st, small_profile, acc_params)
    assert res1 == pytest.approx(0.1, rel=1e-12)


def test_compatibility_of_compact_perturbation(small_profile, acc_params):
    st = perturb_sym(small_profile, 0.02, (2.0, 3.0))
    res1, res2 = compatibility_residual(st, small_profile, acc_params)
    base = compatibility_residual(
        SymState(0.0, small_profile.grid, small_profile.rho_t.copy(),
                 small_profile.u_t.copy()),
        small_profile, acc_params)[1]
    assert res1 == 0.0
    # perturbation vanishes near the wall, so the residual stays at the
    # steady discretization level
    assert res2 <= base * (1.0 + 1e-9)


def test_compatibility_axi(small_profile, acc_params):
    agrid = AngularGrid(n_cells=16)
    st = perturb_axi(small_profile, agrid, 0.02, (2.0, 3.0), ell=1)
    res1, res2 = compatibility_residual(st, small_profile, acc_params)
    assert res1 == 0.0
    assert res2 <= 0.1


def test_compatibility_of_a_lifted_radial_state_equals_the_radial_one(small_profile,
                                                                   acc_params):
    """Both geometries balance the wall momentum with one viscous operator, so
    the theta-independent lift of a radial state has its wall residual.  The
    residual is a cancellation of wall terms ten times its size or more,
    and the 1-D and 2-D stencil sums round differently, so the gap is bounded
    relative to the largest of those terms."""
    st = perturb_sym(small_profile, 0.02, (1.5, 3.0))
    n_r, n_cells = st.rho.size, 16
    lift = AxiState(0.0, st.grid, AngularGrid(n_cells=n_cells),
                    np.repeat(st.rho[:, None], n_cells, 1),
                    np.repeat(st.u_rad[:, None], n_cells, 1), np.zeros((n_r, n_cells)))
    res_sym = compatibility_residual(st, small_profile, acc_params)
    res_axi = compatibility_residual(lift, small_profile, acc_params)
    ops, u = SymOps(st.grid), st.velocity
    terms = (st.rho * ops.conv(u, u)[0], ops.grad(pressure(st.rho, acc_params))[0],
             ops.visc(u, acc_params.mu, acc_params.lam)[0])
    scale = max(abs(t[0]) for t in terms)
    assert res_axi[0] == res_sym[0] == 0.0
    assert abs(res_axi[1] - res_sym[1]) <= 1e-12 * scale


def test_axi_wall_residual_of_the_acceptance_perturbation(run_profile, acc_params):
    """The l = 1 perturbation vanishes near the wall, so its wall residual is
    the second-order one of the profile: 1.7e-4 on 1,024 uniform nodes."""
    st = perturb_axi(run_profile, AngularGrid(n_cells=32), 0.02, (1.5, 3.0), ell=1)
    res1, res2 = compatibility_residual(st, run_profile, acc_params)
    assert res1 == 0.0
    assert res2 <= 1e-3


def test_states_residuals_do_not_import_the_axisymmetric_solver():
    """The boundary residuals live below the solvers: computing one loads no solver."""
    code = "\n".join([
        "import sys",
        "from outflow import AngularGrid, FluidParams, RadialGrid, solve_steady",
        "from outflow.states import compatibility_residual, perturb_axi",
        "params = FluidParams(u_b=-0.05)",
        "profile = solve_steady(params, RadialGrid.uniform(20.0, 32))",
        "state = perturb_axi(profile, AngularGrid(n_cells=8), 0.02, (1.5, 3.0))",
        "compatibility_residual(state, profile, params)",
        "loaded = sorted(m for m in sys.modules if m.startswith('outflow.evolve'))",
        "assert not loaded, loaded",
    ])
    src = os.path.dirname(os.path.dirname(outflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
