import time

import numpy as np
import pytest
from mms_cases import manufactured_axi, manufactured_sym, mms_error, mms_error_axi

from outflow import AngularGrid, FluidParams, RadialGrid, solve_steady
from outflow.evolve_axi import AxiRunConfig, run_axi_stability
from outflow.evolve_sym import SymRunConfig, run_sym_stability


@pytest.fixture(scope="session")
def acc_params():
    return FluidParams(gamma=1.4, k_pressure=1.0, mu=1.0, lam=0.0,
                       rho_plus=1.0, u_b=-0.05, dim_n=3)


@pytest.fixture(scope="session")
def acc_profile(acc_params):
    """High-resolution stationary profile of the acceptance configuration."""
    grid = RadialGrid.geometric(200.0, 2048)
    return solve_steady(acc_params, grid, tol=1e-8)


@pytest.fixture(scope="session")
def run_profile(acc_params):
    """Evolution-scale profile: 1024 uniform nodes for explicit stepping."""
    grid = RadialGrid.uniform(100.0, 1023)
    return solve_steady(acc_params, grid, tol=1e-8)


@pytest.fixture(scope="session")
def small_profile(acc_params):
    grid = RadialGrid.uniform(20.0, 128)
    return solve_steady(acc_params, grid, tol=1e-8)


@pytest.fixture(scope="session")
def axi_profile(acc_params):
    """128 radial nodes for the 128 x 32 axisymmetric acceptance run."""
    grid = RadialGrid.uniform(20.0, 127)
    return solve_steady(acc_params, grid, tol=1e-8)


@pytest.fixture(scope="session")
def sym_acceptance_run(run_profile, acc_params):
    # one sample about every 0.47 time units at the advective step, so the
    # envelope gate sees about 430 samples
    cfg = SymRunConfig(t_end=200.0, amplitude=0.02, support=(1.5, 3.0),
                       output_every=15, decay_target=10.0, reform_every=10)
    t0 = time.time()
    res = run_sym_stability(run_profile, acc_params, cfg)
    return res, time.time() - t0


@pytest.fixture(scope="session")
def axi_acceptance_run(axi_profile, acc_params):
    agrid = AngularGrid(n_cells=32)
    # one sample about every 0.77 time units at the advective step
    cfg = AxiRunConfig(t_end=200.0, amplitude=0.02, support=(1.5, 3.0),
                       mode_ell=1, output_every=24, decay_target=5.0,
                       reform_every=10)
    t0 = time.time()
    res = run_axi_stability(axi_profile, acc_params, agrid, cfg)
    return res, time.time() - t0


@pytest.fixture(scope="session")
def mms_sym_errors(acc_params):
    """Spherical manufactured-solution errors (e1, e2) on 96 and 192 nodes
    (r_max = 5, dt 2e-4 and 5e-5, t = 0.2), computed once for the order
    test and criterion 10."""
    prof = solve_steady(acc_params, RadialGrid.uniform(5.0, 96), tol=1e-8)
    fns = manufactured_sym(acc_params, 5.0)
    return (mms_error(acc_params, prof, 96, 2.0e-4, 0.2, fns),
            mms_error(acc_params, prof, 192, 0.5e-4, 0.2, fns))


@pytest.fixture(scope="session")
def mms_axi_errors(acc_params):
    """Axisymmetric manufactured-solution errors (e1, e2) on 64 x 12 and
    128 x 24 cells (r_max = 5, dt 4e-4 and 1e-4, t = 0.2), computed once for
    the order test and criterion 10."""
    fns = manufactured_axi(acc_params, 5.0)
    return (mms_error_axi(acc_params, 5.0, 64, 12, 4.0e-4, 0.2, fns),
            mms_error_axi(acc_params, 5.0, 128, 24, 1.0e-4, 0.2, fns))


def assert_close(a, b, tol, label=""):
    gap = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    assert gap <= tol, f"{label}: |diff| = {gap:.3e} > {tol:g}"
