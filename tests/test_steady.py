import numpy as np
import pytest

from outflow import (
    FluidParams,
    NonConvergence,
    RadialGrid,
    div_u_profile,
    solve_steady,
    verify_decay,
)


def test_zero_outflow_gives_constant_state():
    p = FluidParams(u_b=-0.0)
    with pytest.raises(Exception):
        # u_b = 0 violates the admissibility constraints outright
        solve_steady(p, RadialGrid.uniform(50.0, 64), tol=1e-8)


def test_mass_flux_identity(acc_profile):
    r = acc_profile.r
    mf = r**2 * acc_profile.rho_t * acc_profile.u_t
    m = acc_profile.mass_flux
    assert np.max(np.abs(mf - m)) / abs(m) <= 1e-10
    assert m == pytest.approx(acc_profile.params.u_b * acc_profile.rho_t[0], rel=1e-14)


def test_monotonicity(acc_profile):
    assert np.all(np.diff(acc_profile.rho_t) > 0)
    assert np.all(np.diff(np.abs(acc_profile.u_t)) < 0)
    assert np.all(acc_profile.u_t < 0)
    assert acc_profile.u_t[0] == pytest.approx(acc_profile.params.u_b, abs=1e-14)


def test_far_field_value(acc_profile):
    assert abs(acc_profile.rho_t[-1] - 1.0) <= 1e-8


def test_refinement_self_consistency(acc_params):
    """Doubling the mesh moves rho(1) by less than 1e-4 relative."""
    rho1 = solve_steady(acc_params, RadialGrid.geometric(200.0, 1024), tol=1e-8).rho_t[0]
    rho2 = solve_steady(acc_params, RadialGrid.geometric(200.0, 2048), tol=1e-8).rho_t[0]
    assert abs(rho1 - rho2) / rho2 <= 1e-4


def test_decay_rates_n3(acc_profile):
    """Far-field rates; the second velocity derivative decays like r^-(n+1).

    The -(n+1) rate follows from the mass-flux identity: the r^(1-n)
    prefactor dominates the second derivative, which therefore decays more
    slowly than the second density derivative (r^-2n).
    """
    rep = verify_decay(acc_profile, slope_tol=0.2)
    assert abs(rep.slopes["rho_minus_rho_plus"] + 4) <= 0.2
    assert abs(rep.slopes["d_u"] + 3) <= 0.2
    assert abs(rep.slopes["d_rho"] + 5) <= 0.2
    assert abs(rep.slopes["d2_rho"] + 6) <= 0.2
    assert abs(rep.slopes["d2_u"] + 4) <= 0.2  # true rate -(n+1)
    for key in ("rho_minus_rho_plus", "d_u", "d_rho", "d2_u", "d2_rho"):
        assert rep.prefactor_ratio[key] < 5.0  # two-sided bounds
    assert rep.ok


def test_decay_rates_n2():
    p = FluidParams(gamma=1.4, u_b=-0.03, dim_n=2)
    prof = solve_steady(p, RadialGrid.geometric(400.0, 1536), tol=1e-8)
    rep = verify_decay(prof, slope_tol=0.2)
    assert abs(rep.slopes["rho_minus_rho_plus"] + 2) <= 0.2
    assert abs(rep.slopes["d_u"] + 2) <= 0.2
    assert abs(rep.slopes["d_rho"] + 3) <= 0.2
    assert abs(rep.slopes["d2_rho"] + 4) <= 0.2
    assert abs(rep.slopes["d2_u"] + 3) <= 0.2  # -(n+1) at n = 2
    assert rep.prefactor_ratio["d2_u"] < 5.0
    assert rep.ok


def test_density_gradient_scales_with_ub_squared(acc_params):
    import dataclasses

    grid = RadialGrid.geometric(200.0, 1024)
    prof1 = solve_steady(acc_params, grid, tol=1e-8)
    prof2 = solve_steady(dataclasses.replace(acc_params, u_b=-0.025), grid, tol=1e-8)
    sel = (grid.nodes >= 8.0) & (grid.nodes <= 118.0)
    q1 = np.max(np.abs(prof1.d_rho[sel]) * grid.nodes[sel] ** 5)
    q2 = np.max(np.abs(prof2.d_rho[sel]) * grid.nodes[sel] ** 5)
    ratio = q1 / q2  # expect about 4 (quadratic in u_b)
    assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5


def test_div_u_positive_and_consistent(acc_profile):
    from outflow.steady import div_u_route_gap

    d1, d2 = div_u_profile(acc_profile)
    assert np.min(d1) > 0.0
    assert div_u_route_gap(acc_profile) <= 1e-8
    # pointwise relative agreement wherever cancellation leaves enough digits
    near = acc_profile.r <= 12.0
    assert np.max(np.abs(d1[near] - d2[near]) / d2[near]) <= 1e-8
    sel = (acc_profile.r >= 8.0) & (acc_profile.r <= 118.0)
    slope = np.polyfit(np.log(acc_profile.r[sel]), np.log(d1[sel]), 1)[0]
    assert abs(slope + 7.0) <= 0.3


def test_div_u_cubic_ub_scaling(acc_params):
    import dataclasses

    grid = RadialGrid.geometric(100.0, 768)
    d_full = div_u_profile(solve_steady(acc_params, grid, tol=1e-8))[0]
    half = dataclasses.replace(acc_params, u_b=-0.025)
    d_half = div_u_profile(solve_steady(half, grid, tol=1e-8))[0]
    ratio = np.max(d_full * grid.nodes**7) / np.max(d_half * grid.nodes**7)
    assert 8.0 / 2.0 <= ratio <= 8.0 * 2.0  # |u_b|^3 prefactor


def test_nonconvergence_signalled():
    p = FluidParams(gamma=1.4, u_b=-100.0)  # far outside the small-data regime
    with pytest.raises(NonConvergence) as err:
        solve_steady(p, RadialGrid.uniform(30.0, 64), tol=1e-10)
    assert err.value.iterations >= 0
    assert err.value.last_residual > 0.0


def test_bad_tolerance_rejected(acc_params):
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            solve_steady(acc_params, RadialGrid.uniform(30.0, 64), tol=tol)
