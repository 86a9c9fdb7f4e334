import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outflow import AngularGrid, FluidParams
from outflow.discrete import AxiOps, SymOps
from outflow.energy import (
    EnergyReport,
    composite_monitor,
    density_corridor,
    energy_norm,
    equivalence_constants,
    h_identities,
    potential_energy,
    potential_energy_quadrature,
    reformulation_residual,
    reformulation_terms,
    relative_energy,
    sobolev_norm,
)
from outflow.states import AxiState, SymState, perturb_sym


def test_reference_values():
    p2 = FluidParams(gamma=2.0, k_pressure=1.0)
    assert potential_energy(2.0, 1.0, p2) == pytest.approx(1.0)
    p1 = FluidParams(gamma=1.0, k_pressure=1.0)
    assert potential_energy(np.e, 1.0, p1) == pytest.approx(1.0)


def test_vanishes_only_on_diagonal():
    p = FluidParams(gamma=1.4, k_pressure=0.7)
    grid = np.linspace(0.3, 3.0, 40)
    zz, xx = np.meshgrid(grid, grid)
    h = potential_energy(zz, xx, p)
    assert np.all(h >= 0.0)
    off = np.abs(zz - xx) > 1e-12
    assert np.all(h[off] > 0.0)
    assert np.max(np.abs(np.diag(potential_energy(grid, grid, p)))) == 0.0


@given(z=st.floats(0.3, 3.0), x=st.floats(0.3, 3.0),
       gamma=st.sampled_from([1.0, 1.4, 2.0]), k=st.floats(0.5, 2.0))
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_defining_integral(z, x, gamma, k):
    p = FluidParams(gamma=gamma, k_pressure=k)
    closed = float(potential_energy(z, x, p))
    quad = potential_energy_quadrature(z, x, p)
    assert abs(closed - quad) <= 1e-8 * (1.0 + abs(closed))


@given(gamma=st.sampled_from([1.0, 1.4, 2.0]))
@settings(max_examples=3, deadline=None)
def test_identities_randomized(gamma):
    p = FluidParams(gamma=gamma, k_pressure=1.3)
    rng = np.random.default_rng(int(gamma * 10))
    z = rng.uniform(0.5, 2.0, 100)
    x = rng.uniform(0.5, 2.0, 100)
    r1, r2, r3 = h_identities(z, x, p)
    assert np.max(np.abs(r1)) <= 1e-6
    assert np.max(np.abs(r2)) <= 1e-6
    assert np.max(np.abs(r3)) <= 1e-6


def test_identity_arithmetic_example():
    # gamma = 2, K = 1, (zeta, xi) = (2, 1): the cubic identity reads 1 = 1
    p = FluidParams(gamma=2.0, k_pressure=1.0)
    lhs = 4.0 - 1.0 - 2.0 * (2.0 - 1.0)
    assert lhs == pytest.approx((p.gamma - 1.0) * float(potential_energy(2.0, 1.0, p)))


def test_equivalence_constants_quadratic_law():
    p = FluidParams(gamma=2.0, k_pressure=1.0)
    c_low, c_high = equivalence_constants(0.5, 2.0, p)
    assert c_low == pytest.approx(1.0, rel=1e-9)
    assert c_high == pytest.approx(1.0, rel=1e-9)


def test_equivalence_constants_linear_law():
    p = FluidParams(gamma=1.0, k_pressure=1.0)
    c_low, c_high = equivalence_constants(0.5, 2.0, p)
    # near the diagonal the Taylor ratio is K/(2 xi): bracketed by the range
    assert c_low <= 1.0 / (2 * 0.5) + 1e-9
    assert c_high >= 1.0 / (2 * 2.0) - 1e-9
    assert 0 < c_low < c_high


def test_equivalence_degenerate_range():
    p = FluidParams()
    with pytest.raises(ValueError):
        equivalence_constants(1.0, 1.0, p)


def test_relative_energy_zero_on_profile(small_profile, acc_params):
    st = SymState(0.0, small_profile.grid, small_profile.rho_t.copy(),
                  small_profile.u_t.copy())
    rep = relative_energy(st, small_profile, acc_params)
    assert rep.total_relative_energy == 0.0
    assert rep.sup_perturbation == 0.0
    assert rep.boundary_H == 0.0


def test_relative_energy_kinetic_window(small_profile, acc_params):
    """Constant velocity shift in a far window: kinetic part by quadrature."""
    st = SymState(0.0, small_profile.grid, small_profile.rho_t.copy(),
                  small_profile.u_t.copy())
    r = small_profile.r
    window = (r >= 8.0) & (r <= 14.0)
    c = 0.01
    st.u_rad = st.u_rad + np.where(window, c, 0.0)
    rep = relative_energy(st, small_profile, acc_params)
    ops = SymOps(small_profile.grid, 3)
    expected = 0.5 * c**2 * float(
        np.sum(ops.w_vol[window] * small_profile.rho_t[window]))
    assert rep.total_relative_energy == pytest.approx(expected, rel=1e-12)


def test_sobolev_norm_values(run_profile):
    ops = SymOps(run_profile.grid, 3)
    zero = np.zeros_like(run_profile.r)
    for k in (0, 1, 2):
        assert sobolev_norm(zero, k, ops) == 0.0
    f = np.exp(1.0 - run_profile.r)
    # closed form: ||f||_0^2 = 4 pi * 5/4 e^0 when rho weight is r^2
    val = sobolev_norm(f, 0, ops) ** 2
    assert val == pytest.approx(5 * np.pi, rel=2e-3)
    from scipy.integrate import quad

    oracle, _ = quad(lambda r: 4 * np.pi * r**2 * np.exp(2 - 2 * r), 1.0, 100.0)
    assert oracle == pytest.approx(5 * np.pi, rel=1e-10)
    # homogeneity at machine precision
    assert sobolev_norm(3.0 * f, 1, ops) == pytest.approx(
        3.0 * sobolev_norm(f, 1, ops), rel=1e-12)
    with pytest.raises(ValueError):
        sobolev_norm(f, 3, ops)


def test_energy_norm_properties(small_profile, acc_params):
    st = perturb_sym(small_profile, 0.02, (1.5, 3.0))
    rep = relative_energy(st, small_profile, acc_params)
    base = SymState(0.0, small_profile.grid, small_profile.rho_t.copy(),
                    small_profile.u_t.copy())
    rep0 = relative_energy(base, small_profile, acc_params)
    # steady history gives zero norm
    hist0 = [EnergyReport(t=float(t), total_relative_energy=0, viscous_dissipation=0,
                          boundary_H=0, weighted_phi=0, weighted_radial_psi=0,
                          sup_perturbation=0, norm_pieces=rep0.norm_pieces)
             for t in (0.0, 1.0, 2.0)]
    assert energy_norm(hist0) == 0.0
    # nondecreasing in T
    hist = []
    vals = []
    for t in np.linspace(0.0, 3.0, 7):
        hist.append(EnergyReport(t=float(t), total_relative_energy=1.0,
                                 viscous_dissipation=1.0, boundary_H=0.0,
                                 weighted_phi=0.0, weighted_radial_psi=0.0,
                                 sup_perturbation=1.0,
                                 norm_pieces=rep.norm_pieces))
        vals.append(energy_norm(hist))
    assert np.all(np.diff(vals) >= -1e-14)
    # degree-one homogeneity in the perturbation
    st2 = SymState(0.0, small_profile.grid,
                   small_profile.rho_t + 2.0 * (st.rho - small_profile.rho_t),
                   small_profile.u_t + 2.0 * (st.u_rad - small_profile.u_t))
    rep2 = relative_energy(st2, small_profile, acc_params)
    n1 = energy_norm([rep])
    n2 = energy_norm([rep2])
    assert n2 == pytest.approx(2.0 * n1, rel=1e-10)


def test_density_corridor(small_profile, acc_params):
    st = SymState(0.0, small_profile.grid, np.full_like(small_profile.rho_t, 1.0),
                  small_profile.u_t.copy())
    assert density_corridor(st, acc_params)
    st.rho[5] = 0.4
    assert not density_corridor(st, acc_params)


def test_reformulation_identity_on_manufactured_motion(run_profile, acc_params):
    """Smooth manufactured time dependence: both residuals agree to round-off."""
    grid = run_profile.grid
    r = grid.nodes

    def fields(t):
        rho = run_profile.rho_t + 0.02 * np.exp(-((r - 3.0) / 0.8) ** 2) * np.cos(t)
        u = run_profile.u_t + 0.01 * np.exp(-((r - 4.0) / 1.1) ** 2) * np.sin(t)
        u[0] = acc_params.u_b
        return SymState(t, grid, rho, u)

    dt = 1e-3
    res = reformulation_residual(fields(dt), fields(0.0), dt, run_profile,
                                 acc_params)
    assert res.max_gap <= 1e-8 * (1.0 + res.orig_res)
    assert res.orig_res > 0.0


def test_reformulation_zero_perturbation(run_profile, acc_params):
    st = SymState(0.0, run_profile.grid, run_profile.rho_t.copy(),
                  run_profile.u_t.copy())
    res = reformulation_residual(st, st, 1.0, run_profile, acc_params)
    # both sides equal the steady discretization residual exactly
    assert res.max_gap <= 1e-12 * (1.0 + res.orig_res)
    assert res.orig_res == pytest.approx(res.reform_res, rel=1e-9)


def test_reformulation_rejects_corridor_breach(run_profile, acc_params):
    st = SymState(0.0, run_profile.grid, run_profile.rho_t * 0.4,
                  run_profile.u_t.copy())
    with pytest.raises(ValueError):
        reformulation_residual(st, st, 1.0, run_profile, acc_params)


def test_composite_monitor_shape():
    # dissipation under-bills the energy decay, so the monitor descends
    reports = [EnergyReport(t=float(t), total_relative_energy=np.exp(-t),
                            viscous_dissipation=0.5 * np.exp(-t), boundary_H=0.0,
                            weighted_phi=0.0, weighted_radial_psi=0.0,
                            sup_perturbation=0.0)
               for t in np.linspace(0, 5, 21)]
    m, uphill = composite_monitor(reports)
    assert m.shape == (21,)
    assert np.all(np.diff(m) < 0)
    assert uphill == 0.0


def test_report_rejects_negative_fields():
    with pytest.raises(ValueError):
        EnergyReport(t=0.0, total_relative_energy=-1.0, viscous_dissipation=0.0,
                     boundary_H=0.0, weighted_phi=0.0, weighted_radial_psi=0.0,
                     sup_perturbation=0.0)


def _reform_pair(profile, params, agrid=None):
    """A perturbed state and its predecessor one small step earlier."""
    r = profile.r
    bump = 0.02 * np.exp(-((r - 3.0) / 0.8) ** 2)
    if agrid is None:
        def at(t):
            u = profile.u_t + 0.5 * bump * np.sin(t)
            u[0] = params.u_b
            return SymState(t, profile.grid, profile.rho_t + bump * np.cos(t), u)
    else:
        ang = 1.0 + 0.3 * np.cos(agrid.centers)[None, :]
        nt = agrid.n_cells

        def at(t):
            u_r = (np.repeat(profile.u_t[:, None], nt, 1)
                   + 0.5 * bump[:, None] * ang * np.sin(t))
            u_r[0] = params.u_b
            u_t = 0.3 * bump[:, None] * np.sin(agrid.centers)[None, :] * np.sin(t)
            return AxiState(t, profile.grid, agrid,
                            profile.rho_t[:, None] + bump[:, None] * ang * np.cos(t),
                            u_r, u_t)
    return at(1e-3), at(0.0)


@pytest.mark.parametrize("geometry", ["sym", "axi"])
def test_reformulation_terms_built_once_give_the_same_bits(small_profile, acc_params,
                                                           geometry):
    agrid = AngularGrid(n_cells=16) if geometry == "axi" else None
    ops = (AxiOps(small_profile.grid, agrid) if agrid is not None
           else SymOps(small_profile.grid, acc_params.dim_n))
    st, prev = _reform_pair(small_profile, acc_params, agrid)
    terms = reformulation_terms(small_profile, acc_params, ops)
    fresh = reformulation_residual(st, prev, 1e-3, small_profile, acc_params)
    for held in (reformulation_residual(st, prev, 1e-3, small_profile, acc_params,
                                        terms=terms),
                 reformulation_residual(st, prev, 1e-3, small_profile, acc_params,
                                        ops=ops, terms=terms)):
        for name in ("orig_continuity", "reform_continuity", "orig_momentum",
                     "reform_momentum"):
            assert getattr(held, name).tobytes() == getattr(fresh, name).tobytes()
    assert fresh.max_gap <= 1e-8 * (1.0 + fresh.orig_res)


def test_reformulation_terms_refuse_another_profile(small_profile, run_profile,
                                                    acc_params):
    terms = reformulation_terms(small_profile, acc_params,
                                SymOps(small_profile.grid, acc_params.dim_n))
    st, prev = _reform_pair(run_profile, acc_params)
    with pytest.raises(ValueError):
        reformulation_residual(st, prev, 1e-3, run_profile, acc_params, terms=terms)
    # the same profile under other fluid parameters is another stationary state
    st, prev = _reform_pair(small_profile, acc_params)
    with pytest.raises(ValueError):
        reformulation_residual(st, prev, 1e-3, small_profile,
                               FluidParams(mu=2.0, u_b=acc_params.u_b), terms=terms)
