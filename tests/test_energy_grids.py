"""The energy layer refuses a state, profile or operator set of another grid."""

import pytest

from outflow import AngularGrid, RadialGrid, solve_steady
from outflow.discrete import SymOps
from outflow.energy import reformulation_residual, reformulation_terms, relative_energy
from outflow.states import ops_for, perturb_axi, perturb_sym


@pytest.fixture(scope="module")
def wide_profile(acc_params):
    """128 uniform nodes like `axi_profile`, but out to r_max = 30."""
    return solve_steady(acc_params, RadialGrid.uniform(30.0, 127), tol=1e-8)


def _check(name, state, profile, params):
    if name == "relative_energy":
        return relative_energy(state, profile, params)
    return reformulation_residual(state, state, 1e-3,
                                  reformulation_terms(profile, params, ops_for(state, params)))


@pytest.mark.parametrize("geometry", ["sym", "axi"])
@pytest.mark.parametrize("name", ["relative_energy", "reformulation_residual"])
def test_energy_layer_rejects_a_profile_of_another_grid(axi_profile, wide_profile,
                                                        acc_params, name, geometry):
    if geometry == "sym":
        state = perturb_sym(wide_profile, 0.02, (1.5, 3.0))
    else:
        state = perturb_axi(wide_profile, AngularGrid(n_cells=16), 0.02, (1.5, 3.0))
    assert state.grid.nodes.size == axi_profile.grid.nodes.size
    _check(name, state, wide_profile, acc_params)
    with pytest.raises(ValueError, match="grids differ"):
        _check(name, state, axi_profile, acc_params)


def test_reformulation_terms_reject_operators_of_another_grid(axi_profile, wide_profile,
                                                               acc_params):
    ops = SymOps(wide_profile.grid, acc_params.dim_n)
    with pytest.raises(ValueError, match="grids differ"):
        reformulation_terms(axi_profile, acc_params, ops)
    state = perturb_sym(axi_profile, 0.02, (1.5, 3.0))
    with pytest.raises(ValueError, match="grids differ"):
        reformulation_residual(state, state, 1e-3,
                               reformulation_terms(axi_profile, acc_params, ops))
    # terms on the profile's own grid, handed a state of the wider one
    terms = reformulation_terms(wide_profile, acc_params, ops)
    with pytest.raises(ValueError, match="grids differ"):
        reformulation_residual(state, state, 1e-3, terms)
