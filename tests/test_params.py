import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outflow import FluidParams, dpressure, pressure, q_coeff, validate_params


def test_pressure_and_q_quadratic_law():
    p = FluidParams(gamma=2.0, k_pressure=1.0)
    assert pressure(1.0, p) == pytest.approx(1.0)
    assert q_coeff(1.0, p) == pytest.approx(2.0)


def test_pressure_linear_law():
    p = FluidParams(gamma=1.0, k_pressure=3.0)
    assert pressure(1.0, p) == pytest.approx(3.0)
    assert q_coeff(1.0, p) == pytest.approx(3.0)
    # P' is constant when the law is linear
    assert dpressure(2.7, p) == pytest.approx(3.0)


def test_nonpositive_density_rejected():
    p = FluidParams()
    with pytest.raises(ValueError):
        pressure(0.0, p)
    with pytest.raises(ValueError):
        q_coeff(np.array([1.0, -0.5]), p)


def test_validate_accepts_reference_set():
    p = FluidParams(gamma=1.4, k_pressure=1.0, mu=1.0, lam=0.0,
                    rho_plus=1.0, u_b=-0.01)
    assert validate_params(p).ok


@pytest.mark.parametrize("kwargs,violated", [
    (dict(mu=1.0, lam=-1.0), "2*mu + 3*lambda >= 0"),
    (dict(u_b=0.1), "u_b < 0"),
    (dict(u_b=0.0), "u_b < 0"),
    (dict(gamma=0.99), "gamma >= 1"),
    (dict(k_pressure=0.0), "k_pressure > 0"),
    (dict(mu=0.0), "mu > 0"),
    (dict(rho_plus=0.0), "rho_plus > 0"),
    (dict(dim_n=1), "dim_n >= 2"),
])
def test_validate_rejects_each_constraint(kwargs, violated):
    report = validate_params(FluidParams(**kwargs))
    assert not report.ok
    assert violated in report.violations


@pytest.mark.parametrize("kwargs", [
    dict(gamma=1.0),                 # boundary: linear law allowed
    dict(mu=0.75, lam=-0.5),         # 1.5 - 1.5 = 0 exactly in binary
    dict(dim_n=2),
])
def test_validate_boundary_cases_pass(kwargs):
    assert validate_params(FluidParams(**kwargs)).ok


@given(rho=st.floats(0.1, 5.0), gamma=st.floats(1.0, 3.0),
       k=st.floats(0.1, 4.0))
@settings(max_examples=60, deadline=None)
def test_pressure_derivative_consistency(rho, gamma, k):
    """Finite-difference P' matches rho * q to high relative accuracy."""
    p = FluidParams(gamma=gamma, k_pressure=k)
    h = 1e-6 * rho
    fd = (pressure(rho + h, p) - pressure(rho - h, p)) / (2 * h)
    assert fd == pytest.approx(rho * q_coeff(rho, p), rel=1e-6)
    assert dpressure(rho, p) == pytest.approx(rho * q_coeff(rho, p), rel=1e-12)
