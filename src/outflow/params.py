"""Physical parameters and thermodynamic closures shared by all solvers.

Everything is nondimensional; the model fixes no unit system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FluidParams",
    "validate_params",
    "pressure",
    "dpressure",
    "q_coeff",
    "sound_speed",
]


@dataclass(frozen=True)
class FluidParams:
    """Constants of the barotropic model P(rho) = K rho^gamma.

    u_b is the (negative) normal speed on the unit sphere: the gas exits
    the exterior domain through r = 1.  dim_n is the spatial dimension;
    the time-dependent solvers require dim_n = 3, the stationary solver
    accepts any dim_n >= 2.
    """

    gamma: float = 1.4
    k_pressure: float = 1.0
    mu: float = 1.0
    lam: float = 0.0
    rho_plus: float = 1.0
    u_b: float = -0.05
    dim_n: int = 3


_CONSTRAINTS = (
    ("gamma >= 1", lambda p: p.gamma >= 1.0),
    ("k_pressure > 0", lambda p: p.k_pressure > 0.0),
    ("mu > 0", lambda p: p.mu > 0.0),
    ("2*mu + 3*lambda >= 0", lambda p: 2.0 * p.mu + 3.0 * p.lam >= 0.0),
    ("rho_plus > 0", lambda p: p.rho_plus > 0.0),
    ("u_b < 0", lambda p: p.u_b < 0.0),
    ("dim_n >= 2", lambda p: int(p.dim_n) >= 2 and p.dim_n == int(p.dim_n)),
)


def validate_params(params: FluidParams) -> tuple[str, ...]:
    """The name of every admissibility constraint that params violates;
    empty, and so false, when they are admissible."""
    return tuple(name for name, check in _CONSTRAINTS if not check(params))


def require_valid(params: FluidParams) -> None:
    violations = validate_params(params)
    if violations:
        raise ValueError("invalid fluid parameters: " + "; ".join(violations))


def _check_positive_density(rho) -> None:
    if (np.asarray(rho) <= 0.0).any():
        raise ValueError("density must be positive")


def pressure(rho, params: FluidParams):
    """P(rho) = K rho^gamma."""
    _check_positive_density(rho)
    r = np.asarray(rho, dtype=float)
    return pressure_unchecked(r, params, np.empty(r.shape))[()]  # a scalar for a scalar rho


def pressure_unchecked(rho: np.ndarray, params: FluidParams, out: np.ndarray) -> np.ndarray:
    """P(rho) into out, of a density array the caller has checked positive."""
    np.power(rho, params.gamma, out)
    out *= params.k_pressure
    return out


def dpressure(rho, params: FluidParams):
    """P'(rho) = gamma K rho^(gamma-1)."""
    _check_positive_density(rho)
    r = np.asarray(rho, dtype=float)
    return params.gamma * params.k_pressure * r ** (params.gamma - 1.0)


def q_coeff(rho, params: FluidParams):
    """q(rho) = P'(rho)/rho, the pressure coefficient of the linearised system."""
    _check_positive_density(rho)
    r = np.asarray(rho, dtype=float)
    return params.gamma * params.k_pressure * r ** (params.gamma - 2.0)


def sound_speed(rho, params: FluidParams):
    """c(rho) = sqrt(P'(rho))."""
    return np.sqrt(dpressure(rho, params))
