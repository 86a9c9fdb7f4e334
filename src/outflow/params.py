"""Physical parameters and thermodynamic closures shared by all solvers.

Everything is nondimensional; the model fixes no unit system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FluidParams",
    "ValidationReport",
    "validate_params",
    "pressure",
    "dpressure",
    "q_coeff",
    "sound_speed",
    "damping_beta",
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


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


_CONSTRAINTS = (
    ("gamma >= 1", lambda p: p.gamma >= 1.0),
    ("k_pressure > 0", lambda p: p.k_pressure > 0.0),
    ("mu > 0", lambda p: p.mu > 0.0),
    ("2*mu + 3*lambda >= 0", lambda p: 2.0 * p.mu + 3.0 * p.lam >= 0.0),
    ("rho_plus > 0", lambda p: p.rho_plus > 0.0),
    ("u_b < 0", lambda p: p.u_b < 0.0),
    ("dim_n >= 2", lambda p: int(p.dim_n) >= 2 and p.dim_n == int(p.dim_n)),
)


def validate_params(params: FluidParams) -> ValidationReport:
    """Check every admissibility constraint; report all violations."""
    bad = tuple(name for name, check in _CONSTRAINTS if not check(params))
    return ValidationReport(ok=not bad, violations=bad)


def require_valid(params: FluidParams) -> None:
    report = validate_params(params)
    if not report.ok:
        raise ValueError("invalid fluid parameters: " + "; ".join(report.violations))


def _check_positive_density(rho) -> None:
    if (np.asarray(rho) <= 0.0).any():
        raise ValueError("density must be positive")


def pressure(rho, params: FluidParams):
    """P(rho) = K rho^gamma."""
    _check_positive_density(rho)
    return pressure_unchecked(np.asarray(rho, dtype=float), params)


def pressure_unchecked(rho: np.ndarray, params: FluidParams) -> np.ndarray:
    """P(rho) of a density array the caller has already checked positive."""
    return params.k_pressure * rho ** params.gamma


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


def damping_beta(params: FluidParams) -> float:
    """Damping rate rho_+^2 q(rho_+) / (2 mu + lambda) of the radial-derivative equation."""
    qp = float(q_coeff(params.rho_plus, params))
    return params.rho_plus**2 * qp / (2.0 * params.mu + params.lam)
