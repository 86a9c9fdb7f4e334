"""Exterior-domain compressible outflow laboratory."""

import os
# Set before numpy loads: starting numpy's and scipy's OpenBLAS thread pools costs ~0.05 s,
# and _modal_solve, legendre_amplitudes and cutoffs._convolve are too small to fill them.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .grids import AngularGrid, RadialGrid
from .params import (
    FluidParams,
    dpressure,
    pressure,
    q_coeff,
    sound_speed,
    validate_params,
)
from .states import AxiState, SymState, compatibility_residual, perturb_axi, perturb_sym
from .steady import (
    FitWindowTooSmall,
    NonConvergence,
    SteadyProfile,
    div_u_profile,
    solve_steady,
    verify_decay,
)

__version__ = "0.1.0"

__all__ = [
    "AngularGrid",
    "RadialGrid",
    "FluidParams",
    "pressure",
    "dpressure",
    "q_coeff",
    "sound_speed",
    "validate_params",
    "SymState",
    "AxiState",
    "perturb_sym",
    "perturb_axi",
    "compatibility_residual",
    "SteadyProfile",
    "solve_steady",
    "verify_decay",
    "div_u_profile",
    "NonConvergence",
    "FitWindowTooSmall",
    "__version__",
]
