"""Semiclassical (WKB) energy spectra for spherically symmetric power-law
potentials V(r) = lam * r**nu (-2 < nu < inf) threaded by an Aharonov-Bohm
flux, with exact oracles for validation.

Reduced units hbar = 1, 2m = 1 are used throughout the numeric core.
"""

from ._kernels import BACKEND
from .action import (
    QuantizationSetup,
    action_integral_closed,
    action_integral_numeric,
    quantization_constant,
    quantize_energy,
    turning_point,
)
from .analysis import (
    TendencyReport,
    build_tendency_report,
    spectral_derivative,
)
from .closed_form import (
    EnergyLevel,
    SpectrumTable,
    closed_form_energy,
    spectrum_table,
)
from .errors import ConvergenceError
from .model import (
    InfiniteWell,
    MaslovConstant,
    PotentialSpec,
    PowerLaw,
    UnitScale,
    duality_map,
    effective_gamma,
    unit_scale,
)
from .oracles import shoot_eigenvalue, well_exact_spectrum
from .special_functions import bessel_j, bessel_j_zero, bessel_j_zeros

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ConvergenceError",
    "EnergyLevel",
    "InfiniteWell",
    "MaslovConstant",
    "PotentialSpec",
    "PowerLaw",
    "QuantizationSetup",
    "SpectrumTable",
    "TendencyReport",
    "UnitScale",
    "action_integral_closed",
    "action_integral_numeric",
    "bessel_j",
    "bessel_j_zero",
    "bessel_j_zeros",
    "build_tendency_report",
    "closed_form_energy",
    "duality_map",
    "effective_gamma",
    "quantization_constant",
    "quantize_energy",
    "shoot_eigenvalue",
    "spectral_derivative",
    "spectrum_table",
    "turning_point",
    "unit_scale",
    "well_exact_spectrum",
]
