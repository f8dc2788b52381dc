"""Semiclassical (WKB) energy spectra for spherically symmetric power-law
potentials V(r) = lam * r**nu (-2 < nu < inf) threaded by an Aharonov-Bohm
flux, with exact oracles for validation.

Reduced units hbar = 1, 2m = 1 are used throughout the numeric core.

The closed forms, the model types and the tendency report load with the
package.  The NumPy modules (_kernels and the action and oracles solvers)
load on the first access to one of the names in _LAZY or to the module
itself, so a closed-form grid never imports NumPy.
"""

import importlib

from .analysis import (
    TendencyReport,
    build_tendency_report,
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
    PotentialSpec,
    PowerLaw,
    UnitScale,
    duality_map,
    effective_gamma,
    unit_scale,
)
from .special_functions import bessel_j, bessel_j_zeros

# name -> the submodule that defines it, imported on the name's first access
_LAZY = {
    "BACKEND": "_kernels",
    "QuantizationSetup": "action",
    "action_integral_closed": "action",
    "action_integral_numeric": "action",
    "quantize_energy": "action",
    "turning_point": "action",
    "shoot_eigenvalue": "oracles",
    "well_exact_spectrum": "oracles",
}


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _LAZY.values():  # abwkb.action etc., attributes as when imported eagerly
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ConvergenceError",
    "EnergyLevel",
    "InfiniteWell",
    "PotentialSpec",
    "PowerLaw",
    "QuantizationSetup",
    "SpectrumTable",
    "TendencyReport",
    "UnitScale",
    "action_integral_closed",
    "action_integral_numeric",
    "bessel_j",
    "bessel_j_zeros",
    "build_tendency_report",
    "closed_form_energy",
    "duality_map",
    "effective_gamma",
    "quantize_energy",
    "shoot_eigenvalue",
    "spectrum_table",
    "turning_point",
    "unit_scale",
    "well_exact_spectrum",
]
