"""Domain types: potentials, flux quantum numbers, units.

Reduced units are used throughout the numeric core: hbar = 1 and 2m = 1,
so the radial equation reads u'' + (E - V(r) - gamma(gamma+1)/r^2) u = 0.
The flux enters only through the dimensionless parameter mu0 (physically
mu0 = -2eg/(hbar c) with total flux Phi = 4 pi g; neither g nor Phi is
modelled here) and the effective angular momentum gamma = q + |k + mu0|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PowerLaw",
    "InfiniteWell",
    "PotentialSpec",
    "UnitScale",
    "effective_gamma",
    "duality_map",
    "unit_scale",
    "UNIT_PRESETS",
]

_NU_EDGE = 1e-6  # reject exponents this close to the excluded points 0 and -2


@dataclass(frozen=True)
class PowerLaw:
    """Central potential V(r) = lam * r**nu.

    Valid parameter ranges: (lam < 0, -2 < nu < 0) or (lam > 0, nu > 0).
    """

    lam: float
    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.nu)):
            raise ValueError(f"lam and nu must be finite, got lam={self.lam}, nu={self.nu}")
        if abs(self.nu) < _NU_EDGE or abs(self.nu + 2.0) < _NU_EDGE:
            raise ValueError(f"exponent nu={self.nu} too close to an excluded endpoint (0, -2)")
        if self.nu > 0.0:
            if not self.lam > 0.0:
                raise ValueError(f"nu > 0 requires lam > 0, got lam={self.lam}")
        elif -2.0 < self.nu < 0.0:
            if not self.lam < 0.0:
                raise ValueError(f"-2 < nu < 0 requires lam < 0, got lam={self.lam}")
        else:
            raise ValueError(f"exponent nu={self.nu} outside the validity range (-2, 0) u (0, inf)")

    def __call__(self, r: float) -> float:
        return self.lam * r**self.nu


@dataclass(frozen=True)
class InfiniteWell:
    """Infinitely deep spherical well: V = 0 for r < a, infinite outside."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"well radius must be positive and finite, got {self.a}")

    def __call__(self, r: float) -> float:
        return 0.0 if r < self.a else math.inf


PotentialSpec = PowerLaw | InfiniteWell


def effective_gamma(q: int, k: int, mu0: float) -> float:
    """Effective angular momentum gamma = q + |k + mu0| (>= 0 for q >= 0)."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    return q + abs(k + mu0)


def duality_map(nu: float, E: float, lam: float, gamma: float) -> tuple[float, float, float, float]:
    """Map a positive-power problem (nu > 0) onto its negative-power dual.

    Returns (nu', E', lam', gamma') with
        nu'    = -2 nu / (2 + nu)            in (-2, 0)
        E'     = -lam (nu'/nu)**2
        lam'   = -E (nu'/nu)**2
        gamma' = (2 gamma + 1)/(nu + 2) - 1/2
    The energy and the coupling swap roles; gamma' may be negative and is
    then only an algebraic intermediate, not a physical angular momentum.
    """
    if not nu > 0.0:
        raise ValueError(f"duality_map requires nu > 0, got {nu}")
    nu_p = -2.0 * nu / (2.0 + nu)
    ratio2 = (nu_p / nu) ** 2
    E_p = -lam * ratio2
    lam_p = -E * ratio2
    gamma_p = (2.0 * gamma + 1.0) / (nu + 2.0) - 0.5
    return nu_p, E_p, lam_p, gamma_p


@dataclass(frozen=True)
class UnitScale:
    """Display-unit conversion: energy_display = factor * energy_reduced."""

    label: str
    factor: float

    def __post_init__(self):
        if not 0.0 < self.factor < math.inf:
            raise ValueError(f"unit factor must be positive and finite, got {self.factor}")


def unit_scale(preset: str, potential: PotentialSpec | None = None) -> UnitScale:
    """Named unit presets matching the standard display conventions.

    reduced      -- hbar = 2m = 1 energies, factor 1
    fig2a        -- m c^2 alpha^2 / 2 for the Coulomb case (alpha^2 ~ lam^2)
    fig2b        -- (9 pi^2 lam^2 hbar^2 / 8m)^(1/3) for the linear case
    fig2c        -- hbar*omega for the oscillator (lam = m omega^2 / 2)
    fig1, fig2d  -- hbar^2 pi^2 / (2 m a^2) for the well

    A factor outside the double range raises ValueError naming the preset
    and the potential.
    """
    try:
        label, factor = _unit_factor(preset, potential)
        if 0.0 < factor < math.inf:
            return UnitScale(label, factor)
    except (OverflowError, ZeroDivisionError):  # lam * lam underflowed to 0, or a**2 overflowed
        pass
    # or the factor rounded to 0 or inf
    raise ValueError(f"{preset} unit factor is not finite and positive for {potential}")


def _unit_factor(preset: str, potential: PotentialSpec | None) -> tuple[str, float]:
    if preset == "reduced":
        return "reduced", 1.0
    if preset == "fig2a":
        lam = _require_power_law(preset, potential).lam
        return "mc^2 alpha^2/2", 4.0 / (lam * lam)
    if preset == "fig2b":
        lam = _require_power_law(preset, potential).lam
        return "(9 pi^2 lam^2 hbar^2/8m)^(1/3)", (1.5 * math.pi * abs(lam)) ** (-2.0 / 3.0)
    if preset == "fig2c":
        lam = _require_power_law(preset, potential).lam
        if lam <= 0.0:
            raise ValueError("fig2c units need a positive coupling")
        return "hbar*omega", 1.0 / (2.0 * math.sqrt(lam))
    if preset in ("fig1", "fig2d"):
        if not isinstance(potential, InfiniteWell):
            raise ValueError(f"{preset} units apply to the infinite well")
        return "hbar^2 pi^2/2ma^2", potential.a**2 / math.pi**2
    raise ValueError(f"unknown unit preset {preset!r}")


def _require_power_law(preset: str, potential: PotentialSpec | None) -> PowerLaw:
    if not isinstance(potential, PowerLaw):
        raise ValueError(f"{preset} units need a power-law potential")
    return potential


UNIT_PRESETS = ("reduced", "fig1", "fig2a", "fig2b", "fig2c", "fig2d")
