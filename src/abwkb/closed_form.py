"""Closed-form semiclassical energy spectra.

All energies are produced in reduced units (hbar = 2m = 1) unless the
docstring says otherwise; UnitScale factors convert for display.  The two
master formulas are

    E = -|lam|**(2/(nu+2)) * [ 2|nu| sqrt(pi) (n + (2g+nu+3)/(2nu+4))
          * G(1 - 1/nu)/G(-1/nu - 1/2) ]**(2nu/(nu+2))      (lam, E < 0, -2 < nu < 0)

    E = lam**(2/(nu+2)) * [ 2 nu sqrt(pi) (n + g/2 + 3/4)
          * G(1/nu + 3/2)/G(1/nu) ]**(2nu/(nu+2))           (lam, nu, E > 0)

with g the effective angular momentum q + |k + mu0|.  Both, and the well
limit, are evaluated from one LevelCoefficients record per potential.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .model import InfiniteWell, PotentialSpec, UnitScale, effective_gamma
from .special_functions import gamma_ratio

__all__ = [
    "EnergyLevel",
    "LevelCoefficients",
    "SpectrumTable",
    "METHOD_CLOSED_FORM",
    "METHOD_ACTION_ROOT",
    "METHOD_EXACT_ORACLE",
    "energy_negative_power",
    "energy_positive_power",
    "energy_coulomb",
    "energy_oscillator",
    "energy_well_semiclassical",
    "closed_form_energy",
    "level_coefficients",
    "spectrum_table",
]

METHOD_CLOSED_FORM = "closed-form"
METHOD_ACTION_ROOT = "action-root"
METHOD_EXACT_ORACLE = "exact-oracle"

REDUCED = UnitScale("reduced", 1.0)


@dataclass(frozen=True)
class LevelCoefficients:
    """Both master formulas and the well limit share one shape,

        E(n, g) = scale * (factor * (n + slope * g + offset)) ** power,

    with the Gamma ratio folded into factor.  One record per potential
    serves the levels, their exact derivatives and the quantization
    constant slope * g + offset.
    """

    scale: float
    factor: float
    slope: float
    offset: float
    power: float

    def level_index(self, n: float, gamma: float) -> float:
        x = n + self.slope * gamma + self.offset
        if not x > 0.0:
            raise ValueError(f"non-positive level index n + {self.slope} g + {self.offset} = {x}")
        return x

    def energy(self, n: float, gamma: float) -> float:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        e = self.scale * (self.factor * self.level_index(n, gamma)) ** self.power
        if not abs(e) >= sys.float_info.min:
            raise ValueError(f"level n={n}, gamma={gamma} underflows: |E| = {abs(e):.3g}")
        return e


def _power_law_coefficients(lam: float, nu: float) -> LevelCoefficients:
    if lam < 0.0 and -2.0 < nu < 0.0:
        factor = 2.0 * abs(nu) * math.sqrt(math.pi) * gamma_ratio(1.0 - 1.0 / nu, -1.0 / nu - 0.5)
        return LevelCoefficients(
            -abs(lam) ** (2.0 / (nu + 2.0)),
            factor,
            1.0 / (nu + 2.0),
            (nu + 3.0) / (2.0 * nu + 4.0),
            2.0 * nu / (nu + 2.0),
        )
    if lam > 0.0 and nu > 0.0:
        factor = 2.0 * nu * math.sqrt(math.pi) * gamma_ratio(1.0 / nu + 1.5, 1.0 / nu)
        return LevelCoefficients(lam ** (2.0 / (nu + 2.0)), factor, 0.5, 0.75, 2.0 * nu / (nu + 2.0))
    raise ValueError(f"need lam < 0, -2 < nu < 0 or lam, nu > 0; got {lam}, {nu}")


@functools.lru_cache(maxsize=64)
def level_coefficients(potential: PotentialSpec) -> LevelCoefficients:
    """The closed-form record of a potential (reduced units), computed once."""
    if isinstance(potential, InfiniteWell):
        return LevelCoefficients(math.pi**2 / potential.a**2, 1.0, 0.5, 1.0, 2.0)
    return _power_law_coefficients(potential.lam, potential.nu)


def energy_negative_power(n: int, gamma: float, lam: float, nu: float) -> float:
    """Level n of V = lam r**nu for lam < 0, -2 < nu < 0 (reduced units, E < 0).

    gamma is normally >= 0; negative algebraic values produced by the
    duality transform are accepted as long as the level index stays
    positive, since the formula only sees n + (2 gamma + nu + 3)/(2 nu + 4).
    """
    if not (lam < 0.0 and -2.0 < nu < 0.0):
        raise ValueError(f"negative-power branch needs lam < 0, -2 < nu < 0; got {lam}, {nu}")
    return _power_law_coefficients(lam, nu).energy(n, gamma)


def energy_positive_power(n: int, gamma: float, lam: float, nu: float) -> float:
    """Level n of V = lam r**nu for lam, nu > 0 (reduced units, E > 0)."""
    if not (lam > 0.0 and nu > 0.0):
        raise ValueError(f"positive-power branch needs lam > 0, nu > 0; got {lam}, {nu}")
    return _power_law_coefficients(lam, nu).energy(n, gamma)


def energy_coulomb(n: int, q: int, k: int, mu0: float) -> float:
    """Coulomb levels -1/(4 (n + q + |k+mu0| + 1)^2), reduced units with
    lam = -1 (equivalently -(m c^2 a^2 / 2) / N^2 in display units)."""
    if n < 0 or q < 0:
        raise ValueError(f"n and q must be >= 0, got {n}, {q}")
    big_n = n + q + abs(k + mu0) + 1.0
    return -1.0 / (4.0 * big_n * big_n)


def energy_oscillator(n: int, gamma: float) -> float:
    """Oscillator levels 2n + gamma + 3/2 in units of hbar*omega."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return 2.0 * n + gamma + 1.5


def energy_well_semiclassical(n: int, gamma: float, a: float) -> float:
    """Semiclassical well levels (n + gamma/2 + 1)^2 in units
    hbar^2 pi^2 / (2 m a^2)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not a > 0.0:
        raise ValueError(f"well radius must be positive, got {a}")
    return (n + 0.5 * gamma + 1.0) ** 2


def closed_form_energy(potential: PotentialSpec, n: int, gamma: float) -> float:
    """Closed-form level for any supported potential, in reduced units.

    Raises ValueError when |E| falls below the normal double range, where
    the level would print as -0 or a subnormal.
    """
    return level_coefficients(potential).energy(n, gamma)


@dataclass(frozen=True)
class EnergyLevel:
    """One bound-state energy with its quantum numbers and provenance."""

    n: int
    q: int
    k: int
    gamma: float
    energy: float
    method: str = METHOD_CLOSED_FORM


@dataclass(frozen=True)
class SpectrumTable:
    """Grid of levels over quantum-number ranges, sorted by (n, q, k)."""

    potential: PotentialSpec
    mu0: float
    unit: UnitScale
    method: str
    rows: tuple[EnergyLevel, ...]


def spectrum_table(
    potential: PotentialSpec,
    mu0: float,
    n_max: int,
    q_max: int,
    k_range: tuple[int, int],
    unit: UnitScale | None = None,
) -> SpectrumTable:
    """Closed-form levels for every (n, q, k) in the requested ranges.

    Rows are emitted in lexicographic (n, q, k) order.
    """
    k_lo, k_hi = k_range
    if n_max < 0 or q_max < 0 or k_lo > k_hi:
        raise ValueError(f"empty grid: n_max={n_max}, q_max={q_max}, k_range={k_range}")
    unit = unit or REDUCED

    factor = unit.factor
    rows = []
    for n in range(n_max + 1):
        for q in range(q_max + 1):
            for k in range(k_lo, k_hi + 1):
                g = effective_gamma(q, k, mu0)
                rows.append(EnergyLevel(n, q, k, g, closed_form_energy(potential, n, g) * factor))
    return SpectrumTable(potential, mu0, unit, METHOD_CLOSED_FORM, tuple(rows))
