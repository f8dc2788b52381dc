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
from typing import NamedTuple

from .model import InfiniteWell, PotentialSpec, UnitScale, effective_gamma
from .special_functions import gamma_ratio

__all__ = [
    "EnergyLevel",
    "LevelCoefficients",
    "SpectrumTable",
    "closed_form_energy",
    "level_coefficients",
    "spectrum_table",
]

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
        try:
            e = self.scale * (self.factor * self.level_index(n, gamma)) ** self.power
        except OverflowError:  # float ** raises where * would give inf
            e = math.copysign(math.inf, self.scale)
        if not math.isfinite(e):
            raise ValueError(f"level n={n}, gamma={gamma} is not finite: E = {e}")
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


def closed_form_energy(potential: PotentialSpec, n: int, gamma: float) -> float:
    """Closed-form level for any supported potential, in reduced units.

    Raises ValueError when |E| falls below the normal double range, where
    the level would print as -0 or a subnormal.
    """
    return level_coefficients(potential).energy(n, gamma)


class EnergyLevel(NamedTuple):
    """One closed-form bound-state energy with its quantum numbers."""

    n: int
    q: int
    k: int
    gamma: float
    energy: float


@dataclass(frozen=True)
class SpectrumTable:
    """Grid of levels over quantum-number ranges, sorted by (n, q, k)."""

    potential: PotentialSpec
    mu0: float
    unit: UnitScale
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

    Rows are emitted in lexicographic (n, q, k) order.  Each level is the
    scalar closed_form_energy(potential, n, gamma) times the unit factor;
    raises ValueError when a displayed level is not finite.
    """
    k_lo, k_hi = k_range
    if n_max < 0 or q_max < 0 or k_lo > k_hi:
        raise ValueError(f"empty grid: n_max={n_max}, q_max={q_max}, k_range={k_range}")
    if not math.isfinite(mu0):
        raise ValueError(f"mu0 must be finite, got {mu0}")
    unit = unit or REDUCED

    factor = unit.factor
    qk_gammas = [(q, k, effective_gamma(q, k, mu0)) for q in range(q_max + 1) for k in range(k_lo, k_hi + 1)]
    rows = tuple(
        EnergyLevel(n, q, k, g, closed_form_energy(potential, n, g) * factor)
        for n in range(n_max + 1)
        for q, k, g in qk_gammas
    )
    # |E| is monotone in n + slope * g, so the displayed levels peak at one of the grid's corners
    gammas = [g for _, _, g in qk_gammas]
    for r in (rows[gammas.index(min(gammas))], rows[n_max * len(gammas) + gammas.index(max(gammas))]):
        if not math.isfinite(r.energy):
            raise ValueError(f"level n={r.n}, gamma={r.gamma} is not finite: E = {r.energy}")
    return SpectrumTable(potential, mu0, unit, rows)
