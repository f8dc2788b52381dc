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
        """scale * (factor * x) ** power at x = level_index(n, gamma),
        formed as sign(scale) exp(ln|scale| + power ln(factor x)) where
        the power alone is not a normal float; ValueError where the level
        is not one either."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        x = self.level_index(n, gamma)
        p = self._raised(x)
        if _MIN_NORMAL <= p < math.inf:
            e = self.scale * p
        else:  # scale * p can still be in range: form the level in logarithms
            try:
                e = math.exp(math.log(abs(self.scale)) + self.power * math.log(self.factor * x))
            except OverflowError:  # exp raises where the level would be inf
                e = math.inf
            e = math.copysign(e, self.scale)
        return _normal_level(e, n, gamma)

    def _raised(self, x: float) -> float:
        """(factor * x) ** power, which is positive, or inf where float ** raises on overflow."""
        try:
            return (self.factor * x) ** self.power
        except OverflowError:
            return math.inf


_MIN_NORMAL = sys.float_info.min


def _normal_level(e: float, n: float, gamma: float) -> float:
    """e, the level (n, gamma), where it is a finite normal float; where it
    is not, it would print as inf, -0 or a subnormal, and ValueError names it."""
    if not math.isfinite(e):
        raise ValueError(f"level n={n}, gamma={gamma} is not finite: E = {e}")
    if not abs(e) >= sys.float_info.min:
        raise ValueError(f"level n={n}, gamma={gamma} underflows: |E| = {abs(e):.3g}")
    return e


def _power_law_coefficients(lam: float, nu: float, scale: float) -> LevelCoefficients:
    if lam < 0.0 and -2.0 < nu < 0.0:
        factor = 2.0 * abs(nu) * math.sqrt(math.pi) * gamma_ratio(1.0 - 1.0 / nu, -1.0 / nu - 0.5)
        return LevelCoefficients(scale, factor, 1.0 / (nu + 2.0), (nu + 3.0) / (2.0 * nu + 4.0), 2.0 * nu / (nu + 2.0))
    if lam > 0.0 and nu > 0.0:
        factor = 2.0 * nu * math.sqrt(math.pi) * gamma_ratio(1.0 / nu + 1.5, 1.0 / nu)
        return LevelCoefficients(scale, factor, 0.5, 0.75, 2.0 * nu / (nu + 2.0))
    raise ValueError(f"need lam < 0, -2 < nu < 0 or lam, nu > 0; got {lam}, {nu}")


@functools.lru_cache(maxsize=64)
def level_coefficients(potential: PotentialSpec) -> LevelCoefficients:
    """The closed-form record of a potential (reduced units), computed once.

    Raises ValueError where the energy scale, pi**2/a**2 for the well and
    |lam|**(2/(nu+2)) otherwise, is not a normal float: every level is
    that scale times a power of the level index.
    """
    well = isinstance(potential, InfiniteWell)
    try:
        if well:
            scale = math.pi**2 / potential.a**2
        else:
            scale = math.copysign(abs(potential.lam) ** (2.0 / (potential.nu + 2.0)), potential.lam)
    except (OverflowError, ZeroDivisionError):  # a**2 or the power left the range
        scale = math.nan
    if not sys.float_info.min <= abs(scale) < math.inf:
        if well:
            formula, at, grows = "pi**2/a**2", f"a={potential.a}", potential.a < 1.0
        else:
            formula, at = "|lam|**(2/(nu+2))", f"lam={potential.lam}, nu={potential.nu}"
            grows = abs(potential.lam) > 1.0
        raise ValueError(f"energy scale {formula} {'overflows' if grows else 'underflows'} at {at}")
    if well:
        return LevelCoefficients(scale, 1.0, 0.5, 1.0, 2.0)
    return _power_law_coefficients(potential.lam, potential.nu, scale)


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
    """Grid of levels over quantum-number ranges, held as columns.

    states holds one (q, k, gamma) per state in (q, k) order, and energies
    the levels in (n, q, k) order, so energies[i] is the level n = i // m
    of states[i % m], m = len(states).  rows builds the EnergyLevel view.
    """

    potential: PotentialSpec
    mu0: float
    unit: UnitScale
    states: tuple[tuple[int, int, float], ...]
    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        m, size = len(self.states), len(self.energies)
        if (size % m if m else size) != 0:
            raise ValueError(f"{size} energies do not fill an n-grid over {m} states")

    @property
    def rows(self) -> tuple[EnergyLevel, ...]:
        """The levels as EnergyLevel tuples, sorted by (n, q, k)."""
        m = len(self.states)
        return tuple(EnergyLevel(i // m, *self.states[i % m], e) for i, e in enumerate(self.energies))


def spectrum_table(
    potential: PotentialSpec,
    mu0: float,
    n_max: int,
    q_max: int,
    k_range: tuple[int, int],
    unit: UnitScale | None = None,
) -> SpectrumTable:
    """Closed-form levels for every (n, q, k) in the requested ranges.

    |E| is monotone in n + slope * gamma, so the displayed levels peak and
    bottom out at the grid's two corners: n = 0 at the smallest gamma and
    n_max at the largest.  Those two come from the scalar
    closed_form_energy(potential, n, gamma) times the unit factor, and
    raise ValueError first when a displayed level would print as inf, -0
    or a subnormal.  Every other level comes from the held
    level_coefficients(potential) record with the association and ** of
    LevelCoefficients.energy, so it is bit-identical to the scalar entry.
    (factor * x) ** power is monotone in x too, so where it is a normal
    float at both corners it is one on the whole grid; where it is not,
    each level comes from LevelCoefficients.energy, which forms it in
    logarithms where needed.
    """
    k_lo, k_hi = k_range
    if n_max < 0 or q_max < 0 or k_lo > k_hi:
        raise ValueError(f"empty grid: n_max={n_max}, q_max={q_max}, k_range={k_range}")
    if not math.isfinite(mu0):
        raise ValueError(f"mu0 must be finite, got {mu0}")
    unit = unit or REDUCED

    factor = unit.factor
    states = tuple((q, k, effective_gamma(q, k, mu0)) for q in range(q_max + 1) for k in range(k_lo, k_hi + 1))
    gammas = [g for _, _, g in states]
    lo, hi = gammas.index(min(gammas)), gammas.index(max(gammas))
    e_lo = _normal_level(closed_form_energy(potential, 0, gammas[lo]) * factor, 0, gammas[lo])
    e_hi = _normal_level(closed_form_energy(potential, n_max, gammas[hi]) * factor, n_max, gammas[hi])
    held = level_coefficients(potential)
    corners = (held.level_index(0, gammas[lo]), held.level_index(n_max, gammas[hi]))
    if all(_MIN_NORMAL <= held._raised(x) < math.inf for x in corners):
        scale, base, offset, power = held.scale, held.factor, held.offset, held.power
        slope_g = [held.slope * g for g in gammas]
        energies = [scale * (base * (n + a + offset)) ** power * factor for n in range(n_max + 1) for a in slope_g]
    else:  # the power leaves the double range somewhere on the grid
        energies = [held.energy(n, g) * factor for n in range(n_max + 1) for g in gammas]
    energies[lo], energies[n_max * len(gammas) + hi] = e_lo, e_hi
    return SpectrumTable(potential, mu0, unit, states, tuple(energies))
