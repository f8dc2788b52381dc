"""Spectral tendency analysis: derivatives in (n, q, |k+mu0|), curvature
classification, derivative ratios and the flux-slope effect.

Quantum numbers are promoted to continuous reals here (and only here) so
the closed forms can be differentiated; |k + mu0| is treated as a single
variable, which sidesteps the kink of the absolute value at k + mu0 = 0.
Every closed form is E = s (K x)**p with x = n + a (q + kmu) + b, so
all derivatives are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_form import LevelCoefficients, level_coefficients
from .model import InfiniteWell, PotentialSpec, PowerLaw

__all__ = [
    "BENDS_DOWN",
    "LINEAR",
    "BENDS_UP",
    "TendencyReport",
    "spectral_derivative",
    "tendency_classify",
    "derivative_ratios",
    "flux_slope_effect",
    "build_tendency_report",
]

BENDS_DOWN = "bends-down"
LINEAR = "linear"
BENDS_UP = "bends-up"

_KMU_FLOOR = 1e-3


def spectral_derivative(
    potential: PotentialSpec,
    mu0: float,
    point: tuple[float, float, float],
    which: str,
    order: int = 1,
) -> float:
    """Exact first or second derivative of the closed-form energy (reduced
    units) with respect to one of the continuous variables n, q or
    kmu = |k+mu0|.

    point is (n, q, k) with real components; differentiating in kmu
    requires |k + mu0| >= 1e-3 to stay clear of the absolute-value kink.
    """
    n, q, k = point
    kmu = abs(k + mu0)
    if which not in ("n", "q", "kmu"):
        raise ValueError(f"which must be 'n', 'q' or 'kmu', got {which!r}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if which == "kmu" and kmu < _KMU_FLOOR:
        raise ValueError(f"|k + mu0| = {kmu} too close to the kink for a kmu derivative")
    c = level_coefficients(potential)
    kx = c.factor * c.level_index(n, q + kmu)
    # d/dn of x is 1, d/dq and d/dkmu are the slope a
    dx = 1.0 if which == "n" else c.slope
    if order == 1:
        return c.scale * c.power * c.factor * kx ** (c.power - 1.0) * dx
    return c.scale * c.power * (c.power - 1.0) * (c.factor * dx) ** 2 * kx ** (c.power - 2.0)


def tendency_classify(nu: float) -> str:
    """Curvature class of E versus any quantum number: linear exactly at
    nu = 2, bending up for nu > 2 (including the well limit), bending
    down for -2 < nu < 2 excluding 0."""
    if nu == math.inf:
        return BENDS_UP
    if not (-2.0 < nu < 0.0 or nu > 0.0):
        raise ValueError(f"nu={nu} outside (-2, 0) u (0, inf]")
    if nu == 2.0:
        return LINEAR
    return BENDS_UP if nu > 2.0 else BENDS_DOWN


def derivative_ratios(nu: float) -> tuple[float, float, float]:
    """(dE/dn : dE/dq, dE/dn : dE/dkmu, dE/dq : dE/dkmu).

    The positive branch depends on n + gamma/2 + 3/4, so the slopes in n
    and in gamma stand in the fixed ratio 2:1; the negative branch depends
    on n + (2 gamma + nu + 3)/(2 nu + 4), giving (nu + 2):1.  The well
    (nu = inf) depends on n + gamma/2 + 1 and shares the ratio 2.
    """
    if nu > 0.0:
        return (2.0, 2.0, 1.0)
    if -2.0 < nu < 0.0:
        return (nu + 2.0, nu + 2.0, 1.0)
    raise ValueError(f"nu={nu} outside (-2, 0) u (0, inf]")


def _probe_coefficients(nu: float) -> LevelCoefficients:
    # the signs depend on the exponent alone: |lam| and the well radius
    # scale s by a positive factor, which for nu -> -2 can underflow
    if nu == math.inf:
        return level_coefficients(InfiniteWell(1.0))
    return level_coefficients(PowerLaw(-1.0 if nu < 0.0 else 1.0, nu))


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def flux_slope_effect(nu: float) -> int:
    """Sign of d^2 E / (dn d|k+mu0|): -1 when the flux depresses the
    n-slope (nu < 2), 0 at the marginal oscillator (nu = 2), +1 when it
    steepens it (nu > 2).  The mixed derivative is s p (p - 1) K^2 a
    (K x)**(p - 2) with K, a, x > 0, so its sign is that of s p (p - 1)."""
    c = _probe_coefficients(nu)
    return _sign(c.scale * c.power * (c.power - 1.0))


@dataclass(frozen=True)
class TendencyReport:
    """Qualitative spectrum shape for one exponent."""

    nu: float
    curvature: str
    first_derivative_signs: tuple[str, str, str]
    ratios: tuple[float, float, float]
    flux_slope_sign: str


_SIGN_TEXT = {1: "+", 0: "0", -1: "-"}


def build_tendency_report(potential: PotentialSpec) -> TendencyReport:
    """Exact tendency quantities of the closed form: the curvature class
    and the slope ratios (dE/dn : dE/dkmu, dE/dq : dE/dkmu, 1) from the
    exponent rules, the derivative signs from the closed-form record
    (dE/dn = s p K (K x)**(p - 1) and dE/dq = dE/dkmu = a dE/dn)."""
    nu = math.inf if isinstance(potential, InfiniteWell) else potential.nu
    c = _probe_coefficients(nu)
    dn = _SIGN_TEXT[_sign(c.scale * c.power)]
    dg = _SIGN_TEXT[_sign(c.scale * c.power * c.slope)]
    ratios = (derivative_ratios(nu)[1], 1.0, 1.0)
    return TendencyReport(nu, tendency_classify(nu), (dn, dg, dg), ratios, _SIGN_TEXT[flux_slope_effect(nu)])
