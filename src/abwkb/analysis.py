"""Spectral tendency report: the curvature, derivative signs, slope ratios
and flux-slope sign of the levels in (n, q, kmu = |k + mu0|).

Every closed form is E = s (K x)**p with x = n + a (q + kmu) + b, so
all derivatives are exact, and the report reads its signs and ratios off
that one record: the branch rules live in closed_form alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_form import level_coefficients
from .model import InfiniteWell, PotentialSpec, PowerLaw

__all__ = [
    "TendencyReport",
    "build_tendency_report",
]


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


@dataclass(frozen=True)
class TendencyReport:
    """Qualitative spectrum shape for one exponent."""

    nu: float
    curvature: str
    first_derivative_signs: tuple[str, str, str]
    ratios: tuple[float, float, float]
    flux_slope_sign: str


_SIGN_TEXT = {1: "+", 0: "0", -1: "-"}
# keyed by the sign of d2E/dn2, which is also that of d2E/(dn dkmu)
_CURVATURE = {1: "bends-up", 0: "linear", -1: "bends-down"}


def build_tendency_report(potential: PotentialSpec) -> TendencyReport:
    """Exact tendency quantities of the closed-form record E = s (K x)**p,
    x = n + a (q + kmu) + b, with K, a, x > 0:

    - dE/dn = s p K (K x)**(p - 1) and dE/dq = dE/dkmu = a dE/dn, so the
      slope ratios (dE/dn : dE/dkmu, dE/dq : dE/dkmu, 1) are (1/a, 1, 1);
    - d2E/dn2 and d2E/(dn dkmu) are s p (p - 1) K**2 (K x)**(p - 2) times
      1 and times a, so the sign of s p (p - 1) gives both the curvature
      class and the flux-slope sign.
    """
    # the signs depend on the exponent alone: |lam| and the well radius
    # scale s by a positive factor, which for nu -> -2 can underflow
    if isinstance(potential, InfiniteWell):
        nu, c = math.inf, level_coefficients(InfiniteWell(1.0))
    else:
        nu = potential.nu
        c = level_coefficients(PowerLaw(-1.0 if nu < 0.0 else 1.0, nu))
    bend = _sign(c.scale * c.power * (c.power - 1.0))
    dn = _SIGN_TEXT[_sign(c.scale * c.power)]
    dg = _SIGN_TEXT[_sign(c.scale * c.power * c.slope)]
    return TendencyReport(nu, _CURVATURE[bend], (dn, dg, dg), (1.0 / c.slope, 1.0, 1.0), _SIGN_TEXT[bend])
