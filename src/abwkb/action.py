"""Radial action integral and energy quantization.

The quantization condition in reduced units (hbar = 2m = 1) is

    integral_0^rc sqrt(E - V(r)) dr = (n + c) * pi

with rc the classical turning point and c the matching constant: the
exponent-dependent value (2g + nu + 3)/(2(nu + 2)) for -2 < nu < 0,
g/2 + 3/4 for nu > 0 (one hard wall at the origin, smooth outer turning
point), and g/2 + 1 for the infinite well (two walls).

For V = lam r**nu the turning point is rc = (E/lam)**(1/nu), and the
substitution r = rc y**p turns the action into rc sqrt|E| times a number
that depends on nu alone.  The action is therefore an exact power of the
energy, S(E) = S(E0) (E/E0)**alpha with alpha = 1/nu + 1/2 (1/2 for the
well, whose rc is fixed), and a level needs one quadrature and a closed
inversion, not a root search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernels, closed_form
from .errors import ConvergenceError
from .model import InfiniteWell, MaslovConstant, PotentialSpec, PowerLaw
from .special_functions import gamma_ratio

__all__ = [
    "QuantizationSetup",
    "turning_point",
    "action_integral_numeric",
    "action_integral_closed",
    "quantization_constant",
    "quantize_energy",
]

_T_MAX = 6.0  # tanh-sinh truncation; weights underflow well before this
_MAX_LEVEL = 11  # finest mesh h = 2**-11, 24577 nodes


def turning_point(E: float, potential: PotentialSpec) -> float:
    """Classical turning point rc with V(rc) = E (well: always the radius)."""
    if isinstance(potential, InfiniteWell):
        if not E > 0.0:
            raise ValueError(f"well energies are positive, got {E}")
        return potential.a
    lam, nu = potential.lam, potential.nu
    if lam < 0.0 and not E < 0.0:
        raise ValueError(f"bound energies for lam < 0 are negative, got E={E}")
    if lam > 0.0 and not E > 0.0:
        raise ValueError(f"bound energies for lam > 0 are positive, got E={E}")
    try:
        return (E / lam) ** (1.0 / nu)
    except OverflowError:
        raise ValueError(f"turning point (E/lam)**(1/nu) overflows at E={E}, lam={lam}, nu={nu}") from None


def action_integral_numeric(E: float, potential: PotentialSpec, rel_tol: float = 1e-12) -> float:
    """Reduced-units action integral_0^rc sqrt(E - V) dr by tanh-sinh quadrature.

    The kernel maps r = rc y**p with p = 2/(nu + 2) for nu < 0 (p = 1
    otherwise), which leaves a bounded integrand with a square-root zero
    at the turning point; the double-exponential nodes absorb that.  The
    mesh is halved until two consecutive levels agree to rel_tol; raises
    ConvergenceError when they still disagree at the finest level.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    rc = turning_point(E, potential)
    if isinstance(potential, InfiniteWell):
        lam, nu = 0.0, 1.0  # integrand reduces to the constant sqrt(E)
    else:
        lam, nu = potential.lam, potential.nu
    prev = math.nan
    for level in range(2, _MAX_LEVEL + 1):
        h = 1.0 / 2**level
        kmax = int(math.ceil(_T_MAX / h))
        cur = _kernels.action_sum(E, lam, nu, rc, h, kmax)
        delta = abs(cur - prev)
        if delta <= rel_tol * abs(cur):
            return cur
        prev = cur
    raise ConvergenceError(f"action quadrature at E={E}: the two finest mesh levels differ by {delta:.3g}")


def action_integral_closed(E: float, lam: float, nu: float) -> float:
    """Closed form of the action for the negative-power branch:

        -(2/nu) (E/lam)**(1/nu) sqrt(|E|) (sqrt(pi)/4) G(-1/nu - 1/2) / G(1 - 1/nu)

    valid for lam < 0, -2 < nu < 0, E < 0 (reduced units).
    """
    if not (lam < 0.0 and -2.0 < nu < 0.0 and E < 0.0):
        raise ValueError(f"closed action needs lam<0, -2<nu<0, E<0; got {lam}, {nu}, {E}")
    pref = -(2.0 / nu) * (E / lam) ** (1.0 / nu) * math.sqrt(abs(E))
    return pref * 0.25 * math.sqrt(math.pi) * gamma_ratio(-1.0 / nu - 0.5, 1.0 - 1.0 / nu)


def quantization_constant(
    potential: PotentialSpec, gamma: float, maslov: MaslovConstant | None = None
) -> float:
    """Additive constant c in the condition action = (n + c) pi.

    With maslov=None c is the closed form's slope * g + offset: the
    exponent-dependent constant for nu < 0, g/2 + 3/4 for nu > 0 and
    g/2 + 1 for the well.  An explicit MaslovConstant m replaces the
    boundary part: c = g/2 + m (positive powers and well only; the
    negative-power constant has no such split).
    """
    c = closed_form.level_coefficients(potential)
    if maslov is None:
        return c.slope * gamma + c.offset
    if isinstance(potential, PowerLaw) and potential.nu < 0.0:
        raise ValueError("explicit Maslov override applies to nu > 0 or the well")
    return c.slope * gamma + maslov.value


@dataclass(frozen=True)
class QuantizationSetup:
    """Everything needed to solve the quantization condition for a level."""

    potential: PotentialSpec
    gamma: float
    maslov: MaslovConstant | None = None
    quad_rel_tol: float = 1e-12
    constant: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 < self.quad_rel_tol < math.inf:
            raise ValueError(f"quad_rel_tol must be positive and finite, got {self.quad_rel_tol}")
        object.__setattr__(
            self, "constant", quantization_constant(self.potential, self.gamma, self.maslov)
        )


def quantize_energy(setup: QuantizationSetup, n: int) -> float:
    """Energy of level n from the quantization condition action = (n + c) pi.

    One quadrature S(E0) at the closed-form level E0, inverted through the
    power law S(E) = S(E0) (E/E0)**alpha: E = E0 ((n + c) pi / S(E0))**(1/alpha).
    E0 sets only the scale: the quadrature's stopping test is relative, so
    any E0 of the right sign gives the same level to rounding, and the
    result stays an independent check of the paper's Gamma-function form.
    """
    if n < 0:
        raise ValueError(f"radial quantum number must be >= 0, got {n}")
    pot = setup.potential
    target = (n + setup.constant) * math.pi
    # (nu + 2)/(2 nu) is 1/nu + 1/2 without the cancellation near nu = -2
    alpha = 0.5 if isinstance(pot, InfiniteWell) else (pot.nu + 2.0) / (2.0 * pot.nu)
    e0 = closed_form.closed_form_energy(pot, n, setup.gamma)
    s0 = action_integral_numeric(e0, pot, rel_tol=setup.quad_rel_tol)
    return e0 * (target / s0) ** (1.0 / alpha)
