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
inversion, not a root search.  The number itself is a Beta integral,
which action_integral_closed evaluates for the paper's check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import _kernels, closed_form
from .errors import ConvergenceError
from .model import InfiniteWell, PotentialSpec
from .special_functions import gamma_ratio

__all__ = [
    "QuantizationSetup",
    "turning_point",
    "action_integral_numeric",
    "action_integral_closed",
    "quantize_energy",
]

_T_MAX = 6.0  # tanh-sinh truncation; weights underflow well before this
_MAX_LEVEL = 11  # finest mesh h = 2**-11, 24577 nodes
_REL_TOL = 1e-12  # stop once two consecutive mesh levels agree to this


def turning_point(E: float, potential: PotentialSpec) -> float:
    """Classical turning point rc with V(rc) = E (well: always the radius);
    ValueError where rc is not a normal float."""
    if not math.isfinite(E):
        raise ValueError(f"energy must be finite, got E={E}")
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
        rc = (E / lam) ** (1.0 / nu)
    except (OverflowError, ZeroDivisionError):  # E/lam = 0 under a negative power is the limit inf
        rc = math.inf
    if not sys.float_info.min <= rc < math.inf:
        what = "overflows" if rc > 1.0 else "underflows"
        raise ValueError(f"turning point (E/lam)**(1/nu) {what} at E={E}, lam={lam}, nu={nu}")
    return rc


def _normal_action(S: float, E: float, potential: PotentialSpec) -> float:
    """S, the action at E, where it is a normal float; ValueError otherwise."""
    if not sys.float_info.min <= S < math.inf:
        raise ValueError(f"action at E={E} {'overflows' if S > 1.0 else 'underflows'} for {potential}")
    return S


def action_integral_numeric(E: float, potential: PotentialSpec) -> float:
    """Reduced-units action integral_0^rc sqrt(E - V) dr by tanh-sinh quadrature.

    The kernel maps r = rc y**p with p = 2/(nu + 2) for nu < 0 (p = 1
    otherwise), which leaves a bounded integrand with a square-root zero
    at the turning point; the double-exponential nodes absorb that.  The
    mesh is halved until two consecutive levels agree to _REL_TOL; raises
    ConvergenceError when they still disagree at the finest level, and
    ValueError where rc or the action is not a normal float.
    """
    rc = turning_point(E, potential)
    if isinstance(potential, InfiniteWell):
        lam, nu = 0.0, 1.0  # integrand reduces to the constant sqrt(E)
    else:
        lam, nu = potential.lam, potential.nu
    prev = math.nan
    for level in range(2, _MAX_LEVEL + 1):
        h = 1.0 / 2**level
        kmax = int(math.ceil(_T_MAX / h))
        cur = _normal_action(_kernels.action_sum(E, lam, nu, rc, h, kmax), E, potential)
        delta = abs(cur - prev)
        if delta <= _REL_TOL * abs(cur):
            return cur
        prev = cur
    raise ConvergenceError(f"action quadrature at E={E}: the two finest mesh levels differ by {delta:.3g}")


def action_integral_closed(E: float, potential: PotentialSpec) -> float:
    """Closed form of the action on every branch, the Beta integral
    (DLMF 5.12.1) under action_sum's substitution r = rc y**p, q = |nu| p:

        rc sqrt|E| p integral_0^1 sqrt(1 - y**q) dy
            = rc sqrt|E| p (sqrt(pi)/2) G(1 + 1/q) / G(3/2 + 1/q)

    with p = 2/(nu + 2), 1/q = -(nu + 2)/(2 nu) for nu < 0 and p = 1,
    1/q = 1/nu for nu > 0.  As nu -> -2, 1/q -> 0 and G(1 + 1/q) keeps
    clear of the pole at 0.  The well's integrand is the constant
    sqrt(E), so its action is rc sqrt(E).
    """
    rc = turning_point(E, potential)
    if isinstance(potential, InfiniteWell):
        return rc * math.sqrt(E)
    nu = potential.nu
    if nu < 0.0:
        p, inv_q = 2.0 / (nu + 2.0), -(nu + 2.0) / (2.0 * nu)
    else:
        p, inv_q = 1.0, 1.0 / nu
    S = rc * math.sqrt(abs(E)) * p * 0.5 * math.sqrt(math.pi) * gamma_ratio(1.0 + inv_q, 1.5 + inv_q)
    return _normal_action(S, E, potential)


@dataclass(frozen=True)
class QuantizationSetup:
    """Everything needed to solve the quantization condition for a level."""

    potential: PotentialSpec
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")

    @property
    def constant(self) -> float:
        """Additive constant c in the condition action = (n + c) pi: the
        closed form's slope * g + offset, so (2g + nu + 3)/(2 nu + 4) for
        nu < 0, g/2 + 3/4 for nu > 0 and g/2 + 1 for the well."""
        c = closed_form.level_coefficients(self.potential)
        return c.slope * self.gamma + c.offset


def quantize_energy(setup: QuantizationSetup, n: int) -> float:
    """Energy of level n from the quantization condition action = (n + c) pi.

    One quadrature S(E0) at the closed-form level E0, inverted through the
    power law S(E) = S(E0) (E/E0)**alpha: E = E0 ((n + c) pi / S(E0))**(1/alpha),
    where 1/alpha = 2 nu/(nu + 2) (2 for the well) is the closed form's
    own power.  E0 sets only the scale: the quadrature's stopping test is
    relative, so any E0 of the right sign gives the same level to rounding,
    and the result stays an independent check of the paper's Gamma-function
    form.
    """
    if n < 0:
        raise ValueError(f"radial quantum number must be >= 0, got {n}")
    pot = setup.potential
    target = (n + setup.constant) * math.pi
    e0 = closed_form.closed_form_energy(pot, n, setup.gamma)
    s0 = action_integral_numeric(e0, pot)
    return e0 * (target / s0) ** closed_form.level_coefficients(pot).power
