"""Radial action integral and energy quantization.

The quantization condition in reduced units (hbar = 2m = 1) is

    integral_0^rc sqrt(E - V(r)) dr = (n + c) * pi

with rc the classical turning point and c the matching constant: the
exponent-dependent value (2g + nu + 3)/(2(nu + 2)) for -2 < nu < 0,
g/2 + 3/4 for nu > 0 (one hard wall at the origin, smooth outer turning
point), and g/2 + 1 for the infinite well (two walls).
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
    """Everything needed to root-solve the quantization condition."""

    potential: PotentialSpec
    gamma: float
    maslov: MaslovConstant | None = None
    quad_rel_tol: float = 1e-12
    root_rel_tol: float = 1e-11
    constant: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0.0 < self.quad_rel_tol < math.inf and 0.0 < self.root_rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        object.__setattr__(
            self, "constant", quantization_constant(self.potential, self.gamma, self.maslov)
        )


def quantize_energy(setup: QuantizationSetup, n: int) -> float:
    """Energy of level n from the quantization condition, by root-solving
    the numeric action integral against (n + c) pi.

    The closed-form spectrum provides the initial guess; the bracket is
    expanded geometrically from it and the root polished with a
    Brent-style solver.  Strict monotonicity of the action in E makes the
    root unique.
    """
    if n < 0:
        raise ValueError(f"radial quantum number must be >= 0, got {n}")
    pot = setup.potential
    target = (n + setup.constant) * math.pi

    def f(E: float) -> float:
        return action_integral_numeric(E, pot, rel_tol=setup.quad_rel_tol) - target

    guess = _initial_guess(pot, setup.gamma, setup.constant, n)
    lo, hi = _bracket(f, guess, negative=isinstance(pot, PowerLaw) and pot.lam < 0.0)
    return _brentq(f, lo, hi, rtol=setup.root_rel_tol)


def _initial_guess(pot: PotentialSpec, gamma: float, constant: float, n: int) -> float:
    if isinstance(pot, InfiniteWell):
        return ((n + constant) * math.pi / pot.a) ** 2
    return closed_form.closed_form_energy(pot, n, gamma)


def _bracket(f, guess: float, negative: bool, max_expand: int = 80) -> tuple[float, float]:
    """Expand geometrically around the guess until f changes sign.

    The action is increasing in E, so f(lo) < 0 < f(hi) once the root is
    inside; for bound states of attractive tails (negative branch) the
    energies stay below zero throughout.
    """
    if negative:
        lo, hi = 1.25 * guess, 0.8 * guess  # guess < 0
    else:
        lo, hi = 0.8 * guess, 1.25 * guess
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(max_expand):
        if f_lo <= 0.0 <= f_hi:
            return lo, hi
        if f_lo > 0.0:
            hi, f_hi = lo, f_lo
            lo = 1.6 * lo if negative else lo / 1.6
            f_lo = f(lo)
        else:
            lo, f_lo = hi, f_hi
            hi = hi / 1.6 if negative else 1.6 * hi
            f_hi = f(hi)
    raise ConvergenceError("failed to bracket the quantization root")


def _brentq(f, a: float, b: float, rtol: float, maxiter: int = 200) -> float:
    """Classic Brent root finder on a sign-change bracket [a, b]."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ConvergenceError("root not bracketed")
    c, fc = a, fa
    d = e = b - a
    for _ in range(maxiter):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * rtol * abs(b) + 1e-300
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0.0 else -tol)
        fb = f(b)
    raise ConvergenceError("Brent iteration exhausted")
