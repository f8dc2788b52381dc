"""Reference values the benchmark checks abwkb against.

Nothing here imports abwkb: the closed forms are re-derived from the
paper's two master formulas with the C library's lgamma, the unit factors
from their definitions, and the exact spectra (Coulomb, oscillator,
linear with gamma = 0, spherical-Bessel well zeros) from textbook
results.  A defect in the package therefore cannot hide by also
corrupting its own reference.
"""

from __future__ import annotations

import math

# |a_k|, the first zeros of the Airy function Ai: the linear potential
# V = r with gamma = 0 has E_n = |a_{n+1}| in reduced units.
AIRY_ZEROS = (
    2.338107410459767,
    4.087949444130971,
    5.520559828095551,
    6.786708090071759,
    7.944133587120853,
)

# First zeros of J_1 and J_2: well levels for gamma = 0.5 and 1.5
# (Bessel order gamma + 1/2).
BESSEL_ZEROS = {
    1.0: (3.831705970207512, 7.015586669815619, 10.17346813506272, 13.32369193631422, 16.47063005087763),
    2.0: (5.135622301840683, 8.417244140399865, 11.61984117214906, 14.79595178235126, 17.95981949498783),
}


def closed_form(family: str, lam: float, nu: float, radius: float, n: int, gamma: float) -> float:
    """The paper's semiclassical level in reduced units (hbar = 2m = 1)."""
    if family == "well":
        return (n + 0.5 * gamma + 1.0) ** 2 * math.pi**2 / radius**2
    if nu < 0.0:
        shift = (2.0 * gamma + nu + 3.0) / (2.0 * nu + 4.0)
        log_bracket = (
            math.log(2.0 * abs(nu) * math.sqrt(math.pi) * (n + shift))
            + math.lgamma(1.0 - 1.0 / nu)
            - math.lgamma(-1.0 / nu - 0.5)
        )
        sign = -1.0
    else:
        log_bracket = (
            math.log(2.0 * nu * math.sqrt(math.pi) * (n + 0.5 * gamma + 0.75))
            + math.lgamma(1.0 / nu + 1.5)
            - math.lgamma(1.0 / nu)
        )
        sign = 1.0
    log_e = (2.0 / (nu + 2.0)) * math.log(abs(lam)) + (2.0 * nu / (nu + 2.0)) * log_bracket
    return sign * math.exp(log_e)


def unit_factor(preset: str, family: str, lam: float, radius: float) -> float:
    """Display factor of a unit preset (energies are multiplied by it)."""
    if preset == "reduced":
        return 1.0
    if preset == "fig2a":
        return 4.0 / (lam * lam)
    if preset == "fig2b":
        return (1.5 * math.pi * abs(lam)) ** (-2.0 / 3.0)
    if preset == "fig2c":
        return 1.0 / (2.0 * math.sqrt(lam))
    if preset in ("fig1", "fig2d") and family == "well":
        return radius**2 / math.pi**2
    raise ValueError(f"preset {preset} does not apply to {family}")


def curvature(nu: float) -> str:
    """Curvature class of E versus the quantum numbers (the paper's rule)."""
    if nu == 2.0:
        return "linear"
    return "bends-up" if nu > 2.0 else "bends-down"


def slope_ratios(nu: float) -> tuple[float, float, float]:
    """(dE/dn : dE/dkmu, dE/dq : dE/dkmu, 1): E depends on n + gamma/(nu+2)
    for nu < 0 and on n + gamma/2 for nu > 0 and the well."""
    return (nu + 2.0 if nu < 0.0 else 2.0, 1.0, 1.0)


def flux_slope_sign(nu: float) -> str:
    if nu == 2.0:
        return "0"
    return "+" if nu > 2.0 else "-"


def exact_shoot_level(ref: str, lam: float, n: int, gamma: float) -> float | None:
    """Exact eigenvalue of u'' = (lam r**nu + g(g+1)/r^2 - E) u, or None."""
    if ref == "coulomb":  # nu = -1
        return -lam * lam / (4.0 * (n + gamma + 1.0) ** 2)
    if ref == "oscillator":  # nu = 2
        return 2.0 * math.sqrt(lam) * (2.0 * n + gamma + 1.5)
    if ref == "airy":  # nu = 1, gamma = 0
        return lam ** (2.0 / 3.0) * AIRY_ZEROS[n]
    return None


def spherical_bessel(l: int, x: float) -> tuple[float, float]:
    """(j_l(x), j_l'(x)) by upward recurrence, accurate for x > l."""
    s, c = math.sin(x), math.cos(x)
    j_prev = s / x
    if l == 0:
        return j_prev, (x * c - s) / (x * x)
    j_cur = s / (x * x) - c / x
    for k in range(1, l):
        j_prev, j_cur = j_cur, (2 * k + 1) / x * j_cur - j_prev
    return j_cur, j_prev - (l + 1) / x * j_cur


def well_zeros_plausible(gamma: float, zeros: list[float]) -> bool:
    """Index check for any order v = gamma + 1/2: the first zero lies in
    (sqrt(v(v+2)), sqrt(v+1)(sqrt(v+2)+1)) and consecutive zeros are
    3 to 6 apart, so no zero is skipped or repeated."""
    v = gamma + 0.5
    if not math.sqrt(v * (v + 2.0)) < zeros[0] < math.sqrt(v + 1.0) * (math.sqrt(v + 2.0) + 1.0):
        return False
    return all(2.9 < b - a < 6.0 for a, b in zip(zeros, zeros[1:]))


def well_zero_error(gamma: float, m: int, z: float) -> float | None:
    """Relative distance of z from the m-th zero of J_{gamma+1/2}, where an
    exact reference exists, else None.

    gamma = 0 gives j_{1/2,m} = m pi exactly; gamma = 0.5 and 1.5 use the
    tabulated zeros of J_1 and J_2; other integer gamma use one Newton step
    on the spherical Bessel function j_gamma, which shares the zeros.
    """
    if gamma == 0.0:
        return abs(z - m * math.pi) / (m * math.pi)
    table = BESSEL_ZEROS.get(gamma + 0.5)
    if table is not None and m <= len(table):
        return abs(z - table[m - 1]) / table[m - 1]
    if gamma == int(gamma):
        j, dj = spherical_bessel(int(gamma), z)
        return abs(j / dj) / z
    return None
