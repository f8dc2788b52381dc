"""Independent reference spectra: Bessel-zero well levels and a radial
shooting eigensolver.

These share no formulas with the closed-form or action modules, which is
the point: they validate the semiclassical results from the outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError
from .model import PowerLaw
from .special_functions import bessel_j_zeros

__all__ = ["ShootingConfig", "well_exact_spectrum", "shoot_eigenvalue"]


def well_exact_spectrum(gamma: float, a: float, count: int) -> list[float]:
    """Exact infinite-well levels in units hbar^2 pi^2 / (2 m a^2).

    The radial solution regular at the origin is proportional to
    sqrt(r) J_{gamma+1/2}(kr), so u(a) = 0 picks k a = j_{gamma+1/2, m}
    and E_n = (j_{gamma+1/2, n+1} / pi)^2 in well units.
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if not a > 0.0:
        raise ValueError(f"well radius must be positive, got {a}")
    zeros = bessel_j_zeros(gamma + 0.5, count)
    return [(z / math.pi) ** 2 for z in zeros]


@dataclass(frozen=True)
class ShootingConfig:
    """Grid and search parameters for the shooting solver.

    The grid step is step, or rmax / min_points where that is finer
    (rmax the grid's outer edge).  The grid starts at twice the step
    (close enough to the origin for the series start, far enough that
    the centrifugal term stays integrable by Numerov); its outer edge
    follows _RMAX_MULTIPLIER * turning point plus _DECAY_LENGTHS decay
    lengths, then grows until the forbidden-region decay exponent
    integral reaches _DECAY_TARGET.
    """

    step: float = 0.01
    min_points: int = 2000
    energy_tol: float = 1e-9
    max_iterations: int = 260

    def __post_init__(self):
        if not (0.0 < self.step < math.inf and 0.0 < self.energy_tol < math.inf):
            raise ValueError("step and energy_tol must be positive and finite")
        if self.min_points < 8 or self.max_iterations < 8:
            raise ValueError("min_points and max_iterations too small")


_DECAY_TARGET = 18.5  # -ln(1e-8): tail below 1e-8 of the interior amplitude
_RMAX_MULTIPLIER = 2.0  # first guess of the outer edge in turning-point radii ...
_DECAY_LENGTHS = 10.0  # ... plus this many decay lengths
_MAX_POINTS = 4_000_000  # grid cap; a larger grid raises ConvergenceError


def _grid(E: float, pot: PowerLaw, gamma: float, cfg: ShootingConfig):
    """Uniform grid (r0, h, n, im) reaching past the outer turning point."""
    lam, nu = pot.lam, pot.nu
    rc = (E / lam) ** (1.0 / nu)
    if nu > 0.0:
        probe = _RMAX_MULTIPLIER * rc
        decay_len = 1.0 / math.sqrt(max(lam * probe**nu - E, 1e-12))
    else:
        decay_len = 1.0 / math.sqrt(-E)
    rmax = _RMAX_MULTIPLIER * rc + _DECAY_LENGTHS * decay_len
    # enlarge until the WKB decay exponent past rc is comfortably large
    for _ in range(60):
        rr = np.linspace(rc, rmax, 512)[1:]
        kap = np.sqrt(
            np.maximum(lam * rr**nu + gamma * (gamma + 1.0) / rr**2 - E, 0.0)
        )
        if float(np.trapezoid(kap, rr)) >= _DECAY_TARGET:
            break
        rmax += 5.0 * decay_len
    h = min(cfg.step, rmax / cfg.min_points)
    # starting at 2h keeps the first-step Numerov parameter
    # h^2 gamma(gamma+1)/(12 r0^2) small; at h/2 it would be O(1) for any h
    r0 = 2.0 * h
    n = int(math.ceil((rmax - r0) / h)) + 1
    if n > _MAX_POINTS:
        raise ConvergenceError(f"shooting grid would need {n} points (cap {_MAX_POINTS})")
    im = int(round((rc - r0) / h))
    im = max(2, min(n - 4, im))
    return r0, h, n, im


def _search_window(pot: PowerLaw, n: int, nodes):
    """Energy window (lo, hi) with nodes(lo) <= n < nodes(hi)."""
    lam, nu = pot.lam, pot.nu
    scale = abs(lam) ** (2.0 / (nu + 2.0))
    if nu < 0.0:
        lo = -100.0 * scale
        for _ in range(8):
            if nodes(lo) == 0:
                break
            lo *= 10.0
        else:
            raise ConvergenceError("no lower window edge for nu < 0")
        hi = -1e-3 * scale
        for _ in range(60):
            if nodes(hi) >= n + 1:
                return lo, hi
            hi *= 0.25
        raise ConvergenceError("no upper window edge for nu < 0")
    lo = 1e-12 * scale
    radius = 1.0
    for _ in range(60):
        hi = lam * radius**nu
        if nodes(hi) >= n + 1:
            return lo, hi
        radius *= 2.0
    raise ConvergenceError("no upper window edge for nu > 0")


def shoot_eigenvalue(potential: PowerLaw, gamma: float, n: int, cfg: ShootingConfig | None = None) -> float:
    """n-th eigenvalue (n = interior node count) of the reduced radial
    equation u'' + (E - lam r**nu - gamma(gamma+1)/r^2) u = 0 with
    u(0) = 0 and a decaying tail.

    Fixed-step Numerov integrates outward from the grid's inner edge with
    the r**(gamma+1) series start and inward from its outer edge with a
    decaying seed.  Bisection on the Sturm node count isolates the level,
    then bisection on the sign of the matching discriminant at the outer
    turning point polishes it; the converged solution's node count is
    verified to equal n.
    """
    if not isinstance(potential, PowerLaw):
        raise ValueError("shooting solver handles power-law potentials")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    cfg = cfg or ShootingConfig()

    lam, nu = potential.lam, potential.nu

    def nodes(E):
        return _kernels.numerov_count(E, lam, nu, gamma, *_grid(E, potential, gamma, cfg)[:3])

    def match(E):
        return _kernels.numerov_match(E, lam, nu, gamma, *_grid(E, potential, gamma, cfg))

    def isolated(lo, hi):
        return hi - lo <= 1e-2 * max(abs(lo), abs(hi)) and nodes(lo) == n and nodes(hi) == n + 1

    # phase 1: node-count bisection until the window isolates level n
    lo, hi = _search_window(potential, n, nodes)
    below = lambda E: nodes(E) <= n
    lo, hi, iters, done = _bisect(lo, hi, below, 0, cfg, 1e-13, isolated)
    if not done:
        # phase 2: discriminant-sign bisection inside the isolated window;
        # if it does not straddle (a match-point pole), keep counting nodes
        d_lo, d_hi = match(lo)[0], match(hi)[0]
        if (d_lo < 0.0) != (d_hi < 0.0):
            below = lambda E: (match(E)[0] < 0.0) == (d_lo < 0.0)
        lo, hi, iters, done = _bisect(lo, hi, below, iters, cfg)
        if not done:
            raise ConvergenceError("shooting bisection exhausted its iteration budget")
    E = 0.5 * (lo + hi)
    _, found = match(E)
    if found != n:
        raise ConvergenceError(f"converged solution has {found} nodes, expected {n} (E={E!r})")
    return E


def _bisect(lo, hi, below, iters, cfg, rel_tol=0.0, isolated=None):
    """Halve (lo, hi) on below(mid) until hi - lo <= max(energy_tol,
    rel_tol |mid|); returns (lo, hi, iters, done).  iters counts against
    cfg.max_iterations across calls; isolated(lo, hi) stops it, not done.
    """
    while iters < cfg.max_iterations:
        iters += 1
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= max(cfg.energy_tol, rel_tol * abs(mid)):
            return lo, hi, iters, True
        if isolated is not None and isolated(lo, hi):
            break
    return lo, hi, iters, False
