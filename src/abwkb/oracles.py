"""Independent reference spectra: Bessel-zero well levels and a radial
shooting eigensolver.

These share no formulas with the action module, which is the point: they
validate the semiclassical results from the outside.  The shooting solver
takes only its first energy window from the closed form; its answer is
fixed by its own node count and checked on a grid of twice the density,
so a poor seed costs sweeps, never the level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels, closed_form
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

    points is the grid size N.  The radial equation is integrated in
    x = ln r on N evenly spaced points, from an inner edge where the
    potential and the energy are below _INNER_EPS of the centrifugal
    term (gamma + 1/2)**2 to an outer edge where the WKB decay integral
    past the outer turning point reaches _DECAY_TARGET.  The level is
    solved on that grid and again on its 2N - 1 point refinement, and
    the two must agree to _REFINE_REL_TOL.  energy_tol is the absolute
    width at which the final root bracket counts as converged (also held
    below _REL_TOL |E|, so levels near zero keep their digits, but not
    below four float spacings of E), and max_iterations caps the Numerov
    sweeps of one solve.
    """

    points: int = 2000
    energy_tol: float = 1e-9
    max_iterations: int = 260

    def __post_init__(self):
        if not 0.0 < self.energy_tol < math.inf:
            raise ValueError("energy_tol must be positive and finite")
        if not isinstance(self.points, int) or self.points < 8:
            raise ValueError(f"points must be an int >= 8, got {self.points!r}")
        if not isinstance(self.max_iterations, int) or self.max_iterations < 8:
            raise ValueError(f"max_iterations must be an int >= 8, got {self.max_iterations!r}")


_INNER_EPS = 1e-6  # inner edge: |lam| r**(nu+2) and |E| r**2 below this of (gamma + 1/2)**2
_DECAY_TARGET = 18.5  # -ln(1e-8): tail below 1e-8 of the interior amplitude
_NU_FLOOR = -1.9  # the inner edge x0 ~ ln(_INNER_EPS) / (nu + 2) runs off as nu -> -2
# h**2 |g| / 12 anywhere on the grid: above 1/2 the Numerov recurrence
# oscillates with period two where g > 0, and its forbidden-region
# denominator 1 - h**2 |g| / 12 nears zero; node counts there are noise
_MAX_STEP_PARAM = 0.5
_ISOLATION_WIDTH = 0.1  # polish bracket width relative to |E|, times min(1, |nu|)
_REFINE_REL_TOL = 1e-6  # levels on N and 2N - 1 points must agree to this
_REL_TOL = 1e-10  # bracket width cap relative to |E|
_MAX_EDGE_STEPS = 100_000  # walk to the outer edge; a longer one raises
_MAX_EXPONENT = 700.0  # e^{2x} and e^{(nu+2)x} stay finite on the grid


def _grid(lo: float, hi: float, lam: float, nu: float, gamma: float, points: int):
    """Log grid (x0, h, points, im, step) for energies in [lo, hi].

    x_i = x0 + i h covers the inner edge of the larger |E| and the outer
    edge of hi, whose turning point is the outermost and whose tail
    decays slowest; im sits at hi's outer turning point.  step is the
    largest h**2 |g| / 12 on the grid, for either end energy.
    """
    c = (gamma + 0.5) ** 2
    nu2 = nu + 2.0
    x0 = min(
        math.log(_INNER_EPS * c / abs(lam)) / nu2,
        0.5 * math.log(_INNER_EPS * c / max(abs(lo), abs(hi))),
    )

    def kappa2(E, x):  # -g: the decay rate squared, negative where allowed
        if max(nu2, 2.0) * x > _MAX_EXPONENT:
            raise ConvergenceError(f"the grid for E={E!r} would reach past r = {math.exp(x):.3g}")
        return lam * math.exp(nu2 * x) - E * math.exp(2.0 * x) + c

    # -g is least at xs and rises monotonically on either side of it
    xs = math.log(2.0 * hi / (nu2 * lam)) / nu
    dx = 0.2 / max(nu2, 2.0)  # about a tenth of an e-fold of kappa
    x, k2, decay, xt = xs, kappa2(hi, xs), 0.0, None
    g_allowed = -k2
    for _ in range(_MAX_EDGE_STEPS):
        if k2 >= 0.0 and xt is None:
            xt = x
        x_next = x + dx
        k2_next = kappa2(hi, x_next)
        if xt is not None:
            decay += 0.5 * dx * (math.sqrt(k2) + math.sqrt(k2_next))
        x, k2 = x_next, k2_next
        if decay >= _DECAY_TARGET:
            break
    else:
        raise ConvergenceError(f"no outer grid edge within {_MAX_EDGE_STEPS} steps of E={hi!r}")
    h = (x - x0) / (points - 1)
    im = max(2, min(points - 4, int(round((xt - x0) / h))))
    g_max = max(c, g_allowed, kappa2(lo, x))
    return x0, h, points, im, h * h * g_max / 12.0


def shoot_eigenvalue(potential: PowerLaw, gamma: float, n: int, cfg: ShootingConfig | None = None) -> float:
    """n-th eigenvalue (n = interior node count) of the reduced radial
    equation u'' + (E - lam r**nu - gamma(gamma+1)/r^2) u = 0 with
    u(0) = 0 and a decaying tail.

    Numerov integrates phi = u / sqrt(r) in x = ln r on a grid of
    cfg.points points (_grid), outward from the r**(gamma+1/2) series and
    inward from a decaying seed.  The energy window starts from the
    closed-form level and widens by 4x until its outward node counts
    bracket level n; count bisection isolates the level, and Illinois
    false position on the matching discriminant over one grid polishes
    it.  The result is polished again on the 2N - 1 point refinement of
    that grid from a bracket of relative width _REFINE_REL_TOL around
    it: no sign change there, a matched solution without n nodes, a step
    h**2 |g| / 12 above _MAX_STEP_PARAM or nu below _NU_FLOOR raise
    ConvergenceError.  Every sweep counts against cfg.max_iterations.
    """
    if not isinstance(potential, PowerLaw):
        raise ValueError("shooting solver handles power-law potentials")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    cfg = cfg or ShootingConfig()
    lam, nu = potential.lam, potential.nu
    if nu < _NU_FLOOR:
        raise ConvergenceError(f"nu={nu} is below the shooting floor {_NU_FLOOR}: the grid's inner edge runs off")

    sweeps = 0

    def spend():
        nonlocal sweeps
        if sweeps >= cfg.max_iterations:
            raise ConvergenceError(f"shooting did not converge within {cfg.max_iterations} sweeps")
        sweeps += 1

    def count(E):
        spend()
        return _kernels.numerov_count(E, lam, nu, gamma, *_grid(E, E, lam, nu, gamma, cfg.points)[:3])

    def match(grid):
        def disc(E):
            spend()
            return _kernels.numerov_match(E, lam, nu, gamma, *grid)
        return disc

    # 1. window: from the closed-form level, widen until the outward
    # whole-grid counts give count(lo) <= n < count(hi)
    try:
        E = closed_form.closed_form_energy(potential, n, gamma)
    except ValueError:
        E = math.copysign(abs(lam) ** (2.0 / (nu + 2.0)), lam)
    # one step moves the turning radius (E / lam)**(1/nu) about 4x, and E
    # itself 4x once |nu| >= 1
    spread = min(1.0, abs(nu))
    up = 4.0**spread
    if E < 0.0:
        up = 1.0 / up
    lo = hi = None
    while lo is None or hi is None:
        k = count(E)
        if k <= n:
            lo, n_lo, E = E, k, E * up
        else:
            hi, n_hi, E = E, k, E / up

    while True:
        if n_lo == n and n_hi == n + 1 and hi - lo <= _ISOLATION_WIDTH * spread * max(abs(lo), abs(hi)):
            # 3. level n alone in a narrow (lo, hi): polish on one grid built
            # for the bracket; no sign change of disc, or a wrong node count,
            # sends it back to count bisection
            x0, h, points, im, step = _grid(lo, hi, lam, nu, gamma, cfg.points)
            if step > _MAX_STEP_PARAM:
                raise ConvergenceError(f"grid step too coarse: h^2 |g| / 12 = {step:.3g} on {points} points; raise points")
            # this level only centres the 2N - 1 point bracket
            tol = 0.125 * _REFINE_REL_TOL * min(abs(lo), abs(hi))
            E, found = _illinois(match((x0, h, points, im)), lo, hi, tol)
            if found == n:
                break
        # 2. count bisection
        mid = 0.5 * (lo + hi)
        k = count(mid)
        if k <= n:
            lo, n_lo = mid, k
        else:
            hi, n_hi = mid, k

    # 4. the same level on the nested 2N - 1 point grid
    half = _REFINE_REL_TOL * abs(E)
    tol = min(cfg.energy_tol, _REL_TOL * abs(E))
    E2, found = _illinois(match((x0, 0.5 * h, 2 * points - 1, 2 * im)), E - half, E + half, tol)
    if found is None:
        raise ConvergenceError(
            f"levels on {points} and {2 * points - 1} points differ by more than {_REFINE_REL_TOL:g} relative (E={E!r}); raise points"
        )
    if found != n:
        raise ConvergenceError(f"converged solution has {found} nodes, expected {n} (E={E2!r})")
    return E2


def _illinois(disc, lo, hi, tol):
    """Root of disc(E)[0] in (lo, hi) by Illinois false position;
    returns (E, nodes at E), or (None, None) if disc does not change
    sign over the bracket.  Stops once the bracket is below tol, or
    within four float spacings of E."""
    (f_lo, _), (f_hi, _) = disc(lo), disc(hi)
    if (f_lo < 0.0) == (f_hi < 0.0):
        return None, None
    a, fa, b, fb = lo, f_lo, hi, f_hi
    while True:
        c = b - fb * (b - a) / (fb - fa)
        fc, nodes = disc(c)
        if fc == 0.0:
            return c, nodes
        if (fc < 0.0) == (fb < 0.0):
            fa *= 0.5
        else:
            a, fa = b, fb
        b, fb = c, fc
        if abs(b - a) <= max(tol, 4.0 * math.ulp(b)):
            return b, nodes
