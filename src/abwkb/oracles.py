"""Independent reference spectra: Bessel-zero well levels and a radial
shooting eigensolver.

These share no formulas with the action module, which is the point: they
validate the semiclassical results from the outside.  The shooting solver
takes only its starting level and slope from the closed form; its answer
is the root of a Prufer miss-distance that counts the nodes itself, and
is checked on a grid of twice the density, so a poor seed costs sweeps,
never the level.
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
    size of the last secant step on the 2N - 1 point grid at which the
    level counts as converged (also held below _REL_TOL |E|, so levels
    near zero keep their digits, but not below four float spacings), and
    max_iterations caps the Numerov sweeps of one solve.
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
_SEARCH_RATIO = 2.0  # search windows span E / r .. E r, r = this ** min(1, |nu|)
_POLISH_WIDTH = 1e-3  # the polish grid is built for E (1 -+ this)
_REFINE_REL_TOL = 1e-6  # levels on N and 2N - 1 points must agree to this
_REL_TOL = 1e-10  # final step cap relative to |E|
_MAX_EDGE_STEPS = 100_000  # walk to the outer edge; a longer one raises
_MAX_EXPONENT = 700.0  # e^{2x} and e^{(nu+2)x} stay finite on the grid


def _grid(E: float, lo: float, hi: float, lam: float, nu: float, gamma: float, points: int):
    """Log grid (x0, h, points, im, scale, step) for energies in [lo, hi]
    around E.

    x_i = x0 + i h covers the inner edge of the larger |E| and the outer
    edge of hi, whose turning point is the outermost and whose tail
    decays slowest.  im sits where g peaks for E, inside the classically
    allowed region if E has one, and scale is sqrt(g) there (at least
    gamma + 1/2): the local wavenumber, with which the Prufer angle of
    _miss advances evenly.  step is the largest h**2 |g| / 12 on the
    grid, for either end energy.
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
    xm = math.log(2.0 * E / (nu2 * lam)) / nu
    im = max(2, min(points - 4, int(round((xm - x0) / h))))
    scale = math.sqrt(max(-kappa2(E, x0 + im * h), c))
    g_max = max(c, g_allowed, kappa2(lo, x))
    return x0, h, points, im, scale, h * h * g_max / 12.0


def _miss(E: float, lam: float, nu: float, gamma: float, grid) -> tuple[float, int]:
    """Prufer miss-distance F(E) = theta_out - theta_in at grid index im,
    and the matched composite's node count.

    theta = atan2(scale u, u') is unwrapped by each sweep's crossings:
    the outward angle starts in (0, pi/2) and gains pi per node, the
    inward one starts in (pi/2, pi) at the outer edge and loses pi per
    node.  F is continuous and increasing in E on a fixed grid (Sturm),
    and equals n pi exactly where the two solutions match with n nodes.
    """
    x0, h, points, im, scale = grid
    nodes_out, uo, do, nodes_in, ui, di = _kernels.numerov_match(E, lam, nu, gamma, x0, h, points, im)
    nodes = nodes_out + nodes_in
    return nodes * math.pi + math.atan2(scale * uo, do) % math.pi - math.atan2(scale * ui, di) % math.pi, nodes


def shoot_eigenvalue(potential: PowerLaw, gamma: float, n: int, cfg: ShootingConfig | None = None) -> float:
    """n-th eigenvalue (n = interior node count) of the reduced radial
    equation u'' + (E - lam r**nu - gamma(gamma+1)/r^2) u = 0 with
    u(0) = 0 and a decaying tail.

    Numerov integrates phi = u / sqrt(r) in x = ln r on a grid of
    cfg.points points (_grid), outward from the r**(gamma+1/2) series and
    inward from a decaying seed.  One safeguarded secant search finds
    the root of the increasing miss-distance F(E) - n pi (_miss), from
    the closed-form level and its slope: on grids for windows
    E / r .. E r (_SEARCH_RATIO; narrowed while the grid is too coarse),
    rebuilt whenever the iterate leaves the window, then on a grid for
    E (1 -+ _POLISH_WIDTH), and last on the 2N - 1 point refinement of
    that grid within _REFINE_REL_TOL of its N-point level.  A level
    further off, a matched solution without n nodes, a step
    h**2 |g| / 12 above _MAX_STEP_PARAM even on a window as narrow as
    the polish grid's, or nu below _NU_FLOOR raise ConvergenceError.
    Every sweep counts against cfg.max_iterations.
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
    # the search runs in y = sign(E) ln|E|, which rises with E and in which
    # F is close to linear even across decades of E
    sign = math.copysign(1.0, lam)

    def energy(y):
        return sign * math.exp(sign * y)

    def grid_for(y, half):
        """The grid for the window y -+ half, halved (to _POLISH_WIDTH at
        least) while too coarse; returns (grid, half)."""
        while True:
            *grid, step = _grid(energy(y), *sorted((energy(y - half), energy(y + half))), lam, nu, gamma, cfg.points)
            if step <= _MAX_STEP_PARAM:
                return grid, half
            if half <= _POLISH_WIDTH:
                raise ConvergenceError(f"grid step too coarse: h^2 |g| / 12 = {step:.3g} on {cfg.points} points; raise points")
            half = max(0.5 * half, _POLISH_WIDTH)

    def miss(grid):
        def residual(y):
            nonlocal sweeps
            if sweeps >= cfg.max_iterations:
                raise ConvergenceError(f"shooting did not converge within {cfg.max_iterations} sweeps")
            sweeps += 1
            phase, nodes = _miss(energy(y), lam, nu, gamma, grid)
            return phase - n * math.pi, nodes

        return residual

    # the closed-form level E = scale (factor x)**power, x = n + slope g +
    # offset, has phase pi x, so dF/dy ~ pi x / |power|
    try:
        coefficients = closed_form.level_coefficients(potential)
        E, index = coefficients.energy(n, gamma), coefficients.level_index(n, gamma)
    except ValueError:
        E, index = math.copysign(abs(lam) ** (2.0 / (nu + 2.0)), lam), n + 1.0
    y, slope = sign * math.log(abs(E)), math.pi * index * (nu + 2.0) / (2.0 * abs(nu))

    # 1. search on grids for windows y -+ half; a step out of the window
    # moves it at most one width on
    width = min(1.0, abs(nu)) * math.log(_SEARCH_RATIO)
    while True:
        grid, half = grid_for(y, width)
        y_next, nodes, slope = _secant(miss(grid), y, slope, y - half, y + half, 0.5 * _POLISH_WIDTH)
        if nodes is not None:
            y = y_next
            break
        y = min(max(y_next, y - 2.0 * half), y + 2.0 * half)

    # 2. the N-point level on a grid built around it
    grid, _ = grid_for(y, _POLISH_WIDTH)
    x0, h, points, im, scale = grid
    y, nodes, slope = _secant(miss(grid), y, slope, y - _POLISH_WIDTH, y + _POLISH_WIDTH, 0.125 * _REFINE_REL_TOL, probe=True)
    if nodes is None:
        raise ConvergenceError(f"the level on {points} points left its polish window (E={energy(y)!r}); raise points")

    # 3. the same level on the nested 2N - 1 point grid
    fine = x0, 0.5 * h, 2 * points - 1, 2 * im, scale
    tol = min(cfg.energy_tol / abs(energy(y)), _REL_TOL)
    y2, found, _ = _secant(miss(fine), y, slope, y - _REFINE_REL_TOL, y + _REFINE_REL_TOL, tol, probe=True, measured=True)
    if found is None:
        raise ConvergenceError(
            f"levels on {points} and {2 * points - 1} points differ by more than {_REFINE_REL_TOL:g} relative "
            f"(E={energy(y)!r}); raise points"
        )
    if found != n:
        raise ConvergenceError(f"converged solution has {found} nodes, expected {n} (E={energy(y2)!r})")
    return energy(y2)


def _secant(residual, y, slope, lo, hi, tol, probe=False, measured=False):
    """Root of the increasing residual(y)[0] in [lo, hi] by secant steps
    from y, slope being an estimate of its derivative.

    A step that leaves the bracket of the signs seen so far bisects it.
    Returns (root, nodes at the last residual, slope) once the bracket,
    or a step taken with a slope measured on this residual (or passed in
    as measured), is below tol; until then each step is at least tol long.
    A step past lo or hi returns (that step, None, slope), or with probe
    set first goes to the edge and does so only if the residual keeps its
    sign there.
    """
    tol = max(tol, 4.0 * math.ulp(max(abs(y), 1.0)))
    below = above = None
    f, nodes = residual(y)
    while True:
        if f < 0.0:
            below = y
        else:
            above = y
        step = -f / slope
        if not measured:  # long enough to measure the slope over
            step = math.copysign(max(abs(step), tol), step)
        y_next = y + step
        bracketed = below is not None and above is not None
        if bracketed:
            if not below < y_next < above:
                y_next = 0.5 * (below + above)
        elif not lo <= y_next <= hi:
            edge = lo if y_next < lo else hi
            if not probe or y == edge:
                return y_next, None, slope
            y_next = edge
        if (measured and abs(y_next - y) <= tol) or (bracketed and above - below <= tol):
            return y_next, nodes, slope
        f_next, nodes = residual(y_next)
        secant = (f_next - f) / (y_next - y)
        if secant > 0.0:
            slope, measured = secant, True
        y, f = y_next, f_next
