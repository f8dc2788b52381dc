"""Independent reference spectra: Bessel-zero well levels and a radial
shooting eigensolver.

These share no formulas with the action module, which is the point: they
validate the semiclassical results from the outside.  The shooting solver
takes only its starting level and slope from the closed form; its answer
is the root of a Prufer miss-distance that counts the nodes itself, and
is solved again on grids of twice the density until two levels agree, so
a poor seed costs sweeps, never the level, and one search keeps its
bracket across grid windows.  The two levels, whose O(h**4) errors
differ by a factor of 16, are Richardson-extrapolated.
"""

from __future__ import annotations

import math
import sys

from . import _kernels, closed_form
from .errors import ConvergenceError
from .model import PowerLaw
from .special_functions import bessel_j_zeros

__all__ = ["well_exact_spectrum", "shoot_eigenvalue"]


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


_START_POINTS = 1200  # the polish grid, the N of the Richardson pair, has at least this many points
_MAX_POINTS = 2**17  # no grid, its nested refinements included, grows past this
_MAX_SWEEPS = 260  # Numerov sweeps of one solve
# inner edge: |lam| r**(nu+2) and |E| r**2 below this of (gamma + 1/2)**2; it
# fixes the grid's extent, and so its step, but the walk starts further out
# (_SERIES_EPS, _SERIES_TERM and _series_reach)
_INNER_EPS = 1e-6
_SERIES_EPS = 1e-2  # walk start: |lam| r**(nu+2) below this of (gamma + 1/2)**2,
# and below this of (nu + 2)(nu + 2 gamma + 3), the first ratio of the series'
# terms, so that on a tail its alternating sum loses at most ~600 ulp
_SERIES_TERM = 4.0
_DECAY_TARGET = 18.5  # -ln(1e-8): tail below 1e-8 of the interior amplitude
# h**2 |g| / 12 anywhere on the grid: above 1/2 the Numerov recurrence
# oscillates with period two where g > 0, and its forbidden-region
# denominator 1 - h**2 |g| / 12 nears zero; node counts there are noise
_MAX_STEP_PARAM = 0.5
_SEARCH_RATIO = 2.0  # search windows span E / r .. E r, r = this ** min(1, |nu|)
_POLISH_WIDTH = 1e-3  # the polish grid is built for E (1 -+ this)
_REFINE_REL_TOL = 1e-6  # two nested levels, on N and 2N - 1 points, must agree to this
_REL_TOL = 1e-10  # last secant step on each refinement of the polish grid, relative to |E|
_MAX_EXPONENT = 700.0  # e^{2x} and e^{(nu+2)x} stay finite on the grid
_MAX_Y = 650.0  # the search bound on |ln|E|| at unit coupling; _grid builds floor grids out to it


def _series_reach(gamma: float) -> float:
    """ln z, z the |E| r**2 out to which the five energy rows of the regular
    series (_kernels._series_rows) are exact: there row 5's first term,
    z**5 / prod_{a=1..5} 2a(2a + 2 gamma + 1), is 2**-54, below half an ulp
    of the sum.  z is 0.0186 at gamma = 0 and grows about as 0.006 gamma;
    the sum of logs keeps the product finite for any gamma the solver takes."""
    return (sum(math.log(2.0 * a * (2.0 * a + 2.0 * gamma + 1.0)) for a in range(1, 6)) - 54.0 * math.log(2.0)) / 5.0


def _grid(E: float, lo: float, hi: float, lam: float, nu: float, gamma: float, points: int):
    """Log grid (x0, h, N, im, scale, start) for energies in [lo, hi] around E.

    x_i = x0 + i h covers the inner edge of the larger |E| and the outer
    edge of hi, whose turning point is the outermost and whose tail
    decays slowest.  N is the least point count, and at least points, on
    which h**2 |g| / 12 stays within _MAX_STEP_PARAM for either end
    energy: neither the extent nor the largest |g| depends on N.  A grid
    whose 2N - 1 point refinement would pass _MAX_POINTS raises
    ConvergenceError.  im sits where g peaks for E, inside the classically
    allowed region if E has one, and scale is sqrt(g) there (at least
    gamma + 1/2): the local wavenumber, with which the Prufer angle of
    _miss advances evenly.

    The kernels walk only x_start .. x_{N-1}: start is the last point at
    or below x_walk, where the regular series (_kernels._series_rows) is
    still exact to rounding, and at most im - 2.  x_walk is the lesser of
    two edges.  The power-law edge is the inner edge with _SERIES_EPS in
    place of _INNER_EPS, capped by _SERIES_TERM; on a tail (lam < 0) the
    factor 1 / (nu + 2) puts x0 far in (-12 to -17 at perfbench's tail
    exponents, -249 at nu = -1.95), and this edge skips 38-55 % of the
    grid there and about two thirds at nu = -1.95 and -1.99.  The energy
    edge is |E| r**2 = z at the window's largest |E|, z from
    _series_reach, where the series' five energy rows are exact; it binds
    on confined (nu > 0) grids, whose walks it halves (0.50-0.56 of the
    points of bench_shoot.py's confined solves), and on Coulomb and weak
    tails.  The step h, the points floor and the cap still count the
    whole grid from x0, so every grid keeps the step and the size it had
    when the walk began at x0.  Over 400 seeded windows and the steep-wall
    and floor windows on 2000 points, start stayed 596 or more points
    below im.
    """
    c = (gamma + 0.5) ** 2
    nu2 = nu + 2.0
    e_max = max(abs(lo), abs(hi))
    x0 = min(math.log(_INNER_EPS * c / abs(lam)) / nu2, 0.5 * math.log(_INNER_EPS * c / e_max))
    series_edge = min(_SERIES_EPS * c, _SERIES_TERM * nu2 * (nu2 + 2.0 * gamma + 1.0))
    x_walk = min(math.log(series_edge / abs(lam)) / nu2, 0.5 * (_series_reach(gamma) - math.log(e_max)))

    def kappa2(E, x):  # -g: the decay rate squared, negative where allowed
        exponent = max(nu2, 2.0) * x
        if exponent > _MAX_EXPONENT:
            raise ConvergenceError(
                f"the grid for E={E!r} would reach past ln r = {x:.4g}, "
                f"where max(nu + 2, 2) ln r = {exponent:.4g} > _MAX_EXPONENT = {_MAX_EXPONENT:g}"
            )
        return lam * math.exp(nu2 * x) - E * math.exp(2.0 * x) + c

    # -g is least at xs and rises monotonically on either side of it
    xs = math.log(2.0 * hi / (nu2 * lam)) / nu
    dx = 0.2 / max(nu2, 2.0)  # about a tenth of an e-fold of kappa
    x, k2, decay, forbidden = xs, kappa2(hi, xs), 0.0, False
    g_allowed = -k2
    # the walk ends: from ln((nu + 2) / 2) / nu past xs on, kappa**2 >= (gamma + 1/2)**2,
    # so decay grows by dx / 2 or more a step, and kappa2 raises past _MAX_EXPONENT
    while decay < _DECAY_TARGET:
        forbidden = forbidden or k2 >= 0.0  # past the turning point: the tail decays from here
        x_next = x + dx
        k2_next = kappa2(hi, x_next)
        if forbidden:
            decay += 0.5 * dx * (math.sqrt(k2) + math.sqrt(k2_next))
        x, k2 = x_next, k2_next
    g_max = max(c, g_allowed, kappa2(lo, x))
    points = max(points, 1 + math.ceil((x - x0) * math.sqrt(g_max / (12.0 * _MAX_STEP_PARAM))))
    if 2 * points - 1 > _MAX_POINTS:
        raise ConvergenceError(
            f"grid step too coarse: h^2 |g| / 12 <= {_MAX_STEP_PARAM} needs {points} points, "
            f"whose {2 * points - 1} point refinement passes the cap {_MAX_POINTS}"
        )
    h = (x - x0) / (points - 1)
    xm = math.log(2.0 * E / (nu2 * lam)) / nu
    im = max(2, min(points - 4, int(round((xm - x0) / h))))
    scale = math.sqrt(max(-kappa2(E, x0 + im * h), c))
    start = max(0, min(im - 2, math.floor((x_walk - x0) / h)))
    return x0, h, points, im, scale, start


def _miss(E: float, lam: float, nu: float, gamma: float, grid) -> tuple[float, int]:
    """Prufer miss-distance F(E) = theta_out - theta_in at grid index im,
    and the matched composite's node count.

    theta = atan2(scale u, u') is unwrapped by each sweep's crossings:
    the outward angle starts in (0, pi/2) and gains pi per node, the
    inward one starts in (pi/2, pi) at the outer edge and loses pi per
    node.  F is continuous and increasing in E on a fixed grid (Sturm),
    and equals n pi exactly where the two solutions match with n nodes.
    """
    x0, h, points, im, scale, start = grid
    nodes_out, uo, do, nodes_in, ui, di = _kernels.numerov_match(
        E, lam, nu, gamma, x0 + start * h, h, points - start, im - start
    )
    nodes = nodes_out + nodes_in
    return nodes * math.pi + math.atan2(scale * uo, do) % math.pi - math.atan2(scale * ui, di) % math.pi, nodes


def shoot_eigenvalue(potential: PowerLaw, gamma: float, n: int) -> float:
    """n-th eigenvalue (n = interior node count) of the reduced radial
    equation u'' + (E - lam r**nu - gamma(gamma+1)/r^2) u = 0 with
    u(0) = 0 and a decaying tail.

    Numerov integrates phi = u / sqrt(r) in x = ln r on a grid of N
    points (_grid), inward from a decaying seed and outward from the
    regular series, its five energy rows summed to rounding at the grid's
    walk start: that start lies well out from the inner edge x0, which
    still sets the step and N, so the walk skips the points where the
    series is already exact, on tails and confined grids alike.  One safeguarded secant search finds the root
    of the increasing miss-distance F(E) - n pi (_miss) over
    |ln|E|| <= _MAX_Y from the log of the closed-form level and its slope,
    on the grid for the window E / r .. E r (_SEARCH_RATIO) around an
    iterate, rebuilt where one leaves it.  Its sign bracket and slope
    carry over from window to window: at the nu = -2 floor, where the seed
    is decades off, gamma in {0, 0.5, 1.5, 4} and n in {0, 1, 3, 10} solve
    in 9-17 sweeps at nu = -1.99, 9-15 at -1.97 and 9-13 at -1.95.  It then
    solves once on a grid of N points for E (1 -+ _POLISH_WIDTH), and once
    on each of its nested 2N - 1, 4N - 3, ... point refinements, from the
    last level and slope, until two nested levels agree to _REFINE_REL_TOL.
    Numerov's error is O(h**4), so the level returned is the Richardson
    extrapolation E_2N + (E_2N - E_N) / 15 of those two (Andrew & Paine,
    Numer. Math. 47, 289 (1985)), within 6.6e-11 relative of 40 exact
    Coulomb and oscillator levels with n up to 20; at nu <= -1.8, searches
    by other paths, to other grids, differ by up to 5.7e-10.  A level is
    reproducible only to about _REL_TOL = 1e-10 relative: the last
    refinement's secant stops on a 1e-10 step in ln|E|, so a change in
    the 13th digit of its iterates can end it a step earlier, which moved
    levels by up to 1.06e-10 (nu = -0.5, gamma = 20, n = 20).

    N grows only where a check measures that it must: _grid gives every
    window, search or polish, the least N that keeps h**2 |g| / 12 within
    _MAX_STEP_PARAM, no window gets fewer points than the one before it,
    and the polish grid is refined only while its nested levels differ.
    The polish grid alone also gets at least _START_POINTS: its level and
    its refinement's are the Richardson pair, while the search stops at
    0.5 _POLISH_WIDTH in ln|E|, which its window grids meet on the step
    bound's N (319-572 points on bench_shoot.py's strata states).

    The levels of lam r**nu are |lam|**(2/(nu+2)) times those of
    sign(lam) r**nu (r scales by |lam|**(-1/(nu+2))), so the search runs at
    unit coupling and the level found is multiplied by that scale, the
    closed form's LevelCoefficients.scale; the energies that a
    ConvergenceError names are those at unit coupling.  A scale or a level
    outside the normal double range raises ValueError, as the closed form
    does, and so does a gamma whose (gamma + 1/2)**2 overflows.

    A level beyond _MAX_Y, a grid that would pass _MAX_POINTS, a polish
    that leaves its window, a matched solution without n nodes, or more
    than _MAX_SWEEPS sweeps raise ConvergenceError.
    """
    if not isinstance(potential, PowerLaw):
        raise ValueError("shooting solver handles power-law potentials")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if gamma + 0.5 > math.sqrt(sys.float_info.max):
        raise ValueError(f"gamma={gamma} is out of range: (gamma + 1/2)**2 overflows")
    coefficients = closed_form.level_coefficients(potential)
    nu = potential.nu
    # the search runs at unit coupling lam = sign, in y = sign(E) ln|E|,
    # which rises with E and in which F is close to linear even across
    # decades of E
    lam = sign = math.copysign(1.0, potential.lam)

    sweeps, points, grid, center = 0, 0, None, math.inf
    width = min(1.0, abs(nu)) * math.log(_SEARCH_RATIO)

    def energy(y):
        return sign * math.exp(sign * y)

    def grid_for(y, half):
        """The grid for the window y -+ half, on no fewer points than the last."""
        nonlocal points
        grid = _grid(energy(y), *sorted((energy(y - half), energy(y + half))), lam, nu, gamma, points)
        points = grid[2]
        return grid

    def residual(y):  # F - n pi on the grid for center -+ width, moved to y if y leaves it
        nonlocal sweeps, grid, center
        if abs(y - center) > width:
            center, grid = y, grid_for(y, width)
        if sweeps >= _MAX_SWEEPS:
            raise ConvergenceError(f"shooting did not converge within {_MAX_SWEEPS} sweeps")
        sweeps += 1
        phase, nodes = _miss(energy(y), lam, nu, gamma, grid)
        return phase - n * math.pi, nodes

    # the closed-form level |E| = (factor x)**power, x = n + slope g +
    # offset, has phase pi x, so dF/dy ~ pi x / |power|; its logarithm
    # neither under- nor overflows
    index = coefficients.level_index(n, gamma)
    y = min(max(sign * coefficients.power * math.log(coefficients.factor * index), -_MAX_Y), _MAX_Y)
    slope = math.pi * index * (nu + 2.0) / (2.0 * abs(nu))

    # 1. one search over |y| <= _MAX_Y, on window grids that follow the
    # iterate, so that its sign bracket and measured slope carry over
    y, nodes, slope = _secant(residual, y, slope, -_MAX_Y, _MAX_Y, 0.5 * _POLISH_WIDTH)
    if nodes is None:
        raise ConvergenceError(f"no level with |ln|E|| <= _MAX_Y = {_MAX_Y:g} at unit coupling")

    # 2. the level once on a grid of N points built around it, then once on
    # each of its nested 2N - 1, 4N - 3, ... point refinements, each solve
    # starting from the last level and slope, until two nested levels agree
    points = max(points, _START_POINTS)
    grid, width = grid_for(y, _POLISH_WIDTH), math.inf  # no iterate moves these grids
    lo, hi = y - _POLISH_WIDTH, y + _POLISH_WIDTH
    level, tol, measured = math.inf, 0.125 * _REFINE_REL_TOL, False
    while True:
        x0, h, points, im, scale, start = grid
        y, nodes, slope = _secant(residual, y, slope, lo, hi, tol, measured)
        if nodes is None:
            raise ConvergenceError(f"the level on {points} points left its polish window (E={energy(y)!r})")
        if abs(y - level) <= _REFINE_REL_TOL:
            break
        if 2 * points - 1 > _MAX_POINTS:
            raise ConvergenceError(
                f"levels on {points // 2 + 1} and {points} points differ by more than {_REFINE_REL_TOL:g} relative "
                f"(E={energy(y)!r}); the next check, on {2 * points - 1} points, passes the cap {_MAX_POINTS}"
            )
        level, grid, tol, measured = y, (x0, 0.5 * h, 2 * points - 1, 2 * im, scale, 2 * start), _REL_TOL, True
    if nodes != n:
        raise ConvergenceError(f"converged solution has {nodes} nodes, expected {n} (E={energy(y)!r})")
    # E_2N - E_N is 15 times the h**4 error of E_2N
    e_n, e_2n = energy(level), energy(y)
    return closed_form._normal_level(abs(coefficients.scale) * (e_2n + (e_2n - e_n) / 15.0), n, gamma)


def _secant(residual, y, slope, lo, hi, tol, measured=False):
    """Root of the increasing residual(y)[0] in [lo, hi] by secant steps
    from y, slope being an estimate of its derivative.

    A step that leaves the bracket of the signs seen so far bisects it.
    Returns (root, nodes at the last residual, slope) once the bracket,
    or a step taken with a slope measured on this residual (or passed in
    as measured), is below tol; until then each step is at least tol long.
    A step past lo or hi goes to that edge, and one past it again, the
    residual having kept its sign there, returns (the edge, None, slope).
    """
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
            y_next = min(max(y_next, lo), hi)
            if y_next == y:  # the residual kept its sign at this edge
                return y, None, slope
        if (measured and abs(y_next - y) <= tol) or (bracketed and above - below <= tol):
            return y_next, nodes, slope
        f_next, nodes = residual(y_next)
        secant = (f_next - f) / (y_next - y)
        if secant > 0.0:
            slope, measured = secant, True
        y, f = y_next, f_next
