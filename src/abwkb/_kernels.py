"""Hot numeric kernels: tanh-sinh action sums and Numerov sweeps.

One implementation per kernel: the action sum is vectorized with NumPy,
its node table built once per mesh level and held in a bounded cache,
and one evaluation of its integrand on a fine mesh serves every coarser
mesh it nests, each a strided view of the one array;
both Numerov sweeps run the one recurrence _sweep on the logarithmic grid
x = ln r, its ratio recurrence a Python loop that reads the coefficients
through a memoryview, in place.  A grid's energy-free parts are one
record, _grid_table, built once per grid and held in a one-entry cache:
e^{2x}, the power-law term lam e^{(nu+2)x}, and the rows of the regular
Frobenius series that starts the outward walk (_series_rows): its five
energy rows a <= 4, each summed to rounding in the power law, and so
exact wherever the oracle starts the walk, well out from the grid's
inner edge.  A kernel call reads the record once (_setup), builds its
coefficients with NumPy over the whole grid and its outward start
ratio, the rows combined in Horner form in E, and walks a forward or
reversed view of them.  Sweeps return u on an arbitrary scale, shared
by the values of one sweep; the oracle reads only their Prufer angle.
The power law is written out in _grid_table and _series_rows.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BACKEND = "numpy"


@functools.lru_cache(maxsize=16)
def _node_table(h: float, kmax: int, levels: int = 1):
    """Mesh h's node table and the meshes it nests: (w, log1p_e, meshes)
    over t = h k, |k| <= kmax, u = (pi/2) sinh t, with the tanh-sinh weight
    w = (pi/4) cosh(t)/cosh(u)**2 (Takahasi & Mori, Publ. RIMS 9, 721
    (1974)) and log1p_e = log1p(exp(-2u)); meshes holds (s, w[::s].sum(),
    s h) for each mesh s h, s = 2**j, j = levels - 1 down to 0, whose nodes
    are every s-th node of mesh h.  None of it depends on the integrand,
    so each mesh builds it once; the arrays are read-only because every
    caller shares them."""
    t = h * np.arange(-kmax, kmax + 1, dtype=np.float64)
    u = 0.5 * np.pi * np.sinh(t)
    w = 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    log1p_e = np.log1p(np.exp(-2.0 * u))
    w.flags.writeable = False
    log1p_e.flags.writeable = False
    strides = [2**j for j in range(levels - 1, -1, -1)]
    return w, log1p_e, tuple((s, float(w[::s].sum()), s * h) for s in strides)


def action_sum(E: float, lam: float, nu: float, rc: float, h: float, kmax: int) -> float:
    """tanh-sinh node sum of integral_0^rc sqrt(E - lam r**nu) dr at mesh h.

    With E = lam rc**nu, r = rc y**p turns it into rc sqrt|E| p times
    integral_0^1 sqrt(1 - y**q) dy, q = |nu| p, whose integrand is bounded:
    p = 2/(nu + 2) for nu < 0 absorbs the r**(nu/2) singularity at the
    origin, p = 1 otherwise; lam = 0 (the well) integrates sqrt(E) and
    reads the cached weight sum.  Nodes y = 1/(1 + e), e = exp(-pi sinh(k h)),
    |k| <= kmax, keep y <= 1, and 1 - y**q = -expm1(-q log1p(e)) stays
    accurate and non-negative at both ends; e and cosh(u)**2 stay finite
    for kmax h <= 6.1.  The weights and log1p(e) come from _node_table,
    built once per (h, kmax); only the factor in q is computed per call.
    """
    return next(nested_action_sums(E, lam, nu, rc, h, kmax, 1))


def nested_action_sums(E: float, lam: float, nu: float, rc: float, h: float, kmax: int, levels: int):
    """Yield action_sum at the meshes 2**j h, j = levels - 1 down to 0
    (coarsest first), each when asked, from one evaluation of the integrand
    on mesh h.

    Halving a tanh-sinh step keeps every node (Bailey, Jeyabalan & Li,
    Exp. Math. 14, 317 (2005)), so mesh s h sums the strided view vals[::s]
    of the one array (kmax a multiple of 2**(levels - 1)).  t = h k is exact
    on every mesh, and NumPy sums a strided view pairwise as it sums a
    contiguous array, so each sum has action_sum's bits at that mesh.  The
    well (lam = 0) reads each mesh's cached weight sum.
    """
    w, log1p_e, meshes = _node_table(h, kmax, levels)
    p = 2.0 / (nu + 2.0) if nu < 0.0 else 1.0
    scale = rc * math.sqrt(abs(E)) * p
    if lam == 0.0:
        for _, w_sum, h_s in meshes:
            yield scale * w_sum * h_s
    else:
        vals = w * np.sqrt(-np.expm1(-abs(nu) * p * log1p_e))
        for s, _, h_s in meshes:
            yield scale * float(vals[::s].sum()) * h_s


@functools.lru_cache(maxsize=1)
def _grid_table(lam: float, nu: float, gamma: float, x0: float, h: float, n: int):
    """The energy-free record of the grid x_j = x0 + j h, j = 0..n: the Numerov
    coefficients' parts (1 - h**2 (gamma + 1/2)**2 / 12, e^{2x}, h**2 lam e^{(nu+2)x} / 12)
    and the series rows at the walk start (_series_rows).

    A solve sweeps one grid back to back at many energies (search window,
    polish grid, each refinement), so one entry holds the grid in use;
    the arrays are read-only because every sweep on it shares them.
    """
    x = x0 + h * np.arange(n + 1, dtype=np.float64)
    h12 = h * h / 12.0
    e2x = np.exp(2.0 * x)
    pot = h12 * lam * np.exp((nu + 2.0) * x)
    e2x.flags.writeable = False
    pot.flags.writeable = False
    return 1.0 - h12 * (gamma + 0.5) ** 2, e2x, pot, _series_rows(lam, nu, gamma, x0, h)


def _setup(E, lam, nu, gamma, x0, h, n):
    """A kernel call's one read of its grid's record (_grid_table): f = 1 + h**2 g / 12
    and a = 12 / f - 10 over j = 0..n, g = e^{2x}(E - lam e^{nu x}) - (gamma + 1/2)**2,
    and the outward walk's start u(x0 + h) / u(x0) on the regular series."""
    base, e2x, pot, (a0, b0, c0, d0, f0, a1, b1, c1, d1, f1) = _grid_table(lam, nu, gamma, x0, h, n)
    f = base + h * h / 12.0 * E * e2x - pot
    u0 = a0 - E * (b0 - E * (c0 - E * (d0 - E * f0)))
    u1 = a1 - E * (b1 - E * (c1 - E * (d1 - E * f1)))
    return f, 12.0 / f - 10.0, u1 / u0


def _sweep(f, a, ratio):
    """Numerov walk of u'' + g u = 0 over the coefficients f, a of one walk,
    in walk order, from u[0] > 0 and u[1] = ratio u[0] to u[m + 1], m = len(f) - 2.

    This is the radial equation under r = e^x, u_radial = e^{x/2} u (Langer's
    change of variables), so u has the radial function's nodes.  With
    f = 1 + h**2 g / 12, w = f u obeys w_next = a w - w_prev, a = 12 / f - 10,
    and the walk carries only the ratio R = w_next / w = a - 1 / R_prev
    (Johnson's renormalized Numerov), which never overflows.  f > 0 on the
    walk (h**2 |g| / 12 < 1 where g < 0), so a negative R is a sign change
    of u.  The caller picks the start: the regular series outward, a
    decaying solution inward (numerov_match).  Returns (crossings, u[m - 1],
    u[m], u[m + 1]), crossings being the sign changes from u[1] through u[m],
    and the three values scaled by one positive factor so that |w[m]| = 1.
    The loop iterates a memoryview of a[1:m], which yields the same
    Python floats as a list of them without building one; a may be any
    1-D float64 view, reversed (negative stride) or read-only.
    """
    m = len(f) - 2  # the walk's index of its stop
    R = ratio * float(f[1] / f[0])
    sign = math.copysign(1.0, R)
    crossings = 0
    for a_j in memoryview(a[1:m]):
        R = a_j - 1.0 / R
        if R <= 0.0:
            crossings += 1
            if R == 0.0:  # a node on the grid point: pass it as a tiny negative w
                R = -1e-300
    if crossings % 2:
        sign = -sign
    f_back, f_stop, f_ahead = f[m - 1 : m + 2].tolist()
    # w[m - 1] = w[m] / R and w[m + 1] = w[m] (a[m] - 1 / R)
    return crossings, sign / (R * f_back), sign / f_stop, sign * (float(a[m]) - 1.0 / R) / f_ahead


_ROUNDING = 2.0**-53  # a series term below this of its row's sum no longer moves it


def _series_rows(lam, nu, gamma, x0, h):
    """Rows a <= 4 of the regular Frobenius series at r0 = e^{x0} and
    r1 = e^{x0 + h}, less its power r**(gamma+1): (A0, B0, C0, D0, F0,
    A1, B1, C1, D1, F1), with the series A - E (B - E (C - E (D - E F))),
    the second point's rows times e^{(gamma+1/2) h}.

    u = r**(gamma+1) sum_ab c_ab r**s, s = 2a + (nu+2)b, with c_00 = 1 and
    c_ab s(s + 2 gamma + 1) = lam c_a(b-1) - E c_(a-1)b, so c_ab = (-E)**a e_ab
    with e_ab energy-free: each row is r**(2a) sum_b e_ab t**b,
    t = lam r**(nu+2), for a = 0..4, each summed until its terms fall below
    _ROUNDING of its sum.  So _grid_table builds them once per grid and
    each sweep combines them.  The oracle starts the walk where row 5's
    first term, (|E| r**2)**5 / prod_{a=1..5} 2a(2a + 2 gamma + 1), is
    2**-54 at the window's largest |E| (oracles._grid), so the five rows
    are the series to rounding there; row 4 can still be over a thousand
    ulp of the sum (gamma = 0).  Dividing out r**(gamma+1) leaves no
    underflow however far in x0 lies.
    """
    k = 2.0 * gamma + 1.0
    p = nu + 2.0
    lead1 = 1.0 / (2.0 * (2.0 + k))
    lead2 = lead1 / (4.0 * (4.0 + k))
    lead3 = lead2 / (6.0 * (6.0 + k))
    lead4 = lead3 / (8.0 * (8.0 + k))
    rows = []
    for x in (x0, x0 + h):
        t = lam * math.exp(p * x)
        # the terms e_ab t**b of rows 0..4 at b, and their sums
        e0 = sum0 = 1.0
        e1 = sum1 = lead1
        e2 = sum2 = lead2
        e3 = sum3 = lead3
        e4 = sum4 = lead4
        b = 0
        while (
            abs(e0) > _ROUNDING * abs(sum0)
            or abs(e1) > _ROUNDING * abs(sum1)
            or abs(e2) > _ROUNDING * abs(sum2)
            or abs(e3) > _ROUNDING * abs(sum3)
            or abs(e4) > _ROUNDING * abs(sum4)
        ):
            b += 1
            s = p * b
            e0 = t * e0 / (s * (s + k))
            s += 2.0
            e1 = (t * e1 + e0) / (s * (s + k))
            s += 2.0
            e2 = (t * e2 + e1) / (s * (s + k))
            s += 2.0
            e3 = (t * e3 + e2) / (s * (s + k))
            s += 2.0
            e4 = (t * e4 + e3) / (s * (s + k))
            sum0 += e0
            sum1 += e1
            sum2 += e2
            sum3 += e3
            sum4 += e4
        r2 = math.exp(2.0 * x)
        r4 = r2 * r2
        rows += (sum0, r2 * sum1, r4 * sum2, r4 * r2 * sum3, r4 * r4 * sum4)
    step = math.exp((gamma + 0.5) * h)
    a0, b0, c0, d0, f0, a1, b1, c1, d1, f1 = rows
    return a0, b0, c0, d0, f0, step * a1, step * b1, step * c1, step * d1, step * f1


def numerov_count(
    E: float, lam: float, nu: float, gamma: float, x0: float, h: float, n: int
) -> int:
    """Outward Numerov sweep of the radial equation over x_i = x0 + i h,
    i = 0..n-1 (r = e^x); returns the interior node count.  The sweep also
    steps to x_n, whose value is not used.  No src/ path calls it; it
    stays for perfbench's tracer and the pinned sweeps (ROADMAP item 12)."""
    f, a, ratio = _setup(E, lam, nu, gamma, x0, h, n)
    return _sweep(f, a, ratio)[0]


def numerov_match(
    E: float, lam: float, nu: float, gamma: float, x0: float, h: float, n: int, im: int
):
    """Two-sided Numerov sweep over x_i = x0 + i h to the matching index im,
    1 <= im <= n - 2.

    Returns (nodes_out, u_out, du_out, nodes_in, u_in, du_in): for the
    outward solution (regular series at x0) and the inward one (decaying
    seed at x_{n-1}), the sign changes through u[im], and u and its
    central-difference derivative du/dx at im.  Each pair is on its own
    arbitrary scale, shared by u and du, and carries the sign of u.
    The outward walk reads a forward view of the grid's coefficients,
    x_0..x_{im+1}, and the inward walk a reversed view, x_{n-1}..x_{im-1},
    from u[n - 2] = e^{kappa h} u[n - 1], kappa = sqrt(-g) at x_{n-1}.
    """
    f, a, ratio = _setup(E, lam, nu, gamma, x0, h, n)
    decay = math.exp(min(math.sqrt(max((1.0 - f[n - 1]) / (h * h / 12.0), 1e-12)) * h, 600.0))
    nodes_out, uo_m1, uo_0, uo_p1 = _sweep(f[: im + 2], a[: im + 2], ratio)
    nodes_in, ui_p1, ui_0, ui_m1 = _sweep(f[im - 1 : n][::-1], a[im - 1 : n][::-1], decay)
    return nodes_out, uo_0, 0.5 * (uo_p1 - uo_m1) / h, nodes_in, ui_0, 0.5 * (ui_p1 - ui_m1) / h
