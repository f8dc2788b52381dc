"""Hot numeric kernels: tanh-sinh action sums and Numerov sweeps.

One implementation per kernel: the action sum is vectorized with NumPy;
both Numerov sweeps run the one plain Python recurrence _sweep on the
logarithmic grid x = ln r.  The power-law potential is inlined in each
body.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"


def action_sum(E: float, lam: float, nu: float, rc: float, h: float, kmax: int) -> float:
    """tanh-sinh node sum of integral_0^rc sqrt(E - lam r**nu) dr at mesh h.

    With E = lam rc**nu, r = rc y**p turns it into rc sqrt|E| p times
    integral_0^1 sqrt(1 - y**q) dy, q = |nu| p, whose integrand is bounded:
    p = 2/(nu + 2) for nu < 0 absorbs the r**(nu/2) singularity at the
    origin, p = 1 otherwise; lam = 0 (the well) integrates sqrt(E).  Nodes
    y = 1/(1 + e), e = exp(-pi sinh(k h)), |k| <= kmax, keep y <= 1, and
    1 - y**q = -expm1(-q log1p(e)) stays accurate and non-negative at both
    ends; e and cosh(u)**2 stay finite for kmax h <= 6.1.
    """
    t = h * np.arange(-kmax, kmax + 1, dtype=np.float64)
    u = 0.5 * np.pi * np.sinh(t)
    w = 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    p = 2.0 / (nu + 2.0) if nu < 0.0 else 1.0
    if lam != 0.0:
        w *= np.sqrt(-np.expm1(-abs(nu) * p * np.log1p(np.exp(-2.0 * u))))
    return rc * math.sqrt(abs(E)) * p * float(w.sum()) * h


def _sweep(E, lam, nu, gamma, x0, h, i, stop, step, u_prev, u_cur):
    """Numerov walk of u'' + g u = 0, g = e^{2x}(E - lam e^{nu x}) - (gamma + 1/2)**2,
    over x_j = x0 + j h from u[i] = u_prev, u[i + step] = u_cur to u[stop + step].

    This is the radial equation under r = e^x, u_radial = e^{x/2} u (Langer's
    change of variables), so u has the radial function's nodes.  The walk
    carries f = 1 + h**2 g / 12 and steps u_next f_next = (12 - 10 f) u -
    f_prev u_prev.  u_cur=None starts a decaying solution,
    u[i + step] = u[i] exp(kappa h) with kappa = sqrt(-g(x_i)).  Returns
    (crossings, u[stop - step], u[stop], u[stop + step]), crossings being
    the sign changes from u[i + step] through u[stop].  A value above
    1e250 rescales all three carried values by 1e-250.
    """
    exp = math.exp
    h12 = h * h / 12.0
    f0, fe, fl = 1.0 - h12 * (gamma + 0.5) ** 2, h12 * E, h12 * lam
    nu2 = nu + 2.0
    x = x0 + i * h
    f_prev, f_cur = (f0 + fe * exp(2.0 * x) - fl * exp(nu2 * x) for x in (x, x + step * h))
    if u_cur is None:
        u_cur = u_prev * exp(min(math.sqrt(max((1.0 - f_prev) / h12, 1e-12)) * h, 600.0))
    crossings = 0
    # u_last trails u_cur by one step, except that the start pair is not tested
    u_back, u_last = math.nan, u_cur
    for j in range(i + 2 * step, stop + 2 * step, step):
        if (u_last < 0.0 and u_cur > 0.0) or (u_last > 0.0 and u_cur < 0.0):
            crossings += 1
        x = x0 + j * h
        f_next = f0 + fe * exp(2.0 * x) - fl * exp(nu2 * x)
        u_next = ((12.0 - 10.0 * f_cur) * u_cur - f_prev * u_prev) / f_next
        if abs(u_next) > 1e250:
            u_next *= 1e-250
            u_cur *= 1e-250
            u_prev *= 1e-250
        u_back = u_prev
        u_prev = u_last = u_cur
        u_cur = u_next
        f_prev = f_cur
        f_cur = f_next
    return crossings, u_back, u_prev, u_cur


def _outward(E, lam, nu, gamma, x0, h, stop):
    """_sweep from x0 upward, started on the regular series
    r**(gamma+1/2) (1 + sa r**2 + sb r**(nu+2)) divided by its leading
    power at r0 = e^{x0}, so that a far-in x0 cannot underflow it."""
    sa = -E / (2.0 * (2.0 * gamma + 3.0))
    sb = lam / ((nu + 2.0) * (nu + 2.0 * gamma + 3.0))
    r0, r1 = math.exp(x0), math.exp(x0 + h)
    u0 = 1.0 + sa * r0 * r0 + sb * r0 ** (nu + 2.0)
    u1 = math.exp((gamma + 0.5) * h) * (1.0 + sa * r1 * r1 + sb * r1 ** (nu + 2.0))
    return _sweep(E, lam, nu, gamma, x0, h, 0, stop, 1, u0, u1)


def numerov_count(
    E: float, lam: float, nu: float, gamma: float, x0: float, h: float, n: int
) -> int:
    """Outward Numerov sweep of the radial equation over x_i = x0 + i h,
    i = 0..n-1 (r = e^x); returns the interior node count.
    The sweep also steps to x_n, whose value is not used."""
    return _outward(E, lam, nu, gamma, x0, h, n - 1)[0]


def numerov_match(
    E: float, lam: float, nu: float, gamma: float, x0: float, h: float, n: int, im: int
):
    """Two-sided Numerov sweep over x_i = x0 + i h to the matching index im.

    Returns (nodes_out, u_out, du_out, nodes_in, u_in, du_in): for the
    outward solution (regular series at x0) and the inward one (decaying
    seed at x_{n-1}), the sign changes through u[im], and u and its
    central-difference derivative du/dx at im.  Each pair is on its own
    scale, up to 1e250.
    """
    nodes_out, uo_m1, uo_0, uo_p1 = _outward(E, lam, nu, gamma, x0, h, im)
    nodes_in, ui_p1, ui_0, ui_m1 = _sweep(E, lam, nu, gamma, x0, h, n - 1, im, -1, 1e-280, None)
    return nodes_out, uo_0, 0.5 * (uo_p1 - uo_m1) / h, nodes_in, ui_0, 0.5 * (ui_p1 - ui_m1) / h
