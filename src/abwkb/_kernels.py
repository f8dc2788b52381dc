"""Hot numeric kernels: tanh-sinh action sums and Numerov sweeps.

One implementation per kernel: the action sum is vectorized with NumPy;
both Numerov sweeps run the one plain Python recurrence _sweep.  The
power-law potential is inlined in each body.
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


def _sweep(E, lam, nu, gamma, r0, h, i, stop, step, u_prev, u_cur):
    """Numerov walk of u'' + g u = 0, g = E - lam r**nu - gamma(gamma+1)/r**2,
    over r_j = r0 + j h from u[i] = u_prev, u[i + step] = u_cur to u[stop + step].

    u_cur=None starts a decaying solution, u[i + step] = u[i] exp(kappa h)
    with kappa = sqrt(-g(r_i)).  Returns (crossings, u[stop - step], u[stop],
    u[stop + step]), crossings being the sign changes from u[i + step]
    through u[stop].  A value above 1e250 rescales all three carried values
    by 1e-250.
    """
    h12 = h * h / 12.0
    cg = gamma * (gamma + 1.0)
    r = r0 + i * h
    g_prev, g_cur = (E - lam * r**nu - cg / (r * r) for r in (r, r + step * h))
    if u_cur is None:
        u_cur = u_prev * math.exp(min(math.sqrt(max(-g_prev, 1e-12)) * h, 600.0))
    crossings = 0
    # u_last trails u_cur by one step, except that the start pair is not tested
    u_back, u_last = math.nan, u_cur
    for j in range(i + 2 * step, stop + 2 * step, step):
        if (u_last < 0.0 and u_cur > 0.0) or (u_last > 0.0 and u_cur < 0.0):
            crossings += 1
        r = r0 + j * h
        g_next = E - lam * r**nu - cg / (r * r)
        u_next = (
            2.0 * u_cur * (1.0 - 5.0 * h12 * g_cur) - u_prev * (1.0 + h12 * g_prev)
        ) / (1.0 + h12 * g_next)
        if abs(u_next) > 1e250:
            u_next *= 1e-250
            u_cur *= 1e-250
            u_prev *= 1e-250
        u_back = u_prev
        u_prev = u_last = u_cur
        u_cur = u_next
        g_prev = g_cur
        g_cur = g_next
    return crossings, u_back, u_prev, u_cur


def _outward(E, lam, nu, gamma, r0, h, stop):
    """_sweep from r0 upward, started on the regular series
    u = r**(gamma+1) (1 + sa r**2 + sb r**(nu+2)) at r0 and r0 + h."""
    sa = -E / (2.0 * (2.0 * gamma + 3.0))
    sb = lam / ((nu + 2.0) * (nu + 2.0 * gamma + 3.0))
    u0, u1 = (r ** (gamma + 1.0) * (1.0 + sa * r * r + sb * r ** (nu + 2.0)) for r in (r0, r0 + h))
    return _sweep(E, lam, nu, gamma, r0, h, 0, stop, 1, u0, u1)


def numerov_count(
    E: float, lam: float, nu: float, gamma: float, r0: float, h: float, n: int
) -> int:
    """Outward Numerov sweep of u'' + (E - lam r**nu - g(g+1)/r^2) u = 0
    over r_i = r0 + i h, i = 0..n-1; returns the interior node count.
    The sweep also steps to r_n, whose value is not used."""
    return _outward(E, lam, nu, gamma, r0, h, n - 1)[0]


def numerov_match(
    E: float, lam: float, nu: float, gamma: float, r0: float, h: float, n: int, im: int
):
    """Two-sided Numerov sweep matched at grid index im.

    Returns (disc, nodes): disc is the normalised difference of outward
    and inward log-derivatives at im (zero exactly at a discrete
    eigenvalue), nodes the sign-change count of the matched composite:
    outward crossings through u[im], inward ones through v[im].
    """
    nodes_out, uo_m1, uo_0, uo_p1 = _outward(E, lam, nu, gamma, r0, h, im)
    nodes_in, ui_p1, ui_0, ui_m1 = _sweep(E, lam, nu, gamma, r0, h, n - 1, im, -1, 1e-280, None)
    if ui_0 == 0.0:
        ui_0 = 1e-300
    if uo_0 == 0.0:
        uo_0 = 1e-300
    scale = uo_0 / ui_0
    disc = ((uo_p1 - uo_m1) - scale * (ui_p1 - ui_m1)) / (2.0 * h * abs(uo_0))
    return disc, nodes_out + nodes_in
