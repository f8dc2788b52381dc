"""Hot numeric kernels: tanh-sinh action sums and Numerov sweeps.

One implementation per kernel: the action sum is vectorized with NumPy,
the Numerov sweeps are plain Python recurrences.  The power-law potential
is inlined in each body.
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


def numerov_count(
    E: float, lam: float, nu: float, gamma: float, r0: float, h: float, n: int
) -> int:
    """Outward Numerov sweep of u'' + (E - lam r**nu - g(g+1)/r^2) u = 0
    over r_i = r0 + i h, i = 0..n-1; returns the interior node count."""
    h12 = h * h / 12.0
    cg = gamma * (gamma + 1.0)
    sa = -E / (2.0 * (2.0 * gamma + 3.0))
    sb = lam / ((nu + 2.0) * (nu + 2.0 * gamma + 3.0))
    r = r0
    g_prev = E - lam * r**nu - cg / (r * r)
    u_prev = r ** (gamma + 1.0) * (1.0 + sa * r * r + sb * r ** (nu + 2.0))
    r = r0 + h
    g_cur = E - lam * r**nu - cg / (r * r)
    u_cur = r ** (gamma + 1.0) * (1.0 + sa * r * r + sb * r ** (nu + 2.0))
    nodes = 0
    for i in range(1, n - 1):
        r = r0 + (i + 1) * h
        g_next = E - lam * r**nu - cg / (r * r)
        u_next = (
            2.0 * u_cur * (1.0 - 5.0 * h12 * g_cur) - u_prev * (1.0 + h12 * g_prev)
        ) / (1.0 + h12 * g_next)
        if (u_next < 0.0 and u_cur > 0.0) or (u_next > 0.0 and u_cur < 0.0):
            nodes += 1
        if abs(u_next) > 1e250:
            u_next *= 1e-250
            u_cur *= 1e-250
        u_prev = u_cur
        u_cur = u_next
        g_prev = g_cur
        g_cur = g_next
    return nodes


def numerov_match(
    E: float, lam: float, nu: float, gamma: float, r0: float, h: float, n: int, im: int
):
    """Two-sided Numerov sweep matched at grid index im.

    Returns (disc, nodes): disc is the normalised difference of outward
    and inward log-derivatives at im (zero exactly at a discrete
    eigenvalue), nodes the sign-change count of the matched composite.
    """
    h12 = h * h / 12.0
    cg = gamma * (gamma + 1.0)
    sa = -E / (2.0 * (2.0 * gamma + 3.0))
    sb = lam / ((nu + 2.0) * (nu + 2.0 * gamma + 3.0))

    # outward, remembering the last three values u[im-1], u[im], u[im+1]
    r = r0
    g_prev = E - lam * r**nu - cg / (r * r)
    u_prev = r ** (gamma + 1.0) * (1.0 + sa * r * r + sb * r ** (nu + 2.0))
    r = r0 + h
    g_cur = E - lam * r**nu - cg / (r * r)
    u_cur = r ** (gamma + 1.0) * (1.0 + sa * r * r + sb * r ** (nu + 2.0))
    nodes_out = 0
    u_prev2 = 0.0
    for i in range(1, im + 1):
        r = r0 + (i + 1) * h
        g_next = E - lam * r**nu - cg / (r * r)
        u_next = (
            2.0 * u_cur * (1.0 - 5.0 * h12 * g_cur) - u_prev * (1.0 + h12 * g_prev)
        ) / (1.0 + h12 * g_next)
        if i < im and ((u_next < 0.0 and u_cur > 0.0) or (u_next > 0.0 and u_cur < 0.0)):
            nodes_out += 1
        if abs(u_next) > 1e250:
            u_next *= 1e-250
            u_cur *= 1e-250
            u_prev *= 1e-250
        u_prev2 = u_prev
        u_prev = u_cur
        u_cur = u_next
        g_prev = g_cur
        g_cur = g_next
    uo_m1 = u_prev2  # u[im-1]
    uo_0 = u_prev  # u[im]
    uo_p1 = u_cur  # u[im+1]

    # inward from the far edge, remembering v[im+1], v[im], v[im-1]
    r_top = r0 + (n - 1) * h
    g_top = E - lam * r_top**nu - cg / (r_top * r_top)
    kappa = math.sqrt(max(-g_top, 1e-12))
    v_next = 1e-280
    v_cur = 1e-280 * math.exp(min(kappa * h, 600.0))
    g_next = g_top
    r = r_top - h
    g_cur = E - lam * r**nu - cg / (r * r)
    nodes_in = 0
    v_next2 = 0.0
    for i in range(n - 2, im - 1, -1):
        r = r0 + (i - 1) * h
        g_prev2 = E - lam * r**nu - cg / (r * r)
        v_prev = (
            2.0 * v_cur * (1.0 - 5.0 * h12 * g_cur) - v_next * (1.0 + h12 * g_next)
        ) / (1.0 + h12 * g_prev2)
        if i - 1 > im and ((v_prev < 0.0 and v_cur > 0.0) or (v_prev > 0.0 and v_cur < 0.0)):
            nodes_in += 1
        if abs(v_prev) > 1e250:
            v_prev *= 1e-250
            v_cur *= 1e-250
            v_next *= 1e-250
        v_next2 = v_next
        v_next = v_cur
        v_cur = v_prev
        g_next = g_cur
        g_cur = g_prev2
    ui_p1 = v_next2  # v[im+1]
    ui_0 = v_next  # v[im]
    ui_m1 = v_cur  # v[im-1]

    if ui_0 == 0.0:
        ui_0 = 1e-300
    if uo_0 == 0.0:
        uo_0 = 1e-300
    scale = uo_0 / ui_0
    right = scale * ui_p1
    nodes = nodes_out + nodes_in
    if (uo_0 > 0.0 and right < 0.0) or (uo_0 < 0.0 and right > 0.0):
        nodes += 1
    disc = ((uo_p1 - uo_m1) - scale * (ui_p1 - ui_m1)) / (2.0 * h * abs(uo_0))
    return disc, nodes
