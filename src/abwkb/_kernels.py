"""Hot numeric kernels: tanh-sinh action sums and Numerov sweeps.

One implementation per kernel: the action sum is vectorized with NumPy,
its node table built once per mesh level and held in a bounded cache;
both Numerov sweeps run the one recurrence _sweep on the logarithmic grid
x = ln r, its coefficients built with NumPy and its ratio recurrence a
plain Python loop.  Sweeps return u on an arbitrary scale, shared by the
values of one sweep; the oracle reads only their Prufer angle.  The
power-law potential is inlined in each body.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BACKEND = "numpy"


@functools.lru_cache(maxsize=16)
def _node_table(h: float, kmax: int):
    """action_sum's node table at mesh h: (w, log1p_e, w.sum()) over
    t = h k, |k| <= kmax, u = (pi/2) sinh t, with the tanh-sinh weight
    w = (pi/4) cosh(t)/cosh(u)**2 (Takahasi & Mori, Publ. RIMS 9, 721
    (1974)) and log1p_e = log1p(exp(-2u)).  Neither depends on the
    integrand, so each mesh level builds them once; the arrays are
    read-only because every caller shares them."""
    t = h * np.arange(-kmax, kmax + 1, dtype=np.float64)
    u = 0.5 * np.pi * np.sinh(t)
    w = 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    log1p_e = np.log1p(np.exp(-2.0 * u))
    w.flags.writeable = False
    log1p_e.flags.writeable = False
    return w, log1p_e, float(w.sum())


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
    w, log1p_e, w_sum = _node_table(h, kmax)
    p = 2.0 / (nu + 2.0) if nu < 0.0 else 1.0
    if lam != 0.0:
        w_sum = float((w * np.sqrt(-np.expm1(-abs(nu) * p * log1p_e))).sum())
    return rc * math.sqrt(abs(E)) * p * w_sum * h


def _sweep(E, lam, nu, gamma, x0, h, i, stop, step, ratio):
    """Numerov walk of u'' + g u = 0, g = e^{2x}(E - lam e^{nu x}) - (gamma + 1/2)**2,
    over x_j = x0 + j h from u[i] > 0 and u[i + step] = ratio u[i] to u[stop + step].

    This is the radial equation under r = e^x, u_radial = e^{x/2} u (Langer's
    change of variables), so u has the radial function's nodes.  With
    f = 1 + h**2 g / 12, built for the whole walk at once, w = f u obeys
    w_next = (12 / f - 10) w - w_prev, and the walk carries only the ratio
    R = w_next / w = 12 / f - 10 - 1 / R_prev (Johnson's renormalized
    Numerov), which never overflows.  f > 0 on the walk (h**2 |g| / 12 < 1
    where g < 0), so a negative R is a sign change of u.  ratio=None starts
    a decaying solution, ratio = exp(kappa h) with kappa = sqrt(-g(x_i)).  Returns
    (crossings, u[stop - step], u[stop], u[stop + step]), crossings being
    the sign changes from u[i + step] through u[stop], and the three
    values scaled by one positive factor so that |w[stop]| = 1.
    """
    x = x0 + h * np.arange(i, stop + 2 * step, step, dtype=np.float64)
    h12 = h * h / 12.0
    f = 1.0 - h12 * (gamma + 0.5) ** 2 + h12 * E * np.exp(2.0 * x) - h12 * lam * np.exp((nu + 2.0) * x)
    a = 12.0 / f - 10.0
    m = len(x) - 2  # the walk's index of stop
    if ratio is None:
        ratio = math.exp(min(math.sqrt(max((1.0 - f[0]) / h12, 1e-12)) * h, 600.0))
    R = ratio * float(f[1] / f[0])
    sign = math.copysign(1.0, R)
    crossings = 0
    for a_j in a[1:m].tolist():
        R = a_j - 1.0 / R
        if R <= 0.0:
            crossings += 1
            if R == 0.0:  # a node on the grid point: pass it as a tiny negative w
                R = -1e-300
    if crossings % 2:
        sign = -sign
    f_back, f_stop, f_ahead = f[m - 1 : m + 2].tolist()
    # w[stop - step] = w[stop] / R and w[stop + step] = w[stop] (a[m] - 1 / R)
    return crossings, sign / (R * f_back), sign / f_stop, sign * (float(a[m]) - 1.0 / R) / f_ahead


def _outward(E, lam, nu, gamma, x0, h, stop):
    """_sweep from x0 upward, started on the regular series
    r**(gamma+1/2) (1 + sa r**2 + sb r**(nu+2)), whose ratio between x0
    and x0 + h has no underflow however far in x0 lies."""
    sa = -E / (2.0 * (2.0 * gamma + 3.0))
    sb = lam / ((nu + 2.0) * (nu + 2.0 * gamma + 3.0))
    r0, r1 = math.exp(x0), math.exp(x0 + h)
    u0 = 1.0 + sa * r0 * r0 + sb * r0 ** (nu + 2.0)
    u1 = math.exp((gamma + 0.5) * h) * (1.0 + sa * r1 * r1 + sb * r1 ** (nu + 2.0))
    return _sweep(E, lam, nu, gamma, x0, h, 0, stop, 1, u1 / u0)


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
    arbitrary scale, shared by u and du, and carries the sign of u.
    """
    nodes_out, uo_m1, uo_0, uo_p1 = _outward(E, lam, nu, gamma, x0, h, im)
    nodes_in, ui_p1, ui_0, ui_m1 = _sweep(E, lam, nu, gamma, x0, h, n - 1, im, -1, None)
    return nodes_out, uo_0, 0.5 * (uo_p1 - uo_m1) / h, nodes_in, ui_0, 0.5 * (ui_p1 - ui_m1) / h
