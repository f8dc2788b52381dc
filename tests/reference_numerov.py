"""The scalar Numerov recurrence the kernels replaced, kept as a reference.

_sweep carries u itself on the logarithmic grid x = ln r, with one exp
per term at every point and a 1e250 rescale; _kernels now carries the
ratios of w = f u instead.  The kernel tests compare node counts and the
Prufer angle atan2(S u, u') at the matching point with these.  The
outward walk starts on the kernels' own series, the one formula for it.
"""

import math

from abwkb import _kernels


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


def _outward(E, lam, nu, gamma, x0, h, n, stop):
    """_sweep from x0 upward, started on the kernels' regular series (the
    ratio _kernels._setup gives on the grid j = 0..n), taken as u[0] = 1
    so that a far-in x0 cannot underflow it."""
    return _sweep(E, lam, nu, gamma, x0, h, 0, stop, 1, 1.0, _kernels._setup(E, lam, nu, gamma, x0, h, n)[2])
