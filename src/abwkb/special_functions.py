"""Self-contained real-valued special functions.

Provides Gamma ratios for positive real arguments, the Bessel function
of the first kind J_v(x) for real order v >= 0, and its positive zeros
j_{v,m}.  Everything is plain double precision; no third-party
special-function library is used.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

__all__ = ["gamma_ratio", "bessel_j", "bessel_j_zeros"]


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0 from lgamma, finite also where
    Gamma(a) alone overflows (a > 171.6)."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"gamma_ratio requires a, b > 0, got {a}, {b}")
    return math.exp(math.lgamma(a) - math.lgamma(b))


_MAX_ORDER = 100.0  # Miller's largest intermediate, 4e139 at this order just above x = 12, grows with it


def _bessel_series(order: float, x: float) -> float:
    """Ascending power series; safe for x <= 12."""
    half = 0.5 * x
    term = math.exp(order * math.log(half) - math.lgamma(order + 1.0))
    total = term
    q = half * half
    for k in range(1, 500):
        term *= -q / (k * (order + k))
        total += term
        if k > 4 and abs(term) < 1e-18 * (abs(total) + 1e-300):
            return total
    return total


def _bessel_asymptotic(order: float, x: float) -> float:
    """Hankel large-argument expansion; needs x well beyond order**2/2."""
    mu = 4.0 * order * order
    w = 8.0 * x
    p = 1.0
    q = (mu - 1.0) / w
    tq = q
    sign = -1.0
    k = 1
    while k < 40:
        tp = tq * (mu - (4.0 * k - 1.0) ** 2) / ((2.0 * k) * w)
        if abs(tp) >= abs(tq):
            break
        p += sign * tp
        tq = tp * (mu - (4.0 * k + 1.0) ** 2) / ((2.0 * k + 1.0) * w)
        if abs(tq) >= abs(tp):
            break
        q += sign * tq
        sign = -sign
        k += 1
    chi = x - (0.5 * order + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def _bessel_miller(order: float, x: float) -> float:
    """Backward (Miller) recurrence for the regime where neither the series
    nor the asymptotic expansion holds in double precision.

    Recurs J_{order+j} downward from a high starting order where J is
    negligible, then normalises with Neumann's sum divided by (x/2)**order,
        sum_k (order + 2k) Gamma(order + k) / (k! (x/2)**order) J_{order+2k}(x) = 1,
    each coefficient taken whole from lgamma, so no term leaves double range.
    """
    jmax = int(math.ceil(max(x - order, 0.0) + 20.0 * (1.0 + x ** (1.0 / 3.0))))
    if jmax % 2:
        jmax += 1
    log_half = math.log(0.5 * x)
    f_up = 0.0  # J-proportional value at offset j+1
    f_cur = 1e-30  # at offset jmax
    norm = 0.0
    for j in range(jmax, 0, -1):
        f_down = (2.0 * (order + j) / x) * f_cur - f_up
        f_up, f_cur = f_cur, f_down
        jj = j - 1
        if jj % 2 == 0:
            k = jj // 2
            if k == 0:
                coeff = math.exp(math.lgamma(order + 1.0) - order * log_half)
            else:
                coeff = (order + 2.0 * k) * math.exp(math.lgamma(order + k) - math.lgamma(k + 1.0) - order * log_half)
            norm += coeff * f_cur
    return f_cur / norm


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind J_order(x), order >= 0, x >= 0.

    Three regimes: ascending series for x <= 12, Hankel asymptotics for
    x >= order**2/2 + 18, and Miller backward recurrence in between (where
    both of the others lose accuracy in doubles).  Against scipy, over
    half-integer orders 0 to 100 and 0.01 <= x <= order**2/2 + 60, the
    absolute error stays below 6e-13, set by the series' cancellation near
    x = 12, and below 6e-14 for x > 12.
    """
    if not order >= 0.0:
        raise ValueError(f"Bessel order must be >= 0, got {order}")
    if order > _MAX_ORDER:
        raise ValueError(f"Bessel order {order} exceeds supported maximum {_MAX_ORDER}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"bessel_j requires a finite x >= 0, got x = {x}")
    if x == 0.0:
        return 1.0 if order == 0.0 else 0.0
    if x <= 12.0:
        return _bessel_series(order, x)
    if x >= 0.5 * order * order + 18.0:
        return _bessel_asymptotic(order, x)
    return _bessel_miller(order, x)


def _refine_zero(order: float, lo: float, hi: float, lo_negative: bool) -> float:
    """Safeguarded Newton within a sign-change bracket; lo_negative is J(lo) < 0."""
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f = bessel_j(order, x)
        if f == 0.0:
            return x
        if (f < 0.0) == lo_negative:
            lo = x
        else:
            hi = x
        df = (order / x) * f - bessel_j(order + 1.0, x)  # J'_v = (v/x) J_v - J_{v+1}
        if not (df != 0.0 and lo < (x_new := x - f / df) < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-13 * (abs(x_new) + 1.0):
            return x_new
        x = x_new
    raise ConvergenceError(
        f"Bessel zero refinement did not converge for order {order} in [{lo}, {hi}]"
    )


# Zeros of J_v are spaced by more than 3.0 for every v >= 0, so a scan step
# of 1.5 cannot hop over one.
_SCAN_STEP = 1.5


def bessel_j_zeros(order: float, count: int) -> list[float]:
    """First `count` positive zeros of J_order, ascending.

    Zeros are enumerated by a sign-change scan starting below the first
    zero (j_{v,1} > sqrt(v(v+2))) and polished with safeguarded Newton.
    The scan counts J = 0 as non-negative, so a zero that falls on a scan
    point closes or opens exactly one bracket and is found once.
    Scanning keeps the index m honest for every order; the McMahon
    estimate alone can mislabel the first few zeros once the order grows.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 <= order <= _MAX_ORDER - 1.0:  # the Newton polish evaluates J_{order+1}
        raise ValueError(f"Bessel zeros need 0 <= order <= {_MAX_ORDER - 1.0:g}, got {order}")
    zeros: list[float] = []
    x = max(1e-3, math.sqrt(order * (order + 2.0)))
    f_prev = bessel_j(order, x)
    while len(zeros) < count:
        x_next = x + _SCAN_STEP
        f_next = bessel_j(order, x_next)
        if (f_prev < 0.0) != (f_next < 0.0):
            zeros.append(_refine_zero(order, x, x_next, f_prev < 0.0))
        x, f_prev = x_next, f_next
        if x > 1e6:
            raise ConvergenceError(f"zero scan ran away for order {order}")
    return zeros

