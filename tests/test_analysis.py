"""Tendency analysis tests.

Pinned derivatives are read off the closed-form record E = s (K x)**p,
x = n + a gamma + b (closed_form.LevelCoefficients), e.g. for the Coulomb
case E = -1/(4 N^2), N = n + q + |k+mu0| + 1 (reduced units):
dE/dn = 1/(2 N^3), d2E/dn2 = -3/(2 N^4); for the oscillator with coupling
1 (omega = 2): dE/dn = 4; for the linear case dE/dn = pi ((3pi/2) U)^(-1/3).
The tendency report is checked against central differences of the levels
themselves (closed_form_energy), never against that record.
"""

import math
import random
import sys

import pytest

from abwkb import (
    InfiniteWell,
    PowerLaw,
    build_tendency_report,
)
from abwkb.closed_form import closed_form_energy, level_coefficients

# the curvature words the tendency report prints
BENDS_DOWN, LINEAR, BENDS_UP = "bends-down", "linear", "bends-up"

COULOMB = PowerLaw(-1.0, -1.0)
LINEAR_POT = PowerLaw(1.0, 1.0)
OSC = PowerLaw(1.0, 2.0)
WELL = InfiniteWell(1.0)


def record_derivative(pot, point, which, order=1, mu0=0.0):
    """First or second derivative of E = s (K x)**p in n, q or kmu = |k + mu0|
    at point = (n, q, k), from the record's fields: dx/dn = 1 and
    dx/dq = dx/dkmu = a."""
    n, q, k = point
    c = level_coefficients(pot)
    kx = c.factor * c.level_index(n, q + abs(k + mu0))
    dx = 1.0 if which == "n" else c.slope
    if order == 1:
        return c.scale * c.power * c.factor * kx ** (c.power - 1.0) * dx
    return c.scale * c.power * (c.power - 1.0) * (c.factor * dx) ** 2 * kx ** (c.power - 2.0)


def level_difference(pot, point, which, order=1, mu0=0.0):
    """Central difference of closed_form_energy in n, q or kmu at
    point = (n, q, k), and the rounding noise eps |E| / h**order it carries.
    q and kmu enter a level only through gamma = q + kmu."""
    n, q, k = point
    g = q + abs(k + mu0)
    h = 1e-5 if order == 1 else 1e-3

    def e(d):
        if which == "n":
            return closed_form_energy(pot, n + d, g)
        return closed_form_energy(pot, n, g + d)

    if order == 1:
        value = (e(h) - e(-h)) / (2.0 * h)
    else:
        value = (e(h) - 2.0 * e(0.0) + e(-h)) / (h * h)
    return value, 8.0 * sys.float_info.epsilon * abs(e(0.0)) / h**order


def _sign(x):
    return (x > 0.0) - (x < 0.0)


def measured_sign(value, noise):
    """Sign of a difference quotient, 0 where rounding noise can flip it."""
    return 0 if abs(value) <= noise else _sign(value)


SIGN_TEXT = {1: "+", 0: "0", -1: "-"}
CURVATURE = {1: BENDS_UP, 0: LINEAR, -1: BENDS_DOWN}


class TestSpectralDerivative:
    """Exact derivatives of the spectrum, read off its closed-form record."""

    def test_oscillator_slopes(self):
        # 2 hbar omega with omega = 2, i.e. 4 in reduced units: the record is
        # E = 4 (n + gamma/2 + 3/4), so every step in n raises a level by 4
        c = level_coefficients(OSC)
        assert (c.scale, c.slope, c.offset, c.power) == (1.0, 0.5, 0.75, 1.0)
        assert c.factor == pytest.approx(4.0, rel=1e-14, abs=0)
        for n in range(5):
            step = closed_form_energy(OSC, n + 1, 1.5) - closed_form_energy(OSC, n, 1.5)
            assert step == pytest.approx(4.0, rel=1e-13, abs=0)
        assert record_derivative(OSC, (1.0, 1.0, 0.5), "n", 2) == 0.0

    def test_coulomb_ground_point(self):
        # E = -(2 (n + gamma + 1))**-2, so N = 1 at the origin of quantum
        # numbers: dE/dn = 1/2, d2E/dn2 = -3/2
        c = level_coefficients(COULOMB)
        assert (c.scale, c.slope, c.offset, c.power) == (-1.0, 1.0, 1.0, -2.0)
        assert c.factor == pytest.approx(2.0, rel=1e-14, abs=0)
        d1 = record_derivative(COULOMB, (0.0, 0.0, 0.0), "n", 1)
        assert d1 == pytest.approx(0.5, rel=1e-13, abs=0)
        d2 = record_derivative(COULOMB, (0.0, 0.0, 0.0), "n", 2)
        assert d2 == pytest.approx(-1.5, rel=1e-13, abs=0)

    def test_linear_case_formula(self):
        # dE/dn = pi ((3 pi/2) U)^(-1/3), U = n + (q + kmu)/2 + 3/4
        n, q, kmu = 2.0, 1.0, 0.5
        u = n + 0.5 * (q + kmu) + 0.75
        expected = math.pi * (1.5 * math.pi * u) ** (-1.0 / 3.0)
        d1 = record_derivative(LINEAR_POT, (n, q, kmu), "n", 1)
        assert d1 == pytest.approx(expected, rel=1e-13, abs=0)
        expected2 = -(math.pi**2 / 2.0) * (1.5 * math.pi * u) ** (-4.0 / 3.0)
        d2 = record_derivative(LINEAR_POT, (n, q, kmu), "n", 2)
        assert d2 == pytest.approx(expected2, rel=1e-13, abs=0)

    def test_well_curvature(self):
        # reduced units with a = 1: E = pi^2 (n + gamma/2 + 1)^2, so
        # d2E/dn2 = 2 pi^2, which is also the second difference of the levels
        d2 = record_derivative(WELL, (1.0, 1.0, 0.5), "n", 2)
        assert d2 == pytest.approx(2.0 * math.pi**2, rel=1e-14, abs=0)
        levels = [closed_form_energy(WELL, n, 1.5) for n in range(3)]
        assert levels[2] - 2.0 * levels[1] + levels[0] == pytest.approx(2.0 * math.pi**2, rel=1e-12, abs=0)

    def test_q_and_kmu_derivatives_match_coulomb(self):
        for which in ("q", "kmu"):
            d1 = record_derivative(COULOMB, (1.0, 1.0, 1.0), which, 1, mu0=0.3)
            big_n = 1.0 + 1.0 + 1.3 + 1.0
            assert d1 == pytest.approx(0.5 / big_n**3, rel=1e-13, abs=0)

    @pytest.mark.parametrize("pot", [COULOMB, PowerLaw(-1.0, -0.5), LINEAR_POT, OSC, PowerLaw(1.0, 4.0), WELL])
    def test_first_derivatives_positive(self, pot):
        for point in [(0.0, 0.0, 0.5), (1.0, 2.0, 1.5), (3.0, 0.0, 0.25)]:
            for which in ("n", "q", "kmu"):
                assert record_derivative(pot, point, which, 1) > 0.0


class TestExactDerivatives:
    @pytest.mark.parametrize("pot", [COULOMB, PowerLaw(-1.0, -0.5), LINEAR_POT, OSC, PowerLaw(1.0, 4.0), WELL])
    @pytest.mark.parametrize("which", ["n", "q", "kmu"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_central_difference_of_closed_form(self, pot, which, order):
        # the record's fields are the derivatives of the levels it gives
        mu0 = 0.3
        for point in [(1.0, 1.0, 1.0), (0.5, 0.0, 0.2), (3.0, 2.0, -1.0)]:
            fd, noise = level_difference(pot, point, which, order, mu0)
            exact = record_derivative(pot, point, which, order, mu0)
            assert exact == pytest.approx(fd, rel=1e-6, abs=noise)


class TestTendencyClassify:
    def test_named_cases(self):
        assert build_tendency_report(OSC).curvature == LINEAR
        assert build_tendency_report(COULOMB).curvature == BENDS_DOWN
        assert build_tendency_report(LINEAR_POT).curvature == BENDS_DOWN
        assert build_tendency_report(PowerLaw(1.0, 4.0)).curvature == BENDS_UP
        assert build_tendency_report(WELL).curvature == BENDS_UP

    def test_domain(self):
        # no report can be built outside (-2, 0) u (0, inf]: the potential
        # type refuses the exponent
        for lam, nu in ((1.0, 0.0), (-1.0, -2.0), (-1.0, -3.0), (-1.0, -2.5)):
            with pytest.raises(ValueError):
                build_tendency_report(PowerLaw(lam, nu))

    def test_classification_matches_measured_curvature(self):
        rng = random.Random(7)
        for nu in (-1.0, -0.5, 1.0, 2.0, 3.0, 6.0, math.inf):
            pot = InfiniteWell(1.0) if nu == math.inf else PowerLaw(-1.0 if nu < 0 else 1.0, nu)
            cls = build_tendency_report(pot).curvature
            for _ in range(5):
                point = (rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.3, 2.0))
                d2, noise = level_difference(pot, point, "n", 2)
                assert CURVATURE[measured_sign(d2, noise)] == cls, (nu, point)


class TestDerivativeRatios:
    """The report's ratios are (dE/dn : dE/dkmu, dE/dq : dE/dkmu, 1)."""

    def test_named_cases(self):
        assert build_tendency_report(OSC).ratios == (2.0, 1.0, 1.0)
        assert build_tendency_report(COULOMB).ratios == (1.0, 1.0, 1.0)
        assert build_tendency_report(PowerLaw(-1.0, -0.5)).ratios == (1.5, 1.0, 1.0)

    def test_domain(self):
        # up to both ends of the domain the ratio is the paper's rule:
        # nu + 2 on the tail branch, 2 on the confined branch and the well
        for nu in (-2.0 + 2e-6, -1.5, -2e-6):
            assert build_tendency_report(PowerLaw(-1.0, nu)).ratios == (nu + 2.0, 1.0, 1.0)
        for pot in (PowerLaw(1.0, 2e-6), PowerLaw(1.0, 1e6), WELL):
            assert build_tendency_report(pot).ratios == (2.0, 1.0, 1.0)

    @pytest.mark.parametrize("nu", [-1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0])
    def test_ratios_match_finite_differences(self, nu):
        pot = PowerLaw(-1.0 if nu < 0 else 1.0, nu)
        rn_rk, rq_rk, one = build_tendency_report(pot).ratios
        assert one == 1.0
        # n stays clear of 0, below which a central difference in n has no level
        for point in [(0.5, 1.0, 0.5), (2.0, 0.0, 1.25)]:
            dn, _ = level_difference(pot, point, "n")
            dq, _ = level_difference(pot, point, "q")
            dk, _ = level_difference(pot, point, "kmu")
            assert dn / dk == pytest.approx(rn_rk, abs=1e-6)
            assert dq / dk == pytest.approx(rq_rk, abs=1e-6)
            assert dn / dq == pytest.approx(rn_rk / rq_rk, abs=1e-6)

    def test_positive_branch_ratio_is_two_pointwise(self):
        # E depends on the single combination n + gamma/2 + 3/4, so the
        # finite-difference ratio is 2 at every point, not asymptotically
        for nu in (0.5, 1.0, 2.0, 4.0):
            pot = PowerLaw(1.0, nu)
            for point in [(0.5, 0.0, 0.5), (1.0, 3.0, 1.5), (5.0, 1.0, 0.3)]:
                dn, _ = level_difference(pot, point, "n")
                dq, _ = level_difference(pot, point, "q")
                assert dn / dq == pytest.approx(2.0, abs=1e-8)


class TestFluxSlope:
    def test_signs(self):
        assert build_tendency_report(COULOMB).flux_slope_sign == "-"
        assert build_tendency_report(LINEAR_POT).flux_slope_sign == "-"
        assert build_tendency_report(OSC).flux_slope_sign == "0"
        assert build_tendency_report(PowerLaw(1.0, 4.0)).flux_slope_sign == "+"
        assert build_tendency_report(WELL).flux_slope_sign == "+"

    def test_slope_change_between_low_and_high_flux_grids(self):
        # cranking |k+mu0| from 0.5 to 12 must depress the n-slope below
        # nu = 2, leave it untouched at nu = 2 and steepen it beyond
        for pot, expect in ((COULOMB, "-"), (LINEAR_POT, "-"), (OSC, "0"), (WELL, "+")):
            assert build_tendency_report(pot).flux_slope_sign == expect
            low, noise_low = level_difference(pot, (1.0, 1.0, 0.5), "n")
            high, noise_high = level_difference(pot, (1.0, 1.0, 12.0), "n")
            assert SIGN_TEXT[measured_sign(high - low, noise_low + noise_high)] == expect


class TestTendencyReport:
    def test_oscillator_report(self):
        rep = build_tendency_report(OSC)
        assert rep.curvature == LINEAR
        assert rep.first_derivative_signs == ("+", "+", "+")
        assert rep.ratios[0] == pytest.approx(2.0, abs=1e-8)
        assert rep.ratios[1] == pytest.approx(1.0, abs=1e-8)
        assert rep.flux_slope_sign == "0"

    def test_coulomb_report(self):
        rep = build_tendency_report(COULOMB)
        assert rep.curvature == BENDS_DOWN
        assert rep.flux_slope_sign == "-"

    @pytest.mark.parametrize("nu", [-1.985, -1.99])
    def test_exact_ratios_near_minus_two(self, nu):
        rep = build_tendency_report(PowerLaw(-0.7, nu))
        assert rep.ratios == (nu + 2.0, 1.0, 1.0)
        assert rep.curvature == BENDS_DOWN
        assert rep.first_derivative_signs == ("+", "+", "+")
        assert rep.flux_slope_sign == "-"

    def test_well_report(self):
        rep = build_tendency_report(WELL)
        assert rep.curvature == BENDS_UP
        assert rep.flux_slope_sign == "+"

    def test_report_matches_level_differences(self):
        # seeded exponents over both branches, nu = 2 and the well, with
        # random couplings: the report, read off the closed-form record,
        # agrees with central differences of the levels at random points
        rng = random.Random(15)
        nus = [2.0, math.inf] + [rng.uniform(-1.95, -0.05) for _ in range(60)]
        nus += [rng.uniform(0.05, 2.0) for _ in range(40)] + [rng.uniform(2.0, 40.0) for _ in range(40)]
        for nu in nus:
            coupling = rng.uniform(0.5, 2.0)
            pot = InfiniteWell(coupling) if nu == math.inf else PowerLaw(math.copysign(coupling, nu), nu)
            rep = build_tendency_report(pot)
            n, q = rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0)
            point = (n, q, rng.uniform(0.3, 2.0))
            d2, noise = level_difference(pot, point, "n", 2)
            assert rep.curvature == CURVATURE[measured_sign(d2, noise)], nu
            dn, _ = level_difference(pot, point, "n")
            dk, _ = level_difference(pot, point, "kmu")
            assert rep.ratios[0] == pytest.approx(dn / dk, rel=1e-6, abs=0), nu
            low, noise_low = level_difference(pot, (n, q, 0.5), "n")
            high, noise_high = level_difference(pot, (n, q, 12.0), "n")
            assert rep.flux_slope_sign == SIGN_TEXT[measured_sign(high - low, noise_low + noise_high)], nu
