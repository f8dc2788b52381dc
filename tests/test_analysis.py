"""Tendency analysis tests.

Reference derivatives are the analytic ones of the closed forms, e.g. for
the Coulomb case E = -1/(4 N^2), N = n + q + |k+mu0| + 1 (reduced units):
dE/dn = 1/(2 N^3), d2E/dn2 = -3/(2 N^4); for the oscillator with coupling
1 (omega = 2): dE/dn = 4; for the linear case dE/dn = pi ((3pi/2) U)^(-1/3).
"""

import math
import random
import sys

import pytest

from abwkb import (
    InfiniteWell,
    PowerLaw,
    build_tendency_report,
    spectral_derivative,
)
from abwkb.closed_form import closed_form_energy

# the curvature words the tendency report prints
BENDS_DOWN, LINEAR, BENDS_UP = "bends-down", "linear", "bends-up"

COULOMB = PowerLaw(-1.0, -1.0)
LINEAR_POT = PowerLaw(1.0, 1.0)
OSC = PowerLaw(1.0, 2.0)
WELL = InfiniteWell(1.0)


class TestSpectralDerivative:
    def test_oscillator_slopes(self):
        # 2 hbar omega with omega = 2, i.e. 4 in reduced units
        d1 = spectral_derivative(OSC, 0.0, (1.0, 1.0, 0.5), "n", 1)
        assert d1 == pytest.approx(4.0, rel=1e-8, abs=0)
        d2 = spectral_derivative(OSC, 0.0, (1.0, 1.0, 0.5), "n", 2)
        assert abs(d2) < 1e-6

    def test_coulomb_ground_point(self):
        # N = 1 at the origin of quantum numbers: dE/dn = 1/2, d2E/dn2 = -3/2
        d1 = spectral_derivative(COULOMB, 0.0, (0.0, 0.0, 0.0), "n", 1)
        assert d1 == pytest.approx(0.5, rel=1e-6, abs=0)
        d2 = spectral_derivative(COULOMB, 0.0, (0.0, 0.0, 0.0), "n", 2)
        assert d2 == pytest.approx(-1.5, rel=1e-5, abs=0)

    def test_linear_case_formula(self):
        # dE/dn = pi ((3 pi/2) U)^(-1/3), U = n + (q + kmu)/2 + 3/4
        n, q, kmu = 2.0, 1.0, 0.5
        u = n + 0.5 * (q + kmu) + 0.75
        expected = math.pi * (1.5 * math.pi * u) ** (-1.0 / 3.0)
        d1 = spectral_derivative(LINEAR_POT, 0.0, (n, q, kmu), "n", 1)
        assert d1 == pytest.approx(expected, rel=1e-5, abs=0)
        expected2 = -(math.pi**2 / 2.0) * (1.5 * math.pi * u) ** (-4.0 / 3.0)
        d2 = spectral_derivative(LINEAR_POT, 0.0, (n, q, kmu), "n", 2)
        assert d2 == pytest.approx(expected2, rel=1e-4, abs=0)

    def test_well_curvature(self):
        # reduced units with a = 1: E = pi^2 (n + gamma/2 + 1)^2, so
        # d2E/dn2 = 2 pi^2
        d2 = spectral_derivative(WELL, 0.0, (1.0, 1.0, 0.5), "n", 2)
        assert d2 == pytest.approx(2.0 * math.pi**2, rel=1e-5, abs=0)
        assert d2 > 0.0

    def test_q_and_kmu_derivatives_match_coulomb(self):
        for which in ("q", "kmu"):
            d1 = spectral_derivative(COULOMB, 0.3, (1.0, 1.0, 1.0), which, 1)
            big_n = 1.0 + 1.0 + 1.3 + 1.0
            assert d1 == pytest.approx(0.5 / big_n**3, rel=1e-6, abs=0)

    def test_kmu_kink_rejected(self):
        with pytest.raises(ValueError):
            spectral_derivative(COULOMB, 0.0, (1.0, 1.0, 0.0), "kmu", 1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            spectral_derivative(COULOMB, 0.0, (1.0, 1.0, 1.0), "m", 1)
        with pytest.raises(ValueError):
            spectral_derivative(COULOMB, 0.0, (1.0, 1.0, 1.0), "n", 3)

    @pytest.mark.parametrize("pot", [COULOMB, PowerLaw(-1.0, -0.5), LINEAR_POT, OSC, PowerLaw(1.0, 4.0), WELL])
    def test_first_derivatives_positive(self, pot):
        for point in [(0.0, 0.0, 0.5), (1.0, 2.0, 1.5), (3.0, 0.0, 0.25)]:
            for which in ("n", "q", "kmu"):
                assert spectral_derivative(pot, 0.0, point, which, 1) > 0.0


class TestExactDerivatives:
    @pytest.mark.parametrize("pot", [COULOMB, PowerLaw(-1.0, -0.5), LINEAR_POT, OSC, PowerLaw(1.0, 4.0), WELL])
    @pytest.mark.parametrize("which", ["n", "q", "kmu"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_central_difference_of_closed_form(self, pot, which, order):
        h = 1e-4
        mu0 = 0.3
        for point in [(1.0, 1.0, 1.0), (0.5, 0.0, 0.2), (3.0, 2.0, -1.0)]:
            n, q, k = point
            g = q + abs(k + mu0)

            def e(d):
                if which == "n":
                    return closed_form_energy(pot, n + d, g)
                return closed_form_energy(pot, n, g + d)

            if order == 1:
                fd = (e(h) - e(-h)) / (2.0 * h)
            else:
                fd = (e(h) - 2.0 * e(0.0) + e(-h)) / (h * h)
            # the difference quotient carries rounding noise ~ eps |E| / h**order
            noise = 8.0 * sys.float_info.epsilon * abs(e(0.0)) / h**order
            exact = spectral_derivative(pot, mu0, point, which, order)
            assert exact == pytest.approx(fd, rel=1e-6, abs=noise)


def _sign(x):
    return (x > 0.0) - (x < 0.0)


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
                d2 = spectral_derivative(pot, 0.0, point, "n", 2)
                d1 = spectral_derivative(pot, 0.0, point, "n", 1)
                if cls == LINEAR:
                    assert abs(d2) <= 1e-6 * abs(d1)
                elif cls == BENDS_UP:
                    assert d2 > 0.0
                else:
                    assert d2 < 0.0


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
        for point in [(0.0, 1.0, 0.5), (2.0, 0.0, 1.25)]:
            dn = spectral_derivative(pot, 0.0, point, "n", 1)
            dq = spectral_derivative(pot, 0.0, point, "q", 1)
            dk = spectral_derivative(pot, 0.0, point, "kmu", 1)
            assert dn / dk == pytest.approx(rn_rk, abs=1e-6)
            assert dq / dk == pytest.approx(rq_rk, abs=1e-6)
            assert dn / dq == pytest.approx(rn_rk / rq_rk, abs=1e-6)

    def test_positive_branch_ratio_is_two_pointwise(self):
        # E depends on the single combination n + gamma/2 + 3/4, so the
        # finite-difference ratio is 2 at every point, not asymptotically
        for nu in (0.5, 1.0, 2.0, 4.0):
            pot = PowerLaw(1.0, nu)
            for point in [(0.0, 0.0, 0.5), (1.0, 3.0, 1.5), (5.0, 1.0, 0.3)]:
                dn = spectral_derivative(pot, 0.0, point, "n", 1)
                dq = spectral_derivative(pot, 0.0, point, "q", 1)
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
            low = spectral_derivative(pot, 0.0, (1.0, 1.0, 0.5), "n", 1)
            high = spectral_derivative(pot, 0.0, (1.0, 1.0, 12.0), "n", 1)
            if expect == "0":
                assert high == pytest.approx(low, rel=1e-9, abs=0)
            elif expect == "-":
                assert high < low
            else:
                assert high > low


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

    def test_report_matches_exact_derivatives(self):
        # seeded exponents over both branches, nu = 2 and the well, with
        # random couplings: the report, read off the closed-form record,
        # agrees with the exact derivatives at random points
        rng = random.Random(15)
        nus = [2.0, math.inf] + [rng.uniform(-1.95, -0.05) for _ in range(60)]
        nus += [rng.uniform(0.05, 2.0) for _ in range(40)] + [rng.uniform(2.0, 40.0) for _ in range(40)]
        sign_text = {1: "+", 0: "0", -1: "-"}
        curvature = {1: BENDS_UP, 0: LINEAR, -1: BENDS_DOWN}
        for nu in nus:
            coupling = rng.uniform(0.5, 2.0)
            pot = InfiniteWell(coupling) if nu == math.inf else PowerLaw(math.copysign(coupling, nu), nu)
            rep = build_tendency_report(pot)
            n, q = rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0)
            point = (n, q, rng.uniform(0.3, 2.0))
            d2 = spectral_derivative(pot, 0.0, point, "n", 2)
            assert rep.curvature == curvature[_sign(d2)], nu
            dn = spectral_derivative(pot, 0.0, point, "n", 1)
            dk = spectral_derivative(pot, 0.0, point, "kmu", 1)
            assert rep.ratios[0] == pytest.approx(dn / dk, rel=1e-12, abs=0), nu
            low = spectral_derivative(pot, 0.0, (n, q, 0.5), "n", 1)
            high = spectral_derivative(pot, 0.0, (n, q, 12.0), "n", 1)
            assert rep.flux_slope_sign == sign_text[_sign(high - low)], nu
