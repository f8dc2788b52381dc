"""Action integral and quantization tests.

The analytic spot values come from elementary integrals:
  integral_0^4 sqrt(1/r - 1/4) dr = pi          (Coulomb-like, E = -1/4)
  integral_0^sqrt(3) sqrt(3 - r^2) dr = 3 pi/4  (quarter circle)
  integral_0^E sqrt(E - r) dr = (2/3) E^(3/2)   (linear potential)
"""

import math
import re

import pytest

from abwkb import (
    ConvergenceError,
    InfiniteWell,
    PowerLaw,
    QuantizationSetup,
    action_integral_closed,
    action_integral_numeric,
    closed_form_energy,
    quantize_energy,
    turning_point,
)
from abwkb import _kernels
from abwkb import action as action_mod
from abwkb import closed_form as closed_form_mod

E_GRID = [-0.002 * i * 1.3**i / 20.0 for i in range(1, 21)]


class TestTurningPoint:
    def test_examples(self):
        assert turning_point(-0.25, PowerLaw(-1.0, -1.0)) == pytest.approx(4.0, rel=1e-14, abs=0)
        assert turning_point(9.0, PowerLaw(1.0, 2.0)) == pytest.approx(3.0, rel=1e-14, abs=0)
        assert turning_point(2.32, PowerLaw(1.0, 1.0)) == pytest.approx(2.32, rel=1e-14, abs=0)
        assert turning_point(5.0, InfiniteWell(2.0)) == 2.0

    def test_potential_value_at_turning_point(self):
        for pot in (PowerLaw(-1.0, -1.5), PowerLaw(1.0, 0.5)):
            e = -0.3 if pot.lam < 0 else 0.7
            rc = turning_point(e, pot)
            assert pot.lam * rc**pot.nu == pytest.approx(e, rel=1e-12, abs=0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            turning_point(0.5, PowerLaw(-1.0, -1.0))
        with pytest.raises(ValueError):
            turning_point(-0.5, PowerLaw(1.0, 2.0))
        with pytest.raises(ValueError):
            turning_point(-1.0, InfiniteWell(1.0))

    @pytest.mark.parametrize("pot", [PowerLaw(-1.0, -1.0), PowerLaw(1.0, 2.0), InfiniteWell(1.0)])
    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy(self, pot, e):
        with pytest.raises(ValueError, match="energy must be finite"):
            turning_point(e, pot)

    @pytest.mark.parametrize(
        "e,pot,what",
        [
            # (1.5e65)**(-843) is 0
            (-22.03611651852593, PowerLaw(-1.4448136191454214e-64, -0.0011859150628629645), "underflows"),
            # E/lam = 2.4e-423 is 0, and 0.0 ** (1/nu < 0) raises ZeroDivisionError
            (-2.7437620081659626e-165, PowerLaw(-1.160724266423313e258, -1.9999614336821794), "overflows"),
        ],
        ids=["zero", "zero-ratio"],
    )
    def test_out_of_range_turning_point_is_named(self, e, pot, what):
        at = f"at E={e}, lam={pot.lam}, nu={pot.nu}"
        for f in (turning_point, action_integral_numeric, action_integral_closed):
            with pytest.raises(ValueError, match=rf"turning point \(E/lam\)\*\*\(1/nu\) {what} {re.escape(at)}"):
                f(e, pot)


class TestNumericAction:
    def test_coulomb_spot_value(self):
        got = action_integral_numeric(-0.25, PowerLaw(-1.0, -1.0))
        assert abs(got - math.pi) <= 1e-10

    def test_quarter_circle(self):
        got = action_integral_numeric(3.0, PowerLaw(1.0, 2.0))
        assert got == pytest.approx(0.75 * math.pi, abs=1e-12)

    def test_linear(self):
        e = 2.3202507947101036
        got = action_integral_numeric(e, PowerLaw(1.0, 1.0))
        assert got == pytest.approx(2.0 / 3.0 * e**1.5, abs=1e-12)

    def test_well_is_sqrt_e_times_radius(self):
        for a in (0.5, 1.0, 3.0):
            for e in (1.0, 7.3):
                got = action_integral_numeric(e, InfiniteWell(a))
                assert got == pytest.approx(math.sqrt(e) * a, rel=1e-12, abs=0)

    def test_monotone_in_energy(self):
        for pot in (PowerLaw(-1.0, -1.3), PowerLaw(1.0, 1.7)):
            if pot.lam < 0:
                energies = sorted(E_GRID)
            else:
                energies = [0.1 * 1.5**i for i in range(12)]
            vals = [action_integral_numeric(e, pot) for e in energies]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("pot, e", [(PowerLaw(-1.0, -1.0), -math.inf), (PowerLaw(1.0, 2.0), math.inf)])
    def test_non_finite_energy(self, pot, e):
        # a domain error, not a quadrature that "did not converge"
        with pytest.raises(ValueError, match="energy must be finite"):
            action_integral_numeric(e, pot)

    def test_unconverged_quadrature_raises(self, monkeypatch):
        # successive levels differ by h/2 relative, at every mesh
        monkeypatch.setattr(_kernels, "action_sum", lambda E, lam, nu, rc, h, kmax: 1.0 + h)
        with pytest.raises(ConvergenceError, match="mesh levels"):
            action_integral_numeric(-0.25, PowerLaw(-1.0, -1.0))


class TestActionScaling:
    """S(t E) = t**alpha S(E), alpha = 1/nu + 1/2 (1/2 for the well): the
    law quantize_energy inverts in place of a root search."""

    @pytest.mark.parametrize(
        "pot, e, alpha",
        [
            (PowerLaw(-1.0, -1.3), -0.07, 1.0 / -1.3 + 0.5),
            (PowerLaw(-2.0, -1.95), -0.3, 1.0 / -1.95 + 0.5),
            (PowerLaw(1.0, 1.7), 2.2, 1.0 / 1.7 + 0.5),
            (PowerLaw(0.5, 12.0), 5.0, 1.0 / 12.0 + 0.5),
            (InfiniteWell(2.0), 7.3, 0.5),
        ],
    )
    @pytest.mark.parametrize("t", [0.01, 0.5, 3.0, 100.0])
    def test_power_law_in_energy(self, pot, e, alpha, t):
        base = action_integral_numeric(e, pot)
        scaled = action_integral_numeric(t * e, pot)
        assert abs(scaled - t**alpha * base) <= 1e-14 * abs(scaled)


class TestClosedAction:
    def test_coulomb_values(self):
        assert action_integral_closed(-0.25, PowerLaw(-1.0, -1.0)) == pytest.approx(math.pi, rel=1e-15, abs=0)
        assert action_integral_closed(-0.04, PowerLaw(-1.0, -1.0)) == pytest.approx(2.5 * math.pi, rel=1e-15, abs=0)

    def test_quarter_circle_and_well(self):
        assert action_integral_closed(3.0, PowerLaw(1.0, 2.0)) == pytest.approx(0.75 * math.pi, rel=1e-15, abs=0)
        for a in (0.5, 2.0):
            assert action_integral_closed(7.3, InfiniteWell(a)) == pytest.approx(a * math.sqrt(7.3), rel=1e-15, abs=0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            action_integral_closed(0.25, PowerLaw(-1.0, -1.0))
        with pytest.raises(ValueError):
            action_integral_closed(-3.0, PowerLaw(1.0, 2.0))
        with pytest.raises(ValueError):
            action_integral_closed(-1.0, InfiniteWell(1.0))

    @pytest.mark.parametrize("nu", [-1.9999, -1.999, -1.99, -1.95, -1.5, -1.0, -0.5, -0.05])
    def test_matches_quadrature(self, nu):
        for lam in (-0.5, -1.0, -3.0):
            pot = PowerLaw(lam, nu)
            for e in E_GRID:
                num = action_integral_numeric(e, pot)
                clo = action_integral_closed(e, pot)
                assert abs(num - clo) <= 1e-14 * abs(clo), (lam, e)

    @pytest.mark.parametrize(
        "pot", [PowerLaw(1.0, nu) for nu in (0.5, 1.0, 2.0, 6.0, 30.0, 1000.0)] + [PowerLaw(3.0, 2.0), InfiniteWell(1.7)]
    )
    def test_matches_quadrature_positive_branch(self, pot):
        for e in [0.1 * 1.5**i for i in range(12)]:
            num = action_integral_numeric(e, pot)
            clo = action_integral_closed(e, pot)
            assert abs(num - clo) <= 1e-14 * abs(clo), e

    @pytest.mark.parametrize(
        "e,pot,what",
        # rc = E/lam is normal, rc sqrt(E) is not
        [(1e-300, PowerLaw(1e-100, 1.0), "underflows"), (1e300, PowerLaw(1e100, 1.0), "overflows")],
        ids=["underflow", "overflow"],
    )
    def test_out_of_range_action_is_named(self, e, pot, what):
        for f in (action_integral_numeric, action_integral_closed):
            with pytest.raises(ValueError, match=re.escape(f"action at E={e} {what} for {pot}")):
                f(e, pot)


class TestQuantizationConstant:
    def test_paper_defaults(self):
        assert QuantizationSetup(PowerLaw(-1.0, -1.0), 0.0).constant == pytest.approx(1.0)
        assert QuantizationSetup(PowerLaw(-1.0, -1.0), 1.5).constant == pytest.approx(2.5)
        assert QuantizationSetup(PowerLaw(1.0, 2.0), 0.0).constant == pytest.approx(0.75)
        assert QuantizationSetup(PowerLaw(1.0, 7.0), 3.0).constant == pytest.approx(1.5 + 0.75)
        assert QuantizationSetup(InfiniteWell(1.0), 2.5).constant == pytest.approx(2.25)


class TestQuantizeEnergy:
    def test_oscillator(self):
        setup = QuantizationSetup(PowerLaw(1.0, 2.0), 0.0)
        assert quantize_energy(setup, 0) == pytest.approx(3.0, abs=1e-8)

    def test_coulomb_fractional_gamma(self):
        setup = QuantizationSetup(PowerLaw(-1.0, -1.0), 1.5)
        assert quantize_energy(setup, 0) == pytest.approx(-0.04, abs=1e-8)

    def test_linear(self):
        setup = QuantizationSetup(PowerLaw(1.0, 1.0), 0.0)
        assert quantize_energy(setup, 0) == pytest.approx(2.3202507947, abs=1e-6)

    @pytest.mark.parametrize("nu", [-1.99, -1.95, -1.5, -1.0, -0.5, 1.0, 2.0, 4.0])
    def test_round_trip_against_closed_forms(self, nu):
        lam = -1.0 if nu < 0 else 1.0
        pot = PowerLaw(lam, nu)
        for gamma in (0.0, 0.5, 2.5):
            setup = QuantizationSetup(pot, gamma)
            for n in (0, 2, 5):
                expected = closed_form_energy(pot, n, gamma)
                got = quantize_energy(setup, n)
                assert abs(got - expected) <= 1e-8 * abs(expected), (nu, gamma, n)

    @pytest.mark.parametrize("lam,gamma", [(-30.0, 4.0), (-10.0, 3.5)])
    def test_level_whose_closed_form_power_leaves_the_range(self, lam, gamma):
        # (factor x)**power is 0 or subnormal here; the closed-form seed is
        # formed in logarithms, and the quantized level meets it
        pot = PowerLaw(lam, -1.99)
        expected = closed_form_energy(pot, 0, gamma)
        got = quantize_energy(QuantizationSetup(pot, gamma), 0)
        assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_well_levels_exact(self):
        for a in (1.0, 2.0):
            for gamma in (0.0, 2.5):
                setup = QuantizationSetup(InfiniteWell(a), gamma)
                for n in (0, 1, 3):
                    expected = ((n + 0.5 * gamma + 1.0) * math.pi / a) ** 2
                    assert quantize_energy(setup, n) == pytest.approx(expected, rel=1e-9, abs=0)

    @pytest.mark.parametrize("pot", [PowerLaw(-1.0, -1.5), PowerLaw(1.0, 3.0), InfiniteWell(1.5)])
    def test_one_quadrature_per_level(self, pot, monkeypatch):
        calls = []

        def counted(E, potential):
            calls.append(E)
            return action_integral_numeric(E, potential)

        monkeypatch.setattr(action_mod, "action_integral_numeric", counted)
        setup = QuantizationSetup(pot, 0.5)
        for n in (0, 1, 4):
            quantize_energy(setup, n)
        assert len(calls) == 3

    @pytest.mark.parametrize("pot", [PowerLaw(-1.0, -1.95), PowerLaw(-1.0, -0.5), PowerLaw(1.0, 1.0), InfiniteWell(1.0)])
    @pytest.mark.parametrize("factor", [0.6, 1.3])
    def test_seed_sets_only_the_scale(self, pot, factor, monkeypatch):
        setup = QuantizationSetup(pot, 1.5)
        levels = [quantize_energy(setup, n) for n in (0, 3)]
        seed = closed_form_mod.closed_form_energy
        monkeypatch.setattr(
            closed_form_mod, "closed_form_energy", lambda p, n, g: factor * seed(p, n, g)
        )
        for n, level in zip((0, 3), levels):
            assert abs(quantize_energy(setup, n) - level) <= 1e-12 * abs(level), (n, factor)

    def test_bad_inputs(self):
        setup = QuantizationSetup(PowerLaw(1.0, 2.0), 0.0)
        with pytest.raises(ValueError):
            quantize_energy(setup, -1)
        with pytest.raises(ValueError):
            QuantizationSetup(PowerLaw(1.0, 2.0), -0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            QuantizationSetup(PowerLaw(1.0, 2.0), gamma)
