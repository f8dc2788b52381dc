"""Closed-form spectrum tests.

Cross-checks: the nu = -1 formula against the Coulomb spectrum, nu = 2
against the oscillator ladder, the duality route between the two
branches, and flux periodicity.
"""

import math
import random
import sys

import pytest

from abwkb import (
    InfiniteWell,
    PowerLaw,
    duality_map,
    effective_gamma,
    spectrum_table,
    unit_scale,
)
from abwkb.closed_form import closed_form_energy, level_coefficients
from reference_levels import energy_coulomb, energy_oscillator

MU0_GRID = (0.0, 0.3, 0.5, 1.7)


class TestNegativePower:
    def test_coulomb_ground_state(self):
        assert closed_form_energy(PowerLaw(-1.0, -1.0), 0, 0.0) == pytest.approx(-0.25, rel=1e-12, abs=0)

    def test_coulomb_fractional_gamma(self):
        assert closed_form_energy(PowerLaw(-1.0, -1.0), 0, 1.5) == pytest.approx(-0.04, rel=1e-12, abs=0)

    def test_nu_minus_half(self):
        # formula evaluates to -(10/3)^(-2/3) = -0.4481404746557166 here
        e = closed_form_energy(PowerLaw(-1.0, -0.5), 0, 0.0)
        assert e == pytest.approx(-0.4481, abs=1e-3)
        assert e == pytest.approx(-((10.0 / 3.0) ** (-2.0 / 3.0)), rel=1e-12, abs=0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            closed_form_energy(PowerLaw(1.0, -1.0), 0, 0.0)
        with pytest.raises(ValueError):
            closed_form_energy(PowerLaw(-1.0, 1.0), 0, 0.0)
        with pytest.raises(ValueError):
            closed_form_energy(PowerLaw(-1.0, -1.0), -1, 0.0)

    def test_coulomb_coincidence_grid(self):
        for n in range(6):
            for q in range(6):
                for k in range(-3, 4):
                    for mu0 in MU0_GRID:
                        gamma = effective_gamma(q, k, mu0)
                        lhs = closed_form_energy(PowerLaw(-1.0, -1.0), n, gamma)
                        rhs = energy_coulomb(n, q, k, mu0)
                        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestPositivePower:
    def test_oscillator_ground_state(self):
        assert closed_form_energy(PowerLaw(1.0, 2.0), 0, 0.0) == pytest.approx(3.0, rel=1e-12, abs=0)

    def test_linear_ground_state(self):
        expected = (1.5 * math.pi * 0.75) ** (2.0 / 3.0)  # 2.3202507947101
        assert closed_form_energy(PowerLaw(1.0, 1.0), 0, 0.0) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_oscillator_ladder(self):
        # lam = 1 means omega = 2: reduced level is 2(2n + gamma + 3/2)
        assert closed_form_energy(PowerLaw(1.0, 2.0), 1, 3.5) == pytest.approx(14.0, rel=1e-12, abs=0)

    def test_oscillator_identity_any_omega(self):
        for omega in (0.5, 1.0, 2.0, 3.7):
            lam = 0.25 * omega * omega
            for n in range(4):
                for gamma in (0.0, 0.5, 2.5):
                    assert closed_form_energy(PowerLaw(lam, 2.0), n, gamma) == pytest.approx(
                        energy_oscillator(n, gamma) * omega, rel=1e-12
                    , abs=0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            closed_form_energy(PowerLaw(-1.0, 2.0), 0, 0.0)
        with pytest.raises(ValueError):
            closed_form_energy(PowerLaw(1.0, -2.5), 0, 0.0)


class TestSpecialCases:
    def test_coulomb_values(self):
        u = unit_scale("fig2a", PowerLaw(-1.0, -1.0))
        assert energy_coulomb(0, 0, 0, 0.0) * u.factor == pytest.approx(-1.0, rel=1e-12, abs=0)
        assert energy_coulomb(0, 0, 0, 0.5) * u.factor == pytest.approx(-4.0 / 9.0, rel=1e-12, abs=0)

    def test_coulomb_integer_flux_matches_hydrogen(self):
        hydrogen = {round(energy_coulomb(n, q, k, 0.0), 15) for n in range(4) for q in range(4) for k in range(-4, 5)}
        for mu0 in (1.0, 2.0):
            for n in range(3):
                for q in range(3):
                    for k in range(-2, 3):
                        assert round(energy_coulomb(n, q, k, mu0), 15) in hydrogen

    def test_oscillator(self):
        assert energy_oscillator(0, 0.0) == 1.5
        assert energy_oscillator(2, 0.5) == 6.0

    def test_well(self):
        assert closed_form_energy(InfiniteWell(1.0), 0, 2.5) / math.pi**2 == pytest.approx(5.0625)
        assert closed_form_energy(InfiniteWell(1.0), 0, 0.0) / math.pi**2 == pytest.approx(1.0)
        assert closed_form_energy(InfiniteWell(1.0), 3, 0.0) / math.pi**2 == pytest.approx(16.0)

    def test_well_errors(self):
        with pytest.raises(ValueError):
            closed_form_energy(InfiniteWell(0.0), 0, 0.0)
        with pytest.raises(ValueError):
            closed_form_energy(InfiniteWell(1.0), -1, 0.0)


class TestDualityClosure:
    def test_positive_branch_recovered_from_negative(self):
        # feed the dual parameters back into the negative-power formula;
        # it must return the dual energy E' = -lam (nu'/nu)^2
        for nu in (1.0, 2.0, 3.0, 4.0):
            for n in range(4):
                for gamma in (0.0, 0.5, 2.5):
                    for lam in (0.5, 1.0, 2.0):
                        E = closed_form_energy(PowerLaw(lam, nu), n, gamma)
                        nu_p, E_p, lam_p, gamma_p = duality_map(nu, E, lam, gamma)
                        back = closed_form_energy(PowerLaw(lam_p, nu_p), n, gamma_p)
                        assert abs(back - E_p) <= 1e-10 * abs(E_p), (nu, n, gamma, lam)


class TestMonotonicity:
    @pytest.mark.parametrize("nu,lam", [(-1.5, -1.0), (-1.0, -1.0), (-0.5, -1.0), (1.0, 1.0), (2.0, 1.0), (4.0, 1.0)])
    def test_first_differences_positive(self, nu, lam):
        pot = PowerLaw(lam, nu)
        mu0 = 0.3
        for q in range(3):
            for k in range(-2, 3):
                g = effective_gamma(q, k, mu0)
                energies = [closed_form_energy(pot, n, g) for n in range(6)]
                assert all(b > a for a, b in zip(energies, energies[1:]))
        # increasing q and increasing |k+mu0| raise every level
        for n in range(3):
            eq = [closed_form_energy(pot, n, effective_gamma(q, 0, mu0)) for q in range(5)]
            assert all(b > a for a, b in zip(eq, eq[1:]))
            ek = [closed_form_energy(pot, n, effective_gamma(0, k, mu0)) for k in range(0, 5)]
            assert all(b > a for a, b in zip(ek, ek[1:]))


class TestFluxPeriodicity:
    def test_exact_invariance(self):
        # dyadic mu0 keeps the flux shift exact in floating point
        for pot in (PowerLaw(-1.0, -1.0), PowerLaw(1.0, 2.0), PowerLaw(1.0, 0.7), InfiniteWell(1.0)):
            for mu0 in (0.0, 0.25, 0.5, 1.75):
                for n in range(3):
                    for q in range(3):
                        for k in range(-3, 4):
                            a = closed_form_energy(pot, n, effective_gamma(q, k, mu0))
                            b = closed_form_energy(pot, n, effective_gamma(q, k - 1, mu0 + 1.0))
                            assert a == b

    def test_invariance_non_dyadic(self):
        # mu0 + 1.0 rounds for these, so exactness holds only to the ulp level
        pot = PowerLaw(-1.0, -1.0)
        for mu0 in (0.3, 1.7):
            for n in range(3):
                for k in range(-3, 4):
                    a = closed_form_energy(pot, n, effective_gamma(1, k, mu0))
                    b = closed_form_energy(pot, n, effective_gamma(1, k - 1, mu0 + 1.0))
                    assert abs(a - b) <= 1e-14 * abs(a)

    def test_integer_flux_multiset(self):
        # a window symmetric about -mu0 reproduces the mu0 = 0 multiset
        K = 3
        for mu0 in (1.0, 2.0):
            shifted = sorted(
                energy_coulomb(n, q, k, mu0)
                for n in range(3)
                for q in range(3)
                for k in range(-K - int(mu0), K - int(mu0) + 1)
            )
            plain = sorted(
                energy_coulomb(n, q, k, 0.0)
                for n in range(3)
                for q in range(3)
                for k in range(-K, K + 1)
            )
            assert shifted == pytest.approx(plain, rel=1e-12, abs=0)


class TestUnderflow:
    def test_zero_level_rejected(self):
        with pytest.raises(ValueError, match="underflows"):
            closed_form_energy(PowerLaw(-0.695849, -1.992219), 0, 1.900908)

    def test_subnormal_level_rejected(self):
        # |E| ~ 4e-316 here, below sys.float_info.min
        with pytest.raises(ValueError, match="underflows"):
            closed_form_energy(PowerLaw(-1.0, -1.99), 0, 3.436)

    def test_smallest_normal_levels_pass(self):
        assert closed_form_energy(PowerLaw(-1.0, -1.99), 0, 3.2) < -sys.float_info.min

    @pytest.mark.parametrize(
        "pot,gamma",
        [(PowerLaw(1.0, 2.0), math.inf), (PowerLaw(1.0, 1e308), 0.0), (PowerLaw(-1.0, -1.999), 0.0)],
    )
    def test_infinite_level_rejected(self, pot, gamma):
        with pytest.raises(ValueError, match="not finite"):
            closed_form_energy(pot, 0, gamma)

    def test_overflowing_energy_scale_is_named(self):
        # |lam|**(2/(nu+2)) = 1e10**200 has no float value
        with pytest.raises(ValueError, match=r"overflows at lam=-10000000000\.0, nu=-1\.99"):
            closed_form_energy(PowerLaw(-1e10, -1.99), 0, 0.0)

    @pytest.mark.parametrize(
        "pot,message",
        [
            # 0.025**200 = 3.9e-321 is subnormal: the level it gave, -2.27132e-281, is 2e-4 off
            (PowerLaw(-0.025, -1.99), r"\|lam\|\*\*\(2/\(nu\+2\)\) underflows at lam=-0\.025, nu=-1\.99"),
            # 0.02**200 is 0, though the level, -9.42e-301, would be a normal float
            (PowerLaw(-0.02, -1.99), r"\|lam\|\*\*\(2/\(nu\+2\)\) underflows at lam=-0\.02, nu=-1\.99"),
            # a**2 is 0 (ZeroDivisionError) and inf (OverflowError)
            (InfiniteWell(1e-170), r"pi\*\*2/a\*\*2 overflows at a=1e-170"),
            (InfiniteWell(1e200), r"pi\*\*2/a\*\*2 underflows at a=1e\+200"),
            (InfiniteWell(1e-160), r"pi\*\*2/a\*\*2 overflows at a=1e-160"),
        ],
        ids=["subnormal", "zero", "well-zero-a2", "well-inf-a2", "well-inf-scale"],
    )
    def test_energy_scale_outside_the_normal_range_is_named(self, pot, message):
        with pytest.raises(ValueError, match="energy scale " + message):
            level_coefficients(pot)
        with pytest.raises(ValueError, match="energy scale " + message):
            closed_form_energy(pot, 0, 0.0)


class TestSmallExponents:
    @pytest.mark.parametrize("nu", [-1e-3, -1e-5, 1e-5, 1e-3])
    def test_levels_are_finite(self, nu):
        # Gamma(1 - 1/nu) and Gamma(1/nu) alone overflow for |nu| < 0.0059
        pot = PowerLaw(-1.0 if nu < 0 else 1.0, nu)
        levels = [closed_form_energy(pot, n, g) for n in (0, 3) for g in (0.0, 1.5)]
        assert all(math.isfinite(e) for e in levels)
        assert levels == sorted(levels)


class TestSpectrumTable:
    def test_sorted_and_complete(self):
        table = spectrum_table(PowerLaw(-1.0, -1.0), 0.0, 2, 1, (-1, 1))
        keys = [(r.n, r.q, r.k) for r in table.rows]
        assert keys == sorted(keys)
        assert len(keys) == 3 * 2 * 3

    def test_values_match_formula(self):
        table = spectrum_table(PowerLaw(-1.0, -1.0), 0.0, 1, 1, (0, 0))
        for r in table.rows:
            assert r.energy == pytest.approx(energy_coulomb(r.n, r.q, r.k, 0.0), rel=1e-14, abs=0)

    def test_empty_ranges_error(self):
        with pytest.raises(ValueError):
            spectrum_table(PowerLaw(-1.0, -1.0), 0.0, 2, 1, (1, -1))
        with pytest.raises(ValueError):
            spectrum_table(PowerLaw(-1.0, -1.0), 0.0, -1, 1, (0, 0))

    @pytest.mark.parametrize("mu0", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu0(self, mu0):
        with pytest.raises(ValueError, match="mu0 must be finite"):
            spectrum_table(PowerLaw(1.0, 2.0), mu0, 1, 1, (0, 0))

    @pytest.mark.parametrize(
        "pot, preset",
        [
            (PowerLaw(-1.3, -1.0), "fig2a"),
            (PowerLaw(-0.7, -0.5), "reduced"),
            (PowerLaw(1.2, 1.0), "fig2b"),
            (PowerLaw(0.8, 2.0), "fig2c"),
            (PowerLaw(1.5, 4.0), "reduced"),
            (InfiniteWell(1.7), "fig1"),
        ],
    )
    def test_rows_are_the_scaled_closed_form(self, pot, preset):
        unit = unit_scale(preset, pot)
        table = spectrum_table(pot, 0.3, 4, 3, (-2, 2), unit)
        for r in table.rows:
            assert r.energy == closed_form_energy(pot, r.n, r.gamma) * unit.factor

    def test_oscillator_increasing_in_n(self):
        table = spectrum_table(PowerLaw(1.0, 2.0), 0.5, 4, 1, (-1, 1))
        by_qk = {}
        for r in table.rows:
            by_qk.setdefault((r.q, r.k), []).append(r.energy)
        for energies in by_qk.values():
            assert all(b > a for a, b in zip(energies, energies[1:]))
            assert all(e > 0.0 for e in energies)

    def test_well_table_units(self):
        pot = InfiniteWell(1.0)
        table = spectrum_table(pot, 0.0, 2, 0, (0, 0), unit=unit_scale("fig2d", pot))
        assert [r.energy for r in table.rows] == pytest.approx([1.0, 4.0, 9.0], rel=1e-12, abs=0)


class TestLevelsPastThePower:
    """(factor x)**power can leave the double range while the level, the
    scale times it, is a normal float; that level is formed in logarithms."""

    # n = 0, gamma = 4 at nu = -1.99, lam = -30: the power -398 underflows to 0
    POT = PowerLaw(-30.0, -1.99)

    def test_underflowing_power_gives_the_level(self):
        c = level_coefficients(self.POT)
        x = c.level_index(0, 4.0)
        assert (c.factor * x) ** c.power == 0.0
        logs = -math.exp(math.log(abs(c.scale)) + c.power * math.log(c.factor * x))
        assert closed_form_energy(self.POT, 0, 4.0) == logs == -8.548090369602633e-44
        # 40-digit evaluation of the formula at the same double nu and lam; the
        # record's Gamma ratio is 1.8e-14 off, and the power -398 takes that to 7e-12
        assert logs == pytest.approx(-8.5480903695413258684e-44, rel=1e-11, abs=0)

    def test_subnormal_power_keeps_its_digits(self):
        # the power is 6.96e-319, a subnormal with 6 digits; the product used
        # to carry that 1e-6 error into a level of -6.96e-119
        e = closed_form_energy(PowerLaw(-10.0, -1.99), 0, 3.5)
        assert e == pytest.approx(-6.9557436675124518496e-119, rel=1e-11, abs=0)

    def test_overflowing_power_gives_the_level(self):
        # the scale is 1e-50 and (factor x)**power about 1e317: the level is 1.09e267
        pot = PowerLaw(1e-300, 10.0)
        c = level_coefficients(pot)
        x = c.level_index(0, 1e190)
        with pytest.raises(OverflowError):
            (c.factor * x) ** c.power
        e = closed_form_energy(pot, 0, 1e190)
        assert e == math.exp(math.log(c.scale) + c.power * math.log(c.factor * x))
        assert sys.float_info.min <= e < math.inf

    def test_table_across_both_forms_matches_the_scalar_entry(self):
        # gamma = 0.5 .. 3.5: the n = 0, gamma = 3.5 corner's power is subnormal
        table = spectrum_table(self.POT, 0.5, 3, 3, (0, 0))
        c = level_coefficients(self.POT)
        for r in table.rows:
            assert r.energy == closed_form_energy(self.POT, r.n, r.gamma)
            p = (c.factor * c.level_index(r.n, r.gamma)) ** c.power
            if p >= sys.float_info.min:
                assert r.energy == c.scale * p

    def test_ordinary_levels_keep_the_direct_form(self):
        # wherever the power is a normal float, the level is scale * power, bit for bit
        rng = random.Random(31)
        checked = 0
        for _ in range(2000):
            if rng.random() < 0.5:
                pot = PowerLaw(-(10.0 ** rng.uniform(-3, 3)), rng.uniform(-1.999, -0.01))
            else:
                pot = PowerLaw(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 3))
            try:
                c = level_coefficients(pot)
            except ValueError:  # the scale itself leaves the range
                continue
            n, gamma = rng.randrange(200), rng.uniform(0.0, 50.0)
            try:
                p = (c.factor * c.level_index(n, gamma)) ** c.power
            except OverflowError:
                continue
            e = c.scale * p
            if sys.float_info.min <= p and sys.float_info.min <= abs(e) < math.inf:
                assert closed_form_energy(pot, n, gamma) == e
                checked += 1
        assert checked > 1500
