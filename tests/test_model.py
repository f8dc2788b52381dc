import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abwkb import (
    InfiniteWell,
    PowerLaw,
    duality_map,
    effective_gamma,
    unit_scale,
)


class TestPotentialValidation:
    def test_valid_ranges(self):
        PowerLaw(-1.0, -1.0)
        PowerLaw(-0.3, -1.9)
        PowerLaw(1.0, 2.0)
        PowerLaw(2.5, 0.5)
        InfiniteWell(1.0)

    @pytest.mark.parametrize(
        "lam,nu",
        [
            (1.0, -1.0),  # wrong coupling sign for negative exponent
            (-1.0, 2.0),  # wrong coupling sign for positive exponent
            (-1.0, -2.0),  # excluded endpoint
            (-1.0, -2.5),  # below the validity range
            (1.0, 0.0),  # excluded endpoint
            (1.0, 1e-9),  # inside the exclusion band
            (-1.0, -2.0000000001),
            (math.inf, 2.0),  # non-finite coupling
            (-math.inf, -1.0),
            (math.nan, 2.0),
            (1.0, math.inf),  # non-finite exponent
            (1.0, math.nan),
        ],
    )
    def test_invalid_power_law(self, lam, nu):
        with pytest.raises(ValueError):
            PowerLaw(lam, nu)

    def test_invalid_well(self):
        with pytest.raises(ValueError):
            InfiniteWell(0.0)
        with pytest.raises(ValueError):
            InfiniteWell(-2.0)
        with pytest.raises(ValueError):
            InfiniteWell(math.inf)
        with pytest.raises(ValueError):
            InfiniteWell(math.nan)

    def test_power_law_evaluates(self):
        assert PowerLaw(-1.0, -1.0)(4.0) == -0.25
        assert PowerLaw(1.0, 2.0)(3.0) == 9.0


class TestEffectiveGamma:
    def test_examples(self):
        assert effective_gamma(0, 0, 0.0) == 0.0
        assert effective_gamma(1, 2, 0.5) == 3.5
        assert effective_gamma(0, -1, 0.5) == 0.5

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            effective_gamma(-1, 0, 0.0)

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-5 * 1024, max_value=5 * 1024),
    )
    @settings(max_examples=200, deadline=None)
    def test_flux_periodicity_exact(self, q, k, mu0_1024ths):
        # shifting one flux quantum from mu0 into k leaves gamma unchanged;
        # dyadic mu0 keeps mu0 + 1 exact so the equality is bitwise
        mu0 = mu0_1024ths / 1024.0
        assert effective_gamma(q, k, mu0) == effective_gamma(q, k - 1, mu0 + 1.0)

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-40, max_value=40),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_flux_periodicity_general(self, q, k, mu0):
        # non-dyadic mu0 rounds in mu0 + 1.0, so allow one ulp of slack
        a = effective_gamma(q, k, mu0)
        b = effective_gamma(q, k - 1, mu0 + 1.0)
        assert abs(a - b) <= 4e-16 * max(1.0, abs(a))


class TestDuality:
    def test_exponent_examples(self):
        assert duality_map(2.0, 1.0, 1.0, 0.0)[0] == pytest.approx(-1.0, abs=1e-15)
        assert duality_map(1.0, 1.0, 1.0, 0.0)[0] == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_gamma_prime_example(self):
        assert duality_map(2.0, 1.0, 1.0, 0.0)[3] == pytest.approx(-0.25, abs=1e-15)

    def test_parameter_swap(self):
        nu_p, E_p, lam_p, _ = duality_map(2.0, 3.0, 1.0, 0.0)
        assert E_p == pytest.approx(-0.25)  # -lam (nu'/nu)^2
        assert lam_p == pytest.approx(-0.75)  # -E (nu'/nu)^2

    def test_domain(self):
        with pytest.raises(ValueError):
            duality_map(-1.0, 1.0, 1.0, 0.0)

    @given(st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_exponent_map_is_involutive_bijection(self, nu):
        nu_p = duality_map(nu, 1.0, 1.0, 0.0)[0]
        assert -2.0 < nu_p < 0.0
        # the same rational map sends nu' back to nu
        back = -2.0 * nu_p / (2.0 + nu_p)
        assert back == pytest.approx(nu, rel=1e-12, abs=0)


class TestUnitScale:
    def test_reduced(self):
        assert unit_scale("reduced").factor == 1.0

    def test_coulomb_scale(self):
        # reduced ground state -1/4 must display as -1 in mc^2 alpha^2/2
        u = unit_scale("fig2a", PowerLaw(-1.0, -1.0))
        assert -0.25 * u.factor == pytest.approx(-1.0)

    def test_oscillator_scale(self):
        # lam = 1 means omega = 2, so the reduced level 3 is 1.5 hbar*omega
        u = unit_scale("fig2c", PowerLaw(1.0, 2.0))
        assert 3.0 * u.factor == pytest.approx(1.5)

    def test_linear_scale(self):
        # reduced E = ((3 pi/2)(n + 3/4))^(2/3) displays as (n + 3/4)^(2/3)
        u = unit_scale("fig2b", PowerLaw(1.0, 1.0))
        e_red = (1.5 * math.pi * 0.75) ** (2.0 / 3.0)
        assert e_red * u.factor == pytest.approx(0.75 ** (2.0 / 3.0))

    def test_well_scale(self):
        u = unit_scale("fig2d", InfiniteWell(2.0))
        # reduced well ground state (pi/a)^2 displays as 1
        assert (math.pi / 2.0) ** 2 * u.factor == pytest.approx(1.0)

    def test_preset_errors(self):
        with pytest.raises(ValueError):
            unit_scale("nope")
        with pytest.raises(ValueError):
            unit_scale("fig2d", PowerLaw(1.0, 2.0))
        with pytest.raises(ValueError):
            unit_scale("fig2a", None)

    def test_overflowing_factor_is_rejected(self):
        # 4/lam**2 rounds to inf for lam = 1e-154 without raising
        with pytest.raises(ValueError, match=r"fig2a unit factor is not finite and positive for PowerLaw\(lam=1e-154, nu=50\.0\)"):
            unit_scale("fig2a", PowerLaw(1e-154, 50.0))

    @pytest.mark.parametrize(
        "preset,pot",
        [
            # lam * lam is 0, so 4/(lam * lam) raises ZeroDivisionError
            ("fig2a", PowerLaw(3.3824148390993665e-230, 297.02821539612927)),
            # a**2 raises OverflowError past a = 1.3e154
            ("fig1", InfiniteWell(1e160)),
            ("fig2d", InfiniteWell(1e160)),
            # a**2 / pi**2 rounds to 0 below a = 4e-162, (1.5 pi |lam|)**(-2/3) once |lam| > 3.8e307
            ("fig1", InfiniteWell(1e-170)),
            ("fig2b", PowerLaw(1.7e308, 1.0)),
        ],
    )
    def test_factor_outside_the_double_range_is_named(self, preset, pot):
        with pytest.raises(ValueError, match=f"{preset} unit factor is not finite and positive for {re.escape(repr(pot))}"):
            unit_scale(preset, pot)
