"""Gamma-ratio and Bessel surface tests against independent references.

Frozen reference values were generated with mpmath at 25 digits
(mp.besselj, mp.besseljzero) and are quoted to 16 significant
digits in the literals below.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abwkb import ConvergenceError, bessel_j, bessel_j_zero, bessel_j_zeros
from abwkb.special_functions import gamma_ratio


class TestGamma:
    """Gamma values through gamma_ratio, the package's one Gamma routine."""

    def test_half_integer(self):
        assert gamma_ratio(0.5, 1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14, abs=0)

    def test_factorial(self):
        assert gamma_ratio(5.0, 1.0) == pytest.approx(24.0, rel=1e-14, abs=0)

    def test_recurrence_from_half(self):
        # Gamma(5/2)/Gamma(1/2) = (3/2)(1/2)
        assert gamma_ratio(2.5, 0.5) == pytest.approx(0.75, rel=1e-14, abs=0)

    @pytest.mark.parametrize("x", [0.1, 0.37, 1.0, 2.5, 7.7, 20.0, 49.9])
    def test_recurrence_grid(self, x):
        # Gamma(x + 1)/Gamma(x) = x
        assert abs(gamma_ratio(x + 1.0, x) - x) <= 1e-12 * x

    @given(st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_property(self, x):
        assert abs(gamma_ratio(x + 1.0, x) - x) <= 1e-12 * x

    def test_large_argument(self):
        # mpmath: gamma(170.5) = 5.56209241456e+305
        assert gamma_ratio(170.5, 1.0) == pytest.approx(5.56209241456e305, rel=1e-11, abs=0)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            gamma_ratio(x, 1.0)
        with pytest.raises(ValueError):
            gamma_ratio(1.0, x)

    def test_overflow(self):
        # Gamma(180.5) alone overflows; the ratio stays finite
        with pytest.raises(OverflowError):
            math.gamma(180.5)
        assert gamma_ratio(180.5, 179.5) == pytest.approx(179.5, rel=1e-12, abs=0)


# (order, x, J_order(x)) from mpmath besselj; covers all three evaluation
# branches (series, Miller recurrence, asymptotic)
_J_REFERENCE = [
    (0.0, 1.0, 0.7651976865579666),
    (0.0, 5.0, -0.1775967713143383),
    (1.0, 2.0, 0.5767248077568734),
    (2.5, 7.0, -0.2834366512016992),
    (3.0, 6.380161895923984, 0.0),  # first zero of J_3
    (7.5, 11.0, 0.13343065397599013),
    (11.0, 28.6, 0.15438500230773353),  # Miller branch
    (15.5, 16.0, 0.2102152674168039),  # Miller branch
    (20.0, 40.0, 0.1277939335508489),  # Miller branch
    (0.5, 30.0, -0.1439296533703999),  # asymptotic branch
    (3.0, 50.0, 0.09273480406163444),  # asymptotic branch
    (11.0, 79.0, 0.038439869066453206),  # asymptotic branch
    # Miller at high order: x near the order, where the ascending series
    # cancels, and order * ln(x/2) past ~680, where (x/2)**order overflows
    (99.5, 99.16, 0.09008957428975318),
    (75.0, 74.58, 0.09648650569632129),
    (50.5, 49.75, 0.09895704402815962),
    (90.0, 3889.0, -0.01278799897949220),
    (95.0, 3500.0, -0.009387542736562911),
]


class TestBesselJ:
    def test_zero_argument(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.0, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        for x in (0.3, 1.0, math.pi / 2, 4.0, 10.0, 25.0, 60.0):
            expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(expected, abs=1e-12)

    def test_two_over_pi(self):
        assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-12)

    @pytest.mark.parametrize("order,x,expected", _J_REFERENCE)
    def test_reference_values(self, order, x, expected):
        assert bessel_j(order, x) == pytest.approx(expected, abs=1e-10)

    def test_branch_overlap(self):
        # series and Miller agree where their regions meet, and Miller
        # agrees with the asymptotic expansion near its outer edge
        from abwkb.special_functions import _bessel_asymptotic, _bessel_miller, _bessel_series

        for order in (2.0, 5.0, 9.0):
            edge = max(12.0, order)
            assert _bessel_series(order, edge) == pytest.approx(
                _bessel_miller(order, edge), abs=1e-11
            )
        for order in (1.0, 4.0, 8.0):
            edge = 0.5 * order * order + 18.0
            assert _bessel_miller(order, edge) == pytest.approx(
                _bessel_asymptotic(order, edge), abs=1e-11
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(0.0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(-0.5, 1.0)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_is_named(self, x):
        with pytest.raises(ValueError, match=f"finite x >= 0, got x = {x}"):
            bessel_j(0.0, x)


class TestBesselZeros:
    def test_half_order_zeros_are_multiples_of_pi(self):
        for m in range(1, 21):
            assert abs(bessel_j_zero(0.5, m) - m * math.pi) <= 1e-10

    def test_first_zero_of_j3(self):
        # mpmath besseljzero(3, 1) = 6.380161895923983506
        assert bessel_j_zero(3.0, 1) == pytest.approx(6.380161895923984, abs=1e-9)

    def test_second_zero_of_j3(self):
        # mpmath besseljzero(3, 2) = 9.761023129981669679
        assert bessel_j_zero(3.0, 2) == pytest.approx(9.761023129981670, abs=1e-9)

    def test_strictly_increasing(self):
        zs = bessel_j_zeros(2.5, 15)
        assert all(b > a for a, b in zip(zs, zs[1:]))

    def test_interlacing(self):
        # j_{v,m} < j_{v+1,m} < j_{v,m+1}
        for order in (0.0, 0.5, 1.0, 2.5, 4.0, 7.0, 10.0):
            lower = bessel_j_zeros(order, 21)
            upper = bessel_j_zeros(order + 1.0, 20)
            for m in range(20):
                assert lower[m] < upper[m] < lower[m + 1]

    def test_residuals(self):
        for order in (0.0, 0.5, 1.3, 3.0, 6.5, 10.0):
            for m, z in enumerate(bessel_j_zeros(order, 20), start=1):
                assert abs(bessel_j(order, z)) <= 1e-8, (order, m)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            bessel_j_zero(1.0, 0)

    def test_order_limit_leaves_room_for_the_derivative(self):
        # the Newton polish evaluates J_{order+1}, so zeros stop at order 99
        assert bessel_j_zeros(99.0, 1) == pytest.approx([107.808103297], rel=1e-11, abs=0)
        with pytest.raises(ValueError, match=r"order <= 99, got 99\.5"):
            bessel_j_zeros(99.5, 1)

    @given(
        st.floats(min_value=0.0, max_value=8.0),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_residual_property(self, order, m):
        z = bessel_j_zero(order, m)
        assert abs(bessel_j(order, z)) <= 1e-8
