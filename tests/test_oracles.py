"""Shooting-solver and well-spectrum oracle tests.

Exactly solvable references: the Coulomb-like family at nu = -1 (levels
-1/(4(n + gamma + 1)^2) for coupling -1) and the oscillator at nu = 2
(levels 2(2n + gamma + 3/2) for coupling 1).  The linear potential is
checked against zeros of the Airy function Ai computed independently
below from its Maclaurin series.
"""

import math

import pytest

from abwkb import (
    ConvergenceError,
    InfiniteWell,
    PowerLaw,
    ShootingConfig,
    energy_well_semiclassical,
    shoot_eigenvalue,
    well_exact_spectrum,
)

# mpmath besseljzero(3, m) / pi, squared; m = 1, 2
WELL_G25 = [4.124427298596420, 9.653636424730547]


def airy_ai(x: float) -> float:
    """Ai(x) from its Maclaurin series; adequate for |x| <= 6."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    f = term = 1.0
    for k in range(1, 60):
        term *= x**3 / ((3.0 * k) * (3.0 * k - 1.0))
        f += term
    g = term = x
    for k in range(1, 60):
        term *= x**3 / ((3.0 * k + 1.0) * (3.0 * k))
        g += term
    return c1 * f - c2 * g


def airy_zero(m: int) -> float:
    """|m-th negative zero of Ai| by bisection on the series evaluation."""
    lo = 0.5 if m == 1 else airy_zero(m - 1) + 0.05
    hi = lo + 3.0
    f_lo = airy_ai(-lo)
    while airy_ai(-hi) * f_lo > 0.0:
        hi += 0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if airy_ai(-mid) * f_lo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestAiryOracleSelfCheck:
    def test_first_zero(self):
        # classic value 2.33810741045977
        assert airy_zero(1) == pytest.approx(2.33810741045977, abs=1e-10)


class TestWellExactSpectrum:
    def test_s_wave_levels(self):
        assert well_exact_spectrum(0.0, 1.0, 3) == pytest.approx([1.0, 4.0, 9.0], abs=1e-10)

    def test_gamma_25_levels(self):
        got = well_exact_spectrum(2.5, 1.0, 2)
        assert got == pytest.approx(WELL_G25, abs=1e-9)

    def test_strictly_increasing(self):
        levels = well_exact_spectrum(1.3, 1.0, 8)
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_semiclassical_exact_at_gamma_zero(self):
        # both reduce to (n+1)^2: the matching rule is exact for s-waves
        exact = well_exact_spectrum(0.0, 1.0, 5)
        semi = [energy_well_semiclassical(n, 0.0, 1.0) for n in range(5)]
        assert exact == pytest.approx(semi, abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            well_exact_spectrum(-0.5, 1.0, 1)
        with pytest.raises(ValueError):
            well_exact_spectrum(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            well_exact_spectrum(0.0, 1.0, 0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            well_exact_spectrum(gamma, 1.0, 3)


FAST = ShootingConfig(step=0.005, energy_tol=1e-8)


class TestShootingExactFamilies:
    def test_oscillator_ground_state(self):
        got = shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, 0, FAST)
        assert got == pytest.approx(3.0, abs=1e-6)

    def test_coulomb_fractional_gamma(self):
        got = shoot_eigenvalue(PowerLaw(-1.0, -1.0), 1.5, 0, FAST)
        assert got == pytest.approx(-0.04, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_coulomb_family(self, gamma, n):
        expected = -0.25 / (n + gamma + 1.0) ** 2
        got = shoot_eigenvalue(PowerLaw(-1.0, -1.0), gamma, n, FAST)
        assert got == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_oscillator_family(self, gamma, n):
        expected = 2.0 * (2.0 * n + gamma + 1.5)
        got = shoot_eigenvalue(PowerLaw(1.0, 2.0), gamma, n, FAST)
        assert got == pytest.approx(expected, abs=1e-6)


class TestShootingLinearPotential:
    def test_ground_state_is_first_airy_zero(self):
        got = shoot_eigenvalue(PowerLaw(1.0, 1.0), 0.0, 0, FAST)
        assert got == pytest.approx(airy_zero(1), abs=1e-5)

    def test_excited_states(self):
        for n in (1, 2, 4):
            got = shoot_eigenvalue(PowerLaw(1.0, 1.0), 0.0, n, FAST)
            assert got == pytest.approx(airy_zero(n + 1), abs=1e-5)


class TestShootingBehaviour:
    def test_node_count_selection(self):
        # asking for n = 2 must return the third level, not a neighbour
        got = shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, 2, FAST)
        assert got == pytest.approx(11.0, abs=1e-6)

    def test_grid_convergence_fourth_order(self):
        # pinned endpoints isolate the O(h^4) Numerov error; halving the
        # step should shrink it by ~16
        results = {}
        for step in (0.2, 0.1, 0.05, 0.025):
            cfg = ShootingConfig(
                step=step,
                min_points=16,
                r_min=1e-3,
                r_max=9.001,
                energy_tol=1e-13,
            )
            results[step] = shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, 1, cfg)
        r1 = (results[0.2] - results[0.1]) / (results[0.1] - results[0.05])
        r2 = (results[0.1] - results[0.05]) / (results[0.05] - results[0.025])
        assert 12.0 < r1 < 20.0
        assert 12.0 < r2 < 20.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shoot_eigenvalue(PowerLaw(1.0, 2.0), -1.0, 0, FAST)
        with pytest.raises(ValueError):
            shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, -1, FAST)
        with pytest.raises(ValueError):
            shoot_eigenvalue(InfiniteWell(1.0), 0.0, 0, FAST)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma(self, gamma):
        # NaN passed the old `gamma < 0` test and sized a 6.5e6-point grid
        with pytest.raises(ValueError, match="gamma must be finite"):
            shoot_eigenvalue(PowerLaw(1.0, 2.0), gamma, 0, FAST)

    def test_budget_exhaustion_raises(self):
        cfg = ShootingConfig(step=0.01, energy_tol=1e-15, max_iterations=10)
        with pytest.raises(ConvergenceError):
            shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, 0, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShootingConfig(step=0.0)
        with pytest.raises(ValueError):
            ShootingConfig(energy_tol=-1.0)
        for step in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ShootingConfig(step=step)
        for r_min in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="r_min"):
                ShootingConfig(r_min=r_min)
        for r_min, r_max in ((None, 0.0), (None, -1.0), (1.0, 1.0), (2.0, 1.0), (1e-3, math.nan)):
            with pytest.raises(ValueError, match="r_max"):
                ShootingConfig(r_min=r_min, r_max=r_max)
        ShootingConfig(r_min=1e-3, r_max=9.001)
