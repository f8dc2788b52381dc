"""Shooting-solver and well-spectrum oracle tests.

Exactly solvable references: the Coulomb-like family at nu = -1 (levels
-1/(4(n + gamma + 1)^2) for coupling -1) and the oscillator at nu = 2
(levels 2(2n + gamma + 3/2) for coupling 1).  The linear potential is
checked against zeros of the Airy function Ai computed independently
below from its Maclaurin series.
"""

import importlib.util
import math
import pathlib

import pytest

from abwkb import (
    ConvergenceError,
    InfiniteWell,
    PowerLaw,
    ShootingConfig,
    _kernels,
    closed_form_energy,
    shoot_eigenvalue,
    well_exact_spectrum,
)
from abwkb.oracles import _MAX_STEP_PARAM, _POLISH_WIDTH, _REFINE_REL_TOL, _grid, _miss
from reference_levels import energy_coulomb, energy_oscillator

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
        semi = [closed_form_energy(InfiniteWell(1.0), n, 0.0) / math.pi**2 for n in range(5)]
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


class TestShootingExactFamilies:
    def test_oscillator_ground_state(self):
        got = shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, 0)
        assert got == pytest.approx(3.0, abs=1e-6)

    def test_coulomb_fractional_gamma(self):
        got = shoot_eigenvalue(PowerLaw(-1.0, -1.0), 1.5, 0)
        assert got == pytest.approx(-0.04, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_coulomb_family(self, gamma, n):
        expected = -0.25 / (n + gamma + 1.0) ** 2
        got = shoot_eigenvalue(PowerLaw(-1.0, -1.0), gamma, n)
        assert got == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_oscillator_family(self, gamma, n):
        expected = 2.0 * (2.0 * n + gamma + 1.5)
        got = shoot_eigenvalue(PowerLaw(1.0, 2.0), gamma, n)
        assert got == pytest.approx(expected, abs=1e-6)


class TestShootingLinearPotential:
    def test_ground_state_is_first_airy_zero(self):
        got = shoot_eigenvalue(PowerLaw(1.0, 1.0), 0.0, 0)
        assert got == pytest.approx(airy_zero(1), abs=1e-5)

    def test_excited_states(self):
        for n in (1, 2, 4):
            got = shoot_eigenvalue(PowerLaw(1.0, 1.0), 0.0, n)
            assert got == pytest.approx(airy_zero(n + 1), abs=1e-5)


class TestShootingBehaviour:
    def test_node_count_selection(self):
        # asking for n = 2 must return the third level, not a neighbour
        got = shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, 2)
        assert got == pytest.approx(11.0, abs=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shoot_eigenvalue(PowerLaw(1.0, 2.0), -1.0, 0)
        with pytest.raises(ValueError):
            shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, -1)
        with pytest.raises(ValueError):
            shoot_eigenvalue(InfiniteWell(1.0), 0.0, 0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma(self, gamma):
        # NaN passed the old `gamma < 0` test and sized a 6.5e6-point grid
        with pytest.raises(ValueError, match="gamma must be finite"):
            shoot_eigenvalue(PowerLaw(1.0, 2.0), gamma, 0)

    def test_budget_exhaustion_raises(self):
        cfg = ShootingConfig(energy_tol=1e-15, max_iterations=10)
        with pytest.raises(ConvergenceError):
            shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, 0, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShootingConfig(points=7)
        with pytest.raises(ValueError):
            ShootingConfig(energy_tol=-1.0)
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="int"):
                ShootingConfig(points=value)
            with pytest.raises(ValueError, match="finite"):
                ShootingConfig(energy_tol=value)
        with pytest.raises(ValueError, match="int"):
            ShootingConfig(points=2000.0)
        # a non-finite budget would never stop the sweep loop
        for value in (math.nan, math.inf, 12.5):
            with pytest.raises(ValueError, match="int"):
                ShootingConfig(max_iterations=value)


# (lam, nu, gamma, n, level): exact levels, and for the other states the
# levels of an independent log-grid solve at N = 4000 with N = 2000 within
# 2e-8 of them
LOG_GRID_LEVELS = [
    (-1.0, -1.0, 1.5, 0, -0.04),
    (1.0, 2.0, 0.5, 1, 8.0),
    (1.0, 1.0, 0.0, 0, 2.33810741045977),
    (-1.0, -1.8, 0.5, 0, -0.00126685517),
    (-1.0, -1.7, 0.0, 0, -1.44936646),
    (-1.0, -0.5, 0.0, 0, -0.438041242),
    (1.0, 12.0, 1.5, 0, 14.1350787),
    (1.0, 30.0, 0.0, 0, 6.86718937),
]


class TestLogGridOracle:
    @pytest.mark.parametrize("lam,nu,gamma,n,level", LOG_GRID_LEVELS)
    def test_reference_levels(self, lam, nu, gamma, n, level):
        got = shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert got == pytest.approx(level, rel=1e-7)

    def test_steep_walls_approach_the_well(self):
        # as nu -> inf the potential becomes the unit well, ground level pi^2
        # in these units; the uniform-r grid gave 0.01416 and 2e-8 here
        e30 = shoot_eigenvalue(PowerLaw(1.0, 30.0), 0.0, 0)
        e50 = shoot_eigenvalue(PowerLaw(1.0, 50.0), 0.0, 0)
        assert 6.8 < e30 < e50 < math.pi**2

    @pytest.mark.parametrize("nu", [1000.0, -1.95, -1.99])
    def test_out_of_reach_exponents_raise(self, nu):
        lam = 1.0 if nu > 0.0 else -1.0
        with pytest.raises(ConvergenceError):
            shoot_eigenvalue(PowerLaw(lam, nu), 0.0, 0)

    @pytest.mark.parametrize(
        "lam,nu,n,points,message",
        [(-1.0, -1.0, 0, 100, "too coarse"), (1.0, 1.0, 2, 250, "differ")],
    )
    def test_too_few_points_raise(self, lam, nu, n, points, message):
        with pytest.raises(ConvergenceError, match=message):
            shoot_eigenvalue(PowerLaw(lam, nu), 0.0, n, ShootingConfig(points=points))

    def test_census_edge_state_near_nu_minus_1_8(self):
        # the default grid agrees with the level at N = 16000, -0.0041319455138
        got = shoot_eigenvalue(PowerLaw(-1.0, -1.798), 0.425, 0)
        assert got == pytest.approx(-0.0041319455138, rel=1e-7)

    def test_every_sweep_counts_against_the_budget(self, kernel_calls):
        # the nu = -1.8 reference state needs 11 sweeps from its poor seed
        with pytest.raises(ConvergenceError, match="within 8 sweeps"):
            shoot_eigenvalue(PowerLaw(-1.0, -1.8), 0.5, 0, ShootingConfig(max_iterations=8))
        assert len(kernel_calls) == 8


@pytest.fixture
def kernel_calls(monkeypatch):
    """One entry per Numerov kernel call."""
    calls = []
    for name in ("numerov_count", "numerov_match"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *a, k=kernel: calls.append(1) or k(*a))
    return calls


def _bench_shoot_states():
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_shoot.py"
    spec = importlib.util.spec_from_file_location("bench_shoot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STATES


class TestSweepCount:
    @pytest.mark.parametrize("name,lam,nu,gamma,n", _bench_shoot_states())
    def test_benchmark_states_within_12_sweeps(self, kernel_calls, name, lam, nu, gamma, n):
        shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert len(kernel_calls) <= 12


# (lam, nu, gamma) for the miss-distance checks
MISS_POTENTIALS = [
    pytest.param(-1.0, -1.0, 0.5, id="coulomb"),
    pytest.param(1.0, 2.0, 0.5, id="oscillator"),
    pytest.param(-1.0, -1.3, 1.0, id="tail_nu_-1.3"),
    pytest.param(1.0, 6.0, 1.5, id="nu_6"),
]


class TestPruferMissDistance:
    @pytest.mark.parametrize("lam,nu,gamma", MISS_POTENTIALS)
    def test_increasing_across_levels_0_to_4(self, lam, nu, gamma):
        # one fixed grid from below level 0 to above level 4 (between 4 and 5)
        pot = PowerLaw(lam, nu)
        e0, e4 = (shoot_eigenvalue(pot, gamma, n) for n in (0, 4))
        lo, hi = e0 - 0.2 * abs(e0), e4 + 0.1 * abs(e4)
        *grid, step = _grid(0.5 * (e0 + e4), lo, hi, lam, nu, gamma, 4000)
        assert step <= _MAX_STEP_PARAM
        count = 120
        phases = [_miss(lo * (hi / lo) ** (k / (count - 1)), lam, nu, gamma, grid)[0] for k in range(count)]
        assert all(b > a for a, b in zip(phases, phases[1:]))
        assert phases[0] < 0.0 and 4.0 * math.pi < phases[-1] < 5.0 * math.pi

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize(
        "lam,nu,gamma,level",
        [
            pytest.param(-1.0, -1.0, 0.5, lambda n: energy_coulomb(n, 0, 0, 0.5), id="coulomb"),
            pytest.param(1.0, 2.0, 0.5, lambda n: 2.0 * energy_oscillator(n, 0.5), id="oscillator"),
        ],
    )
    def test_n_pi_at_exact_levels(self, lam, nu, gamma, level, n):
        # on a grid like the solver's polish grid, F(E_n) = n pi to within
        # the N-point polish tolerance 0.125 _REFINE_REL_TOL |E| times dF/dE
        E = level(n)
        half = _POLISH_WIDTH * abs(E)
        *grid, step = _grid(E, E - half, E + half, lam, nu, gamma, 2000)
        phase, nodes = _miss(E, lam, nu, gamma, grid)
        delta = 1e-6 * abs(E)
        slope = (_miss(E + delta, lam, nu, gamma, grid)[0] - _miss(E - delta, lam, nu, gamma, grid)[0]) / (2.0 * delta)
        assert slope > 0.0
        assert abs(phase - n * math.pi) <= slope * 0.125 * _REFINE_REL_TOL * abs(E)
        assert nodes == n
