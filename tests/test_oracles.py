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
import random

import numpy as np
import pytest

from abwkb import (
    ConvergenceError,
    InfiniteWell,
    PowerLaw,
    _kernels,
    closed_form_energy,
    duality_map,
    shoot_eigenvalue,
    well_exact_spectrum,
)
from abwkb import oracles
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

    def test_budget_exhaustion_raises(self, monkeypatch):
        # the oscillator ground level takes 6 sweeps
        monkeypatch.setattr(oracles, "_MAX_SWEEPS", 5)
        with pytest.raises(ConvergenceError, match="within 5 sweeps"):
            shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, 0)

    @pytest.mark.parametrize("lam,nu", [(1.0, 2.0), (-1.0, -1.0)], ids=["oscillator", "coulomb"])
    def test_overflowing_gamma_term_raises_value_error(self, lam, nu):
        # (gamma + 1/2)**2 is the centrifugal term of every sweep
        with pytest.raises(ValueError, match=r"gamma=1e\+160 is out of range: \(gamma \+ 1/2\)\*\*2 overflows"):
            shoot_eigenvalue(PowerLaw(lam, nu), 1e160, 0)


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


# (lam, nu, gamma, level): ground levels at nu = -1.9 and at a steep
# wall, at gamma 0 and 20; the levels of an 8000-point solve, which the
# default solves match to 1e-7 (at nu = -1.9, gamma = 20 the step bound
# grows the grid past the starting points, and the level lands 5.8e-10 off)
EDGE_LEVELS = [
    (-1.0, -1.9, 0.0, -615213.7453073594),
    (-1.0, -1.9, 20.0, -2.009996814195108e-52),
    (1.0, 40.0, 0.0, 7.298830304314035),
    (1.0, 40.0, 20.0, 491.3119597043506),
]

# (lam, nu, gamma, n, level): high levels whose N and 2N - 1 point levels
# differ on the starting grid, so the polish moves to its 2N - 1 point
# refinement.  The levels of a solve started on 4000 points, which one
# started on 8000 points meets to 3e-11; unextrapolated, the 4000-point
# levels lie up to 3.8e-8 off
HIGH_LEVELS = [
    (-1.0, -1.5, 0.5, 10, -6.504812949252766e-07),
    (-1.0, -1.2, 0.0, 20, -3.183528713899102e-05),
    (-1.0, -0.5, 4.0, 30, -0.038087370179024714),
]

# (lam, nu, gamma, n, level, sweeps): states at the nu floor, where the
# step bound grows the search grids, and the sweeps a solve takes there.
# The first three levels are those of solves with no sweep budget, whose
# search windows were halved instead; the last is the solver's own, which a
# search along another path, to other grids, put at -3.5502141975e-265
FLOOR_LEVELS = [
    (-1.0, -1.95, 0.0, 0, -7937531770271523.0, 11),
    (-1.0, -1.95, 1.5, 3, -9.108731001290223e-34, 11),
    (-1.0, -1.99, 0.5, 0, -6.453300336280167e-10, 13),
    (-1.0, -1.99, 4.0, 0, -3.5502141975513116e-265, 13),
]

# (gamma, n, a / E_well, b / E_well): (E_well - E) nu = a ln nu + b, fitted
# to the levels at nu = 100, 200, 400, 800, E_well = pi^2 j**2 the Bessel
# well level; and the fit's relative error on the nu = 1600 gap
STEEP_WALL_FITS = [
    (0.0, 0, 4.486245365788833, -5.929596363026431, 0.008352294617479217),
    (0.0, 2, 4.468781182497346, -5.817749666947249, 0.007717936580920126),
    (1.5, 0, 4.483426997753823, -5.9115438264341, 0.008250714973263795),
    (1.5, 2, 4.459617140455769, -5.759029977896871, 0.007381319722257196),
]


class TestLogGridOracle:
    @pytest.mark.parametrize("lam,nu,gamma,n,level", LOG_GRID_LEVELS)
    def test_reference_levels(self, lam, nu, gamma, n, level):
        got = shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert got == pytest.approx(level, rel=1e-7, abs=0)

    @pytest.mark.parametrize("lam,nu,gamma,level", EDGE_LEVELS)
    def test_domain_edges(self, lam, nu, gamma, level):
        # the kernels' array expressions run under error::RuntimeWarning here
        got = shoot_eigenvalue(PowerLaw(lam, nu), gamma, 0)
        assert got == pytest.approx(level, rel=1e-7, abs=0)

    @pytest.mark.parametrize("lam,nu,gamma,n,level", HIGH_LEVELS, ids=["-1.5-g0.5-n10", "-1.2-g0-n20", "-0.5-g4-n30"])
    def test_high_levels_refine_their_grid(self, lam, nu, gamma, n, level):
        got = shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert got == pytest.approx(level, rel=1e-10, abs=0)

    def test_steep_walls_approach_the_well(self):
        # as nu -> inf the potential becomes the unit well, ground level pi^2
        # in these units; the uniform-r grid gave 0.01416 and 2e-8 here
        e30 = shoot_eigenvalue(PowerLaw(1.0, 30.0), 0.0, 0)
        e50 = shoot_eigenvalue(PowerLaw(1.0, 50.0), 0.0, 0)
        assert 6.8 < e30 < e50 < math.pi**2

    @pytest.mark.parametrize("gamma,n,a,b,miss_1600", STEEP_WALL_FITS, ids=["g0-n0", "g0-n2", "g1.5-n0", "g1.5-n2"])
    def test_steep_walls_land_on_the_well(self, gamma, n, a, b, miss_1600):
        # the step bound sizes these grids: refinements of up to 130,043
        # points at nu = 1600
        well = math.pi**2 * well_exact_spectrum(gamma, 1.0, n + 1)[n]
        nus = [100.0, 200.0, 400.0, 800.0]
        levels = [shoot_eigenvalue(PowerLaw(1.0, nu), gamma, n) for nu in nus]
        assert all(p < q for p, q in zip(levels, levels[1:])) and levels[-1] < well
        gaps = [(well - e) * nu for e, nu in zip(levels, nus)]
        slope, offset = np.polyfit(np.log(nus), gaps, 1)
        assert slope / well == pytest.approx(a, rel=1e-6, abs=0)
        assert offset / well == pytest.approx(b, rel=1e-6, abs=0)
        gap = well - shoot_eigenvalue(PowerLaw(1.0, 1600.0), gamma, n)
        predicted = (slope * math.log(1600.0) + offset) / 1600.0
        assert predicted / gap - 1.0 == pytest.approx(miss_1600, rel=1e-4, abs=0)

    def test_nu_1000_solves_below_the_well(self):
        # the step bound grows the grid to 36,090 points; a 64,000-point
        # solve lies 1.2e-7 higher, within the 1e-6 N-vs-2N check
        got = shoot_eigenvalue(PowerLaw(1.0, 1000.0), 0.0, 0)
        assert got == pytest.approx(9.623231789735597, rel=1e-10, abs=0)
        assert got < math.pi**2

    @pytest.mark.parametrize(
        "lam,nu,gamma,n,level,sweeps", FLOOR_LEVELS, ids=["-1.95-g0-n0", "-1.95-g1.5-n3", "-1.99-g0.5-n0", "-1.99-g4-n0"]
    )
    def test_floor_exponents_solve(self, kernel_sizes, lam, nu, gamma, n, level, sweeps):
        # the seed is decades off here: the search crosses the decades in
        # few sweeps only if its bracket and slope carry across windows
        got = shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert got == pytest.approx(level, rel=1e-7, abs=0)
        assert len(kernel_sizes) == sweeps

    def test_overflowing_energy_scale_raises_value_error(self):
        # the closed-form record has no finite scale to carry the unit-coupling level over
        with pytest.raises(ValueError, match=r"overflows at lam=-10000000000\.0, nu=-1\.99"):
            shoot_eigenvalue(PowerLaw(-1e10, -1.99), 0.0, 0)

    def test_underflowing_energy_scale_raises_value_error(self):
        # |lam|**(2/(nu+2)) = 1e-2000 is 0 in doubles
        with pytest.raises(ValueError, match=r"energy scale \|lam\|\*\*\(2/\(nu\+2\)\) underflows at lam=-1e-10, nu=-1\.99"):
            shoot_eigenvalue(PowerLaw(-1e-10, -1.99), 0.0, 0)

    def test_subnormal_level_raises_value_error(self):
        # the scale 1.4e-77**4 = 3.8e-308 is normal; the level, -0.2 times it, is not
        with pytest.raises(ValueError, match=r"level n=0, gamma=0\.0 underflows"):
            shoot_eigenvalue(PowerLaw(-1.4e-77, -1.5), 0.0, 0)

    def test_steep_wall_at_tiny_coupling(self):
        # the unit-coupling level 9.6232317897 times (1e-300)**(2/1002); solving
        # at lam = 1e-300 itself would put the turning point past r = 2
        got = shoot_eigenvalue(PowerLaw(1e-300, 1000.0), 0.0, 0)
        assert got == pytest.approx(9.623231789735597 * 1e-300 ** (1.0 / 501.0), rel=1e-10, abs=0)
        assert f"{got:.12g}" == "2.42392150263"

    def test_levels_scale_with_the_coupling(self):
        # E(lam) = |lam|**(2/(nu+2)) E(sign lam): r scales by |lam|**(-1/(nu+2))
        rng = random.Random(19)
        for _ in range(16):
            nu = rng.choice((-1.5, -1.0, 0.5, 1.0, 2.0, 12.0, 1000.0))
            gamma, n = rng.uniform(0.0, 2.0), rng.randint(0, 3)
            # |lam| log-uniform in 1e-300..1e300 wherever the scale stays within 1e-250..1e250
            bound = min(300.0, 125.0 * (nu + 2.0))
            lam = math.copysign(10.0 ** rng.uniform(-bound, bound), nu)
            unit = shoot_eigenvalue(PowerLaw(math.copysign(1.0, nu), nu), gamma, n)
            got = shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
            assert got == pytest.approx(abs(lam) ** (2.0 / (nu + 2.0)) * unit, rel=1e-12, abs=0), (lam, nu, gamma, n)

    @pytest.mark.parametrize("nu,gamma", [(-1.99, 8.0)], ids=["-1.99-g8"])
    def test_out_of_reach_exponents_raise(self, kernel_sizes, nu, gamma):
        # the level lies beyond |E| = e**-650 at unit coupling: the search
        # probes its edge, finds the residual's sign unchanged and names the
        # bound, not the energy past it, which underflows
        with pytest.raises(ConvergenceError, match=r"_MAX_Y = 650") as raised:
            shoot_eigenvalue(PowerLaw(-1.0, nu), gamma, 0)
        assert "E=" not in str(raised.value)
        assert len(kernel_sizes) <= 3

    def test_grid_at_the_search_edge_raises_convergence_error(self):
        # at nu = 0.5 the window at y = _MAX_Y reaches toward r = e**1300,
        # past the double range, so the message gives ln r
        E = math.exp(oracles._MAX_Y)
        with pytest.raises(ConvergenceError, match=r"would reach past ln r = 1300"):
            _grid(E, E / 2**0.5, E * 2**0.5, 1.0, 0.5, 0.0, 1200)

    def test_grid_past_the_exponent_bound_names_the_exponent(self):
        # at nu = 1e300 a tiny ln r passes the bound, which holds on
        # (nu + 2) ln r, so the message gives that product too
        with pytest.raises(
            ConvergenceError,
            match=r"would reach past ln r = 7\.001e-298, where max\(nu \+ 2, 2\) ln r = 700\.1 > _MAX_EXPONENT = 700$",
        ):
            shoot_eigenvalue(PowerLaw(1.0, 1e300), 0.0, 0)

    @pytest.mark.parametrize(
        "lam,nu,n,points,message",
        [(-1.0, -1.0, 0, 100, "too coarse"), (-1.0, -1.5, 10, 2000, "differ")],
    )
    def test_too_few_points_raise(self, monkeypatch, lam, nu, n, points, message):
        # start on `points` and cap every grid at the first refinement, so
        # neither check may grow the grid
        monkeypatch.setattr(oracles, "_START_POINTS", points)
        monkeypatch.setattr(oracles, "_MAX_POINTS", 2 * points - 1)
        with pytest.raises(ConvergenceError, match=message):
            shoot_eigenvalue(PowerLaw(lam, nu), 0.0, n)

    @pytest.mark.parametrize(
        "lam,nu,gamma,n,largest",
        [
            (1.0, 800.0, 0.0, 0, 58_439),
            (-1.0, -1.5, 0.5, 10, 4861),
            (1.0, 2.0, 0.0, 0, 2399),
            (-1.0, -1.95, 0.0, 0, 10_169),
        ],
        ids=["800-g0-n0", "-1.5-g0.5-n10", "2-g0-n0", "-1.95-g0-n0"],
    )
    def test_grids_grow_only_where_a_check_asks(self, kernel_sizes, lam, nu, gamma, n, largest):
        shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert max(kernel_sizes) == largest <= oracles._MAX_POINTS

    def test_census_edge_state_near_nu_minus_1_8(self):
        # the default grid agrees with the level at N = 16000, -0.0041319455138
        got = shoot_eigenvalue(PowerLaw(-1.0, -1.798), 0.425, 0)
        assert got == pytest.approx(-0.0041319455138, rel=1e-7, abs=0)

    def test_every_sweep_counts_against_the_budget(self, monkeypatch, kernel_sizes):
        # the nu = -1.8 reference state needs 9 sweeps from its poor seed
        monkeypatch.setattr(oracles, "_MAX_SWEEPS", 8)
        with pytest.raises(ConvergenceError, match="within 8 sweeps"):
            shoot_eigenvalue(PowerLaw(-1.0, -1.8), 0.5, 0)
        assert len(kernel_sizes) == 8


def _level_on(grid, lam, nu, gamma, n, E):
    """The root of F - n pi on one fixed grid, by secant steps from E until they stall."""

    def residual(e):
        return _miss(e, lam, nu, gamma, grid)[0] - n * math.pi

    a, b = E, E * (1.0 + 1e-7)
    fa, fb = residual(a), residual(b)
    for _ in range(40):
        if fb == fa:
            return b
        a, fa, b = b, fb, b - fb * (b - a) / (fb - fa)
        if abs(b - a) <= 1e-15 * abs(b):
            return b
        fb = residual(b)
    raise AssertionError(f"no level near E={E!r}")


class TestRichardsonExtrapolation:
    # the solver returns E_2N + (E_2N - E_N) / 15 from its N and 2N - 1 point levels

    @pytest.mark.parametrize(
        "lam,nu,gamma,n",
        [
            pytest.param(-1.0, -1.0, 0.5, 3, id="coulomb"),
            pytest.param(1.0, 2.0, 0.5, 3, id="oscillator"),
            pytest.param(-1.0, -1.5, 1.5, 3, id="tail_nu_-1.5"),
        ],
    )
    def test_nested_grid_errors_fall_as_h4(self, lam, nu, gamma, n):
        # the premise: on the nested N, 2N - 1 and 4N - 3 point grids of a
        # polish window the level's error is C h**4, so successive
        # differences fall 16-fold (15.98, 16.02 and 16.01 here)
        E = shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        window = sorted((E * math.exp(-_POLISH_WIDTH), E * math.exp(_POLISH_WIDTH)))
        x0, h, points, im, scale = _grid(E, *window, lam, nu, gamma, oracles._START_POINTS)
        levels = [_level_on((x0, h / k, k * (points - 1) + 1, k * im, scale), lam, nu, gamma, n, E) for k in (1, 2, 4)]
        ratio = (levels[0] - levels[1]) / (levels[1] - levels[2])
        assert ratio == pytest.approx(16.0, rel=0.03, abs=0)

    def test_exact_levels_within_1e_10(self):
        # 32 Coulomb and oscillator levels; the 2N - 1 point level alone is
        # up to 6.5e-8 off (oscillator gamma = 0, n = 20), the extrapolation 6.6e-11
        worst = 0.0
        for gamma in (0.0, 0.5, 1.5, 2.5):
            for n in (0, 3, 10, 20):
                coulomb = shoot_eigenvalue(PowerLaw(-1.0, -1.0), gamma, n)
                oscillator = shoot_eigenvalue(PowerLaw(1.0, 2.0), gamma, n)
                worst = max(
                    worst,
                    abs(coulomb / energy_coulomb(n, 0, 0, gamma) - 1.0),
                    abs(oscillator / (2.0 * energy_oscillator(n, gamma)) - 1.0),
                )
        assert worst <= 1e-10


class TestDualOracle:
    @pytest.mark.parametrize("nu_p", [-1.8, -1.5, -1.2, -0.8, -0.5, -0.2])
    def test_direct_solve_matches_its_dual(self, nu_p):
        # the confined problem nu = -2 nu'/(nu' + 2), lam = 1, with
        # gamma + 1/2 = (gamma' + 1/2)(nu + 2)/2, mapped through duality_map
        # (Kostelecky, Nieto & Truax, PRD 32, 2627 (1985)) is the tail state
        # (lam', gamma', n); its level E' is fixed by lam = 1 alone.  Worst
        # miss over these 36 states: 3.2e-11
        nu = -2.0 * nu_p / (nu_p + 2.0)
        for gamma_p in (0.0, 0.5, 1.5):
            gamma = ((gamma_p + 0.5) * (nu + 2.0) - 1.0) / 2.0
            for n in (0, 1):
                level = shoot_eigenvalue(PowerLaw(1.0, nu), gamma, n)
                nu_d, e_d, lam_d, gamma_d = duality_map(nu, level, 1.0, gamma)
                assert nu_d == pytest.approx(nu_p, rel=1e-15, abs=0)
                assert gamma_d == pytest.approx(gamma_p, abs=1e-15)
                got = shoot_eigenvalue(PowerLaw(lam_d, nu_d), gamma_d, n)
                assert got == pytest.approx(e_d, rel=1e-10, abs=0)


@pytest.fixture
def kernel_sizes(monkeypatch):
    """The grid size of each Numerov kernel call."""
    sizes = []
    for name in ("numerov_count", "numerov_match"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *a, k=kernel: sizes.append(a[6]) or k(*a))
    return sizes


def _bench_shoot_states():
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_shoot.py"
    spec = importlib.util.spec_from_file_location("bench_shoot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STATES


class TestSweepCount:
    # the benchmark's states in perfbench's strata; its nested_* states are
    # pinned in test_each_nested_grid_solves_once
    @pytest.mark.parametrize("name,lam,nu,gamma,n", [s for s in _bench_shoot_states() if not s[0].startswith("nested")])
    def test_benchmark_states_within_12_sweeps(self, kernel_sizes, name, lam, nu, gamma, n):
        shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert len(kernel_sizes) <= 12

    @pytest.mark.parametrize(
        "lam,nu,gamma,n,sweeps", [(1.0, 2.0, 0.0, 10, 9), (1.0, 100.0, 1.5, 10, 6)], ids=["2-g0-n10", "100-g1.5-n10"]
    )
    def test_last_step_stops_on_a_relative_width(self, kernel_sizes, lam, nu, gamma, n, sweeps):
        # levels 43 and 1152 at unit coupling: a stop on an absolute
        # energy width would ask one more sweep of each
        shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert len(kernel_sizes) == sweeps

    @pytest.mark.parametrize(
        "lam,nu,gamma,n,sweeps",
        [(1.0, 2.0, 0.0, 20, 10), (-1.0, -1.0, 0.0, 20, 10), (1.0, 3.0, 0.0, 20, 13), (-1.0, -1.5, 0.5, 10, 10)],
        ids=["oscillator-g0-n20", "coulomb-g0-n20", "3-g0-n20", "-1.5-g0.5-n10"],
    )
    def test_each_nested_grid_solves_once(self, kernel_sizes, lam, nu, gamma, n, sweeps):
        # these levels on N and 2N - 1 points differ by more than
        # _REFINE_REL_TOL, so the polish refines past 2N - 1 points; each
        # nested grid takes one solve, from the last level and its slope
        shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert len(kernel_sizes) == sweeps

    def test_steep_wall_sizes_its_grid_once(self, kernel_sizes):
        # nu = 1000 searches on one grid of 35,305 points, then polishes on
        # 36,090 and refines on 72,179
        shoot_eigenvalue(PowerLaw(1.0, 1000.0), 0.0, 0)
        assert len(kernel_sizes) <= 8 and len(set(kernel_sizes)) <= 3

    def test_one_grid_per_window(self, monkeypatch):
        # one search window and one polish window, each sized by the grid
        # builder itself; the refinement is a nested grid, not a new one
        calls = []
        monkeypatch.setattr(oracles, "_grid", lambda *a, grid=_grid: calls.append(a) or grid(*a))
        shoot_eigenvalue(PowerLaw(1.0, 1000.0), 0.0, 0)
        assert len(calls) == 2


class TestSecant:
    def test_step_past_the_sign_bracket_bisects_it(self):
        # atan(10 y) saturates, so secant steps from its flat tails
        # overshoot the bracket of the signs seen; bisecting it keeps every
        # probe inside [-100, 100] and finds 0 in 13 of them
        probes = []

        def residual(y):
            probes.append(y)
            return math.atan(10.0 * y), 7

        root, nodes, _ = oracles._secant(residual, -1.0, 0.05, -100.0, 100.0, 1e-12)
        assert abs(root) <= 1e-12
        assert nodes == 7
        assert len(probes) == 13 and max(map(abs, probes)) <= 100.0


def _step_parameter(grid, lam, nu, gamma, E, points=None):
    """max h**2 |g(x_i)| / 12 over the points x_i of grid, or of the grid of
    the same extent on `points` points, for phi'' = g phi with
    g = r**2 (lam r**nu - E) + (gamma + 1/2)**2 and r = e**x."""
    x0, h, count, _, _ = grid
    points = points or count
    h = h * (count - 1) / (points - 1)
    r = np.exp(x0 + h * np.arange(points))
    g = r**2 * (lam * r**nu - E) + (gamma + 0.5) ** 2
    return h * h * float(np.abs(g).max()) / 12.0


def _seeded_windows(count):
    """(lam, nu, gamma, E, lo, hi): a closed-form level and a search or
    polish window around it, tail or confined."""
    rng = random.Random(18)
    for _ in range(count):
        if rng.random() < 0.5:
            lam, nu = -rng.uniform(0.5, 2.0), rng.uniform(-1.9, -0.02)
        else:
            lam, nu = rng.uniform(0.5, 2.0), rng.uniform(0.02, 60.0)
        gamma, n = rng.uniform(0.0, 4.0), rng.randrange(7)
        ratio = rng.choice([2.0 ** min(1.0, abs(nu)), math.exp(_POLISH_WIDTH)])
        E = closed_form_energy(PowerLaw(lam, nu), n, gamma)
        yield (lam, nu, gamma, E, *sorted((E / ratio, E * ratio)))


STEEP_WINDOWS = [
    pytest.param(lam, nu, gamma, closed_form_energy(PowerLaw(lam, nu), 0, gamma), ratio, id=f"{nu:g}-g{gamma:g}-{name}")
    for lam, nu in ((1.0, 1000.0), (-1.0, -1.95))
    for gamma in (0.0, 4.0)
    for name, ratio in (("search", 2.0), ("polish", math.exp(_POLISH_WIDTH)))
]


class TestGridStepBound:
    # every grid _grid returns keeps h**2 |g| / 12 within the bound at its
    # points for both ends of its window, and any grid that grew past the
    # points asked for would break it on one point fewer

    @staticmethod
    def check(lam, nu, gamma, E, lo, hi):
        grid = _grid(E, lo, hi, lam, nu, gamma, 2000)
        points = grid[2]
        assert points >= 2000
        assert max(_step_parameter(grid, lam, nu, gamma, e) for e in (lo, hi)) <= _MAX_STEP_PARAM
        if points > 2000:
            assert max(_step_parameter(grid, lam, nu, gamma, e, points - 1) for e in (lo, hi)) > _MAX_STEP_PARAM
        return points

    def test_seeded_windows(self):
        sizes = [self.check(*window) for window in _seeded_windows(400)]
        assert sum(n > 2000 for n in sizes) >= 10

    @pytest.mark.parametrize("lam,nu,gamma,E,ratio", STEEP_WINDOWS)
    def test_steep_wall_and_floor_windows(self, lam, nu, gamma, E, ratio):
        # on 2000 points nu = 1000 had a step parameter of 131
        assert self.check(lam, nu, gamma, E, *sorted((E / ratio, E * ratio))) > 2000


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
        grid = _grid(0.5 * (e0 + e4), lo, hi, lam, nu, gamma, 4000)
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
        grid = _grid(E, E - half, E + half, lam, nu, gamma, 2000)
        phase, nodes = _miss(E, lam, nu, gamma, grid)
        delta = 1e-6 * abs(E)
        slope = (_miss(E + delta, lam, nu, gamma, grid)[0] - _miss(E - delta, lam, nu, gamma, grid)[0]) / (2.0 * delta)
        assert slope > 0.0
        assert abs(phase - n * math.pi) <= slope * 0.125 * _REFINE_REL_TOL * abs(E)
        assert nodes == n
