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
# grows the polish grid past its 1200 points, and the level lands 5.8e-10 off)
EDGE_LEVELS = [
    (-1.0, -1.9, 0.0, -615213.7453073594),
    (-1.0, -1.9, 20.0, -2.009996814195108e-52),
    (1.0, 40.0, 0.0, 7.298830304314035),
    (1.0, 40.0, 20.0, 491.3119597043506),
]

# (lam, nu, gamma, n, level): high levels whose N and 2N - 1 point levels
# differ on the 1200-point polish grid, so the polish moves to its 2N - 1 point
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
        # solve lies 1.1e-7 higher, within the 1e-6 N-vs-2N check
        got = shoot_eigenvalue(PowerLaw(1.0, 1000.0), 0.0, 0)
        assert got == pytest.approx(9.623231764280465, rel=1e-10, abs=0)
        assert got < math.pi**2

    @pytest.mark.parametrize("nu", [250.0, 500.0, 1000.0])
    def test_steep_walls_meet_the_well_of_effective_radius(self, nu):
        # near r = 1, with s = nu ln r, the zero-energy solution of r**nu is
        # K_0(2 e^{s/2}/nu), whose small-argument form vanishes at
        # s = 2 (ln nu - gamma_E): the wall acts as a well of radius a_eff.
        # The relative miss is negative, and over gamma, n it is
        # 2.10..3.35 times (ln nu / nu)**2
        a_eff = 1.0 + 2.0 * (math.log(nu) - 0.5772156649015329) / nu
        for gamma in (0.0, 4.0):
            for n in (0, 10):
                well = math.pi**2 * well_exact_spectrum(gamma, 1.0, n + 1)[n] / a_eff**2
                miss = shoot_eigenvalue(PowerLaw(1.0, nu), gamma, n) / well - 1.0
                assert -4.0 < miss / (math.log(nu) / nu) ** 2 < -2.0, (gamma, n)

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
        # the unit-coupling level 9.6232317643 times (1e-300)**(2/1002); solving
        # at lam = 1e-300 itself would put the turning point past r = 2
        got = shoot_eigenvalue(PowerLaw(1e-300, 1000.0), 0.0, 0)
        assert got == pytest.approx(9.623231764280465 * 1e-300 ** (1.0 / 501.0), rel=1e-10, abs=0)
        assert f"{got:.12g}" == "2.42392149622"

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

    @pytest.mark.parametrize("gamma", [0.0, 4.0, 1e4])
    @pytest.mark.parametrize("nu", [-1.9999, -1.99, -1.0, -0.05, 0.05, 1.0, 2.0, 100.0, 1000.0, 2000.0])
    def test_edge_walk_ends(self, nu, gamma):
        # the search's windows at y = -_MAX_Y, 0 and _MAX_Y: each gives a
        # grid or raises ConvergenceError.  The walk to the outer edge has
        # no step cap; from ln((nu + 2) / 2) / nu past its start on,
        # kappa >= gamma + 1/2, so it ends within the steps that take the
        # decay integral to _DECAY_TARGET at that rate
        sign = math.copysign(1.0, nu)
        width = min(1.0, abs(nu)) * math.log(oracles._SEARCH_RATIO)
        dx = 0.2 / max(nu + 2.0, 2.0)
        for y in (-oracles._MAX_Y, 0.0, oracles._MAX_Y):
            E = sign * math.exp(sign * y)
            lo, hi = sorted(sign * math.exp(sign * (y + d)) for d in (-width, width))
            try:
                x0, h, points, *_ = _grid(E, lo, hi, sign, nu, gamma, oracles._START_POINTS)
            except ConvergenceError:
                continue
            xs = math.log(2.0 * hi / ((nu + 2.0) * sign)) / nu
            steps = round((x0 + (points - 1) * h - xs) / dx)
            assert steps <= (math.log((nu + 2.0) / 2.0) / nu + oracles._DECAY_TARGET / (gamma + 0.5)) / dx + 2, y

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
        # polish on `points` and cap every grid at the polish grid's first
        # refinement, so that neither check may grow a grid: the step bound
        # (too coarse, here on the search window) or the nested levels (differ)
        monkeypatch.setattr(oracles, "_START_POINTS", points)
        monkeypatch.setattr(oracles, "_MAX_POINTS", 2 * points - 1)
        with pytest.raises(ConvergenceError, match=message):
            shoot_eigenvalue(PowerLaw(lam, nu), 0.0, n)

    @pytest.mark.parametrize(
        "lam,nu,gamma,n,largest,walked",
        [
            (1.0, 800.0, 0.0, 0, 58_439, 20_999),
            (-1.0, -1.5, 0.5, 10, 4861, 2533),
            (1.0, 2.0, 0.0, 0, 2399, 1063),
            (-1.0, -1.95, 0.0, 0, 10_169, 3683),
        ],
        ids=["800-g0-n0", "-1.5-g0.5-n10", "2-g0-n0", "-1.95-g0-n0"],
    )
    def test_grids_grow_only_where_a_check_asks(self, kernel_sizes, miss_grids, lam, nu, gamma, n, largest, walked):
        # largest counts the whole grid from its inner edge, as the checks
        # do; the walk starts further out, on a tail where the power law's
        # series edge binds and on a confined grid where the energy rows'
        # does, so the kernels see fewer points
        shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        assert max(grid[2] for grid in miss_grids) == largest <= oracles._MAX_POINTS
        assert max(kernel_sizes) == walked

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


# (lam, nu, exact level) at gamma = 0, n = 0, and the measured relative
# error: the three fixed states that perfbench's shoot_oracle census
# solves against exact levels in every run.  Its max_rel_err, the largest
# error of the census, was the Airy ground level's (1.0247e-11) at each of
# 12 seeds, its seeded states staying below it.
# Pinned at the measured errors, rounded up, so that a change that re-rolls
# the last digits toward that metric's 25 % bound fails here first
CENSUS_ANCHORS = [
    pytest.param(-1.0, -1.0, -0.25, 6.91e-12, id="coulomb"),
    pytest.param(1.0, 2.0, 3.0, 7.73e-12, id="oscillator"),
    pytest.param(1.0, 1.0, 2.338107410459767, 1.025e-11, id="airy"),
]


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
        x0, h, points, im, scale, start = _grid(E, *window, lam, nu, gamma, oracles._START_POINTS)
        levels = [
            _level_on((x0, h / k, k * (points - 1) + 1, k * im, scale, k * start), lam, nu, gamma, n, E) for k in (1, 2, 4)
        ]
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

    @pytest.mark.parametrize("lam,nu,exact,error", CENSUS_ANCHORS)
    def test_census_anchor_errors(self, lam, nu, exact, error):
        got = shoot_eigenvalue(PowerLaw(lam, nu), 0.0, 0)
        assert abs(got / exact - 1.0) <= error


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

    @pytest.mark.parametrize("nu_p,bound", [(-1.9, 1.0e-9), (-1.95, 2.8e-9), (-1.99, 7e-10)])
    def test_floor_matches_its_steep_wall_dual(self, nu_p, bound):
        # the floor's duals are steep walls, nu = 38, 78 and 398, with gamma
        # up to 899.5.  The tail state solves at lam' = -E (nu'/nu)**2 and
        # must land on E' = -(nu'/nu)**2.  E' scales as |lam'|**(2/(nu' + 2)),
        # so a relative miss eps of the steep wall's level shows here as
        # 2 eps/(nu' + 2), beside the floor's own.  Worst misses over gamma'
        # and n: 9.4e-10, 2.7e-9 (gamma' = 1.5, n = 10) and 6.8e-10
        nu = -2.0 * nu_p / (nu_p + 2.0)
        worst = 0.0
        for gamma_p in (0.0, 0.5, 1.5, 4.0):
            gamma = ((gamma_p + 0.5) * (nu + 2.0) - 1.0) / 2.0
            for n in (0, 3, 10):
                level = shoot_eigenvalue(PowerLaw(1.0, nu), gamma, n)
                nu_d, e_d, lam_d, gamma_d = duality_map(nu, level, 1.0, gamma)
                assert nu_d == pytest.approx(nu_p, rel=1e-15, abs=0)
                assert gamma_d == pytest.approx(gamma_p, abs=1e-15)
                got = shoot_eigenvalue(PowerLaw(lam_d, nu_d), gamma_d, n)
                worst = max(worst, abs(got / e_d - 1.0))
        assert worst <= bound


@pytest.fixture
def kernel_sizes(monkeypatch):
    """The points each Numerov kernel call walks: the grid from its walk start."""
    sizes = []
    for name in ("numerov_count", "numerov_match"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *a, k=kernel: sizes.append(a[6]) or k(*a))
    return sizes


@pytest.fixture
def miss_grids(monkeypatch):
    """The grid of each miss-distance evaluation, as _grid builds it."""
    grids = []
    monkeypatch.setattr(oracles, "_miss", lambda E, *a, miss=_miss: grids.append(a[-1]) or miss(E, *a))
    return grids


def _bench_shoot_states():
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_shoot.py"
    spec = importlib.util.spec_from_file_location("bench_shoot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STATES


class TestSweepCount:
    # the benchmark's states in perfbench's strata; its nested_* states are
    # pinned in test_each_nested_grid_solves_once, and its floor_* states
    # lie below the strata
    @pytest.mark.parametrize(
        "name,lam,nu,gamma,n", [s for s in _bench_shoot_states() if s[0].startswith(("tail", "confined"))]
    )
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
        [(1.0, 2.0, 0.0, 20, 10), (-1.0, -1.0, 0.0, 20, 10), (1.0, 3.0, 0.0, 20, 14), (-1.0, -1.5, 0.5, 10, 10)],
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


# (lam, nu, gamma, n, repr of the level): the states of
# benchmarks/bench_shoot.py, one per stratum of perfbench's shoot_oracle
# workload plus four whose polish refines past 2N - 1 points and two near
# the nu = -2 floor
PINNED_LEVELS = [
    pytest.param(-1.0, -1.0, 0.5, 0, "-0.11111111111075342", id="tail_coulomb_n0_q0"),
    pytest.param(-1.0, -1.0, 1.5, 1, "-0.020408163265271825", id="tail_coulomb_n1_q1"),
    pytest.param(-1.0, -1.275, 1.5, 0, "-0.00730245602034944", id="tail_strong_n0_q1"),
    pytest.param(-1.0, -1.275, 0.5, 1, "-0.009684848491987372", id="tail_strong_n1_q0"),
    pytest.param(-1.0, -0.875, 0.5, 0, "-0.15230804113693072", id="tail_weak_n0_q0"),
    pytest.param(-1.0, -0.875, 1.5, 1, "-0.040292680850283834", id="tail_weak_n1_q1"),
    pytest.param(1.75, 2.0, 1.3, 2, "17.991108915236907", id="confined_oscillator"),
    pytest.param(1.0, 1.0, 0.0, 2, "5.520559828106934", id="confined_airy"),
    pytest.param(1.0, 1.0, 1.3, 2, "6.408777483155739", id="confined_linear"),
    pytest.param(1.0, 0.55, 1.3, 1, "3.1463070012435184", id="confined_nu_0.55"),
    pytest.param(1.0, 2.6, 1.3, 1, "12.147429573363091", id="confined_nu_2.6"),
    pytest.param(1.0, 8.0, 1.3, 1, "27.678650643079003", id="confined_nu_8"),
    pytest.param(-1.0, -1.0, 0.0, 20, "-0.0005668934240348708", id="nested_coulomb_n20"),
    pytest.param(1.0, 2.0, 0.0, 20, "83.0000000054735", id="nested_oscillator_n20"),
    pytest.param(1.0, 3.0, 0.0, 20, "184.951759612182", id="nested_nu3_n20"),
    pytest.param(-1.0, -1.5, 0.5, 10, "-6.50481294919003e-07", id="nested_tail_n10"),
    pytest.param(-1.0, -1.95, 1.5, 3, "-9.108730742305947e-34", id="floor_nu_-1.95"),
    pytest.param(-1.0, -1.99, 1.5, 3, "-9.948286749722503e-138", id="floor_nu_-1.99"),
]


class TestPinnedLevels:
    @pytest.mark.parametrize("lam,nu,gamma,n,level", PINNED_LEVELS)
    def test_level_bits(self, lam, nu, gamma, n, level):
        # bit-level levels of the whole solve; a refactor of the sweep,
        # the grid or the search must keep them
        assert repr(shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)) == level


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
    x0, h, count = grid[:3]
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


def _seeded_and_steep_windows():
    """_seeded_windows(400), then the STEEP_WINDOWS as (lam, nu, gamma, E, lo, hi)."""
    yield from _seeded_windows(400)
    for lam, nu, gamma, E, ratio in (p.values for p in STEEP_WINDOWS):
        yield lam, nu, gamma, E, *sorted((E / ratio, E * ratio))


class TestSearchGridSizing:
    # the search's window grids get the least N on which the step parameter
    # stays within the bound; only the polish grid and its refinements,
    # whose levels make the Richardson pair, have at least _START_POINTS

    @staticmethod
    def least_within_bound(grid, lam, nu, gamma, lo, hi):
        """Whether grid keeps h**2 |g| / 12 within the bound for both ends of
        [lo, hi] on its N points and would break it on N - 1."""
        points = grid[2]
        return max(_step_parameter(grid, lam, nu, gamma, e) for e in (lo, hi)) <= _MAX_STEP_PARAM < max(
            _step_parameter(grid, lam, nu, gamma, e, points - 1) for e in (lo, hi)
        )

    @pytest.mark.parametrize(
        "name,lam,nu,gamma,n", [s for s in _bench_shoot_states() if s[0].startswith(("tail", "confined"))]
    )
    def test_benchmark_states(self, monkeypatch, miss_grids, name, lam, nu, gamma, n):
        # one search window each, on 319-572 points; the polish grid and its
        # refinement on 1200 and 2399
        windows = []
        monkeypatch.setattr(oracles, "_grid", lambda *a, grid=_grid: windows.append((a, grid(*a))) or windows[-1][1])
        shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        *search, (_, polish) = windows
        for (E, lo, hi, unit, *_), grid in search:
            assert grid[2] < oracles._START_POINTS
            assert self.least_within_bound(grid, unit, nu, gamma, lo, hi)
        polished = miss_grids[miss_grids.index(polish):]
        assert {grid[2] for grid in polished} == {polish[2], 2 * polish[2] - 1}
        assert all(grid[2] >= oracles._START_POINTS for grid in polished)

    def test_seeded_windows(self):
        # with no floor, as the search calls it, every window gets the step
        # bound's N: 145 points at least here, the walk start 50 or more
        # below im
        for lam, nu, gamma, E, lo, hi in _seeded_and_steep_windows():
            grid = _grid(E, lo, hi, lam, nu, gamma, 0)
            _, _, points, im, _, start = grid
            assert self.least_within_bound(grid, lam, nu, gamma, lo, hi), (lam, nu, gamma, E)
            assert points >= 100 and 0 < start <= im - 25, (lam, nu, gamma, E)


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


# tail states from the nu = -2 floor to -0.2, whose outward walk starts
# where the regular series is exact, well out from the grid's inner edge
WALK_NUS = (-1.99, -1.95, -1.9, -1.8, -1.5, -0.5, -0.2)
WALK_GAMMAS = (0.0, 1.5, 4.0)
WALK_NS = (0, 3, 10)
# confined states, whose walk starts where the series' five energy rows are exact
CONFINED_WALK_NUS = (0.2, 0.55, 1.0, 2.0, 2.6, 8.0, 12.0)
CONFINED_WALK_GAMMAS = (0.0, 1.5, 4.0, 20.0)


def _inner_edge_reach(gamma):
    """oracles._series_reach as the grid's inner edge: |E| r**2 = _INNER_EPS (gamma + 1/2)**2."""
    return math.log(oracles._INNER_EPS * (gamma + 0.5) ** 2)


class TestWalkStart:
    def test_windows_keep_the_walk_start_well_below_im(self, monkeypatch):
        # the grid (x0, h, N, im) is built from the inner edge as before; the
        # kernels get it from the walk start, which stays hundreds of points
        # below the matching index (596 at least here), far from its cap im - 2
        walks = []
        monkeypatch.setattr(_kernels, "numerov_match", lambda *a: walks.append(a[4:]) or (0, 1.0, 1.0, 0, 1.0, 1.0))
        for lam, nu, gamma, E, lo, hi in _seeded_and_steep_windows():
            grid = _grid(E, lo, hi, lam, nu, gamma, 2000)
            x0, h, points, im, _, start = grid
            c = (gamma + 0.5) ** 2
            inner = min(
                math.log(oracles._INNER_EPS * c / abs(lam)) / (nu + 2.0),
                0.5 * math.log(oracles._INNER_EPS * c / max(abs(lo), abs(hi))),
            )
            assert x0 == inner and 0 < start and im - start >= 500, (nu, gamma, E)
            _miss(E, lam, nu, gamma, grid)
            assert walks.pop() == (x0 + start * h, h, points - start, im - start)

    def test_walk_start_is_capped_below_im(self, monkeypatch):
        # with every edge pushed past the grid, the walk starts at im - 2,
        # the last start from which the outward walk still reaches im + 1
        monkeypatch.setattr(oracles, "_SERIES_EPS", 1e300)
        monkeypatch.setattr(oracles, "_SERIES_TERM", 1e300)
        monkeypatch.setattr(oracles, "_series_reach", lambda gamma: 1e3)
        grid = _grid(3.0, 2.9, 3.1, 1.0, 2.0, 0.0, 2000)
        assert grid[5] == grid[3] - 2
        phase, nodes = _miss(3.0, 1.0, 2.0, 0.0, grid)
        assert math.isfinite(phase) and nodes >= 0

    @pytest.mark.parametrize("nu", CONFINED_WALK_NUS)
    def test_confined_levels_match_the_walk_from_the_inner_edge(self, monkeypatch, kernel_sizes, miss_grids, nu):
        # with the energy walk edge back at the inner edge's 1e-6 the walk
        # starts at x0, as it did on the three-row series; the levels agree
        # to 1e-11 (2.3e-12 measured) on 0.39-0.70 of the walked points
        for gamma in CONFINED_WALK_GAMMAS:
            for n in WALK_NS:
                kernel_sizes.clear()
                miss_grids.clear()
                got = shoot_eigenvalue(PowerLaw(1.0, nu), gamma, n)
                walked = sum(kernel_sizes)
                assert all(grid[5] > 0 for grid in miss_grids)
                kernel_sizes.clear()
                miss_grids.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(oracles, "_series_reach", _inner_edge_reach)
                    want = shoot_eigenvalue(PowerLaw(1.0, nu), gamma, n)
                assert all(grid[5] == 0 for grid in miss_grids)
                assert abs(got / want - 1.0) <= 1e-11, (gamma, n)
                assert walked < 0.8 * sum(kernel_sizes), (gamma, n)

    @pytest.mark.parametrize("nu", WALK_NUS)
    def test_tail_levels_match_the_walk_from_the_inner_edge(self, monkeypatch, kernel_sizes, miss_grids, nu):
        # with both series edges back at the inner edge's 1e-6 the walk starts
        # at x0, as it did on the two-term series; the levels agree to 1e-11
        # (1.1e-12 measured, at nu = -1.99, n = 10) on fewer walked points
        for gamma in WALK_GAMMAS:
            for n in WALK_NS:
                kernel_sizes.clear()
                miss_grids.clear()
                got = shoot_eigenvalue(PowerLaw(-1.0, nu), gamma, n)
                walked = sum(kernel_sizes)
                assert all(grid[5] > 0 for grid in miss_grids)
                kernel_sizes.clear()
                miss_grids.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(oracles, "_SERIES_EPS", oracles._INNER_EPS)
                    patch.setattr(oracles, "_series_reach", _inner_edge_reach)
                    want = shoot_eigenvalue(PowerLaw(-1.0, nu), gamma, n)
                assert all(grid[5] == 0 for grid in miss_grids)
                assert abs(got / want - 1.0) <= 1e-11, (gamma, n)
                assert walked < sum(kernel_sizes), (gamma, n)

    def test_floor_walk_stays_off_cancellation(self, miss_grids):
        # at nu = -1.999 the series edge alone would put the walk where the
        # series' first term ratio is 22.5 and its alternating sum loses
        # every digit; _SERIES_TERM holds the walk start to a ratio of 4
        with pytest.raises(ConvergenceError, match=r"_MAX_Y = 650"):
            shoot_eigenvalue(PowerLaw(-1.0, -1.999), 4.0, 0)
        assert miss_grids
        for x0, h, _, _, _, start in miss_grids:
            ratio = math.exp(0.001 * (x0 + start * h)) / (0.001 * 9.001)
            assert 3.9 < ratio <= oracles._SERIES_TERM


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
