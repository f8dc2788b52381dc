"""Kernel checks: one NumPy/Python implementation per kernel."""

import inspect
import math
import pathlib
import random
import runpy

import numpy as np
import pytest

import reference_numerov
from abwkb import _kernels, action, closed_form, oracles
from abwkb.errors import ConvergenceError
from abwkb.model import InfiniteWell, PowerLaw

# (E, lam, nu, gamma, x0, h, n, im) -> (repr of numerov_count, repr of numerov_match),
# on the grid x_i = x0 + i h, r = e^x
PINNED_SWEEPS = [
    # Coulomb tail: one node outward of im, two inward
    pytest.param((-0.02, -1.0, -1.0, 0.0, -15.0, 0.01, 2100, 1700), "3", "(1, -0.9999496100967846, -0.10399780730967478, 2, 0.9999496100967846, -10.392003615256545)", id="coulomb_tail"),
    # confined oscillator, im at either end of the grid
    pytest.param((11.3, 1.0, 2.0, 1.0, -7.0, 0.005, 2000, 2), "2", "(0, 1.0000046875020017, 1.500019176473455, 2, 1.0000046875020017, -1.5000115007021808)", id="oscillator_im_inner"),
    pytest.param((11.3, 1.0, 2.0, 1.0, -7.0, 0.005, 2000, 1996), "2", "(2, 1.4365402250630068, 1007.831839915597, 0, 1.4365402250630068, -991.2097668728675)", id="oscillator_im_outer"),
    # nu = -1.5 tail, im at the turning point
    pytest.param((-0.05, -0.7, -1.5, 0.5, -27.0, 0.0157, 2000, 1773), "0", "(0, 1.0000041676648652, 0.5774448579020006, 0, 1.0000041676648652, -0.7815604695839874)", id="nu_-1.5_turning_point"),
    # linear well, one node on each side of im
    pytest.param((6.0, 1.0, 1.0, 0.0, -8.0, 0.005, 2000, 1750), "3", "(1, -0.9999642671131646, 0.3274249600716428, 1, -0.9999642671131646, -9.399894184949076)", id="linear_well"),
    # deep forbidden region: u spans more than the double range
    pytest.param((0.5, 1.0, 2.0, 0.0, -2.0, 0.0005, 11901, 1000), "0", "(0, 1.0000000047413589, 0.49218525876448815, 0, 1.0000000047413589, -0.6195139664405547)", id="deep_forbidden"),
]


class TestNumerov:
    def test_rescaling_keeps_counts_finite(self):
        # deep classically forbidden sweep grows like exp(r**2 / 2), past the
        # double range; the ratio recurrence never holds u itself, so the
        # count and the matching values stay finite
        args = (0.5, 1.0, 2.0, 0.0, -2.0, 0.0005, 11901)
        count = _kernels.numerov_count(*args)
        assert count >= 0
        for im in (1000, 11897):
            _, uo, do, _, ui, di = _kernels.numerov_match(*args, im)
            for value in (uo, do, ui, di):
                assert math.isfinite(value) and value != 0.0

    @pytest.mark.parametrize("args,count,match", PINNED_SWEEPS)
    def test_pinned_outputs(self, args, count, match):
        # bit-level values of the recurrence; a refactor of the sweep must keep them
        assert repr(_kernels.numerov_count(*args[:7])) == count
        assert repr(_kernels.numerov_match(*args)) == match


def _reference_match(E, lam, nu, gamma, x0, h, n, im):
    """numerov_match built on the scalar reference recurrence."""
    nodes_out, uo_m1, uo_0, uo_p1 = reference_numerov._outward(E, lam, nu, gamma, x0, h, n, im)
    nodes_in, ui_p1, ui_0, ui_m1 = reference_numerov._sweep(E, lam, nu, gamma, x0, h, n - 1, im, -1, 1e-280, None)
    return nodes_out, uo_0, 0.5 * (uo_p1 - uo_m1) / h, nodes_in, ui_0, 0.5 * (ui_p1 - ui_m1) / h


def _seeded_state(seed):
    """(E, lam, nu, gamma, x0, h, n, im, scale): an energy within 25% of a
    closed-form level, tail (-1.9 <= nu <= -0.1) or confined
    (0.2 <= nu <= 40), on the oracle's grid for E (1 -+ 0.1)."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        lam, nu = -math.exp(rng.uniform(-1.0, 1.0)), rng.uniform(-1.9, -0.1)
    else:
        lam, nu = math.exp(rng.uniform(-1.0, 1.0)), rng.uniform(0.2, 40.0)
    gamma = rng.choice([0.0, rng.uniform(0.0, 20.0)])
    E = closed_form.closed_form_energy(PowerLaw(lam, nu), rng.randrange(5), gamma) * rng.uniform(0.8, 1.25)
    x0, h, n, im, scale, _ = oracles._grid(E, *sorted((0.9 * E, E / 0.9)), lam, nu, gamma, 2000)
    return E, lam, nu, gamma, x0, h, n, im, scale


class TestAgainstReferenceRecurrence:
    # the ratio recurrence does the scalar one's arithmetic in another
    # order; node counts must match exactly and the Prufer angles
    # atan2(S u, u') mod pi, all the oracle reads, to 1e-9 (5e-12 measured)
    @staticmethod
    def check(E, lam, nu, gamma, x0, h, n, im, scale):
        assert _kernels.numerov_count(E, lam, nu, gamma, x0, h, n) == reference_numerov._outward(
            E, lam, nu, gamma, x0, h, n, n - 1
        )[0]
        got = _kernels.numerov_match(E, lam, nu, gamma, x0, h, n, im)
        want = _reference_match(E, lam, nu, gamma, x0, h, n, im)
        assert (got[0], got[3]) == (want[0], want[3])
        for u, du, ref_u, ref_du in ((got[1], got[2], want[1], want[2]), (got[4], got[5], want[4], want[5])):
            gap = (math.atan2(scale * u, du) - math.atan2(scale * ref_u, ref_du)) % math.pi
            assert min(gap, math.pi - gap) < 1e-9

    @pytest.mark.parametrize("args,count,match", PINNED_SWEEPS)
    def test_pinned_sweeps(self, args, count, match):
        E, lam, nu, gamma, x0, h, n, im = args
        x = x0 + im * h
        g = math.exp(2.0 * x) * (E - lam * math.exp(nu * x)) - (gamma + 0.5) ** 2
        self.check(*args, math.sqrt(max(g, (gamma + 0.5) ** 2)))

    @pytest.mark.parametrize("seed", range(50))
    def test_seeded_states(self, seed):
        self.check(*_seeded_state(seed))


class TestNumerovConvergence:
    def test_grid_convergence_fourth_order(self):
        # oscillator n = 1 (E = 7) on an x grid with pinned ends isolates the
        # O(h^4) Numerov error; halving the step should shrink it by ~16
        x0, x_end = -7.0, 1.8

        def level(h):
            n = int(round((x_end - x0) / h)) + 1

            def match(E):
                # match at the turning point ln sqrt(E): the sign of the sine
                # of the angle between the outward and inward (u, u'), and
                # the composite's node count
                im = max(2, min(n - 4, int(round((0.5 * math.log(E) - x0) / h))))
                nodes_out, uo, do, nodes_in, ui, di = _kernels.numerov_match(E, 1.0, 2.0, 0.0, x0, h, n, im)
                no, ni = math.hypot(uo, do), math.hypot(ui, di)
                return (do / no) * (ui / ni) - (uo / no) * (di / ni), nodes_out + nodes_in

            lo, hi = 6.5, 7.5
            below = match(lo)[0] < 0.0
            assert (match(hi)[0] < 0.0) != below
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                if (match(mid)[0] < 0.0) == below:
                    lo = mid
                else:
                    hi = mid
            E = 0.5 * (lo + hi)
            assert match(E)[1] == 1
            return E

        results = {step: level(step) for step in (0.1, 0.05, 0.025, 0.0125)}
        r1 = (results[0.1] - results[0.05]) / (results[0.05] - results[0.025])
        r2 = (results[0.05] - results[0.025]) / (results[0.025] - results[0.0125])
        assert 12.0 < r1 < 20.0
        assert 12.0 < r2 < 20.0


def _reference_action_sum(E, lam, nu, rc, h, kmax):
    """action_sum as it was before its node table was cached: every call
    builds the nodes and weights from scratch."""
    t = h * np.arange(-kmax, kmax + 1, dtype=np.float64)
    u = 0.5 * np.pi * np.sinh(t)
    w = 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    p = 2.0 / (nu + 2.0) if nu < 0.0 else 1.0
    if lam != 0.0:
        w *= np.sqrt(-np.expm1(-abs(nu) * p * np.log1p(np.exp(-2.0 * u))))
    return rc * math.sqrt(abs(E)) * p * float(w.sum()) * h


def _mesh(level):
    """(h, kmax) of action.action_integral_numeric's mesh level."""
    h = 1.0 / 2**level
    return h, int(math.ceil(action._T_MAX / h))


class TestActionNodeTable:
    @pytest.mark.parametrize("level", range(2, 12))
    def test_bit_identical_to_uncached_sum(self, level):
        # same elementwise values, same summation order: == floats
        h, kmax = _mesh(level)
        cases = [(-0.3, -1.0, nu) for nu in (-1.99, -1.5, -1.0, -0.5)]
        cases += [(2.0, 1.0, nu) for nu in (0.5, 1.0, 2.0, 12.0, 100.0)]
        for E, lam, nu in cases:
            args = (E, lam, nu, (E / lam) ** (1.0 / nu), h, kmax)
            assert _kernels.action_sum(*args) == _reference_action_sum(*args), nu
        well = (5.0, 0.0, 1.0, 1.0, h, kmax)  # the well: lam = 0, rc the radius
        assert _kernels.action_sum(*well) == _reference_action_sum(*well)

    def test_cache_hit_equals_miss(self):
        h, kmax = _mesh(4)
        args = (-0.3, -1.0, -0.5, 0.3**-2.0, h, kmax)
        _kernels._node_table.cache_clear()
        miss = _kernels.action_sum(*args)
        hits = _kernels._node_table.cache_info().hits
        assert _kernels.action_sum(*args) == miss
        assert _kernels._node_table.cache_info().hits == hits + 1

    def test_cached_arrays_are_read_only(self):
        w, log1p_e, _ = _kernels._node_table(*_mesh(3))
        for array in (w, log1p_e):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_cache_stays_bounded(self):
        bound = _kernels._node_table.cache_parameters()["maxsize"]
        for j in range(1, 3 * bound):  # kmax h <= 4, inside the range the kernel allows
            _kernels.action_sum(2.0, 1.0, 2.0, 1.0, 0.5 / j, 8)
        assert _kernels._node_table.cache_info().currsize == bound
        _kernels._node_table.cache_clear()


def _reference_action_integral(E, potential):
    """action.action_integral_numeric as it was before its mesh levels
    nested: every level evaluates the integrand afresh."""
    rc = action.turning_point(E, potential)
    if isinstance(potential, InfiniteWell):
        lam, nu = 0.0, 1.0
    else:
        lam, nu = potential.lam, potential.nu
    prev = math.nan
    for level in range(2, action._MAX_LEVEL + 1):
        cur = action._normal_action(_reference_action_sum(E, lam, nu, rc, *_mesh(level)), E, potential)
        delta = abs(cur - prev)
        if delta <= action._REL_TOL * abs(cur):
            return cur
        prev = cur
    raise ConvergenceError(f"action quadrature at E={E}: the two finest mesh levels differ by {delta:.3g}")


def _reference_quantize(setup, n):
    """action.quantize_energy as it was before: three record lookups and
    the per-level quadrature above."""
    if n < 0:
        raise ValueError(f"radial quantum number must be >= 0, got {n}")
    pot = setup.potential
    target = (n + setup.constant) * math.pi
    e0 = closed_form.closed_form_energy(pot, n, setup.gamma)
    s0 = _reference_action_integral(e0, pot)
    return e0 * (target / s0) ** closed_form.level_coefficients(pot).power


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, ConvergenceError) as exc:
        return type(exc), str(exc)


_WKB_INPUTS = runpy.run_path(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"))
# exponent strata: perfbench's wkb_roots light bins (tail uniform, confined
# log-uniform), the census edge toward nu = -2, and steep walls up to 1e4
NESTED_STRATA = (
    *(("uniform", lo, hi) for lo, hi in _WKB_INPUTS["_NEG_BINS"]),
    *(("log", lo, hi) for lo, hi in _WKB_INPUTS["_POS_BINS"]),
    ("uniform", -1.999, -1.87),
    ("log", 100.0, 1e4),
    ("fixed", -1.0, -1.0),
    ("fixed", 1.0, 1.0),
    ("fixed", 2.0, 2.0),
    ("well", None, None),
)


def _nested_state(stratum, seed):
    """(potential, gamma, n) drawn from a stratum: coupling or radius in
    0.5..2, gamma 0 or up to 20, n up to 40."""
    kind, lo, hi = stratum
    rng = random.Random(seed)
    size = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    gamma = rng.choice([0.0, rng.uniform(0.0, 20.0)])
    n = rng.randrange(41)
    if kind == "well":
        return InfiniteWell(size), gamma, n
    if kind == "uniform":
        nu = round(rng.uniform(lo, hi), 6)
    elif kind == "log":
        nu = round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 6)
    else:
        nu = lo
    return PowerLaw(size if nu > 0.0 else -size, nu), gamma, n


class TestNestedLevels:
    @pytest.mark.parametrize("finest", range(2, action._MAX_LEVEL + 1))
    def test_each_strided_sum_is_its_levels_sum(self, finest):
        # every level 2..finest from one evaluation at the finest mesh
        cases = [(-0.3, -1.0, nu) for nu in (-1.999, -1.99, -1.5, -1.0, -0.5, -0.02)]
        cases += [(2.0, 1.0, nu) for nu in (0.05, 0.5, 1.0, 2.0, 12.0, 100.0, 1e4)]
        for E, lam, nu in cases:
            rc = (E / lam) ** (1.0 / nu)
            got = list(_kernels.nested_action_sums(E, lam, nu, rc, *_mesh(finest), finest - 1))
            assert got == [_reference_action_sum(E, lam, nu, rc, *_mesh(level)) for level in range(2, finest + 1)], nu
        well = list(_kernels.nested_action_sums(5.0, 0.0, 1.0, 1.0, *_mesh(finest), finest - 1))
        assert well == [_reference_action_sum(5.0, 0.0, 1.0, 1.0, *_mesh(level)) for level in range(2, finest + 1)]

    def test_one_level_is_action_sum(self):
        args = (-0.3, -1.0, -0.5, 0.3**-2.0, *_mesh(6))
        assert list(_kernels.nested_action_sums(*args, 1)) == [_kernels.action_sum(*args)]

    @pytest.mark.parametrize(
        "E, potential", [(-0.25, PowerLaw(-1.0, -1.0)), (100.0, PowerLaw(1.0, 60.0)), (5.0, InfiniteWell(1.0))]
    )
    def test_no_coarser_table_is_read(self, monkeypatch, E, potential):
        # levels 2.._NESTED_LEVEL read one table, the nested level's, which
        # also holds the coarser meshes' weight sums for the well; nu = 60
        # stops at level 5, whose table is action_sum's own
        seen = []
        table = _kernels._node_table
        monkeypatch.setattr(_kernels, "_node_table", lambda h, kmax, levels=1: seen.append((h, levels)) or table(h, kmax, levels))
        action.action_integral_numeric(E, potential)
        assert seen[0] == (_mesh(action._NESTED_LEVEL)[0], action._NESTED_LEVEL - 1)
        assert seen[1:] == [(_mesh(level)[0], 1) for level in range(action._NESTED_LEVEL + 1, action._NESTED_LEVEL + len(seen))]

    @pytest.mark.parametrize("stratum", NESTED_STRATA, ids=lambda s: f"{s[0]}_{s[1]}_{s[2]}")
    @pytest.mark.parametrize("seed", range(12))
    def test_quantized_levels_match_the_per_level_loop(self, stratum, seed):
        pot, gamma, n = _nested_state(stratum, seed)
        setup = action.QuantizationSetup(pot, gamma)
        assert _outcome(action.quantize_energy, setup, n) == _outcome(_reference_quantize, setup, n)
        try:
            e0 = closed_form.closed_form_energy(pot, n, gamma)
        except ValueError:
            return
        for factor in (0.5, 1.0, 3.0):
            E = factor * e0
            assert _outcome(action.action_integral_numeric, E, pot) == _outcome(_reference_action_integral, E, pot)


def _uncached_sweep(E, lam, nu, gamma, x0, h, i, stop, step, ratio):
    """_kernels._sweep as it was before its coefficients came from the
    grid table: every walk builds x, e^{2x} and lam e^{(nu+2)x} itself,
    and ratio=None starts a decaying solution."""
    x = x0 + h * np.arange(i, stop + 2 * step, step, dtype=np.float64)
    h12 = h * h / 12.0
    f = 1.0 - h12 * (gamma + 0.5) ** 2 + h12 * E * np.exp(2.0 * x) - h12 * lam * np.exp((nu + 2.0) * x)
    a = 12.0 / f - 10.0
    m = len(x) - 2
    if ratio is None:
        ratio = math.exp(min(math.sqrt(max((1.0 - f[0]) / h12, 1e-12)) * h, 600.0))
    R = ratio * float(f[1] / f[0])
    sign = math.copysign(1.0, R)
    crossings = 0
    for a_j in a[1:m].tolist():
        R = a_j - 1.0 / R
        if R <= 0.0:
            crossings += 1
            if R == 0.0:
                R = -1e-300
    if crossings % 2:
        sign = -sign
    f_back, f_stop, f_ahead = f[m - 1 : m + 2].tolist()
    return crossings, sign / (R * f_back), sign / f_stop, sign * (float(a[m]) - 1.0 / R) / f_ahead


def _uncached_outward(E, lam, nu, gamma, x0, h, n, stop):
    return _uncached_sweep(E, lam, nu, gamma, x0, h, 0, stop, 1, _kernels._setup(E, lam, nu, gamma, x0, h, n)[2])


def _uncached_count(E, lam, nu, gamma, x0, h, n):
    return _uncached_outward(E, lam, nu, gamma, x0, h, n, n - 1)[0]


def _uncached_match(E, lam, nu, gamma, x0, h, n, im):
    nodes_out, uo_m1, uo_0, uo_p1 = _uncached_outward(E, lam, nu, gamma, x0, h, n, im)
    nodes_in, ui_p1, ui_0, ui_m1 = _uncached_sweep(E, lam, nu, gamma, x0, h, n - 1, im, -1, None)
    return nodes_out, uo_0, 0.5 * (uo_p1 - uo_m1) / h, nodes_in, ui_0, 0.5 * (ui_p1 - ui_m1) / h


class TestNumerovGridTable:
    # same elementwise coefficients, same walk: == in every field
    @staticmethod
    def check(E, lam, nu, gamma, x0, h, n, im):
        assert _kernels.numerov_count(E, lam, nu, gamma, x0, h, n) == _uncached_count(E, lam, nu, gamma, x0, h, n)
        assert _kernels.numerov_match(E, lam, nu, gamma, x0, h, n, im) == _uncached_match(E, lam, nu, gamma, x0, h, n, im)

    @pytest.mark.parametrize("args,count,match", PINNED_SWEEPS)
    def test_pinned_sweeps_bit_identical(self, args, count, match):
        self.check(*args)

    @pytest.mark.parametrize("seed", range(200))
    def test_seeded_states_bit_identical(self, seed):
        # the second energy sweeps the same grid, read from the cache
        E, lam, nu, gamma, x0, h, n, im, _ = _seeded_state(seed)
        for energy in (E, 1.01 * E):
            self.check(energy, lam, nu, gamma, x0, h, n, im)

    def test_cache_hit_equals_miss(self):
        args = PINNED_SWEEPS[0].values[0]
        _kernels._grid_table.cache_clear()
        miss = _kernels.numerov_match(*args)
        hits = _kernels._grid_table.cache_info().hits
        assert _kernels.numerov_match(*args) == miss
        assert _kernels._grid_table.cache_info().hits == hits + 1

    def test_cached_arrays_are_read_only(self):
        _, e2x, pot, rows = _kernels._grid_table(-1.0, -1.0, 0.0, -15.0, 0.01, 2100)
        for array in (e2x, pot):
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert isinstance(rows, tuple)

    def test_cache_holds_one_grid(self):
        for param in PINNED_SWEEPS[:3]:  # two grids: the oscillator cases share one
            _kernels.numerov_count(*param.values[0][:7])
        assert _kernels._grid_table.cache_info().currsize == 1
        # the series rows are part of the one record, not a cache of their own
        assert not hasattr(_kernels._series_rows, "cache_info")
        lam, nu, gamma, x0, h, n = PINNED_SWEEPS[2].values[0][1:7]
        assert _kernels._grid_table(lam, nu, gamma, x0, h, n)[3] == _kernels._series_rows(lam, nu, gamma, x0, h)

    def test_rows_built_once_per_table(self, monkeypatch):
        # bench_shoot.py's confined_oscillator state: each grid of the solve
        # (search window, polish grid, refinement) builds its series rows in
        # its one _grid_table miss, and a second sweep on a grid rebuilds
        # neither the rows nor the table
        states = runpy.run_path(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_shoot.py"))["STATES"]
        _, lam, nu, gamma, n = next(state for state in states if state[0] == "confined_oscillator")
        builds, sweeps = [], []
        rows, match = _kernels._series_rows, _kernels.numerov_match
        monkeypatch.setattr(_kernels, "_series_rows", lambda *args: builds.append(args) or rows(*args))
        monkeypatch.setattr(_kernels, "numerov_match", lambda *args: sweeps.append(args) or match(*args))
        _kernels._grid_table.cache_clear()
        oracles.shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        misses = _kernels._grid_table.cache_info().misses
        assert len(builds) == misses == 3
        E, *grid = sweeps[-1]
        match(1.01 * E, *grid)
        assert (len(builds), _kernels._grid_table.cache_info().misses) == (misses, misses)


def _list_sweep(f, a, ratio):
    """_kernels._sweep's walk over a list of a[1:m], as it ran before it read a memoryview."""
    m = len(f) - 2
    R = ratio * float(f[1] / f[0])
    sign = math.copysign(1.0, R)
    crossings = 0
    for a_j in a[1:m].tolist():
        R = a_j - 1.0 / R
        if R <= 0.0:
            crossings += 1
            if R == 0.0:
                R = -1e-300
    if crossings % 2:
        sign = -sign
    f_back, f_stop, f_ahead = f[m - 1 : m + 2].tolist()
    return crossings, sign / (R * f_back), sign / f_stop, sign * (float(a[m]) - 1.0 / R) / f_ahead


class TestNodeOnGridPoint:
    # constant f, ratio 2 gives R = 2.0; then a_1 = 0.5 gives R = 0.5 - 1/2.0 == 0.0
    # exactly, a node on the grid point, which the walk passes as R = -1e-300
    F = 0.8
    A = [3.0, 0.5, 2.5, 2.5, 2.5, 2.5, 3.0]  # m = 5: the walk reads a[1:5], then a[5]

    @classmethod
    def views(cls):
        f, a = np.full(len(cls.A), cls.F), np.array(cls.A)
        padded_f = np.full(len(cls.A) + 2, cls.F)
        padded_a, rev_a = np.array([9.0, *cls.A, 9.0]), np.array([9.0, *cls.A[::-1], 9.0])
        ro_f, ro_a = f.copy(), a.copy()
        ro_f.flags.writeable = ro_a.flags.writeable = False
        return {
            "array": (f, a),
            "forward_view": (padded_f[1:-1], padded_a[1:-1]),
            "reversed_view": (padded_f[1:-1][::-1], rev_a[1:-1][::-1]),
            "read_only": (ro_f, ro_a),
        }

    @pytest.mark.parametrize("shape", ["array", "forward_view", "reversed_view", "read_only"])
    def test_node_on_grid_point_is_counted(self, shape):
        f, a = self.views()[shape]
        assert a.tolist() == self.A
        out = _kernels._sweep(f, a, 2.0)
        assert out == _list_sweep(f, a, 2.0)
        # R: 2 -> 0 (passed as -1e-300) -> 2.5 + 1e300 -> 2.5 -> 2.5 - 1/2.5 = 2.1, one sign change
        assert out[0] == 1
        assert all(math.isfinite(v) for v in out[1:])
        assert out[1:] == pytest.approx((-1.0 / (2.1 * self.F), -1.0 / self.F, -(2.5 - 1.0 / 2.1) / self.F))


def _series_terms(E, lam, nu, gamma, x, rows, count):
    """Terms c_ab r**(2a + (nu+2)b) of the regular series, a < rows, b < count,
    r = e^x, each from c_ab s(s + 2 gamma + 1) = lam c_a(b-1) - E c_(a-1)b."""
    r2, t = math.exp(2.0 * x), lam * math.exp((nu + 2.0) * x)
    terms = [[0.0] * count for _ in range(rows)]
    for a in range(rows):
        for b in range(count):
            s = 2.0 * a + (nu + 2.0) * b
            if s == 0.0:
                terms[a][b] = 1.0
            else:
                lam_part = t * terms[a][b - 1] if b else 0.0
                energy_part = E * r2 * terms[a - 1][b] if a else 0.0
                terms[a][b] = (lam_part - energy_part) / (s * (s + 2.0 * gamma + 1.0))
    return terms


# (lam, nu, gamma, n): the tail states of test_oracles.TestWalkStart, and
# confined states from nu = 0.2 to the steep walls
WALK_STATES = [
    (-1.0, nu, gamma, n) for nu in (-1.99, -1.95, -1.9, -1.8, -1.5, -0.5, -0.2) for gamma in (0.0, 1.5, 4.0) for n in (0, 3, 10)
] + [
    (1.0, nu, gamma, n)
    for nu in (0.2, 0.55, 1.0, 2.0, 2.6, 8.0, 12.0, 100.0, 400.0)
    for gamma in (0.0, 1.5, 4.0, 20.0)
    for n in (0, 3, 10)
]
ROWS = 5  # the energy rows _kernels._series_rows sums


class TestSeriesStart:
    @pytest.fixture(scope="class")
    def walk_starts(self):
        """(E, lam, nu, gamma, x0, h, n) of every outward walk of the solves of WALK_STATES."""
        starts = set()
        kernel = _kernels.numerov_match

        def record(E, lam, nu, gamma, x0, h, n, im):
            starts.add((E, lam, nu, gamma, x0, h, n))
            return kernel(E, lam, nu, gamma, x0, h, n, im)

        _kernels.numerov_match = record
        try:
            for lam, nu, gamma, n in WALK_STATES:
                oracles.shoot_eigenvalue(PowerLaw(lam, nu), gamma, n)
        finally:
            _kernels.numerov_match = kernel
        return sorted(starts)

    def test_first_omitted_terms_below_rounding(self, walk_starts):
        # the kernel sums rows a <= 4 until each row's terms fall below
        # 2**-53 of its sum; past that, each row's next term and row 5's
        # first term are below 2**-52 of the series (0.27 of it at worst),
        # on tails and on confined walks alike
        assert len(walk_starts) > 1400
        assert {lam for _, lam, *_ in walk_starts} == {-1.0, 1.0}
        for E, lam, nu, gamma, x0, h, _ in walk_starts:
            for x in (x0, x0 + h):
                terms = _series_terms(E, lam, nu, gamma, x, ROWS + 1, 80)
                stop = next(
                    b for b in range(1, 79)
                    if all(abs(row[b]) <= 2.0**-53 * abs(sum(row[: b + 1])) for row in terms[:ROWS])
                )
                total = abs(sum(sum(row[: stop + 1]) for row in terms[:ROWS]))
                omitted = [row[stop + 1] for row in terms[:ROWS]] + [terms[ROWS][0]]
                assert max(map(abs, omitted)) < 2.0**-52 * total, (nu, gamma, E)

    def test_ratio_is_the_series_ratio(self, walk_starts):
        # against rows a <= 4 summed here in another order: 7.8e-16 apart at
        # worst, where the rows a <= 2 alone would be 7.7e-11 off
        for E, lam, nu, gamma, x0, h, n in walk_starts:
            u0, u1 = (math.fsum(map(math.fsum, _series_terms(E, lam, nu, gamma, x, ROWS, 80))) for x in (x0, x0 + h))
            want = math.exp((gamma + 0.5) * h) * u1 / u0
            assert _kernels._setup(E, lam, nu, gamma, x0, h, n)[2] == pytest.approx(want, rel=2e-15, abs=0)


class TestTracedSignatures:
    # perfbench/tracing.py wraps these names and reads their positional arguments
    @pytest.mark.parametrize(
        "name,index,param",
        [("numerov_count", 6, "n"), ("numerov_match", 6, "n"), ("action_sum", 5, "kmax")],
    )
    def test_positional_parameter(self, name, index, param):
        params = list(inspect.signature(getattr(_kernels, name)).parameters)
        assert params[index] == param


class TestBackendSelection:
    def test_backend_reported(self):
        assert _kernels.BACKEND == "numpy"


class TestFallbackEndToEnd:
    def test_action_and_shoot_on_numpy_backend(self):
        # Coulomb ground-state action at E = -1/4 is exactly pi
        E = -0.25
        val = _kernels.action_sum(E, -1.0, -1.0, 4.0, 1.0 / 64.0, 385)
        assert val == pytest.approx(math.pi, abs=1e-9)
