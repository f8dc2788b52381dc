"""Kernel checks: one NumPy/Python implementation per kernel."""

import inspect
import math
import random

import numpy as np
import pytest

import reference_numerov
from abwkb import _kernels, action, closed_form, oracles
from abwkb.model import PowerLaw

# (E, lam, nu, gamma, x0, h, n, im) -> (repr of numerov_count, repr of numerov_match),
# on the grid x_i = x0 + i h, r = e^x
PINNED_SWEEPS = [
    # Coulomb tail: one node outward of im, two inward
    pytest.param((-0.02, -1.0, -1.0, 0.0, -15.0, 0.01, 2100, 1700), "3", "(1, -0.9999496100967846, -0.10399780730967478, 2, 0.9999496100967846, -10.392003615256545)", id="coulomb_tail"),
    # confined oscillator, im at either end of the grid
    pytest.param((11.3, 1.0, 2.0, 1.0, -7.0, 0.005, 2000, 2), "2", "(0, 1.0000046875020017, 1.5000191764721338, 2, 1.0000046875020017, -1.5000115007021808)", id="oscillator_im_inner"),
    pytest.param((11.3, 1.0, 2.0, 1.0, -7.0, 0.005, 2000, 1996), "2", "(2, 1.4365402250630068, 1007.831839915597, 0, 1.4365402250630068, -991.2097668728675)", id="oscillator_im_outer"),
    # nu = -1.5 tail, im at the turning point
    pytest.param((-0.05, -0.7, -1.5, 0.5, -27.0, 0.0157, 2000, 1773), "0", "(0, 1.0000041676648652, 0.5774448579020006, 0, 1.0000041676648652, -0.7815604695839874)", id="nu_-1.5_turning_point"),
    # linear well, one node on each side of im
    pytest.param((6.0, 1.0, 1.0, 0.0, -8.0, 0.005, 2000, 1750), "3", "(1, -0.9999642671131646, 0.3274249600716428, 1, -0.9999642671131646, -9.399894184949076)", id="linear_well"),
    # deep forbidden region: u spans more than the double range
    pytest.param((0.5, 1.0, 2.0, 0.0, -2.0, 0.0005, 11901, 1000), "0", "(0, 1.0000000047413589, 0.49218360698977115, 0, 1.0000000047413589, -0.6195139664405547)", id="deep_forbidden"),
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
    nodes_out, uo_m1, uo_0, uo_p1 = reference_numerov._outward(E, lam, nu, gamma, x0, h, im)
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
    x0, h, n, im, scale = oracles._grid(E, *sorted((0.9 * E, E / 0.9)), lam, nu, gamma, 2000)
    return E, lam, nu, gamma, x0, h, n, im, scale


class TestAgainstReferenceRecurrence:
    # the ratio recurrence does the scalar one's arithmetic in another
    # order; node counts must match exactly and the Prufer angles
    # atan2(S u, u') mod pi, all the oracle reads, to 1e-9 (5e-12 measured)
    @staticmethod
    def check(E, lam, nu, gamma, x0, h, n, im, scale):
        assert _kernels.numerov_count(E, lam, nu, gamma, x0, h, n) == reference_numerov._outward(
            E, lam, nu, gamma, x0, h, n - 1
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
