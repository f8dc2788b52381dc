"""Kernel checks: one NumPy/Python implementation per kernel."""

import inspect
import math

import pytest

from abwkb import _kernels

# (E, lam, nu, gamma, x0, h, n, im) -> (repr of numerov_count, repr of numerov_match),
# on the grid x_i = x0 + i h, r = e^x
PINNED_SWEEPS = [
    # Coulomb tail: one node outward of im, two inward
    pytest.param((-0.02, -1.0, -1.0, 0.0, -15.0, 0.01, 2100, 1700), "3", "(1, -642.5785965995448, -66.83013263504449, 2, 1.1882350787910041e-262, -1.2348765487674495e-261)", id="coulomb_tail"),
    # confined oscillator, im at either end of the grid
    pytest.param((11.3, 1.0, 2.0, 1.0, -7.0, 0.005, 2000, 2), "2", "(0, 1.0151120915190381, 1.5226804659795645, 2, 1.8818211749912275e-195, -2.8227401731520176e-195)", id="oscillator_im_inner"),
    pytest.param((11.3, 1.0, 2.0, 1.0, -7.0, 0.005, 2000, 1996), "2", "(2, 2.2449610728097948e+80, 1.5749947053863757e+83, 0, 3.786234927561452e-278, -2.6124942235498424e-275)", id="oscillator_im_outer"),
    # nu = -1.5 tail, im at the turning point
    pytest.param((-0.05, -0.7, -1.5, 0.5, -27.0, 0.0157, 2000, 1773), "0", "(0, 507368854480.9119, 292976315052.638, 0, 9.107311673105736e-273, -7.117885122921022e-273)", id="nu_-1.5_turning_point"),
    # linear well, one node on each side of im
    pytest.param((6.0, 1.0, 1.0, 0.0, -8.0, 0.005, 2000, 1750), "3", "(1, -17.05160502439287, 5.583320602262276, 1, -3.056351497598722e-280, -2.873040728985686e-279)", id="linear_well"),
    # deep forbidden region: both sweeps pass 1e250 and rescale
    pytest.param((0.5, 1.0, 2.0, 0.0, -2.0, 0.0005, 11901, 1000), "0", "(0, 1.2788612170402964, 0.6294345237607413, 0, 1.3589701792044586e+58, -8.419010020303069e+57)", id="deep_forbidden"),
]


class TestNumerov:
    def test_rescaling_keeps_counts_finite(self):
        # deep classically forbidden sweep grows like exp(r**2 / 2); the
        # in-loop rescaling must keep values representable
        count = _kernels.numerov_count(0.5, 1.0, 2.0, 0.0, -2.0, 0.0005, 11901)
        assert count >= 0

    @pytest.mark.parametrize("args,count,match", PINNED_SWEEPS)
    def test_pinned_outputs(self, args, count, match):
        # bit-level values of the recurrence; a refactor of the sweep must keep them
        assert repr(_kernels.numerov_count(*args[:7])) == count
        assert repr(_kernels.numerov_match(*args)) == match


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
