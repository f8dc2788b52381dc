"""Kernel checks: one NumPy/Python implementation per kernel."""

import inspect
import math

import pytest

from abwkb import _kernels

# (E, lam, nu, gamma, r0, h, n, im) -> (repr of numerov_count, repr of numerov_match)
PINNED_SWEEPS = [
    # Coulomb tail, im inside the well: one node on each side of im
    ((-0.02, -1.0, -1.0, 0.0, 0.02, 0.01, 24142, 1000), "3", "(0.6663905672997871, 2)"),
    # confined oscillator, im at either end of the grid
    ((11.3, 1.0, 2.0, 1.0, 0.00844060799202046, 0.00422030399601023, 2000, 2), "2", "(181.56628221426612, 2)"),
    ((11.3, 1.0, 2.0, 1.0, 0.00844060799202046, 0.00422030399601023, 2000, 1996), "2", "(15.413672184178889, 2)"),
    # nu = -1.5 tail, im at the turning point
    ((-0.05, -0.7, -1.5, 0.5, 0.02, 0.01, 10106, 579), "0", "(0.37485037918556874, 0)"),
    # linear well, one node on each side of im
    ((6.0, 1.0, 1.0, 0.0, 0.01608248290463863, 0.008041241452319315, 1999, 300), "3", "(2.462460440335342, 2)"),
    # deep forbidden region: both sweeps pass 1e250 and rescale
    ((0.5, 1.0, 2.0, 0.0, 0.01, 0.01, 40000, 20), "5359", "(5.254645170990184, 5357)"),
]


class TestNumerov:
    def test_rescaling_keeps_counts_finite(self):
        # deep classically forbidden sweep grows like exp(kappa r); the
        # in-loop rescaling must keep values representable
        count = _kernels.numerov_count(0.5, 1.0, 2.0, 0.0, 0.01, 0.01, 40000)
        assert count >= 0

    @pytest.mark.parametrize("args,count,match", PINNED_SWEEPS)
    def test_pinned_outputs(self, args, count, match):
        # bit-level values of the recurrence; a refactor of the sweep must keep them
        assert repr(_kernels.numerov_count(*args[:7])) == count
        assert repr(_kernels.numerov_match(*args)) == match


class TestNumerovConvergence:
    def test_grid_convergence_fourth_order(self):
        # oscillator n = 1 (E = 7) on a grid with pinned ends isolates the
        # O(h^4) Numerov error; halving the step should shrink it by ~16
        r0, r_max = 1e-3, 9.001

        def level(h):
            n = int(math.ceil((r_max - r0) / h)) + 1

            def match(E):
                # match at the turning point sqrt(E), as the shooting oracle does
                im = max(2, min(n - 4, int(round((E**0.5 - r0) / h))))
                return _kernels.numerov_match(E, 1.0, 2.0, 0.0, r0, h, n, im)

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

        results = {step: level(step) for step in (0.2, 0.1, 0.05, 0.025)}
        r1 = (results[0.2] - results[0.1]) / (results[0.1] - results[0.05])
        r2 = (results[0.1] - results[0.05]) / (results[0.05] - results[0.025])
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
