"""Kernel checks: one NumPy/Python implementation per kernel."""

import math

import pytest

from abwkb import _kernels


class TestNumerov:
    def test_rescaling_keeps_counts_finite(self):
        # deep classically forbidden sweep grows like exp(kappa r); the
        # in-loop rescaling must keep values representable
        count = _kernels.numerov_count(0.5, 1.0, 2.0, 0.0, 0.01, 0.01, 40000)
        assert count >= 0


class TestBackendSelection:
    def test_backend_reported(self):
        assert _kernels.BACKEND == "numpy"


class TestFallbackEndToEnd:
    def test_action_and_shoot_on_numpy_backend(self):
        # Coulomb ground-state action at E = -1/4 is exactly pi
        E = -0.25
        val = _kernels.action_sum(E, -1.0, -1.0, 4.0, 1.0 / 64.0, 385)
        assert val == pytest.approx(math.pi, abs=1e-9)
