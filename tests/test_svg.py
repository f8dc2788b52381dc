"""Axis ranges of the SVG writer, on the data and through the CLI.

A range no wider than 2**-40 of its magnitude is widened before padding,
by at least 1 on each side, which is what a single level at ordinary
magnitude always got.
"""

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from abwkb import svg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(svg.__file__)))


class TestBounds:
    @pytest.mark.parametrize("value", [0.0, 5.0, -3.25, 1e12])
    def test_single_value_is_widened_by_one(self, value):
        assert svg._bounds([value]) == (value - 1.0 - 0.12, value + 1.0 + 0.12)

    def test_ordinary_range_is_only_padded(self):
        assert svg._bounds([1.0, 1.5]) == (1.0 - 0.03, 1.5 + 0.03)

    @pytest.mark.parametrize(
        "vals",
        [[4e16], [4e16, math.nextafter(4e16, math.inf)], [-1e300], [1.0, 1.0 + 2.0**-52]],
        ids=["single-4e16", "one-ulp-4e16", "single-1e300", "one-ulp-1"],
    )
    def test_narrow_ranges_get_ticks(self, vals):
        # before the relative rule, +-1 vanished past |E| ~ 2**54, and a
        # range 1 ulp wide gave a tick step below the ulp
        lo, hi = svg._bounds(vals)
        assert lo < min(vals) and max(vals) < hi
        ticks = svg._ticks(lo, hi)
        assert 2 <= len(ticks) <= 12
        assert all(a < b for a, b in zip(ticks, ticks[1:]))


@pytest.mark.parametrize(
    "state",
    [["--mu0", "0.5", "--k", "0"], ["--mu0", "0.5000000000000002", "--k-range=-1..0"]],
    ids=["one-level-4e16", "two-levels-one-ulp-apart"],
)
def test_cli_svg_of_levels_near_4e16(tmp_path, state):
    # the first exited 1 with a ZeroDivisionError, the second never returned
    figure = tmp_path / "f.svg"
    argv = ["spectrum", "--nu", "2", "--lambda", "1e32", *state, "--n-max", "0", "--q-max", "0", "--svg", str(figure)]
    done = subprocess.run(
        [sys.executable, "-m", "abwkb.cli", *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    root = ET.parse(figure).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) == len(done.stdout.splitlines()) - 1
    for c in circles:
        assert 0.0 <= float(c.get("cx")) <= svg.WIDTH and 0.0 <= float(c.get("cy")) <= svg.HEIGHT
