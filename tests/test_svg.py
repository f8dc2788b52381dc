"""Axis ranges, tick labels and panel bytes of the SVG writer, on the
data and through the CLI.

A range no wider than 2**-40 of its magnitude is widened before padding,
by at least 1 on each side, which is what a single level at ordinary
magnitude always got.  Tick labels are .6g texts unless two on one axis
would coincide.  The panel writer formats each point once; the plain
form below, which formats it at every use, pins its bytes.
"""

import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from abwkb import svg
from abwkb.cli import main

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


SVG_NS = "{http://www.w3.org/2000/svg}"


def _y_tick_labels(path):
    return [t.text for t in ET.parse(path).getroot().iter(f"{SVG_NS}text") if t.get("text-anchor") == "end"]


def test_cli_svg_tick_labels_near_4e16_are_distinct(tmp_path):
    # .6g labelled all five y ticks of this figure 4e+16
    figure = tmp_path / "f.svg"
    argv = ["spectrum", "--nu", "2", "--lambda", "1e32", "--mu0", "0.5000000000000002", "--k-range=-1..0",
            "--n-max", "0", "--q-max", "0", "--svg", str(figure)]
    done = subprocess.run(
        [sys.executable, "-m", "abwkb.cli", *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    labels = _y_tick_labels(figure)
    assert len(labels) == 5
    assert len(set(labels)) == len(labels), labels


class TestTickLabels:
    @pytest.mark.parametrize("seed", [3, 30])
    def test_ordinary_axes_keep_6g(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            lo = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 14.0)
            hi = lo + abs(lo) * 10.0 ** rng.uniform(-4.0, 2.0)
            ticks = svg._ticks(*svg._bounds([lo, hi]))
            assert svg._tick_labels(ticks) == [f"{t:.6g}" for t in ticks]

    @pytest.mark.parametrize(
        "vals", [[4e16], [-1e300], [123456.7, 123456.70001], [-7.5e-9, -7.50001e-9]], ids=repr,
    )
    def test_colliding_6g_labels_get_the_fewest_digits_that_part_them(self, vals):
        ticks = svg._ticks(*svg._bounds(vals))
        assert len({f"{t:.6g}" for t in ticks}) < len(ticks)
        labels = svg._tick_labels(ticks)
        digits = next(d for d in range(7, 18) if labels == [f"{t:.{d}g}" for t in ticks])
        assert len(set(labels)) == len(ticks)
        assert len({f"{t:.{digits - 1}g}" for t in ticks}) < len(ticks)


def _fmt(x):
    return f"{x:.2f}"


def _reference_panel_svg(panel, x0, y0, w, h):
    """The plain panel writer: sx and sy at every use and _fmt four times
    per point.  Its tick labels come from svg._tick_labels."""
    ml, mr, mt, mb = 62, 14, 34, 46
    px, py = x0 + ml, y0 + mt
    pw, ph = w - ml - mr, h - mt - mb
    xs_all = [x for s in panel.series for x in s.xs]
    ys_all = [y for s in panel.series for y in s.ys]
    if not xs_all:
        return [f'<text x="{x0 + w // 2}" y="{y0 + h // 2}">no data</text>']
    xlo, xhi = svg._bounds(xs_all)
    ylo, yhi = svg._bounds(ys_all)

    def sx(x):
        return px + (x - xlo) / (xhi - xlo) * pw

    def sy(y):
        return py + ph - (y - ylo) / (yhi - ylo) * ph

    out = [
        f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{x0 + w // 2}" y="{y0 + 20}" text-anchor="middle" font-size="15">{panel.title}</text>',
        f'<text x="{px + pw // 2}" y="{y0 + h - 10}" text-anchor="middle" font-size="13">{panel.xlabel}</text>',
        f'<text x="{x0 + 16}" y="{py + ph // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 {x0 + 16} {py + ph // 2})">{panel.ylabel}</text>',
    ]
    xticks = svg._ticks(xlo, xhi)
    for t, label in zip(xticks, svg._tick_labels(xticks)):
        X = sx(t)
        out.append(f'<line x1="{_fmt(X)}" y1="{py + ph}" x2="{_fmt(X)}" y2="{py + ph + 5}" stroke="#333"/>')
        out.append(f'<text x="{_fmt(X)}" y="{py + ph + 18}" text-anchor="middle" font-size="11">{label}</text>')
    yticks = svg._ticks(ylo, yhi)
    for t, label in zip(yticks, svg._tick_labels(yticks)):
        Y = sy(t)
        out.append(f'<line x1="{px - 5}" y1="{_fmt(Y)}" x2="{px}" y2="{_fmt(Y)}" stroke="#333"/>')
        out.append(f'<text x="{px - 8}" y="{_fmt(Y + 4)}" text-anchor="end" font-size="11">{label}</text>')
    for idx, s in enumerate(panel.series):
        color = svg._PALETTE[idx % len(svg._PALETTE)]
        pts = [(sx(x), sy(y)) for x, y in zip(s.xs, s.ys)]
        if len(pts) > 1:
            path = " ".join(f"{_fmt(X)},{_fmt(Y)}" for X, Y in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for X, Y in pts:
            out.append(f'<circle cx="{_fmt(X)}" cy="{_fmt(Y)}" r="2.6" fill="{color}"/>')
        if s.label:
            ly = py + 16 + 15 * idx
            out.append(f'<line x1="{px + pw - 120}" y1="{ly - 4}" x2="{px + pw - 100}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{px + pw - 94}" y="{ly}" font-size="11">{s.label}</text>')
    return out


def _reference_render_svg(panels):
    cell = svg.WIDTH // len(panels)
    body = []
    for i, panel in enumerate(panels):
        body.extend(_reference_panel_svg(panel, i * cell, 0, cell, svg.HEIGHT))
    content = "\n".join(body)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {svg.WIDTH} {svg.HEIGHT}" '
        f'width="{svg.WIDTH}" height="{svg.HEIGHT}" font-family="Helvetica, Arial, sans-serif">\n'
        f'<rect width="{svg.WIDTH}" height="{svg.HEIGHT}" fill="white"/>\n'
        f"{content}\n</svg>\n"
    )


def _seeded_panel(rng, title, scale, offset, counts, labels=None):
    """A panel with one series per count, x on an n-like grid with jitter
    and y at scale * U(-1, 1) + offset."""
    panel = svg.Panel(title, "n", "E")
    for j, count in enumerate(counts):
        xs = [float(i) + rng.uniform(-0.3, 0.3) for i in range(count)]
        ys = [offset + scale * rng.uniform(-1.0, 1.0) for _ in range(count)]
        panel.series.append(svg.Series(f"s{j}" if labels is None else labels[j], xs, ys))
    return panel


def _seeded_figures(seed):
    rng = random.Random(seed)
    yield "several-series", [_seeded_panel(rng, "several", 10.0, 0.0, [rng.randint(2, 40) for _ in range(9)])]
    yield "one-point-series", [_seeded_panel(rng, "one point", 3.0, 1.0, [1])]
    yield "one-point-among-many", [_seeded_panel(rng, "mixed", 3.0, 1.0, [5, 1, 12])]
    yield "empty-label", [_seeded_panel(rng, "", 2.0, 0.0, [7, 7], labels=["", "b"])]
    yield "negative", [_seeded_panel(rng, "neg", 50.0, -120.0, [8, 20])]
    yield "1e12", [_seeded_panel(rng, "big", 3e11, 1e12, [6, 6, 6])]
    yield "two-panels", [_seeded_panel(rng, "left", 1.0, 5.0, [10, 10]), _seeded_panel(rng, "right", 1e-3, 0.0, [10])]
    yield "no-data", [svg.Panel("empty", "n", "E"), _seeded_panel(rng, "right", 1.0, 0.0, [4])]


class TestPanelMatchesPlainWriter:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_figures(self, seed):
        for name, panels in _seeded_figures(seed):
            assert svg.render_svg(panels) == _reference_render_svg(panels), name

    @pytest.mark.parametrize(
        "vals",
        [[4e16], [4e16, math.nextafter(4e16, math.inf)], [-1e300], [1.0, 1.0 + 2.0**-52]],
        ids=["single-4e16", "one-ulp-4e16", "single-1e300", "one-ulp-1"],
    )
    def test_narrow_ranges(self, vals):
        panel = svg.Panel("narrow", "n", "E", [svg.Series("a", [float(i) for i in range(len(vals))], vals)])
        assert svg.render_svg([panel]) == _reference_render_svg([panel])

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare-well", "--gamma", "0.7", "--n-max", "6"],
            ["spectrum", "--nu", "-1", "--lambda", "-1", "--mu0", "0.3", "--n-max", "5", "--q-max", "2",
             "--k-range=-2..1", "--units", "fig2a"],
            ["tendency", "--nu", "1", "--lambda", "1.2", "--mu0", "0.45", "--k", "0", "--n-max", "24", "--q-max", "19"],
        ],
        ids=["compare-well", "spectrum-coulomb", "tendency-500"],
    )
    def test_cli_figures(self, tmp_path, capsys, monkeypatch, argv):
        figures = []
        for render in (svg.render_svg, _reference_render_svg):
            monkeypatch.setattr(svg, "render_svg", render)
            figure = tmp_path / f"{len(figures)}.svg"
            assert main([*argv, "--svg", str(figure)]) == 0
            figures.append(figure.read_text(encoding="utf-8"))
        capsys.readouterr()
        assert figures[0] == figures[1]
        assert figures[0].count("<circle") >= 7
