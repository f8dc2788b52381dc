"""Grid output pinned to the bytes of the plain encoders, and the surface
the benchmark harness under perfbench/ relies on.

The CLI writes tables from parts made once each, one prefix per n, one
q, k and gamma text per state and all energies in one % call, joined
once, and draws one series per state.  The reference encoders below are
the straightforward forms:
json.dumps of the table's dict with indent=2, one fmt12 call per CSV
field, the tendency document built by json.loads of the table JSON and
encoded again, and the figure drawn from the rows grouped by state.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abwkb import InfiniteWell, PowerLaw, UnitScale, closed_form, unit_scale
from abwkb import cli, svg
from abwkb.cli import (
    CSV_HEADER,
    build_parser,
    fmt12,
    main,
    round12,
    table_from_json,
    table_to_csv,
    table_to_json,
)
from abwkb.closed_form import SpectrumTable, closed_form_energy, spectrum_table


def dict_json(table):
    pot = table.potential
    if isinstance(pot, InfiniteWell):
        potential = {"kind": "infinite-well", "radius": round12(pot.a)}
    else:
        potential = {"kind": "power-law", "nu": round12(pot.nu), "lambda": round12(pot.lam)}
    obj = {
        "potential": potential,
        "mu0": round12(table.mu0),
        "unit": {"label": table.unit.label, "factor": round12(table.unit.factor)},
        "rows": [
            {"n": r.n, "q": r.q, "k": r.k, "gamma": round12(r.gamma), "energy": round12(r.energy)}
            for r in table.rows
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def field_csv(table):
    pot = table.potential
    if isinstance(pot, InfiniteWell):
        nu_s, lam_s = "inf", fmt12(0.0)
    else:
        nu_s, lam_s = fmt12(pot.nu), fmt12(pot.lam)
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(
            f"{nu_s},{lam_s},{fmt12(table.mu0)},{r.n},{r.q},{r.k},"
            f"{fmt12(r.gamma)},{fmt12(r.energy)},{table.unit.label}"
        )
    return "\n".join(lines) + "\n"


def _table(pot, mu0, n_max, q_max, k_range, preset="reduced"):
    return spectrum_table(pot, mu0, n_max, q_max, k_range, unit_scale(preset, pot))


# (id, table arguments, a substring the output must contain)
GRIDS = [
    ("well-integer-levels", (InfiniteWell(1.0), 0.0, 3, 0, (0, 0), "fig2d"), '"energy": 4.0\n'),
    ("nu-1.9-exponents", (PowerLaw(-1.0, -1.9), 0.3, 2, 2, (-1, 1)), "e-"),
    ("coulomb-fig2a-below-1e-4", (PowerLaw(-1.0, -1.0), 0.5, 120, 0, (0, 0), "fig2a"), "e-05"),
    ("negative-energies", (PowerLaw(-0.7, -0.5), 0.3, 3, 2, (0, 1)), '"energy": -'),
    ("mu0-zero-integer-gamma", (PowerLaw(1.0, 2.0), 0.0, 2, 2, (0, 2)), '"gamma": 3.0,'),
    ("negative-k", (PowerLaw(1.2, 1.0), 0.3, 2, 1, (-3, -1), "fig2b"), '"k": -3,'),
    ("one-row", (PowerLaw(1.5, 4.0), 0.7, 0, 0, (0, 0)), '"n": 0,'),
    # 1e12 <= |E| < 1e16: repr writes 14000000000000.0 where %.12g writes 1.4e+13
    ("levels-above-1e12", (PowerLaw(1e24, 2.0), 0.5, 3, 1, (0, 0)), '"energy": 14000000000000.0\n'),
]


@pytest.mark.parametrize("args, needle", [g[1:] for g in GRIDS], ids=[g[0] for g in GRIDS])
class TestEmittersMatchPlainEncoders:
    def test_json(self, args, needle):
        table = _table(*args)
        text = table_to_json(table)
        assert text == dict_json(table)
        assert needle in text

    def test_csv(self, args, needle):
        table = _table(*args)
        assert table_to_csv(table) == field_csv(table)

    def test_json_round_trip(self, args, needle):
        table = _table(*args)
        text = table_to_json(table)
        assert table_to_json(table_from_json(text)) == text


def test_json_without_rows():
    table = SpectrumTable(PowerLaw(1.0, 2.0), 0.5, unit_scale("reduced"), (), ())
    assert table_to_json(table) == dict_json(table)


def test_csv_without_rows():
    table = SpectrumTable(PowerLaw(1.0, 2.0), 0.5, unit_scale("reduced"), (), ())
    assert table_to_csv(table) == field_csv(table) == CSV_HEADER + "\n"


@pytest.mark.parametrize("gamma, energy", [(0.3, float("nan")), (float("inf"), 1.0), (0.3, float("-inf"))])
def test_json_rejects_non_finite_rows(gamma, energy):
    table = SpectrumTable(PowerLaw(1.0, 2.0), 0.3, unit_scale("reduced"), ((0, 0, gamma),), (energy, 2.0))
    with pytest.raises(ValueError, match="must be finite"):
        table_to_json(table)


def test_json_rejects_non_finite_rows_read_back():
    # json.dumps wrote NaN for a non-finite level; table_from_json reads it
    text = dict_json(_table(PowerLaw(1.0, 2.0), 0.3, 1, 0, (0, 0))).replace('"energy": 3.6', '"energy": NaN')
    with pytest.raises(ValueError, match="must be finite"):
        table_to_json(table_from_json(text))


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: rows.pop(),  # the last n is short of a state
        lambda rows: rows.insert(0, rows.pop(1)),  # the n = 0 states out of (q, k) order
        lambda rows: rows.__setitem__(3, {**rows[3], "k": 5}),  # an n = 1 row off the n = 0 states
        lambda rows: rows.__setitem__(4, {**rows[4], "n": 2}),  # n skips a value
        lambda rows: rows.__setitem__(0, {**rows[0], "n": 1}),  # no n = 0 row
    ],
    ids=["short-last-n", "states-unsorted", "state-off-grid", "n-skips", "no-n0"],
)
def test_json_rejects_rows_off_the_grid(edit):
    obj = json.loads(table_to_json(_table(PowerLaw(1.0, 2.0), 0.3, 1, 0, (0, 2))))
    edit(obj["rows"])
    with pytest.raises(ValueError, match=r"table_from_json: .* grid"):
        table_from_json(json.dumps(obj))


def test_table_rejects_energies_off_the_grid():
    with pytest.raises(ValueError, match="do not fill an n-grid"):
        SpectrumTable(PowerLaw(1.0, 2.0), 0.3, unit_scale("reduced"), ((0, 0, 0.3), (1, 0, 1.3)), (1.0, 2.0, 3.0))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# integer-valued levels (repr adds ".0"), |E| >= 1e12 (%.12g writes e+),
# |E| < 1e-4 (e-) and any finite float, zero and subnormals among them
GRID_ENERGY = st.one_of(
    st.integers(-10**15, 10**15).map(float),
    st.builds(lambda x, sign: sign * x, st.floats(1e12, 1e300), st.sampled_from((1.0, -1.0))),
    st.builds(lambda x, sign: sign * x, st.floats(1e-300, 1e-4), st.sampled_from((1.0, -1.0))),
    FINITE,
)


@st.composite
def grid_tables(draw):
    states = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(-40, 40), FINITE), min_size=1, max_size=5))
    size = len(states) * draw(st.integers(1, 4))
    energies = draw(st.lists(GRID_ENERGY, min_size=size, max_size=size))
    return SpectrumTable(PowerLaw(1.0, 2.0), draw(FINITE), unit_scale("reduced"), tuple(states), tuple(energies))


@given(grid_tables())
@settings(max_examples=300, deadline=None)
def test_multi_state_tables_match_plain_encoders(table):
    assert table_to_json(table) == dict_json(table)
    assert table_to_csv(table) == field_csv(table)


@pytest.mark.parametrize("label", ["100%", "%s %d %.12g %%", "{} {0} {q} {n:.3}", "E/%(x)s{"])
def test_unit_label_with_percent_and_braces(label):
    # the label is table text: it goes into the output, never into a template
    states = ((0, 0, 0.3), (1, -1, 1.7))
    table = SpectrumTable(PowerLaw(1.0, 2.0), 0.3, UnitScale(label, 2.5), states, (1.0, 2.5e13, 3.25, 4e-7))
    text = table_to_json(table)
    assert text == dict_json(table)
    assert table_to_csv(table) == field_csv(table)
    back = table_from_json(text)
    assert back.unit.label == label
    assert table_to_json(back) == dict_json(back) == text
    assert table_to_csv(back) == field_csv(back)


def json_energies(energies):
    """The energy texts table_to_json writes for a one-state table holding
    energies as its n-grid, after checking the whole output against
    json.dumps."""
    table = SpectrumTable(PowerLaw(1.0, 2.0), 0.0, unit_scale("reduced"), ((0, 0, 0.0),), tuple(energies))
    text = table_to_json(table)
    assert text == dict_json(table)
    return [line.split(": ")[1] for line in text.splitlines() if line.startswith('      "energy": ')]


# integers, the band 1e12 <= |E| < 1e16 where %.12g and repr part ways, the
# notation switch at 1e-4, and the ends of the normal and subnormal ranges
ENERGY_EDGES = [
    1.0, -1.0, 4.0, -37.0, 123456789012.0, -999999999999.0, 999999999999.5, -999999999999.5,
    1e12, -1e12, 1.4e13, 1.23456789012345e13, 1e15, 1.5e15, -1.5e15, 1e16, -1e16, 1.25e16,
    9.99999999999995e-5, -9.99999999999995e-5, 9.99999999999e-5, 1e-4, 1e-5, -1.5e-5,
    sys.float_info.min, -sys.float_info.min, 5e-324, -5e-324, 1e-310, 0.0, -0.0,
    sys.float_info.max, -sys.float_info.max, 0.1, -2.5, 3.14159265358979,
]


@pytest.mark.parametrize("x", ENERGY_EDGES, ids=repr)
def test_json_energy_text_at_the_edges(x):
    assert json_energies([x]) == [repr(round12(x))]


def test_json_energy_text_of_the_edges_in_one_table():
    # zero and subnormal levels share the table with normal ones
    assert json_energies(ENERGY_EDGES) == [repr(round12(x)) for x in ENERGY_EDGES]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
@settings(max_examples=500, deadline=None)
def test_json_energy_text_is_repr_of_round12(xs):
    assert json_energies(xs) == [repr(round12(x)) for x in xs]


@given(st.floats(allow_nan=False, allow_infinity=False, min_value=1e-300, max_value=1e300))
@settings(max_examples=500, deadline=None)
def test_json_normal_energy_text_is_repr_of_round12(x):
    assert json_energies([x, -x]) == [repr(round12(x)), repr(round12(-x))]


def test_cli_json_levels_between_1e12_and_1e16(capsys):
    # scale 1e12 and E = 1e12 (4n + 2g + 3): %.12g writes 4e+12, repr 4000000000000.0
    argv = ["--nu", "2", "--lambda", "1e24", "--mu0", "0.5", "--n-max", "3", "--q-max", "1", "--k-range=-1..1"]
    assert main(["spectrum", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    table = spectrum_table(PowerLaw(1e24, 2.0), 0.5, 3, 1, (-1, 1))
    assert out == dict_json(table)
    assert all(1e12 <= e < 1e16 for e in table.energies)
    assert '"energy": 4000000000000.0\n' in out


def _seeded_grids(rng):
    """(potential, mu0, n_max, q_max, k_range, preset) per unit preset, with
    k_range reaching below -1 so the smallest gamma lies past the first state."""
    lam = 10.0 ** rng.uniform(-1.0, 1.0)
    potentials = [
        (PowerLaw(-lam, -1.0), "fig2a"),
        (PowerLaw(-lam, -1.9), "fig2b"),
        (PowerLaw(-lam, -0.5), "reduced"),
        (PowerLaw(lam, 1.0), "fig2b"),
        (PowerLaw(lam, 2.0), "fig2c"),
        (PowerLaw(lam, 7.3), "reduced"),
        (InfiniteWell(10.0 ** rng.uniform(-1.0, 1.0)), "fig1"),
    ]
    for pot, preset in potentials:
        k_lo = rng.randint(-4, -2)
        k_range = (k_lo, k_lo + rng.randint(2, 5))
        yield pot, round(rng.uniform(0.05, 0.95), 6), rng.randint(0, 8), rng.randint(0, 3), k_range, preset


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_grid_levels_are_the_scalar_closed_form(seed):
    for pot, mu0, n_max, q_max, k_range, preset in _seeded_grids(random.Random(seed)):
        table = _table(pot, mu0, n_max, q_max, k_range, preset)
        gammas = [g for _, _, g in table.states]
        assert gammas.index(min(gammas)) > 0
        want = [closed_form_energy(pot, n, g) * table.unit.factor for n in range(n_max + 1) for g in gammas]
        assert list(table.energies) == want, (pot, mu0, n_max, q_max, k_range, preset)


def grouped_svg(table, title, key, label):
    """The figure drawn from table.rows: one series per group of rows
    sharing key(row), named label.format(*key(row)), groups and points
    in ascending order."""
    groups = {}
    for r in table.rows:
        groups.setdefault(key(r), []).append(r)
    panel = svg.Panel(title, "n", f"E [{table.unit.label}]")
    for g, rows in sorted(groups.items()):
        rows.sort(key=lambda r: r.n)
        panel.series.append(svg.Series(label.format(*g), [float(r.n) for r in rows], [r.energy for r in rows]))
    return svg.render_svg([panel])


def test_spectrum_svg_matches_grouped_rows(tmp_path, capsys):
    figure = tmp_path / "levels.svg"
    argv = ["--nu", "1", "--lambda", "1.2", "--mu0", "0.3", "--n-max", "3", "--q-max", "2", "--k-range=-3..1"]
    assert main(["spectrum", *argv, "--units", "fig2b", "--svg", str(figure)]) == 0
    capsys.readouterr()
    table = _table(PowerLaw(1.2, 1.0), 0.3, 3, 2, (-3, 1), "fig2b")
    want = grouped_svg(table, "levels, mu0=0.3", lambda r: (r.q, r.k), "q={},k={}")
    assert figure.read_text(encoding="utf-8") == want
    assert "q=0,k=-3" in want


def test_tendency_svg_matches_grouped_rows(tmp_path, capsys):
    figure = tmp_path / "tendency.svg"
    argv = ["--nu", "-1.5", "--lambda", "-0.8", "--mu0", "0.45", "--k=-2", "--n-max", "4", "--q-max", "3"]
    assert main(["tendency", *argv, "--svg", str(figure)]) == 0
    capsys.readouterr()
    table = _table(PowerLaw(-0.8, -1.5), 0.45, 4, 3, (-2, -2))
    want = grouped_svg(table, "E(n) by q, |k+mu0|=1.55", lambda r: (r.q,), "q={}")
    assert figure.read_text(encoding="utf-8") == want


TENDENCY_ARGV = [
    ("--nu", "2", "--lambda", "1", "--mu0", "0.5", "--k", "0", "--n-max", "3", "--q-max", "2"),
    ("--nu", "-1", "--lambda", "-1", "--mu0", "0", "--k=-2", "--n-max", "120", "--q-max", "0"),
    ("--nu", "inf", "--radius", "1.3", "--mu0", "0.25", "--k", "1", "--n-max", "0", "--q-max", "0"),
    ("--nu", "-1.9", "--lambda", "-0.8", "--mu0", "0.3", "--k", "0", "--n-max", "2", "--q-max", "3"),
]


@pytest.mark.parametrize("argv", TENDENCY_ARGV, ids=["oscillator", "coulomb", "well", "nu-1.9"])
def test_tendency_json_matches_reencoded_table(capsys, argv):
    assert main(["tendency", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    args = build_parser().parse_args(["tendency", *argv])
    pot = cli._potential_from_args(args)
    unit = unit_scale(cli._TENDENCY_DEFAULT_UNITS.get(args.nu, "reduced"), pot)
    table = spectrum_table(pot, args.mu0, args.n_max, args.q_max, (args.k, args.k), unit)
    report = json.loads(out)["report"]
    assert out == cli._dump_json({"report": report, "table": json.loads(table_to_json(table))})


class TestHarnessSurface:
    """What perfbench/ reads from the package: a planted wrong closed form
    must reach the grid, rows carry n, q, k, gamma, energy, and the CLI
    gives the same output however many commands ran before."""

    def test_patched_level_coefficients_reach_every_row(self, monkeypatch):
        pot = PowerLaw(-1.0, -1.0)
        before = spectrum_table(pot, 0.3, 2, 1, (-2, 1))
        real = closed_form.level_coefficients
        monkeypatch.setattr(closed_form, "level_coefficients", lambda p: replace(real(p), scale=2.0 * real(p).scale))
        after = spectrum_table(pot, 0.3, 2, 1, (-2, 1))
        # doubling the scale is exact in binary, so every level doubles exactly
        assert after.energies == tuple(2.0 * e for e in before.energies)

    def test_patched_closed_form_reaches_the_grid(self, monkeypatch):
        # the rows perfbench's planted wrong closed form is seen through: n = 0 at
        # the smallest gamma (k = 0 here, not the first state) and n_max at the largest
        pot = PowerLaw(-1.0, -1.0)
        before = spectrum_table(pot, 0.3, 2, 1, (-2, 1))
        real = closed_form.closed_form_energy
        monkeypatch.setattr(closed_form, "closed_form_energy", lambda p, n, g: 1.01 * real(p, n, g))
        after = spectrum_table(pot, 0.3, 2, 1, (-2, 1))
        lo, hi = 2, 2 * 8 + 4
        assert (before.rows[lo].n, before.rows[lo].gamma) == (0, min(g for _, _, g in before.states))
        assert (before.rows[hi].n, before.rows[hi].gamma) == (2, max(g for _, _, g in before.states))
        for i in (lo, hi):
            assert after.energies[i] == 1.01 * before.energies[i] != before.energies[i]

    def test_rows_from_json_and_row_count(self):
        pot = PowerLaw(1.0, 3.0)
        unit = unit_scale("fig2b", pot)
        table = spectrum_table(pot, 0.3, 4, 2, (-2, 1), unit)
        assert len(table.rows) == 5 * 3 * 4
        parsed = table_from_json(table_to_json(table))
        assert len(parsed.rows) == len(table.rows)
        assert parsed.unit.factor == round12(unit.factor)
        for got, want in zip(parsed.rows, table.rows):
            assert (got.n, got.q, got.k) == (want.n, want.q, want.k)
            assert got.gamma == round12(want.gamma)
            assert got.energy == round12(want.energy)

    def test_parser_is_shared_and_build_parser_is_fresh(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_reused_parser_gives_fresh_parser_output(self, capsys, monkeypatch):
        commands = [
            ["spectrum", "--nu", "-1", "--lambda", "-1", "--mu0", "0.5", "--n-max", "2", "--q-max", "1",
             "--k-range=-1..1", "--format", "json"],
            ["tendency", "--nu", "2", "--lambda", "1", "--mu0", "0.5", "--n-max", "2", "--q-max", "1",
             "--format", "json"],
            ["spectrum", "--nu", "2", "--n-max", "oops", "--q-max", "1"],
            ["spectrum", "--nu", "2", "--lambda", "-1", "--n-max", "1", "--q-max", "1"],
            ["spectrum", "--nu", "inf", "--radius", "2", "--units", "fig1", "--n-max", "2", "--q-max", "0"],
        ]

        def run_all():
            results = []
            for argv in commands:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = f"SystemExit({exc.code})"
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        shared = run_all()
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = run_all()
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, "SystemExit(2)", 2, 0]
        assert all(out for code, out, _ in shared if code == 0)


def test_parser_not_built_at_import():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import abwkb.cli as c; print(c._parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "0"

