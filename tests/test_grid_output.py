"""Grid output pinned to the bytes of the plain encoders, and the surface
the benchmark harness under perfbench/ relies on.

The CLI writes tables with one f-string per row and draws one series per
state.  The reference encoders below are the straightforward forms:
json.dumps of the table's dict with indent=2, one fmt12 call per CSV
field, the tendency document built by json.loads of the table JSON and
encoded again, and the figure drawn from the rows grouped by state.
"""

import json
import os
import subprocess
import sys

import pytest

from abwkb import InfiniteWell, PowerLaw, closed_form, unit_scale
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
from abwkb.closed_form import SpectrumTable, spectrum_table


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

    def test_patched_closed_form_reaches_the_grid(self, monkeypatch):
        pot = PowerLaw(-1.0, -1.0)
        before = spectrum_table(pot, 0.5, 2, 1, (0, 1))
        real = closed_form.closed_form_energy
        monkeypatch.setattr(closed_form, "closed_form_energy", lambda p, n, g: 1.01 * real(p, n, g))
        after = spectrum_table(pot, 0.5, 2, 1, (0, 1))
        assert [r.energy for r in after.rows] == [1.01 * r.energy for r in before.rows]

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

