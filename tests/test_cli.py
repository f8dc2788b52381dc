"""CLI contract tests: schemas, exit codes, round trips, determinism."""

import json
import math

import pytest

import abwkb
from abwkb import (
    InfiniteWell,
    PowerLaw,
    QuantizationSetup,
    _kernels,
    action_integral_numeric,
    closed_form_energy,
    oracles,
    quantize_energy,
    shoot_eigenvalue,
    spectrum_table,
    unit_scale,
)
from abwkb.cli import (
    CSV_HEADER,
    build_parser,
    main,
    round12,
    table_from_json,
    table_to_csv,
    table_to_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_coulomb_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--nu", "-1", "--lambda", "-1", "--mu0", "0.5",
            "--n-max", "2", "--q-max", "0", "--k", "0",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        # E = -1/(4 (n + 1.5)^2)
        first = lines[1].split(",")
        assert float(first[7]) == pytest.approx(-1.0 / 9.0, rel=1e-11)

    def test_oscillator_reduced_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--nu", "2", "--lambda", "1", "--mu0", "0",
            "--n-max", "1", "--q-max", "0", "--k", "0",
        )
        assert code == 0
        energies = [float(line.split(",")[7]) for line in out.strip().split("\n")[1:]]
        assert energies == pytest.approx([3.0, 7.0], rel=1e-11)

    def test_invalid_exponent_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--nu", "0", "--lambda", "1", "--n-max", "1", "--q-max", "0"
        )
        assert code == 2
        assert "excluded" in err or "range" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--nu", "2", "--lambda", "1", "--mu0", "inf", "--n-max", "1", "--q-max", "0"),
            ("spectrum", "--nu", "2", "--lambda", "inf", "--n-max", "1", "--q-max", "0"),
            ("spectrum", "--nu", "1e308", "--lambda", "1", "--n-max", "1", "--q-max", "0"),
            ("spectrum", "--nu", "inf", "--radius", "inf", "--n-max", "1", "--q-max", "0"),
            ("shoot", "--nu", "inf", "--lambda", "1", "--gamma", "0", "--n", "0"),
        ],
    )
    def test_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("shoot", "--nu", "1", "--lambda", "1", "--gamma", "0", "--n", "0", "--energy-tol", "inf"),
            ("shoot", "--nu", "1", "--lambda", "1", "--gamma", "0", "--n", "0", "--energy-tol", "1e-9"),
            ("shoot", "--nu", "1", "--lambda", "1", "--gamma", "0", "--n", "0", "--points", "4000"),
            ("shoot", "--nu", "1", "--lambda", "1", "--gamma", "0", "--n", "0", "--max-iterations", "10"),
            ("shoot", "--nu", "-1", "--lambda", "-1", "--gamma", "0", "--n", "0", "--energy-tol=-inf"),
        ],
    )
    def test_invalid_tolerance_exits_2(self, capsys, argv):
        # the oracle has no tolerance settings: a usage error, not ignored
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("shoot", "--nu", "2", "--lambda", "1", "--gamma", "nan", "--n", "0"), "gamma"),
            (("shoot", "--nu", "2", "--lambda", "1", "--gamma", "inf", "--n", "0"), "gamma"),
            (("quantize", "--nu", "1", "--lambda", "1", "--gamma", "nan", "--n", "0"), "gamma"),
            (("compare-well", "--gamma", "nan", "--n-max", "2"), "gamma"),
            (("spectrum", "--nu", "2", "--lambda", "1", "--mu0", "nan", "--n-max", "1", "--q-max", "0"), "mu0"),
            (("tendency", "--nu", "-1", "--lambda", "-1", "--mu0", "nan", "--n-max", "1", "--q-max", "0"), "mu0"),
        ],
    )
    def test_non_finite_gamma_or_mu0_exits_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{name} must be finite" in err

    def test_small_exponent_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--nu", "-0.001", "--lambda", "-1", "--n-max", "1", "--q-max", "1"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 5

    def test_k_range_and_json(self, capsys, tmp_path):
        out_file = tmp_path / "t.json"
        code, _, _ = run_cli(
            capsys,
            "spectrum", "--nu", "2", "--lambda", "1", "--mu0", "0.5",
            "--n-max", "1", "--q-max", "1", "--k-range=-1..1",
            "--format", "json", "--out", str(out_file),
        )
        assert code == 0
        table = table_from_json(out_file.read_text())
        assert len(table.rows) == 2 * 2 * 3

    @pytest.mark.parametrize(
        "k_flags",
        [("--k", "5", "--k-range", "0..0"), ("--k", "0", "--k-range", "1..2"), ("--k-range=-1..1", "--k=-1")],
    )
    def test_k_and_k_range_are_exclusive(self, capsys, k_flags):
        # one of the two flags would otherwise be dropped without a word
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--nu", "2", "--lambda", "1", "--n-max", "0", "--q-max", "0", *k_flags])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "not allowed with argument" in err

    def test_k_alone_and_default(self, capsys):
        argv = ("spectrum", "--nu", "2", "--lambda", "1", "--n-max", "0", "--q-max", "0")
        _, out, _ = run_cli(capsys, *argv, "--k", "5")
        assert [line.split(",")[5] for line in out.strip().split("\n")[1:]] == ["5"]
        _, out, _ = run_cli(capsys, *argv)
        assert [line.split(",")[5] for line in out.strip().split("\n")[1:]] == ["0"]

    def test_well_spectrum(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--nu", "inf", "--radius", "1.0", "--units", "fig2d",
            "--n-max", "2", "--q-max", "0", "--k", "0",
        )
        assert code == 0
        energies = [float(line.split(",")[7]) for line in out.strip().split("\n")[1:]]
        assert energies == pytest.approx([1.0, 4.0, 9.0], rel=1e-11)


class TestSerialization:
    def test_json_round_trip_equality(self):
        table = spectrum_table(PowerLaw(-1.0, -1.0), 0.5, 2, 1, (-1, 1))
        parsed = table_from_json(table_to_json(table))
        # metadata and keys survive exactly; energies to the serialized
        # 12 significant digits (1/9 cannot round-trip beyond that)
        assert parsed.potential == table.potential
        assert parsed.mu0 == table.mu0
        assert parsed.unit == table.unit
        assert [(r.n, r.q, r.k) for r in parsed.rows] == [(r.n, r.q, r.k) for r in table.rows]
        for a, b in zip(parsed.rows, table.rows):
            assert a.energy == pytest.approx(b.energy, rel=1e-11)
        assert table_to_json(parsed) == table_to_json(table)

    def test_json_idempotent_bytes(self):
        table = spectrum_table(PowerLaw(1.0, 0.7), 0.3, 2, 2, (-2, 2))
        once = table_to_json(table)
        twice = table_to_json(table_from_json(once))
        assert twice == once

    def test_csv_schema(self):
        pot = InfiniteWell(2.0)
        table = spectrum_table(pot, 0.0, 1, 0, (0, 0), unit=unit_scale("fig2d", pot))
        text = table_to_csv(table)
        assert text.startswith("nu,lambda,mu0,n,q,k,gamma,energy,unit\n")
        assert text.split("\n")[1].startswith("inf,0,0,0,0,0,0,1,")


class TestCompareWell:
    def test_csv_columns_and_gamma_zero(self, capsys):
        code, out, _ = run_cli(capsys, "compare-well", "--gamma", "0", "--n-max", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "gamma,n,E_exact,E_semiclassical,diff"
        for line in lines[1:]:
            assert abs(float(line.split(",")[4])) < 1e-9

    def test_gamma_25_difference(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare-well", "--gamma", "2.5", "--n-max", "0", "--format", "json"
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["E_semiclassical"] == pytest.approx(5.0625)
        assert row["E_exact"] == pytest.approx(4.124427298596420, abs=1e-9)
        assert row["diff"] == pytest.approx(0.938, abs=2e-3)


class TestTendency:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tendency", "--nu", "2", "--lambda", "1", "--mu0", "0.5", "--k", "0",
            "--n-max", "2", "--q-max", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["curvature"] == "linear"
        assert doc["report"]["flux_slope_sign"] == "0"
        assert len(doc["table"]["rows"]) == 3 * 2

    def test_csv_grid_with_report_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys,
            "tendency", "--nu", "-1", "--lambda", "-1", "--mu0", "0.5", "--k", "0",
            "--n-max", "2", "--q-max", "1",
        )
        assert code == 0
        assert out.startswith(CSV_HEADER)
        assert json.loads(err)["curvature"] == "bends-down"

    def test_underflowing_levels_exit_2_without_rows(self, capsys):
        # the lowest levels near nu = -2 fall below the normal double range
        code, out, err = run_cli(
            capsys,
            "tendency", "--nu", "-1.992219", "--lambda", "-0.695849", "--mu0", "0.900908",
            "--k", "1", "--n-max", "4", "--q-max", "3", "--units", "fig2a", "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert "underflows" in err

    def test_overflowing_level_is_named(self, capsys):
        # (factor x)**power overflows here, power -3998 on a base below 1
        code, out, err = run_cli(
            capsys, "spectrum", "--nu", "-1.999", "--lambda", "-1", "--n-max", "0", "--q-max", "0",
        )
        assert code == 2
        assert out == ""
        assert "level n=0, gamma=" in err and "not finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # the fig2a factor 4/lam**2 is inf
            ["--nu", "50", "--lambda", "1e-154", "--n-max", "1"],
            # a finite factor times a finite level overflows
            ["--nu", "1e6", "--lambda", "2e-154", "--mu0", "1e10", "--n-max", "0"],
        ],
        ids=["factor", "product"],
    )
    def test_overflowing_display_unit_exits_2(self, capsys, argv):
        for command in ("spectrum", "tendency"):
            for fmt in ("csv", "json"):
                code, out, err = run_cli(
                    capsys, command, *argv, "--units", "fig2a", "--q-max", "0", "--k", "0", "--format", fmt
                )
                assert (code, out) == (2, ""), (command, fmt)
                assert "finite" in err

    def test_flux_at_the_kink_is_accepted(self, capsys):
        # the exact report needs no kmu derivative at the point k + mu0 = 0
        code, out, err = run_cli(
            capsys,
            "tendency", "--nu", "-1", "--lambda", "-1", "--mu0", "0", "--k", "0",
            "--n-max", "1", "--q-max", "1",
        )
        assert code == 0
        assert json.loads(err)["ratios"] == [1.0, 1.0, 1.0]


class TestJsonCommands:
    def test_verify_action(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-action", "--nu", "-1", "--lambda", "-1", "--energy", "-0.25"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["numeric"] == pytest.approx(math.pi, abs=1e-10)
        assert doc["closed"] == pytest.approx(math.pi, abs=1e-10)
        assert doc["rel_err"] < 1e-10

    def test_quantize(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantize", "--nu", "1", "--lambda", "1", "--gamma", "0.5", "--n", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["energy"] == pytest.approx((1.5 * math.pi) ** (2.0 / 3.0), rel=1e-6)

    def test_quantize_well_reports_its_radius(self, capsys):
        # the well takes --radius and ignores --lambda
        code, out, _ = run_cli(
            capsys, "quantize", "--nu", "inf", "--lambda", "3", "--radius", "2", "--gamma", "0.5", "--n", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["nu", "radius", "gamma", "n", "constant", "energy"]
        assert doc["nu"] == "inf" and doc["radius"] == 2.0
        setup = QuantizationSetup(InfiniteWell(2.0), 0.5)
        assert doc["energy"] == round12(quantize_energy(setup, 1))

    @pytest.mark.parametrize("nu", ["-1.99", "-0.005"])
    def test_verify_action_at_the_ends(self, capsys, nu):
        code, out, _ = run_cli(
            capsys, "verify-action", "--nu", nu, "--lambda", "-1", "--energy", "-0.5"
        )
        assert code == 0
        assert json.loads(out)["rel_err"] < 1e-12

    def test_verify_action_non_convergence_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(_kernels, "action_sum", lambda E, lam, nu, rc, h, kmax: 1.0 + h)
        code, out, err = run_cli(
            capsys, "verify-action", "--nu", "-1", "--lambda", "-1", "--energy", "-0.25"
        )
        assert code == 3
        assert out == ""
        assert "converge" in err

    def test_verify_action_positive_branch(self, capsys):
        # quarter circle: integral_0^sqrt(3) sqrt(3 - r^2) dr = 3 pi/4
        code, out, _ = run_cli(capsys, "verify-action", "--nu", "2", "--lambda", "1", "--energy", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["closed"] == round12(0.75 * math.pi)
        assert doc["rel_err"] < 1e-15

    @pytest.mark.parametrize("energy", ["-inf", "inf", "nan"])
    def test_verify_action_non_finite_energy_exits_2(self, capsys, energy):
        code, out, err = run_cli(capsys, "verify-action", "--nu", "-1", "--lambda", "-1", f"--energy={energy}")
        assert code == 2
        assert out == ""
        assert "energy must be finite" in err

    def test_verify_action_turning_point_overflow_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-action", "--nu", "-0.01", "--lambda", "-1", "--energy", "-0.0001"
        )
        assert code == 2
        assert out == ""
        assert "turning point" in err
        assert "E=-0.0001, lam=-1.0, nu=-0.01" in err

    def test_quantize_near_minus_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantize", "--nu", "-1.99", "--lambda", "-1", "--gamma", "0.5", "--n", "1"
        )
        assert code == 0
        expected = closed_form_energy(PowerLaw(-1.0, -1.99), 1, 0.5)
        assert json.loads(out)["energy"] == pytest.approx(expected, rel=1e-9)

    def test_shoot(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "shoot", "--nu", "1", "--lambda", "1", "--gamma", "0", "--n", "0",
        )
        assert code == 0
        assert json.loads(out)["energy"] == pytest.approx(2.338107, abs=1e-5)

    def test_shoot_json_keys(self, capsys):
        code, out, _ = run_cli(capsys, "shoot", "--nu", "2", "--lambda", "1", "--gamma", "0", "--n", "0")
        assert code == 0
        assert list(json.loads(out)) == ["nu", "lambda", "gamma", "n", "energy"]

    def test_shoot_non_convergence_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(oracles, "_ENERGY_TOL", 1e-15)
        monkeypatch.setattr(oracles, "_MAX_SWEEPS", 10)
        code, _, err = run_cli(capsys, "shoot", "--nu", "2", "--lambda", "1", "--gamma", "0", "--n", "0")
        assert code == 3
        assert "converge" in err

    def test_zeros(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--order", "0.5", "--count", "3")
        assert code == 0
        zs = json.loads(out)["zeros"]
        assert zs == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-9)


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (("tendency", "--lambda", "-1", "--n-max", "1", "--q-max", "1"), "--nu", "-1e-05"),
        (("shoot", "--nu", "-1", "--gamma", "0", "--n", "0"), "--lambda", "-1e-3"),
        (("spectrum", "--nu", "-1", "--lambda", "-1", "--n-max", "1", "--q-max", "0"), "--mu0", "-2.5E-1"),
        (("spectrum", "--nu", "2", "--lambda", "1", "--n-max", "0", "--q-max", "0"), "--k-range", "-2..1"),
        (("verify-action", "--nu", "-1.5", "--lambda", "-0.7"), "--energy", "-3e-1"),
        (("quantize", "--nu", "-1.5", "--gamma", "0.5", "--n", "1"), "--lambda", "-.7"),
    ],
    ids=["tendency-nu", "shoot-lambda", "spectrum-mu0", "spectrum-k-range", "verify-action-energy", "quantize-lambda"],
)
def test_negative_values_follow_their_flag(capsys, argv, flag, value):
    # argparse's own pattern reads -1e-05 as an option and exits 2 with
    # "expected one argument"; both spellings must give the same output
    separate = run_cli(capsys, *argv, flag, value)
    attached = run_cli(capsys, *argv, f"{flag}={value}")
    assert separate == attached
    assert separate[0] == 0


def test_version_is_the_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"abwkb {abwkb.__version__}\n"


class TestLibraryDefaults:
    # without tuning flags the CLI passes none, so the library defaults apply
    def test_shoot(self, capsys):
        code, out, _ = run_cli(capsys, "shoot", "--nu", "1", "--lambda", "1", "--gamma", "0", "--n", "0")
        assert code == 0
        assert json.loads(out)["energy"] == round12(shoot_eigenvalue(PowerLaw(1.0, 1.0), 0.0, 0))

    def test_quantize(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantize", "--nu", "-1.5", "--lambda", "-0.7", "--gamma", "0.5", "--n", "1"
        )
        assert code == 0
        setup = QuantizationSetup(PowerLaw(-0.7, -1.5), 0.5)
        assert json.loads(out)["energy"] == round12(quantize_energy(setup, 1))

    def test_verify_action(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-action", "--nu", "-1.5", "--lambda", "-0.7", "--energy", "-0.3"
        )
        assert code == 0
        assert json.loads(out)["numeric"] == round12(action_integral_numeric(-0.3, PowerLaw(-0.7, -1.5)))

    def test_shoot_takes_no_tuning_flags(self, capsys, monkeypatch):
        # the oracle sizes its own grid; the CLI passes the state alone
        args = build_parser().parse_args(["shoot", "--nu", "2", "--lambda", "1", "--gamma", "0", "--n", "0"])
        assert set(vars(args)) == {"command", "func", "nu", "lam", "gamma", "n", "out"}
        seen = []
        monkeypatch.setattr(oracles, "shoot_eigenvalue", lambda *a: seen.append(a) or 1.0)
        code, _, _ = run_cli(capsys, "shoot", "--nu", "2", "--lambda", "1", "--gamma", "0", "--n", "0")
        assert code == 0
        assert seen == [(PowerLaw(1.0, 2.0), 0.0, 0)]


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        argv = [
            "spectrum", "--nu", "-1", "--lambda", "-1", "--mu0", "0.3",
            "--n-max", "3", "--q-max", "2", "--k-range=-2..2",
        ]
        outputs = []
        svgs = []
        for tag in ("a", "b"):
            svg_path = tmp_path / f"{tag}.svg"
            code, out, _ = run_cli(capsys, *argv, "--svg", str(svg_path))
            assert code == 0
            outputs.append(out)
            svgs.append(svg_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert svgs[0] == svgs[1]

    def test_json_determinism(self, capsys):
        argv = [
            "tendency", "--nu", "2", "--lambda", "1", "--mu0", "0.5", "--k", "0",
            "--n-max", "3", "--q-max", "3", "--format", "json",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_svg_fixed_viewbox(self, capsys, tmp_path):
        svg_path = tmp_path / "w.svg"
        code, _, _ = run_cli(
            capsys, "compare-well", "--gamma", "2.5", "--n-max", "5", "--svg", str(svg_path)
        )
        assert code == 0
        text = svg_path.read_text()
        assert 'viewBox="0 0 800 600"' in text
        assert "<script" not in text
