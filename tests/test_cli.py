"""CLI contract tests: schemas, exit codes, round trips, determinism."""

import contextlib
import hashlib
import io
import json
import math
import random

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
        assert float(first[7]) == pytest.approx(-1.0 / 9.0, rel=1e-11, abs=0)

    def test_oscillator_reduced_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--nu", "2", "--lambda", "1", "--mu0", "0",
            "--n-max", "1", "--q-max", "0", "--k", "0",
        )
        assert code == 0
        energies = [float(line.split(",")[7]) for line in out.strip().split("\n")[1:]]
        assert energies == pytest.approx([3.0, 7.0], rel=1e-11, abs=0)

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

    @pytest.mark.parametrize("k_range", ["a..b", "..3", "1..2..3", "1.5..2"])
    def test_malformed_k_range_is_a_usage_error(self, capsys, k_range):
        # every malformed value gets the message a value without '..' gets
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--nu", "2", "--lambda", "1", "--n-max", "1", "--q-max", "0", f"--k-range={k_range}"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"expected LO..HI, got {k_range!r}" in err
        assert "_parse_k_range" not in err

    @pytest.mark.parametrize("command", ["spectrum", "tendency", "quantize"])
    def test_finite_exponent_needs_a_coupling(self, capsys, command):
        flags = ("--gamma", "0", "--n", "0") if command == "quantize" else ("--n-max", "1", "--q-max", "0")
        code, out, err = run_cli(capsys, command, "--nu", "2", *flags)
        assert (code, out) == (2, "")
        assert "--lambda is required" in err

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
        assert energies == pytest.approx([1.0, 4.0, 9.0], rel=1e-11, abs=0)

    def test_level_under_an_underflowing_power_prints(self, capsys):
        # (factor x)**power is 0 here, but the level, formed in logarithms, is -8.548090369602633e-44
        code, out, err = run_cli(
            capsys,
            "spectrum", "--nu", "-1.99", "--lambda", "-30", "--mu0", "4", "--k", "0",
            "--n-max", "0", "--q-max", "0",
        )
        assert (code, err) == (0, "")
        assert out == f"{CSV_HEADER}\n-1.99,-30,4,0,0,0,4,-8.5480903696e-44,reduced\n"

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("--nu", "-1.5", "--lambda", "-2", "--mu0", "0.3", "--n-max", "20", "--q-max", "5",
              "--k-range=-3..3", "--format", "json"),
             "c7e314ad736ce3b362f8c6789e61e5ca4f93d7e3d4bfeb9cd01e9302f49ba46b"),
            (("--nu", "3", "--lambda", "0.7", "--mu0", "0.3", "--n-max", "20", "--q-max", "5",
              "--k-range=-3..3", "--format", "csv"),
             "bd183789b288a3a13dc7c75db661f713265c99bfa02018199ab153043ea8fcad"),
            # |E| down to 1.1e-285 at nu = -1.99, each power still a normal float
            (("--nu", "-1.99", "--lambda", "-1", "--mu0", "0.25", "--n-max", "5", "--q-max", "2",
              "--k-range=-1..0"),
             "52ec60480abe01587feb25bcff29c6738d99f5a2e1049a5ffc88fdc27dbea44e"),
        ],
        ids=["nu-1.5-json", "nu3-csv", "nu-1.99-csv"],
    )
    def test_normal_range_tables_keep_their_bytes(self, capsys, argv, digest):
        # sha256 of the output written before levels could be formed in logarithms
        code, out, _ = run_cli(capsys, "spectrum", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
            assert a.energy == pytest.approx(b.energy, rel=1e-11, abs=0)
        assert table_to_json(parsed) == table_to_json(table)

    def test_json_idempotent_bytes(self):
        table = spectrum_table(PowerLaw(1.0, 0.7), 0.3, 2, 2, (-2, 2))
        once = table_to_json(table)
        twice = table_to_json(table_from_json(once))
        assert twice == once

    def test_unknown_potential_kind_raises(self):
        obj = json.loads(table_to_json(spectrum_table(PowerLaw(1.0, 2.0), 0.0, 1, 0, (0, 0))))
        obj["potential"]["kind"] = "yukawa"
        with pytest.raises(ValueError, match="unknown potential kind 'yukawa'"):
            table_from_json(json.dumps(obj))

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

    @pytest.mark.parametrize("flags", [("--gamma", "-1", "--n-max", "2"), ("--gamma", "0", "--n-max", "-1")])
    def test_negative_gamma_or_n_max_exits_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "compare-well", *flags)
        assert (code, out) == (2, "")
        assert "gamma and n-max must be non-negative" in err

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

    def test_display_unit_pushing_a_level_subnormal_exits_2(self, capsys):
        # the reduced level -3.34e-308 is normal; times the fig2b factor 0.356 it is -1.19e-308
        code, out, err = run_cli(
            capsys,
            "spectrum", "--nu", "-1.99", "--lambda", "-1", "--mu0", "0.26", "--n-max", "0", "--q-max", "3",
            "--units", "fig2b",
        )
        assert (code, out) == (2, "")
        assert "level n=0, gamma=3.26 underflows" in err

    def test_out_of_range_grid_names_its_extreme_level(self, capsys):
        # n = 0 underflows from gamma = 2.74 on, but the grid checks its two
        # corners first, and the smallest |E| is n_max = 3 at the largest gamma
        code, out, err = run_cli(
            capsys,
            "tendency", "--nu", "-1.991805", "--lambda", "-0.752466", "--mu0", "0.735763",
            "--k", "1", "--n-max", "3", "--q-max", "4", "--units", "fig2a", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err == "error: level n=3, gamma=5.735763 underflows: |E| = 0\n"

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
        assert doc["energy"] == pytest.approx((1.5 * math.pi) ** (2.0 / 3.0), rel=1e-6, abs=0)

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
        assert json.loads(out)["energy"] == pytest.approx(expected, rel=1e-9, abs=0)

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
        # the oscillator ground level takes 6 sweeps
        monkeypatch.setattr(oracles, "_MAX_SWEEPS", 5)
        code, _, err = run_cli(capsys, "shoot", "--nu", "2", "--lambda", "1", "--gamma", "0", "--n", "0")
        assert code == 3
        assert "converge" in err

    def test_zeros(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--order", "0.5", "--count", "3")
        assert code == 0
        zs = json.loads(out)["zeros"]
        assert zs == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-9)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("zeros", "--order", "99.5", "--count", "1"), "order <= 99, got 99.5"),
            (("compare-well", "--gamma", "99.2", "--n-max", "0"), "order <= 99, got 99.7"),
        ],
        ids=["zeros", "compare-well"],
    )
    def test_bessel_order_past_the_zeros_limit_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--n-max", "0", "--q-max", "0"),
            ("tendency", "--n-max", "0", "--q-max", "0"),
            ("quantize", "--gamma", "0", "--n", "0"),
            ("shoot", "--gamma", "0", "--n", "0"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_overflowing_energy_scale_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--nu", "-1.99", "--lambda", "-1e10")
        assert (code, out) == (2, "")
        assert "overflows at lam=-10000000000.0, nu=-1.99" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("shoot", "--nu", "-1.99", "--lambda", "-1e-10", "--gamma", "0", "--n", "0"),
             "energy scale |lam|**(2/(nu+2)) underflows at lam=-1e-10, nu=-1.99"),
            (("shoot", "--nu", "-1.5", "--lambda", "-1.4e-77", "--gamma", "0", "--n", "0"),
             "level n=0, gamma=0.0 underflows"),
            (("shoot", "--nu", "2", "--lambda", "1", "--gamma", "1e160", "--n", "0"),
             "gamma=1e+160 is out of range: (gamma + 1/2)**2 overflows"),
            (("shoot", "--nu", "-1", "--lambda", "-1", "--gamma", "1e160", "--n", "0"),
             "gamma=1e+160 is out of range: (gamma + 1/2)**2 overflows"),
            (("spectrum", "--nu", "-1.99", "--lambda", "-0.025", "--n-max", "0", "--q-max", "0"),
             "energy scale |lam|**(2/(nu+2)) underflows at lam=-0.025, nu=-1.99"),
            (("spectrum", "--nu", "inf", "--radius", "1e-170", "--n-max", "0", "--q-max", "0"),
             "energy scale pi**2/a**2 overflows at a=1e-170"),
            (("quantize", "--nu", "inf", "--radius", "1e-170", "--gamma", "0", "--n", "0"),
             "energy scale pi**2/a**2 overflows at a=1e-170"),
            (("spectrum", "--nu", "inf", "--radius", "1e200", "--n-max", "0", "--q-max", "0"),
             "energy scale pi**2/a**2 underflows at a=1e+200"),
            (("quantize", "--nu", "inf", "--radius", "1e200", "--gamma", "0", "--n", "0"),
             "energy scale pi**2/a**2 underflows at a=1e+200"),
            (("verify-action", "--nu", "-0.0011859150628629645", "--lambda", "-1.4448136191454214e-64",
              "--energy", "-22.03611651852593"),
             "turning point (E/lam)**(1/nu) underflows at E=-22.03611651852593"),
            (("verify-action", "--nu", "-1.9999614336821794", "--lambda", "-1.160724266423313e+258",
              "--energy", "-2.7437620081659626e-165"),
             "turning point (E/lam)**(1/nu) overflows at E=-2.7437620081659626e-165"),
            (("verify-action", "--nu", "1", "--lambda", "1e-100", "--energy", "1e-300"),
             "action at E=1e-300 underflows for PowerLaw(lam=1e-100, nu=1.0)"),
            (("tendency", "--nu", "297.02821539612927", "--lambda", "3.3824148390993665e-230",
              "--n-max", "2", "--q-max", "0", "--units", "fig2a"),
             "fig2a unit factor is not finite and positive for PowerLaw(lam=3.3824148390993665e-230"),
            (("spectrum", "--nu", "inf", "--radius", "1e160", "--n-max", "0", "--q-max", "0", "--units", "fig1"),
             "fig1 unit factor is not finite and positive for InfiniteWell(a=1e+160)"),
            # tendency's default unit at nu = inf is fig2d
            (("tendency", "--nu", "inf", "--radius", "1e160", "--n-max", "0", "--q-max", "0"),
             "fig2d unit factor is not finite and positive for InfiniteWell(a=1e+160)"),
            # factors that round to 0 without raising
            (("spectrum", "--nu", "inf", "--radius", "1e-170", "--units", "fig1", "--n-max", "0", "--q-max", "0"),
             "fig1 unit factor is not finite and positive for InfiniteWell(a=1e-170)"),
            (("spectrum", "--nu", "1", "--lambda", "1.7e308", "--units", "fig2b", "--n-max", "0", "--q-max", "0"),
             "fig2b unit factor is not finite and positive for PowerLaw(lam=1.7e+308, nu=1.0)"),
        ],
        ids=[
            "shoot-zero-scale", "shoot-subnormal-level", "shoot-huge-gamma", "shoot-huge-gamma-tail",
            "spectrum-subnormal-scale",
            "spectrum-well-zero-a2", "quantize-well-zero-a2", "spectrum-well-inf-a2", "quantize-well-inf-a2",
            "verify-action-zero-rc", "verify-action-zero-ratio", "verify-action-zero-action",
            "tendency-fig2a", "spectrum-fig1", "tendency-fig2d", "spectrum-fig1-zero", "spectrum-fig2b-zero",
        ],
    )
    def test_out_of_range_values_are_named(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_shoot_at_tiny_coupling(self, capsys):
        # the unit-coupling level times (1e-300)**(2/1002)
        code, out, _ = run_cli(capsys, "shoot", "--nu", "1000", "--lambda", "1e-300", "--gamma", "0", "--n", "0")
        assert code == 0
        assert json.loads(out)["energy"] == 2.42392150263

    def test_shoot_reach_ends_between_nu_1500_and_2000(self, capsys):
        # the step bound on one uniform log grid needs about 34 nu points;
        # at nu = 2000 their 2N - 1 point refinement passes _MAX_POINTS = 2**17
        code, out, _ = run_cli(capsys, "shoot", "--nu", "1500", "--lambda", "1", "--gamma", "0", "--n", "0")
        assert code == 0
        assert json.loads(out)["energy"] == 9.69410091922
        code, out, err = run_cli(capsys, "shoot", "--nu", "2000", "--lambda", "1", "--gamma", "0", "--n", "0")
        assert (code, out) == (3, "")
        assert "grid step too coarse: h^2 |g| / 12 <= 0.5 needs 67976 points" in err


class TestOutputPath:
    # main writes every command's output: --out gets what stdout would
    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--nu", "-1", "--lambda", "-1", "--mu0", "0.3", "--n-max", "2", "--q-max", "1", "--k-range=-1..1"),
            ("compare-well", "--gamma", "2.5", "--n-max", "3", "--format", "json"),
            ("tendency", "--nu", "2", "--lambda", "1", "--mu0", "0.5", "--n-max", "2", "--q-max", "1", "--format", "json"),
            ("verify-action", "--nu", "-1.5", "--lambda", "-0.7", "--energy", "-0.3"),
            ("quantize", "--nu", "inf", "--radius", "2", "--gamma", "0.5", "--n", "1"),
            ("shoot", "--nu", "2", "--lambda", "1", "--gamma", "0", "--n", "1"),
            ("zeros", "--order", "1.5", "--count", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_holds_what_stdout_prints(self, capsys, tmp_path, argv):
        code, printed, err = run_cli(capsys, *argv)
        assert code == 0 and printed
        out_file = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, "--out", str(out_file)) == (0, "", err)
        assert out_file.read_text(encoding="utf-8") == printed

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--nu", "2", "--lambda", "1", "--n-max", "2", "--q-max", "1"),
            ("compare-well", "--gamma", "0.5", "--n-max", "2"),
            ("tendency", "--nu", "-1", "--lambda", "-1", "--n-max", "2", "--q-max", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_svg_beside_out(self, capsys, tmp_path, argv):
        _, printed, _ = run_cli(capsys, *argv)
        out_file, svg_file = tmp_path / "out.csv", tmp_path / "fig.svg"
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_file), "--svg", str(svg_file))
        assert (code, out) == (0, "")
        assert out_file.read_text(encoding="utf-8") == printed
        assert svg_file.read_text(encoding="utf-8").startswith("<svg")

    @pytest.mark.parametrize("nu", ["abc", "1..5", ""])
    def test_malformed_nu_is_an_invalid_float(self, capsys, nu):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", f"--nu={nu}", "--lambda", "1", "--n-max", "0", "--q-max", "0"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"argument --nu: invalid float value: {nu!r}" in err

    @pytest.mark.parametrize("nu", ["inf", "INF", " Infinity ", "infinity"])
    def test_any_spelling_of_inf_selects_the_well(self, capsys, nu):
        argv = ("spectrum", "--radius", "2", "--n-max", "1", "--q-max", "0")
        assert run_cli(capsys, *argv, f"--nu={nu}") == run_cli(capsys, *argv, "--nu", "inf")
        assert run_cli(capsys, *argv, f"--nu={nu}")[1].split("\n")[1].startswith("inf,0,")

    def test_tendency_csv_reports_before_an_unwritable_out(self, capsys, tmp_path):
        # the command hands its table back before main writes it, so the
        # report line on stderr precedes the write's error
        argv = ("tendency", "--nu", "-1", "--lambda", "-1", "--n-max", "1", "--q-max", "0")
        _, _, report = run_cli(capsys, *argv)
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "t.csv"))
        assert (code, out) == (2, "")
        first, second = err.splitlines()
        assert first + "\n" == report and json.loads(first)["curvature"] == "bends-down"
        assert second.startswith("error: [Errno 2]")


_SHOOT_NUS = (-1.5, -1.0, 0.5, 1.0, 2.0, 12.0, 1000.0)  # each solve within ~40 ms
_FORBIDDEN = ("math domain error", "division by zero", "(34,", "cannot be raised")


def _magnitude(rng):
    return 10.0 ** rng.uniform(-300.0, 300.0)


def _exponent(rng):
    kind = rng.randrange(4)
    if kind == 0:  # near 0, either side
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-7.0, -1.0)
    if kind == 1:  # near -2
        return -2.0 + 10.0 ** rng.uniform(-7.0, -1.0)
    if kind == 2:
        return rng.uniform(-2.0, 20.0)
    return 10.0 ** rng.uniform(0.0, 300.0)


def _coupling(rng, nu):
    # mostly of the sign the exponent needs
    return math.copysign(_magnitude(rng), nu if rng.random() < 0.95 else -nu)


def _potential_flags(rng):
    if rng.random() < 0.2:
        return ["--nu", "inf", "--radius", repr(_magnitude(rng))]
    nu = _exponent(rng)
    return ["--nu", repr(nu), "--lambda", repr(_coupling(rng, nu))]


def _seeded_argv(rng):
    command = rng.choice(("spectrum", "compare-well", "tendency", "verify-action", "quantize", "shoot", "zeros"))
    if command in ("spectrum", "tendency"):
        argv = [command, *_potential_flags(rng), "--mu0", repr(rng.uniform(-2.0, 2.0))]
        argv += ["--n-max", str(rng.randint(0, 3)), "--q-max", str(rng.randint(0, 2)), f"--k={rng.randint(-2, 2)}"]
        if rng.random() < 0.7:
            argv += ["--units", rng.choice(("reduced", "fig1", "fig2a", "fig2b", "fig2c", "fig2d"))]
        return argv + ["--format", rng.choice(("csv", "json"))]
    if command == "compare-well":
        argv = [command, "--gamma", repr(rng.uniform(0.0, 100.0)), "--n-max", str(rng.randint(0, 4))]
        return argv + ["--format", rng.choice(("csv", "json"))]
    if command == "verify-action":
        nu = _exponent(rng)
        lam = _coupling(rng, nu)
        return [command, "--nu", repr(nu), "--lambda", repr(lam), "--energy", repr(math.copysign(_magnitude(rng), lam))]
    if command == "quantize":
        return [command, *_potential_flags(rng), "--gamma", repr(rng.uniform(0.0, 4.0)), "--n", str(rng.randint(0, 5))]
    if command == "shoot":
        nu = rng.choice(_SHOOT_NUS)
        return [
            command, "--nu", repr(nu), "--lambda", repr(math.copysign(_magnitude(rng), nu)),
            "--gamma", repr(rng.uniform(0.0, 2.0)), "--n", str(rng.randint(0, 3)),
        ]
    return [command, "--order", repr(rng.uniform(0.0, 120.0)), "--count", str(rng.randint(1, 5))]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def _non_finite_number(text):
    """The first non-finite number of a JSON document or a CSV table, or
    None; CSV's nu column holds the word inf for the well by design."""
    if text.startswith("{"):
        try:
            json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            return str(exc)
        return None
    header, *rows = text.splitlines()
    for row in rows:
        for column, field in zip(header.split(","), row.split(",")):
            if column not in ("nu", "unit") and not math.isfinite(float(field)):
                return f"{column}={field}"
    return None


def test_seeded_contract_sweep():
    # |lam|, the radius and |E| log-uniform over 1e-300..1e300; exponents near
    # 0, near -2 and up to 1e300: an input outside the double range exits 2
    # with a named error, never with a traceback, a bare errno text or inf
    rng = random.Random(19)
    failures, succeeded = [], set()
    for _ in range(300):
        argv = _seeded_argv(rng)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except BaseException as exc:  # noqa: BLE001 - nothing may escape main
                code = f"{type(exc).__name__}: {exc}"
        if code == 0:
            succeeded.add(argv[0])
        found = [s for s in _FORBIDDEN if s in err.getvalue()]
        if code not in (0, 2, 3) or found or (code == 0 and _non_finite_number(out.getvalue())):
            failures.append((argv, code, err.getvalue()[-200:]))
    assert failures == []
    assert succeeded == {"spectrum", "compare-well", "tendency", "verify-action", "quantize", "shoot", "zeros"}


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
