"""Command-line front end.

Subcommands: spectrum, compare-well, tendency, verify-action, quantize,
shoot, zeros.  Tables serialize to CSV/JSON with fixed 12-significant-
digit formatting and optional SVG figures; repeated identical invocations
produce byte-identical output.

Exit codes: 0 success, 2 usage/domain error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import __version__
from . import action as action_mod
from . import analysis, closed_form, oracles, svg
from .closed_form import SpectrumTable, spectrum_table
from .errors import ConvergenceError
from .model import UNIT_PRESETS, InfiniteWell, PowerLaw, UnitScale, unit_scale

__all__ = ["main", "build_parser", "table_to_csv", "table_to_json", "table_from_json"]

CSV_HEADER = "nu,lambda,mu0,n,q,k,gamma,energy,unit"
WELL_CSV_COLUMNS = "gamma,n,E_exact,E_semiclassical,diff"


def fmt12(x: float) -> str:
    """Fixed 12-significant-digit float formatting used in CSV and JSON."""
    return f"{x:.12g}"


def round12(x: float) -> float:
    return float(fmt12(x))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _potential_json(pot) -> dict:
    if isinstance(pot, InfiniteWell):
        return {"kind": "infinite-well", "radius": round12(pot.a)}
    return {"kind": "power-law", "nu": round12(pot.nu), "lambda": round12(pot.lam)}


def _potential_from_json(obj: dict):
    if obj["kind"] == "infinite-well":
        return InfiniteWell(obj["radius"])
    if obj["kind"] == "power-law":
        return PowerLaw(obj["lambda"], obj["nu"])
    raise ValueError(f"unknown potential kind {obj.get('kind')!r}")


def table_to_csv(table: SpectrumTable) -> str:
    pot = table.potential
    if isinstance(pot, InfiniteWell):
        nu_s, lam_s = "inf", fmt12(0.0)
    else:
        nu_s, lam_s = fmt12(pot.nu), fmt12(pot.lam)
    head = f"{nu_s},{lam_s},{fmt12(table.mu0)},"
    tail = f",{table.unit.label}"
    lines = [CSV_HEADER]
    lines += [f"{head}{r.n},{r.q},{r.k},{r.gamma:.12g},{r.energy:.12g}{tail}" for r in table.rows]
    return "\n".join(lines) + "\n"


def table_to_json(table: SpectrumTable) -> str:
    """The bytes json.dumps(indent=2) writes for the table's dict form: the
    metadata goes through json.dumps and each row through one f-string,
    since repr(round12(x)) is what json.dumps writes for a finite x.  A
    non-finite gamma or energy has no JSON form and raises ValueError."""
    if not all(math.isfinite(r.gamma) and math.isfinite(r.energy) for r in table.rows):
        raise ValueError("table_to_json: gamma and energy must be finite")
    head = _dump_json(
        {
            "potential": _potential_json(table.potential),
            "mu0": round12(table.mu0),
            "unit": {"label": table.unit.label, "factor": round12(table.unit.factor)},
            "rows": [],
        }
    )
    if not table.rows:
        return head
    rows = [
        f'    {{\n      "n": {r.n},\n      "q": {r.q},\n      "k": {r.k},\n'
        f'      "gamma": {float(f"{r.gamma:.12g}")!r},\n      "energy": {float(f"{r.energy:.12g}")!r}\n    }}'
        for r in table.rows
    ]
    # head ends with '"rows": []\n}\n'; one join, so the output is copied once
    rows[0] = head[:-5] + "[\n" + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n".join(rows)


def table_from_json(text: str) -> SpectrumTable:
    obj = json.loads(text)
    rows = tuple(
        closed_form.EnergyLevel(r["n"], r["q"], r["k"], r["gamma"], r["energy"]) for r in obj["rows"]
    )
    return SpectrumTable(
        _potential_from_json(obj["potential"]),
        obj["mu0"],
        UnitScale(obj["unit"]["label"], obj["unit"]["factor"]),
        rows,
    )


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_nu(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    if not hi:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    return int(lo), int(hi)


def _potential_from_args(args) -> PowerLaw | InfiniteWell:
    if args.nu == math.inf:
        return InfiniteWell(args.radius)
    if args.lam is None:
        raise ValueError("--lambda is required for finite exponents")
    return PowerLaw(args.lam, args.nu)


def _unit_from_args(args, potential) -> UnitScale:
    preset = getattr(args, "units", None) or "reduced"
    return unit_scale(preset, potential)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_svg(markup: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(markup)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _levels_svg(table: SpectrumTable, title: str, key, label: str) -> str:
    """One E(n) panel with a series per group of rows sharing key(row), a
    tuple, named label.format(*key(row)); groups and the points in each
    run in ascending order."""
    groups: dict[tuple, list] = {}
    for r in table.rows:
        groups.setdefault(key(r), []).append(r)
    panel = svg.Panel(title, "n", f"E [{table.unit.label}]")
    for g, rows in sorted(groups.items()):
        rows.sort(key=lambda r: r.n)
        panel.series.append(svg.Series(label.format(*g), [float(r.n) for r in rows], [r.energy for r in rows]))
    return svg.render_svg([panel])


def _cmd_spectrum(args) -> int:
    potential = _potential_from_args(args)
    unit = _unit_from_args(args, potential)
    k = args.k or 0
    k_range = args.k_range or (k, k)
    table = spectrum_table(potential, args.mu0, args.n_max, args.q_max, k_range, unit)
    text = table_to_json(table) if args.format == "json" else table_to_csv(table)
    _write_output(text, args.out)
    if args.svg:
        title = f"levels, mu0={fmt12(table.mu0)}"
        _write_svg(_levels_svg(table, title, lambda r: (r.q, r.k), "q={},k={}"), args.svg)
    return 0


def _cmd_compare_well(args) -> int:
    g, n_max = args.gamma, args.n_max
    if g < 0.0 or n_max < 0:
        raise ValueError("gamma and n-max must be non-negative")
    exact = oracles.well_exact_spectrum(g, 1.0, n_max + 1)
    # the closed form in units hbar^2 pi^2/2ma^2: (n + g/2 + 1)**2
    well = closed_form.level_coefficients(InfiniteWell(1.0))
    semi = [well.level_index(n, g) ** 2 for n in range(n_max + 1)]
    diffs = [s - e for s, e in zip(semi, exact)]
    if args.format == "json":
        text = _dump_json(
            {
                "gamma": round12(g),
                "unit": "hbar^2 pi^2/2ma^2",
                "rows": [
                    {"n": n, "E_exact": round12(exact[n]), "E_semiclassical": round12(semi[n]), "diff": round12(diffs[n])}
                    for n in range(n_max + 1)
                ],
            }
        )
    else:
        lines = [WELL_CSV_COLUMNS]
        for n in range(n_max + 1):
            lines.append(f"{fmt12(g)},{n},{fmt12(exact[n])},{fmt12(semi[n])},{fmt12(diffs[n])}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    if args.svg:
        ns = [float(n) for n in range(n_max + 1)]
        left = svg.Panel("well levels", "n", "E [hbar^2 pi^2/2ma^2]")
        left.series.append(svg.Series("exact", ns, exact))
        left.series.append(svg.Series("semiclassical", ns, semi))
        right = svg.Panel("semiclassical - exact", "n", "difference")
        right.series.append(svg.Series("", ns, diffs))
        _write_svg(svg.render_svg([left, right]), args.svg)
    return 0


_TENDENCY_DEFAULT_UNITS = {-1.0: "fig2a", 1.0: "fig2b", 2.0: "fig2c", math.inf: "fig2d"}


def _cmd_tendency(args) -> int:
    potential = _potential_from_args(args)
    preset = args.units or _TENDENCY_DEFAULT_UNITS.get(args.nu, "reduced")
    unit = unit_scale(preset, potential)
    table = spectrum_table(potential, args.mu0, args.n_max, args.q_max, (args.k, args.k), unit)
    report = analysis.build_tendency_report(potential)
    report_obj = {
        "nu": "inf" if report.nu == math.inf else round12(report.nu),
        "curvature": report.curvature,
        "first_derivative_signs": list(report.first_derivative_signs),
        "ratios": [round12(r) for r in report.ratios],
        "flux_slope_sign": report.flux_slope_sign,
    }
    if args.format == "json":
        # _dump_json({"report": ..., "table": ...}) without parsing the table's
        # JSON again: with indent=2, a value nested one level down is its own
        # dump with every line after the first indented two more spaces
        report_text = json.dumps(report_obj, indent=2).replace("\n", "\n  ")
        table_text = table_to_json(table)[:-1].replace("\n", "\n  ")
        _write_output(f'{{\n  "report": {report_text},\n  "table": {table_text}\n}}\n', args.out)
    else:
        _write_output(table_to_csv(table), args.out)
        sys.stderr.write(json.dumps(report_obj) + "\n")
    if args.svg:
        title = f"E(n) by q, |k+mu0|={fmt12(abs(table.rows[0].k + table.mu0))}"
        _write_svg(_levels_svg(table, title, lambda r: (r.q,), "q={}"), args.svg)
    return 0


def _cmd_verify_action(args) -> int:
    potential = PowerLaw(args.lam, args.nu)
    numeric = action_mod.action_integral_numeric(args.energy, potential)
    closed = action_mod.action_integral_closed(args.energy, potential)
    rel = abs(numeric - closed) / abs(closed)
    _write_output(
        _dump_json(
            {
                "nu": round12(args.nu),
                "lambda": round12(args.lam),
                "energy": round12(args.energy),
                "numeric": round12(numeric),
                "closed": round12(closed),
                "rel_err": float(f"{rel:.3g}"),
            }
        ),
        args.out,
    )
    return 0


def _cmd_quantize(args) -> int:
    potential = _potential_from_args(args)
    setup = action_mod.QuantizationSetup(potential, args.gamma)
    energy = action_mod.quantize_energy(setup, args.n)
    if isinstance(potential, InfiniteWell):
        shape = {"nu": "inf", "radius": round12(potential.a)}
    else:
        shape = {"nu": round12(potential.nu), "lambda": round12(potential.lam)}
    _write_output(
        _dump_json(
            {
                **shape,
                "gamma": round12(args.gamma),
                "n": args.n,
                "constant": round12(setup.constant),
                "energy": round12(energy),
            }
        ),
        args.out,
    )
    return 0


def _cmd_shoot(args) -> int:
    energy = oracles.shoot_eigenvalue(PowerLaw(args.lam, args.nu), args.gamma, args.n)
    _write_output(
        _dump_json(
            {
                "nu": round12(args.nu),
                "lambda": round12(args.lam),
                "gamma": round12(args.gamma),
                "n": args.n,
                "energy": round12(energy),
            }
        ),
        args.out,
    )
    return 0


def _cmd_zeros(args) -> int:
    from .special_functions import bessel_j_zeros

    zeros = bessel_j_zeros(args.order, args.count)
    _write_output(
        _dump_json(
            {"order": round12(args.order), "count": args.count, "zeros": [round12(z) for z in zeros]}
        ),
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, fmt: bool = True) -> None:
    p.add_argument("--out", help="write output to this path instead of stdout")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_potential(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu", type=_parse_nu, required=True, help="exponent; 'inf' selects the well")
    p.add_argument("--lambda", dest="lam", type=float, help="coupling (sign must match nu range)")
    p.add_argument("--radius", type=float, default=1.0, help="well radius for --nu inf")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abwkb",
        description="Semiclassical spectra for power-law potentials under an Aharonov-Bohm flux",
    )
    parser.add_argument("--version", action="version", version=f"abwkb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form level grid over (n, q, k)")
    _add_potential(p)
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q-max", type=int, required=True)
    # --k has no default, so that argparse sees it given next to --k-range
    k_flags = p.add_mutually_exclusive_group()
    k_flags.add_argument("--k", type=int)
    k_flags.add_argument("--k-range", type=_parse_k_range, metavar="LO..HI")
    p.add_argument("--units", choices=UNIT_PRESETS)
    p.add_argument("--svg", help="also write an SVG plot to this path")
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("compare-well", help="exact vs semiclassical well levels")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--svg", help="two-panel SVG (levels, difference)")
    _add_common(p)
    p.set_defaults(func=_cmd_compare_well)

    p = sub.add_parser("tendency", help="E(n, q) grid plus a tendency report")
    _add_potential(p)
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--units", choices=UNIT_PRESETS)
    p.add_argument("--svg")
    _add_common(p)
    p.set_defaults(func=_cmd_tendency)

    p = sub.add_parser("verify-action", help="numeric vs closed-form action integral")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--energy", type=float, required=True)
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_verify_action)

    p = sub.add_parser("quantize", help="energy from the quantization condition")
    _add_potential(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("shoot", help="Numerov shooting eigenvalue")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_shoot)

    p = sub.add_parser("zeros", help="positive zeros of J_order")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_zeros)

    # a word after a flag is its value, not an option, where argparse's negative-number pattern
    # matches it; its own takes -0.5 but not -1e-05, this one any -<digit> or -.<digit> word
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


# main() builds its parser on its first call, not at import, and reuses it
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
