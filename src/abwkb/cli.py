"""Command-line front end.

Subcommands: spectrum, compare-well, tendency, verify-action, quantize,
shoot, zeros.  Tables serialize to CSV/JSON with fixed 12-significant-
digit formatting and optional SVG figures; repeated identical invocations
produce byte-identical output.

The solver modules, action and oracles, and with them NumPy, are
imported inside the handlers that call them, so the closed-form
commands start without NumPy.

Exit codes: 0 success, 2 usage/domain error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import __version__, analysis, closed_form, special_functions, svg
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
    if not table.energies:
        return CSV_HEADER + "\n"
    pot = table.potential
    if isinstance(pot, InfiniteWell):
        nu_s, lam_s = "inf", fmt12(0.0)
    else:
        nu_s, lam_s = fmt12(pot.nu), fmt12(pot.lam)
    head = f"{nu_s},{lam_s},{fmt12(table.mu0)},"
    tail = f",{table.unit.label}\n"
    mids = [f",{q},{k},{g:.12g}," for q, k, g in table.states]
    prefixes = [f"{tail}{head}{n}" for n in range(len(table.energies) // len(mids))]
    return _join_grid(f"{CSV_HEADER}\n{head}0", prefixes, mids, _fmt12_lines(table.energies).split("\n"), tail)


def table_to_json(table: SpectrumTable) -> str:
    """The bytes json.dumps(indent=2) writes for the table's dict form: the
    metadata goes through json.dumps, the q, k and gamma text once per
    state, each n once, and all energies through one % call, since
    repr(round12(x)) is what json.dumps writes for a finite x.  A
    non-finite gamma or energy has no JSON form and raises ValueError.

    An energy's .12g text t is already its JSON text where the table's
    energies are all normal and t has a "." without "e+", or has "e-": a
    normal float(t) has no text shorter than t's at most 12 digits, and
    repr writes them in t's notation.  Integer values, texts with "e+"
    and tables holding a zero or subnormal energy take repr(float(t)).
    Where every text has a "." and none has "e+", the texts stand as
    they are without a look at each."""
    energies = table.energies
    if not all(math.isfinite(g) for _, _, g in table.states) or not all(map(math.isfinite, energies)):
        raise ValueError("table_to_json: gamma and energy must be finite")
    head = _dump_json(
        {
            "potential": _potential_json(table.potential),
            "mu0": round12(table.mu0),
            "unit": {"label": table.unit.label, "factor": round12(table.unit.factor)},
            "rows": [],
        }
    )
    if not energies:
        return head
    normal = min(map(abs, energies)) >= sys.float_info.min
    text = _fmt12_lines(energies)
    texts = text.split("\n")
    if not (normal and "e+" not in text and text.count(".") == len(texts)):
        texts = [t if normal and "e+" not in t and ("." in t or "e" in t) else repr(float(t)) for t in texts]
    mids = [
        f',\n      "q": {q},\n      "k": {k},\n      "gamma": {round12(g)!r},\n      "energy": '
        for q, k, g in table.states
    ]
    prefixes = [f'\n    }},\n    {{\n      "n": {n}' for n in range(len(energies) // len(mids))]
    # head ends with '"rows": []\n}\n'
    return _join_grid(head[:-5] + '[\n    {\n      "n": 0', prefixes, mids, texts, "\n    }\n  ]\n}\n")


def _fmt12_lines(xs) -> str:
    """fmt12 of each float in xs, one per line, formatted in one % call."""
    return "\n".join(["%.12g"] * len(xs)) % tuple(xs)


def _join_grid(first: str, prefixes: list[str], mids: list[str], texts: list[str], end: str) -> str:
    """The rows prefixes[n] + mids[j] + texts[i], i = n * m + j over the
    (n, state) grid, then end, in one join; first stands for row 0's
    prefix, and every other prefix also closes the row before it."""
    m = len(mids)
    parts = [None] * (3 * len(texts))
    for n, prefix in enumerate(prefixes):
        parts[3 * m * n : 3 * m * (n + 1) : 3] = [prefix] * m
    parts[1::3] = mids * len(prefixes)
    parts[2::3] = texts
    parts[0] = first
    parts.append(end)
    return "".join(parts)


def table_from_json(text: str) -> SpectrumTable:
    """The table that table_to_json wrote; its states are the n = 0 rows.
    Raises ValueError when the rows do not form the (n, q, k) grid over
    them, n running from 0 and (q, k) ascending within each n."""
    obj = json.loads(text)
    rows = obj["rows"]
    states = []
    for r in rows:
        if r["n"] != 0:
            break
        states.append((r["q"], r["k"], r["gamma"]))
    m = len(states)
    if rows and not (m and len(rows) % m == 0 and all(a[:2] < b[:2] for a, b in zip(states, states[1:]))):
        raise ValueError(f"table_from_json: {len(rows)} rows do not form an (n, q, k) grid")
    for i, r in enumerate(rows):
        if (r["n"], r["q"], r["k"], r["gamma"]) != (i // m, *states[i % m]):
            raise ValueError(f"table_from_json: row {i} does not fit the (n, q, k) grid of the n = 0 rows")
    return SpectrumTable(
        _potential_from_json(obj["potential"]),
        obj["mu0"],
        UnitScale(obj["unit"]["label"], obj["unit"]["factor"]),
        tuple(states),
        tuple(r["energy"] for r in rows),
    )


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}") from None


def _potential_from_args(args) -> PowerLaw | InfiniteWell:
    if args.nu == math.inf:
        return InfiniteWell(args.radius)
    if args.lam is None:
        raise ValueError("--lambda is required for finite exponents")
    return PowerLaw(args.lam, args.nu)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _levels_svg(table: SpectrumTable, title: str, label: str) -> str:
    """One E(n) panel with a series per state, in the states' (q, k)
    order, named label.format(q=q, k=k)."""
    m = len(table.states)
    ns = [float(n) for n in range(len(table.energies) // m)]
    panel = svg.Panel(title, "n", f"E [{table.unit.label}]")
    for j, (q, k, _) in enumerate(table.states):
        panel.series.append(svg.Series(label.format(q=q, k=k), ns, list(table.energies[j::m])))
    return svg.render_svg([panel])


def _cmd_spectrum(args) -> tuple[str, str | None]:
    potential = _potential_from_args(args)
    unit = unit_scale(args.units or "reduced", potential)
    k = args.k or 0
    k_range = args.k_range or (k, k)
    table = spectrum_table(potential, args.mu0, args.n_max, args.q_max, k_range, unit)
    text = table_to_json(table) if args.format == "json" else table_to_csv(table)
    if not args.svg:
        return text, None
    return text, _levels_svg(table, f"levels, mu0={fmt12(table.mu0)}", "q={q},k={k}")


def _cmd_compare_well(args) -> tuple[str, str | None]:
    g, n_max = args.gamma, args.n_max
    if g < 0.0 or n_max < 0:
        raise ValueError("gamma and n-max must be non-negative")
    from . import oracles

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
    if not args.svg:
        return text, None
    ns = [float(n) for n in range(n_max + 1)]
    left = svg.Panel("well levels", "n", "E [hbar^2 pi^2/2ma^2]")
    left.series.append(svg.Series("exact", ns, exact))
    left.series.append(svg.Series("semiclassical", ns, semi))
    right = svg.Panel("semiclassical - exact", "n", "difference")
    right.series.append(svg.Series("", ns, diffs))
    return text, svg.render_svg([left, right])


_TENDENCY_DEFAULT_UNITS = {-1.0: "fig2a", 1.0: "fig2b", 2.0: "fig2c", math.inf: "fig2d"}


def _cmd_tendency(args) -> tuple[str, str | None]:
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
        text = f'{{\n  "report": {report_text},\n  "table": {table_text}\n}}\n'
    else:
        text = table_to_csv(table)
        sys.stderr.write(json.dumps(report_obj) + "\n")
    if not args.svg:
        return text, None
    title = f"E(n) by q, |k+mu0|={fmt12(abs(args.k + table.mu0))}"
    return text, _levels_svg(table, title, "q={q}")


def _cmd_verify_action(args) -> dict:
    from . import action

    potential = PowerLaw(args.lam, args.nu)
    numeric = action.action_integral_numeric(args.energy, potential)
    closed = action.action_integral_closed(args.energy, potential)
    rel = abs(numeric - closed) / abs(closed)
    return {
        "nu": round12(args.nu),
        "lambda": round12(args.lam),
        "energy": round12(args.energy),
        "numeric": round12(numeric),
        "closed": round12(closed),
        "rel_err": float(f"{rel:.3g}"),
    }


def _cmd_quantize(args) -> dict:
    from . import action

    potential = _potential_from_args(args)
    setup = action.QuantizationSetup(potential, args.gamma)
    energy = action.quantize_energy(setup, args.n)
    if isinstance(potential, InfiniteWell):
        shape = {"nu": "inf", "radius": round12(potential.a)}
    else:
        shape = {"nu": round12(potential.nu), "lambda": round12(potential.lam)}
    return {
        **shape,
        "gamma": round12(args.gamma),
        "n": args.n,
        "constant": round12(setup.constant),
        "energy": round12(energy),
    }


def _cmd_shoot(args) -> dict:
    from . import oracles

    energy = oracles.shoot_eigenvalue(PowerLaw(args.lam, args.nu), args.gamma, args.n)
    return {
        "nu": round12(args.nu),
        "lambda": round12(args.lam),
        "gamma": round12(args.gamma),
        "n": args.n,
        "energy": round12(energy),
    }


def _cmd_zeros(args) -> dict:
    zeros = special_functions.bessel_j_zeros(args.order, args.count)
    return {"order": round12(args.order), "count": args.count, "zeros": [round12(z) for z in zeros]}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_potential(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu", type=float, required=True, help="exponent; 'inf' selects the well")
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("compare-well", help="exact vs semiclassical well levels")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--svg", help="two-panel SVG (levels, difference)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_compare_well)

    p = sub.add_parser("tendency", help="E(n, q) grid plus a tendency report")
    _add_potential(p)
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--units", choices=UNIT_PRESETS)
    p.add_argument("--svg")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_tendency)

    p = sub.add_parser("verify-action", help="numeric vs closed-form action integral")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--energy", type=float, required=True)
    p.set_defaults(func=_cmd_verify_action)

    p = sub.add_parser("quantize", help="energy from the quantization condition")
    _add_potential(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("shoot", help="Numerov shooting eigenvalue")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_shoot)

    p = sub.add_parser("zeros", help="positive zeros of J_order")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_zeros)

    # a word after a flag is its value, not an option, where argparse's negative-number pattern
    # matches it; its own takes -0.5 but not -1e-05, this one any -<digit> or -.<digit> word
    for p in sub.choices.values():
        p.add_argument("--out", help="write output to this path instead of stdout")
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


# main() builds its parser on its first call, not at import, and reuses it
_parser = functools.cache(build_parser)


def _parse_args(argv: list[str] | None):
    """The namespace _parser().parse_args(argv) gives, parsed once.

    Where argv starts with a command, that command's parser reads the
    rest, as the top-level parser would hand it over.  An argv that names
    no command, or leaves words its command's parser cannot place, goes
    through the top-level parser, which writes the usage and errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        result = args.func(args)
        # a table command returns its text and figure, any other one its JSON document
        text, figure = (_dump_json(result), None) if isinstance(result, dict) else result
        _write_output(text, args.out)
        if figure is not None:
            _write_output(figure, args.svg)
        return 0
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
