#!/usr/bin/env python3
"""Best-of-N wall times of the closed-form grid path, layer by layer.

    python3 benchmarks/bench_grid.py
    python3 benchmarks/bench_grid.py --label change --record BENCH_6.json
    python3 benchmarks/bench_grid.py --src OTHER_CHECKOUT/src --label parent --record BENCH_6.json

A diagnostic: it shows where the grid path spends its time.  Its figures
move from run to run on a shared machine; performance claims rest on
perfbench (perfbench/run.py), not on this script.

For each grid it times closed_form.spectrum_table, cli.table_to_csv and
cli.table_to_json on the built table, and cli.main end to end with
--format json and --format csv (stdout and stderr captured in memory);
on the 12-row command it also times cli.main with --svg to a temporary
file (main_svg).  The grids are the fixed 1e5-row nu = 3 census grid of
perfbench's grid_cli workload, a 10k-row grid and a 12-row command.  A
500-row tendency --format csv --svg command on the same potential, the
light grid_cli shape whose time goes mostly to the figure, is timed
end to end only (main_svg, with its rows and SVG bytes).  Each figure is
harness.best_of over REPEAT samples.  The first cli.main call
of the process is timed on its own, because it also pays for whatever
the CLI sets up once.

Start-up is timed in fresh processes: a `spectrum` command on the 10k
grid with --format json, run as the installed `abwkb` script runs it
(import abwkb.cli, call main, stdout to /dev/null), as a ratio to a bare
`python -c pass` run just before it.  The figure is the median ratio over
STARTUP_PAIRS such pairs, with the median wall times of both.  Its
counters do not drift: how many modules the command imports beyond the
bare interpreter's, and whether NumPy is among them.

Work counters go with the times: rows per grid and bytes per output.
--src, --label and --record are harness.main's.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # harness, also when loaded by path
import harness  # noqa: E402

# (name, n_max, q_max, (k_lo, k_hi)) on V = r**3 with mu0 = 0.3
GRIDS = (
    ("census_1e5", 99, 99, (-2, 7)),
    ("grid_10k", 99, 99, (0, 0)),
    ("command_12", 3, 2, (0, 0)),
)
NU, LAM, MU0 = 3.0, 1.0, 0.3
# the grid whose cli.main is also timed with --svg
SVG_GRID = "command_12"
# (name, n_max, q_max) of the tendency --svg command, at k = 0
TENDENCY_SVG = ("tendency_500", 24, 19)
REPEAT = 7
# the grid whose spectrum command is timed from process start
STARTUP_GRID = "grid_10k"
STARTUP_PAIRS = 15


def _argv(n_max: int, q_max: int, k_range: tuple[int, int], fmt: str) -> list[str]:
    return [
        "spectrum", "--nu", repr(NU), "--lambda", repr(LAM), "--mu0", repr(MU0),
        "--n-max", str(n_max), "--q-max", str(q_max), f"--k-range={k_range[0]}..{k_range[1]}",
        "--format", fmt,
    ]


def _run_main(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"abwkb {' '.join(argv)} exited {code}")
    return out.getvalue()


def _process_s(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def _startup(src: str) -> dict:
    """A fresh spectrum process against a bare interpreter, and what it imports."""
    _, n_max, q_max, k_range = next(grid for grid in GRIDS if grid[0] == STARTUP_GRID)
    argv = _argv(n_max, q_max, k_range, "json")
    command = f"import sys; sys.path.insert(0, {src!r}); from abwkb.cli import main; sys.exit(main({argv!r}))"
    census = (
        f"import sys; before = set(sys.modules); sys.path.insert(0, {src!r}); from abwkb.cli import main; "
        f"code = main({[*argv, '--out', os.devnull]!r}); new = set(sys.modules) - before; "
        "import json; print(json.dumps([code, len(new), 'numpy' in new]))"
    )
    out = subprocess.run([sys.executable, "-c", census], capture_output=True, text=True, check=True).stdout
    code, modules, numpy_loaded = json.loads(out)
    if code != 0:
        raise RuntimeError(f"abwkb {' '.join(argv)} exited {code}")
    pairs = [(_process_s("pass"), _process_s(command)) for _ in range(STARTUP_PAIRS)]  # (bare, spectrum)
    return {
        "argv": argv,
        "pairs": STARTUP_PAIRS,
        "ratio_to_bare": statistics.median(run / bare for bare, run in pairs),
        "spectrum_s": statistics.median(run for _, run in pairs),
        "bare_s": statistics.median(bare for bare, _ in pairs),
        "modules_imported": modules,
        "numpy_imported": numpy_loaded,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def measure() -> dict:
    import abwkb
    from abwkb import cli, closed_form
    from abwkb.model import PowerLaw

    startup = _startup(os.path.dirname(os.path.dirname(os.path.abspath(abwkb.__file__))))

    first_argv = _argv(3, 2, (0, 0), "csv")
    start = time.perf_counter()
    _run_main(cli, first_argv)
    first_call_s = time.perf_counter() - start

    pot = PowerLaw(LAM, NU)
    grids = {}
    for name, n_max, q_max, k_range in GRIDS:
        table = closed_form.spectrum_table(pot, MU0, n_max, q_max, k_range)
        csv_text, json_text = cli.table_to_csv(table), cli.table_to_json(table)
        argv_json, argv_csv = _argv(n_max, q_max, k_range, "json"), _argv(n_max, q_max, k_range, "csv")
        if _run_main(cli, argv_json) != json_text or _run_main(cli, argv_csv) != csv_text:
            raise RuntimeError(f"{name}: cli.main output differs from the table emitters")
        grids[name] = {
            "rows": len(table.energies),
            "csv_bytes": len(csv_text.encode()),
            "json_bytes": len(json_text.encode()),
            "seconds": {
                "spectrum_table": harness.best_of(
                    lambda: closed_form.spectrum_table(pot, MU0, n_max, q_max, k_range), REPEAT),
                "table_to_csv": harness.best_of(lambda: cli.table_to_csv(table), REPEAT),
                "table_to_json": harness.best_of(lambda: cli.table_to_json(table), REPEAT),
                "main_json": harness.best_of(lambda: _run_main(cli, argv_json), REPEAT),
                "main_csv": harness.best_of(lambda: _run_main(cli, argv_csv), REPEAT),
            },
        }
        if name == SVG_GRID:
            with tempfile.TemporaryDirectory() as tmp:
                argv_svg = [*argv_csv, "--svg", os.path.join(tmp, "levels.svg")]
                grids[name]["seconds"]["main_svg"] = harness.best_of(lambda: _run_main(cli, argv_svg), REPEAT)
    name, n_max, q_max = TENDENCY_SVG
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tendency.svg")
        argv_svg = [
            "tendency", "--nu", repr(NU), "--lambda", repr(LAM), "--mu0", repr(MU0), "--k", "0",
            "--n-max", str(n_max), "--q-max", str(q_max), "--format", "csv", "--svg", path,
        ]
        seconds = harness.best_of(lambda: _run_main(cli, argv_svg), REPEAT)
        grids[name] = {
            "rows": (n_max + 1) * (q_max + 1),
            "svg_bytes": os.path.getsize(path),
            "seconds": {"main_svg": seconds},
        }
    return {
        "repeat": REPEAT,
        "startup": startup,
        "first_main_call_s": first_call_s,
        "build_parser_s": harness.best_of(cli.build_parser, REPEAT),
        "grids": grids,
    }


def report(result: dict) -> None:
    st = result["startup"]
    print(f"  start-up ({STARTUP_GRID} spectrum json, median of {st['pairs']} pairs): "
          f"{1e3 * st['spectrum_s']:.1f} ms, bare {1e3 * st['bare_s']:.1f} ms, ratio {st['ratio_to_bare']:.2f}; "
          f"{st['modules_imported']} modules imported, numpy {'in' if st['numpy_imported'] else 'not in'} them")
    print(f"  first cli.main call {1e3 * result['first_main_call_s']:.2f} ms, "
          f"build_parser {1e3 * result['build_parser_s']:.3f} ms")
    for name, grid in result["grids"].items():
        times = "  ".join(f"{k} {1e3 * v:.3f}" for k, v in grid["seconds"].items())
        print(f"  {name:12s} rows={grid['rows']:<6d} ms: {times}")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, measure, report))
