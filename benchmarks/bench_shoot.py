#!/usr/bin/env python3
"""Best-of-N wall times and work counts of the shooting oracle, one state
per stratum of perfbench's shoot_oracle workload.

    python3 benchmarks/bench_shoot.py
    python3 benchmarks/bench_shoot.py --label change --record BENCH_13.json
    python3 benchmarks/bench_shoot.py --src OTHER_CHECKOUT/src --label parent --record BENCH_13.json

A diagnostic: it shows where a solve spends its time.  Its figures move
from run to run on a shared machine; performance claims rest on perfbench
(perfbench/run.py), not on this script.

The states sit at the middle of each stratum of perfbench/inputs.py: six
tail states (lam < 0: Coulomb, -1.45 <= nu <= -1.1 and -0.95 <= nu <= -0.8,
each at two (n, q)) and six confined ones (oscillator, Airy, linear with
gamma > 0, and 0.2 <= nu <= 0.9, 1.2 <= nu <= 4, 4 <= nu <= 12), none of
which grows its grid past the starting 2000 points.  For each state it
records:

- seconds: the best of REPEAT solves;
- sweeps and points: calls of the Numerov kernel numerov_match, the only
  one a solve uses, and the grid points they swept (its 7th positional
  argument, as perfbench's tracer counts it);
- ns_per_point: seconds / points, the whole solve's cost per grid point.

--perfbench-record folds in the per-solve counters of a traced perfbench
run (perfbench/run.py --workload shoot_oracle --trace 1) of the same
checkout.  --record merges the result into a JSON file under --label, so
two checkouts measured in turn land side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, lam, nu, gamma, n): gamma = q + 0.5 in the tail strata
STATES = (
    ("tail_coulomb_n0_q0", -1.0, -1.0, 0.5, 0),
    ("tail_coulomb_n1_q1", -1.0, -1.0, 1.5, 1),
    ("tail_strong_n0_q1", -1.0, -1.275, 1.5, 0),
    ("tail_strong_n1_q0", -1.0, -1.275, 0.5, 1),
    ("tail_weak_n0_q0", -1.0, -0.875, 0.5, 0),
    ("tail_weak_n1_q1", -1.0, -0.875, 1.5, 1),
    ("confined_oscillator", 1.75, 2.0, 1.3, 2),
    ("confined_airy", 1.0, 1.0, 0.0, 2),
    ("confined_linear", 1.0, 1.0, 1.3, 2),
    ("confined_nu_0.55", 1.0, 0.55, 1.3, 1),
    ("confined_nu_2.6", 1.0, 2.6, 1.3, 1),
    ("confined_nu_8", 1.0, 8.0, 1.3, 1),
)
REPEAT = 5
# perfbench per-layer metrics copied by --perfbench-record
TRACE_METRICS = (
    "oracles.sweeps_per_solve",
    "oracles.points_per_solve",
    "oracles.shoot_eigenvalue.calls",
    "oracles.shoot_eigenvalue.busy_s",
    "kernels.numerov.points_per_s",
)


def _counting(kernels, work: list[int]):
    """Wrap the Numerov kernel so that each call adds (1, grid size) to work."""
    original = kernels.numerov_match

    def counted(*args):
        work[0] += 1
        work[1] += args[6]
        return original(*args)

    kernels.numerov_match = counted
    return original


def measure() -> dict:
    import numpy

    from abwkb import _kernels, oracles
    from abwkb.model import PowerLaw

    states = {}
    for name, lam, nu, gamma, n in STATES:
        pot = PowerLaw(lam, nu)
        work = [0, 0]
        original = _counting(_kernels, work)
        try:
            energy = oracles.shoot_eigenvalue(pot, gamma, n)
        finally:
            _kernels.numerov_match = original
        best = None
        for _ in range(REPEAT):
            start = time.perf_counter()
            oracles.shoot_eigenvalue(pot, gamma, n)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        states[name] = {
            "lam": lam, "nu": nu, "gamma": gamma, "n": n,
            "energy": energy,
            "seconds": best,
            "sweeps": work[0],
            "points": work[1],
            "ns_per_point": 1e9 * best / work[1],
        }
    tails = [s for name, s in states.items() if name.startswith("tail")]
    confined = [s for name, s in states.items() if name.startswith("confined")]
    return {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "repeat": REPEAT,
        "states": states,
        "tail_seconds_total": sum(s["seconds"] for s in tails),
        "confined_seconds_total": sum(s["seconds"] for s in confined),
        "sweeps_per_solve": sum(s["sweeps"] for s in states.values()) / len(states),
        "points_per_solve": sum(s["points"] for s in states.values()) / len(states),
        "ns_per_point": 1e9 * sum(s["seconds"] for s in states.values()) / sum(s["points"] for s in states.values()),
    }


def _perfbench_counters(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record.get("workload") != "shoot_oracle" or not record.get("trace"):
        raise SystemExit(f"{path} is not a traced shoot_oracle perfbench record")
    metrics = record["result"]["metrics"]
    return {
        "seed": record["seed"],
        "results_sha256": record["digests"]["results_sha256"],
        "census_failed": record["census"]["failed"],
        "census_attempted": record["census"]["attempted"],
        **{name: metrics[name]["value"] for name in TRACE_METRICS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds the abwkb package")
    parser.add_argument("--label", default="current")
    parser.add_argument("--record", help="JSON file to merge the result into, under --label")
    parser.add_argument("--perfbench-record", help="traced shoot_oracle perfbench record of the same checkout")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    result = measure()
    if args.perfbench_record:
        result["perfbench"] = _perfbench_counters(args.perfbench_record)
    print(f"{args.label}: python {result['env']['python']}, numpy {result['env']['numpy']}, best of {REPEAT}")
    for name, s in result["states"].items():
        print(f"  {name:20s} E={s['energy']:<22.15g} {1e3 * s['seconds']:8.1f} ms  "
              f"sweeps={s['sweeps']:<4d} points={s['points']:<6d} {s['ns_per_point']:6.1f} ns/point")
    print(f"  per solve: sweeps {result['sweeps_per_solve']:.1f}, points {result['points_per_solve']:.0f}, "
          f"{result['ns_per_point']:.1f} ns/point; "
          f"tail total {result['tail_seconds_total']:.3f} s, confined total {result['confined_seconds_total']:.3f} s")
    if "perfbench" in result:
        p = result["perfbench"]
        print(f"  perfbench seed {p['seed']}: sweeps_per_solve {p['oracles.sweeps_per_solve']:.2f}, "
              f"points_per_solve {p['oracles.points_per_solve']:.0f}")
    if args.record:
        records = {}
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                records = json.load(fh)
        records[args.label] = result
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
