#!/usr/bin/env python3
"""Best-of-N wall times and work counts of the shooting oracle, one state
per stratum of perfbench's shoot_oracle workload.

    python3 benchmarks/bench_shoot.py
    python3 benchmarks/bench_shoot.py --label change --record BENCH_32.json
    python3 benchmarks/bench_shoot.py --src OTHER_CHECKOUT/src --label parent --record BENCH_32.json
    python3 benchmarks/bench_shoot.py --parent-src OTHER_CHECKOUT/src --pairs 5 --label pairs --record BENCH_34.json

A diagnostic: it shows where a solve spends its time.  Its figures move
from run to run on a shared machine; performance claims rest on perfbench
(perfbench/run.py), not on this script.

The states sit at the middle of each stratum of perfbench/inputs.py: six
tail states (lam < 0: Coulomb, -1.45 <= nu <= -1.1 and -0.95 <= nu <= -0.8,
each at two (n, q)) and six confined ones (oscillator, Airy, linear with
gamma > 0, and 0.2 <= nu <= 0.9, 1.2 <= nu <= 4, 4 <= nu <= 12), none of
which grows its grid past the starting 1200 points or refines it past
2N - 1 points.  Four more states, at n = 10 and 20, outside perfbench's
strata, have levels on N and 2N - 1 points that differ by more than the
oracle's refinement tolerance, so their solves refine the polish grid
to 4N - 3 points and beyond.  Two more sit near the nu = -2 floor, at
nu = -1.95 and -1.99, where the grid's inner edge lies farthest in and
the outward walk starts farthest out from it.  For each state it records:

- seconds: harness.best_of over REPEAT samples of the solve;
- seconds_ref: seconds over the median yardstick pass timed next to
  them (harness.best_of), which drifts less with the machine's speed;
- sweeps and points: calls of the Numerov kernel numerov_match, the only
  one a solve uses, and the grid points they walked (its 7th positional
  argument, as perfbench's tracer counts it, which counts from the walk
  start, not from the grid's inner edge, on tail and confined grids
  alike);
- tables: the grid tables the solve built (misses of
  _kernels._grid_table, from an empty cache);
- ns_per_point: seconds / points, the whole solve's cost per grid point.
  It rises when the walk shortens, because a solve's fixed costs (grid,
  tables, search) stay; it compares solves of equal walks only.

In pair mode (--parent-src) the headline figures are seconds_ref_total,
ns_per_point and the per-class totals confined_ref_total and
tail_ref_total (seconds_ref summed over the six confined_* and the six
tail_* states, perfbench's two strata), and the counters every state's
sweeps, points, tables and energy.  --src, --label, --record, --parent-src and --pairs are
harness.main's.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # harness, also when loaded by path
import harness  # noqa: E402

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
    ("nested_coulomb_n20", -1.0, -1.0, 0.0, 20),
    ("nested_oscillator_n20", 1.0, 2.0, 0.0, 20),
    ("nested_nu3_n20", 1.0, 3.0, 0.0, 20),
    ("nested_tail_n10", -1.0, -1.5, 0.5, 10),
    ("floor_nu_-1.95", -1.0, -1.95, 1.5, 3),
    ("floor_nu_-1.99", -1.0, -1.99, 1.5, 3),
)
REPEAT = 5


def measure() -> dict:
    from abwkb import _kernels, oracles
    from abwkb.model import PowerLaw

    states = {}
    for name, lam, nu, gamma, n in STATES:
        pot = PowerLaw(lam, nu)
        _kernels._grid_table.cache_clear()
        with harness.counting(_kernels, "numerov_match", lambda args: args[6]) as work:
            energy = oracles.shoot_eigenvalue(pot, gamma, n)
        tables = _kernels._grid_table.cache_info().misses
        best = harness.best_of(lambda: oracles.shoot_eigenvalue(pot, gamma, n), REPEAT)
        states[name] = {
            "lam": lam, "nu": nu, "gamma": gamma, "n": n,
            "energy": energy,
            "seconds": best.seconds,
            "seconds_ref": best.ref,
            "sweeps": work.calls,
            "points": work.size,
            "tables": tables,
            "ns_per_point": 1e9 * best.seconds / work.size,
        }
    tails = [s for name, s in states.items() if name.startswith("tail")]
    confined = [s for name, s in states.items() if name.startswith("confined")]
    return {
        "repeat": REPEAT,
        "states": states,
        "tail_seconds_total": sum(s["seconds"] for s in tails),
        "confined_seconds_total": sum(s["seconds"] for s in confined),
        "sweeps_per_solve": sum(s["sweeps"] for s in states.values()) / len(states),
        "points_per_solve": sum(s["points"] for s in states.values()) / len(states),
        "tables_per_solve": sum(s["tables"] for s in states.values()) / len(states),
        "seconds_ref_total": sum(s["seconds_ref"] for s in states.values()),
        "confined_ref_total": sum(s["seconds_ref"] for s in confined),
        "tail_ref_total": sum(s["seconds_ref"] for s in tails),
        "ns_per_point": 1e9 * sum(s["seconds"] for s in states.values()) / sum(s["points"] for s in states.values()),
    }


def figures(result: dict) -> dict:
    return {k: result[k] for k in ("seconds_ref_total", "ns_per_point", "confined_ref_total", "tail_ref_total")}


def counters(result: dict) -> dict:
    return {name: {k: s[k] for k in ("sweeps", "points", "tables", "energy")} for name, s in result["states"].items()}


def report(result: dict) -> None:
    for name, s in result["states"].items():
        print(f"  {name:20s} E={s['energy']:<22.15g} {1e3 * s['seconds']:8.1f} ms {s['seconds_ref']:6.3f} ref  "
              f"sweeps={s['sweeps']:<4d} points={s['points']:<6d} tables={s['tables']:<4d} "
              f"{s['ns_per_point']:6.1f} ns/point")
    print(f"  per solve: sweeps {result['sweeps_per_solve']:.1f}, points {result['points_per_solve']:.0f}, "
          f"tables {result['tables_per_solve']}, {result['ns_per_point']:.1f} ns/point; "
          f"total {result['seconds_ref_total']:.3f} ref, "
          f"tail {1e3 * result['tail_seconds_total']:.2f} ms ({result['tail_ref_total']:.3f} ref), "
          f"confined {1e3 * result['confined_seconds_total']:.2f} ms ({result['confined_ref_total']:.3f} ref)")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, measure, report, figures=figures, counters=counters))
