#!/usr/bin/env python3
"""Best-of-N wall times and work counts of the action quantization, one
state per light stratum of perfbench's wkb_roots workload.

    python3 benchmarks/bench_action.py
    python3 benchmarks/bench_action.py --label change --record BENCH_27.json
    python3 benchmarks/bench_action.py --src OTHER_CHECKOUT/src --label parent --record BENCH_27.json

A diagnostic: it shows where a quantize_energy call spends its time.  Its
figures move from run to run on a shared machine; performance claims rest
on perfbench (perfbench/run.py), not on this script.

The states sit at the middle of each light stratum of perfbench/inputs.py
(_wkb_round): the six tail bins _NEG_BINS at their midpoint exponent, the
eight confined bins _POS_BINS at their geometric mean (the stream draws
them log-uniformly), and Coulomb, the oscillator, the linear potential and
the infinite well, which a round draws twice and which appears here at two
levels.  Couplings are +-1.25 and the well radius 1.25, the middle of the
stream's 0.5..2 draws, with gamma = 3 and n = 2.  For each state it records:

- seconds: harness.best_of over REPEAT samples of quantize_energy;
- action_sums and nodes: calls of the kernel _kernels.action_sum, one per
  mesh level the quadrature used, and the nodes they summed (2 kmax + 1,
  kmax its 6th positional argument, as perfbench's tracer counts it);
- action_sum_seconds: one action_sum call, timed the same way, at each of the
  mesh levels 2..5, the only ones the wkb_roots states reach, on the
  state's own integrand.

--src, --label and --record are harness.main's.
"""

from __future__ import annotations

import math
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # harness, also when loaded by path
import harness  # noqa: E402

_NEG_BINS = ((-1.8, -1.5), (-1.5, -1.2), (-1.2, -0.9), (-0.9, -0.6), (-0.6, -0.3), (-0.3, -0.02))
_POS_BINS = ((0.05, 0.2), (0.2, 0.6), (0.6, 1.5), (1.5, 3.0), (3.0, 7.0), (7.0, 15.0), (15.0, 40.0), (40.0, 100.0))
GAMMA, N, COUPLING, RADIUS = 3.0, 2, 1.25, 1.25

# (name, lam, nu, n): lam = 0 is the well of radius RADIUS
STATES = (
    *((f"neg_{(lo + hi) / 2:g}", -COUPLING, round((lo + hi) / 2, 6), N) for lo, hi in _NEG_BINS),
    *((f"pos_{math.sqrt(lo * hi):.4g}", COUPLING, round(math.sqrt(lo * hi), 6), N) for lo, hi in _POS_BINS),
    ("coulomb", -COUPLING, -1.0, N),
    ("oscillator", COUPLING, 2.0, N),
    ("linear", COUPLING, 1.0, N),
    ("well_n2", 0.0, math.inf, N),
    ("well_n3", 0.0, math.inf, N + 1),
)
REPEAT = 3
LEVELS = (2, 3, 4, 5)


def measure() -> dict:
    from abwkb import _kernels, action, closed_form
    from abwkb.model import InfiniteWell, PowerLaw

    states = {}
    for name, lam, nu, n in STATES:
        pot = InfiniteWell(RADIUS) if lam == 0.0 else PowerLaw(lam, nu)
        setup = action.QuantizationSetup(pot, GAMMA)
        with harness.counting(_kernels, "action_sum", lambda args: 2 * args[5] + 1) as work:
            energy = action.quantize_energy(setup, n)
        seconds = harness.best_of(lambda: action.quantize_energy(setup, n), REPEAT)
        e0 = closed_form.closed_form_energy(pot, n, GAMMA)
        rc = action.turning_point(e0, pot)
        kernel_lam, kernel_nu = (0.0, 1.0) if lam == 0.0 else (lam, nu)
        per_level = {}
        for level in LEVELS:
            h = 1.0 / 2**level  # action_integral_numeric's mesh at this level
            args = (e0, kernel_lam, kernel_nu, rc, h, int(math.ceil(action._T_MAX / h)))
            per_level[str(level)] = harness.best_of(lambda: _kernels.action_sum(*args), REPEAT)
        states[name] = {
            "lam": lam, "nu": nu, "gamma": GAMMA, "n": n,
            "energy": energy,
            "seconds": seconds,
            "action_sums": work.calls,
            "nodes": work.size,
            "action_sum_seconds": per_level,
        }
    values = list(states.values())
    return {
        "repeat": REPEAT,
        "states": states,
        "quantize_seconds_median": statistics.median(s["seconds"] for s in values),
        "quantize_seconds_total": sum(s["seconds"] for s in values),
        "action_sums_per_quantize": sum(s["action_sums"] for s in values) / len(values),
        "nodes_per_quantize": sum(s["nodes"] for s in values) / len(values),
        "action_sum_seconds_median": {
            str(level): statistics.median(s["action_sum_seconds"][str(level)] for s in values) for level in LEVELS
        },
    }


def report(result: dict) -> None:
    for name, s in result["states"].items():
        levels = " ".join(f"{1e6 * t:6.1f}" for t in s["action_sum_seconds"].values())
        print(f"  {name:16s} E={s['energy']:<23.16g} {1e6 * s['seconds']:7.1f} us  "
              f"action_sums={s['action_sums']} nodes={s['nodes']:<4d} per level 2-5 (us): {levels}")
    medians = " ".join(f"{1e6 * t:.1f}" for t in result["action_sum_seconds_median"].values())
    print(f"  quantize median {1e6 * result['quantize_seconds_median']:.1f} us, "
          f"total {1e3 * result['quantize_seconds_total']:.3f} ms; per quantize: "
          f"action_sums {result['action_sums_per_quantize']:.2f}, nodes {result['nodes_per_quantize']:.0f}; "
          f"action_sum median per level 2-5: {medians} us")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, measure, report))
