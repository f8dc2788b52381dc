#!/usr/bin/env python3
"""Best-of-N wall times and work counts of the action quantization, one
state per light stratum of perfbench's wkb_roots workload.

    python3 benchmarks/bench_action.py
    python3 benchmarks/bench_action.py --label change --record BENCH_27.json
    python3 benchmarks/bench_action.py --src OTHER_CHECKOUT/src --label parent --record BENCH_27.json
    python3 benchmarks/bench_action.py --parent-src OTHER_CHECKOUT/src --pairs 10 --label pairs --record BENCH_35.json

A diagnostic: it shows where a quantize_energy call spends its time.  Its
figures move from run to run on a shared machine; performance claims rest
on perfbench (perfbench/run.py), not on this script.

The states sit at the middle of each light stratum of perfbench/inputs.py
(_wkb_round), whose bins this script reads from that file: the six tail
bins _NEG_BINS at their midpoint exponent, the eight confined bins
_POS_BINS at their geometric mean (the stream draws them log-uniformly),
and Coulomb, the oscillator, the linear potential and the infinite well,
which a round draws twice and which appears here at two levels.
Couplings are +-1.25 and the well radius 1.25, the middle of the stream's
0.5..2 draws, with gamma = 3 and n = 2.  For each state it records:

- seconds: harness.best_of over REPEAT samples of quantize_energy;
- seconds_ref: seconds over the median yardstick pass timed next to
  them (harness.best_of), which drifts less with the machine's speed;
- action_sums and nodes: calls of the kernel _kernels.action_sum, and the
  nodes they summed (2 kmax + 1, kmax its 6th positional argument, as
  perfbench's tracer counts it): one call per mesh level used past the
  nested ones;
- integrand_evaluations and integrand_nodes: evaluations of the integrand
  over a whole node table, and the nodes evaluated, counted on the kernel
  that every evaluation goes through (_kernels.nested_action_sums, which
  action_sum calls); the well's integrand is the constant sqrt(E), whose
  sums read cached weight sums and count as none;
- nested_sums_seconds: the call action_integral_numeric makes first,
  _kernels.nested_action_sums at mesh level action._NESTED_LEVEL (4),
  drained: one evaluation of the state's own integrand and the sums of
  levels 2..4 from it, timed the same way; a quantized level calls
  action_sum only from level 5 on.  nested_sums_ref is the same in
  yardstick passes.

In pair mode (--parent-src) the headline figures are quantize_ref_total
and quantize_seconds_median, and the counters every state's action_sums,
nodes, integrand_evaluations, integrand_nodes and energy.  --src,
--label, --record, --parent-src and --pairs are harness.main's.
"""

from __future__ import annotations

import math
import os
import runpy
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # harness, also when loaded by path
import harness  # noqa: E402

_INPUTS = runpy.run_path(os.path.join(harness.ROOT, "perfbench", "inputs.py"))
_NEG_BINS, _POS_BINS = _INPUTS["_NEG_BINS"], _INPUTS["_POS_BINS"]
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


def measure() -> dict:
    from abwkb import _kernels, action, closed_form
    from abwkb.model import InfiniteWell, PowerLaw

    states = {}
    for name, lam, nu, n in STATES:
        pot = InfiniteWell(RADIUS) if lam == 0.0 else PowerLaw(lam, nu)
        setup = action.QuantizationSetup(pot, GAMMA)
        with (
            harness.counting(_kernels, "action_sum", lambda args: 2 * args[5] + 1) as work,
            harness.counting(_kernels, "nested_action_sums", lambda args: 2 * args[5] + 1 if args[1] != 0.0 else 0) as evaluated,
        ):
            energy = action.quantize_energy(setup, n)
        best = harness.best_of(lambda: action.quantize_energy(setup, n), REPEAT)
        e0 = closed_form.closed_form_energy(pot, n, GAMMA)
        rc = action.turning_point(e0, pot)
        kernel_lam, kernel_nu = (0.0, 1.0) if lam == 0.0 else (lam, nu)
        args = (e0, kernel_lam, kernel_nu, rc, *action._NESTED_MESH, action._NESTED_LEVEL - 1)
        nested = harness.best_of(lambda: list(_kernels.nested_action_sums(*args)), REPEAT)
        states[name] = {
            "lam": lam, "nu": nu, "gamma": GAMMA, "n": n,
            "energy": energy,
            "seconds": best.seconds,
            "seconds_ref": best.ref,
            "action_sums": work.calls,
            "nodes": work.size,
            "integrand_evaluations": evaluated.calls if lam != 0.0 else 0,
            "integrand_nodes": evaluated.size,
            "nested_sums_seconds": nested.seconds,
            "nested_sums_ref": nested.ref,
        }
    values = list(states.values())
    return {
        "repeat": REPEAT,
        "nested_level": action._NESTED_LEVEL,
        "states": states,
        "quantize_seconds_median": statistics.median(s["seconds"] for s in values),
        "quantize_seconds_total": sum(s["seconds"] for s in values),
        "quantize_ref_total": sum(s["seconds_ref"] for s in values),
        "action_sums_per_quantize": sum(s["action_sums"] for s in values) / len(values),
        "nodes_per_quantize": sum(s["nodes"] for s in values) / len(values),
        "integrand_evaluations_per_quantize": sum(s["integrand_evaluations"] for s in values) / len(values),
        "integrand_nodes_per_quantize": sum(s["integrand_nodes"] for s in values) / len(values),
        "nested_sums_seconds_median": statistics.median(s["nested_sums_seconds"] for s in values),
    }


def figures(result: dict) -> dict:
    return {"quantize_ref_total": result["quantize_ref_total"], "quantize_seconds_median": result["quantize_seconds_median"]}


def counters(result: dict) -> dict:
    keys = ("action_sums", "nodes", "integrand_evaluations", "integrand_nodes", "energy")
    return {name: {k: s[k] for k in keys} for name, s in result["states"].items()}


def report(result: dict) -> None:
    for name, s in result["states"].items():
        print(f"  {name:16s} E={s['energy']:<23.16g} {1e6 * s['seconds']:7.1f} us {s['seconds_ref']:7.4f} ref  "
              f"action_sums={s['action_sums']} nodes={s['nodes']:<4d} evaluations={s['integrand_evaluations']} "
              f"evaluated={s['integrand_nodes']:<4d} levels 2-{result['nested_level']} {1e6 * s['nested_sums_seconds']:6.1f} us")
    print(f"  quantize median {1e6 * result['quantize_seconds_median']:.1f} us, "
          f"total {1e3 * result['quantize_seconds_total']:.3f} ms, {result['quantize_ref_total']:.3f} ref; per quantize: "
          f"action_sums {result['action_sums_per_quantize']:.2f}, nodes {result['nodes_per_quantize']:.0f}, "
          f"integrand evaluations {result['integrand_evaluations_per_quantize']:.2f}, "
          f"nodes evaluated {result['integrand_nodes_per_quantize']:.0f}; "
          f"levels 2-{result['nested_level']} median {1e6 * result['nested_sums_seconds_median']:.1f} us")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, measure, report, figures=figures, counters=counters))
