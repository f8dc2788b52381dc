#!/usr/bin/env python3
"""abwkb benchmark: one seeded workload per solver family, run in-process.

    python3 perfbench/run.py --workload grid_cli --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads (closed loop, one client, one process, one thread):
  grid_cli      abwkb.cli.main on spectrum/tendency commands, stdout in memory
  wkb_roots     quantize_energy levels and well_exact_spectrum calls
  shoot_oracle  shoot_eigenvalue on tail (lam < 0) and confined (lam > 0) states

A run executes the workload's census once (untimed), then the timed
stream for --seconds; set-up is sampled in fresh interpreters at evenly
spaced moments of the stream, each next to a bare interpreter.  Op
costs are reported in passes of the yardstick (yardstick.py) timed next
to each op and set-up time in units of the bare interpreter, because
the machine's speed drifts more than the bounds allow.  With --trace 0
it reports the end-to-end metrics; with --trace 1 it wraps the package's
module entry points and reports the per-layer metrics instead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import yardstick  # noqa: E402

# set-up times fall in two clusters ~60 ms apart; fifteen samples keep
# the run's median from flipping between them
SETUP_REPEATS = 15
# Set-up is interpreter start and imports, whose speed drifts apart from
# the yardstick's.  Each set-up sample is divided by a bare interpreter
# that imports what set-up imports from outside abwkb, run just before
# it, and scaled to NOMINAL_BARE_S, the bare interpreter's wall time on
# a 2-vCPU x86-64 VM (Python 3.11, NumPy 2.4).
BARE_IMPORTS = "import numpy, json, math, random"
NOMINAL_BARE_S = 0.17
# whole stream rounds in a traced run, 25 to 35 s of work each on a
# 2-vCPU x86-64 VM at the commit that added the benchmark
TRACED_ROUNDS = {"grid_cli": 14, "wkb_roots": 350, "shoot_oracle": 6}

# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("max_rel_err", "ratio", "lower"),
    ("items_per_ref", "1/ref", "higher"),
    ("light_op_ref", "ref", "lower"),
    ("heavy_op_ref", "ref", "lower"),
)


def load_program() -> dict:
    """Import abwkb from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "abwkb", "__init__.py")):
        raise ImportError(f"no abwkb package under {SRC}")
    sys.path.insert(0, SRC)
    import abwkb
    from abwkb import _kernels, action, analysis, cli, model, oracles, special_functions, svg

    if not os.path.abspath(abwkb.__file__).startswith(SRC + os.sep):
        raise ImportError(f"abwkb imported from {abwkb.__file__}, not from {SRC}")
    return {
        "abwkb": abwkb, "_kernels": _kernels, "action": action, "analysis": analysis, "cli": cli,
        "model": model, "oracles": oracles, "special_functions": special_functions, "svg": svg,
    }


def _interpreter_s(code: str) -> float:
    start = time.perf_counter()
    # no timeout: Popen.wait with a timeout polls every 50 ms, which would quantize the figure
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """Wall times of a fresh interpreter that imports abwkb and abwkb.cli
    and generates the run's inputs, and of a bare one run just before it
    that imports only BARE_IMPORTS."""
    bare = _interpreter_s(BARE_IMPORTS)
    setup = _interpreter_s(
        f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import abwkb, abwkb.cli, inputs; "
        f"inputs.census({workload!r}, {seed}); next(inputs.rounds({workload!r}, {seed}))"
    )
    return setup, bare


def environment(m: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": m["abwkb"].BACKEND,
        "ABWKB_WORKERS": os.environ.get("ABWKB_WORKERS"),
        "ABWKB_DISABLE_NUMBA": os.environ.get("ABWKB_DISABLE_NUMBA"),
        "platform": platform.platform(),
    }


def run_census(executor, ops: list) -> dict:
    """Run every census op once; failures inside the documented edge
    regions are expected today, any other failure is a wrong answer."""
    digest = hashlib.sha256()
    failed, wrong, rel_errs = [], [], []
    for op in ops:
        out = executor.run(op, full_check=True)
        digest.update(out.digest)
        if not out.ok:
            failed.append({"params": _plain(op.params), "edge": op.edge, "error": out.error})
            if not op.edge:
                wrong.append(out.error)
        elif out.rel_err is not None and not op.edge:
            rel_errs.append(out.rel_err)
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "wrong": len(wrong),
        "failures": failed,
        "max_rel_err": max(rel_errs) if rel_errs else 0.0,
        "sha256": digest.hexdigest(),
    }


def run_stream(executor, workload: str, seed: int, seconds: float = math.inf, max_rounds: int | None = None,
               tracer=None, setup=None) -> dict:
    """Closed loop over the seeded rounds until `seconds` have passed or
    `max_rounds` whole rounds have run.

    Between ops it takes a yardstick pass every YARDSTICK_EVERY_S
    seconds, and one more at the end.  Given a `setup` list, it also
    takes SETUP_REPEATS set-up samples at evenly spaced moments between
    ops, so that set-up time sees the same machine speed as the ops (the
    speed drifts over seconds to minutes).
    """
    timed = []  # (cls, slot, start, seconds, items) of every op that passed
    marks = yardstick.Marks()
    attempted, failures = 0, []
    start = time.perf_counter()
    deadline = start + seconds
    ticks = [] if setup is None else [start + i * seconds / SETUP_REPEATS for i in range(SETUP_REPEATS)]
    for op in itertools.chain.from_iterable(itertools.islice(inputs.rounds(workload, seed), max_rounds)):
        now = time.perf_counter()
        if ticks and now >= ticks[0]:
            ticks.pop(0)
            setup.append(setup_sample(workload, seed))
        if now >= deadline:
            break
        if marks.due(now):
            marks.take()
        if tracer is not None:
            tracer.op_id = attempted
        op_start = time.perf_counter()
        out = executor.run(op)
        attempted += 1
        if out.ok:
            timed.append((op.cls, op.slot, op_start, out.seconds, out.items))
        else:
            failures.append({"params": _plain(op.params), "error": out.error})
    for _ in ticks:  # ticks a long last op skipped past
        setup.append(setup_sample(workload, seed))
    marks.take()
    return {"timed": timed, "marks": marks, "attempted": attempted, "failures": failures}


def typical(by_slot: dict[int, list[float]]) -> float:
    """Geometric mean over a class's strata of each stratum's median.

    A class mixes strata whose costs differ several-fold.  With few samples
    per stratum, the median of the pooled times jumps between the cost
    levels of neighbouring strata from run to run; this estimator weights
    every stratum alike and moves smoothly.
    """
    medians = [statistics.median(ts) for ts in by_slot.values()]
    return statistics.geometric_mean(medians) if medians else 0.0


def stream_figures(stream: dict) -> tuple[dict, dict, dict]:
    """Per-op costs of the stream in yardstick passes ("ref") and, for
    the record, in wall time.

    Returns (ref figures, wall figures, sample counts)."""
    marks = stream["marks"]
    ref = {cls: collections.defaultdict(list) for cls in ("light", "heavy")}
    wall = {cls: collections.defaultdict(list) for cls in ("light", "heavy")}
    items, busy_ref, busy_s = 0, 0.0, 0.0
    for cls, slot, at, seconds, n in stream["timed"]:
        cost = seconds / marks.local(at)
        if cls in ref:
            ref[cls][slot].append(cost)
            wall[cls][slot].append(seconds)
        items += n
        busy_ref += cost
        busy_s += seconds
    by_ref = {
        "items_per_ref": items / busy_ref if busy_ref else 0.0,
        "light_op_ref": typical(ref["light"]),
        "heavy_op_ref": typical(ref["heavy"]),
    }
    by_wall = {
        "items_per_s": items / busy_s if busy_s else 0.0,
        "light_op_ms": 1e3 * typical(wall["light"]),
        "heavy_op_ms": 1e3 * typical(wall["heavy"]),
        "yardstick_ms": 1e3 * statistics.median(marks.seconds),
    }
    samples = {
        "items_per_ref": items,
        "light_op_ref": _samples(ref["light"]),
        "heavy_op_ref": _samples(ref["heavy"]),
        "yardstick_passes": len(marks.seconds),
    }
    return by_ref, by_wall, samples


def _samples(by_slot: dict[int, list[float]]) -> int:
    return sum(len(ts) for ts in by_slot.values())


def end_to_end(setup: list[tuple[float, float]], census: dict, stream: dict) -> tuple[dict, dict, dict]:
    by_ref, by_wall, stream_samples = stream_figures(stream)
    by_wall["setup_s"] = statistics.median(s for s, _ in setup)
    by_wall["bare_interpreter_s"] = statistics.median(b for _, b in setup)
    values = {
        "setup_s": NOMINAL_BARE_S * statistics.median(s / b for s, b in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": census["failed"] / census["attempted"],
        "max_rel_err": census["max_rel_err"],
        **by_ref,
    }
    samples = {
        "setup_s": len(setup),
        "peak_rss_mb": 1,
        "fail_ratio": census["attempted"],
        "max_rel_err": census["attempted"],
        **stream_samples,
    }
    return values, samples, by_wall


def traced_run(m: dict, executor, workload: str, seed: int, census_ops: list):
    """Census untraced (warm-up), census untraced (timed), then the tracer
    goes in: census traced (timed; the difference is the tracing
    overhead), then TRACED_ROUNDS[workload] whole rounds of the stream
    traced.  Both traced passes are a fixed amount of work, so the
    per-layer totals measure the cost of that work, not a time share."""
    import tracing

    run_census(executor, census_ops)
    start = time.perf_counter()
    run_census(executor, census_ops)
    untraced = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracing.install(tracer, m)
    executor.tracer = tracer
    try:
        tracer.op_id = -1
        start = time.perf_counter()
        census = run_census(executor, census_ops)
        traced = time.perf_counter() - start
        stream = run_stream(executor, workload, seed, max_rounds=TRACED_ROUNDS[workload], tracer=tracer)
    finally:
        tracer.restore()
        executor.tracer = None
    overhead = traced - untraced
    values = tracing.layer_metrics(tracer, overhead, overhead / untraced if untraced else 0.0)
    return values, census, stream, tracer


def _plain(params: dict) -> dict:
    return {k: (None if isinstance(v, float) and math.isinf(v) else v) for k, v in params.items()}


def _print_table(values: dict, units: dict, samples: dict) -> None:
    for name, value in values.items():
        n = samples.get(name)
        print(f"  {name:42s} {value:>16.6g} {units[name]:14s}" + (f" n={n}" if n is not None else ""))


def run_workload(args) -> int:
    m = load_program()
    os.makedirs(OUT, exist_ok=True)
    import execute

    setup: list[tuple[float, float]] = []
    executor = execute.Executor(m, os.path.join(OUT, f"{args.workload}-figure.svg"))
    census_ops = inputs.census(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(m),
        "setup_samples_s": setup,  # (set-up, bare interpreter) wall times
    }
    if args.trace:
        import tracing

        values, census, stream, tracer = traced_run(m, executor, args.workload, args.seed, census_ops)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        samples = {}
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        census = run_census(executor, census_ops)
        stream = run_stream(executor, args.workload, args.seed, args.seconds, setup=setup)
        values, samples, by_wall = end_to_end(setup, census, stream)
        units = {name: unit for name, unit, _ in END_TO_END}
        record["wall"] = by_wall
    digest_key = "stdout_sha256" if args.workload == "grid_cli" else "results_sha256"
    record["digests"] = {digest_key: census["sha256"]}
    record["census"] = {k: census[k] for k in ("attempted", "failed", "wrong", "max_rel_err", "failures")}
    record["stream"] = {
        "attempted": stream["attempted"],
        "failed": len(stream["failures"]),
        "failures": stream["failures"][:20],
        "samples": dict(collections.Counter(cls for cls, *_ in stream["timed"])),
    }
    record["metric_samples"] = samples
    correct = census["wrong"] == 0 and not stream["failures"]
    result = {
        "correct": correct,
        "attempted": stream["attempted"],
        "failed": len(stream["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    record["result"] = result
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"abwkb benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  env {json.dumps(record['env'])}")
    print(f"  digests {json.dumps(record['digests'])}")
    print(f"  census: {census['attempted']} ops, {census['failed']} failed "
          f"({census['failed'] - census['wrong']} in known-defect regions, {census['wrong']} wrong)")
    for f in census["failures"]:
        print(f"    {'edge' if f['edge'] else 'WRONG'}: {f['error'][:110]}")
    print(f"  stream: {stream['attempted']} ops, {len(stream['failures'])} failed")
    for f in stream["failures"][:5]:
        print(f"    WRONG: {f['error'][:110]}")
    _print_table(values, units, samples)
    if "wall" in record:
        print(f"  wall time, for reference only: {json.dumps(record['wall'])}")
    print(json.dumps({"record": {k: record[k] for k in ("workload", "seed", "env", "digests", "metric_samples")}}))
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        for workload in inputs.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd, timeout=600).returncode != 0:
                return 1
        return 0
    try:
        return run_workload(args)
    except ImportError as exc:
        print(f"cannot load abwkb: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
