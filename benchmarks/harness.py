"""What the three diagnostic scripts in benchmarks/ share.

Each script defines its states, a measure() that returns its result, a
report(result) that prints it, and figures(result) and counters(result),
its headline figures and its work counters, and ends with

    sys.exit(harness.main(__doc__, measure, report, figures=figures, counters=counters))

main() parses --src (the directory that holds the abwkb package, so that
another checkout can be measured), --label and --record, runs measure()
on the package under --src, prefixes the result with the env block and
merges it into --record under --label, so two checkouts measured in turn
land side by side.  With --parent-src, main() instead runs the script
--pairs times on each of the two packages in alternating pairs, each run
in a fresh interpreter, and records the pairs (compare_pairs()).
best_of() is the one timer and counting() the one
kernel-call counter.  best_of() also times perfbench/yardstick.py's pass,
a fixed piece of work that imports nothing from abwkb, next to its
samples, so that a figure divided by that pass (a "ref" figure, as
perfbench gives its ops) drifts less with the machine's speed than its
seconds do.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from types import SimpleNamespace
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE_S = 0.05


def env() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


class Best(NamedTuple):
    seconds: float  # per call, the best sample
    pass_s: float  # the median yardstick pass timed next to the samples

    @property
    def ref(self) -> float:
        """Seconds per call in yardstick passes."""
        return self.seconds / self.pass_s


@functools.cache
def _yardstick_pass():
    return runpy.run_path(os.path.join(ROOT, "perfbench", "yardstick.py"))["one_pass"]


def best_of(fn, repeat: int) -> Best:
    """Seconds per call, the best of repeat samples of a loop of calls,
    and the median of the yardstick passes timed before each sample and
    after the last.

    A sample loops the call enough times to last about SAMPLE_S, so
    calls of a few microseconds are not timer noise.
    """
    one_pass = _yardstick_pass()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    number = max(1, int(SAMPLE_S / once)) if once > 0 else 1
    best = once
    passes = []
    for _ in range(repeat):
        passes.append(one_pass())
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    passes.append(one_pass())
    return Best(best, statistics.median(passes))


@contextmanager
def counting(module, name: str, size):
    """Wrap module.name so that each call adds 1 to calls and size(args) to size."""
    original = getattr(module, name)
    work = SimpleNamespace(calls=0, size=0)

    def counted(*args):
        work.calls += 1
        work.size += size(args)
        return original(*args)

    setattr(module, name, counted)
    try:
        yield work
    finally:
        setattr(module, name, original)


def merge_record(path: str, label: str, result: dict) -> None:
    """Write result into the JSON file at path under label, keeping the other labels."""
    records = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    records[label] = result
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


SIDES = ("parent", "change")


def _run_side(script: str, src: str, side: str, path: str) -> dict:
    """One run of script on the package under src, in a fresh interpreter
    (one process can import only one abwkb), its result read back from path."""
    subprocess.run(
        [sys.executable, script, "--src", src, "--label", side, "--record", path],
        stdout=subprocess.DEVNULL, check=True,
    )
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)[side]


def compare_pairs(script: str, srcs: dict, pairs: int, figures, counters) -> dict:
    """Run script `pairs` times on each of srcs["parent"] and srcs["change"],
    alternating which side runs first (the parent in the first pair), and
    compare the two.

    counters(result) gives the figures that must not drift (work counts,
    and the levels they lead to); a side whose counters change between
    its runs raises RuntimeError.  figures(result) gives the headline
    figures, lower being better, each recorded per pair, with both
    sides' medians and the change's win count (pairs where it is lower).
    """
    firsts, runs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            firsts.append(order[0])
            runs.append({side: _run_side(script, srcs[side], side, os.path.join(tmp, f"{i}_{side}.json"))
                         for side in order})
    work = {side: counters(runs[0][side]) for side in SIDES}
    for side in SIDES:
        if any(counters(run[side]) != work[side] for run in runs):
            raise RuntimeError(f"the {side}'s work counters changed between its runs")
    per_pair = {side: [figures(run[side]) for run in runs] for side in SIDES}
    record = {"counters": work, "counters_equal": work["parent"] == work["change"], "pairs": pairs, "first": firsts}
    record["figures"] = {}
    for name in per_pair["parent"][0]:
        values = {side: [f[name] for f in per_pair[side]] for side in SIDES}
        record["figures"][name] = {
            **values,
            "parent_median": statistics.median(values["parent"]),
            "change_median": statistics.median(values["change"]),
            "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
        }
    return record


def report_pairs(record: dict) -> None:
    for i, first in enumerate(record["first"]):
        shown = ", ".join(f"{name} {f['parent'][i]:.4g} -> {f['change'][i]:.4g}" for name, f in record["figures"].items())
        print(f"  pair {i + 1} ({first} first): {shown}")
    for name, f in record["figures"].items():
        print(f"  {name}: median {f['parent_median']:.4g} -> {f['change_median']:.4g}, "
              f"change lower in {f['change_wins']}/{record['pairs']} pairs")
    print(f"  work counters {'equal' if record['counters_equal'] else 'DIFFER'} on both sides")


def main(doc: str, measure, report, argv: list[str] | None = None, *, figures, counters) -> int:
    """Measure the package under --src, or with --parent-src compare it
    with the package there in alternating pairs (figures and counters
    as compare_pairs takes them)."""
    parser = argparse.ArgumentParser(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds the abwkb package")
    parser.add_argument("--label", default="current")
    parser.add_argument("--record", help="JSON file to merge the result into, under --label")
    parser.add_argument("--parent-src", help="compare --src (the change) with the abwkb package in this directory")
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs of runs with --parent-src")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    if args.parent_src:
        script = os.path.abspath(measure.__code__.co_filename)  # the script, run again for each side
        srcs = {"parent": os.path.abspath(args.parent_src), "change": os.path.abspath(args.src)}
        result = {"env": env(), **compare_pairs(script, srcs, args.pairs, figures, counters)}
        print(f"{args.label}: python {result['env']['python']}, numpy {result['env']['numpy']}, "
              f"{args.pairs} alternating pairs, parent -> change")
        report_pairs(result)
    else:
        sys.path.insert(0, os.path.abspath(args.src))
        result = {"env": env(), **measure()}
        print(f"{args.label}: python {result['env']['python']}, numpy {result['env']['numpy']}, "
              f"best of {result['repeat']}")
        report(result)
    if args.record:
        merge_record(args.record, args.label, result)
    return 0
