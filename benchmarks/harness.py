"""What the three diagnostic scripts in benchmarks/ share.

Each script defines its states, a measure() that returns its result and
a report(result) that prints it, and ends with

    sys.exit(harness.main(__doc__, measure, report))

main() parses --src (the directory that holds the abwkb package, so that
another checkout can be measured), --label and --record, runs measure()
on the package under --src, prefixes the result with the env block and
merges it into --record under --label, so two checkouts measured in turn
land side by side.  best_of() is the one timer and counting() the one
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
import sys
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


def main(doc: str, measure, report, argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds the abwkb package")
    parser.add_argument("--label", default="current")
    parser.add_argument("--record", help="JSON file to merge the result into, under --label")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    result = {"env": env(), **measure()}
    print(f"{args.label}: python {result['env']['python']}, numpy {result['env']['numpy']}, "
          f"best of {result['repeat']}")
    report(result)
    if args.record:
        merge_record(args.record, args.label, result)
    return 0
