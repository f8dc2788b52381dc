"""Span tracer for the traced benchmark run.

The tracer replaces module attributes of abwkb with timing wrappers.  The
package looks these names up at call time (``_kernels.action_sum``,
``svg.render_svg``, ...), so the wrappers see every call without any
change to the package.  Each call becomes a span (id, parent id, op id,
name, start, end) kept in memory; busy and self time and the work
counters are accumulated at the same boundaries when a span closes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter

# spans kept in memory; later calls are still timed and counted
MAX_SPANS = 200_000


class Tracer:
    """Spans and per-name totals: calls, busy_s, self_s, failures, counters.

    Spans beyond ``MAX_SPANS`` are still timed and counted but not kept,
    which bounds memory on the hottest kernels; ``dropped`` says how many.
    """

    def __init__(self):
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.failures: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0

    def _enter(self) -> list:
        frame = [self._next_id, self._stack[-1][0] if self._stack else -1, _now(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, ok: bool) -> None:
        end = _now()
        span_id, parent, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - child
        if not ok:
            self.failures[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self.op_id, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """Span around a block; the block marks a failure by raising or by
        setting ``status["ok"] = False`` on the yielded dict."""
        status = {"ok": True}
        self._enter()
        try:
            yield status
        except BaseException:
            status["ok"] = False
            raise
        finally:
            self._exit(name, status["ok"])

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a traced wrapper; count(counts, args,
        result) adds work counters after a successful call."""
        fn = getattr(module, attr)
        counts = self.counts

        def traced(*args, **kwargs):
            self._enter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._exit(name, ok)
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end"], "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, abwkb_modules: dict) -> None:
    """Wrap the module entry points each layer exposes to its callers."""
    m = abwkb_modules

    # the grid size n is the 7th positional argument of both Numerov sweeps
    def count_points(counts, args, result):
        counts["kernels.numerov_count.points"] += args[6]

    def match_points(counts, args, result):
        counts["kernels.numerov_match.points"] += args[6]

    tracer.wrap(m["_kernels"], "numerov_count", "kernels.numerov_count", count_points)
    tracer.wrap(m["_kernels"], "numerov_match", "kernels.numerov_match", match_points)

    def action_nodes(counts, args, result):  # nodes k = -kmax..kmax
        counts["kernels.action_sum.nodes"] += 2 * args[5] + 1

    tracer.wrap(m["_kernels"], "action_sum", "kernels.action_sum", action_nodes)
    tracer.wrap(m["action"], "action_integral_numeric", "action.action_integral_numeric")
    tracer.wrap(m["action"], "quantize_energy", "action.quantize_energy")

    def zeros_found(counts, args, result):
        counts["special_functions.zeros"] += len(result)

    tracer.wrap(m["oracles"], "bessel_j_zeros", "special_functions.bessel_j_zeros", zeros_found)
    tracer.wrap(m["oracles"], "well_exact_spectrum", "oracles.well_exact_spectrum")
    tracer.wrap(m["oracles"], "shoot_eigenvalue", "oracles.shoot_eigenvalue")
    tracer.wrap(m["special_functions"], "bessel_j", "special_functions.bessel_j")

    def table_rows(counts, args, result):
        counts["closed_form.spectrum_table.rows"] += len(result.rows)

    tracer.wrap(m["cli"], "spectrum_table", "closed_form.spectrum_table", table_rows)
    tracer.wrap(m["cli"], "table_to_csv", "cli.table_to_csv")
    tracer.wrap(m["cli"], "table_to_json", "cli.table_to_json")
    tracer.wrap(m["svg"], "render_svg", "svg.render_svg")
    tracer.wrap(m["analysis"], "build_tendency_report", "analysis.build_tendency_report")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("cli.main.calls", "count", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.failures", "count", "lower"),
    ("cli.table_to_csv.busy_s", "s", "lower"),
    ("cli.table_to_json.busy_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "higher"),
    ("svg.render_svg.calls", "count", "higher"),
    ("svg.render_svg.busy_s", "s", "lower"),
    ("closed_form.spectrum_table.calls", "count", "higher"),
    ("closed_form.spectrum_table.rows", "count", "higher"),
    ("closed_form.spectrum_table.busy_s", "s", "lower"),
    ("analysis.build_tendency_report.calls", "count", "higher"),
    ("analysis.build_tendency_report.busy_s", "s", "lower"),
    ("action.quantize_energy.calls", "count", "higher"),
    ("action.quantize_energy.busy_s", "s", "lower"),
    ("action.quantize_energy.failures", "count", "lower"),
    ("action.action_integral_numeric.calls", "count", "higher"),
    ("action.action_integral_numeric.busy_s", "s", "lower"),
    ("action.integrals_per_level", "count/level", "lower"),
    ("action.mesh_levels_per_integral", "count/integral", "lower"),
    ("kernels.action_sum.calls", "count", "higher"),
    ("kernels.action_sum.nodes", "count", "higher"),
    ("kernels.action_sum.busy_s", "s", "lower"),
    ("kernels.action_sum.nodes_per_s", "1/s", "higher"),
    ("oracles.well_exact_spectrum.calls", "count", "higher"),
    ("oracles.well_exact_spectrum.busy_s", "s", "lower"),
    ("special_functions.bessel_j_zeros.calls", "count", "higher"),
    ("special_functions.bessel_j_zeros.busy_s", "s", "lower"),
    ("special_functions.bessel_j.calls", "count", "higher"),
    ("special_functions.bessel_j_per_zero", "count/zero", "lower"),
    ("oracles.shoot_eigenvalue.calls", "count", "higher"),
    ("oracles.shoot_eigenvalue.busy_s", "s", "lower"),
    ("oracles.shoot_eigenvalue.self_s", "s", "lower"),
    ("oracles.shoot_eigenvalue.failures", "count", "lower"),
    ("kernels.numerov_count.calls", "count", "higher"),
    ("kernels.numerov_count.points", "count", "higher"),
    ("kernels.numerov_count.busy_s", "s", "lower"),
    ("kernels.numerov_match.calls", "count", "higher"),
    ("kernels.numerov_match.points", "count", "higher"),
    ("kernels.numerov_match.busy_s", "s", "lower"),
    ("oracles.sweeps_per_solve", "count/solve", "lower"),
    ("oracles.points_per_solve", "count/solve", "lower"),
    ("kernels.numerov.points_per_s", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
)


def layer_metrics(t: Tracer, overhead_s: float, overhead_ratio: float) -> dict[str, float]:
    """Per-layer values from the tracer's totals."""
    c = t.counts
    sweeps = t.calls["kernels.numerov_count"] + t.calls["kernels.numerov_match"]
    points = c["kernels.numerov_count.points"] + c["kernels.numerov_match.points"]
    numerov_busy = t.busy["kernels.numerov_count"] + t.busy["kernels.numerov_match"]
    solves = t.calls["oracles.shoot_eigenvalue"]
    values = {
        "cli.main.calls": t.calls["cli.main"],
        "cli.main.self_s": t.self_time["cli.main"],
        "cli.failures": t.failures["cli.main"],
        "cli.table_to_csv.busy_s": t.busy["cli.table_to_csv"],
        "cli.table_to_json.busy_s": t.busy["cli.table_to_json"],
        "cli.bytes_out": c["cli.bytes_out"],
        "svg.render_svg.calls": t.calls["svg.render_svg"],
        "svg.render_svg.busy_s": t.busy["svg.render_svg"],
        "closed_form.spectrum_table.calls": t.calls["closed_form.spectrum_table"],
        "closed_form.spectrum_table.rows": c["closed_form.spectrum_table.rows"],
        "closed_form.spectrum_table.busy_s": t.busy["closed_form.spectrum_table"],
        "analysis.build_tendency_report.calls": t.calls["analysis.build_tendency_report"],
        "analysis.build_tendency_report.busy_s": t.busy["analysis.build_tendency_report"],
        "action.quantize_energy.calls": t.calls["action.quantize_energy"],
        "action.quantize_energy.busy_s": t.busy["action.quantize_energy"],
        "action.quantize_energy.failures": t.failures["action.quantize_energy"],
        "action.action_integral_numeric.calls": t.calls["action.action_integral_numeric"],
        "action.action_integral_numeric.busy_s": t.busy["action.action_integral_numeric"],
        "action.integrals_per_level": _ratio(t.calls["action.action_integral_numeric"], t.calls["action.quantize_energy"]),
        "action.mesh_levels_per_integral": _ratio(t.calls["kernels.action_sum"], t.calls["action.action_integral_numeric"]),
        "kernels.action_sum.calls": t.calls["kernels.action_sum"],
        "kernels.action_sum.nodes": c["kernels.action_sum.nodes"],
        "kernels.action_sum.busy_s": t.busy["kernels.action_sum"],
        "kernels.action_sum.nodes_per_s": _ratio(c["kernels.action_sum.nodes"], t.busy["kernels.action_sum"]),
        "oracles.well_exact_spectrum.calls": t.calls["oracles.well_exact_spectrum"],
        "oracles.well_exact_spectrum.busy_s": t.busy["oracles.well_exact_spectrum"],
        "special_functions.bessel_j_zeros.calls": t.calls["special_functions.bessel_j_zeros"],
        "special_functions.bessel_j_zeros.busy_s": t.busy["special_functions.bessel_j_zeros"],
        "special_functions.bessel_j.calls": t.calls["special_functions.bessel_j"],
        "special_functions.bessel_j_per_zero": _ratio(t.calls["special_functions.bessel_j"], c["special_functions.zeros"]),
        "oracles.shoot_eigenvalue.calls": solves,
        "oracles.shoot_eigenvalue.busy_s": t.busy["oracles.shoot_eigenvalue"],
        "oracles.shoot_eigenvalue.self_s": t.self_time["oracles.shoot_eigenvalue"],
        "oracles.shoot_eigenvalue.failures": t.failures["oracles.shoot_eigenvalue"],
        "kernels.numerov_count.calls": t.calls["kernels.numerov_count"],
        "kernels.numerov_count.points": c["kernels.numerov_count.points"],
        "kernels.numerov_count.busy_s": t.busy["kernels.numerov_count"],
        "kernels.numerov_match.calls": t.calls["kernels.numerov_match"],
        "kernels.numerov_match.points": c["kernels.numerov_match.points"],
        "kernels.numerov_match.busy_s": t.busy["kernels.numerov_match"],
        "oracles.sweeps_per_solve": _ratio(sweeps, solves),
        "oracles.points_per_solve": _ratio(points, solves),
        "kernels.numerov.points_per_s": _ratio(points, numerov_busy),
        "trace.overhead_s": overhead_s,
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans": len(t.spans) + t.dropped,
    }
    return {name: float(values[name]) for name, _, _ in PER_LAYER}
