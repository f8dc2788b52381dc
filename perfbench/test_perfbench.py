"""Tests of the benchmark itself (not of abwkb).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import execute  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import yardstick  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.fixture
def executor(program, tmp_path):
    return execute.Executor(program, str(tmp_path / "figure.svg"))


def _draw(workload: str, seed: int, n_rounds: int = 3):
    return inputs.census(workload, seed), list(itertools.islice(inputs.rounds(workload, seed), n_rounds))


def _shape(census, rounds):
    return (
        collections.Counter((op.kind, op.edge) for op in census),
        [collections.Counter((op.kind, op.cls) for op in ops) for ops in rounds],
    )


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_same_proportions(workload):
    first, again, other = _draw(workload, 7), _draw(workload, 7), _draw(workload, 8)
    assert first == again
    assert first != other
    assert _shape(*first) == _shape(*other)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_census_holds_known_defect_regions(workload):
    census = inputs.census(workload, 3)
    assert any(op.edge for op in census) and any(not op.edge for op in census)
    assert all(op.cls is None for op in census)


def _scaled(fn, factor):
    def wrong(*args, **kwargs):
        value = fn(*args, **kwargs)
        return [v * factor for v in value] if isinstance(value, list) else value * factor

    return wrong


def _first(workload, predicate):
    for ops in inputs.rounds(workload, 5):
        for op in ops:
            if predicate(op):
                return op


def test_planted_wrong_closed_form_fails_grid_rows(program, executor, monkeypatch):
    op = _first("grid_cli", lambda o: o.cls == "light" and o.params["command"] == "spectrum")
    assert executor.run(op).ok
    closed_form = program["abwkb"].closed_form
    monkeypatch.setattr(closed_form, "closed_form_energy", _scaled(closed_form.closed_form_energy, 1.01))
    assert not executor.run(op).ok


def test_planted_wrong_quantize_and_well_fail(program, executor, monkeypatch):
    level = _first("wkb_roots", lambda o: o.kind == "quantize")
    well = _first("wkb_roots", lambda o: o.kind == "well" and o.params["gamma"] == int(o.params["gamma"]))
    assert executor.run(level).ok and executor.run(well).ok
    monkeypatch.setattr(program["action"], "quantize_energy", _scaled(program["action"].quantize_energy, 1.01))
    monkeypatch.setattr(program["oracles"], "well_exact_spectrum", _scaled(program["oracles"].well_exact_spectrum, 1.01))
    assert not executor.run(level).ok
    assert not executor.run(well).ok


def test_planted_wrong_shoot_fails_exact_states(program, executor, monkeypatch):
    op = _first("shoot_oracle", lambda o: o.params["ref"] == "oscillator")
    assert executor.run(op).ok
    monkeypatch.setattr(program["oracles"], "shoot_eigenvalue", _scaled(program["oracles"].shoot_eigenvalue, 1.01))
    assert not executor.run(op).ok


def test_metric_names_units_and_benchmark_json_agree():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    names = [name for name, _, _ in run.END_TO_END + tracing.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in run.END_TO_END + tracing.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")


def test_layer_metrics_cover_every_per_layer_name():
    values = tracing.layer_metrics(tracing.Tracer(), 0.0, 0.0)
    assert list(values) == [name for name, _, _ in tracing.PER_LAYER]


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    assert tracer.calls["outer"] == tracer.calls["inner"] == 1
    assert tracer.self_time["outer"] == pytest.approx(tracer.busy["outer"] - tracer.busy["inner"])
    inner, outer = tracer.spans
    assert inner[1] == outer[0] and outer[1] == -1


@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_result_last(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "wkb_roots", "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = run.END_TO_END if trace == 0 else tracing.PER_LAYER
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(n, u) for n, u, _ in expected]


def test_traced_stream_runs_whole_rounds(executor):
    per_round = len(next(inputs.rounds("wkb_roots", 2)))
    stream = run.run_stream(executor, "wkb_roots", 2, max_rounds=2)
    assert stream["attempted"] == 2 * per_round and not stream["failures"]


def test_typical_weights_every_stratum_alike():
    assert run.typical({0: [1.0, 1.0, 1.0], 1: [4.0]}) == pytest.approx(2.0)
    assert run.typical({}) == 0.0


def test_op_cost_is_divided_by_the_nearest_yardstick_passes():
    marks = yardstick.Marks()
    marks.at, marks.seconds = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 13.0], [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    stream = {"marks": marks, "timed": [("light", 0, 0.5, 0.003, 1), ("light", 0, 12.5, 0.006, 1)]}
    by_ref, by_wall, samples = run.stream_figures(stream)
    # the first op sees passes of 1 s only, the second of 2 s only
    assert by_ref["light_op_ref"] == pytest.approx(0.003)
    assert by_ref["items_per_ref"] == pytest.approx(2 / 0.006)
    assert by_wall["light_op_ms"] == pytest.approx(4.5)
    assert samples["light_op_ref"] == 2
