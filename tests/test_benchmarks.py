"""The diagnostic scripts in benchmarks/ and the harness they share."""

import importlib.util
import json
import pathlib
import shutil
import types

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load("harness")


@pytest.mark.parametrize("name", ["bench_action", "bench_grid", "bench_shoot"])
def test_script_loads_by_path(name):
    module = _load(name)
    assert callable(module.measure)
    assert callable(module.report)


def test_shoot_pair_figures_read_a_committed_record():
    shoot = _load("bench_shoot")
    with open(BENCHMARKS.parent / "BENCH_39.json", encoding="utf-8") as fh:
        record = json.load(fh)
    result = record["change"]
    assert shoot.figures(result) == {
        k: result[k] for k in ("seconds_ref_total", "ns_per_point", "confined_ref_total", "tail_ref_total")
    }
    for stratum in ("confined", "tail"):
        states = [s for name, s in result["states"].items() if name.startswith(stratum)]
        assert len(states) == 6
        assert result[f"{stratum}_ref_total"] == sum(s["seconds_ref"] for s in states)
    counters = shoot.counters(result)
    assert list(counters) == list(result["states"])
    assert counters["confined_airy"] == {
        k: result["states"]["confined_airy"][k] for k in ("sweeps", "points", "search_points", "tables", "energy")
    }
    # search windows sized by the step bound alone: a single run's counters
    # are the pair runs' change side; the strata states keep their sweeps
    # and tables and walk at most 0.9 of the parent's points, all of the
    # saving on the search's windows; the nested_* and floor_* states walk
    # at most 1.05 of them
    pairs = record["pairs"]
    assert list(pairs["figures"]) == list(shoot.figures(result))
    assert pairs["counters"]["change"] == counters
    parent = pairs["counters"]["parent"]
    for name, c in counters.items():
        p = parent[name]
        if name.startswith(("tail", "confined")):
            assert (c["sweeps"], c["tables"]) == (p["sweeps"], p["tables"]), name
            assert c["points"] <= 0.9 * p["points"], name
            assert c["points"] - c["search_points"] == p["points"] - p["search_points"], name
        else:
            assert c["points"] <= 1.05 * p["points"], name


def test_action_pair_figures_read_a_committed_record():
    bench = _load("bench_action")
    with open(BENCHMARKS.parent / "BENCH_35.json", encoding="utf-8") as fh:
        record = json.load(fh)
    result = record["change"]
    assert bench.figures(result) == {
        "quantize_ref_total": result["quantize_ref_total"], "quantize_seconds_median": result["quantize_seconds_median"]
    }
    counters = bench.counters(result)
    assert list(counters) == list(result["states"])
    assert counters["coulomb"] == {
        k: result["states"]["coulomb"][k]
        for k in ("action_sums", "nodes", "integrand_evaluations", "integrand_nodes", "energy")
    }
    # the counters do not drift: a single run's are the pair runs' change side,
    # and both sides quantize every state to the same level
    pairs = record["pairs"]
    assert list(pairs["figures"]) == list(bench.figures(result))
    assert pairs["counters"]["change"] == counters
    assert all(pairs["counters"]["parent"][name]["energy"] == c["energy"] for name, c in counters.items())


def test_grid_pair_figures_read_a_committed_record():
    grid = _load("bench_grid")
    with open(BENCHMARKS.parent / "BENCH_40.json", encoding="utf-8") as fh:
        record = json.load(fh)
    result = record["change"]
    assert grid.figures(result)["command_main_csv_ref"] == result["grids"]["command_12"]["ref"]["main_csv"]
    # each command parsed once: the parent's top-level parser handed the
    # options on to the command's parser, which parsed them again; rows,
    # bytes and imports are the same on both sides
    pairs = record["pairs"]
    assert list(pairs["figures"]) == list(grid.figures(result))
    assert pairs["counters"]["change"] == grid.counters(result)
    parent, change = dict(pairs["counters"]["parent"]), dict(pairs["counters"]["change"])
    assert (parent.pop("parses_per_main"), change.pop("parses_per_main")) == (2, 1)
    assert parent == change


class TestMergeRecord:
    def test_keeps_other_labels_and_replaces_its_own(self, tmp_path):
        path = str(tmp_path / "record.json")
        harness.merge_record(path, "parent", {"x": 1})
        harness.merge_record(path, "change", {"x": 2})
        harness.merge_record(path, "parent", {"x": 3})
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"parent": {"x": 3}, "change": {"x": 2}}

    def test_rewrites_a_committed_record_byte_for_byte(self, tmp_path):
        path = tmp_path / "BENCH_27.json"
        shutil.copy(BENCHMARKS.parent / "BENCH_27.json", path)
        before = path.read_bytes()
        harness.merge_record(str(path), "change", json.loads(before)["change"])
        assert path.read_bytes() == before


class TestCounting:
    def test_counts_calls_and_sizes(self):
        module = types.SimpleNamespace(kernel=lambda a, b: a + b)
        with harness.counting(module, "kernel", lambda args: args[1]) as work:
            assert module.kernel(1, 10) == 11
            assert module.kernel(2, 5) == 7
        assert (work.calls, work.size) == (2, 15)

    def test_restores_the_kernel_when_the_call_raises(self):
        def kernel(x):
            raise ValueError("kernel failed")

        module = types.SimpleNamespace(kernel=kernel)
        with pytest.raises(ValueError, match="kernel failed"):
            with harness.counting(module, "kernel", lambda args: 1) as work:
                module.kernel(0)
        assert module.kernel is kernel
        assert work.calls == 1


class TestBestOf:
    def test_times_the_yardstick_next_to_the_samples(self):
        calls = []
        best = harness.best_of(lambda: calls.append(1), 1)
        assert 0.0 < best.seconds and 0.0 < best.pass_s
        assert best.ref == best.seconds / best.pass_s
        assert len(calls) >= 2  # the timed first call and one sample


STUB_SCRIPT = """
import sys
sys.path.insert(0, {benchmarks!r})
import harness

def measure():
    import abwkb
    return {{"repeat": 1, "seconds": abwkb.SECONDS, "calls": 3}}

def report(result):
    print(result["seconds"])

def figures(result):
    return {{"seconds": result["seconds"]}}

def counters(result):
    return {{"calls": result["calls"]}}

if __name__ == "__main__":
    sys.exit(harness.main(__doc__, measure, report, figures=figures, counters=counters))
"""


class TestPairMode:
    def test_record_of_alternating_pairs(self, tmp_path):
        # a stub script, and two stub packages that differ in the figure it reports
        script = tmp_path / "bench_stub.py"
        script.write_text(STUB_SCRIPT.format(benchmarks=str(BENCHMARKS)), encoding="utf-8")
        for side, seconds in (("parent", 2.0), ("change", 1.0)):
            package = tmp_path / side / "abwkb"
            package.mkdir(parents=True)
            (package / "__init__.py").write_text(f"SECONDS = {seconds!r}\n", encoding="utf-8")
        spec = importlib.util.spec_from_file_location("bench_stub", script)
        stub = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(stub)
        record_path = tmp_path / "record.json"
        argv = ["--src", str(tmp_path / "change"), "--parent-src", str(tmp_path / "parent"),
                "--pairs", "3", "--label", "pairs", "--record", str(record_path)]
        assert harness.main(None, stub.measure, stub.report, argv, figures=stub.figures, counters=stub.counters) == 0
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)["pairs"]
        assert list(record)[:3] == ["env", "counters", "counters_equal"]
        assert record["counters"] == {"parent": {"calls": 3}, "change": {"calls": 3}}
        assert record["counters_equal"] is True
        assert record["pairs"] == 3
        assert record["first"] == ["parent", "change", "parent"]
        assert record["figures"] == {
            "seconds": {
                "parent": [2.0, 2.0, 2.0], "change": [1.0, 1.0, 1.0],
                "parent_median": 2.0, "change_median": 1.0, "change_wins": 3,
            }
        }

    @pytest.mark.parametrize("argv", [["--pairs", "0"], ["--parent-src", "elsewhere", "--pairs", "-1"]])
    def test_pair_count_must_be_positive(self, argv):
        with pytest.raises(SystemExit):
            harness.main(None, None, None, argv, figures=None, counters=None)
