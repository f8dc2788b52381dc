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
