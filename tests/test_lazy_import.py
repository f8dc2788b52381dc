"""The package and its CLI load without NumPy.

`import abwkb, abwkb.cli` and the closed-form commands (spectrum,
tendency, zeros) leave NumPy and the three modules that need it unloaded;
the solver names load them on first access.  Each check runs in a fresh
interpreter, since this test process has long imported everything.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import abwkb

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
NUMPY_SIDE = ["numpy", "abwkb._kernels", "abwkb.action", "abwkb.oracles"]

SCRIPT = """
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, {src!r})
import abwkb, abwkb.cli

def loaded():
    return [m for m in {modules!r} if m in sys.modules]

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = abwkb.cli.main(list(argv))
    assert code == 0, (argv, code, err.getvalue())
    return out.getvalue()

seen = {{"import": loaded(), "dir_lists_all": set(abwkb.__all__) <= set(dir(abwkb))}}
grid = ("--nu", "3", "--lambda", "1", "--mu0", "0.3", "--n-max", "5", "--q-max", "2")
run("spectrum", *grid, "--k-range=-1..1")
run("spectrum", *grid, "--k-range=-1..1", "--format", "json")
with tempfile.TemporaryDirectory() as tmp:
    svg = os.path.join(tmp, "tendency.svg")
    run("tendency", *grid, "--svg", svg)
    assert open(svg).read().startswith("<svg")
run("zeros", "--order", "0.5", "--count", "3")
seen["closed_form_commands"] = loaded()
seen["backend"] = abwkb.BACKEND
seen["backend_kept"] = "BACKEND" in vars(abwkb)
seen["after_backend"] = loaded()
from abwkb import quantize_energy
seen["quantize_energy_is_action's"] = quantize_energy is sys.modules["abwkb.action"].quantize_energy
seen["after_quantize_energy"] = loaded()
seen["quantize"] = json.loads(run("quantize", "--nu", "2", "--lambda", "1", "--gamma", "0", "--n", "1"))["energy"]
seen["shoot"] = json.loads(run("shoot", "--nu", "2", "--lambda", "1", "--gamma", "0", "--n", "1"))["energy"]
print(json.dumps(seen))
"""


def _fresh(script: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_leave_numpy_unloaded():
    seen = _fresh(SCRIPT.format(src=str(SRC), modules=NUMPY_SIDE))
    assert seen["import"] == []
    assert seen["dir_lists_all"] is True
    assert seen["closed_form_commands"] == []
    # BACKEND loads _kernels and NumPy; quantize_energy then loads action
    assert seen["backend"] == "numpy"
    assert seen["backend_kept"] is True
    assert seen["after_backend"] == ["numpy", "abwkb._kernels"]
    assert seen["quantize_energy_is_action's"] is True
    assert seen["after_quantize_energy"] == ["numpy", "abwkb._kernels", "abwkb.action"]
    # V = r**2 at gamma = 0: the oscillator level 4 n + 3 = 7
    assert seen["quantize"] == 7.0
    assert abs(seen["shoot"] - 7.0) < 1e-8


def test_exported_names_and_solver_modules_resolve_in_a_fresh_interpreter():
    script = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); import abwkb\n"
        "oracles = abwkb.oracles\n"
        "namespace = {}\n"
        "exec('from abwkb import *', namespace)\n"
        "print(json.dumps({'star': sorted(n for n in namespace if n != '__builtins__'),"
        " 'same': all(namespace[n] is getattr(abwkb, n) for n in abwkb.__all__),"
        " 'oracles': oracles is sys.modules['abwkb.oracles']}))\n"
    )
    seen = _fresh(script)
    assert seen["star"] == sorted(abwkb.__all__)
    assert len(seen["star"]) == 24
    assert seen["same"] is True
    # a solver module is still an attribute of the package without its own import
    assert seen["oracles"] is True


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        abwkb.no_such_name  # noqa: B018
