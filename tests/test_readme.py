"""README's "Library surface" and "Command line" blocks run as written,
so a name or a flag deleted from the package cannot stay in the
documentation, and the "Library surface" block names every public name,
so none can be added without it."""

import pathlib
import re
import shlex

import abwkb
from abwkb.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert block is not None, f"no {language} block under {heading!r}"
    return block.group(1)


def test_library_surface_block_runs():
    exec(compile(_block("Library surface", "python"), "README.md:Library surface", "exec"), {})


def test_library_surface_block_names_every_public_name():
    block = _block("Library surface", "python")
    missing = [name for name in abwkb.__all__ if not re.search(rf"\babwkb\.{name}\b", block)]
    assert missing == []


def test_command_line_block_runs(tmp_path, monkeypatch):
    block = _block("Command line", "bash")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("abwkb ")]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)  # compare-well writes its --svg here
    for argv in commands:
        assert main(argv) == 0, argv
