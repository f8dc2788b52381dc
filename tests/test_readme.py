"""README's "Library surface" and "Command line" blocks run as written,
so a name or a flag deleted from the package cannot stay in the
documentation."""

import pathlib
import re
import shlex

from abwkb.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library surface'"
    exec(compile(block.group(1), "README.md:Library surface", "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S)
    assert block is not None, "no bash block under 'Command line'"
    commands = [shlex.split(line)[1:] for line in block.group(1).splitlines() if line.startswith("abwkb ")]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)  # compare-well writes its --svg here
    for argv in commands:
        assert main(argv) == 0, argv
