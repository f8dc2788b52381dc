"""README's "Library surface" block runs as written, so a name deleted
from the package cannot stay in the documentation."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library surface'"
    exec(compile(block.group(1), "README.md:Library surface", "exec"), {})
