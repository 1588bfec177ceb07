"""The README's "Library surface" block runs as written, and every name in
`noisekit.__all__` resolves, so neither can drift from the package."""
import re
from pathlib import Path

import noisekit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_surface_block_runs():
    section = README.read_text().split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_every_exported_name_resolves():
    assert [name for name in noisekit.__all__ if not hasattr(noisekit, name)] == []
