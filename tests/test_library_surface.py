"""The README's "Library surface" block runs as written, every name in
`noisekit.__all__` resolves, and pyproject.toml takes its version from the
package, so none of them can drift from it."""
import re
import warnings
from pathlib import Path

import pytest

import noisekit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_surface_block_runs():
    section = README.read_text().split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_every_exported_name_resolves():
    assert [name for name in noisekit.__all__ if not hasattr(noisekit, name)] == []


def test_the_package_version_is_written_once():
    """pyproject.toml reads its version from `noisekit.__version__`."""
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():  # setuptools calls its [tool.setuptools] table beta
        warnings.simplefilter("ignore")
        config = pyproject.read_configuration(README.parent / "pyproject.toml")
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == noisekit.__version__
