"""The benchmark's span recorder (`perfbench/spans.py`) wraps program
callables by name. Every name it targets must stay defined where it looks,
or only the benchmark run notices that a hook is gone.

The recorder is read with `runpy`, which compiles it without importing it
as a package or writing a bytecode cache next to it.
"""
import importlib
import runpy
from pathlib import Path

import pytest

from noisekit import _kernels

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
TARGETS = [(t[0], t[1]) for t in SPANS["SPAN_TARGETS"] + SPANS["COUNT_TARGETS"]]


@pytest.mark.parametrize("module_name, attr", TARGETS)
def test_span_target_is_defined_where_the_recorder_patches_it(module_name, attr):
    owner = importlib.import_module(module_name)
    *cls_name, name = attr.split(".")
    if cls_name:
        owner = vars(owner)[cls_name[0]]
    assert callable(vars(owner).get(name)), f"{module_name}.{attr}"


def test_kernel_path_is_named():
    # perfbench/run.py records this name and perfbench/smoke.py accepts only these
    assert _kernels.ACTIVE.name in ("numpy", "numba")
