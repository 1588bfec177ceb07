"""Name of the simulation path, which the benchmark (`perfbench/run.py`)
records in each run record.

The simulator has no amplitude kernels: the ideal law comes from a GF(2)
sweep. This name is kept only for that record and goes when the benchmark
reads the program's own trace (ROADMAP item 1).
"""
from types import SimpleNamespace

ACTIVE = SimpleNamespace(name="numpy")
