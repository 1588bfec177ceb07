"""The benchmark (`perfbench/`) drives the program by name: its span
recorder (`spans.py`) wraps program callables, and its workloads
(`workloads.py`) call the CLI with fixed argv. Every name the recorder
targets must stay defined where it looks, and every workload's argv must
still parse, or only the benchmark run notices that a hook is gone.

The benchmark's files are read with `runpy`, which compiles them without
importing them as a package; no bytecode cache is written next to them.
"""
import importlib
import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import noisekit.cli as cli
from noisekit import _kernels

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = runpy.run_path(str(BENCH / "spans.py"))
TARGETS = [(t[0], t[1]) for t in SPANS["SPAN_TARGETS"] + SPANS["COUNT_TARGETS"]]


def _workloads() -> dict:
    """perfbench's workload classes by name. `workloads.py` imports its
    sibling modules by name, so perfbench is on sys.path for this call
    only, with bytecode writing off."""
    path, dont_write = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write


WORKLOADS = _workloads()


def _wrappers_left() -> list[str]:
    return [f"{module.__name__}.{key}" for module in SPANS["_noisekit_modules"]()
            for key, value in SPANS["_members"](module) if getattr(value, SPANS["_MARK"], False)]


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


def test_recorder_counts_the_plan_of_a_small_traced_demo(tmp_path):
    """The traced benchmark fails a pass when a counter differs from the
    workload's plan, or when the recorder cannot bind a counter's argument
    (`TrajectorySampler.sample`'s shots, `score_model`'s exact/resamples,
    `MockBackend.run`'s circuits/shots, `run_suite`'s plan). A small demo
    under the recorder checks both, then that restoring leaves no wrapper."""
    import noisekit.cli as cli
    from noisekit import evaluation, simulator

    originals = (cli.main, evaluation.tvd, evaluation.score_model,
                 simulator.TrajectorySampler.sample)
    recorder = SPANS["SpanRecorder"]()
    recorder.install()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["demo", "full-paper", "--shots", "64", "--resamples", "2",
                             "--max-ghz", "3", "--seed", "3", "--out", str(tmp_path)])
    finally:
        recorder.restore()
    assert code == 0
    # 126 count sets of 64 shots drawn in 114 sampler calls: one per mock-QPU
    # circuit (94) and per BV prediction (8), and one two-row draw per score
    # for the 2 resamples of each of 6 Bell variants, 2 GHZ widths and 4
    # granularity models, each scored from the draw's matrix without a
    # `tvd` call
    assert {name: recorder.counters[name] for name in (
        "simulator.shots", "simulator.sample_calls", "backend.shots",
        "evaluation.resamples", "evaluation.tvd_calls",
    )} == {"simulator.shots": 8064, "simulator.sample_calls": 114, "backend.shots": 6016,
           "evaluation.resamples": 24, "evaluation.tvd_calls": 0}
    assert (cli.main, evaluation.tvd, evaluation.score_model,
            simulator.TrajectorySampler.sample) == originals
    assert not _wrappers_left()


def test_recorder_counts_hidden_readout_draws_as_sampler_shots(tmp_path):
    """On the mock QPU's hidden-readout path every circuit is still one
    `TrajectorySampler.sample` draw, so the traced sampler shots equal the
    backend's."""
    import noisekit.cli as cli
    from noisekit.backend import MockGroundTruth
    from noisekit.devices import line, uniform_truth

    topo = line(3)
    topo.save(tmp_path / "device.json")
    MockGroundTruth(uniform_truth(topo), hidden_readout_strength=0.04).save(
        tmp_path / "truth.json")
    recorder = SPANS["SpanRecorder"]()
    recorder.install()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["characterize", "--device", str(tmp_path / "device.json"),
                             "--backend", f"mock:{tmp_path / 'truth.json'}",
                             "--shots", "64", "--out", str(tmp_path / "out")])
    finally:
        recorder.restore()
    assert code == 0
    circuits = 3 * 3 + 2  # init, x and xx per qubit, one Bell test per coupling
    assert recorder.counters["simulator.sample_calls"] == circuits
    assert recorder.counters["simulator.shots"] == circuits * 64
    assert recorder.counters["backend.shots"] == circuits * 64
    assert not _wrappers_left()


@pytest.mark.parametrize("workload", WORKLOADS.values(), ids=WORKLOADS.keys())
def test_workload_operations_parse_with_their_commands_parser(workload, tmp_path):
    """Each operation of a workload at smoke sizes parses with its command's
    own parser, as `main` parses it; nothing is run."""
    operations = workload(tmp_path, 42, smoke=True).operations()
    assert operations
    for op in operations:
        command, *options = op.argv
        parser = cli._Parser(prog=f"noisekit {command}")
        cli.COMMANDS[command][1](parser)
        assert parser.parse_args(options).func.__name__ == f"cmd_{command}"
