"""The benchmark's span recorder (`perfbench/spans.py`) wraps program
callables by name. Every name it targets must stay defined where it looks,
or only the benchmark run notices that a hook is gone.

The recorder is read with `runpy`, which compiles it without importing it
as a package or writing a bytecode cache next to it.
"""
import importlib
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from noisekit import _kernels

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
TARGETS = [(t[0], t[1]) for t in SPANS["SPAN_TARGETS"] + SPANS["COUNT_TARGETS"]]


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
