"""Smoke test of the benchmark harness at tiny sizes (256 shots, 2 resamples).

Run from the repository root with

    python3 -m pytest -q perfbench/smoke.py

The file name keeps it out of the repository's own test collection: the
benchmark measures the program and does not add to its test suite. The
checks run at these sizes but need not pass, since 256 shots cannot resolve
what the statistical checks ask for.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))

    record = json.loads((ROOT / ".perfbench" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    assert record["operations_checked"] == result["attempted"], "every operation is checked"
    assert record["environment"]["kernels"] in ("numpy", "numba")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_span_recorder_restores_every_original():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import noisekit.cli as cli
        from noisekit import backend, evaluation, simulator
        from spans import SpanRecorder

        originals = (cli.run_suite, backend.counts_from_indices,
                     evaluation.simulate_noisy_exact, simulator.TrajectorySampler.sample)
        recorder = SpanRecorder()
        recorder.install()
        try:
            wrapped = (cli.run_suite, backend.counts_from_indices,
                       evaluation.simulate_noisy_exact, simulator.TrajectorySampler.sample)
            assert all(w is not o for w, o in zip(wrapped, originals))
            simulator.counts_from_indices([0, 1, 1], 1, 3)
        finally:
            recorder.restore()
        assert recorder.names == ["outcomes.counts_format"]
        assert (cli.run_suite, backend.counts_from_indices, evaluation.simulate_noisy_exact,
                simulator.TrajectorySampler.sample) == originals
    finally:
        del sys.path[:2]
