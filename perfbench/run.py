#!/usr/bin/env python3
"""Pipeline benchmark for noisekit: characterize -> fit -> evaluate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_demo --seed 1 --seconds 30 --trace 0

One single-threaded process runs one workload as a closed loop: set up, then
one pass after another until the next pass would end past --seconds (at least
one pass). With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the run first repeats untraced passes for half the
time, then wraps noisekit's public callables from outside (spans.py) for the
other half and reports per-layer metrics. Times are in reference-speed
seconds (reference.py). perfbench/README.md lists every metric.
"""
import time

_T0 = time.perf_counter()

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# per-layer metric -> (source, key): inclusive or self span seconds, or a counter
PER_LAYER = {
    "simulator.sample_s": ("incl", "simulator.sample"),
    "simulator.sampler_init_s": ("incl", "simulator.sampler_init"),
    "simulator.sample_calls": ("count", "simulator.sample_calls"),
    "simulator.shots": ("count", "simulator.shots"),
    "simulator.exact_s": ("incl", "simulator.exact"),
    "simulator.exact_calls": ("count", "simulator.exact_calls"),
    "evaluation.score_s": ("incl", "evaluation.score"),
    "evaluation.scores": ("count", "evaluation.scores"),
    "evaluation.resamples": ("count", "evaluation.resamples"),
    "evaluation.tvd_s": ("incl", "evaluation.tvd"),
    "evaluation.tvd_calls": ("count", "evaluation.tvd_calls"),
    "outcomes.counts_format_s": ("incl", "outcomes.counts_format"),
    "backend.run_s": ("incl", "backend.run"),
    "backend.run_self_s": ("self", "backend.run"),
    "backend.circuits": ("count", "backend.circuits"),
    "backend.shots": ("count", "backend.shots"),
    "characterization.run_suite_s": ("incl", "characterization.run_suite"),
    "characterization.circuits": ("count", "characterization.circuits"),
    "characterization.archive_io_s": ("incl", "characterization.archive_io"),
    "estimation.fit_s": ("incl", "estimation.fit"),
    "estimation.fits": ("count", "estimation.fits"),
    "estimation.aro_s": ("incl", "estimation.aro"),
    "estimation.pcnot_s": ("incl", "estimation.pcnot"),
    "estimation.hadamard_s": ("incl", "estimation.hadamard"),
    "estimation.objective_evals": ("count", "estimation.objective_evals"),
    "cli.self_s": ("self", "cli.main"),
}
SHARE_KEYS = ("evaluation.score_s", "simulator.sample_s", "backend.run_s",
              "estimation.fit_s", "characterization.archive_io_s", "cli.self_s")


@dataclass
class Pass:
    elapsed_s: float             # wall time, speed probe included
    wall_s: float                # wall time without the speed probe's own time
    scale: float                 # reference-speed seconds per wall second
    root: int | None = None      # the pass's span, when traced
    counts: Counter = field(default_factory=Counter)

    @property
    def seconds(self) -> float:
        return self.wall_s * self.scale

    def span_seconds(self, span_wall_s: float) -> float:
        """A span's reference-speed seconds, taking off its share of the probe."""
        return span_wall_s * self.scale * self.wall_s / self.elapsed_s


class Harness:
    """Runs passes of one workload and tallies operations and failures."""

    def __init__(self, workload, cli, probe):
        self.workload, self.cli, self.probe = workload, cli, probe
        self.attempted = 0
        self.checked = 0
        self.failures: list[str] = []

    def _call(self, argv):
        try:
            with redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        except Exception as exc:  # a crashing operation is a failed operation
            return f"{type(exc).__name__}: {exc}"

    def _run_pass(self, recorder):
        ops = self.workload.operations()
        before = Counter(recorder.counters) if recorder else Counter()
        mark = self.probe.mark()
        with recorder.span("pass") if recorder else nullcontext() as root:
            start = time.perf_counter()
            codes = [self._call(op.argv) for op in ops]
            elapsed = time.perf_counter() - start
        scale, probe_s = self.probe.since(mark)
        counts = Counter(recorder.counters) - before if recorder else Counter()
        self.attempted += len(ops)
        for op, code in zip(ops, codes):
            if code != 0:
                fails = [f"exit {code}"]
            else:
                fails = op.check()
                self.checked += 1
            if fails:
                self.failures.append(f"{op.argv[0]}: " + "; ".join(fails[:5]))
        return Pass(elapsed, elapsed - probe_s, scale, root, counts)

    def loop(self, seconds, recorder=None) -> list[Pass]:
        """Closed loop: start another pass only if it should end within `seconds`."""
        passes: list[Pass] = []
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start
                             + statistics.median(p.wall_s for p in passes) <= seconds):
            passes.append(self._run_pass(recorder))
        return passes


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "noisekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _environment(numpy, kernels) -> dict:
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernels": kernels.ACTIVE.name,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(recorder, passes: list[Pass]) -> dict:
    """Median over traced passes; counts take a value some pass really had."""
    values: dict[str, list] = {name: [] for name in PER_LAYER}
    for p in passes:
        incl, own = recorder.layer_times(p.root)
        sources = {"incl": incl, "self": own, "count": p.counts}
        for name, (source, key) in PER_LAYER.items():
            value = sources[source].get(key, 0)
            values[name].append(value if source == "count" else p.span_seconds(value))
    return {name: _metric(statistics.median_low(vals), "count") if PER_LAYER[name][0] == "count"
            else _metric(statistics.median(vals), "s") for name, vals in values.items()}


def _traced(harness, workload, seconds, spans_path) -> tuple[dict, dict]:
    plain = harness.loop(seconds / 2)
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = harness.loop(seconds / 2, recorder)
    finally:
        recorder.restore()
    recorder.dump(spans_path)
    for key, want in workload.plan_counts.items():
        got = [p.counts[key] for p in traced]
        if any(g != want for g in got):
            harness.failures.append(f"trace: {key} per pass {got}, plan says {want}")
    metrics = _layer_metrics(recorder, traced)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics["trace.overhead_s"] = _metric(traced_s - statistics.median(p.seconds for p in plain), "s")
    detail = {"untraced_pass_s": [p.seconds for p in plain],
              "traced_pass_s": [p.seconds for p in traced],
              "traced_pass_wall_s": [p.wall_s for p in traced],
              "shares_of_traced_pass": {k: metrics[k]["value"] / traced_s for k in SHARE_KEYS}}
    return metrics, detail


def _untraced(harness, workload, seconds, setup_s) -> tuple[dict, dict]:
    passes = harness.loop(seconds)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "pass_s": _metric(statistics.median(p.seconds for p in passes), "s"),
        "throughput_per_s": _metric(
            workload.units_per_pass * len(passes) / sum(p.seconds for p in passes), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"pass_s_samples": [p.seconds for p in passes],
              "pass_wall_s_samples": [p.wall_s for p in passes],
              "throughput_unit": workload.unit, "units_per_pass": workload.units_per_pass}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_demo", "refit_archive", "qpu_exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (256 shots, 2 resamples) for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "noisekit" / "__init__.py").is_file():
        print(f"perfbench: no noisekit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import noisekit
    import noisekit.cli as cli
    from noisekit import _kernels
    if Path(noisekit.__file__).resolve().parent != SRC / "noisekit":
        print(f"perfbench: imported noisekit from {noisekit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import reference
    from workloads import WORKLOADS
    imports_s = time.perf_counter() - _T0

    seed = args.seed % (1 << 32)
    work = RESULTS / f"work-{args.workload}-{seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](work, seed, args.smoke)
        with reference.SpeedProbe() as probe:
            setup_s = imports_s * reference.speed_scale()
            builds = []
            for _ in range(SETUP_REPEATS):
                mark = probe.mark()
                start = time.perf_counter()
                workload.build()
                elapsed = time.perf_counter() - start
                scale, probe_s = probe.since(mark)
                builds.append((elapsed - probe_s) * scale)
            setup_s += statistics.median(builds)
            harness = Harness(workload, cli, probe)
            if args.trace:
                metrics, detail = _traced(harness, workload, args.seconds,
                                          RESULTS / f"{tag}-spans.json")
            else:
                metrics, detail = _untraced(harness, workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds,
              "environment": _environment(numpy, _kernels),
              "imports_wall_s": imports_s, "setup_build_s": builds,
              **workload.record, **detail,
              "operations_checked": harness.checked, "failures": harness.failures}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2))
    for failure in harness.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print("perfbench record: " + json.dumps({k: v for k, v in record.items() if k != "failures"}))
    print(json.dumps({"correct": not harness.failures, "attempted": harness.attempted,
                      "failed": len(harness.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
