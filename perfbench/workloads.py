"""The benchmark's workloads: inputs, per-pass CLI operations and their checks.

Each workload builds its inputs from the seed in `build()`, which the harness
may call several times, and lists the in-process `noisekit` CLI calls of one
pass in `operations()`. `units_per_pass` is the pass's work counted from the
plan, and `plan_counts` names the traced counters that must equal it. Every
operation carries a check that returns failure messages. The checks are statistical or structural, never byte comparisons of
counts, so they hold for any sampler stream.
"""
from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import noisekit.cli as cli
from noisekit import devices
from noisekit.backend import MockGroundTruth

from archive import draw_archive, hadamard_rates, sha256


@dataclass
class Op:
    argv: list[str]
    check: Callable[[], list[str]]


def _truth_table(model, p_h: list[float]) -> dict:
    """Per-element truth values in the form the archive generator takes."""
    qubits = range(len(p_h))
    return {
        "p0": [model.readout_for(q).p0 for q in qubits],
        "p1": [model.readout_for(q).p1 for q in qubits],
        "p_x": [model.x_for(q) for q in qubits],
        "p_h": p_h,
        "cnot": dict(model.cnot),
    }


def _run_cli(argv: list[str]) -> None:
    """Setup-time CLI call; its failure aborts the benchmark."""
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"setup call {argv[0]} exited with {code}")


class PaperDemo:
    """`noisekit demo full-paper`: every layer in the proportions a user sees."""

    name = "paper_demo"
    BV_SECRETS = 8          # all 3-bit secrets
    MAX_GHZ = 10            # demo default: GHZ n = 2..10
    VARIANTS = 6            # Bell comparison models
    GRANULARITY_MODELS = 4  # GHZ granularity sweep models

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work, self.seed = work, seed
        self.shots, self.resamples = (256, 2) if smoke else (8192, 50)
        self.out = work / "demo"
        topo = devices.ladder20()
        suite = 3 * topo.num_qubits + topo.num_couplings
        ghz = self.MAX_GHZ - 1
        mock_circuits = suite + 1 + ghz + self.BV_SECRETS
        sim_runs = self.resamples * (self.VARIANTS + ghz + self.GRANULARITY_MODELS) + self.BV_SECRETS
        self.units_per_pass = (mock_circuits + sim_runs) * self.shots
        self.unit = "simulated shots (mock QPU plus model sampling)"
        self.plan_counts = {"simulator.shots": self.units_per_pass}
        self.record: dict = {}

    def build(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)

    def operations(self) -> list[Op]:
        argv = ["demo", "full-paper", "--shots", str(self.shots), "--seed", str(self.seed),
                "--resamples", str(self.resamples), "--max-ghz", str(self.MAX_GHZ),
                "--out", str(self.out)]
        return [Op(argv, self._check)]

    def _check(self) -> list[str]:
        summary = json.loads((self.out / "summary.json").read_text())
        fails = []
        scores = json.loads((self.out / "bell_comparison.json").read_text())["scores"]
        best, ours = scores[0], next(s for s in scores if s["model_id"] == "aro+dp")
        # aro+dp ranks first, or trails the first by at most two standard
        # deviations of one resample's TVD difference. All models are scored
        # against one observed 8192-shot run, whose own noise can reorder
        # models whose true distances differ by less than that: at seed 16
        # aro+dp is 0.003 from the truth's exact Bell law and dp 0.021, yet
        # dp ranks first (0.0111 vs 0.0163, tolerance 0.0165).
        tie = 2.0 * math.hypot(best["tvd_stderr"], ours["tvd_stderr"])
        if not ours["tvd"] <= best["tvd"] + tie:
            fails.append(f"bell: aro+dp tvd {ours['tvd']:.5f} behind {best['model_id']} "
                         f"{best['tvd']:.5f} by more than {tie:.5f}")
        if not summary["ghz_noiseless_over_spatial_tvd"] >= 2.0:
            fails.append(f"ghz noiseless/spatial tvd {summary['ghz_noiseless_over_spatial_tvd']} < 2")
        if not summary["ghz_cv_tvd_per_cnot"] <= 0.5:
            fails.append(f"ghz cv(tvd/cnot) {summary['ghz_cv_tvd_per_cnot']} > 0.5")
        for row in summary["bv"]:
            gap = abs(row["predicted"] - row["observed"])
            if not gap <= 0.05:
                fails.append(f"bv {row['secret']}: |predicted - observed| = {gap:.4f} > 0.05")
        return fails


class RefitArchive:
    """15 `noisekit fit` calls on one recorded archive: estimation only."""

    name = "refit_archive"
    FLAGS = ("sro", "aro", "dp", "sro+dp", "aro+dp")
    SUBSET = "0,1,2,5"
    HADAMARD_LENGTHS = (2, 4, 8, 16, 32)
    SIGMAS = 5.0

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work, self.seed = work, seed
        self.shots = 256 if smoke else 8192
        self.archive = work / "archive.json"
        self.out = work / "fits"
        self.units_per_pass = len(self.FLAGS) * 3
        self.unit = "fits"
        self.plan_counts = {"estimation.fits": self.units_per_pass}
        self.record: dict = {}

    def build(self) -> None:
        topo = devices.ladder20()
        model = devices.jittered_truth(topo, self.seed)
        self.truth = _truth_table(model, hadamard_rates(topo.num_qubits, self.seed))
        data = draw_archive(self.truth, self.HADAMARD_LENGTHS, self.shots, self.seed, "refit")
        self.work.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(exist_ok=True)
        self.archive.write_bytes(data)
        self.record = {"archive_sha256": sha256(data), "archive_circuits":
                       len(json.loads(data)["entries"]), "archive_shots": self.shots}

    def operations(self) -> list[Op]:
        ops = []
        for flags in self.FLAGS:
            for granularity, extra in (("per_element", []), ("register_average", []),
                                       ("subset_average", ["--subset", self.SUBSET])):
                name = f"model-{flags.replace('+', '_')}-{granularity}"
                argv = ["fit", "--archive", str(self.archive), "--flags", flags,
                        "--granularity", granularity, *extra, "--name", name,
                        "--out", str(self.out)]
                ops.append(Op(argv, self._checker(flags, name)))
        return ops

    def _truth_of(self, param: str) -> float:
        kind, _, where = param.partition(":")
        if kind == "p_cnot":
            j, k = (int(t[1:]) for t in where.split("-"))
            return self.truth["cnot"][(min(j, k), max(j, k))]
        return self.truth[kind][int(where[1:])]

    def _checker(self, flags: str, name: str) -> Callable[[], list[str]]:
        # p_h and p_cnot are fitted against the variant's readout model; only
        # aro+dp assumes the asymmetric readout the truth has, so under the
        # other variants those two are biased by design and not compared.
        comparable = {"p0", "p1", "p_x"} | ({"p_h", "p_cnot"} if flags == "aro+dp" else set())

        def check() -> list[str]:
            diag = json.loads((self.out / f"{name}.diagnostics.json").read_text())
            fails, compared = [], 0
            for param, d in diag["parameters"].items():
                if param.split(":")[0] not in comparable:
                    continue
                compared += 1
                miss = abs(d["raw_value"] - self._truth_of(param))
                if not miss <= self.SIGMAS * d["stderr"]:
                    fails.append(f"{name} {param}: |raw - truth| = {miss:.3g} > "
                                 f"{self.SIGMAS:g} x stderr {d['stderr']:.3g}")
            if not compared:
                fails.append(f"{name}: no per-element estimate to compare")
            return fails

        return check


class QpuExact:
    """Mock QPU with a hidden readout effect: characterize, then exact GHZ scoring."""

    name = "qpu_exact"
    HIDDEN = 0.04
    HADAMARD_LENGTHS = (2, 4, 8, 16)
    GHZ_SIZES = range(2, 9)
    SETUP_SHOTS = 8192

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work, self.seed = work, seed
        self.shots = 256 if smoke else 65536
        self.setup_shots = 256 if smoke else self.SETUP_SHOTS
        self.device = work / "device.json"
        self.truth_path = work / "truth.json"
        self.model = work / "setup" / "model-aro_dp-per_element.json"
        topo = devices.ladder20()
        q = topo.num_qubits
        self.suite_circuits = (3 + len(self.HADAMARD_LENGTHS)) * q + topo.num_couplings
        self.units_per_pass = (self.suite_circuits + len(self.GHZ_SIZES)) * self.shots
        self.unit = "simulated shots (mock QPU)"
        self.plan_counts = {"backend.shots": self.units_per_pass}
        self.record: dict = {}

    def build(self) -> None:
        topo = devices.ladder20()
        model = devices.jittered_truth(topo, self.seed)
        self.work.mkdir(parents=True, exist_ok=True)
        topo.save(self.device)
        MockGroundTruth(model, hidden_readout_strength=self.HIDDEN).save(self.truth_path)
        truth = _truth_table(model, [0.0] * topo.num_qubits)
        data = draw_archive(truth, self.HADAMARD_LENGTHS, self.setup_shots, self.seed, "setup")
        archive = self.work / "setup-archive.json"
        archive.write_bytes(data)
        _run_cli(["fit", "--archive", str(archive), "--flags", "aro+dp",
                  "--out", str(self.model.parent)])
        self.record = {"setup_archive_sha256": sha256(data)}

    def operations(self) -> list[Op]:
        common = ["--device", str(self.device), "--backend", f"mock:{self.truth_path}",
                  "--shots", str(self.shots), "--seed", str(self.seed)]
        char_out = self.work / "characterize"
        ops = [Op(["characterize", *common, "--hadamard-lengths",
                   ",".join(map(str, self.HADAMARD_LENGTHS)), "--out", str(char_out)],
                  lambda: self._check_budget(char_out))]
        for n in self.GHZ_SIZES:
            out = self.work / f"ghz{n}"
            ops.append(Op(["evaluate", *common, "--app", f"ghz:{n}", "--exact",
                           "--model", str(self.model), "--out", str(out)],
                          lambda n=n, out=out: self._check_exact(n, out)))
        return ops

    def _check_budget(self, out: Path) -> list[str]:
        budget = json.loads((out / "budget.json").read_text())
        want = (self.suite_circuits, self.shots, self.suite_circuits * self.shots)
        got = (budget["num_circuits"], budget["shots_per_circuit"], budget["total_shots"])
        return [] if got == want else [f"budget census {got}, expected {want}"]

    def _check_exact(self, n: int, out: Path) -> list[str]:
        score = json.loads((out / "report.json").read_text())["score"]
        fails = []
        if not 0.0 <= score["tvd"] <= 1.0:
            fails.append(f"ghz:{n} exact tvd {score['tvd']} outside [0, 1]")
        if score["cnot_count"] != n - 1:
            fails.append(f"ghz:{n} cnot_count {score['cnot_count']} != {n - 1}")
        if score["resamples"] != 0:
            fails.append(f"ghz:{n} scored by sampling, not exactly")
        return fails


WORKLOADS = {w.name: w for w in (PaperDemo, RefitArchive, QpuExact)}
