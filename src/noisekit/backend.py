"""Execution backends: a mock QPU with configurable ground truth, and a
loader for externally recorded counts archives."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, DeviceTopology, validate
from .errors import LabelMismatch, ParseError
from .noise import CompositeNoiseModel, expand_granularity
from .outcomes import Counts
from .rng import child_seed, generator
from .simulator import TrajectorySampler, counts_from_indices

_STREAM_HIDDEN = 3


@dataclass(frozen=True)
class MockGroundTruth:
    """The hidden truth behind a mock QPU: a fully-spatial noise model plus
    optional state-dependent readout noise that sits outside the fitted
    model family (each observed bit flips with probability
    strength x [number of 1s in the pre-readout string], applied after the
    ordinary readout channel)."""

    model: CompositeNoiseModel
    hidden_readout_strength: float = 0.0

    def to_json_dict(self) -> dict:
        data = self.model.to_json_dict()
        data["hidden_effects"] = {
            "state_dependent_readout": self.hidden_readout_strength
        }
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "MockGroundTruth":
        hidden = data.get("hidden_effects", {})
        payload = {k: v for k, v in data.items() if k != "hidden_effects"}
        return cls(
            CompositeNoiseModel.from_json_dict(payload),
            float(hidden.get("state_dependent_readout", 0.0)),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "MockGroundTruth":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


class MockBackend:
    """Simulated QPU: trajectory sampling against a ground-truth model.

    Deterministic: per-circuit sub-seeds derive from (seed, circuit index),
    so identical (circuits, shots, seed) always return identical counts.
    """

    def __init__(self, topology: DeviceTopology, truth: MockGroundTruth,
                 max_shots: int = 10_000_000):
        self.topology = topology
        self.truth = truth
        self.max_shots = max_shots
        self._model = expand_granularity(truth.model, topology)

    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[Counts]:
        if shots > self.max_shots:
            raise ValueError(f"shots {shots} above backend capability {self.max_shots}")
        out = []
        for index, circuit in enumerate(circuits):
            validate(circuit, self.topology)
            sampler = TrajectorySampler(circuit, self._model)
            sub = child_seed(seed, index)
            if self.truth.hidden_readout_strength > 0.0 and sampler.num_bits:
                pre, obs = sampler.sample_arrays(shots, sub)
                obs = self._hidden_flips(pre, obs, sampler.num_bits, sub)
                out.append(counts_from_indices(obs, sampler.num_bits, shots))
            else:
                out.append(sampler.sample(shots, sub))
        return out

    def _hidden_flips(self, pre: np.ndarray, obs: np.ndarray, num_bits: int,
                      seed: int) -> np.ndarray:
        weight = np.zeros(pre.shape, dtype=np.int64)
        for pos in range(num_bits):
            weight += (pre >> pos) & 1
        p_flip = np.clip(self.truth.hidden_readout_strength * weight, 0.0, 1.0)
        rng = generator(seed, _STREAM_HIDDEN)
        flips = np.zeros(obs.shape, dtype=np.int64)
        for pos in range(num_bits):
            flips |= (rng.random(obs.shape[0]) < p_flip).astype(np.int64) << pos
        return obs ^ flips


def load_counts(path: str | Path) -> dict[str, Counts]:
    """Load a counts archive as a label -> Counts map."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"counts file {path} is not valid JSON: {exc}") from exc
    entries = data.get("entries")
    if entries is None:
        raise ParseError(f"counts file {path} lacks an 'entries' list")
    out: dict[str, Counts] = {}
    for entry in entries:
        try:
            out[entry["label"]] = Counts(entry["counts"], entry["shots"])
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad counts entry {entry!r}: {exc}") from exc
    return out


class FileBackend:
    """Replays recorded counts, joined to circuits by label."""

    def __init__(self, archive_path: str | Path,
                 topology: DeviceTopology | None = None):
        self.archive_path = str(archive_path)
        self._counts = load_counts(archive_path)
        data = json.loads(Path(archive_path).read_text())
        self.shots = data.get("shots")
        self.topology = topology or _topology_covering(self._counts)
        self.max_shots = self.shots

    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[Counts]:
        missing = [c.label for c in circuits if c.label not in self._counts]
        if missing:
            raise LabelMismatch(
                f"archive {self.archive_path} is missing {len(missing)} label(s): "
                + ", ".join(missing),
                missing,
            )
        out = []
        for circuit in circuits:
            counts = self._counts[circuit.label]
            if counts.shots != shots:
                raise ParseError(
                    f"label {circuit.label!r} recorded {counts.shots} shots, "
                    f"plan expects {shots}"
                )
            out.append(counts)
        return out


def _topology_covering(counts: dict[str, Counts]) -> DeviceTopology:
    """Smallest topology consistent with the archived test labels."""
    from .characterization import TestKind

    max_q = 0
    edges = []
    for label in counts:
        kind = TestKind.from_label(label)
        if kind.kind == "bell":
            edges.append(kind.coupling)
            max_q = max(max_q, *kind.coupling)
        elif kind.qubit is not None:
            max_q = max(max_q, kind.qubit)
    return DeviceTopology(max_q + 1, tuple(edges))
