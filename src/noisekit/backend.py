"""Execution backends: a mock QPU with configurable ground truth, and a
loader for externally recorded counts archives."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .characterization import TestKind, read_counts
from .circuit import Circuit, DeviceTopology, validate
from .errors import (ConfigError, LabelMismatch, OutOfRange, ParseError, parse_json_file,
                     write_json_file)
from .noise import CompositeNoiseModel, expand_granularity
from .outcomes import Counts
from .rng import child_seed
from .simulator import TrajectorySampler
from .simulator import counts_from_indices  # noqa: F401  (perfbench wraps and checks it here)

MAX_SHOTS = 10_000_000  # mock QPU's per-circuit shot capability


@dataclass(frozen=True)
class MockGroundTruth:
    """The hidden truth behind a mock QPU: a fully-spatial noise model plus
    optional state-dependent readout noise that sits outside the fitted
    model family (each observed bit flips with probability
    min(1, strength x [number of 1s in the pre-readout string]), applied
    after the ordinary readout channel). The strength lies in [0, 1]."""

    model: CompositeNoiseModel
    hidden_readout_strength: float = 0.0

    def __post_init__(self):
        strength = self.hidden_readout_strength
        if not 0.0 <= strength <= 1.0:  # also rejects NaN
            raise OutOfRange(f"hidden readout strength {strength} outside [0, 1]")

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
        write_json_file(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str | Path) -> "MockGroundTruth":
        return parse_json_file(path, "truth file", cls.from_json_dict)


class MockBackend:
    """Simulated QPU: each circuit's counts are one multinomial draw from
    the ground truth's outcome law, hidden readout included.

    Deterministic: per-circuit sub-seeds derive from (seed, circuit index),
    so identical (circuits, shots, seed) always return identical counts.
    """

    def __init__(self, topology: DeviceTopology, truth: MockGroundTruth):
        self.topology = topology
        self.truth = truth
        self._model = expand_granularity(truth.model, topology)

    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[Counts]:
        if shots > MAX_SHOTS:
            raise ConfigError(f"shots {shots} above backend capability {MAX_SHOTS}")
        out = []
        for index, circuit in enumerate(circuits):
            validate(circuit, self.topology)
            sampler = TrajectorySampler(circuit, self._model,
                                        self.truth.hidden_readout_strength)
            out.append(sampler.sample(shots, child_seed(seed, index)))
        return out


class FileBackend:
    """Replays recorded counts, joined to circuits by label."""

    def __init__(self, archive_path: str | Path,
                 topology: DeviceTopology | None = None):
        self.archive_path = str(archive_path)
        self._counts = read_counts(archive_path)[1]
        self.topology = topology or _topology_covering(self._counts)

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
