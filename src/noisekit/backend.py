"""Execution backends: a mock QPU with configurable ground truth, and a
loader for externally recorded counts archives."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .characterization import read_counts
from .circuit import Circuit, DeviceTopology, validate
from .errors import ConfigError, JsonFile, LabelMismatch, ParseError
from .noise import CompositeNoiseModel, check_prob
from .outcomes import Counts
from .rng import BACKEND, generator
from .simulator import TrajectorySampler
from .simulator import counts_from_indices  # noqa: F401  (perfbench wraps and checks it here)

MAX_SHOTS = 10_000_000  # mock QPU's per-circuit shot capability


@dataclass(frozen=True)
class MockGroundTruth(JsonFile):
    """The hidden truth behind a mock QPU: a noise model of any granularity plus
    optional state-dependent readout noise that sits outside the fitted
    model family (each observed bit flips with probability
    min(1, strength x [number of 1s in the pre-readout string]), applied
    after the ordinary readout channel). The strength lies in [0, 1]."""

    what = "truth file"

    model: CompositeNoiseModel
    hidden_readout_strength: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_readout_strength", check_prob(
            self.hidden_readout_strength, "hidden readout strength"))

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
            hidden.get("state_dependent_readout", 0.0),
        )


class MockBackend:
    """Simulated QPU: each circuit's counts are one multinomial draw from
    the ground truth's outcome law, hidden readout included, built per
    circuit shape (`TrajectorySampler.for_circuits`).

    Deterministic: a run's circuits draw in turn, in plan order, from one
    (seed, BACKEND) stream, so identical (circuits, shots, seed) give
    identical counts. A run validates its circuits against the topology,
    then its `shots`, which must lie in [1, MAX_SHOTS].
    """

    def __init__(self, topology: DeviceTopology, truth: MockGroundTruth):
        self.topology = topology
        self.truth = truth

    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[Counts]:
        for circuit in circuits:
            validate(circuit, self.topology)
        if not 1 <= shots <= MAX_SHOTS:
            raise ConfigError(f"shots {shots} outside backend capability [1, {MAX_SHOTS}]")
        rng, t = generator(seed, BACKEND), self.truth
        samplers = TrajectorySampler.for_circuits(circuits, t.model, t.hidden_readout_strength)
        return [sampler.sample(shots, rng) for sampler in samplers]


class FileBackend:
    """Replays recorded counts, joined to circuits by label, once the
    circuits are validated against the topology. Recorded counts whose shots
    or bit width differ from their circuit's raise ParseError."""

    def __init__(self, archive_path: str | Path, topology: DeviceTopology):
        self.archive_path = str(archive_path)
        self._counts = read_counts(archive_path)[1]
        self.topology = topology

    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[Counts]:
        for circuit in circuits:
            validate(circuit, self.topology)
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
            if counts.num_bits != circuit.num_clbits:
                raise ParseError(f"label {circuit.label!r} recorded {counts.num_bits}-bit "
                                 f"counts for a circuit measuring {circuit.num_clbits} bit(s)")
            out.append(counts)
        return out
