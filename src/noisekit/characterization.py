"""Characterization test suites: generation, execution, and accounting.

A full-spatial suite covers every qubit with init/X/XX tests (plus optional
even-length Hadamard sequences) and every coupling with a Bell-state test.
Labels follow the stable grammar `init:q3`, `x:q3`, `xx:q3`, `hseq:q3:len8`,
`bell:q3-q4` and uniquely identify (kind, parameters).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .circuit import Circuit, DeviceTopology, cnot, h, measure, validate, x
from .errors import ArityMismatch, OddHadamardLength, ParseError
from .outcomes import Counts

KINDS = ("init", "x", "xx", "hseq", "bell")


@dataclass(frozen=True)
class TestKind:
    """One characterization test: kind plus its qubit/coupling parameters."""

    __test__ = False  # not a pytest class despite the name

    kind: str
    qubit: int | None = None
    coupling: tuple[int, int] | None = None
    length: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown test kind {self.kind!r}")
        if self.kind == "bell":
            if self.coupling is None:
                raise ValueError("bell test requires a coupling")
            object.__setattr__(self, "coupling", tuple(self.coupling))
            if self.coupling[0] == self.coupling[1]:
                raise ValueError(f"bell test on the self-coupling {self.coupling}")
        elif self.qubit is None:
            raise ValueError(f"{self.kind} test requires a qubit")
        if min(self.coupling or (self.qubit,)) < 0:
            raise ValueError(f"{self.kind} test on a negative qubit")
        if self.kind == "hseq":
            if self.length is None or self.length < 2 or self.length % 2:
                raise OddHadamardLength(
                    f"hadamard sequence length must be even and >= 2, got {self.length}"
                )

    @property
    def num_bits(self) -> int:
        """Measured bits: both qubits of a Bell test, one otherwise."""
        return 2 if self.kind == "bell" else 1

    @property
    def label(self) -> str:
        if self.kind == "bell":
            return f"bell:q{self.coupling[0]}-q{self.coupling[1]}"
        if self.kind == "hseq":
            return f"hseq:q{self.qubit}:len{self.length}"
        return f"{self.kind}:q{self.qubit}"

    @classmethod
    def from_label(cls, label: str) -> "TestKind":
        """Parse a label; only a label that its kind prints back is accepted."""
        if not isinstance(label, str):
            raise ParseError(f"test label {label!r} is not a string")
        try:
            parts = label.split(":")
            kind = parts[0]
            if kind == "bell":
                a, b = parts[1].split("-")
                parsed = cls("bell", coupling=(int(a[1:]), int(b[1:])))
            elif kind == "hseq":
                parsed = cls("hseq", qubit=int(parts[1][1:]), length=int(parts[2][3:]))
            else:
                parsed = cls(kind, qubit=int(parts[1][1:]))
        except (IndexError, ValueError, OddHadamardLength) as exc:
            raise ParseError(f"bad test label {label!r}: {exc}") from exc
        if parsed.label != label:
            raise ParseError(f"bad test label {label!r} (reads as {parsed.label!r})")
        return parsed


def materialize(test: TestKind) -> Circuit:
    """Build the test circuit."""
    if test.kind == "bell":
        j, k = test.coupling
        gates = (h(j), cnot(j, k), measure(j, 0), measure(k, 1))
        return Circuit(max(j, k) + 1, test.num_bits, gates, test.label)
    q = test.qubit
    if test.kind == "init":
        gates = (measure(q, 0),)
    elif test.kind == "x":
        gates = (x(q), measure(q, 0))
    elif test.kind == "xx":
        gates = (x(q), x(q), measure(q, 0))
    else:  # hseq
        gates = (h(q),) * test.length + (measure(q, 0),)
    return Circuit(q + 1, test.num_bits, gates, test.label)


@dataclass(frozen=True)
class Characterization:
    """A test paired with its observed counts, which must be as wide as the
    test's measured bits."""

    kind: TestKind
    counts: Counts

    def __post_init__(self):
        if self.counts.num_bits != self.kind.num_bits:
            raise ArityMismatch(
                f"{self.label}: {self.counts.num_bits}-bit counts for a test measuring "
                f"{self.kind.num_bits} bit(s)"
            )

    @property
    def label(self) -> str:
        return self.kind.label


@dataclass(frozen=True)
class SuiteConfig:
    subset: tuple[int, ...] | None = None
    hadamard_lengths: tuple[int, ...] = ()
    shots: int = 8192
    seed: int = 0


@dataclass(frozen=True)
class SuitePlan:
    tests: tuple[TestKind, ...]
    shots: int
    seed: int

    def labels(self) -> list[str]:
        return [t.label for t in self.tests]


def build_suite(topo: DeviceTopology, config: SuiteConfig) -> SuitePlan:
    """Plan the characterization suite for a device.

    Without a subset the plan covers every qubit and every coupling; with
    one (a subset-average suite) it covers the subset's qubits and the
    couplings internal to it.
    """
    if config.subset is not None:
        qubits = sorted(config.subset)
        qubit_set = set(qubits)
        edges = sorted(
            e for e in topo.undirected_edges() if e[0] in qubit_set and e[1] in qubit_set
        )
    else:
        qubits = list(range(topo.num_qubits))
        edges = sorted(topo.undirected_edges())
    tests: list[TestKind] = []
    for kind in ("init", "x", "xx"):
        tests.extend(TestKind(kind, qubit=q) for q in qubits)
    for q in qubits:
        tests.extend(
            TestKind("hseq", qubit=q, length=l) for l in config.hadamard_lengths
        )
    tests.extend(TestKind("bell", coupling=e) for e in edges)
    return SuitePlan(tuple(tests), config.shots, config.seed)


def run_suite(plan: SuitePlan, backend) -> list[Characterization]:
    """Execute the plan on a backend; all-or-nothing, in plan order."""
    circuits = [materialize(t) for t in plan.tests]
    for circuit in circuits:
        validate(circuit, backend.topology)
    counts_list = backend.run(circuits, plan.shots, plan.seed)
    return [Characterization(t, counts) for t, counts in zip(plan.tests, counts_list)]


@dataclass(frozen=True)
class ExperimentBudget:
    """Census of a plan next to the closed-form shot formula N_s(2q+2c+1).

    The census (num_circuits x shots_per_circuit) is ground truth; the
    formula value is reported side-by-side so any discrepancy between the
    two accountings stays visible.
    """

    num_circuits: int
    shots_per_circuit: int
    total_shots: int
    num_qubits_covered: int
    num_couplings_covered: int
    formula_shots: int


def count_experiments(plan: SuitePlan) -> ExperimentBudget:
    q = len({t.qubit for t in plan.tests if t.kind == "init"})
    c = len({t.coupling for t in plan.tests if t.kind == "bell"})
    return ExperimentBudget(
        num_circuits=len(plan.tests),
        shots_per_circuit=plan.shots,
        total_shots=plan.shots * len(plan.tests),
        num_qubits_covered=q,
        num_couplings_covered=c,
        formula_shots=plan.shots * (2 * q + 2 * c + 1),
    )


# -- archive io ---------------------------------------------------------------

def archive_dict(
    plan: SuitePlan,
    chars: list[Characterization],
    window: str = "",
    meta: dict | None = None,
) -> dict:
    return {
        "meta": dict(meta or {}),
        "window": window,
        "shots": plan.shots,
        "seed": plan.seed,
        "entries": [
            {"label": ch.label, "shots": ch.counts.shots, "counts": dict(ch.counts.counts)}
            for ch in chars
        ],
    }


def read_counts(path: str | Path) -> tuple[dict, dict[str, Counts]]:
    """Parse a counts archive into its JSON object and a label -> Counts map."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"archive {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ParseError(f"archive {path} lacks an 'entries' list")
    if not isinstance(data.get("window", ""), str):
        raise ParseError(f"archive {path}: window {data['window']!r} is not a string")
    counts: dict[str, Counts] = {}
    for entry in data["entries"]:
        try:
            counts[entry["label"]] = Counts(entry["counts"], entry["shots"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad archive entry {entry!r}: {exc}") from exc
    if len(counts) < len(data["entries"]):
        raise ParseError(f"archive {path} repeats a label")
    return data, counts


def read_archive(path: str | Path) -> tuple[dict, list[Characterization]]:
    """Load an archive back into characterization records (lossless)."""
    data, counts = read_counts(path)
    chars = []
    for label, c in counts.items():
        kind = TestKind.from_label(label)
        try:
            chars.append(Characterization(kind, c))
        except ArityMismatch as exc:
            raise ParseError(f"archive {path}: {exc}") from exc
    return data, chars


def archive_hash(path: str | Path) -> str:
    """`content_hash` of the archive file at `path`."""
    return content_hash(json.loads(Path(path).read_text()))


def content_hash(data: dict) -> str:
    """Provenance tag: sha256 of a parsed archive's canonical content, meta
    block (timestamps etc.) excluded so identical archives hash identically."""
    canonical = json.dumps({k: v for k, v in data.items() if k != "meta"}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
