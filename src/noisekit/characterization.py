"""Characterization test suites: generation, execution, and accounting.

A full-spatial suite covers every qubit with init/X/XX tests (plus optional
even-length Hadamard sequences) and every coupling with a Bell-state test.
Labels follow the stable grammar `init:q3`, `x:q3`, `xx:q3`, `hseq:q3:len8`,
`bell:q3-q4` and uniquely identify (kind, parameters).

Every test measures 1 or 2 bits, so a suite's observations are one count
table (`Records`): the test of each row, a (rows, 4) count matrix indexed by
outcome, and a shots vector. `run_suite` fills it from the backend's index
arrays and `read_archive` from the archive's count maps, which it checks as
columns; neither builds a per-record outcome object, and the fit reads its
columns.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .circuit import Circuit, DeviceTopology, cnot, edge, h, measure, x
from .errors import ArityMismatch, OddHadamardLength, ParseError, parse_json_file
from .noise import COUPLING, QUBIT
from .outcomes import Counts, count_widths
from .simulator import place

KINDS = ("init", "x", "xx", "hseq", "bell")
# The label grammar: qubits in their one spelling, even train lengths >= 2.
_LABEL = re.compile(
    rf"(?P<kind>init|xx?):q(?P<qubit>{QUBIT})"
    rf"|hseq:q(?P<hseq>{QUBIT}):len(?P<length>[2468]|[1-9][0-9]*[02468])"
    rf"|bell:{COUPLING.format(q='q')}"
)


@dataclass(frozen=True)
class TestKind:
    """One characterization test: kind plus its qubit/coupling parameters."""

    __test__ = False  # not a pytest class despite the name

    kind: str
    qubit: int | None = None
    coupling: tuple[int, int] | None = None
    length: int | None = None

    def __post_init__(self):
        length = self.length
        if self.kind == "hseq" and type(length) is int and (length < 2 or length % 2):
            raise OddHadamardLength(f"hadamard sequence length must be even and >= 2, got {length}")
        try:
            named = TestKind.from_label(self.label).__dict__
        except (IndexError, ParseError, TypeError):  # no label, or one of no test
            named = None
        if named != self.__dict__:  # a test is valid when its label names it back
            raise ValueError(f"{self} is not the test its label names")

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
        """Parse a label. `_LABEL` accepts exactly the labels valid tests
        print, so the test is built from the match, without `__post_init__`."""
        m = _LABEL.fullmatch(label)
        if m is None:
            raise ParseError(f"bad test label {label!r}")
        kind, qubit, hseq, length, a, b = m.groups()
        if kind:
            fields = {"kind": kind, "qubit": int(qubit), "coupling": None, "length": None}
        elif length:
            fields = {"kind": "hseq", "qubit": int(hseq), "coupling": None, "length": int(length)}
        else:
            fields = {"kind": "bell", "qubit": None, "coupling": (int(a), int(b)), "length": None}
        test = object.__new__(cls)
        object.__setattr__(test, "__dict__", fields)
        return test


def _template(kind: str, length: int | None) -> Circuit:
    """A test kind's circuit (a Hadamard train's, of that length) on qubit 0,
    or a Bell test's on qubits 0 and 1."""
    if kind == "bell":
        return Circuit(2, 2, (h(0), cnot(0, 1), measure(0, 0), measure(1, 1)), "bell:q0-q1")
    if kind == "init":
        gates = ()
    elif kind == "x":
        gates = (x(0),)
    elif kind == "xx":
        gates = (x(0),) * 2
    else:  # hseq
        gates = (h(0),) * length
    return Circuit(1, 1, gates + (measure(0, 0),), f"{kind}:q0")


def _build(tests: tuple[TestKind, ...]) -> list[Circuit]:
    """Each test's circuit, in order: each kind's template (one per Hadamard
    length) built once and placed on every test of that kind."""
    rows: dict[tuple, list[int]] = {}
    for row, test in enumerate(tests):
        rows.setdefault((test.kind, test.length), []).append(row)
    circuits: list = [None] * len(tests)
    for kind, kind_rows in rows.items():
        placements = [(tests[r].coupling or (tests[r].qubit,), tests[r].label) for r in kind_rows]
        for row, circuit in zip(kind_rows, place(_template(*kind), placements)):
            circuits[row] = circuit
    return circuits


def materialize(test: TestKind) -> Circuit:
    """Build the test circuit, as a suite run builds it."""
    return _build((test,))[0]


def _check_width(test: TestKind, num_bits: int, error=ArityMismatch) -> None:
    if num_bits != test.num_bits:
        raise error(f"{test.label}: {num_bits}-bit counts for a test measuring "
                    f"{test.num_bits} bit(s)")


@dataclass(frozen=True, eq=False)
class Records:
    """Characterization records as one count table: row i is the test
    `tests[i]` over `shots[i]` shots, `counts[i, k]` of them with outcome
    index k. `index` maps (kind, qubit or coupling as an undirected edge,
    length) to the row; two records of one key, such as a Bell test
    recorded in both directions, raise ParseError naming both labels.

    The table never changes: `counts` and `shots` are read-only, so the
    estimation families fitted on it are kept with it (`_fits`)."""

    tests: tuple[TestKind, ...]
    counts: np.ndarray
    shots: np.ndarray
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        index = {}
        for row, test in enumerate(self.tests):
            key = (test.kind, edge(*test.coupling) if test.coupling else test.qubit, test.length)
            other = index.setdefault(key, row)
            if other != row:
                raise ParseError(f"records {self.tests[other].label} and {test.label} "
                                 "characterize the same element")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_fits", {})
        self.counts.flags.writeable = self.shots.flags.writeable = False

    def frequencies(self) -> np.ndarray:
        """counts / shots per row, as `Counts.frequency` (zeros at zero shots)."""
        return self.counts / np.maximum(self.shots, 1)[:, None]


@dataclass(frozen=True)
class SuitePlan:
    tests: tuple[TestKind, ...]
    shots: int
    seed: int


def build_suite(topo: DeviceTopology, *, subset: tuple[int, ...] | None = None,
                hadamard_lengths: tuple[int, ...] = (), shots: int = 8192,
                seed: int = 0) -> SuitePlan:
    """Plan the characterization suite for a device.

    Without a subset the plan covers every qubit and every coupling; with
    one (a subset-average suite) it covers the subset's qubits and the
    couplings internal to it.
    """
    qubits = sorted(subset) if subset is not None else range(topo.num_qubits)
    for q in subset or ():  # a subset qubit that names no test raises as that test does
        TestKind("init", qubit=q)
    for length in hadamard_lengths:  # so does an odd or zero length (OddHadamardLength)
        TestKind("hseq", qubit=0, length=length)
    covered = set(qubits)
    edges = sorted(e for e in topo.undirected_edges() if covered.issuperset(e))
    labels = [f"{kind}:q{q}" for kind in ("init", "x", "xx") for q in qubits]
    labels += [f"hseq:q{q}:len{length}" for q in qubits for length in hadamard_lengths]
    labels += [f"bell:q{a}-q{b}" for a, b in edges]
    return SuitePlan(tuple(map(TestKind.from_label, labels)), shots, seed)


def run_suite(plan: SuitePlan, backend) -> Records:
    """Execute the plan on a backend; all-or-nothing, in plan order. Each
    test kind's circuit is built once and placed on every test's qubits
    (`materialize` builds one test's the same way). The backend validates
    the circuits against its topology before any shot."""
    counts_list = backend.run(_build(plan.tests), plan.shots, plan.seed)
    table = np.zeros((len(counts_list), 4), np.int64)
    for row, (test, counts) in enumerate(zip(plan.tests, counts_list)):
        _check_width(test, counts.num_bits)
        table[row, counts.indices] = counts.values
    return Records(plan.tests, table, np.array([c.shots for c in counts_list], np.int64))


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

def archive_dict(plan: SuitePlan, records: Records, meta: dict | None = None) -> dict:
    entries = []
    for test, row, shots in zip(records.tests, records.counts.tolist(),
                                records.shots.tolist()):
        fmt = f"0{test.num_bits}b"
        entries.append({"label": test.label, "shots": shots,
                        "counts": {format(k, fmt): n for k, n in enumerate(row) if n}})
    return {
        "meta": dict(meta or {}),
        "shots": plan.shots,
        "seed": plan.seed,
        "entries": entries,
    }


def _columns(entries: list) -> tuple[list, list, list, list[int]]:
    """The labels, count maps, shots and bit widths of archive entries,
    checked as columns: each label a string, the count rules on all the
    maps at once (`count_widths`), and at least one shot in each entry."""
    labels = [entry["label"] for entry in entries]
    maps = [entry["counts"] for entry in entries]
    shots = [entry["shots"] for entry in entries]
    if not all(map(isinstance, labels, repeat(str))):
        label = next(label for label in labels if not isinstance(label, str))
        raise TypeError(f"test label {label!r} is not a string")
    widths = count_widths(maps, shots)
    if not all(shots):  # a record of no shots would fit as if exact
        raise ValueError("it has no shots")
    return labels, maps, shots, widths


def _entries(data: dict) -> tuple[dict, tuple[list, list, list, list[int]]]:
    """A parsed counts archive and its entries' checked columns (`_columns`),
    each label distinct. A bad entry raises ValueError naming the first
    entry that fails the same checks on its own."""
    entries = data["entries"]
    if not isinstance(entries, list):
        raise TypeError("its entries are not a list")
    try:
        columns = _columns(entries)
    except (AttributeError, KeyError, TypeError, ValueError):
        for entry in entries:
            try:
                _columns([entry])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad entry {entry!r}: {exc}") from exc
        raise
    if len(set(columns[0])) < len(entries):
        raise ValueError("it repeats a label")
    return data, columns


def _outcome_columns(maps: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked count maps as three columns over all their outcomes: row,
    outcome index and count."""
    sizes = [len(counts) for counts in maps]
    rows = np.repeat(np.arange(len(maps)), sizes)
    keys = list(chain.from_iterable(maps))
    index = {key: int(key or "0", 2) for key in set(keys)}
    indices = np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
    values = np.fromiter(chain.from_iterable(counts.values() for counts in maps),
                         np.int64, len(keys))
    return rows, indices, values


def read_counts(path: str | Path) -> tuple[dict, dict[str, Counts]]:
    """Parse a counts archive of any circuits into its JSON object and a
    label -> Counts map (what `FileBackend` replays). A label in a test
    kind's namespace (`init:`, ..., `bell:`) must parse as a test's label."""
    data, (labels, maps, shots, widths) = parse_json_file(path, "archive", _entries)
    for label in labels:
        if label.partition(":")[0] in KINDS:
            TestKind.from_label(label)
    rows, indices, values = _outcome_columns(maps)
    order = np.lexsort((indices, rows))
    bounds = np.cumsum([len(counts) for counts in maps])[:-1]
    return data, {label: Counts._of(width, idx, val, n) for label, width, idx, val, n in zip(
        labels, widths, np.split(indices[order], bounds), np.split(values[order], bounds),
        shots)}


def read_archive(path: str | Path) -> tuple[dict, Records]:
    """Load a characterization archive into its JSON object and its count
    table (lossless), filled from the checked columns at once."""
    data, (labels, maps, shots, widths) = parse_json_file(path, "archive", _entries)
    tests = []
    for label, width in zip(labels, widths):  # the first entry whose label or width is bad raises
        tests.append(TestKind.from_label(label))
        _check_width(tests[-1], width, ParseError)
    rows, indices, values = _outcome_columns(maps)
    table = np.zeros((len(tests), 4), np.int64)
    table[rows, indices] = values
    return data, Records(tuple(tests), table, np.array(shots, np.int64))


def archive_hash(path: str | Path) -> str:
    """`content_hash` of the archive file at `path`."""
    return content_hash(json.loads(Path(path).read_text()))


def content_hash(data: dict) -> str:
    """Provenance tag: sha256 of a parsed archive's canonical content, meta
    block (timestamps etc.) excluded so identical archives hash identically."""
    canonical = json.dumps({k: v for k, v in data.items() if k != "meta"}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
