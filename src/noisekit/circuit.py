"""Circuit intermediate representation, gate set, and device topology.

The gate set is the abstract {H, X, CNOT, Measure, Identity}; there is no
translation to a hardware ISA. Coupling sets are stored as given (possibly
directed) but treated as undirected for validation and path-finding.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import JsonFile, NoPath, OutOfRange, UncoupledPair, integer

GATE_ARITY = {"h": 1, "x": 1, "id": 1, "cnot": 2, "measure": 1}
# The largest device register: a device holds per-qubit lists, and suites,
# truths and path searches walk every qubit, so a register is held to a
# size those stay small for.
MAX_DEVICE_QUBITS = 2**16


@dataclass(frozen=True)
class Gate:
    """One instruction: name in {h, x, id, cnot, measure}, qubit operands,
    and (for measure only) the classical bit written."""

    name: str
    qubits: tuple[int, ...]
    clbit: int | None = None

    def __post_init__(self):
        if self.name not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != GATE_ARITY[self.name]:
            raise ValueError(f"{self.name} expects {GATE_ARITY[self.name]} qubit(s)")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")
        if self.name == "cnot" and self.qubits[0] == self.qubits[1]:
            raise ValueError("cnot control and target must differ")
        if self.name == "measure":
            if self.clbit is None or self.clbit < 0:
                raise ValueError("measure requires a nonnegative classical bit")
        elif self.clbit is not None:
            raise ValueError(f"{self.name} does not take a classical bit")


def h(qubit: int) -> Gate:
    return Gate("h", (qubit,))


def x(qubit: int) -> Gate:
    return Gate("x", (qubit,))


def identity(qubit: int) -> Gate:
    return Gate("id", (qubit,))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def measure(qubit: int, clbit: int) -> Gate:
    return Gate("measure", (qubit,), clbit)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a qubit register.

    The label is a stable identifier used to join circuits with recorded
    counts, so it must be nonempty.
    """

    num_qubits: int
    num_clbits: int
    gates: tuple[Gate, ...]
    label: str
    # the simulator's lowered form and compiled shape of this circuit (a
    # placed circuit's are its template's, on its own qubits), made on first
    # use and kept as long as the circuit
    _compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.label:
            raise ValueError("circuit label must be nonempty")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        seen_clbits = set()
        for g in gates:
            if any(q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} exceeds register of {self.num_qubits}")
            if g.name == "measure":
                if g.clbit >= self.num_clbits:
                    raise ValueError(f"classical bit {g.clbit} out of range")
                if g.clbit in seen_clbits:
                    raise ValueError(f"classical bit {g.clbit} written twice")
                seen_clbits.add(g.clbit)

    def census(self) -> dict[str, int]:
        """Count gates by name."""
        out: dict[str, int] = {}
        for g in self.gates:
            out[g.name] = out.get(g.name, 0) + 1
        return out

    @property
    def cnot_count(self) -> int:
        return self.census().get("cnot", 0)

    def measurements(self) -> list[tuple[int, int]]:
        """(qubit, clbit) pairs in gate order."""
        return [(g.qubits[0], g.clbit) for g in self.gates if g.name == "measure"]

    def measured_qubits(self) -> list[int]:
        """Measured qubits ordered by classical bit index."""
        by_clbit = {c: q for q, c in self.measurements()}
        return [by_clbit[c] for c in sorted(by_clbit)]

    def active_qubits(self) -> list[int]:
        """Sorted qubits touched by any gate."""
        qs: set[int] = set()
        for g in self.gates:
            qs.update(g.qubits)
        return sorted(qs)


def edge(a: int, b: int) -> tuple[int, int]:
    """The one spelling of an undirected coupling: its (low, high) pair."""
    return (min(a, b), max(a, b))


@dataclass(frozen=True)
class DeviceTopology(JsonFile):
    """Register size and coupling set of a device.

    Couplings may be stored directed; connectivity queries are symmetric.
    """

    what = "device file"

    num_qubits: int
    couplings: tuple[tuple[int, int], ...]
    # the couplings as (low, high) pairs and each qubit's ascending
    # neighbours, built once: `validate` asks about every cnot of every
    # circuit, and `embed_path` walks the neighbours on every GHZ build
    _edges: frozenset[tuple[int, int]] = field(init=False, repr=False, compare=False)
    _adjacency: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", integer(self.num_qubits, "qubit count"))
        if not 1 <= self.num_qubits <= MAX_DEVICE_QUBITS:
            raise ValueError(f"a device has 1 to {MAX_DEVICE_QUBITS} qubits, got {self.num_qubits}")
        object.__setattr__(self, "couplings", tuple(
            (integer(a, "qubit"), integer(b, "qubit")) for a, b in self.couplings))
        for a, b in self.couplings:
            if a == b:
                raise ValueError(f"self-loop coupling ({a},{b})")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"coupling ({a},{b}) outside register")
        object.__setattr__(self, "_edges", frozenset(edge(a, b) for a, b in self.couplings))
        adjacency: dict[int, list[int]] = {q: [] for q in range(self.num_qubits)}
        for a, b in sorted(self._edges):  # each list comes out ascending
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(self, "_adjacency", adjacency)

    def undirected_edges(self) -> frozenset[tuple[int, int]]:
        """Couplings normalized to (low, high) pairs."""
        return self._edges

    @property
    def num_couplings(self) -> int:
        """Number of undirected links (the paper-formula symbol c)."""
        return len(self._edges)

    def has_coupling(self, a: int, b: int) -> bool:
        return edge(a, b) in self._edges

    def neighbors(self, qubit: int) -> list[int]:
        return list(self._adjacency.get(qubit, ()))

    def to_json_dict(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "couplings": [list(pair) for pair in self.couplings],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeviceTopology":
        return cls(data["num_qubits"], tuple(map(tuple, data["couplings"])))


def validate(circuit: Circuit, topo: DeviceTopology) -> None:
    """Raise unless the circuit fits the device register and coupling set.

    Raises OutOfRange for indices beyond the register and UncoupledPair for
    a cnot on a pair absent (in either direction) from the coupling set.
    """
    for i, g in enumerate(circuit.gates):
        if g.name == "cnot":
            # membership implies in-range, so the coupling check subsumes both
            if not topo.has_coupling(*g.qubits):
                raise UncoupledPair(f"gate {i}: cnot{g.qubits} is not a device coupling")
            continue
        for q in g.qubits:
            if q >= topo.num_qubits:
                raise OutOfRange(f"gate {i} ({g.name}) touches qubit {q} "
                                 f"on a {topo.num_qubits}-qubit device")


def embed_path(topo: DeviceTopology, length: int) -> list[int]:
    """Find a simple path of `length` qubits through the coupling graph.

    Deterministic: depth-first search starting from the lowest qubit index,
    visiting neighbors in ascending order, so repeated runs embed the same
    chain. Only a qubit whose connected component holds `length` qubits is
    a start, so a device with no such component raises NoPath at once;
    otherwise NoPath is raised when no simple path of that length exists.
    """
    if length < 2:
        raise ValueError("path length must be at least 2")
    if length > topo.num_qubits:
        raise NoPath(f"no {length}-qubit path in a {topo.num_qubits}-qubit device")
    adjacency, size = topo._adjacency, {}  # size: each qubit's component's qubit count
    for root in range(topo.num_qubits):
        if root not in size:
            component, stack = {root}, [root]
            while stack:
                for q in adjacency[stack.pop()]:
                    if q not in component:
                        component.add(q)
                        stack.append(q)
            size.update(dict.fromkeys(component, len(component)))

    def extend(path: list[int], visited: set[int]) -> list[int] | None:
        if len(path) == length:
            return path
        for nxt in adjacency[path[-1]]:
            if nxt not in visited:
                found = extend(path + [nxt], visited | {nxt})
                if found is not None:
                    return found
        return None

    for start in (q for q in range(topo.num_qubits) if size[q] >= length):
        found = extend([start], {start})
        if found is not None:
            return found
    raise NoPath(f"no simple path of length {length} exists")
