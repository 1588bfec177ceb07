import json
import random
import signal
from contextlib import contextmanager

import pytest

from noisekit.circuit import (
    MAX_DEVICE_QUBITS,
    Circuit,
    DeviceTopology,
    Gate,
    cnot,
    embed_path,
    h,
    measure,
    validate,
    x,
)
from noisekit.errors import NoPath, OutOfRange, UncoupledPair


def test_gate_constructors():
    assert h(0) == Gate("h", (0,))
    assert cnot(1, 2) == Gate("cnot", (1, 2))
    assert measure(3, 1).clbit == 1


def test_gate_invariants():
    with pytest.raises(ValueError):
        Gate("cnot", (1, 1))
    with pytest.raises(ValueError):
        Gate("h", (0, 1))
    with pytest.raises(ValueError):
        Gate("measure", (0,))  # no classical bit
    with pytest.raises(ValueError):
        Gate("rz", (0,))
    with pytest.raises(ValueError, match="h does not take a classical bit"):
        Gate("h", (0,), 0)


def test_circuit_invariants():
    with pytest.raises(ValueError):
        Circuit(2, 2, (h(0),), "")  # empty label
    with pytest.raises(ValueError):
        Circuit(1, 1, (h(1), measure(0, 0)), "bad")  # qubit out of register
    with pytest.raises(ValueError):
        Circuit(2, 1, (measure(0, 0), measure(1, 0)), "dup")  # clbit reused
    with pytest.raises(ValueError, match="classical bit 1 out of range"):
        Circuit(2, 1, (measure(0, 1),), "wide")


def test_circuit_names_its_first_bad_gate():
    gates = (h(0), measure(0, 0), measure(1, 0), h(5), measure(0, 7))
    with pytest.raises(ValueError, match="classical bit 0 written twice"):
        Circuit(2, 2, gates, "bad")
    with pytest.raises(ValueError, match=r"qubits=\(5,\).* exceeds register of 2"):
        Circuit(2, 2, gates[3:], "bad")


def test_circuit_census(bell_circuit):
    assert bell_circuit.census() == {"h": 1, "cnot": 1, "measure": 2}
    assert bell_circuit.cnot_count == 1
    assert bell_circuit.measured_qubits() == [0, 1]
    assert bell_circuit.active_qubits() == [0, 1]


def test_validate_ok(line2, bell_circuit):
    validate(bell_circuit, line2)  # cnot(0,1) on a topology containing (0,1)


def test_validate_reversed_coupling_is_ok():
    topo = DeviceTopology(2, ((1, 0),))
    validate(Circuit(2, 2, (cnot(0, 1), measure(0, 0), measure(1, 1)), "c"), topo)


def test_validate_uncoupled_pair(line2):
    circuit = Circuit(6, 1, (cnot(0, 5), measure(5, 0)), "c")
    with pytest.raises(UncoupledPair):
        validate(circuit, line2)


def test_validate_out_of_range(line3):
    circuit = Circuit(4, 1, (measure(3, 0),), "c")
    with pytest.raises(OutOfRange):
        validate(circuit, line3)


def test_validate_monotone(line4):
    """Removing a gate never turns ok into error."""
    circuit = Circuit(
        4, 4,
        (h(0), cnot(0, 1), x(2), cnot(2, 3), measure(0, 0), measure(1, 1),
         measure(2, 2), measure(3, 3)),
        "full",
    )
    validate(circuit, line4)
    for drop in range(len(circuit.gates)):
        gates = tuple(g for i, g in enumerate(circuit.gates) if i != drop)
        validate(Circuit(4, 4, gates, "partial"), line4)


def test_embed_path_line(line3):
    assert embed_path(line3, 3) == [0, 1, 2]


def test_embed_path_smallest_edge():
    topo = DeviceTopology(10, ((5, 6), (2, 9)))
    assert embed_path(topo, 2) == [2, 9]


def test_embed_path_too_long(ladder20):
    with pytest.raises(NoPath):
        embed_path(ladder20, 21)


def test_embed_path_of_fewer_than_two_qubits(ladder20):
    with pytest.raises(ValueError, match="at least 2"):
        embed_path(ladder20, 1)


class _Budgeted(dict):
    """An adjacency map that fails a search making more than `budget` lookups."""

    def __init__(self, adjacency, budget):
        super().__init__(adjacency)
        self.budget = budget

    def __getitem__(self, qubit):
        self.budget -= 1
        assert self.budget >= 0, "the path search made too many neighbour lookups"
        return super().__getitem__(qubit)


def test_embed_path_fails_at_once_when_no_component_is_long_enough():
    """A 6x6 grid whose qubit 0 is uncoupled: 36 qubits, but the largest
    connected component holds 35, so no start can reach a 36-qubit path; an
    exhaustive search from each start would walk its component's every path."""
    couplings = [(q, q + step) for q in range(36) for step in (1, 6)
                 if (step == 6 or q % 6 < 5) and q + step < 36 and q]
    topo = DeviceTopology(36, tuple(couplings))
    object.__setattr__(topo, "_adjacency", _Budgeted(topo._adjacency, 1000))
    with pytest.raises(NoPath):
        embed_path(topo, 36)
    assert embed_path(topo, 20)[0] == 1


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once `seconds` have passed, so a
    search that regresses to exhaustive fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still searching after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _grid_with_pendants():
    """A 6x6 grid with pendant qubits 36, 37 and 38 on qubits 7, 14 and 21:
    one 39-qubit component whose sides hold 18 and 21 qubits."""
    grid = [(q, q + step) for q in range(36) for step in (1, 6)
            if (step == 6 or q % 6 < 5) and q + step < 36]
    return DeviceTopology(39, tuple(grid + [(7, 36), (14, 37), (21, 38)]))


@pytest.mark.parametrize("length", [39, 38])
def test_embed_path_bounds_a_component_by_its_ends_and_sides(length):
    """No simple path holds 39 qubits (it ends in at most two of the three
    pendants) or 38 (it alternates sides, so holds at most 2 * 18 + 1), and
    the search says so at once; an exhaustive one walks for minutes."""
    topo = _grid_with_pendants()
    with _deadline(5), pytest.raises(NoPath, match=f"length {length} exists"):
        embed_path(topo, length)
    with _deadline(5):
        assert embed_path(topo, 36)[:6] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("seed", range(30))
def test_embed_path_is_the_scan_search_on_devices_with_pendants(seed):
    """On random connected-ish devices of 4 to 8 core qubits, some of them
    bipartite, with 0 to 3 pendant qubits hung on them, every length finds
    the scan search's path, or NoPath when it finds none."""
    rng = random.Random(seed)
    core = rng.randint(4, 8)
    pairs = [(a, b) for a in range(core) for b in range(a + 1, core)]
    if seed % 2:  # a bipartite core: only pairs across its two halves
        pairs = [(a, b) for a, b in pairs if (a < core // 2) != (b < core // 2)]
    chosen = [(q, q + 1) for q in range(core - 1)] if seed % 3 == 0 else []
    chosen += rng.sample(pairs, rng.randint(0, min(len(pairs), core)))
    pendants = rng.randint(0, 3)
    chosen += [(rng.randrange(core), core + k) for k in range(pendants)]
    topo = DeviceTopology(core + pendants, tuple(dict.fromkeys(chosen)))
    for length in range(2, topo.num_qubits + 1):
        want = _scanned_path(topo, length)
        if want is None:
            with pytest.raises(NoPath):
                embed_path(topo, length)
        else:
            assert embed_path(topo, length) == want


def test_embed_path_full_ladder(ladder20):
    path = embed_path(ladder20, 20)
    assert len(path) == 20 and len(set(path)) == 20
    for a, b in zip(path, path[1:]):
        assert ladder20.has_coupling(a, b)


def test_embed_path_deterministic(ladder20):
    assert embed_path(ladder20, 8) == embed_path(ladder20, 8)


def _scanned_neighbors(topo, qubit):
    """Each qubit's neighbours by a scan of every coupling."""
    out = set()
    for a, b in topo.couplings:
        if a == qubit:
            out.add(b)
        elif b == qubit:
            out.add(a)
    return sorted(out)


def _scanned_path(topo, length):
    """`embed_path`'s depth-first search over scanned neighbours."""
    def extend(path):
        if len(path) == length:
            return path
        for nxt in _scanned_neighbors(topo, path[-1]):
            if nxt not in path:
                found = extend(path + [nxt])
                if found is not None:
                    return found
        return None

    return next(filter(None, (extend([start]) for start in range(topo.num_qubits))), None)


@pytest.mark.parametrize("seed", range(20))
def test_neighbors_are_the_coupling_scan(seed):
    """The neighbour lists built once equal a scan of the couplings, on
    random devices whose couplings repeat in both directions."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
    topo = DeviceTopology(n, tuple(chosen + rng.sample(chosen, len(chosen) // 2)))
    for q in range(-1, n + 2):
        assert topo.neighbors(q) == _scanned_neighbors(topo, q)


def test_embed_path_on_the_ladder_is_the_scan_search(ladder20):
    for n in range(2, 21):
        assert embed_path(ladder20, n) == _scanned_path(ladder20, n)


@pytest.mark.parametrize("seed", range(20))
def test_embed_path_is_the_scan_search_on_devices_of_several_components(seed):
    """On random sparse devices of 1 to 9 qubits, most with several connected
    components, every length finds the scan search's path, or NoPath when it
    finds none."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    topo = DeviceTopology(n, tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), n)))))
    for length in range(2, n + 1):
        want = _scanned_path(topo, length)
        if want is None:
            with pytest.raises(NoPath):
                embed_path(topo, length)
        else:
            assert embed_path(topo, length) == want


def test_topology_invariants():
    with pytest.raises(ValueError):
        DeviceTopology(2, ((0, 0),))  # self-loop
    with pytest.raises(ValueError):
        DeviceTopology(2, ((0, 5),))  # out of register


def test_a_register_is_held_to_its_maximum():
    """A device has at most MAX_DEVICE_QUBITS qubits: the largest register
    builds, and one more qubit is refused. (A register of 2^63 is tested in
    a process with capped memory, in test_cli.)"""
    assert DeviceTopology(MAX_DEVICE_QUBITS, ((0, 1),)).neighbors(MAX_DEVICE_QUBITS - 1) == []
    with pytest.raises(ValueError, match=f"1 to {MAX_DEVICE_QUBITS} qubits"):
        DeviceTopology(MAX_DEVICE_QUBITS + 1, ((0, 1),))


def test_topology_symmetric_queries():
    topo = DeviceTopology(3, ((1, 0), (1, 2)))
    assert topo.has_coupling(0, 1) and topo.has_coupling(1, 0)
    assert topo.neighbors(1) == [0, 2]
    assert topo.num_couplings == 2


def test_topology_json_roundtrip(tmp_path, ladder20):
    path = tmp_path / "device.json"
    ladder20.save(path)
    loaded = DeviceTopology.load(path)
    assert loaded == ladder20
    raw = json.loads(path.read_text())
    assert set(raw) == {"num_qubits", "couplings"}


def test_ladder20_shape(ladder20):
    assert ladder20.num_qubits == 20
    assert ladder20.num_couplings == 23
