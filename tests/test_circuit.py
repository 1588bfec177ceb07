import json
import random

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


def test_circuit_invariants():
    with pytest.raises(ValueError):
        Circuit(2, 2, (h(0),), "")  # empty label
    with pytest.raises(ValueError):
        Circuit(1, 1, (h(1), measure(0, 0)), "bad")  # qubit out of register
    with pytest.raises(ValueError):
        Circuit(2, 1, (measure(0, 0), measure(1, 0)), "dup")  # clbit reused


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
