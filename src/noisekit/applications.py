"""Application circuit generators: GHZ-state preparation along an embedded
device path, and the Bernstein-Vazirani algorithm with a phase-oracle qubit."""
from __future__ import annotations

from .circuit import Circuit, DeviceTopology, cnot, embed_path, h, measure, x
from .errors import ArityMismatch, OracleNotAdjacent, OutOfRange, QubitCollision
from .evaluation import ApplicationRun


def build_ghz(n: int, topo: DeviceTopology) -> Circuit:
    """GHZ(n) preparation: H on the path head, a cnot chain along an
    embedded device path, and measurement of all n qubits.

    Uses n-1 cnot and n measurement gates; the ideal outcome is the
    equal mixture of the all-zeros and all-ones strings.
    """
    path = embed_path(topo, n)
    gates = [h(path[0])]
    gates += [cnot(path[i], path[i + 1]) for i in range(n - 1)]
    gates += [measure(q, i) for i, q in enumerate(path)]
    return Circuit(topo.num_qubits, n, tuple(gates), f"ghz:{n}")


def build_bv(
    secret: str,
    data_qubits: list[int],
    oracle_qubit: int,
    topo: DeviceTopology,
) -> Circuit:
    """Bernstein-Vazirani circuit recovering `secret` in one query.

    The oracle qubit is prepared in the phase state via X;H, every data
    qubit gets a Hadamard sandwich, and each secret bit of 1 contributes a
    cnot from its data qubit onto the oracle. Only the data qubits are
    measured; the ideal outcome is the secret with probability 1.
    """
    if not secret or any(ch not in "01" for ch in secret):
        raise ValueError(f"secret {secret!r} must be a nonempty bit string")
    if len(secret) != len(data_qubits):
        raise ArityMismatch(
            f"secret of length {len(secret)} with {len(data_qubits)} data qubits"
        )
    qubits = [*data_qubits, oracle_qubit]
    if len(set(qubits)) != len(qubits):
        raise QubitCollision(f"data/oracle qubits overlap: {qubits}")
    for q in qubits:
        if not (0 <= q < topo.num_qubits):
            raise OutOfRange(f"qubit {q} outside the {topo.num_qubits}-qubit register")
    for bit, q in zip(secret, data_qubits):
        if bit == "1" and not topo.has_coupling(q, oracle_qubit):
            raise OracleNotAdjacent(
                f"secret bit on qubit {q} needs a coupling to oracle {oracle_qubit}"
            )
    gates = [x(oracle_qubit), h(oracle_qubit)]
    gates += [h(q) for q in data_qubits]
    gates += [cnot(q, oracle_qubit) for bit, q in zip(secret, data_qubits) if bit == "1"]
    gates += [h(q) for q in data_qubits]
    gates += [h(oracle_qubit), x(oracle_qubit)]
    gates += [measure(q, i) for i, q in enumerate(data_qubits)]
    label = f"bv:{secret}@{','.join(map(str, data_qubits))}/{oracle_qubit}"
    return Circuit(topo.num_qubits, len(secret), tuple(gates), label)


def bv_accuracy(run: ApplicationRun, secret: str) -> float:
    """Frequency with which the encoded secret string was observed."""
    if run.counts.num_bits != len(secret):
        raise ArityMismatch(
            f"run measures {run.counts.num_bits} bits, secret has {len(secret)}"
        )
    return run.counts.frequency(secret)
