import numpy as np
import pytest

from noisekit.applications import build_bv, build_ghz, bv_accuracy
from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.circuit import DeviceTopology, validate
from noisekit.devices import ladder20, line, uniform_truth
from noisekit.errors import (
    ArityMismatch,
    NoPath,
    OracleNotAdjacent,
    OutOfRange,
    QubitCollision,
)
from noisekit.evaluation import ApplicationRun
from noisekit.outcomes import Counts
from noisekit.simulator import TrajectorySampler, simulate_ideal


def test_ghz2_structure():
    circuit = build_ghz(2, line(2))
    assert circuit.census() == {"h": 1, "cnot": 1, "measure": 2}
    dist = simulate_ideal(circuit)
    assert dist.prob("00") == pytest.approx(0.5, abs=1e-12)
    assert dist.prob("11") == pytest.approx(0.5, abs=1e-12)


def test_ghz4_gate_census():
    circuit = build_ghz(4, line(4))
    assert circuit.census() == {"h": 1, "cnot": 3, "measure": 4}


@pytest.mark.parametrize("n", range(2, 11))
def test_ghz_census_matches_closed_form(n):
    circuit = build_ghz(n, ladder20())
    census = circuit.census()
    assert census["cnot"] == n - 1
    assert census["measure"] == n
    validate(circuit, ladder20())


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_ghz_ideal_two_outcomes(n):
    dist = simulate_ideal(build_ghz(n, ladder20()))
    assert set(dist.support()) == {"0" * n, "1" * n}
    assert dist.prob("0" * n) == pytest.approx(0.5, abs=1e-10)


def test_ghz_no_path():
    with pytest.raises(NoPath):
        build_ghz(4, DeviceTopology(4, ((0, 1), (2, 3))))


def test_bv_101_structure():
    # Secret 101: cnot from the first and third data qubits onto the oracle.
    topo = ladder20()
    circuit = build_bv("101", [6, 8, 12], 7, topo)
    cnots = [g for g in circuit.gates if g.name == "cnot"]
    assert [g.qubits for g in cnots] == [(6, 7), (12, 7)]
    assert circuit.census()["measure"] == 3
    validate(circuit, topo)


def test_bv_000_no_cnots():
    circuit = build_bv("000", [6, 8, 12], 7, ladder20())
    assert "cnot" not in circuit.census()
    dist = simulate_ideal(circuit)
    assert dist.prob("000") == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("secret", [format(i, "03b") for i in range(8)])
def test_bv_noiseless_recovers_every_secret(secret):
    circuit = build_bv(secret, [6, 8, 12], 7, ladder20())
    dist = simulate_ideal(circuit)
    assert dist.prob(secret) == pytest.approx(1.0, abs=1e-10)


def test_bv_oracle_not_adjacent():
    with pytest.raises(OracleNotAdjacent):
        build_bv("11", [0, 15], 7, ladder20())


def test_bv_adjacency_only_needed_for_one_bits():
    # qubit 0 is not coupled to oracle 7, but its secret bit is 0
    circuit = build_bv("011", [0, 6, 8], 7, ladder20())
    assert simulate_ideal(circuit).prob("011") == pytest.approx(1.0, abs=1e-10)


def test_bv_qubit_collision():
    with pytest.raises(QubitCollision):
        build_bv("10", [7, 8], 7, ladder20())


def test_bv_secret_validation():
    with pytest.raises(ValueError):
        build_bv("", [], 7, ladder20())
    with pytest.raises(ArityMismatch):
        build_bv("10", [6], 7, ladder20())
    with pytest.raises(OutOfRange):
        build_bv("1", [25], 7, ladder20())


def test_bv_accuracy_ratios():
    circuit = build_bv("101", [6, 8, 12], 7, ladder20())
    run = ApplicationRun(circuit, Counts({"101": 8192}, 8192))
    assert bv_accuracy(run, "101") == 1.0
    run = ApplicationRun(circuit, Counts({"101": 4096, "001": 4096}, 8192))
    assert bv_accuracy(run, "101") == 0.5


def test_bv_accuracy_arity():
    circuit = build_bv("101", [6, 8, 12], 7, ladder20())
    run = ApplicationRun(circuit, Counts({"101": 10}, 10))
    with pytest.raises(ArityMismatch):
        bv_accuracy(run, "1010")


def test_bv_accuracy_decreases_with_hamming_weight():
    """Under cnot depolarizing noise, mean accuracy is non-increasing in the
    secret's Hamming weight."""
    topo = ladder20()
    model = uniform_truth(topo, p_cnot=0.05)
    by_weight = {0: [], 1: [], 2: [], 3: []}
    for i in range(8):
        secret = format(i, "03b")
        circuit = build_bv(secret, [6, 8, 12], 7, topo)
        counts = TrajectorySampler(circuit, model).sample(100_000, i)
        run = ApplicationRun(circuit, counts)
        by_weight[secret.count("1")].append(bv_accuracy(run, secret))
    means = [float(np.mean(by_weight[w])) for w in range(4)]
    assert means[0] >= means[1] >= means[2] >= means[3]


def test_bv_weight_ordering_111_vs_000():
    topo = ladder20()
    model = uniform_truth(topo, p_cnot=0.05)
    accs = {}
    for secret in ("000", "111"):
        circuit = build_bv(secret, [6, 8, 12], 7, topo)
        counts = TrajectorySampler(circuit, model).sample(100_000, 77)
        accs[secret] = bv_accuracy(ApplicationRun(circuit, counts), secret)
    assert accs["111"] < accs["000"]
