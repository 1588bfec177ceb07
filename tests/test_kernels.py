"""The backward sweep's ideal law must match the density-matrix oracle.

An {H, X, CNOT} circuit prepares a stabilizer state, and the sweep reads
its measured-bit marginal off each measured Z pulled back to the start with
its sign. Every case here is checked against `dm_oracle` with no noise, on
circuits deep enough that the sign terms (the Y phase of H among them)
decide the law.
"""
import numpy as np
import pytest

from dm_oracle import exact_outcome_vector
from law_oracle import compile_shape
from noisekit.circuit import Circuit, cnot, h, identity, measure, x
from noisekit.noise import CompositeNoiseModel

NOISELESS = CompositeNoiseModel.noiseless()
REGISTER = 8


def _random_case(rng, trial, kinds):
    """Circuit of depth 1-40 over `kinds` on 1-7 of the register's qubits,
    measuring a random subset of its active qubits (possibly none, possibly
    all) onto shuffled classical bits."""
    n = int(rng.integers(1, REGISTER))
    qubits = [int(q) for q in rng.choice(REGISTER, size=n, replace=False)]
    gates = []
    for _ in range(int(rng.integers(1, 41))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        q = qubits[int(rng.integers(0, n))]
        if kind == "cnot" and n >= 2:
            a, b = rng.choice(qubits, size=2, replace=False)
            gates.append(cnot(int(a), int(b)))
        elif kind == "x":
            gates.append(x(q))
        elif kind == "id":
            gates.append(identity(q))
        else:
            gates.append(h(q))
    active = sorted({q for g in gates for q in g.qubits})
    measured = [int(q) for q in rng.permutation(active)[: int(rng.integers(0, len(active) + 1))]]
    clbits = rng.permutation(len(measured))
    gates += [measure(q, int(c)) for q, c in zip(measured, clbits)]
    return Circuit(REGISTER, len(measured), tuple(gates), f"sweep{trial}")


@pytest.mark.parametrize("kinds, seed", [(("h", "cnot"), 3), (("h", "x", "id", "cnot"), 4)],
                         ids=["h-cnot", "h-x-id-cnot"])
def test_ideal_law_matches_density_matrix_oracle(kinds, seed):
    rng = np.random.default_rng(seed)
    unmeasured = none_measured = 0
    for trial in range(500):
        circuit = _random_case(rng, trial, kinds)
        law = compile_shape(circuit).ideal
        expected = exact_outcome_vector(circuit, NOISELESS)
        assert np.max(np.abs(law - expected)) <= 1e-12, (trial, circuit)
        support = law[law > 0]
        assert np.all(support == 1.0 / support.size), (trial, circuit)  # uniform, 2^-r
        none_measured += circuit.num_clbits == 0
        unmeasured += 0 < circuit.num_clbits < len(circuit.active_qubits())
    assert none_measured and unmeasured


def test_y_phase_hand_case():
    # H0 CNOT01 H0 CNOT01 H0 leaves (|01> + |10>) up to sign; dropping the
    # sign H puts on a Y would give {00, 11} instead.
    gates = (h(0), cnot(0, 1), h(0), cnot(0, 1), h(0), measure(0, 0), measure(1, 1))
    law = compile_shape(Circuit(2, 2, gates, "y-phase")).ideal
    assert law.tolist() == [0.0, 0.5, 0.5, 0.0]
    assert exact_outcome_vector(Circuit(2, 2, gates, "y-phase"), NOISELESS) == pytest.approx(law)


# Each gate alone on product inputs: the gate's qubits start in every one of
# |0>, |1>, |+>, |-> and are read out in both the Z and the X basis, next to
# spectators in |1> or |+> that the sweep must leave untouched. Product inputs
# never pull a Y back through a gate, so the Y terms of the H and CNOT sign
# rules are left to the random circuits above.
PREPARE = {"0": (), "1": (x,), "+": (h,), "-": (x, h)}


def _spectators(n, busy):
    return [(x if q % 2 else h)(q) for q in range(n) if q not in busy]


def _measure_all(n):
    return [measure(q, q) for q in range(n)]


def _assert_matches_oracle(circuit):
    law = compile_shape(circuit).ideal
    expected = exact_outcome_vector(circuit, NOISELESS)
    assert np.max(np.abs(law - expected)) <= 1e-12, circuit
    support = law[law > 0]
    assert np.all(support == 1.0 / support.size), circuit


@pytest.mark.parametrize("gate", [h, x, identity], ids=["h", "x", "id"])
@pytest.mark.parametrize("n, q", [(1, 0), (3, 0), (3, 2), (6, 3)])
def test_single_qubit_gate_law_matches_oracle(n, q, gate):
    for label, prep in PREPARE.items():
        for readout in ((), (h,)):
            gates = [*_spectators(n, {q}), *(p(q) for p in prep), gate(q),
                     *(r(q) for r in readout), *_measure_all(n)]
            _assert_matches_oracle(Circuit(n, n, tuple(gates), f"{gate.__name__}-{label}"))


@pytest.mark.parametrize("n, c, t", [(2, 0, 1), (2, 1, 0), (5, 1, 4), (5, 4, 1)])
def test_cnot_law_matches_oracle(n, c, t):
    for lc, pc in PREPARE.items():
        for lt, pt in PREPARE.items():
            for rc in ((), (h,)):
                for rt in ((), (h,)):
                    gates = [*_spectators(n, {c, t}), *(p(c) for p in pc),
                             *(p(t) for p in pt), cnot(c, t), *(r(c) for r in rc),
                             *(r(t) for r in rt), *_measure_all(n)]
                    _assert_matches_oracle(Circuit(n, n, tuple(gates), f"cnot-{lc}{lt}"))
