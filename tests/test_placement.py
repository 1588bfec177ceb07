"""A placed circuit is built from its fields, inheriting its template's
checks: the oracle here is the circuit the checking `Gate` and `Circuit`
constructors build for the same qubits and label, and the plan's tests are
the tests their labels name."""
import random

import numpy as np
import pytest

from noisekit.characterization import TestKind, _build, _template, build_suite
from noisekit.circuit import Circuit, DeviceTopology, Gate
from noisekit.devices import ladder20, line
from noisekit.simulator import place

LENGTHS = (2, 4, 8, 16)
KINDS = [("init", None), ("x", None), ("xx", None), *(("hseq", n) for n in LENGTHS),
         ("bell", None)]


def _grid6():
    return DeviceTopology(36, tuple((q, q + step) for q in range(36) for step in (1, 6)
                                    if (step == 6 or q % 6 < 5) and q + step < 36))


def _checked(template: Circuit, qubits, label: str) -> Circuit:
    """`template` moved onto `qubits` through the checking constructors."""
    gates = tuple(Gate(g.name, tuple(qubits[q] for q in g.qubits), g.clbit)
                  for g in template.gates)
    return Circuit(max(qubits) + 1, template.num_clbits, gates, label)


def _test_on(kind, length, qubits) -> TestKind:
    if kind == "bell":
        return TestKind("bell", coupling=tuple(qubits))
    return TestKind(kind, qubit=qubits[0], length=length)


@pytest.mark.parametrize("device", [ladder20, _grid6])
@pytest.mark.parametrize("seed", range(3))
def test_a_placed_test_is_the_circuit_the_checking_constructors_build(device, seed):
    """Every suite test kind, placed on random distinct qubits, equals the
    checked copy of its template, gate by gate and field type by field type,
    and its actives are that copy's active qubits (in the template's order)."""
    topo, rng = device(), random.Random(seed)
    tests = [_test_on(kind, length, rng.sample(range(topo.num_qubits), 2 if kind == "bell" else 1))
             for kind, length in KINDS for _ in range(4)]
    for test, placed in zip(tests, _build(tuple(tests))):
        want = _checked(_template(test.kind, test.length), test.coupling or (test.qubit,),
                        test.label)
        assert placed == want
        assert [(type(g), vars(g)) for g in placed.gates] == [
            (type(g), vars(g)) for g in want.gates]
        assert type(placed.gates) is tuple and all(type(g.qubits) is tuple for g in placed.gates)
        assert sorted(placed._compiled[1]) == want.active_qubits()


@pytest.mark.parametrize("qubits, label", [
    ((0, 1, 2), "wide"),  # the wrong width
    ((3, 3), "repeat"),  # a repeated qubit
    ((-1, 2), "negative"),
    ((4, 2), ""),  # an empty label
    ((-2, 5), ""),  # a negative qubit is named before the label
])
def test_place_refuses_what_the_checking_constructors_refuse(qubits, label):
    template = _template("bell", None)
    with pytest.raises(ValueError) as placed:
        place(template, [((0, 1), "fine"), (qubits, label)])
    if len(qubits) == 2 and len(set(qubits)) == 2:
        with pytest.raises(ValueError) as checked:
            _checked(template, qubits, label)
        assert str(placed.value) == str(checked.value)
    else:
        assert str(placed.value) == f"cannot place a 2-qubit circuit on {qubits}"


@pytest.mark.parametrize("device, subset", [
    (ladder20, None), (_grid6, None), (line(5), None),
    (ladder20, (7, 0, 3, 2)), (ladder20, tuple(map(np.int64, (5, 1, 6)))),
])
@pytest.mark.parametrize("lengths", [(), (2,), LENGTHS, (8, 2), tuple(map(np.int64, (4, 2)))])
def test_a_planned_test_is_the_test_its_label_names(device, subset, lengths):
    """Each of `build_suite`'s tests equals `TestKind.from_label` of its
    label, in value and in type, and the checking constructor accepts it."""
    topo = device() if callable(device) else device
    plan = build_suite(topo, subset=subset, hadamard_lengths=lengths)
    kinds = {(t.kind, t.length) for t in plan.tests}
    assert kinds == {(k, None) for k in ("init", "x", "xx", "bell")} | {
        ("hseq", n) for n in lengths}
    for test in plan.tests:
        named = TestKind.from_label(test.label)
        assert repr(vars(test)) == repr(vars(named)) and test == named
        assert TestKind(**vars(test)) == test
