import dataclasses
import json

import pytest

from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import (
    Characterization,
    SuiteConfig,
    TestKind,
    archive_dict,
    archive_hash,
    build_suite,
    content_hash,
    count_experiments,
    materialize,
    read_archive,
    run_suite,
)
from noisekit.devices import line, uniform_truth
from noisekit.errors import ArityMismatch, OddHadamardLength, ParseError, write_json_file
from noisekit.outcomes import Counts
from noisekit.simulator import simulate_ideal


def test_labels():
    assert TestKind("init", qubit=3).label == "init:q3"
    assert TestKind("x", qubit=3).label == "x:q3"
    assert TestKind("xx", qubit=3).label == "xx:q3"
    assert TestKind("hseq", qubit=3, length=8).label == "hseq:q3:len8"
    assert TestKind("bell", coupling=(3, 4)).label == "bell:q3-q4"


def test_label_roundtrip():
    kinds = [
        TestKind("init", qubit=0),
        TestKind("hseq", qubit=7, length=32),
        TestKind("bell", coupling=(12, 7)),
    ]
    for kind in kinds:
        assert TestKind.from_label(kind.label) == kind
    with pytest.raises(ParseError):
        TestKind.from_label("what:even:is:this")


@pytest.mark.parametrize("label", ["init:z3", "init:q03", "x:q3:len8", "hseq:q1:len08",
                                   "bell:q1-x2", "xx:q2 "])
def test_label_must_round_trip(label):
    with pytest.raises(ParseError):
        TestKind.from_label(label)


@pytest.mark.parametrize("label", [7, None, ["init:q0"], b"init:q0"])
def test_label_must_be_a_string(label):
    """A non-string label is a ParseError, not an AttributeError."""
    with pytest.raises(ParseError, match="not a string"):
        TestKind.from_label(label)


def test_odd_hadamard_length_rejected():
    with pytest.raises(OddHadamardLength):
        TestKind("hseq", qubit=0, length=3)
    with pytest.raises(OddHadamardLength):
        build_suite(line(2), SuiteConfig(hadamard_lengths=(2, 5)))


# The ideal law of every test kind, by hand: the oracle for
# simulate_ideal(materialize(kind)), the package's one copy of these laws.
IDEAL = {
    "init": {"0": 1.0},
    "x": {"1": 1.0},
    "xx": {"0": 1.0},
    "hseq": {"0": 1.0},  # an even-length Hadamard train composes to identity
    "bell": {"00": 0.5, "11": 0.5},
}


def test_materialize_bell():
    circuit = materialize(TestKind("bell", coupling=(0, 1)))
    assert circuit.census() == {"h": 1, "cnot": 1, "measure": 2}
    assert circuit.num_clbits == 2 and circuit.label == "bell:q0-q1"
    assert simulate_ideal(circuit).prob("00") == pytest.approx(0.5, abs=1e-12)


def test_materialize_hseq_identity():
    circuit = materialize(TestKind("hseq", qubit=2, length=2))
    assert circuit.census() == {"h": 2, "measure": 1}
    assert simulate_ideal(circuit).prob("0") == pytest.approx(1.0, abs=1e-12)


def test_materialize_xx_returns_to_zero():
    circuit = materialize(TestKind("xx", qubit=1))
    assert circuit.census() == {"x": 2, "measure": 1}
    assert simulate_ideal(circuit).prob("0") == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", [
    TestKind("init", qubit=0),
    TestKind("x", qubit=1),
    TestKind("xx", qubit=2),
    TestKind("hseq", qubit=0, length=4),
    TestKind("bell", coupling=(1, 2)),
], ids=lambda k: k.kind)
def test_materialize_expected_matches_ideal_simulation(kind):
    circuit = materialize(kind)
    assert circuit.num_clbits == kind.num_bits == len(next(iter(IDEAL[kind.kind])))
    simulated = simulate_ideal(circuit)
    assert simulated.num_bits == kind.num_bits
    for key in set(IDEAL[kind.kind]) | set(simulated.probs):
        assert simulated.prob(key) == pytest.approx(IDEAL[kind.kind].get(key, 0.0), abs=1e-12)


def test_build_suite_two_qubit_line():
    # 2 qubits x {init, x, xx} + 1 bell = the 7-experiment minimal suite
    plan = build_suite(line(2), SuiteConfig())
    assert len(plan.tests) == 7
    assert plan.labels() == [
        "init:q0", "init:q1", "x:q0", "x:q1", "xx:q0", "xx:q1", "bell:q0-q1",
    ]


def test_build_suite_coverage(ladder20):
    plan = build_suite(ladder20, SuiteConfig())
    per_qubit = {}
    for t in plan.tests:
        if t.kind != "bell":
            per_qubit[t.qubit] = per_qubit.get(t.qubit, 0) + 1
    assert all(per_qubit[q] >= 3 for q in range(20))
    bells = {t.coupling for t in plan.tests if t.kind == "bell"}
    assert bells == ladder20.undirected_edges()
    assert len(plan.tests) == 3 * 20 + 23


def test_build_suite_with_hadamard_lengths(line3):
    plan = build_suite(line3, SuiteConfig(hadamard_lengths=(2, 4, 8)))
    hseq = [t for t in plan.tests if t.kind == "hseq"]
    assert len(hseq) == 9


def test_build_suite_empty_subset(line4):
    plan = build_suite(line4, SuiteConfig(granularity="subset_average", subset=()))
    assert plan.tests == ()


def test_build_suite_subset(line4):
    plan = build_suite(line4, SuiteConfig(granularity="subset_average", subset=(0, 1)))
    assert len(plan.tests) == 7
    assert all(
        t.coupling == (0, 1) for t in plan.tests if t.kind == "bell"
    )


def test_count_experiments_minimal():
    plan = build_suite(line(2), SuiteConfig(shots=8192))
    budget = count_experiments(plan)
    assert budget.num_circuits == 7
    assert budget.total_shots == 7 * 8192 == 57344
    assert budget.formula_shots == 8192 * (2 * 2 + 2 * 1 + 1) == 57344


def test_count_experiments_empty(line4):
    plan = build_suite(line4, SuiteConfig(granularity="subset_average", subset=()))
    assert count_experiments(plan).total_shots == 0


def test_count_experiments_ladder(ladder20):
    plan = build_suite(ladder20, SuiteConfig(shots=8192))
    budget = count_experiments(plan)
    assert budget.formula_shots == 8192 * (2 * 20 + 2 * 23 + 1) == 8192 * 87
    assert budget.total_shots == 8192 * 83  # census: 3q + c circuits


def test_run_suite_zero_noise(line3):
    from noisekit.noise import CompositeNoiseModel

    backend = MockBackend(line3, MockGroundTruth(CompositeNoiseModel.noiseless()))
    plan = build_suite(line3, SuiteConfig(shots=2048, seed=5))
    chars = run_suite(plan, backend)
    assert len(chars) == len(plan.tests)
    for ch in chars:
        observed = ch.counts.frequencies()
        ideal = IDEAL[ch.kind.kind]
        for key, freq in observed.items():
            assert freq == pytest.approx(ideal.get(key, 0.0), abs=0.05)
        assert set(observed) <= set(ideal)
        assert ch.counts.shots == 2048


def test_run_suite_init_error_within_binomial_bound(line4, mock_backend):
    plan = build_suite(line4, SuiteConfig(shots=8192, seed=21))
    chars = run_suite(plan, mock_backend)
    sigma = (0.0212 * (1 - 0.0212) / 8192) ** 0.5
    for ch in chars:
        if ch.kind.kind == "init":
            assert abs(ch.counts.frequency("1") - 0.0212) <= 4 * sigma


def test_run_suite_deterministic(line3):
    backend = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    plan = build_suite(line3, SuiteConfig(shots=1024, seed=33))
    a = run_suite(plan, backend)
    b = run_suite(plan, backend)
    assert [c.counts for c in a] == [c.counts for c in b]


def test_record_is_its_test_and_counts():
    assert [f.name for f in dataclasses.fields(Characterization)] == ["kind", "counts"]
    record = Characterization(TestKind("bell", coupling=(2, 1)), Counts({"01": 3}, 3))
    assert record.label == "bell:q2-q1"


@pytest.mark.parametrize("label, counts", [
    ("x:q0", {"00": 900, "11": 100}),
    ("bell:q0-q1", {"0": 600, "1": 400}),
    ("init:q0", {}),  # zero shots: an empty map is 0 bits wide
])
def test_record_counts_must_have_the_tests_width(tmp_path, label, counts):
    kind = TestKind.from_label(label)
    with pytest.raises(ArityMismatch, match=label):
        Characterization(kind, Counts(counts, sum(counts.values())))
    path = tmp_path / "archive.json"
    path.write_text(json.dumps({"entries": [
        {"label": label, "shots": sum(counts.values()), "counts": counts}]}))
    with pytest.raises(ParseError, match=label):
        read_archive(path)


def test_run_suite_rejects_backend_counts_of_the_wrong_width(line3):
    class TwoBitBackend:
        topology = line3

        def run(self, circuits, shots, seed):
            return [Counts({"00": shots}, shots) for _ in circuits]

    plan = build_suite(line3, SuiteConfig(shots=16))
    with pytest.raises(ArityMismatch, match="init:q0"):
        run_suite(plan, TwoBitBackend())


def test_archive_roundtrip(tmp_path, line3):
    backend = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    plan = build_suite(line3, SuiteConfig(shots=512, seed=1))
    chars = run_suite(plan, backend)
    path = tmp_path / "archive.json"
    write_json_file(path, archive_dict(plan, chars, window="w"))
    data, loaded = read_archive(path)
    assert data["window"] == "w" and data["shots"] == 512
    assert [c.label for c in loaded] == [c.label for c in chars]
    assert [c.counts for c in loaded] == [c.counts for c in chars]
    assert [c.kind for c in loaded] == [c.kind for c in chars]


def test_content_hash_of_parsed_archive_is_archive_hash(tmp_path, line3):
    """Hashing the dict read_archive returns gives archive_hash of the file,
    ignores meta and leaves the dict whole."""
    backend = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    plan = build_suite(line3, SuiteConfig(shots=64, seed=1))
    chars = run_suite(plan, backend)
    path = tmp_path / "archive.json"
    write_json_file(path, archive_dict(plan, chars, window="w", meta={"t": 1}))
    data, _ = read_archive(path)
    assert content_hash(data) == archive_hash(path)
    assert data["meta"] == {"t": 1}
    assert content_hash({**data, "meta": {"t": 2}}) == content_hash(data)


def test_read_archive_rejects_repeated_label(tmp_path):
    path = tmp_path / "dup.json"
    entry = '{"label": "init:q0", "shots": 3, "counts": {"0": 3}}'
    path.write_text(f'{{"entries": [{entry}, {entry}]}}')
    with pytest.raises(ParseError, match="repeats a label"):
        read_archive(path)


def test_read_archive_rejects_bad_shots(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"entries": [{"label": "init:q0", "shots": 10, "counts": {"0": 3}}]}'
    )
    with pytest.raises(ParseError):
        read_archive(path)
