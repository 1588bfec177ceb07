import dataclasses
import json

import numpy as np
import pytest
import archive_oracle
from count_tables import records_of, same_records

from noisekit import characterization, outcomes
from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import (
    Records,
    TestKind,
    archive_dict,
    archive_hash,
    build_suite,
    content_hash,
    count_experiments,
    materialize,
    read_archive,
    read_counts,
    run_suite,
)
from noisekit.devices import line, uniform_truth
from noisekit.errors import ArityMismatch, OddHadamardLength, ParseError, write_json_file
from noisekit.outcomes import Counts, check_counts, count_widths
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


def test_every_suite_label_round_trips(ladder20):
    plan = build_suite(ladder20, hadamard_lengths=tuple(range(2, 33, 2)))
    assert len(plan.tests) == (3 + 16) * 20 + 23
    for test in plan.tests:
        assert TestKind.from_label(test.label) == test


@pytest.mark.parametrize("label", ["init:z3", "init:q03", "x:q3:len8", "hseq:q1:len08",
                                   "bell:q1-x2", "xx:q2 ",
                                   # they print back, but name no valid test
                                   "hseq:q0:len0", "hseq:q0:len3", "init:q-1", "bell:q0-q0",
                                   "init:q01", "init:q\u0661", "init:q1 ", "hseq:q0:len02",
                                   "bell:q1-q1", "bell:q-1-q2", "bell:q1-q2-q3", "x:q1:len2"])
def test_label_must_round_trip(label, tmp_path):
    """A label outside the grammar is a ParseError from the label parser and
    from both archive readers (\u0661 is an Arabic-Indic digit one, which
    int() would read as 1)."""
    with pytest.raises(ParseError, match="bad test label"):
        TestKind.from_label(label)
    path = tmp_path / "archive.json"
    outcome = "00" if label.startswith("bell") else "0"
    path.write_text(json.dumps({"entries": [
        {"label": label, "shots": 1, "counts": {outcome: 1}}]}))
    for read in (read_archive, read_counts):
        with pytest.raises(ParseError, match="bad test label"):
            read(path)


@pytest.mark.parametrize("read", [read_archive, read_counts])
def test_readers_check_each_entry_once(tmp_path, monkeypatch, read):
    """Both readers check a valid archive's entries by the count rules once
    each, as one column."""
    plan = build_suite(line(3), shots=64, hadamard_lengths=(2,))
    backend = MockBackend(line(3), MockGroundTruth(uniform_truth(line(3))))
    path = tmp_path / "archive.json"
    write_json_file(path, archive_dict(plan, run_suite(plan, backend)))
    calls = []

    def counted(maps, shots):
        calls.append(len(shots))
        return count_widths(maps, shots)

    monkeypatch.setattr(outcomes, "count_widths", counted)
    monkeypatch.setattr(characterization, "count_widths", counted)
    read(path)
    assert calls == [len(plan.tests)]


@pytest.mark.parametrize("label", [7, None, ["init:q0"], True])
def test_label_must_be_a_string(label, tmp_path):
    """An archive entry with a non-string label is a ParseError, not an
    AttributeError, whether it is read as records or as counts to replay."""
    path = tmp_path / "archive.json"
    path.write_text(json.dumps({"entries": [
        {"label": label, "shots": 1, "counts": {"0": 1}}]}))
    for read in (read_archive, read_counts):
        with pytest.raises(ParseError, match="not a string"):
            read(path)


@pytest.mark.parametrize("fields", [
    dict(kind="init", qubit=0, length=2),
    dict(kind="x", qubit=0, coupling=(0, 1)),
    dict(kind="hseq", qubit=0, length=4, coupling=(0, 1)),
    dict(kind="bell", coupling=(0, 1), qubit=5),
    dict(kind="bell", coupling=(0, 1), length=2),
    dict(kind="bell", coupling=(0, 1, 2)),
    dict(kind="hseq", qubit=True, length=4),
    dict(kind="init", qubit=1.5),
    dict(kind="bell", coupling=(0, 1.0)),
    dict(kind="hseq", qubit=0, length=4.0),
    dict(kind="init", qubit="3"),
    dict(kind="x", qubit=-1),
    dict(kind="bell", coupling=(2, 2)),
    dict(kind="bell"),
    dict(kind="zz", qubit=0),
], ids=["init-length", "x-coupling", "hseq-coupling", "bell-qubit", "bell-length",
        "bell-three-qubits", "bool-qubit", "float-qubit", "float-coupling", "float-length",
        "string-qubit", "negative-qubit", "bell-self-coupling", "bell-no-coupling",
        "unknown-kind"])
def test_fields_a_kind_does_not_take_are_rejected(fields):
    """A test is valid when its label names it back: a stray field would drop
    out of its label, a bool, float, string or negative qubit prints a label
    that names no test or names another one, and so does a Bell test on one
    qubit or on none."""
    with pytest.raises(ValueError):
        TestKind(**fields)


def test_odd_hadamard_length_rejected():
    with pytest.raises(OddHadamardLength):
        TestKind("hseq", qubit=0, length=3)
    with pytest.raises(OddHadamardLength):
        build_suite(line(2), hadamard_lengths=(2, 5))


def test_a_plan_from_labels_refuses_what_its_tests_refuse():
    """`build_suite` plans its tests from their labels, and refuses a zero
    length and a subset qubit that names no test as those tests do; its
    tests are the tests their constructors build."""
    with pytest.raises(OddHadamardLength):
        build_suite(line(2), hadamard_lengths=(0,))
    for qubit in (-1, 1.5, True):
        with pytest.raises(ValueError, match="is not the test its label names"):
            build_suite(line(3), subset=(0, qubit))
    plan = build_suite(line(3), subset=(2, 0), hadamard_lengths=(4, 2))
    assert plan.tests == (
        *(TestKind(kind, qubit=q) for kind in ("init", "x", "xx") for q in (0, 2)),
        *(TestKind("hseq", qubit=q, length=n) for q in (0, 2) for n in (4, 2)))


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
    plan = build_suite(line(2))
    assert len(plan.tests) == 7
    assert [t.label for t in plan.tests] == [
        "init:q0", "init:q1", "x:q0", "x:q1", "xx:q0", "xx:q1", "bell:q0-q1",
    ]


def test_build_suite_coverage(ladder20):
    plan = build_suite(ladder20)
    per_qubit = {}
    for t in plan.tests:
        if t.kind != "bell":
            per_qubit[t.qubit] = per_qubit.get(t.qubit, 0) + 1
    assert all(per_qubit[q] >= 3 for q in range(20))
    bells = {t.coupling for t in plan.tests if t.kind == "bell"}
    assert bells == ladder20.undirected_edges()
    assert len(plan.tests) == 3 * 20 + 23


def test_build_suite_with_hadamard_lengths(line3):
    plan = build_suite(line3, hadamard_lengths=(2, 4, 8))
    hseq = [t for t in plan.tests if t.kind == "hseq"]
    assert len(hseq) == 9


def test_build_suite_empty_subset(line4):
    plan = build_suite(line4, subset=())
    assert plan.tests == ()


def test_build_suite_subset(line4):
    plan = build_suite(line4, subset=(0, 1))
    assert len(plan.tests) == 7
    assert all(
        t.coupling == (0, 1) for t in plan.tests if t.kind == "bell"
    )


def test_count_experiments_minimal():
    plan = build_suite(line(2), shots=8192)
    budget = count_experiments(plan)
    assert budget.num_circuits == 7
    assert budget.total_shots == 7 * 8192 == 57344
    assert budget.formula_shots == 8192 * (2 * 2 + 2 * 1 + 1) == 57344


def test_count_experiments_empty(line4):
    plan = build_suite(line4, subset=())
    assert count_experiments(plan).total_shots == 0


def test_count_experiments_ladder(ladder20):
    plan = build_suite(ladder20, shots=8192)
    budget = count_experiments(plan)
    assert budget.formula_shots == 8192 * (2 * 20 + 2 * 23 + 1) == 8192 * 87
    assert budget.total_shots == 8192 * 83  # census: 3q + c circuits


def test_run_suite_zero_noise(line3):
    from noisekit.noise import CompositeNoiseModel

    backend = MockBackend(line3, MockGroundTruth(CompositeNoiseModel.noiseless()))
    plan = build_suite(line3, shots=2048, seed=5)
    records = run_suite(plan, backend)
    assert records.tests == plan.tests
    for test, observed in zip(records.tests, records.frequencies()):
        ideal = np.zeros(4)
        for key, freq in IDEAL[test.kind].items():
            ideal[int(key, 2)] = freq
        assert observed == pytest.approx(ideal, abs=0.05)
        assert (ideal[observed > 0] > 0).all()
    assert (records.shots == 2048).all()


def test_run_suite_init_error_within_binomial_bound(line4, mock_backend):
    plan = build_suite(line4, shots=8192, seed=21)
    records = run_suite(plan, mock_backend)
    sigma = (0.0212 * (1 - 0.0212) / 8192) ** 0.5
    for test, observed in zip(records.tests, records.frequencies()):
        if test.kind == "init":
            assert abs(observed[1] - 0.0212) <= 4 * sigma


def test_run_suite_deterministic(line3):
    backend = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    plan = build_suite(line3, shots=1024, seed=33)
    assert same_records(run_suite(plan, backend), run_suite(plan, backend))


def test_a_record_table_is_read_only():
    """The families fitted on a table are kept with it, so its counts and
    shots cannot be written."""
    records = records_of([(TestKind("x", qubit=0), {"1": 3}, 3)])
    with pytest.raises(ValueError):
        records.counts[0, 1] = 2
    with pytest.raises(ValueError):
        records.shots[0] = 2


def test_records_are_tests_counts_and_shots():
    """A table holds the test, the count of each outcome index and the shots
    of every row, and indexes the rows by element, a Bell test by its
    undirected edge."""
    assert [f.name for f in dataclasses.fields(Records)] == ["tests", "counts", "shots", "index"]
    records = records_of([(TestKind("bell", coupling=(2, 1)), {"01": 3}, 3),
                          (TestKind("hseq", qubit=1, length=4), {"0": 2, "1": 1}, 3),
                          (TestKind("x", qubit=1), {"1": 3}, 3)])
    assert records.counts.tolist() == [[0, 3, 0, 0], [2, 1, 0, 0], [0, 3, 0, 0]]
    assert records.index == {("bell", (1, 2), None): 0, ("hseq", 1, 4): 1, ("x", 1, None): 2}
    assert records.frequencies()[1].tolist() == [2 / 3, 1 / 3, 0.0, 0.0]


@pytest.mark.parametrize("first, second", [("bell:q0-q1", "bell:q1-q0"),
                                           ("init:q2", "init:q2")])
def test_records_reject_a_second_record_of_one_element(first, second):
    """A Bell test recorded in both directions characterizes one coupling
    twice: the table names both labels instead of keeping either."""
    rows = [(TestKind.from_label(label), {"00" if "bell" in label else "0": 4}, 4)
            for label in (first, second)]
    with pytest.raises(ParseError, match=f"{first} and {second}"):
        records_of(rows)


@pytest.mark.parametrize("label, counts", [
    ("x:q0", {"00": 900, "11": 100}),
    ("bell:q0-q1", {"0": 600, "1": 400}),
    ("init:q0", {}),  # zero shots: an empty map is 0 bits wide
])
def test_record_counts_must_have_the_tests_width(tmp_path, label, counts):
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

    plan = build_suite(line3, shots=16)
    with pytest.raises(ArityMismatch, match="init:q0"):
        run_suite(plan, TwoBitBackend())


def test_archive_roundtrip(tmp_path, line3):
    backend = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    plan = build_suite(line3, shots=512, seed=1)
    records = run_suite(plan, backend)
    path = tmp_path / "archive.json"
    write_json_file(path, archive_dict(plan, records))
    data, loaded = read_archive(path)
    assert "window" not in data and data["shots"] == 512
    assert same_records(loaded, records)


def test_content_hash_of_parsed_archive_is_archive_hash(tmp_path, line3):
    """Hashing the dict read_archive returns gives archive_hash of the file,
    ignores meta and leaves the dict whole."""
    backend = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    plan = build_suite(line3, shots=64, seed=1)
    records = run_suite(plan, backend)
    path = tmp_path / "archive.json"
    write_json_file(path, archive_dict(plan, records, meta={"t": 1}))
    data, _ = read_archive(path)
    assert content_hash(data) == archive_hash(path)
    assert data["meta"] == {"t": 1}
    assert content_hash({**data, "meta": {"t": 2}}) == content_hash(data)


@pytest.mark.parametrize("read", [read_archive, read_counts])
def test_archive_readers_reject_an_entry_with_no_shots(tmp_path, read):
    """A record of no shots has no frequencies to fit or replay, though its
    counts keep the count rules (and `Counts({}, 0)` is a legal value)."""
    path = tmp_path / "empty.json"
    path.write_text('{"entries": [{"label": "init:q0", "shots": 0, "counts": {"0": 0}}]}')
    assert check_counts({"0": 0}, 0) == 1 and Counts({}, 0).shots == 0
    with pytest.raises(ParseError, match="no shots"):
        read(path)


@pytest.mark.parametrize("entries", [
    [("x:q0", {"00": 4}), ("init:q01", {"0": 4})],
    [("init:q01", {"0": 4}), ("x:q0", {"00": 4})],
], ids=["width-then-label", "label-then-width"])
def test_read_archive_names_the_first_entry_whose_label_or_width_is_bad(tmp_path, entries):
    path = tmp_path / "archive.json"
    path.write_text(json.dumps({"entries": [
        {"label": label, "shots": 4, "counts": counts} for label, counts in entries]}))
    with pytest.raises(ParseError) as raised:
        read_archive(path)
    (first, _), (second, _) = entries
    assert first in str(raised.value) and second not in str(raised.value)


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


# -- the column readers against the entry-at-a-time oracle ----------------------

def _random_archive(rng, any_circuits: bool) -> dict:
    """A valid archive of distinct test records in random order, with zero
    counts sometimes listed and keys in random order; with `any_circuits`,
    also records of other circuits, 0 to 6 bits wide."""
    tests = {TestKind(kind, qubit=int(q)) for kind in ("init", "x", "xx")
             for q in rng.choice(12, rng.integers(0, 5), replace=False)}
    tests |= {TestKind("hseq", qubit=int(rng.integers(12)), length=2 * int(rng.integers(1, 40)))
              for _ in range(rng.integers(0, 4))}
    tests |= {TestKind("bell", coupling=(j, k) if rng.random() < 0.5 else (k, j))
              for j, k in {(int(j), int(j) + 1) for j in rng.integers(0, 11, rng.integers(0, 5))}}
    rows = sorted((test.label, test.num_bits) for test in tests)
    if any_circuits:
        rows += [(f"ghz:{n}", int(rng.integers(0, 7))) for n in range(rng.integers(0, 4))]
    entries = []
    for i in rng.permutation(len(rows)):
        label, width = rows[i]
        shots = int(rng.integers(1, 10_000)) if rng.random() < 0.9 else (1 << 63) - 1
        law = rng.dirichlet(np.full(1 << width, 0.4))
        counts = rng.multinomial(min(shots, 1 << 40), law).tolist()
        counts[0] += shots - sum(counts)
        keys = [format(k, f"0{width}b") if width else "" for k in range(1 << width)]
        kept = [k for k in rng.permutation(len(keys)) if counts[k] or rng.random() < 0.3]
        entries.append({"label": label, "shots": shots,
                        "counts": {keys[k]: counts[k] for k in kept}})
    return {"shots": 5, "seed": 1, "entries": entries}


@pytest.mark.parametrize("seed", range(25))
def test_readers_agree_with_the_entry_oracle(tmp_path, seed):
    """On random valid archives `read_archive` gives the oracle's table and
    `read_counts` its counts, arrays and their types included."""
    rng = np.random.default_rng(seed)
    path = tmp_path / "archive.json"
    path.write_text(json.dumps(_random_archive(rng, any_circuits=False)))
    data, records = read_archive(path)
    oracle_data, oracle_records = archive_oracle.read_archive(path)
    assert data == oracle_data and same_records(records, oracle_records)
    assert records.index == oracle_records.index
    assert records.counts.dtype == records.shots.dtype == np.int64
    path.write_text(json.dumps(_random_archive(rng, any_circuits=True)))
    counts, oracle_counts = read_counts(path)[1], archive_oracle.read_counts(path)[1]
    assert list(counts) == list(oracle_counts) and counts == oracle_counts
    for label, c in counts.items():
        assert c.num_bits == oracle_counts[label].num_bits
        assert c.indices.dtype == c.values.dtype == np.int64 and type(c.shots) is int


def _entry(label, counts, shots=None):
    return {"label": label, "counts": counts,
            "shots": sum(counts.values()) if shots is None else shots}


GOOD_INIT = _entry("init:q0", {"0": 60, "1": 4})
# entries, then the index of the entry the error names
MALFORMED_ARCHIVES = {
    # int64 sums would wrap to 5
    "int64-wrap": ([GOOD_INIT, _entry("bell:q0-q1", {"00": 1 << 62, "01": 1 << 62, "10": 1 << 62,
                                                     "11": (1 << 62) + 5}, 5)], 1),
    "key-2": ([_entry("init:q0", {"2": 3})], 0),
    "key-space-0": ([_entry("init:q0", {" 0": 3})], 0),
    "key-empty": ([_entry("init:q0", {"": 3})], 0),
    "key-empty-and-0": ([_entry("init:q0", {"": 3, "0": 1})], 0),
    "mixed-widths": ([GOOD_INIT, _entry("bell:q0-q1", {"00": 3, "1": 1})], 1),
    "true-count": ([_entry("bell:q0-q1", {"00": 3, "01": True, "11": 4}, 8)], 0),
    "64-bit-keys": ([_entry("ghz:64", {"0" * 64: 3})], 0),
    "shots-above-int64": ([_entry("init:q0", {"0": 1 << 63})], 0),
    "counts-a-list": ([GOOD_INIT, {"label": "x:q0", "counts": [3], "shots": 3}], 1),
    "no-label": ([GOOD_INIT, {"counts": {"0": 3}, "shots": 3}], 1),
    "entry-a-list": ([GOOD_INIT, ["init:q1"]], 1),
    # the column checks see the second entry's float before the first's sign
    "negative-then-float": ([_entry("init:q0", {"0": -1, "1": 5}, 4),
                             _entry("init:q1", {"0": 2.0, "1": 2}, 4)], 0),
    "wrong-sum-then-string": ([_entry("init:q0", {"0": 3}, 4),
                               _entry("init:q1", {"0": "3"}, 3)], 0),
    "mixed-widths-then-bool-shots": ([_entry("init:q0", {"0": 3, "10": 1}),
                                      _entry("init:q1", {"0": 1}, True)], 0),
    "bits-then-zero-shots": ([_entry("init:q0", {"x": 3}), _entry("init:q1", {"0": 0})], 0),
    "wrong-width-then-bad-label": ([GOOD_INIT, _entry("bell:q0-q1", {"0": 3}),
                                    _entry("init:q01", {"0": 3})], 1),
    "bad-label-then-wrong-width": ([GOOD_INIT, _entry("x:q1:len2", {"0": 3}),
                                    _entry("bell:q0-q1", {"0": 3})], 1),
}


@pytest.mark.parametrize("entries, first", MALFORMED_ARCHIVES.values(),
                         ids=MALFORMED_ARCHIVES.keys())
def test_malformed_archives_fail_as_the_oracle_does(tmp_path, entries, first):
    """`read_archive` refuses a malformed archive with a ParseError whose
    message is the oracle's and names the first bad entry. `read_counts`
    refuses it exactly when its oracle does (it checks counts against no
    label's width), with the oracle's message."""
    path = tmp_path / "archive.json"
    path.write_text(json.dumps({"entries": entries}))
    messages = []
    for read, oracle in ((read_archive, archive_oracle.read_archive),
                         (read_counts, archive_oracle.read_counts)):
        try:
            expected = oracle(path)
        except ParseError as exc:
            expected = str(exc)
        try:
            got = read(path)
        except ParseError as exc:
            got = str(exc)
        assert type(got) is type(expected)
        if isinstance(got, str):
            assert got == expected
        else:
            assert got[1] == expected[1]
        messages.append(got)
    bad = entries[first]  # named whole, or by its label as a test label or a record
    label = bad.get("label") if isinstance(bad, dict) else None
    names = [repr(bad)] + ([f"label {label!r}", f"{label}: "] if label else [])
    assert any(name in messages[0] for name in names)
    assert not any(repr(other) in messages[0] for other in entries[:first])
