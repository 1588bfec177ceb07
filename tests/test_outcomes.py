from dataclasses import fields

import numpy as np
import pytest

from noisekit import devices
from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import (
    archive_dict,
    build_suite,
    content_hash,
    read_archive,
    run_suite,
)
from noisekit.circuit import Circuit, h, measure
from noisekit.errors import write_json_file
from noisekit.estimation import fit_composite
from noisekit.noise import CompositeNoiseModel
from noisekit.outcomes import Counts, Distribution, check_counts
from noisekit.rng import generator
from noisekit.simulator import TrajectorySampler, simulate_noisy_exact


def test_distribution_validation():
    Distribution({"00": 0.5, "11": 0.5})
    with pytest.raises(ValueError):
        Distribution({"0": 0.5, "11": 0.5})  # mixed lengths
    with pytest.raises(ValueError):
        Distribution({"0": 0.6, "1": 0.6})  # not normalized
    with pytest.raises(ValueError):
        Distribution({"0": -0.1, "1": 1.1})  # negative
    with pytest.raises(ValueError):
        Distribution({"0x": 1.0})  # non-binary key
    with pytest.raises(ValueError):
        Distribution({"0": float("nan"), "1": 0.5})  # NaN fails every comparison
    with pytest.raises(ValueError, match="keys are 2-bit, expected 3"):
        Distribution({"01": 1.0}, num_bits=3)


@pytest.mark.parametrize("probs", [{"0": True}, {"0": False, "1": 1.0}, {"1": np.bool_(True)}])
def test_distribution_rejects_bools(probs):
    with pytest.raises(TypeError):
        Distribution(probs)


def test_distribution_accessors():
    d = Distribution({"00": 0.5, "11": 0.5, "01": 0.0})
    assert d.num_bits == 2
    assert d.prob("00") == 0.5
    assert d.prob("10") == 0.0
    assert d.support() == ["00", "11"]


@pytest.mark.parametrize("outcomes, text", [
    (Distribution({"1": 0.75, "0": 0.25}),
     "Distribution(probs={'0': 0.25, '1': 0.75}, num_bits=1)"),
    (Counts({"11": 3, "00": 1}, 4), "Counts(counts={'00': 1, '11': 3}, shots=4)"),
], ids=["distribution", "counts"])
def test_outcomes_repr_and_equality_with_other_types(outcomes, text):
    assert repr(outcomes) == text
    assert type(outcomes).__eq__(outcomes, text) is NotImplemented
    assert outcomes != text and outcomes != 1


def test_counts_validation():
    Counts({"0": 10, "1": 6}, 16)
    with pytest.raises(ValueError):
        Counts({"0": 10}, 16)  # counts don't sum to shots
    with pytest.raises(ValueError):
        Counts({"0": -1, "1": 17}, 16)


@pytest.mark.parametrize("counts, shots", [
    ({"0": 7995.9, "1": 197}, 8192),  # a float count is not truncated
    ({"0": 7995.0, "1": 197}, 8192),  # nor is a whole float taken as an integer
    ({"0": "7995", "1": 1}, 7996),
    ({"0": 7995, "1": True}, 7996),
    ({"0": 7995, "1": 1}, 7996.0),
    ({"0": 7995, "1": 1}, "7996"),
    ({"1": 1}, True),
    ({"0": 1}, np.bool_(True)),
])
def test_counts_reject_non_integers(counts, shots):
    with pytest.raises(TypeError):
        Counts(counts, shots)


def test_counts_take_numpy_integers_as_ints():
    c = Counts({"0": np.int64(5), "1": np.uint8(3)}, np.int32(8))
    assert c == Counts({"0": 5, "1": 3}, 8)
    assert all(type(v) is int for v in (c.shots, *c.counts.values()))


# counts, shots -> the bit width, or the error type and its exact message
CHECK_COUNTS = {
    "ints": ({"00": 3, "11": 5}, 8, 2),
    "numpy-ints": ({"0": np.int64(5), "1": np.int64(3)}, np.int64(8), 1),
    "empty": ({}, 0, 0),
    "bool-count": ({"0": 7, "1": True}, 8, (TypeError, "count True is not an integer")),
    "float-count": ({"0": 7.0, "1": 1}, 8, (TypeError, "count 7.0 is not an integer")),
    "bool-shots": ({"0": 1}, True, (TypeError, "shot number True is not an integer")),
    "float-shots": ({"0": 8}, 8.0, (TypeError, "shot number 8.0 is not an integer")),
    "negative": ({"0": -1, "1": 9}, 8, (ValueError, "negative count")),
    "wrong-sum": ({"0": 3}, 4, (ValueError, "counts sum to 3, shots field says 4")),
    "mixed-widths": ({"101": 1, "0": 1, "11": 1}, 3,
                     (ValueError, "outcome keys have mixed bit-lengths [1, 2, 3]")),
    "non-bit-key": ({"0x": 1}, 1, (ValueError, "outcome keys ['0x'] are not all bit strings")),
    "64-bit-keys": ({"0" * 64: 1}, 1, (ValueError, "64-bit outcome keys exceed 63 bits")),
    "shots-over-int64": ({"0": 1 << 63}, 1 << 63,
                         (ValueError, f"{1 << 63} shots do not fit int64 counts")),
}


@pytest.mark.parametrize("counts, shots, expected", CHECK_COUNTS.values(),
                         ids=CHECK_COUNTS.keys())
def test_check_counts_rules(counts, shots, expected):
    if isinstance(expected, int):
        assert check_counts(counts, shots) == expected
        return
    error, message = expected
    with pytest.raises(error) as info:
        check_counts(counts, shots)
    assert str(info.value) == message


def test_counts_frequencies_exact():
    c = Counts({"01": 3, "10": 5}, 8)
    assert c.frequencies() == {"01": 3 / 8, "10": 5 / 8}
    assert c.frequency("01") * 8 == 3  # f_k = C_k / N_s recoverable exactly
    assert c.num_bits == 2


def test_empty_counts():
    c = Counts({}, 0)
    assert c.frequencies() == {}
    assert c.frequency("0") == 0.0


def test_counts_key_validation():
    with pytest.raises(ValueError):
        Counts({"0": 1, "11": 1}, 2)  # mixed lengths
    with pytest.raises(ValueError):
        Counts({"0x": 1}, 1)  # non-binary key


def test_counts_num_bits_stays_out_of_equality():
    """num_bits is computed once at construction; equality and the zero-shot
    Counts are unchanged by it."""
    a = Counts({"01": 3, "10": 5}, 8)
    assert a.num_bits == 2
    assert a == Counts({"10": 5, "01": 3}, 8)
    assert a != Counts({"01": 4, "10": 4}, 8)
    # Counts has its own __eq__, so compare=False on num_bits only shapes what
    # fields() reports; the width cases below are what check equality
    assert "num_bits" not in {f.name for f in fields(Counts) if f.compare}
    empty = Counts({}, 0)
    assert empty.num_bits == 0
    assert empty == Counts({}, 0)
    assert Counts.from_arrays(3, [], [], 0) == empty
    assert Counts.from_arrays(3, [0], [8], 8) != Counts.from_arrays(2, [0], [8], 8)


def test_string_views_are_read_only():
    """`.counts` and `.probs` cannot be edited, so they cannot drift from
    the index arrays that `tvd` and the draws read."""
    counts = Counts.from_arrays(2, [1, 2], [3, 5], 8)
    dist = Distribution({"01": 0.25, "10": 0.75})
    for view in (counts.counts, dist.probs):
        with pytest.raises(TypeError):
            view["01"] = 1
    assert counts.counts == {"01": 3, "10": 5} and counts.frequency("01") == 3 / 8
    assert dict(dist.probs) == {"01": 0.25, "10": 0.75}


# -- index arrays inside, bit strings at the edges ---------------------------------

def _random_keyed(rng, num_bits):
    """Random outcome strings in random order, with their indices."""
    size = min(1 << num_bits, int(rng.integers(1, 40)))
    idx = rng.choice(1 << num_bits, size=size, replace=False)
    keys = [format(int(i), f"0{num_bits}b") if num_bits else "" for i in idx]
    return keys, idx


def test_array_built_equals_string_built_twin():
    """Both forms hold the same outcome set: each equals its twin, and each
    form's view of the other comes back in ascending index order."""
    rng = np.random.default_rng(21)
    for _ in range(200):
        num_bits = int(rng.integers(0, 20))
        keys, idx = _random_keyed(rng, num_bits)
        counts = rng.integers(0, 50, size=len(keys))
        probs = rng.dirichlet(np.ones(len(keys)))
        order = np.argsort(idx)
        shots = int(counts.sum())

        by_keys = Counts(dict(zip(keys, counts.tolist())), shots)
        by_arrays = Counts.from_arrays(num_bits, idx[order], counts[order], shots)
        assert by_arrays == by_keys and by_keys == by_arrays
        assert by_arrays.num_bits == by_keys.num_bits == num_bits
        assert list(by_arrays.counts) == sorted(keys)
        assert by_arrays.counts == by_keys.counts
        assert by_arrays.frequencies() == by_keys.frequencies()
        assert by_keys.indices.tolist() == sorted(idx.tolist())
        assert by_keys.values.tolist() == counts[order].tolist()

        dist_keys = Distribution(dict(zip(keys, probs.tolist())))
        dist_arrays = Distribution.from_arrays(num_bits, idx[order], probs[order])
        assert dist_arrays == dist_keys and dist_keys == dist_arrays
        assert list(dist_arrays.probs) == sorted(keys)
        assert dist_arrays.support() == dist_keys.support()
        assert dist_keys.indices.tolist() == sorted(idx.tolist())
        assert dist_keys.values.tolist() == probs[order].tolist()


def test_array_and_string_forms_differ_where_strings_differ():
    """Equality is that of the string-keyed maps: a zero entry or another
    width makes a different outcome set, two empty sets are equal."""
    assert Counts.from_arrays(1, [0], [3], 3) != Counts({"00": 3}, 3)
    assert Counts.from_arrays(1, [0, 1], [3, 0], 3) != Counts({"0": 3}, 3)
    assert Counts.from_arrays(2, [], [], 0) == Counts({}, 0)
    assert Distribution.from_arrays(2, [0], [1.0]) != Distribution({"0": 1.0})
    assert Distribution.from_arrays(1, [0, 1], [1.0, 0.0]) == Distribution({"0": 1.0, "1": 0.0})


def test_from_arrays_validation():
    with pytest.raises(ValueError):
        Counts.from_arrays(2, [1, 0], [1, 1], 2)  # not ascending
    with pytest.raises(ValueError):
        Counts.from_arrays(2, [1, 1], [1, 1], 2)  # repeated outcome
    with pytest.raises(ValueError):
        Counts.from_arrays(2, [4], [1], 1)  # outside 2 bits
    with pytest.raises(ValueError):
        Counts.from_arrays(2, [0, 1], [2, 1], 2)  # sum is not shots
    with pytest.raises(ValueError):
        Counts.from_arrays(2, [0, 1], [3, -1], 2)  # negative count
    with pytest.raises(ValueError):
        Counts.from_arrays(2, [], [], 5)
    with pytest.raises(ValueError):
        Distribution.from_arrays(1, [0, 1], [0.6, 0.6])
    with pytest.raises(ValueError):
        Distribution.from_arrays(1, [0, 1], [float("nan"), 0.5])
    with pytest.raises(ValueError):
        Distribution.from_arrays(1, [0], [1.0, 0.0])  # shapes differ
    with pytest.raises(ValueError):
        Counts({"1" * 64: 1}, 1)  # indices are int64
    with pytest.raises(TypeError):
        Counts.from_arrays(1, [0, 1], [True, False], 1)  # bools, as Counts({"0": True}, 1)
    with pytest.raises(TypeError):
        Distribution.from_arrays(1, [0], [True])


def test_drawn_and_string_built_twins_hold_the_same_arrays_and_views():
    """A draw or an exact law and its twin built from the string view, keys
    in reverse order, hold equal index and value arrays, and every view of
    the two is equal, keys in ascending index order."""
    circuit = Circuit(3, 3, (h(0), h(2), *(measure(q, q) for q in range(3))), "h02")
    model = CompositeNoiseModel.noiseless()
    drawn = TrajectorySampler(circuit, model).sample(1000, generator(5))
    law = simulate_noisy_exact(circuit, model)
    counts_twin = Counts(dict(reversed(drawn.counts.items())), 1000)
    law_twin = Distribution(dict(reversed(law.probs.items())))
    for twin, original in ((counts_twin, drawn), (law_twin, law)):
        assert twin == original
        assert np.array_equal(twin.indices, original.indices)
        assert np.array_equal(twin.values, original.values)
    assert set(drawn.counts) == {"000", "001", "100", "101"}
    keys = ("000", "101", "010", "00", "x0x")
    for view in (lambda c: list(c.counts.items()), lambda c: list(c.frequencies().items()),
                 lambda c: [c.frequency(k) for k in keys]):
        assert view(counts_twin) == view(drawn)
    assert list(drawn.counts) == sorted(drawn.counts)
    for view in (lambda d: list(d.probs.items()), lambda d: list(d.items()),
                 lambda d: d.support(), lambda d: [d.prob(k) for k in keys]):
        assert view(law_twin) == view(law)


def test_archive_and_model_files_do_not_depend_on_the_form(tmp_path):
    """An archive and a fitted model written from the drawn count table are
    byte for byte those written from the table of the draws' string-built
    twins and from the table read back from the archive, and the archive's
    content at this seed is pinned (it fixes the mock QPU's stream, one
    generator per run on the (seed, BACKEND) path, and the key format)."""
    topo = devices.line(3)
    truth = MockGroundTruth(devices.jittered_truth(topo, 5), hidden_readout_strength=0.04)
    plan = build_suite(topo, hadamard_lengths=(2, 4), shots=1000, seed=11)
    mock = MockBackend(topo, truth)

    class Twins:
        topology = topo

        def run(self, circuits, shots, seed):
            return [Counts(dict(c.counts), c.shots) for c in mock.run(circuits, shots, seed)]

    drawn = run_suite(plan, mock)
    assert content_hash(archive_dict(plan, drawn)) == "cb333c98df7cfddc"
    # an archive written while archives carried a `window` tag hashes as it did
    assert content_hash({**archive_dict(plan, drawn), "window": ""}) == "c25c71bdb36e988a"
    write_json_file(tmp_path / "drawn.json", archive_dict(plan, drawn))
    tables = {"drawn": drawn, "twins": run_suite(plan, Twins()),
              "reread": read_archive(tmp_path / "drawn.json")[1]}
    files = []
    for name, records in tables.items():
        write_json_file(tmp_path / f"{name}.json", archive_dict(plan, records))
        fit_composite(records).model.save(tmp_path / f"{name}-model.json")
        files.append(((tmp_path / f"{name}.json").read_bytes(),
                      (tmp_path / f"{name}-model.json").read_bytes()))
    assert files[0] == files[1] == files[2]
