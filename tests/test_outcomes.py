from dataclasses import fields, replace

import numpy as np
import pytest

from noisekit import devices
from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import (
    SuiteConfig,
    archive_dict,
    build_suite,
    content_hash,
    read_archive,
    run_suite,
)
from noisekit.circuit import Circuit, h, measure
from noisekit.errors import write_json_file
from noisekit.estimation import FitConfig, fit_composite
from noisekit.noise import CompositeNoiseModel
from noisekit.outcomes import Counts, Distribution
from noisekit.rng import generator
from noisekit.simulator import TrajectorySampler


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


def test_draws_equal_their_string_twins():
    """The draws build from arrays and format no key; their views read back
    as the string-built object the old draws formed."""
    circuit = Circuit(3, 3, (h(0), h(2), *(measure(q, q) for q in range(3))), "h02")
    sampler = TrajectorySampler(circuit, CompositeNoiseModel.noiseless())
    drawn = sampler.sample(1000, generator(5))
    assert drawn._keyed is None  # no string formed by the draw
    assert drawn == Counts(dict(drawn.counts), 1000)
    assert list(drawn.counts) == sorted(drawn.counts)
    assert set(drawn.counts) == {"000", "001", "100", "101"}


def test_string_built_objects_build_no_arrays_until_asked():
    c = Counts({"01": 3, "10": 5}, 8)
    d = Distribution({"1": 1.0})
    c.frequency("01"), c.frequencies(), d.prob("1"), d.support(), list(d.items())
    assert c._idx is None and d._idx is None


def test_archive_and_model_files_do_not_depend_on_the_form(tmp_path):
    """An archive and a fitted model written from drawn counts are byte for
    byte those written from the string-built twins, and the archive's
    content at this seed is pinned (it fixes the mock QPU's stream, one
    generator per run on the (seed, BACKEND) path, and the key format)."""
    topo = devices.line(3)
    truth = MockGroundTruth(devices.jittered_truth(topo, 5), hidden_readout_strength=0.04)
    plan = build_suite(topo, SuiteConfig(hadamard_lengths=(2, 4), shots=1000, seed=11))
    drawn = run_suite(plan, MockBackend(topo, truth))
    twins = [replace(ch, counts=Counts(dict(ch.counts.counts), ch.counts.shots))
             for ch in drawn]
    files = []
    for name, chars in (("drawn", drawn), ("twins", twins)):
        write_json_file(tmp_path / f"{name}.json", archive_dict(plan, chars))
        fit_composite(chars, FitConfig()).model.save(tmp_path / f"{name}-model.json")
        files.append(((tmp_path / f"{name}.json").read_bytes(),
                      (tmp_path / f"{name}-model.json").read_bytes()))
    assert files[0] == files[1]
    assert content_hash(archive_dict(plan, drawn)) == "c25c71bdb36e988a"
    _, reread = read_archive(tmp_path / "drawn.json")
    write_json_file(tmp_path / "again.json", archive_dict(plan, reread))
    assert (tmp_path / "again.json").read_bytes() == files[0][0]
