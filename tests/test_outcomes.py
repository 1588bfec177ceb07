from dataclasses import fields

import pytest

from noisekit.outcomes import Counts, Distribution


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


def test_counts_frequencies_exact():
    c = Counts({"01": 3, "10": 5}, 8)
    assert c.frequencies() == {"01": 3 / 8, "10": 5 / 8}
    assert c.frequency("01") * 8 == 3  # f_k = C_k / N_s recoverable exactly
    assert c.to_distribution().prob("10") == 5 / 8
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
    assert "num_bits" not in {f.name for f in fields(Counts) if f.compare}
    empty = Counts({}, 0)
    assert empty.num_bits == 0
    assert empty == Counts({}, 0)
