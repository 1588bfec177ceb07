"""The memoized stream derivation against numpy's own `SeedSequence`."""
import numpy as np
import pytest

from noisekit import rng
from noisekit.rng import MEMO_SIZE, child_seed, generator


def _random_keys(source, count):
    """Seeds below 2^32, at or above 2^32 and at or above 2^64, with paths
    of zero to three entries of the same spread."""
    def entry():
        return int(source.integers(0, 2**31)) << int(source.choice([0, 0, 33, 70]))
    return [(entry(), *(entry() for _ in range(int(source.integers(0, 4)))))
            for _ in range(count)]


def _draws(g):
    return g.multinomial(1000, [0.1, 0.2, 0.3, 0.4]), g.random(3), g.integers(0, 2**63, 2)


def _reference_draws(key):
    return _draws(np.random.default_rng(np.random.SeedSequence(key)))


def test_generator_reproduces_seed_sequence_on_miss_and_hit():
    keys = _random_keys(np.random.default_rng(2026), 60)
    assert {(k[0] >= 2**32) + (k[0] >= 2**64) for k in keys} == {0, 1, 2}
    for key in keys:
        misses = rng._seed_words.cache_info().misses
        first = _draws(generator(*key))  # miss: the key is new
        assert rng._seed_words.cache_info().misses == misses + 1
        second = _draws(generator(*key))  # hit
        assert rng._seed_words.cache_info().misses == misses + 1
        for got in (first, second):
            for a, b in zip(got, _reference_draws(key)):
                np.testing.assert_array_equal(a, b)


def test_child_seed_reproduces_seed_sequence_on_miss_and_hit():
    for key in _random_keys(np.random.default_rng(2027), 60):
        want = int(np.random.SeedSequence(key).generate_state(1)[0])
        misses = rng._child_seed.cache_info().misses
        assert child_seed(*key) == want  # miss
        assert child_seed(*key) == want  # hit
        assert rng._child_seed.cache_info().misses == misses + 1


def test_integer_like_arguments_share_a_stream():
    assert child_seed(np.int64(7), np.uint8(3)) == child_seed(7, 3)
    np.testing.assert_array_equal(generator(np.int64(7), 3).random(4),
                                  generator(7, 3).random(4))


def test_generators_from_one_key_are_independent():
    a, b = generator(5, 1, 2), generator(5, 1, 2)
    assert a is not b and a.bit_generator is not b.bit_generator
    a.multinomial(1000, [0.5, 0.5])  # advancing one leaves the other at the stream's start
    for got, want in zip(_draws(b), _reference_draws((5, 1, 2))):
        np.testing.assert_array_equal(got, want)


def test_memo_words_are_read_only():
    words = rng._seed_words((5, 1, 2)).words
    with pytest.raises(ValueError):
        words[0] = 0
    np.testing.assert_array_equal(
        words, np.random.SeedSequence((5, 1, 2)).generate_state(4, np.uint64))


def test_memo_stays_within_its_bound():
    keys = _random_keys(np.random.default_rng(2028), MEMO_SIZE + 50)
    for key in keys:
        generator(*key)
        child_seed(*key)
    assert rng._seed_words.cache_info().currsize <= MEMO_SIZE
    assert rng._child_seed.cache_info().currsize <= MEMO_SIZE
    first = keys[0]  # evicted by now, and derived again the same
    np.testing.assert_array_equal(_draws(generator(*first))[0], _reference_draws(first)[0])
    assert child_seed(*first) == int(np.random.SeedSequence(first).generate_state(1)[0])


@pytest.mark.parametrize("key", [(-1,), (3, -2), (-(2**70), 1)])
def test_negative_entries_raise_as_seed_sequence_does(key):
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence(key)
    for derive in (generator, child_seed):
        for _ in range(2):  # nothing is kept from a failed derivation
            with pytest.raises(ValueError) as got:
                derive(*key)
            assert str(got.value) == str(want.value)
