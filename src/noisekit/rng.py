"""Seeding helpers.

All randomness in the package flows through numpy's PCG64 generator seeded
from a `SeedSequence` built out of (seed, *path) integer tuples, so every
derived stream is reproducible and independent of execution order.

Deriving a stream is the costly part of a short draw, and the pipeline asks
for the same few streams over and over (every score reuses the resample
streams of every other). Each (seed, *path) is therefore derived once per
process and kept in a bounded memo; the streams themselves are unchanged.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# Entries per memo: one `demo full-paper` pass derives about a hundred
# distinct keys, and the oldest are dropped past this bound.
MEMO_SIZE = 1024


@lru_cache(maxsize=1)
def _seed_words_type() -> type:
    # Built on first use: numpy.random, which defines the base class, takes
    # ~13 ms to import, and a `fit` never draws.
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Read-only PCG64 seed words, handed to every generator of one key."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for exactly these: 4 uint64 words

    return SeedWords


@lru_cache(maxsize=MEMO_SIZE)
def _seed_words(key: tuple[int, ...]):
    """The four uint64 words PCG64 reads from `SeedSequence(key)`, so one
    derivation can seed any number of fresh generators."""
    words = np.random.SeedSequence(key).generate_state(4, np.uint64)
    words.flags.writeable = False
    return _seed_words_type()(words)


@lru_cache(maxsize=MEMO_SIZE)
def _child_seed(key: tuple[int, ...]) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def generator(seed: int, *path: int) -> np.random.Generator:
    """Return a fresh generator for the stream identified by (seed, *path)."""
    return np.random.Generator(np.random.PCG64(_seed_words((int(seed), *map(int, path)))))


def child_seed(seed: int, *path: int) -> int:
    """Derive a deterministic integer sub-seed from (seed, *path)."""
    return _child_seed((int(seed), *map(int, path)))
