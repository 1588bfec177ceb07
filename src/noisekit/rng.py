"""Seeding helpers.

All randomness in the package flows through numpy's PCG64 generator seeded
from a `SeedSequence` built out of (seed, *path) integer tuples. Each
consumer owns the first path component named below, so no two layers share
a stream whatever their seeds; a consumer call derives one generator and
draws from it in turn.
"""
from __future__ import annotations

import numpy as np

BACKEND = 1        # a mock-QPU run: its circuits draw in turn
SCORE = 2          # a sampled score: its resamples draw in turn
PREDICT = 3        # BV predicted accuracies: one draw per secret, in turn
DEMO_BELL = 4      # the demo's Bell run seed
DEMO_GHZ = 5       # the demo's GHZ runs seed
DEMO_BV = 6        # the demo's BV runs seed
TRUTH_JITTER = 99  # the spread of `devices.jittered_truth`


def generator(seed: int, *path: int) -> np.random.Generator:
    """Return a fresh generator for the stream identified by (seed, *path)."""
    return np.random.default_rng((seed, *path))


def child_seed(seed: int, *path: int) -> int:
    """Derive a deterministic integer sub-seed from (seed, *path)."""
    return int(np.random.SeedSequence((seed, *path)).generate_state(1)[0])
