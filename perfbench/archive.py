"""Counts archives drawn from the paper's closed-form test frequencies.

The benchmark builds its recorded archives here instead of running the mock
QPU, so the archive bytes depend only on the ground truth and the seed, never
on the program's sampler streams. The closed forms are written out again on
purpose: the program's own copies are what the benchmark measures.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

# Names the benchmark's generator stream apart from every stream the program uses.
_ARCHIVE_STREAM = 0x5EED_A4C


def _readout(p_pre0: float, p0: float, p1: float) -> float:
    """P(observe 0) for one bit whose pre-readout P(0) is p_pre0."""
    return p_pre0 * (1.0 - p0) + (1.0 - p_pre0) * p1


def _bell(p_cnot: float, ro_j: tuple[float, float], ro_k: tuple[float, float]) -> list[float]:
    """Observed frequencies of 00, 01, 10, 11 for the Bell test on (j, k).

    A depolarizing error after the Hadamard only turns |+> into |->, which
    leaves the computational-basis statistics unchanged, so p_h drops out.
    """
    diff = (2.0 / 3.0) * p_cnot - (4.0 / 9.0) * p_cnot**2
    same = 0.5 - diff
    pre = np.array([[same, diff], [diff, same]])  # pre[bit_j, bit_k]

    def channel(p0, p1):  # column: pre-readout bit, row: observed bit
        return np.array([[1.0 - p0, p1], [p0, 1.0 - p1]])

    obs = channel(*ro_j) @ pre @ channel(*ro_k).T
    return [obs[0, 0], obs[0, 1], obs[1, 0], obs[1, 1]]


def suite_frequencies(truth: dict, hadamard_lengths: tuple[int, ...]) -> list[tuple[str, dict[str, float]]]:
    """(label, outcome -> probability) for the full-spatial suite, in plan order.

    `truth` holds per-qubit "p0", "p1", "p_x", "p_h" lists and a "cnot" map
    from sorted coupling to p_cnot.
    """
    qubits = range(len(truth["p0"]))
    p0, p1, px, ph = truth["p0"], truth["p1"], truth["p_x"], truth["p_h"]
    tests = []
    for q in qubits:
        tests.append((f"init:q{q}", {"0": 1.0 - p0[q], "1": p0[q]}))
    for q in qubits:
        flip = 2.0 * px[q] / 3.0
        tests.append((f"x:q{q}", _one_bit(_readout(flip, p0[q], p1[q]))))
    for q in qubits:
        flip = 2.0 * px[q] / 3.0
        pre0 = (1.0 - flip) ** 2 + flip**2
        tests.append((f"xx:q{q}", _one_bit(_readout(pre0, p0[q], p1[q]))))
    for q in qubits:
        for length in hadamard_lengths:
            survival = 0.5 + 0.5 * (1.0 - 4.0 * ph[q] / 3.0) ** length
            tests.append((f"hseq:q{q}:len{length}", _one_bit(_readout(survival, p0[q], p1[q]))))
    for (j, k), p in sorted(truth["cnot"].items()):
        freqs = _bell(p, (p0[j], p1[j]), (p0[k], p1[k]))
        tests.append((f"bell:q{j}-q{k}", dict(zip(("00", "01", "10", "11"), freqs))))
    return tests


def hadamard_rates(num_qubits: int, seed: int) -> list[float]:
    """Per-qubit Hadamard depolarizing rates, well clear of the [0, 1] clamp."""
    rng = np.random.default_rng([_ARCHIVE_STREAM, seed, 1])
    return [float(v) for v in rng.uniform(0.003, 0.008, size=num_qubits)]


def _one_bit(p_obs0: float) -> dict[str, float]:
    return {"0": p_obs0, "1": 1.0 - p_obs0}


def draw_archive(truth: dict, hadamard_lengths: tuple[int, ...], shots: int,
                 seed: int, window: str) -> bytes:
    """Archive JSON bytes with multinomial counts from the benchmark's own generator."""
    rng = np.random.default_rng([_ARCHIVE_STREAM, seed])
    entries = []
    for label, probs in suite_frequencies(truth, hadamard_lengths):
        keys = list(probs)
        pvals = np.clip(np.array([probs[k] for k in keys]), 0.0, None)
        draws = rng.multinomial(shots, pvals / pvals.sum())
        counts = {k: int(c) for k, c in zip(keys, draws) if c}
        entries.append({"label": label, "shots": shots, "counts": counts})
    data = {"meta": {"source": "perfbench closed-form draw"}, "window": window,
            "shots": shots, "seed": seed, "entries": entries}
    return json.dumps(data, indent=2, sort_keys=True).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
