"""Per-shot Pauli-trajectory sampler: the independent oracle for the
compiled outcome law.

Every shot draws its own error after every noisy gate (a uniform against p,
then X, Y or Z with probability 1/3 each) and carries its Pauli frame
forward through the rest of the circuit (H swaps the X and Z parts; CNOT
copies X control -> target and Z target -> control). At the terminal
measurements the frame's X part flips the shot's ideal outcome, and each
bit then goes through its readout flip. The ideal outcomes come from the
density-matrix oracle; nothing here uses `noisekit.simulator`.
"""
from __future__ import annotations

import numpy as np

from dm_oracle import exact_outcome_vector
from noisekit.circuit import Circuit
from noisekit.noise import CompositeNoiseModel


def sample_trajectories(
    circuit: Circuit, model: CompositeNoiseModel, shots: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-shot (pre-readout, observed) outcome indices, classical bit 0
    most significant."""
    rng = np.random.default_rng(seed)
    ideal = np.clip(exact_outcome_vector(circuit, CompositeNoiseModel.noiseless()), 0.0, None)
    pre = rng.choice(ideal.size, size=shots, p=ideal / ideal.sum())
    fx = {q: np.zeros(shots, dtype=bool) for q in circuit.active_qubits()}
    fz = {q: np.zeros(shots, dtype=bool) for q in circuit.active_qubits()}
    for g in circuit.gates:
        if g.name == "h":
            q = g.qubits[0]
            fx[q], fz[q] = fz[q], fx[q]
            hits = [(q, model.h_for(q))]
        elif g.name == "x":
            hits = [(g.qubits[0], model.x_for(g.qubits[0]))]
        elif g.name == "cnot":
            c, t = g.qubits
            fx[t] = fx[t] ^ fx[c]
            fz[c] = fz[c] ^ fz[t]
            p = model.cnot_for(c, t) if model.cnot_dp_on else 0.0
            hits = [(c, p), (t, p)]
        else:
            continue
        for q, p in hits:
            hit = rng.random(shots) < p
            pauli = rng.integers(0, 3, size=shots)  # 0: X, 1: Y, 2: Z
            fx[q] = fx[q] ^ (hit & (pauli != 2))
            fz[q] = fz[q] ^ (hit & (pauli != 0))
    by_clbit = sorted((c, q) for q, c in circuit.measurements())
    m = len(by_clbit)
    for bit, (_, q) in enumerate(by_clbit):
        pos = m - 1 - bit
        pre ^= fx[q].astype(np.int64) << pos
    obs = pre.copy()
    if model.readout_on:
        for bit, (_, q) in enumerate(by_clbit):
            pos = m - 1 - bit
            ro = model.readout_for(q)
            p_flip = np.where((pre >> pos) & 1, ro.p1, ro.p0)
            obs ^= (rng.random(shots) < p_flip).astype(np.int64) << pos
    return pre, obs
