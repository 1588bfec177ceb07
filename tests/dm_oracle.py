"""Density-matrix simulator: the independent oracle for the Pauli-frame core.

Evolves the full density matrix of the active qubits with dense gate
matrices, follows each gate by its depolarizing channel (X, Y, Z with
probability p/3 each), and applies readout as a per-bit stochastic matrix.
It shares no code with `noisekit.simulator`.
"""
from __future__ import annotations

import numpy as np

from noisekit.circuit import Circuit
from noisekit.noise import CompositeNoiseModel

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def apply_axes(t: np.ndarray, mat: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Multiply `mat` onto the given tensor axes (collapsed in order)."""
    rest = [a for a in range(t.ndim) if a not in axes]
    t = t.transpose(list(axes) + rest)
    shape = t.shape
    dim = mat.shape[0]
    t = (mat @ t.reshape(dim, -1)).reshape(shape)
    inv = np.argsort(list(axes) + rest)
    return t.transpose(inv)


def _apply_unitary(rho: np.ndarray, mat: np.ndarray, locs: tuple[int, ...], n: int):
    rho = apply_axes(rho, mat, locs)
    return apply_axes(rho, mat.conj(), tuple(a + n for a in locs))


def _depolarize(rho: np.ndarray, local_q: int, p: float, n: int) -> np.ndarray:
    if p == 0.0:
        return rho
    mix = sum(_apply_unitary(rho, pauli, (local_q,), n) for pauli in PAULIS)
    return (1.0 - p) * rho + (p / 3.0) * mix


def exact_outcome_vector(circuit: Circuit, model: CompositeNoiseModel) -> np.ndarray:
    """Outcome probabilities indexed by the measured bit string, classical
    bit 0 most significant. Measurements must be terminal."""
    actives = circuit.active_qubits()
    local = {q: i for i, q in enumerate(actives)}
    n = len(actives)
    rho = np.zeros([2] * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    for g in circuit.gates:
        locs = tuple(local[q] for q in g.qubits)
        if g.name == "h":
            rho = _apply_unitary(rho, H_MAT, locs, n)
            rho = _depolarize(rho, locs[0], model.h_for(g.qubits[0]), n)
        elif g.name == "x":
            rho = _apply_unitary(rho, PAULIS[0], locs, n)
            rho = _depolarize(rho, locs[0], model.x_for(g.qubits[0]), n)
        elif g.name == "cnot":
            rho = _apply_unitary(rho, CNOT_MAT, locs, n)
            if model.cnot_dp_on:
                p = model.cnot_for(*g.qubits)
                rho = _depolarize(rho, locs[0], p, n)
                rho = _depolarize(rho, locs[1], p, n)
    diag = np.real(np.einsum("ii->i", rho.reshape(1 << n, 1 << n)))
    by_clbit = sorted((c, q) for q, c in circuit.measurements())
    keep = [local[q] for _, q in by_clbit]
    t = diag.reshape([2] * n)
    drop = tuple(a for a in range(n) if a not in keep)
    if drop:
        t = t.sum(axis=drop)
    vec = t.transpose([sorted(keep).index(a) for a in keep])
    if model.readout_on:
        for bit, (_, q) in enumerate(by_clbit):
            ro = model.readout_for(q)
            stoch = np.array([[1.0 - ro.p0, ro.p1], [ro.p0, 1.0 - ro.p1]])
            vec = apply_axes(vec, stoch, (bit,))
    return np.asarray(vec).reshape(-1)
