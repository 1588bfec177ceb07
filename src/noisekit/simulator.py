"""Ideal, exact-noisy, and Monte Carlo simulation through Pauli frames.

Circuits are internally remapped onto their active qubits, so simulation
cost scales with the touched register slice rather than the device size.
Measurements must be terminal per qubit (no gate may act on a qubit after
it is measured) and each qubit may be measured at most once.

Every gate ({H, X, CNOT, id, measure}) is Clifford and every gate channel
is Pauli, so a noisy run is the ideal run with a Pauli error frame on top.
Only the frame's X part reaches the measured bits, as an XOR flip mask. A
circuit is therefore compiled once into its ideal measured-bit marginal
(one statevector run) and, for each noise site, the flip masks of an X, Y
or Z injected right after that gate. Sampled shots are ideal draws XOR the
masks of the errors drawn per shot; the exact distribution mixes the ideal
one over the same masks. Readout then acts as a per-bit stochastic channel.
"""
from __future__ import annotations

import numpy as np

from . import _kernels
from .circuit import Circuit
from .errors import NormDrift, TooWide
from .noise import CompositeNoiseModel
from .outcomes import Counts, Distribution
from .rng import generator

_STREAM_ERRORS = 0
_STREAM_OUTCOMES = 1
_STREAM_READOUT = 2
_STREAM_MULTINOMIAL = 4


class _Compiled:
    """Circuit lowered onto its active qubits, with its ideal measured-bit
    marginal and its per-gate flip masks."""

    def __init__(self, circuit: Circuit, max_qubits: int):
        actives = circuit.active_qubits()
        self.n = len(actives)
        if self.n > max_qubits:
            raise TooWide(f"{self.n} active qubits exceeds the {max_qubits}-qubit guard")
        local = {q: i for i, q in enumerate(actives)}
        self.ops: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
        measured: dict[int, int] = {}  # clbit -> local qubit
        measured_orig: dict[int, int] = {}
        done: set[int] = set()
        for g in circuit.gates:
            for q in g.qubits:
                if q in done:
                    raise ValueError(
                        f"gate on qubit {q} after its measurement is unsupported"
                    )
            if g.name == "measure":
                measured[g.clbit] = local[g.qubits[0]]
                measured_orig[g.clbit] = g.qubits[0]
                done.add(g.qubits[0])
            self.ops.append((g.name, tuple(local[q] for q in g.qubits), g.qubits))
        clbits = sorted(measured)
        self.measured_locals = [measured[c] for c in clbits]
        self.measured_qubits = [measured_orig[c] for c in clbits]
        self.num_bits = len(clbits)
        psi = _run_statevector(self)
        self.ideal = _measured_marginal(np.abs(psi) ** 2, self)
        self.flips = self._flip_masks()

    def stride(self, local_qubit: int) -> int:
        return 1 << (self.n - 1 - local_qubit)

    def _flip_masks(self) -> list[tuple[tuple[int, int], ...]]:
        """Per op and operand, the measured-bit flips (x_mask, z_mask) of an
        X and of a Z injected right after the op.

        One backward sweep: fx[q] / fz[q] hold the flips an X / Z on local
        qubit q causes from the current point on. Classical bit k is bit
        num_bits - 1 - k of an outcome index.
        """
        fx = [0] * self.n
        fz = [0] * self.n
        for k, q in enumerate(self.measured_locals):
            fx[q] = 1 << (self.num_bits - 1 - k)
        out: list[tuple[tuple[int, int], ...]] = [()] * len(self.ops)
        for i in range(len(self.ops) - 1, -1, -1):
            name, locs, _ = self.ops[i]
            out[i] = tuple((fx[q], fz[q]) for q in locs)
            if name == "h":  # H X H = Z, H Z H = X
                q = locs[0]
                fx[q], fz[q] = fz[q], fx[q]
            elif name == "cnot":  # X_c -> X_c X_t, Z_t -> Z_c Z_t
                c, t = locs
                fx[c] ^= fx[t]
                fz[t] ^= fz[c]
            # x, id and measure commute with every Pauli up to a phase
        return out


def _run_statevector(comp: _Compiled) -> np.ndarray:
    """Apply the compiled ops to |0...0> with the active kernels."""
    k = _kernels.ACTIVE
    psi = np.zeros(1 << comp.n, dtype=complex)
    psi[0] = 1.0
    for name, locs, _ in comp.ops:
        if name == "h":
            k.h(psi, comp.stride(locs[0]))
        elif name == "x":
            k.x(psi, comp.stride(locs[0]))
        elif name == "cnot":
            k.cnot(psi, comp.stride(locs[0]), comp.stride(locs[1]))
        # "id" and "measure" leave the state untouched
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) < 1e-10:
        raise NormDrift(f"statevector norm drifted to {norm} (kernels {k.name})")
    return psi


def _measured_marginal(probs: np.ndarray, comp: _Compiled) -> np.ndarray:
    """Marginal over measured qubits, flattened in classical-bit order."""
    if comp.num_bits == 0:
        return np.array([probs.sum()])
    t = probs.reshape([2] * comp.n)
    keep = comp.measured_locals
    drop = tuple(a for a in range(comp.n) if a not in keep)
    if drop:
        t = t.sum(axis=drop)
    order = [sorted(keep).index(a) for a in keep]
    return t.transpose(order).reshape(-1)


def _noise_sites(comp: _Compiled, model: CompositeNoiseModel) -> tuple[list[float], np.ndarray]:
    """Depolarizing probability and flip masks (I, X, Y, Z) of every site
    whose errors can reach a measured bit."""
    probs: list[float] = []
    masks: list[tuple[int, int, int, int]] = []
    for (name, _, origs), flips in zip(comp.ops, comp.flips):
        if name == "h":
            p = model.h_for(origs[0])
        elif name == "x":
            p = model.x_for(origs[0])
        elif name == "cnot" and model.cnot_dp_on:
            p = model.cnot_for(*origs)
        else:
            continue
        if p > 0.0:
            for fx, fz in flips:
                if fx or fz:
                    probs.append(p)
                    masks.append((0, fx, fx ^ fz, fz))
    return probs, np.array(masks, dtype=np.int64).reshape(-1, 4)


def _readout_rates(
    comp: _Compiled, model: CompositeNoiseModel
) -> tuple[np.ndarray, np.ndarray] | None:
    """Per classical bit (p0, p1) arrays, or None when readout is off."""
    if not (model.readout_on and comp.num_bits):
        return None
    ros = [model.readout_for(q) for q in comp.measured_qubits]
    return np.array([r.p0 for r in ros]), np.array([r.p1 for r in ros])


def _to_distribution(vec: np.ndarray, num_bits: int, floor: float = 1e-15) -> Distribution:
    probs = {
        format(i, f"0{num_bits}b") if num_bits else "": float(p)
        for i, p in enumerate(vec)
        if p > floor
    }
    return Distribution(probs, num_bits=num_bits)


def simulate_ideal(circuit: Circuit, max_qubits: int = 24) -> Distribution:
    """Exact measurement distribution of the noiseless circuit."""
    comp = _Compiled(circuit, max_qubits)
    return _to_distribution(comp.ideal, comp.num_bits)


def simulate_noisy_exact(
    circuit: Circuit, model: CompositeNoiseModel, max_qubits: int = 8
) -> Distribution:
    """Channel-averaged outcome distribution under the composite model.

    Each noise site mixes the ideal marginal over its flip masks,
    v <- (1 - p) v + p/3 (v[i ^ m_X] + v[i ^ m_Y] + v[i ^ m_Z]); the readout
    channel then acts as a per-bit stochastic matrix.
    """
    comp = _Compiled(circuit, max_qubits)
    probs, masks = _noise_sites(comp, model)
    vec = comp.ideal
    index = np.arange(vec.size)
    for p, (_, mx, my, mz) in zip(probs, masks):
        mixed = vec[index ^ mx] + vec[index ^ my] + vec[index ^ mz]
        vec = (1.0 - p) * vec + (p / 3.0) * mixed
    rates = _readout_rates(comp, model)
    if rates is not None:
        for bit, (p0, p1) in enumerate(zip(*rates)):
            t = vec.reshape(1 << bit, 2, -1)
            zero, one = t[:, 0], t[:, 1]
            vec = np.stack(
                ((1.0 - p0) * zero + p1 * one, p0 * zero + (1.0 - p1) * one), axis=1
            ).reshape(-1)
    return _to_distribution(vec, comp.num_bits)


class TrajectorySampler:
    """Reusable sampler for one (circuit, model) pair.

    The circuit is compiled once; each shot is an ideal outcome XOR the
    flip masks of the errors drawn for it, then passed through readout.
    """

    def __init__(self, circuit: Circuit, model: CompositeNoiseModel,
                 max_qubits: int = 24):
        self._comp = _Compiled(circuit, max_qubits)
        self._probs, self._masks = _noise_sites(self._comp, model)
        self._readout = _readout_rates(self._comp, model)
        ideal = self._comp.ideal
        self._support = np.flatnonzero(ideal > 1e-16).astype(np.int64)
        weights = ideal[self._support]
        self._weights = weights / weights.sum()

    @property
    def num_bits(self) -> int:
        return self._comp.num_bits

    def sample_arrays(self, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot (pre-readout, observed) outcome indices."""
        if shots == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        # Frames are i.i.d. per shot and independent of the ideal draw, so
        # XOR-ing them onto the sorted multinomial draw leaves the law intact.
        rng_err = generator(seed, _STREAM_ERRORS)
        flips = np.zeros(shots, dtype=np.int64)
        for p, masks in zip(self._probs, self._masks):
            u = rng_err.random(shots)
            picks = rng_err.integers(1, 4, size=shots, dtype=np.uint8)
            flips ^= masks[np.where(u < p, picks, np.uint8(0))]
        draws = generator(seed, _STREAM_OUTCOMES).multinomial(shots, self._weights)
        pre = np.repeat(self._support, draws) ^ flips
        obs = pre
        m = self._comp.num_bits
        if self._readout is not None:
            p0, p1 = self._readout
            rng_ro = generator(seed, _STREAM_READOUT)
            ro_flips = np.zeros(shots, dtype=np.int64)
            for bit in range(m):
                pos = m - 1 - bit
                vals = (pre >> pos) & 1
                p_flip = np.where(vals == 1, p1[bit], p0[bit])
                ro_flips |= (rng_ro.random(shots) < p_flip).astype(np.int64) << pos
            obs = pre ^ ro_flips
        return pre, obs

    def sample(self, shots: int, seed: int) -> Counts:
        if shots == 0:
            return Counts({}, 0)
        _, obs = self.sample_arrays(shots, seed)
        return counts_from_indices(obs, self._comp.num_bits, shots)


def counts_from_indices(indices: np.ndarray, num_bits: int, shots: int) -> Counts:
    values, reps = np.unique(indices, return_counts=True)
    fmt = f"0{num_bits}b"
    return Counts(
        {format(int(v), fmt) if num_bits else "": int(c) for v, c in zip(values, reps)},
        shots,
    )


def simulate_noisy_sampled(
    circuit: Circuit, model: CompositeNoiseModel, shots: int, seed: int
) -> Counts:
    """Monte Carlo trajectory counts; deterministic for a fixed seed."""
    return TrajectorySampler(circuit, model).sample(shots, seed)


def sample_from_distribution(dist: Distribution, shots: int, seed: int) -> Counts:
    """Multinomial draw from a distribution, deterministic per seed."""
    if shots == 0:
        return Counts({}, 0)
    keys = sorted(dist.probs)
    pvals = np.clip(np.array([dist.probs[k] for k in keys], dtype=float), 0.0, None)
    rng = generator(seed, _STREAM_MULTINOMIAL)
    draws = rng.multinomial(shots, pvals / pvals.sum())
    return Counts({k: int(c) for k, c in zip(keys, draws) if c}, shots)
