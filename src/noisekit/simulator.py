"""Ideal and noisy simulation through one outcome law per compiled circuit.

Circuits are internally remapped onto their active qubits, so simulation
cost scales with the touched register slice rather than the device size.
Measurements must be terminal per qubit (no gate may act on a qubit after
it is measured) and each qubit may be measured at most once.

Every gate ({H, X, CNOT, id, measure}) is Clifford and every gate channel
is Pauli, so a noisy run is the ideal run with a Pauli error frame on top.
Only the frame's X part reaches the measured bits, as an XOR flip mask. A
circuit is therefore compiled once into its ideal measured-bit marginal
(one statevector run) and, for each noise site, the flip masks of an X, Y
or Z injected right after that gate. Mixing the ideal marginal over every
site's masks gives the pre-readout law; readout, a per-bit stochastic
channel, turns it into the observed law. The exact distribution is that
law, and sampling any number of shots is one multinomial draw from it.
"""
from __future__ import annotations

import numpy as np

from . import _kernels
from .circuit import Circuit
from .errors import NormDrift, TooWide
from .noise import CompositeNoiseModel
from .outcomes import Counts, Distribution
from .rng import generator

MAX_QUBITS = 24  # active-qubit guard shared by every entry point

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


def _noise_sites(
    comp: _Compiled, model: CompositeNoiseModel
) -> list[tuple[float, tuple[int, int, int]]]:
    """Depolarizing probability and (X, Y, Z) flip masks of every site whose
    errors can reach a measured bit."""
    sites = []
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
            sites.extend((p, (fx, fx ^ fz, fz)) for fx, fz in flips if fx or fz)
    return sites


def _readout_rates(
    comp: _Compiled, model: CompositeNoiseModel
) -> tuple[np.ndarray, np.ndarray] | None:
    """Per classical bit (p0, p1) arrays, or None when readout is off."""
    if not (model.readout_on and comp.num_bits):
        return None
    ros = [model.readout_for(q) for q in comp.measured_qubits]
    return np.array([r.p0 for r in ros]), np.array([r.p1 for r in ros])


def _outcome_laws(comp: _Compiled, model: CompositeNoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """Pre-readout and observed outcome laws, flat in classical-bit order.

    Each noise site mixes the ideal marginal over its flip masks,
    v <- (1 - p) v + p/3 (v[i ^ m_X] + v[i ^ m_Y] + v[i ^ m_Z]). On the
    [2]*m-shaped law, v[i ^ m] is v flipped along the axes of m's set bits,
    so every term is a view; coinciding masks share one term. The readout
    channel then acts as a per-bit stochastic matrix.
    """
    m = comp.num_bits
    law = (comp.ideal / comp.ideal.sum()).reshape([2] * m)
    mixed, term = np.empty_like(law), np.empty_like(law)
    for p, masks in _noise_sites(comp, model):
        weights = {0: 1.0 - p}
        for mask in masks:
            weights[mask] = weights.get(mask, 0.0) + p / 3.0
        np.multiply(law, weights.pop(0), out=mixed)
        for mask, w in weights.items():
            axes = tuple(k for k in range(m) if mask >> (m - 1 - k) & 1)
            mixed += np.multiply(np.flip(law, axes), w, out=term)
        law, mixed = mixed, law
    pre = law.reshape(-1)
    rates = _readout_rates(comp, model)
    if rates is None:
        return pre, pre
    obs = pre.copy()
    for bit, (p0, p1) in enumerate(zip(*rates)):
        t = obs.reshape(1 << bit, 2, -1)
        moved = p0 * t[:, 0] - p1 * t[:, 1]  # net mass read 0 -> 1
        t[:, 0] -= moved
        t[:, 1] += moved
    return pre, obs


def _by_key(values: np.ndarray, num_bits: int, floor: float = 0.0) -> dict:
    """Outcome string -> value at every outcome index whose value exceeds `floor`."""
    keep = np.flatnonzero(values > floor)
    fmt = f"0{num_bits}b"
    return {
        format(i, fmt) if num_bits else "": v
        for i, v in zip(keep.tolist(), values[keep].tolist())
    }


def _to_distribution(vec: np.ndarray, num_bits: int) -> Distribution:
    return Distribution(_by_key(vec, num_bits, floor=1e-15), num_bits=num_bits)


def simulate_ideal(circuit: Circuit, max_qubits: int = MAX_QUBITS) -> Distribution:
    """Exact measurement distribution of the noiseless circuit."""
    comp = _Compiled(circuit, max_qubits)
    return _to_distribution(comp.ideal, comp.num_bits)


def simulate_noisy_exact(
    circuit: Circuit, model: CompositeNoiseModel, max_qubits: int = MAX_QUBITS
) -> Distribution:
    """Channel-averaged outcome distribution under the composite model: the
    compiled circuit's observed outcome law."""
    comp = _Compiled(circuit, max_qubits)
    _, law = _outcome_laws(comp, model)
    return _to_distribution(law, comp.num_bits)


class TrajectorySampler:
    """Reusable sampler for one (circuit, model) pair.

    The circuit is compiled once into its pre-readout and observed outcome
    laws; a draw of any number of shots is one multinomial over a law.
    """

    def __init__(self, circuit: Circuit, model: CompositeNoiseModel,
                 max_qubits: int = MAX_QUBITS):
        self._comp = _Compiled(circuit, max_qubits)
        self._readout = _readout_rates(self._comp, model)
        self.pre_readout_law, self.observed_law = _outcome_laws(self._comp, model)

    @property
    def num_bits(self) -> int:
        return self._comp.num_bits

    def sample_arrays(self, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot (pre-readout, observed) outcome indices, sorted by the
        pre-readout index."""
        draws = generator(seed, _STREAM_OUTCOMES).multinomial(shots, self.pre_readout_law)
        hit = np.flatnonzero(draws)
        pre = np.repeat(hit, draws[hit])
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
        """Observed counts of `shots` shots: one multinomial draw."""
        draws = generator(seed, _STREAM_OUTCOMES).multinomial(shots, self.observed_law)
        return Counts(_by_key(draws, self._comp.num_bits), shots)


def counts_from_indices(indices: np.ndarray, num_bits: int, shots: int) -> Counts:
    """Counts from per-shot outcome indices."""
    return Counts(_by_key(np.bincount(indices, minlength=1 << num_bits), num_bits), shots)


def simulate_noisy_sampled(
    circuit: Circuit, model: CompositeNoiseModel, shots: int, seed: int
) -> Counts:
    """Counts drawn from the compiled outcome law; deterministic for a fixed seed."""
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
