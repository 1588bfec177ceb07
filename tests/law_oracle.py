"""One-circuit-at-a-time outcome laws: the simulator's law loop before laws
were built as stacks, kept as the oracle the stacked laws must equal bit for
bit.

Each circuit is compiled on its own, its noise sites are read with their
rates one by one (sites whose rate is 0 skipped), each site is folded into a
weights dict over flip masks, and the hidden readout reads out every weight
class 0..m in turn. The flip masks and ideal marginal come from the
simulator's own backward sweep, which `dm_oracle` checks on its own.
"""
import numpy as np

from noisekit.noise import read_out
from noisekit.rng import BACKEND, generator
from noisekit.simulator import _lower, _Shape


def compile_shape(circuit):
    """The circuit's shape: flip masks, ideal marginal and measured locals."""
    return _Shape(*_lower(circuit)[0])


def _noise_sites(shape, qubits, model):
    """Depolarizing probability and (X, Y, Z) flip masks of every site whose
    errors can reach a measured bit."""
    sites = []
    for (name, _), origs, flips in zip(shape.ops, qubits, shape.flips):
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


def one_by_one_law(circuit, model, hidden_readout_strength=0.0):
    """Observed outcome law of one circuit, flat in classical-bit order."""
    shape = compile_shape(circuit)
    qubits = [g.qubits for g in circuit.gates]
    m = shape.num_bits
    law = shape.ideal.reshape([2] * m).copy()
    mixed, term = np.empty_like(law), np.empty_like(law)
    for p, masks in _noise_sites(shape, qubits, model):
        weights = {0: 1.0 - p}
        for mask in masks:
            weights[mask] = weights.get(mask, 0.0) + p / 3.0
        np.multiply(law, weights.pop(0), out=mixed)
        for mask, w in weights.items():
            axes = tuple(k for k in range(m) if mask >> (m - 1 - k) & 1)
            mixed += np.multiply(np.flip(law, axes), w, out=term)
        law, mixed = mixed, law
    pre = law.reshape(-1)
    rates = None
    if model.readout_on and m:
        ros = [model.readout_for(q) for q in circuit.measured_qubits()]
        rates = np.array([r.p0 for r in ros]), np.array([r.p1 for r in ros])
    if hidden_readout_strength == 0.0:
        if rates is not None:
            read_out(pre, *rates)
        return pre
    p0, p1 = rates or (np.zeros(m), np.zeros(m))
    weight = sum(((np.arange(pre.size) >> pos) & 1 for pos in range(m)), np.zeros(pre.size, int))
    law = np.zeros_like(pre)
    for w in range(m + 1):
        part = np.where(weight == w, pre, 0.0)
        h = min(hidden_readout_strength * w, 1.0)
        read_out(part, (1 - h) * p0 + h * (1 - p0), (1 - h) * p1 + h * (1 - p1))
        law += part
    return law


def one_by_one_counts(circuits, model, hidden_readout_strength, shots, seed):
    """The mock QPU's count vectors as the per-circuit loop drew them: each
    circuit's own law, drawn in turn on the run's (seed, BACKEND) stream."""
    rng = generator(seed, BACKEND)
    return [rng.multinomial(shots, one_by_one_law(c, model, hidden_readout_strength))
            for c in circuits]
