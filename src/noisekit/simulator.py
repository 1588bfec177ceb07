"""Ideal and noisy simulation through one outcome law per compiled circuit.

Circuits are internally remapped onto their active qubits, so simulation
cost scales with the touched register slice rather than the device size.
Measurements must be terminal per qubit (no gate may act on a qubit after
it is measured) and each qubit may be measured at most once.

Every gate ({H, X, CNOT, id, measure}) is Clifford and every gate channel
is Pauli, so a noisy run is the ideal run with a Pauli error frame on top.
Only the frame's X part reaches the measured bits, as an XOR flip mask. A
circuit is therefore compiled once, by one backward sweep over its gates,
into the flip masks of an X, Y or Z injected right after each gate and its
ideal measured-bit marginal. The sweep pulls each measured Z back to the
start with its sign; the ideal state is a stabilizer state, so the marginal
is uniform over an affine GF(2) subspace of outcomes (Aaronson & Gottesman,
quant-ph/0406196), and no amplitude is ever stored. Mixing the ideal
marginal over every site's masks gives the pre-readout law; readout, a
per-bit stochastic channel, turns it into the observed law. The exact
distribution is that law, and sampling any number of shots is one
multinomial draw from it. The mock QPU's hidden readout (a sampler's
`hidden_readout_strength`) is that per-bit channel applied to each
Hamming-weight class of the pre-readout law.
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit
from .errors import TooWide
from .noise import CompositeNoiseModel, read_out
from .outcomes import Counts, Distribution

# Measured-bit guard shared by every entry point, with no per-call override:
# every outcome law is a 2^m array over the m measured bits, while active
# qubits cost only sweep work linear in the gates.
MAX_QUBITS = 24


class _Compiled:
    """Circuit lowered onto its active qubits, with its per-gate flip masks
    and its ideal measured-bit marginal, both from one backward sweep."""

    def __init__(self, circuit: Circuit):
        actives = circuit.active_qubits()
        self.n = len(actives)
        local = {q: i for i, q in enumerate(actives)}
        self.ops: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
        done: set[int] = set()
        for g in circuit.gates:
            for q in g.qubits:
                if q in done:
                    raise ValueError(
                        f"gate on qubit {q} after its measurement is unsupported"
                    )
            if g.name == "measure":
                done.add(g.qubits[0])
            self.ops.append((g.name, tuple(local[q] for q in g.qubits), g.qubits))
        self.measured_qubits = circuit.measured_qubits()
        self.num_bits = len(self.measured_qubits)
        if self.num_bits > MAX_QUBITS:
            raise TooWide(f"{self.num_bits} measured bits exceeds the {MAX_QUBITS}-bit guard")
        self.measured_locals = [local[q] for q in self.measured_qubits]
        self.flips, self.ideal = self._sweep()

    def _sweep(self) -> tuple[list[tuple[tuple[int, int], ...]], np.ndarray]:
        """Per op and operand, the measured-bit flips (x_mask, z_mask) of an
        X and of a Z injected right after the op; and the ideal marginal.

        One backward sweep: fx[q] / fz[q] hold the flips an X / Z on local
        qubit q causes from the current point on. Read by bit instead, bit j
        of fx[q] / fz[q] / sign is the Z part on q / X part on q / sign of
        measured bit j's Z observable pulled back to the current point (Y
        is one Pauli, with Aaronson-Gottesman phases). Classical bit k is
        bit num_bits - 1 - k of an outcome index.
        """
        fx = [0] * self.n
        fz = [0] * self.n
        sign = 0
        for k, q in enumerate(self.measured_locals):
            fx[q] = 1 << (self.num_bits - 1 - k)
        out: list[tuple[tuple[int, int], ...]] = [()] * len(self.ops)
        for i in range(len(self.ops) - 1, -1, -1):
            name, locs, _ = self.ops[i]
            out[i] = tuple((fx[q], fz[q]) for q in locs)
            if name == "h":  # H X H = Z, H Z H = X, H Y H = -Y
                q = locs[0]
                sign ^= fx[q] & fz[q]
                fx[q], fz[q] = fz[q], fx[q]
            elif name == "x":  # X Z X = -Z, X Y X = -Y
                sign ^= fx[locs[0]]
            elif name == "cnot":  # X_c -> X_c X_t, Z_t -> Z_c Z_t
                c, t = locs
                sign ^= fz[c] & fx[t] & ~(fz[t] ^ fx[c])
                fx[c] ^= fx[t]
                fz[t] ^= fz[c]
            # id and measure commute with every Pauli
        return out, _stabilizer_marginal(fx, fz, sign, self.num_bits)


def _stabilizer_marginal(fx: list[int], fz: list[int], sign: int, m: int) -> np.ndarray:
    """Measured-bit marginal of |0...0> under the pulled-back observables.

    Multiplying observables to clear their X parts leaves signed Z products,
    whose value on |0...0> is their sign: parity checks on the outcome. Bits
    are taken in turn; a bit whose row keeps an X part is free (set to 0),
    any other is fixed by its check. The law is uniform on that outcome plus
    the span of the fz words.
    """
    pivots: list[tuple[int, int, int, int]] = []  # (x, z, sign, bits) rows
    outcome = 0
    for b in range(m):
        x = sum((w >> b & 1) << q for q, w in enumerate(fz))
        z = sum((w >> b & 1) << q for q, w in enumerate(fx))
        s, bits = sign >> b & 1, 1 << b
        for px, pz, ps, pbits in pivots:
            if x & px & -px:  # multiply in the pivot row to clear its lowest X qubit
                # with P(x, z) = i^|x & z| X^x Z^z, the product's phase is
                # i^(phase - |x' & z'|), always +1 or -1 for commuting rows
                phase = (x & z).bit_count() + (px & pz).bit_count() + 2 * (z & px).bit_count()
                x, z, bits = x ^ px, z ^ pz, bits ^ pbits
                s ^= ps ^ ((phase - (x & z).bit_count()) >> 1 & 1)
        if x:
            pivots.append((x, z, s, bits))
        elif s ^ ((outcome & bits).bit_count() & 1):
            outcome |= 1 << b
    support = np.array([outcome])
    basis: list[int] = []
    for w in fz:
        for v in basis:
            w = min(w, w ^ v)  # clears v's leading bit from w
        if w:
            basis.append(w)
            support = np.concatenate([support, support ^ w])
    law = np.zeros(1 << m)
    law[support] = 1.0 / support.size
    return law


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


def _outcome_law(
    comp: _Compiled, model: CompositeNoiseModel, hidden_readout_strength: float = 0.0
) -> np.ndarray:
    """Observed outcome law, flat in classical-bit order.

    Each noise site mixes the ideal marginal over its flip masks,
    v <- (1 - p) v + p/3 (v[i ^ m_X] + v[i ^ m_Y] + v[i ^ m_Z]). On the
    [2]*m-shaped law, v[i ^ m] is v flipped along the axes of m's set bits,
    so every term is a view; coinciding masks share one term. The readout
    channel then acts on that pre-readout law as a per-bit stochastic matrix.

    With a hidden strength, every bit also flips after readout with
    probability h = min(strength * w, 1), w being the Hamming weight of the
    pre-readout outcome. Given w, readout then that flip is one per-bit
    channel with rates (1 - h) p + h (1 - p), so each weight class of the
    pre-readout law is read out once: O((m + 1) m 2^m) for m measured bits.
    """
    m = comp.num_bits
    law = comp.ideal.reshape([2] * m).copy()  # the loop below reuses its buffer
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
    if hidden_readout_strength == 0.0:
        if rates is not None:
            read_out(pre, *rates)
        return pre
    p0, p1 = rates or (np.zeros(m), np.zeros(m))
    weight = sum((np.arange(pre.size) >> pos) & 1 for pos in range(m))
    law = np.zeros_like(pre)
    for w in range(m + 1):
        part = np.where(weight == w, pre, 0.0)
        h = min(hidden_readout_strength * w, 1.0)
        read_out(part, (1 - h) * p0 + h * (1 - p0), (1 - h) * p1 + h * (1 - p1))
        law += part
    return law


def _to_distribution(vec: np.ndarray, num_bits: int) -> Distribution:
    keep = np.flatnonzero(vec > 1e-15)
    return Distribution.from_arrays(num_bits, keep, vec[keep])


def simulate_ideal(circuit: Circuit) -> Distribution:
    """Exact measurement distribution of the noiseless circuit."""
    comp = _Compiled(circuit)
    return _to_distribution(comp.ideal, comp.num_bits)


def simulate_noisy_exact(circuit: Circuit, model: CompositeNoiseModel) -> Distribution:
    """Channel-averaged outcome distribution under the composite model: the
    compiled circuit's observed outcome law."""
    comp = _Compiled(circuit)
    return _to_distribution(_outcome_law(comp, model), comp.num_bits)


class TrajectorySampler:
    """Reusable sampler for one (circuit, model) pair.

    The circuit is compiled once into the outcome law it draws from (with the
    mock QPU's hidden readout when `hidden_readout_strength` > 0); a draw of
    any number of shots is one multinomial over that law.
    """

    def __init__(self, circuit: Circuit, model: CompositeNoiseModel,
                 hidden_readout_strength: float = 0.0):
        self.law = _outcome_law(_Compiled(circuit), model, hidden_readout_strength)

    def sample(self, shots: int, rng: np.random.Generator,
               rows: int | None = None) -> Counts | np.ndarray:
        """Observed counts of `shots` shots: one multinomial draw from `rng`,
        which advances, so calls on one generator draw in turn.

        With `rows`, the shots split evenly into that many independent count
        sets, returned as a (rows, 2^m) int64 matrix with one count set of
        shots // rows per row. The matrix is one `multinomial(shots // rows,
        law, size=rows)` call, whose rows are exactly those of `rows`
        sequential calls on `rng`, leaving it in the same state.
        """
        if rows is None:
            draws = rng.multinomial(shots, self.law)
            seen = np.flatnonzero(draws)
            return Counts.from_arrays(self.law.size.bit_length() - 1, seen, draws[seen], shots)
        if rows < 1 or shots % rows:
            raise ValueError(f"{shots} shots do not split evenly into {rows} rows")
        return rng.multinomial(shots // rows, self.law, size=rows)


# Unused by the package; kept because the benchmark's span recorder wraps it.
def counts_from_indices(indices: np.ndarray, num_bits: int, shots: int) -> Counts:
    """Counts from per-shot outcome indices."""
    tally = np.bincount(indices, minlength=1 << num_bits)
    seen = np.flatnonzero(tally)
    return Counts.from_arrays(num_bits, seen, tally[seen], shots)
