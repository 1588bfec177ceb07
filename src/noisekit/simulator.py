"""Ideal and noisy simulation through outcome laws built per circuit shape.

Circuits are internally remapped onto their active qubits, so simulation
cost scales with the touched register slice rather than the device size.
Measurements must be terminal per qubit (no gate may act on a qubit after
it is measured) and each qubit may be measured at most once.

Every gate ({H, X, CNOT, id, measure}) is Clifford and every gate channel
is Pauli, so a noisy run is the ideal run with a Pauli error frame on top.
Only the frame's X part reaches the measured bits, as an XOR flip mask. A
circuit's shape (its ops on local qubits and its measured locals, shared
by circuits that differ only in qubit labels) is compiled once, by one
backward sweep over its gates, into the flip masks of an X, Y or Z
injected right after each gate and its ideal measured-bit marginal. The
sweep pulls each measured Z back to the start with its sign; the ideal
state is a stabilizer state, so the marginal is uniform over an affine
GF(2) subspace of outcomes (Aaronson & Gottesman, quant-ph/0406196), and
no amplitude is ever stored. Mixing the ideal marginal over every site's
masks gives the pre-readout law; readout, a per-bit stochastic channel,
turns it into the observed law. A shape's circuits get their laws as one
(K, 2^m) stack, each row with its circuit's rates: the model's `theta` at
each element's `column` (0, a zero rate, for an off channel's elements).
A circuit object is lowered and compiled once and keeps its shape for the
rest of its life, so the mock QPU's run and every model's law of it share
one compile; nothing is kept beyond the circuits. `place` moves a
template's qubits onto others: the placed circuit takes the template's
lowered form (and its shape, once compiled) and is never lowered itself,
so each `run_suite` call compiles each test kind once and places it on
every test's qubits. The exact distribution is that law, and sampling any
number of shots is one multinomial draw from it, one per circuit. The
mock QPU's hidden readout (a sampler's `hidden_readout_strength`) is that
per-bit channel applied to each Hamming-weight class of the pre-readout
law.
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit, Gate
from .errors import TooWide
from .noise import CompositeNoiseModel, read_out
from .outcomes import Counts, Distribution

# Measured-bit guard shared by every entry point, with no per-call override:
# every outcome law is a 2^m array over the m measured bits, while active
# qubits cost only sweep work linear in the gates.
MAX_QUBITS = 24
# The one block rule: a score's draw rows, a stack of laws and a block of
# hidden-readout classes hold at most this many entries (or one row, law or
# class), which bounds their memory and keeps their arrays in CPU cache.
_BLOCK_COUNTS = 2**16
_KEEP, _FLIP = slice(None), slice(None, None, -1)
_NOISY = ("h", "x", "cnot")  # the gates with a depolarizing channel


def _lower(circuit: Circuit) -> tuple[tuple, tuple[int, ...]]:
    """A circuit's shape key (active-qubit count, ops on local qubits,
    measured locals) and its active qubits, local qubit i being actives[i]."""
    actives = circuit.active_qubits()
    local = {q: i for i, q in enumerate(actives)}
    done: set[int] = set()
    ops = []
    for g in circuit.gates:
        for q in g.qubits:
            if q in done:
                raise ValueError(f"gate on qubit {q} after its measurement is unsupported")
        if g.name == "measure":
            done.add(g.qubits[0])
        ops.append((g.name, tuple(local[q] for q in g.qubits)))
    measured = circuit.measured_qubits()
    if len(measured) > MAX_QUBITS:
        raise TooWide(f"{len(measured)} measured bits exceeds the {MAX_QUBITS}-bit guard")
    return (len(actives), tuple(ops), tuple(local[q] for q in measured)), tuple(actives)


def place(template: Circuit, placements: list[tuple[tuple[int, ...], str]]) -> list[Circuit]:
    """`template` on each (qubits, label) of `placements`: its qubit i moved
    to qubits[i], under that label.

    The template is lowered on its first placement. Each placed circuit
    takes the template's lowered form and, once compiled, its shape, with
    its own qubits as the actives: no placed circuit is lowered, and the
    circuits placed from one template share one shape in every `_laws` call.
    A placed circuit inherits the template's gate and register checks, so
    its gates and it are built from their fields; a placement of the wrong
    width, with a repeated or negative qubit, or with an empty label raises
    ValueError as the checking constructors do.
    """
    if template._compiled is None:
        object.__setattr__(template, "_compiled", (*_lower(template), None))
    key, actives, shape = template._compiled
    distinct = {id(g): g for g in template.gates}  # each gate object, moved once per placement
    slot = {i: k for k, i in enumerate(distinct)}
    order = [slot[id(g)] for g in template.gates]
    circuits = []
    for qubits, label in placements:
        if len(qubits) != template.num_qubits or len(set(qubits)) < len(qubits):
            raise ValueError(f"cannot place a {template.num_qubits}-qubit circuit on {qubits}")
        at = qubits.__getitem__
        placed = tuple(map(at, actives))
        if min(placed, default=0) < 0:
            raise ValueError("negative qubit index")
        if not label:
            raise ValueError("circuit label must be nonempty")
        gates = [Gate._of(g.name, tuple(map(at, g.qubits)), g.clbit) for g in distinct.values()]
        circuits.append(Circuit._of(max(qubits, default=-1) + 1, template.num_clbits,
                                    tuple(map(gates.__getitem__, order)), label,
                                    (key, placed, shape)))
    return circuits


class _Shape:
    """A circuit without its qubit labels: local ops, measured locals, and the
    flip masks, ideal marginal and noise-site plan of one backward sweep."""

    def __init__(self, n: int, ops: tuple, measured_locals: tuple[int, ...]):
        self.n, self.ops, self.measured_locals = n, ops, measured_locals
        self.num_bits = m = len(measured_locals)
        self.flips, self.ideal = self._sweep()
        # Each (kind, local qubits) element once, whose theta column a circuit
        # of this shape reads: its noisy gates' ops, then its readout rates.
        element = {op: k for k, op in enumerate(dict.fromkeys(g for g in ops if g[0] in _NOISY))}
        self.elements = [*element, *((k, (q,)) for q in measured_locals for k in ("p0", "p1"))]
        self.readouts = slice(len(element), None)
        # Per noise site, its op's element and the distinct masks of its X, Y
        # and Z as flipping indices: three, or one when two coincide (the
        # third is 0).
        self.site_elements, self.sites = [], []
        for op, flips in zip(ops, self.flips):
            for fx, fz in flips if op[0] in _NOISY else ():
                if fx or fz:
                    masks = (fx, fx ^ fz, fz) if fx and fz and fx != fz else (fx or fz,)
                    self.site_elements.append(element[op])
                    self.sites.append(tuple(self._flip(mask) for mask in masks))
        merged = [len(site) == 1 for site in self.sites]  # two masks share one term
        self.merged = np.array(merged, dtype=float).reshape(-1, 1, *[1] * m)

    def _flip(self, mask: int) -> tuple[slice, ...]:
        return (_KEEP, *(_FLIP if c == "1" else _KEEP for c in format(mask, f"0{self.num_bits}b")))

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
            name, locs = self.ops[i]
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


def _outcome_laws(shape: _Shape, rates: np.ndarray,
                  hidden_readout_strength: float = 0.0) -> np.ndarray:
    """Observed outcome laws of K circuits of one shape, a (K, 2^m) stack in
    classical-bit order, from the (K, elements) rates of `shape.elements`:
    its gates' depolarizing rates, then each measured bit's p0 and p1.

    Each noise site mixes the ideal marginal over its flip masks,
    v <- (1 - p) v + p/3 (v[i ^ m_X] + v[i ^ m_Y] + v[i ^ m_Z]). On a
    [2]*m-shaped law, v[i ^ m] is v flipped along the axes of m's set bits,
    so every term is a view; coinciding masks share one term. Weights are
    columns over the stack, so each row gets the float operations of its
    own one-circuit pass (a zero rate is an exact no-op; all-zero sites and
    readout are skipped). Readout then acts as a per-bit stochastic matrix.

    With a hidden strength, every bit also flips after readout with
    probability h = min(strength * w, 1), w being the pre-readout outcome's
    Hamming weight: per class, one per-bit channel of rates
    (1 - h) p + h (1 - p). Classes that carry mass are read out in stacked
    blocks and summed in weight order.
    """
    k, m = rates.shape[0], shape.num_bits
    rates, readout = rates[:, shape.site_elements], rates[:, shape.readouts].reshape(k, m, 2)
    p = rates.T.reshape(len(shape.sites), k, *[1] * m)
    third = p / 3.0
    shared = third * shape.merged  # p/3 more on both weights of a merged site
    stay, move = 1.0 - p + shared, third + shared
    law = shape.ideal[None].repeat(k, axis=0).reshape(k, *[2] * m)
    mixed, term = np.empty_like(law), np.empty_like(law)
    for flips, noisy, kept_weight, flip_weight in zip(shape.sites, rates.any(axis=0), stay, move):
        if not noisy:
            continue
        np.multiply(law, kept_weight, out=mixed)
        for flip in flips:
            mixed += np.multiply(law[flip], flip_weight, out=term)
        law, mixed = mixed, law
    pre = law.reshape(k, -1)
    p0, p1 = readout[..., 0], readout[..., 1]
    if hidden_readout_strength == 0.0:
        if readout.any():
            read_out(pre, p0, p1)
        return pre
    weight = sum(((np.arange(1 << m) >> pos) & 1 for pos in range(m)), np.zeros(1 << m, int))
    classes = np.flatnonzero(np.bincount(weight, (pre != 0.0).any(axis=0)))  # with mass
    law = np.zeros_like(pre)
    block = max(1, _BLOCK_COUNTS // pre.size)
    for start in range(0, classes.size, block):
        w = classes[start:start + block, None, None]
        h = np.minimum(hidden_readout_strength * w, 1.0)
        parts = np.where(weight == w, pre, 0.0)
        read_out(parts, (1 - h) * p0 + h * (1 - p0), (1 - h) * p1 + h * (1 - p1))
        for part in parts:
            law += part
    return law


def _compile(circuit: Circuit, shapes: dict) -> tuple:
    """A circuit's (shape key, active qubits, shape), kept on the circuit
    object for every later call. The lowered form is made on the object's
    first use, or taken from its template when it was placed: each
    `run_suite` call compiles a test kind once and places it on every
    test's qubits (`place`). The shape is made on the object's first
    compile, or taken from `shapes`, one call's key -> shape map, which this
    fills. Only the compile is shared: each circuit still gets its own
    rates (its elements' `theta` columns, per call), its own law and its own
    draw."""
    if circuit._compiled is None:
        object.__setattr__(circuit, "_compiled", (*_lower(circuit), None))
    key, actives, shape = circuit._compiled
    if shape is None:
        shape = shapes[key] if key in shapes else _Shape(*key)
        object.__setattr__(circuit, "_compiled", (key, actives, shape))
    shapes.setdefault(key, shape)
    return circuit._compiled


def _laws(circuits: list[Circuit], model: CompositeNoiseModel,
          hidden_readout_strength: float = 0.0) -> list[np.ndarray]:
    """Each circuit's observed outcome law. Each circuit object is lowered
    and compiled once, circuits of one shape new to a call share one shape,
    each circuit's rates are one gather from the model's `theta`, and a
    shape's laws are built in stacks of at most max(1, 2^16 >> m) rows."""
    groups: dict[tuple, list] = {}
    shapes: dict[tuple, _Shape] = {}
    for i, circuit in enumerate(circuits):
        key, actives, shape = _compile(circuit, shapes)
        groups.setdefault(key, []).append((i, [
            model.column(kind, tuple(map(actives.__getitem__, locs)))
            for kind, locs in shape.elements]))
    laws: dict[int, np.ndarray] = {}
    for key, members in groups.items():
        shape = shapes[key]
        block = max(1, _BLOCK_COUNTS >> shape.num_bits)
        for start in range(0, len(members), block):
            rows, columns = zip(*members[start:start + block])
            laws.update(zip(rows, _outcome_laws(
                shape, model.theta[np.array(columns, np.intp)], hidden_readout_strength)))
    return [laws[i] for i in range(len(circuits))]


def _to_distribution(vec: np.ndarray, num_bits: int) -> Distribution:
    keep = np.flatnonzero(vec > 1e-15)
    return Distribution.from_arrays(num_bits, keep, vec[keep])


def simulate_ideal(circuit: Circuit) -> Distribution:
    """Exact measurement distribution of the noiseless circuit."""
    shape = _compile(circuit, {})[2]
    return _to_distribution(shape.ideal, shape.num_bits)


def simulate_noisy_exact(circuit: Circuit, model: CompositeNoiseModel) -> Distribution:
    """Channel-averaged outcome distribution under the composite model: the
    compiled circuit's observed outcome law."""
    law = _laws([circuit], model)[0]
    return _to_distribution(law, law.size.bit_length() - 1)


class TrajectorySampler:
    """Reusable sampler for one (circuit, model) pair.

    The circuit is compiled once into the outcome law it draws from; a draw
    of any number of shots is one multinomial over that law.
    """

    def __init__(self, circuit: Circuit, model: CompositeNoiseModel):
        self.law = _laws([circuit], model)[0]

    @classmethod
    def for_circuits(cls, circuits: list[Circuit], model: CompositeNoiseModel,
                     hidden_readout_strength: float = 0.0) -> list["TrajectorySampler"]:
        """One sampler per circuit, each holding the law `cls(circuit, model)`
        would, with the mock QPU's hidden readout when `hidden_readout_strength`
        > 0; circuits of one shape share a stack."""
        samplers = [cls.__new__(cls) for _ in circuits]
        for sampler, law in zip(samplers, _laws(circuits, model, hidden_readout_strength)):
            sampler.law = law
        return samplers

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
            # ascending distinct in-range indices whose counts make `shots`
            return Counts._of(self.law.size.bit_length() - 1, seen, draws[seen], shots)
        if rows < 1 or shots % rows:
            raise ValueError(f"{shots} shots do not split evenly into {rows} rows")
        return rng.multinomial(shots // rows, self.law, size=rows)


# Unused by the package; kept because the benchmark's span recorder wraps it.
def counts_from_indices(indices: np.ndarray, num_bits: int, shots: int) -> Counts:
    """Counts from per-shot outcome indices."""
    tally = np.bincount(indices, minlength=1 << num_bits)
    seen = np.flatnonzero(tally)
    return Counts.from_arrays(num_bits, seen, tally[seen], shots)
