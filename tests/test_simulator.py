import copy
import dataclasses

import numpy as np
import pytest

from dm_oracle import exact_outcome_vector
from law_oracle import compile_shape, one_by_one_counts, one_by_one_law
from trajectory_oracle import sample_trajectories
from noisekit import simulator
from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import TestKind, build_suite, materialize
from noisekit.circuit import Circuit, DeviceTopology, cnot, h, identity, measure, x
from noisekit.devices import jittered_truth, ladder20, line
from noisekit.errors import TooWide
from noisekit.noise import CompositeNoiseModel, ReadoutModel
from noisekit.outcomes import Counts
from noisekit.rng import generator
from noisekit.simulator import (
    MAX_QUBITS,
    TrajectorySampler,
    simulate_ideal,
    simulate_noisy_exact,
)


def _uniform_model(p_x=0.0, p_h=0.0, p_cnot=0.0, p0=0.0, p1=0.0,
                   readout_on=True, cnot_dp_on=True):
    return CompositeNoiseModel(
        granularity="register_average",
        avg_readout=ReadoutModel(p0, p1),
        avg_x=p_x,
        avg_h=p_h,
        avg_cnot=p_cnot,
        readout_on=readout_on,
        cnot_dp_on=cnot_dp_on,
    )


NOISELESS = CompositeNoiseModel.noiseless()


def _tvd(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


# -- simulate_ideal ------------------------------------------------------------

def test_ideal_ghz2(bell_circuit):
    dist = simulate_ideal(bell_circuit)
    assert dist.prob("00") == pytest.approx(0.5, abs=1e-12)
    assert dist.prob("11") == pytest.approx(0.5, abs=1e-12)
    assert dist.prob("01") == 0.0


def test_ideal_x_gate():
    dist = simulate_ideal(Circuit(1, 1, (x(0), measure(0, 0)), "x"))
    assert dist.prob("1") == pytest.approx(1.0, abs=1e-12)


def test_ideal_hh_involution():
    dist = simulate_ideal(Circuit(1, 1, (h(0), h(0), measure(0, 0)), "hh"))
    assert dist.prob("0") == pytest.approx(1.0, abs=1e-12)


def test_ideal_identity_gate_noop():
    dist = simulate_ideal(Circuit(1, 1, (identity(0), measure(0, 0)), "id"))
    assert dist.prob("0") == pytest.approx(1.0, abs=1e-12)


def test_ideal_too_wide():
    """The guard bounds measured bits, the width of every outcome law, not
    active qubits, which cost only sweep work."""
    width = MAX_QUBITS + 1
    gates = tuple(h(q) for q in range(width))
    with pytest.raises(TooWide):
        simulate_ideal(Circuit(width, width, gates + tuple(measure(q, q) for q in range(width)),
                               "wide"))
    dist = simulate_ideal(Circuit(width, 1, gates + (measure(0, 0),), "wide"))
    assert dist.probs == {"0": 0.5, "1": 0.5}


def test_ideal_remaps_active_qubits():
    # Large register, only two active qubits: must not allocate 2^30 states.
    circuit = Circuit(30, 2, (h(17), cnot(17, 23), measure(17, 0), measure(23, 1)), "b")
    dist = simulate_ideal(circuit)
    assert dist.prob("00") == pytest.approx(0.5, abs=1e-12)


def test_mid_circuit_measurement_rejected():
    circuit = Circuit(1, 1, (measure(0, 0), x(0)), "bad")
    with pytest.raises(ValueError):
        simulate_ideal(circuit)


# -- Pauli-frame flip masks ----------------------------------------------------

def test_flip_mask_z_before_final_h_flips_bit():
    comp = compile_shape(Circuit(1, 1, (h(0), h(0), measure(0, 0)), "hh"))
    assert comp.flips[0] == ((0, 1),)  # (X flips, Z flips) after the first H


def test_flip_mask_x_on_control_before_cnot_flips_both_bits(bell_circuit):
    comp = compile_shape(bell_circuit)
    assert comp.flips[0] == ((0b11, 0),)


def test_flip_mask_z_on_measured_qubit_flips_nothing():
    comp = compile_shape(Circuit(1, 1, (h(0), measure(0, 0)), "h"))
    assert comp.flips[0] == ((1, 0),)


def test_flip_masks_follow_classical_bit_order():
    # qubit 0 -> clbit 1 (least significant of two bits), qubit 1 -> clbit 0
    circuit = Circuit(3, 2, (x(0), x(1), x(2), measure(0, 1), measure(1, 0)), "swap")
    comp = compile_shape(circuit)
    assert comp.flips[:3] == [((0b01, 0),), ((0b10, 0),), ((0, 0),)]


# -- simulate_noisy_exact ------------------------------------------------------

def test_exact_noiseless_limit(bell_circuit):
    dist = simulate_noisy_exact(bell_circuit, _uniform_model())
    assert dist.prob("00") == pytest.approx(0.5, abs=1e-12)
    assert dist.prob("11") == pytest.approx(0.5, abs=1e-12)


def test_exact_full_depolarization(bell_circuit):
    dist = simulate_noisy_exact(bell_circuit, _uniform_model(p_cnot=0.75))
    for key in ("00", "01", "10", "11"):
        assert dist.prob(key) == pytest.approx(0.25, abs=1e-12)


def test_exact_bell_p01(bell_circuit):
    # Frozen from direct evaluation of the quadratic closed form at p=0.1.
    dist = simulate_noisy_exact(bell_circuit, _uniform_model(p_cnot=0.1))
    assert dist.prob("00") == pytest.approx(0.4377777778, abs=1e-9)
    assert dist.prob("11") == pytest.approx(0.4377777778, abs=1e-9)
    assert dist.prob("01") == pytest.approx(0.0622222222, abs=1e-9)
    assert dist.prob("10") == pytest.approx(0.0622222222, abs=1e-9)


def test_exact_equals_ideal_at_zero_noise():
    rng = np.random.default_rng(2)
    for trial in range(10):
        circuit = _random_circuit(rng, n=3)
        ideal = simulate_ideal(circuit)
        exact = simulate_noisy_exact(circuit, NOISELESS)
        assert _tvd(dict(ideal.items()), dict(exact.items())) < 1e-12


def _random_oracle_case(rng, trial):
    """Random H/X/CNOT/id circuit on <= 5 of 6 register qubits, measuring a
    random subset (possibly none) onto shuffled classical bits, under a
    random per-element model."""
    register = 6
    n = int(rng.integers(1, 6))
    qubits = [int(q) for q in rng.choice(register, size=n, replace=False)]
    gates = []
    for _ in range(int(rng.integers(1, 12))):
        kind = int(rng.integers(0, 4 if n >= 2 else 3))
        q = qubits[int(rng.integers(0, n))]
        if kind == 0:
            gates.append(h(q))
        elif kind == 1:
            gates.append(x(q))
        elif kind == 2:
            gates.append(identity(q))
        else:
            a, b = rng.choice(qubits, size=2, replace=False)
            gates.append(cnot(int(a), int(b)))
    active = sorted({q for g in gates for q in g.qubits})
    measured = [int(q) for q in rng.permutation(active)[: int(rng.integers(0, len(active) + 1))]]
    clbits = rng.permutation(len(measured))
    gates += [measure(q, int(c)) for q, c in zip(measured, clbits)]
    pairs = [(a, b) for a in range(register) for b in range(a + 1, register)]
    model = CompositeNoiseModel(
        readout={q: ReadoutModel(*rng.uniform(0, 0.3, size=2)) for q in range(register)},
        x_gate={q: float(rng.uniform(0, 0.5)) for q in range(register)},
        h_gate={q: float(rng.uniform(0, 0.5)) for q in range(register)},
        cnot={pair: float(rng.uniform(0, 0.5)) for pair in pairs},
        readout_on=bool(rng.integers(0, 2)),
        cnot_dp_on=bool(rng.integers(0, 2)),
    )
    return Circuit(register, len(measured), tuple(gates), f"oracle{trial}"), model


def test_exact_matches_density_matrix_oracle():
    rng = np.random.default_rng(7)
    for trial in range(300):
        circuit, model = _random_oracle_case(rng, trial)
        expected = exact_outcome_vector(circuit, model)
        got = np.zeros(expected.size)
        for key, p in simulate_noisy_exact(circuit, model).items():
            got[int(key, 2) if key else 0] = p
        assert np.max(np.abs(got - expected)) <= 1e-12, (trial, circuit)


def test_exact_too_wide():
    """Exact scoring shares the sampler's guard: it refuses one measured bit
    beyond it and accepts the widths the old 8-qubit guard refused."""
    width = MAX_QUBITS + 1
    gates = tuple(h(q) for q in range(width)) + tuple(measure(q, q) for q in range(width))
    with pytest.raises(TooWide):
        simulate_noisy_exact(Circuit(width, width, gates, "wide"), NOISELESS)
    ghz = (h(0), *(cnot(q, q + 1) for q in range(11)), *(measure(q, q) for q in range(12)))
    dist = simulate_noisy_exact(Circuit(12, 12, ghz, "ghz12"), _uniform_model(p_cnot=0.01))
    assert sum(p for _, p in dist.items()) == pytest.approx(1.0, abs=1e-12)


# -- sampled draws ---------------------------------------------------------------

def test_sampled_noiseless_support(bell_circuit):
    counts = TrajectorySampler(bell_circuit, NOISELESS).sample(8192, generator(1))
    assert set(counts.counts) == {"00", "11"}
    assert counts.shots == 8192


def test_sampled_deterministic(bell_circuit):
    model = _uniform_model(p_cnot=0.1, p0=0.02, p1=0.07)
    a = TrajectorySampler(bell_circuit, model).sample(4096, generator(9))
    b = TrajectorySampler(bell_circuit, model).sample(4096, generator(9))
    assert a == b
    c = TrajectorySampler(bell_circuit, model).sample(4096, generator(10))
    assert a != c


def test_sampled_converges_to_exact(bell_circuit):
    model = _uniform_model(p_cnot=0.02, p_x=0.0033, p0=0.0212, p1=0.0681)
    exact = simulate_noisy_exact(bell_circuit, model)
    counts = TrajectorySampler(bell_circuit, model).sample(10**6, generator(3))
    assert _tvd(counts.frequencies(), dict(exact.items())) <= 0.005


def test_sampled_zero_shots(bell_circuit):
    counts = TrajectorySampler(bell_circuit, NOISELESS).sample(0, generator(0))
    assert counts.shots == 0 and counts.counts == {}


def _random_circuit(rng, n, depth=6, label="rand"):
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 3 if n >= 2 else 2)
        if kind == 0:
            gates.append(h(int(rng.integers(0, n))))
        elif kind == 1:
            gates.append(x(int(rng.integers(0, n))))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(cnot(int(a), int(b)))
    gates += [measure(q, q) for q in range(n)]
    return Circuit(n, n, tuple(gates), label)


def _random_model(rng):
    return _uniform_model(
        p_x=float(rng.uniform(0, 0.05)),
        p_cnot=float(rng.uniform(0, 0.15)),
        p0=float(rng.uniform(0, 0.1)),
        p1=float(rng.uniform(0, 0.1)),
    )


def _frequencies(indices: np.ndarray, size: int) -> np.ndarray:
    return np.bincount(indices, minlength=size) / indices.size


def test_oracle_equivalence_exact_vs_sampled():
    """Exact channel averaging and per-shot trajectory sampling (the oracle)
    agree for all widths up to 4 on a randomized test set."""
    rng = np.random.default_rng(2024)
    for trial in range(8):
        n = int(rng.integers(1, 5))
        circuit = _random_circuit(rng, n, label=f"rand{trial}")
        model = _random_model(rng)
        exact = simulate_noisy_exact(circuit, model)
        _, obs = sample_trajectories(circuit, model, 10**5, seed=trial)
        freqs = {format(i, f"0{n}b"): f for i, f in enumerate(_frequencies(obs, 1 << n))}
        assert _tvd(freqs, dict(exact.items())) <= 0.01


def _pre_readout_law(circuit, model):
    """The law a sampler draws from with the model's readout off."""
    return TrajectorySampler(circuit, dataclasses.replace(model, readout_on=False)).law


def test_sampler_laws_match_exact_and_density_matrix_oracle():
    """The sampler draws from the exact observed law, and with readout off
    from the density-matrix oracle's law with readout off."""
    rng = np.random.default_rng(7)
    for trial in range(300):
        circuit, model = _random_oracle_case(rng, trial)
        law = TrajectorySampler(circuit, model).law
        exact = np.zeros(law.size)
        for key, p in simulate_noisy_exact(circuit, model).items():
            exact[int(key, 2) if key else 0] = p
        assert np.max(np.abs(law - exact)) <= 1e-12, (trial, circuit)
        bare = exact_outcome_vector(circuit, dataclasses.replace(model, readout_on=False))
        assert np.max(np.abs(_pre_readout_law(circuit, model) - bare)) <= 1e-12, (trial, circuit)


def _clbit_rates(circuit, model):
    """Per classical bit (p0, p1) of the model's readout; zeros when it is off."""
    off = ReadoutModel(0.0, 0.0)
    ros = [model.readout_for(q) if model.readout_on else off
           for q in circuit.measured_qubits()]
    return [r.p0 for r in ros], [r.p1 for r in ros]


def _pair_law(pre, p0, p1, strength=0.0):
    """Brute-force joint law of (pre-readout i, observed j): pre[i] times,
    per bit, the readout matrix followed by the hidden flip matrix at the
    weight of i, each a 2x2 column-stochastic matrix."""
    m = len(p0)
    pairs = np.zeros((1 << m, 1 << m))
    for i in range(1 << m):
        bits = [(i >> (m - 1 - b)) & 1 for b in range(m)]
        f = min(1.0, strength * sum(bits))
        hidden = np.array([[1 - f, f], [f, 1 - f]])
        per_bit = [hidden @ np.array([[1 - p0[b], p1[b]], [p0[b], 1 - p1[b]]])
                   for b in range(m)]
        for j in range(1 << m):
            pairs[i, j] = pre[i] * np.prod(
                [per_bit[b][(j >> (m - 1 - b)) & 1, bits[b]] for b in range(m)])
    return pairs


def test_readout_pairs_match_trajectory_oracle():
    """The oracle's matched (pre-readout, observed) pairs follow the joint
    law the sampler implies: its readout-free law through per-bit readout.

    A 10^5-shot empirical law over K cells sits sum_k sqrt(p_k / (2 pi N))
    from its exact law in expected TVD, at most 8 / sqrt(2 pi 10^5) = 0.010
    for the 64 cells of three bits.
    """
    rng = np.random.default_rng(11)
    shots = 10**5
    for trial in range(6):
        n = int(rng.integers(1, 4))
        circuit = _random_circuit(rng, n, label=f"pairs{trial}")
        model = _random_model(rng)
        cells = 1 << (2 * n)
        want = _pair_law(_pre_readout_law(circuit, model),
                         *_clbit_rates(circuit, model)).reshape(-1)
        pre, obs = sample_trajectories(circuit, model, shots, seed=100 + trial)
        got = _frequencies((pre << n) | obs, cells)
        assert 0.5 * np.abs(got - want).sum() <= 0.03, (trial, circuit)


HIDDEN_STRENGTHS = (0.0, 0.04, 0.3, 0.6)


def test_hidden_readout_law_matches_brute_force():
    """A sampler's law at a hidden strength is the brute-force sum over the
    density-matrix oracle's pre-readout law, with the flip rate clipped at 1."""
    rng = np.random.default_rng(5)
    cases = [(_random_circuit(rng, int(rng.integers(1, 5)), label=f"hid{t}"),
              _random_model(rng)) for t in range(200)]
    cases += [_random_oracle_case(rng, t) for t in range(100)]
    clipped = 0
    for trial, (circuit, model) in enumerate(cases):
        strength = HIDDEN_STRENGTHS[trial % len(HIDDEN_STRENGTHS)]
        pre = exact_outcome_vector(circuit, dataclasses.replace(model, readout_on=False))
        want = _pair_law(pre, *_clbit_rates(circuit, model), strength).sum(axis=0)
        got = TrajectorySampler.for_circuits([circuit], model, strength)[0].law
        assert np.max(np.abs(got - want)) <= 1e-12, (trial, strength, circuit)
        weights = [bin(i).count("1") for i in range(pre.size)]
        clipped += any(strength * w > 1 and p > 0 for w, p in zip(weights, pre))
    assert clipped


def test_hidden_backend_counts_match_trajectory_oracle():
    """Mock QPU counts under hidden readout have the per-shot oracle's law.

    Two independent 10^5-shot empirical laws over K cells sit
    sum_k sqrt(p_k / (pi N)) apart in expected TVD, at most
    4 / sqrt(pi 10^5) = 0.0071 for the 16 cells of four bits.
    """
    rng = np.random.default_rng(13)
    shots = 10**5
    for trial in range(6):
        n = int(rng.integers(1, 5))
        circuit = _random_circuit(rng, n, label=f"hidden{trial}")
        model = _random_model(rng)
        strength = HIDDEN_STRENGTHS[1 + trial % 3]
        topo = DeviceTopology(n, tuple((a, b) for a in range(n) for b in range(a + 1, n)))
        backend = MockBackend(topo, MockGroundTruth(model, strength))
        counts = backend.run([circuit], shots, seed=trial)[0]
        got = np.zeros(1 << n)
        for key, c in counts.counts.items():
            got[int(key, 2)] = c / shots
        _, obs = sample_trajectories(circuit, model, shots, seed=200 + trial,
                                     hidden_strength=strength)
        want = _frequencies(obs, 1 << n)
        assert 0.5 * np.abs(got - want).sum() <= 0.03, (trial, strength, circuit)


def test_sampler_reuse_matches_one_shot_calls(bell_circuit):
    model = _uniform_model(p_cnot=0.05, p0=0.01, p1=0.03)
    sampler = TrajectorySampler(bell_circuit, model)
    a = sampler.sample(2048, generator(5))
    b = sampler.sample(2048, generator(5))
    assert a == b
    assert a == TrajectorySampler(bell_circuit, model).sample(2048, generator(5))
    shared = generator(5)  # one generator: successive calls draw in turn
    assert sampler.sample(2048, shared) == a and sampler.sample(2048, shared) != a


def _draws_in_turn(sampler, shots, rng, calls):
    """`calls` one-row draws on `rng`, as a count matrix."""
    rows = np.zeros((calls, sampler.law.size), dtype=np.int64)
    for row in rows:
        counts = sampler.sample(shots, rng)
        row[counts.indices] = counts.values
    return rows


@pytest.mark.parametrize("width", range(1, 11))
def test_row_draws_are_one_row_draws_in_turn(width):
    """`sample(R * n, rng, rows=R)` is the R draws of n shots that R calls
    of `sample(n, rng)` take in turn, row for row, and leaves `rng` where
    they leave it; blocks of rows drawn in turn continue the same stream."""
    rng = np.random.default_rng(width)
    sampler = TrajectorySampler(_random_circuit(rng, width, depth=2 * width),
                                _random_model(rng))
    shots = int(rng.integers(1, 3000))
    matrix_rng, calls_rng = generator(width), generator(width)
    for rows in (3, 1, 5):
        block = sampler.sample(rows * shots, matrix_rng, rows=rows)
        assert block.shape == (rows, 1 << width) and block.dtype == np.int64
        assert (block.sum(axis=1) == shots).all()
        assert np.array_equal(block, _draws_in_turn(sampler, shots, calls_rng, rows))
        assert matrix_rng.bit_generator.state == calls_rng.bit_generator.state


def test_row_draws_across_a_score_block_boundary():
    """Blocks of rows drawn in turn continue one stream: after a block of
    256 rows, the next block's first row is the 257th one-row draw."""
    rng = np.random.default_rng(10)
    sampler = TrajectorySampler(_random_circuit(rng, 10, depth=20), _random_model(rng))
    matrix_rng, calls_rng = generator(3), generator(3)
    blocks = np.vstack([sampler.sample(256 * 100, matrix_rng, rows=256),
                        sampler.sample(100, matrix_rng, rows=1)])
    assert np.array_equal(blocks, _draws_in_turn(sampler, 100, calls_rng, 257))
    assert matrix_rng.bit_generator.state == calls_rng.bit_generator.state


@pytest.mark.parametrize("shots, rows", [(10, 0), (0, 0), (10, -1), (10, 3), (7, 2)])
def test_row_draws_need_rows_that_split_the_shots(bell_circuit, shots, rows):
    with pytest.raises(ValueError):
        TrajectorySampler(bell_circuit, NOISELESS).sample(shots, generator(0), rows=rows)


# -- laws built per circuit shape ----------------------------------------------

HIDDEN_CASES = (0.0, 0.04, 0.6)  # 0.6 clips the flip rate at 1 from weight 2 on


def _patchy_truth(topo, seed):
    """A per-element truth with zero gate rates on every other qubit and
    coupling, nonzero H rates on the rest, and perfect readout on every
    third qubit, so that one stack's rows mix zero and nonzero rates."""
    truth = jittered_truth(topo, seed)
    rng = np.random.default_rng(seed)
    return dataclasses.replace(
        truth,
        x_gate={q: p * (q % 2) for q, p in truth.x_gate.items()},
        h_gate={q: float(rng.uniform(0.0, 0.03)) * (q % 2) for q in truth.x_gate},
        cnot={e: p * (i % 2) for i, (e, p) in enumerate(truth.cnot.items())},
        readout={q: r if q % 3 else ReadoutModel(0.0, 0.0) for q, r in truth.readout.items()},
    )


def _chain(qubits, label):
    """GHZ-style chain over `qubits`; chains of one length over increasing
    qubits share one shape."""
    gates = [h(qubits[0])] + [cnot(a, b) for a, b in zip(qubits, qubits[1:])]
    return Circuit(max(qubits) + 1, len(qubits),
                   tuple(gates) + tuple(measure(q, k) for k, q in enumerate(qubits)), label)


def _mixed_plan(topo):
    """A suite (repeated one- and two-bit shapes on every qubit and
    coupling), chains of 3 and 6 bits at four offsets, and GHZ circuits."""
    circuits = [materialize(t) for t in build_suite(topo, hadamard_lengths=(2, 4)).tests]
    circuits += [_chain(range(s, s + n), f"chain{n}:{s}") for n in (3, 6) for s in range(4)]
    return circuits + [_chain(range(n), f"ghz{n}") for n in (2, 5, 8)]


def _assert_laws_are_one_by_one_laws(circuits, model, strength):
    samplers = TrajectorySampler.for_circuits(circuits, model, strength)
    assert len(samplers) == len(circuits)
    for circuit, sampler in zip(circuits, samplers):
        want = one_by_one_law(circuit, model, strength).tobytes()
        assert sampler.law.tobytes() == want, (circuit.label, strength)
        one = TrajectorySampler.for_circuits([circuit], model, strength)[0]
        assert one.law.tobytes() == want, circuit.label
        if not strength:
            assert TrajectorySampler(circuit, model).law.tobytes() == want, circuit.label


@pytest.mark.parametrize("strength", HIDDEN_CASES)
@pytest.mark.parametrize("flags", [(True, True), (False, True), (True, False)])
def test_stacked_laws_are_one_by_one_laws(strength, flags):
    """Laws built per shape equal, bit for bit, the laws of the one-circuit
    loop, which skipped zero-rate sites that a stack mixes with weights 1
    and 0; with readout or CNOT depolarizing off too."""
    topo = line(16)
    model = dataclasses.replace(_patchy_truth(topo, 3), readout_on=flags[0], cnot_dp_on=flags[1])
    _assert_laws_are_one_by_one_laws(_mixed_plan(topo), model, strength)


@pytest.mark.parametrize("strength", HIDDEN_CASES)
def test_mock_counts_are_the_per_circuit_loop_counts(strength):
    """A mock run's counts are those of the per-circuit loop: each
    circuit's own law drawn in turn, in plan order, on (seed, BACKEND)."""
    topo = line(16)
    truth = _patchy_truth(topo, 4)
    circuits = _mixed_plan(topo)
    got = MockBackend(topo, MockGroundTruth(truth, strength)).run(circuits, 4096, seed=7)
    want = one_by_one_counts(circuits, truth, strength, 4096, 7)
    for circuit, counts, draw in zip(circuits, got, want):
        seen = np.flatnonzero(draw)
        assert counts.shots == 4096, circuit.label
        assert np.array_equal(counts.indices, seen), circuit.label
        assert np.array_equal(counts.values, draw[seen]), circuit.label


@pytest.mark.parametrize("strength", HIDDEN_CASES)
def test_a_shape_group_split_by_the_block_rule(strength):
    """Twenty 12-bit chains of one shape on different qubits fill more than
    one stack of 2^16 >> 12 = 16 laws; every law is still the one-by-one
    law, in plan order."""
    width, rows = 12, 20
    assert rows > simulator._BLOCK_COUNTS >> width
    topo = line(width + rows)
    circuits = [_chain(range(s, s + width), f"chain:{s}") for s in range(rows)]
    _assert_laws_are_one_by_one_laws(circuits, _patchy_truth(topo, 5), strength)


@pytest.mark.parametrize("width", [13, 14])
def test_hidden_classes_across_blocks(width):
    """At 13 and 14 bits the 14 and 15 weight classes of a stack of two laws
    span several blocks of classes (2^16 >> width over two rows, so 4 and 2
    classes per block); the classes still sum in weight order."""
    per_block = simulator._BLOCK_COUNTS // (2 << width)
    topo = line(width + 1)
    truth = _patchy_truth(topo, width)
    circuits = [_chain(range(s, s + width), f"chain:{s}") for s in range(2)]
    bare = dataclasses.replace(truth, readout_on=False)
    weights = np.array([i.bit_count() for i in range(1 << width)])
    carried = {w for c in circuits for w in weights[one_by_one_law(c, bare) != 0.0]}
    assert len(carried) > per_block
    for strength in HIDDEN_CASES[1:]:
        _assert_laws_are_one_by_one_laws(circuits, truth, strength)


@pytest.mark.parametrize("bits", [0, 1, 3, 10])
def test_a_draw_is_its_checked_counts(bits):
    """A draw's counts, built without the count checks, equal the checked
    counts of the same draw from a copy of the generator."""
    rng = np.random.default_rng(bits)
    for shots in (1, 7, 4096):
        sampler = TrajectorySampler.__new__(TrajectorySampler)
        law = rng.random(1 << bits) * (rng.random(1 << bits) < 0.5)
        law[rng.integers(1 << bits)] += 0.1
        sampler.law = law / law.sum()
        twin = copy.deepcopy(rng)
        got = sampler.sample(shots, rng)
        draws = twin.multinomial(shots, sampler.law)
        seen = np.flatnonzero(draws)
        assert got == Counts.from_arrays(bits, seen, draws[seen], shots)
        assert got.num_bits == bits and got.indices.dtype == got.values.dtype == np.int64


def test_the_qpu_suite_compiles_each_shape_once(monkeypatch):
    """The 163 circuits of a ladder suite with trains 2, 4, 8 and 16 are 8
    shapes (init, x, xx, four trains, Bell), each compiled once."""
    keys = []

    class CountingShape(simulator._Shape):
        def __init__(self, *key):
            keys.append(key)
            super().__init__(*key)

    monkeypatch.setattr(simulator, "_Shape", CountingShape)
    topo = ladder20()
    plan = build_suite(topo, hadamard_lengths=(2, 4, 8, 16))
    TrajectorySampler.for_circuits([materialize(t) for t in plan.tests], jittered_truth(topo, 1))
    assert len(plan.tests) == 163
    assert len(keys) == len(set(keys)) == 8


def test_a_placement_takes_one_distinct_qubit_per_template_qubit():
    """`place` moves a template's qubit i to qubits[i]: a repeated qubit or a
    placement of the wrong width is refused, and so is a negative qubit,
    by the gate it would make."""
    template = materialize(TestKind("bell", coupling=(0, 1)))
    for qubits in ((2, 2), (1,), (0, 1, 2)):
        with pytest.raises(ValueError, match="cannot place"):
            simulator.place(template, [(qubits, "bell")])
    with pytest.raises(ValueError, match="negative qubit"):
        simulator.place(template, [((-1, 2), "bell")])
    placed = simulator.place(template, [((5, 3), "bell:q5-q3")])[0]
    assert placed == Circuit(6, 2, (h(5), cnot(5, 3), measure(5, 0), measure(3, 1)), "bell:q5-q3")
