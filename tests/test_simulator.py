import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisekit
from dm_oracle import exact_outcome_vector
from trajectory_oracle import sample_trajectories
from noisekit import _kernels
from noisekit.circuit import Circuit, cnot, h, identity, measure, x
from noisekit.errors import NormDrift, TooWide
from noisekit.noise import CompositeNoiseModel, ReadoutModel
from noisekit.outcomes import Distribution
from noisekit.simulator import (
    MAX_QUBITS,
    TrajectorySampler,
    _Compiled,
    sample_from_distribution,
    simulate_ideal,
    simulate_noisy_exact,
    simulate_noisy_sampled,
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
    gates = tuple(h(q) for q in range(25)) + (measure(0, 0),)
    with pytest.raises(TooWide):
        simulate_ideal(Circuit(25, 1, gates, "wide"))


def test_ideal_remaps_active_qubits():
    # Large register, only two active qubits: must not allocate 2^30 states.
    circuit = Circuit(30, 2, (h(17), cnot(17, 23), measure(17, 0), measure(23, 1)), "b")
    dist = simulate_ideal(circuit)
    assert dist.prob("00") == pytest.approx(0.5, abs=1e-12)


def test_mid_circuit_measurement_rejected():
    circuit = Circuit(1, 1, (measure(0, 0), x(0)), "bad")
    with pytest.raises(ValueError):
        simulate_ideal(circuit)


def _norm_breaking_h(psi, stride):
    psi *= 2.0


def test_norm_guard_raises(monkeypatch, bell_circuit):
    broken = dataclasses.replace(_kernels.ACTIVE, name="broken", h=_norm_breaking_h)
    monkeypatch.setattr(_kernels, "ACTIVE", broken)
    with pytest.raises(NormDrift):
        simulate_ideal(bell_circuit)


_NORM_GUARD_SCRIPT = """
import dataclasses, sys
from noisekit import _kernels
from noisekit.circuit import Circuit, h, measure
from noisekit.errors import NormDrift
from noisekit.simulator import simulate_ideal

if __debug__:
    sys.exit(3)  # asserts are live: not running under -O
_kernels.ACTIVE = dataclasses.replace(_kernels.ACTIVE, h=lambda psi, stride: psi.__imul__(2.0))
try:
    simulate_ideal(Circuit(1, 1, (h(0), measure(0, 0)), "h"))
except NormDrift:
    sys.exit(0)
sys.exit(1)
"""


def test_norm_guard_survives_optimize_flag():
    src = str(Path(noisekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", _NORM_GUARD_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# -- Pauli-frame flip masks ----------------------------------------------------

def test_flip_mask_z_before_final_h_flips_bit():
    comp = _Compiled(Circuit(1, 1, (h(0), h(0), measure(0, 0)), "hh"), 24)
    assert comp.flips[0] == ((0, 1),)  # (X flips, Z flips) after the first H


def test_flip_mask_x_on_control_before_cnot_flips_both_bits(bell_circuit):
    comp = _Compiled(bell_circuit, 24)
    assert comp.flips[0] == ((0b11, 0),)


def test_flip_mask_z_on_measured_qubit_flips_nothing():
    comp = _Compiled(Circuit(1, 1, (h(0), measure(0, 0)), "h"), 24)
    assert comp.flips[0] == ((1, 0),)


def test_flip_masks_follow_classical_bit_order():
    # qubit 0 -> clbit 1 (least significant of two bits), qubit 1 -> clbit 0
    circuit = Circuit(3, 2, (x(0), x(1), x(2), measure(0, 1), measure(1, 0)), "swap")
    comp = _Compiled(circuit, 24)
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
    """Exact scoring shares the sampler's guard: it refuses one active qubit
    beyond it and accepts the widths the old 8-qubit guard refused."""
    width = MAX_QUBITS + 1
    gates = tuple(h(q) for q in range(width)) + (measure(0, 0),)
    with pytest.raises(TooWide):
        simulate_noisy_exact(Circuit(width, 1, gates, "wide"), NOISELESS)
    ghz = (h(0), *(cnot(q, q + 1) for q in range(11)), *(measure(q, q) for q in range(12)))
    dist = simulate_noisy_exact(Circuit(12, 12, ghz, "ghz12"), _uniform_model(p_cnot=0.01))
    assert sum(p for _, p in dist.items()) == pytest.approx(1.0, abs=1e-12)


# -- simulate_noisy_sampled ----------------------------------------------------

def test_sampled_noiseless_support(bell_circuit):
    counts = simulate_noisy_sampled(bell_circuit, NOISELESS, 8192, seed=1)
    assert set(counts.counts) == {"00", "11"}
    assert counts.shots == 8192


def test_sampled_deterministic(bell_circuit):
    model = _uniform_model(p_cnot=0.1, p0=0.02, p1=0.07)
    a = simulate_noisy_sampled(bell_circuit, model, 4096, seed=9)
    b = simulate_noisy_sampled(bell_circuit, model, 4096, seed=9)
    assert a == b
    c = simulate_noisy_sampled(bell_circuit, model, 4096, seed=10)
    assert a != c


def test_sampled_converges_to_exact(bell_circuit):
    model = _uniform_model(p_cnot=0.02, p_x=0.0033, p0=0.0212, p1=0.0681)
    exact = simulate_noisy_exact(bell_circuit, model)
    counts = simulate_noisy_sampled(bell_circuit, model, 10**6, seed=3)
    assert _tvd(counts.frequencies(), dict(exact.items())) <= 0.005


def test_sampled_zero_shots(bell_circuit):
    counts = simulate_noisy_sampled(bell_circuit, NOISELESS, 0, seed=0)
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


def test_sampler_laws_match_exact_and_density_matrix_oracle():
    """The sampler draws from the exact observed law, and its pre-readout law
    is the density-matrix oracle's law with readout off."""
    rng = np.random.default_rng(7)
    for trial in range(300):
        circuit, model = _random_oracle_case(rng, trial)
        sampler = TrajectorySampler(circuit, model)
        exact = np.zeros(sampler.observed_law.size)
        for key, p in simulate_noisy_exact(circuit, model).items():
            exact[int(key, 2) if key else 0] = p
        assert np.max(np.abs(sampler.observed_law - exact)) <= 1e-12, (trial, circuit)
        bare = exact_outcome_vector(circuit, dataclasses.replace(model, readout_on=False))
        assert np.max(np.abs(sampler.pre_readout_law - bare)) <= 1e-12, (trial, circuit)


def test_sample_arrays_pairs_match_trajectory_oracle():
    """Matched (pre-readout, observed) pairs have the oracle's joint law.

    Two independent 10^5-shot empirical laws over K cells sit
    sum_k sqrt(p_k / (pi N)) apart in expected TVD, at most
    8 / sqrt(pi 10^5) = 0.014 for the 64 cells of three bits.
    """
    rng = np.random.default_rng(11)
    shots = 10**5
    for trial in range(6):
        n = int(rng.integers(1, 4))
        circuit = _random_circuit(rng, n, label=f"pairs{trial}")
        model = _random_model(rng)
        cells = 1 << (2 * n)
        pre, obs = TrajectorySampler(circuit, model).sample_arrays(shots, seed=trial)
        ref_pre, ref_obs = sample_trajectories(circuit, model, shots, seed=100 + trial)
        got = _frequencies((pre << n) | obs, cells)
        want = _frequencies((ref_pre << n) | ref_obs, cells)
        assert 0.5 * np.abs(got - want).sum() <= 0.03, (trial, circuit)


def test_sampler_reuse_matches_one_shot_calls(bell_circuit):
    model = _uniform_model(p_cnot=0.05, p0=0.01, p1=0.03)
    sampler = TrajectorySampler(bell_circuit, model)
    a = sampler.sample(2048, seed=5)
    b = sampler.sample(2048, seed=5)
    assert a == b
    assert a == simulate_noisy_sampled(bell_circuit, model, 2048, seed=5)


# -- sample_from_distribution ----------------------------------------------------

def test_sample_point_mass():
    counts = sample_from_distribution(Distribution({"0": 1.0}), 100, seed=0)
    assert counts.counts == {"0": 100}


def test_sample_binomial_bound():
    counts = sample_from_distribution(
        Distribution({"0": 0.5, "1": 0.5}), 8192, seed=123
    )
    # 4 sigma of Binomial(8192, 1/2) is ~181
    assert abs(counts.counts["0"] - 4096) <= 182
    assert abs(counts.counts["1"] - 4096) <= 182


def test_sample_zero_shots():
    counts = sample_from_distribution(Distribution({"0": 1.0}), 0, seed=0)
    assert counts.shots == 0 and counts.counts == {}


def test_sample_deterministic():
    dist = Distribution({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
    assert sample_from_distribution(dist, 999, 7) == sample_from_distribution(dist, 999, 7)
