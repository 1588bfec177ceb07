import dataclasses
import json

import numpy as np
import pytest

from noisekit.applications import build_bv
from noisekit.backend import FileBackend, MockBackend, MockGroundTruth
from noisekit.characterization import (
    SuiteConfig,
    archive_dict,
    build_suite,
    read_counts,
    run_suite,
)
from noisekit.devices import ladder20, line, uniform_truth
from noisekit.errors import LabelMismatch, OutOfRange, ParseError, UncoupledPair, write_json_file
from noisekit.evaluation import ApplicationRun
from noisekit.noise import CompositeNoiseModel
from noisekit.simulator import TrajectorySampler, simulate_ideal
from trajectory_oracle import sample_trajectories


def test_mock_zero_noise_matches_ideal_support(line3):
    backend = MockBackend(line3, MockGroundTruth(CompositeNoiseModel.noiseless()))
    from noisekit.applications import build_ghz

    circuit = build_ghz(3, line3)
    counts = backend.run([circuit], 4096, seed=9)[0]
    assert set(counts.counts) == set(simulate_ideal(circuit).support())


def test_mock_determinism(line3):
    backend = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    from noisekit.applications import build_ghz

    circuits = [build_ghz(2, line3), build_ghz(3, line3)]
    a = backend.run(circuits, 2048, seed=6)
    b = backend.run(circuits, 2048, seed=6)
    assert a == b
    c = backend.run(circuits, 2048, seed=7)
    assert a != c


def test_mock_validates_circuits(line2):
    backend = MockBackend(line2, MockGroundTruth(uniform_truth(line2)))
    from noisekit.circuit import Circuit, cnot, measure

    bad = Circuit(6, 1, (cnot(0, 5), measure(5, 0)), "bad")
    with pytest.raises(UncoupledPair):
        backend.run([bad], 16, seed=0)


def test_mock_per_circuit_subseeds(line3):
    """Identical circuits at different positions get independent streams."""
    backend = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    from noisekit.applications import build_ghz

    circuit = build_ghz(3, line3)
    a, b = backend.run([circuit, circuit], 4096, seed=1)
    assert a != b


def test_truth_json_roundtrip(tmp_path):
    truth = MockGroundTruth(uniform_truth(line(3)), hidden_readout_strength=0.03)
    path = tmp_path / "truth.json"
    truth.save(path)
    loaded = MockGroundTruth.load(path)
    assert loaded == truth
    raw = json.loads(path.read_text())
    assert raw["hidden_effects"]["state_dependent_readout"] == 0.03


def test_hidden_effects_default_off(tmp_path):
    truth = MockGroundTruth(uniform_truth(line(2)))
    assert truth.hidden_readout_strength == 0.0
    path = tmp_path / "t.json"
    truth.save(path)
    assert MockGroundTruth.load(path).hidden_readout_strength == 0.0


@pytest.mark.parametrize("strength", [-0.5, float("nan"), float("inf"), 1.5])
def test_truth_rejects_hidden_strength_outside_unit_interval(strength):
    with pytest.raises(OutOfRange):
        MockGroundTruth(uniform_truth(line(2)), hidden_readout_strength=strength)
    MockGroundTruth(uniform_truth(line(2)), hidden_readout_strength=1.0)


def test_hidden_effects_depress_weighted_outcomes():
    """The hidden channel damages all-ones outcomes more than all-zeros."""
    topo = ladder20()
    model = uniform_truth(topo, p0=0.0, p1=0.0, p_x=0.0, p_cnot=0.0)
    plain = MockBackend(topo, MockGroundTruth(model))
    hidden = MockBackend(topo, MockGroundTruth(model, hidden_readout_strength=0.05))
    for secret in ("000", "111"):
        circuit = build_bv(secret, [6, 8, 12], 7, topo)
        base = plain.run([circuit], 50_000, seed=3)[0].frequency(secret)
        noisy = hidden.run([circuit], 50_000, seed=3)[0].frequency(secret)
        if secret == "000":
            assert noisy == pytest.approx(base, abs=0.01)
        else:
            assert noisy < base - 0.3  # 3 ones -> 15% flip chance per bit


def test_load_counts_roundtrip(tmp_path, line3):
    backend = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    plan = build_suite(line3, SuiteConfig(shots=1024, seed=4))
    chars = run_suite(plan, backend)
    path = tmp_path / "archive.json"
    write_json_file(path, archive_dict(plan, chars))
    loaded = read_counts(path)[1]
    assert set(loaded) == set(plan.labels())
    for ch in chars:
        assert loaded[ch.label] == ch.counts


def test_file_backend_replays_archive(tmp_path, line3):
    mock = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    plan = build_suite(line3, SuiteConfig(shots=1024, seed=4))
    chars = run_suite(plan, mock)
    path = tmp_path / "archive.json"
    write_json_file(path, archive_dict(plan, chars))

    replay = FileBackend(path, line3)
    again = run_suite(plan, replay)
    assert [c.counts for c in again] == [c.counts for c in chars]


def test_file_backend_label_mismatch(tmp_path, line3):
    mock = MockBackend(line3, MockGroundTruth(uniform_truth(line3)))
    plan = build_suite(line3, SuiteConfig(shots=256, seed=2))
    chars = run_suite(plan, mock)
    trimmed = [c for c in chars if c.label != "bell:q0-q1"]
    path = tmp_path / "archive.json"
    write_json_file(path, archive_dict(plan, trimmed))
    replay = FileBackend(path, line3)
    with pytest.raises(LabelMismatch) as err:
        run_suite(plan, replay)
    assert err.value.missing == ["bell:q0-q1"]


def test_load_counts_malformed_shots(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"entries": [{"label": "init:q0", "shots": 100, "counts": {"0": 42}}]}'
    )
    with pytest.raises(ParseError):
        read_counts(path)


def test_load_counts_not_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("not json {{{")
    with pytest.raises(ParseError):
        read_counts(path)


def test_readout_free_law_is_the_preimage(line2):
    """With readout off, the sampler's law is the preimage of its observed
    law: the per-shot oracle's pre-readout outcomes follow it, and maximal
    readout noise decouples the observation from it."""
    model = uniform_truth(line2, p0=0.5, p1=0.5, p_x=0.0, p_cnot=0.0)
    from noisekit.applications import build_ghz

    circuit = build_ghz(2, line2)
    pre_law = TrajectorySampler(circuit, dataclasses.replace(model, readout_on=False)).law
    observed_law = TrajectorySampler(circuit, model).law
    assert pre_law == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-12)
    assert observed_law == pytest.approx([0.25] * 4, abs=1e-12)
    pre, obs = sample_trajectories(circuit, model, 10_000, seed=8)
    assert pre.shape == obs.shape == (10_000,)
    for indices, law in ((pre, pre_law), (obs, observed_law)):
        freqs = np.bincount(indices, minlength=4) / indices.size
        assert 0.5 * np.abs(freqs - law).sum() <= 0.03
