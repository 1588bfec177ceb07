from dataclasses import replace

import numpy as np
import pytest

from closed_forms import bell_frequencies, predicted_x_test_frequencies
from noisekit.applications import build_ghz
from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import build_suite, materialize
from noisekit.circuit import Circuit, cnot, h, measure, x
from noisekit.errors import ArityMismatch, OutOfRange
from noisekit.noise import (
    CompositeNoiseModel,
    ReadoutModel,
    apply_readout_to_distribution,
)
from noisekit.outcomes import Distribution
from noisekit.simulator import simulate_noisy_exact


def _per_qubit_model(readout, p_x=0.0, p_cnot=0.0):
    return CompositeNoiseModel(
        granularity="register_average",
        avg_readout=readout,
        avg_x=p_x,
        avg_h=0.0,
        avg_cnot=p_cnot,
    )


# -- predicted_x_test_frequencies -------------------------------------------------

def test_x_test_zero_gate_noise_limit():
    g_x_0, g_xx_0 = predicted_x_test_frequencies(0.03, 0.08, 0.0)
    assert g_x_0 == pytest.approx(0.08, abs=1e-15)
    assert g_xx_0 == pytest.approx(1 - 0.03, abs=1e-15)


def test_x_test_paper_average_values():
    # Frozen from exact-fraction evaluation at the register-average rates.
    g_x_0, g_xx_0 = predicted_x_test_frequencies(0.0212, 0.0681, 0.0033)
    assert g_x_0 == pytest.approx(0.07010354, abs=1e-8)
    assert g_xx_0 == pytest.approx(0.974801735576, abs=1e-10)


def test_x_test_ideal_readout_limit():
    p_x = 0.003
    g_x_0, g_xx_0 = predicted_x_test_frequencies(0.0, 0.0, p_x)
    q = 2 * p_x / 3
    assert g_x_0 == pytest.approx(q, abs=1e-15)
    assert g_xx_0 == pytest.approx((1 - q) ** 2 + q**2, abs=1e-15)


def test_x_test_rejects_bad_probability():
    with pytest.raises(OutOfRange):
        predicted_x_test_frequencies(-0.1, 0.0, 0.0)
    with pytest.raises(OutOfRange):
        predicted_x_test_frequencies(0.0, 0.0, 1.5)


# -- bell_frequencies -------------------------------------------------------------

def test_bell_noiseless():
    dist = bell_frequencies(0.0)
    assert dist.prob("00") == 0.5 and dist.prob("11") == 0.5
    assert dist.prob("01") == 0.0 and dist.prob("10") == 0.0


def test_bell_maximal_mixing():
    dist = bell_frequencies(0.75)
    for key in ("00", "01", "10", "11"):
        assert dist.prob(key) == pytest.approx(0.25, abs=1e-15)


def test_bell_p005_frozen():
    dist = bell_frequencies(0.05)
    assert dist.prob("00") == pytest.approx(0.4677777778, abs=1e-9)
    assert dist.prob("01") == pytest.approx(0.0322222222, abs=1e-9)


def test_bell_rejects_bad_probability():
    with pytest.raises(OutOfRange):
        bell_frequencies(1.2)


# -- apply_readout_to_distribution -------------------------------------------------

def test_readout_identity_channel():
    dist = Distribution({"00": 0.5, "11": 0.5})
    out = apply_readout_to_distribution(dist, [ReadoutModel.ideal()] * 2)
    assert out.prob("00") == 0.5 and out.prob("11") == 0.5


def test_readout_fully_randomizing():
    dist = Distribution({"00": 0.5, "11": 0.5})
    out = apply_readout_to_distribution(dist, [ReadoutModel.symmetric(0.5)] * 2)
    for key in ("00", "01", "10", "11"):
        assert out.prob(key) == pytest.approx(0.25, abs=1e-12)


def test_readout_hand_expansion_frozen():
    """Two-bit asymmetric readout on the noisy Bell distribution, expanded
    term-by-term with exact fractions and frozen."""
    dist = bell_frequencies(0.05)
    out = apply_readout_to_distribution(dist, [ReadoutModel(0.02, 0.07)] * 2)
    assert out.prob("00") == pytest.approx(0.4559667777777778, abs=1e-12)
    assert out.prob("01") == pytest.approx(0.0690332222222222, abs=1e-12)
    assert out.prob("10") == pytest.approx(0.0690332222222222, abs=1e-12)
    assert out.prob("11") == pytest.approx(0.4059667777777778, abs=1e-12)


def test_readout_arity_mismatch():
    with pytest.raises(ArityMismatch):
        apply_readout_to_distribution(Distribution({"00": 1.0}), [ReadoutModel.ideal()])


def test_readout_preserves_normalization():
    rng = np.random.default_rng(5)
    for _ in range(50):
        raw = rng.dirichlet(np.ones(8))
        dist = Distribution({format(i, "03b"): float(p) for i, p in enumerate(raw)})
        readouts = [
            ReadoutModel(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            for _ in range(3)
        ]
        out = apply_readout_to_distribution(dist, readouts)
        assert sum(out.probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= -1e-15 for p in out.probs.values())


# -- closed forms vs exact channel simulation ---------------------------------------

def test_bell_closed_form_matches_exact_simulation(bell_circuit):
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = float(rng.uniform(0, 1))
        model = _per_qubit_model(ReadoutModel.ideal(), p_cnot=p)
        exact = simulate_noisy_exact(bell_circuit, model)
        closed = bell_frequencies(p)
        for key in ("00", "01", "10", "11"):
            assert exact.prob(key) == pytest.approx(closed.prob(key), abs=1e-10)


def test_x_test_closed_forms_match_exact_simulation():
    x_circuit = Circuit(1, 1, (x(0), measure(0, 0)), "x:q0")
    xx_circuit = Circuit(1, 1, (x(0), x(0), measure(0, 0)), "xx:q0")
    rng = np.random.default_rng(13)
    for _ in range(50):
        p0, p1 = rng.uniform(0, 0.3, size=2)
        p_x = float(rng.uniform(0, 0.2))
        model = _per_qubit_model(ReadoutModel(float(p0), float(p1)), p_x=p_x)
        g_x_0, g_xx_0 = predicted_x_test_frequencies(float(p0), float(p1), p_x)
        assert simulate_noisy_exact(x_circuit, model).prob("0") == pytest.approx(
            g_x_0, abs=1e-10
        )
        assert simulate_noisy_exact(xx_circuit, model).prob("0") == pytest.approx(
            g_xx_0, abs=1e-10
        )


def test_readout_channel_matches_exact_simulation(bell_circuit):
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = float(rng.uniform(0, 0.5))
        readout = ReadoutModel(float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.3)))
        model = _per_qubit_model(readout, p_cnot=p)
        exact = simulate_noisy_exact(bell_circuit, model)
        chained = apply_readout_to_distribution(bell_frequencies(p), [readout] * 2)
        for key in ("00", "01", "10", "11"):
            assert exact.prob(key) == pytest.approx(chained.prob(key), abs=1e-10)


def test_sro_aro_degeneracy(bell_circuit):
    """With p0 == p1 the asymmetric model reduces to the symmetric one on
    every circuit."""
    sro = _per_qubit_model(ReadoutModel.symmetric(0.04), p_cnot=0.03)
    aro = _per_qubit_model(ReadoutModel(0.04, 0.04), p_cnot=0.03)
    for circuit in (
        bell_circuit,
        Circuit(1, 1, (x(0), measure(0, 0)), "x"),
        Circuit(2, 2, (h(0), cnot(0, 1), x(1), measure(0, 0), measure(1, 1)), "m"),
    ):
        a = simulate_noisy_exact(circuit, sro)
        b = simulate_noisy_exact(circuit, aro)
        for key in set(a.probs) | set(b.probs):
            assert a.prob(key) == pytest.approx(b.prob(key), abs=1e-14)


# -- ReadoutModel / CompositeNoiseModel ----------------------------------------------

def test_readout_model_validation():
    with pytest.raises(OutOfRange):
        ReadoutModel(-0.1, 0.0)
    assert ReadoutModel.symmetric(0.05).is_symmetric


def _per_element_twin(model: CompositeNoiseModel, topo) -> CompositeNoiseModel:
    """The averaged model's constants written out for every element of `topo`."""
    qubits = range(topo.num_qubits)
    return replace(
        model, granularity="per_element", subset=None,
        readout={q: model.avg_readout for q in qubits},
        x_gate={q: model.avg_x for q in qubits},
        h_gate={q: model.avg_h for q in qubits},
        cnot={edge: model.avg_cnot for edge in topo.undirected_edges()},
        avg_readout=None, avg_x=None, avg_h=None, avg_cnot=None,
    )


@pytest.mark.parametrize("hidden", [0.0, 0.04])
@pytest.mark.parametrize("granularity, subset", [("register_average", None),
                                                 ("subset_average", (0, 1, 2))])
def test_mock_backend_samples_averaged_truth_as_its_per_element_twin(
        ladder20, granularity, subset, hidden):
    """An averaged truth's lookups fall back to its constants on every
    element, so the mock QPU draws the same counts from it as from the
    per-element model that spells those constants out."""
    model = CompositeNoiseModel(
        granularity=granularity, subset=subset,
        avg_readout=ReadoutModel(0.0212, 0.0681), avg_x=0.0033, avg_h=0.002, avg_cnot=0.02,
    )
    plan = build_suite(ladder20, hadamard_lengths=(2, 4))
    circuits = [materialize(t) for t in plan.tests] + [build_ghz(6, ladder20)]
    averaged, twin = (MockBackend(ladder20, MockGroundTruth(m, hidden)).run(circuits, 512, 3)
                      for m in (model, _per_element_twin(model, ladder20)))
    assert averaged == twin


def test_model_json_roundtrip(tmp_path, line4):
    model = CompositeNoiseModel(
        readout={0: ReadoutModel(0.01, 0.05), 1: ReadoutModel(0.02, 0.06)},
        x_gate={0: 0.001, 1: 0.002},
        h_gate={},
        cnot={(0, 1): 0.025},
        provenance="abc123",
    )
    path = tmp_path / "model.json"
    model.save(path)
    assert CompositeNoiseModel.load(path) == model


def test_averaged_model_lookup_defaults():
    model = CompositeNoiseModel(
        granularity="register_average",
        avg_readout=ReadoutModel(0.1, 0.2),
        avg_x=0.01,
        avg_h=0.0,
        avg_cnot=0.05,
    )
    assert model.readout_for(17) == ReadoutModel(0.1, 0.2)
    assert model.cnot_for(3, 4) == 0.05
    assert model.x_for(9) == 0.01


def test_missing_coverage_raised():
    from noisekit.errors import MissingCoverage

    model = CompositeNoiseModel(readout={0: ReadoutModel(0.1, 0.1)})
    with pytest.raises(MissingCoverage):
        model.readout_for(1)
    with pytest.raises(MissingCoverage):
        model.cnot_for(0, 1)


def test_noiseless_constructor_all_zero():
    model = CompositeNoiseModel.noiseless()
    assert model.readout_for(0) == ReadoutModel.ideal()
    assert model.x_for(5) == 0.0
    assert model.cnot_for(1, 2) == 0.0
    assert not model.readout_on and not model.cnot_dp_on
