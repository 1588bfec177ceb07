import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import noisekit
from closed_forms import bell_frequencies, predicted_x_test_frequencies
from noisekit import devices, simulator
from noisekit.applications import build_ghz
from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import build_suite, materialize
from noisekit.circuit import Circuit, cnot, h, measure, x
from noisekit.errors import ArityMismatch, MissingCoverage, OutOfRange
from noisekit.noise import (
    SUBSET_AVERAGE,
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

@pytest.mark.parametrize("fields, message", [
    (dict(granularity="per_qubit"), "unknown granularity 'per_qubit'"),
    (dict(granularity=SUBSET_AVERAGE, avg_readout=ReadoutModel.ideal()), "requires a subset"),
], ids=["unknown-granularity", "subset-average-without-subset"])
def test_model_granularity_validation(fields, message):
    with pytest.raises(ValueError, match=message):
        CompositeNoiseModel(**fields)


def test_readout_model_validation():
    with pytest.raises(OutOfRange):
        ReadoutModel(-0.1, 0.0)
    assert ReadoutModel.symmetric(0.05).is_symmetric


@pytest.mark.parametrize("elements, message", [
    (dict(cnot={(0, 1): 0.0, (1, 0): 0.5}), "both directions"),
    (dict(cnot={(1, 1): 0.1}), r"^\(1, 1\) does not name a coupling$"),
    (dict(readout={-1: ReadoutModel(0.01, 0.02)}), "^-1 does not name a qubit$"),
    (dict(cnot={(-1, 0): 0.1}), r"^\(-1, 0\) does not name a coupling$"),
    (dict(readout={True: ReadoutModel(0.01, 0.02)}), "^True does not name a qubit$"),
    (dict(x_gate={1.5: 0.001}), "^1.5 does not name a qubit$"),
    (dict(h_gate={"1": 0.001}), "^'1' does not name a qubit$"),
    (dict(granularity="subset_average", subset=("a",), avg_readout=ReadoutModel(0.0, 0.0)),
     "^'a' does not name a qubit$"),
    (dict(subset=(0, 1.0)), "^1.0 does not name a qubit$"),
], ids=["coupling-both-directions", "self-coupling", "negative-qubit", "negative-coupling",
        "bool-qubit", "float-qubit", "string-qubit", "string-subset", "float-subset"])
def test_model_names_each_element_once(elements, message):
    """Each map key and subset entry is the qubit or coupling its spelling
    names, so a bool, float, string or negative qubit and a qubit coupled
    to itself are refused; and a coupling named in both directions would
    keep whichever comes last, so it is refused too."""
    with pytest.raises(ValueError, match=message):
        CompositeNoiseModel(**elements)


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


# -- the rate rule: theta and column ----------------------------------------------

N_QUBITS = 5
MODEL_KINDS = ("per_element", "register_average", "subset_average", "mixed")


def _random_model(rng, kind: str) -> CompositeNoiseModel:
    """A seeded model of `kind` on up to N_QUBITS qubits (all pairs coupled),
    each own entry and each average left out at random. A mixed model is a
    per-element one with averages too; couplings are keyed either way."""
    rate = lambda: float(rng.uniform(0.0, 0.2))
    kept = lambda: rng.random() < 0.6
    fields = {}
    if kind in ("per_element", "mixed"):
        qubits, pairs = range(N_QUBITS), [(a, b) for a in range(N_QUBITS) for b in range(a)]
        fields.update(readout={q: ReadoutModel(rate(), rate()) for q in qubits if kept()},
                      x_gate={q: rate() for q in qubits if kept()},
                      h_gate={q: rate() for q in qubits if kept()},
                      cnot={p[::rng.choice([1, -1])]: rate() for p in pairs if kept()})
    if kind != "per_element":
        fields.update(avg_readout=ReadoutModel(rate(), rate()) if kept() else None,
                      **{name: rate() if kept() else None
                         for name in ("avg_x", "avg_h", "avg_cnot")})
    if kind == "subset_average":
        fields.update(granularity=kind, subset=(0, 2))
    elif kind == "register_average":
        fields.update(granularity=kind)
    return CompositeNoiseModel(**fields)


def _rule(model: CompositeNoiseModel, kind: str, qubits: tuple) -> float | None:
    """The rate of `kind` on `qubits`, read from the model's fields: its own
    entry, else its kind's average, else 0 for x and h and None (no rate)
    for a readout or a cnot."""
    if kind in ("p0", "p1"):
        readout = model.readout.get(qubits[0], model.avg_readout)
        return None if readout is None else getattr(readout, kind)
    if kind == "cnot":
        return model.cnot.get((min(qubits), max(qubits)), model.avg_cnot)
    own, average = (model.x_gate, model.avg_x) if kind == "x" else (model.h_gate, model.avg_h)
    rate = own.get(qubits[0], average)
    return 0.0 if rate is None else rate


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_each_element_reads_the_rate_its_fields_give(kind):
    """`theta[column(kind, qubits)]`, and each accessor, against the rule
    written out from the fields, for every element of seeded models with
    entries left out (one qubit past the register too), each coupling asked
    in both directions; an element with no rate raises MissingCoverage
    naming it as asked."""
    rng = np.random.default_rng(2026)
    qubits = range(N_QUBITS + 1)
    elements = [(k, (q,)) for k in ("p0", "p1", "x", "h") for q in qubits]
    elements += [("cnot", (a, b)) for a in qubits for b in qubits if a != b]
    for _ in range(40):
        model = _random_model(rng, kind)
        for element in elements:
            want = _rule(model, *element)
            if want is None:
                spelled = "-".join(f"q{q}" for q in element[1])
                with pytest.raises(MissingCoverage) as err:
                    model.column(*element)
                assert err.value.missing == [spelled]
                assert str(err.value) == ("no cnot parameter for coupling ({},{})"
                                          if element[0] == "cnot"
                                          else "no readout model for qubit {}").format(*element[1])
                continue
            assert model.theta[model.column(*element)] == want
            name, on = element
            got = (model.cnot_for(*on) if name == "cnot"
                   else getattr(model.readout_for(*on), name) if name in ("p0", "p1")
                   else getattr(model, f"{name}_for")(*on))
            assert got == want


def test_an_averaged_models_elements_share_one_column():
    model = CompositeNoiseModel(granularity="register_average",
                                avg_readout=ReadoutModel(0.01, 0.03), avg_x=0.002, avg_h=0.0,
                                avg_cnot=0.02)
    for kind in ("p0", "p1", "x", "h"):
        assert len({model.column(kind, (q,)) for q in range(6)}) == 1
    assert model.column("cnot", (0, 1)) == model.column("cnot", (5, 3))
    assert model.column("x", (0,)) != 0 and len(model.theta) == 6
    assert CompositeNoiseModel().column("x", (4,)) == 0 == CompositeNoiseModel().theta[0]


def test_theta_is_derived_and_read_only():
    """theta comes from the fields, is not a file field, and cannot be
    written."""
    model = _random_model(np.random.default_rng(3), "mixed")
    assert "theta" not in model.to_json_dict()
    assert np.array_equal(replace(model).theta, model.theta)
    with pytest.raises(ValueError):
        model.theta[0] = 1.0


def _zeroed(model: CompositeNoiseModel, readout: bool) -> CompositeNoiseModel:
    """`model` with its readout (or cnot) rates set to 0 and that channel on."""
    if readout:
        ideal = ReadoutModel.ideal()
        return replace(model, readout_on=True, readout=dict.fromkeys(model.readout, ideal),
                       avg_readout=model.avg_readout and ideal)
    return replace(model, cnot_dp_on=True, avg_cnot=model.avg_cnot and 0.0,
                   cnot=dict.fromkeys(model.cnot, 0.0))


@pytest.mark.parametrize("hidden", [0.0, 0.04])
@pytest.mark.parametrize("readout", [True, False], ids=["readout-off", "cnot-off"])
@pytest.mark.parametrize("averaged", [False, True], ids=["per-element", "averaged"])
def test_an_off_channel_gives_the_laws_of_its_zeroed_rates(ladder20, hidden, readout, averaged):
    """A model with `readout_on` (or `cnot_dp_on`) false has, bit for bit,
    the laws of the same model with those rates 0 and the flag on."""
    truth = devices.jittered_truth(ladder20, 7)
    model = (CompositeNoiseModel(granularity="register_average",
                                 avg_readout=ReadoutModel(0.02, 0.07), avg_x=0.003, avg_h=0.01,
                                 avg_cnot=0.02) if averaged
             else replace(truth, h_gate=dict.fromkeys(range(20), 0.01)))
    off = replace(model, **{"readout_on" if readout else "cnot_dp_on": False})
    plan = build_suite(ladder20, hadamard_lengths=(2, 4))
    circuits = [materialize(t) for t in plan.tests] + [build_ghz(n, ladder20) for n in (3, 6)]
    for law, twin in zip(simulator._laws(circuits, off, hidden),
                         simulator._laws(circuits, _zeroed(off, readout), hidden)):
        assert np.array_equal(law, twin)


def _accessor(model: CompositeNoiseModel, kind: str, qubits: tuple) -> float:
    """The `kind` rate of the element on `qubits`, read through the model's
    accessor for it."""
    if kind in ("p0", "p1"):
        return getattr(model.readout_for(*qubits), kind)
    return getattr(model, f"{kind}_for")(*qubits)


@pytest.mark.parametrize("off", [{"p0", "p1"}, {"cnot"}, {"p0", "p1", "cnot"}],
                         ids=["readout-off", "cnot-off", "both-off"])
def test_an_off_channel_reads_column_0_as_its_laws_do(ladder20, monkeypatch, off):
    """`column` and the accessors give, for every element of each circuit,
    the rate `_laws` gathers for it: column 0, a zero rate, for an off
    channel's elements, their own rate for the others. An off channel with
    no rates at all raises no MissingCoverage and has the same laws."""
    truth = replace(devices.jittered_truth(ladder20, 7), h_gate=dict.fromkeys(range(20), 0.01))
    model = replace(truth, readout_on="p0" not in off, cnot_dp_on="cnot" not in off)
    bare = replace(model, readout={} if "p0" in off else truth.readout,
                   cnot={} if "cnot" in off else truth.cnot)
    gathered, law_of = [], simulator._outcome_laws

    def outcome_laws(shape, rates, hidden):
        gathered.append(rates)
        return law_of(shape, rates, hidden)
    monkeypatch.setattr(simulator, "_outcome_laws", outcome_laws)
    plan = build_suite(ladder20, hadamard_lengths=(2,))
    for circuit in [materialize(t) for t in plan.tests] + [build_ghz(6, ladder20)]:
        law, = simulator._laws([circuit], model)
        assert np.array_equal(simulator._laws([circuit], bare)[0], law)
        _, actives, shape = simulator._compile(circuit, {})
        for reads, rates in ((model, gathered[-2][0]), (bare, gathered[-1][0])):
            for (kind, locs), rate in zip(shape.elements, rates, strict=True):
                qubits = tuple(actives[loc] for loc in locs)
                column = reads.column(kind, qubits)
                assert (column == 0) is (kind in off)
                assert reads.theta[column] == _accessor(reads, kind, qubits) == rate
                assert rate == (0.0 if kind in off else _accessor(truth, kind, qubits))


def test_num_parameters_counts_each_column_an_element_reads():
    """Every theta column but 0 that some element reads counts once: own
    entries and the averages alongside them, x and h at nonzero rates, a p1
    apart from its p0, and no column of an off channel."""
    mixed = CompositeNoiseModel(readout={0: ReadoutModel(0.01, 0.02)}, x_gate={0: 0.01},
                                cnot={(0, 1): 0.02}, avg_readout=ReadoutModel(0.03, 0.05),
                                avg_x=0.01, avg_cnot=0.03)
    assert mixed.num_parameters() == 8
    assert replace(mixed, readout_on=False).num_parameters() == 4
    cnot_off = CompositeNoiseModel(readout={0: ReadoutModel(0.01, 0.02)}, x_gate={0: 0.01},
                                   cnot_dp_on=False)
    assert cnot_off.num_parameters() == 3
    assert replace(cnot_off, x_gate={0: 0.0, 1: 0.0}, h_gate={0: 0.01}).num_parameters() == 3
    sro = replace(cnot_off, readout={0: ReadoutModel.symmetric(0.01), 1: ReadoutModel.ideal()})
    assert sro.num_parameters() == 3
    assert CompositeNoiseModel.noiseless().num_parameters() == 0


# -- one module reads the rates ---------------------------------------------------

_RATES = {"readout", "x_gate", "h_gate", "cnot", "readout_for", "x_for", "h_for", "cnot_for"}


def _rate_reads(source: str) -> list[str]:
    """The attributes in `source` that name a model's rate fields (`readout`,
    `x_gate`, `h_gate`, `cnot`, `avg_*`) or accessors (`*_for`)."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and (node.attr in _RATES or node.attr.startswith("avg_"))]


@pytest.mark.parametrize("source, reads", [
    ("model.x_for(0)", True), ("m.readout_for(q).p0", True), ("m.cnot_for(a, b)", True),
    ("m.readout[q]", True), ("len(model.cnot)", True), ("model.avg_cnot or 0.0", True),
    ("fit.model.h_gate.items()", True), ("m.avg_readout.p1", True),
    ("model.readout_on and model.cnot_dp_on", False),
    ("model.theta[model.column('x', (q,))]", False),
    ("CompositeNoiseModel(readout={}, cnot={}, avg_x=0.1)", False),
    ("replace(model, h_gate={})", False), ("from .circuit import cnot\ncnot(0, 1)", False),
], ids=lambda x: x if isinstance(x, str) else None)
def test_the_rate_scan_tells_rate_reads_from_other_code(source, reads):
    assert bool(_rate_reads(source)) is reads


def test_only_noise_reads_a_models_rates():
    """Every rate the package reads from a model goes through `noise.py`'s
    one rule, `CompositeNoiseModel.column`."""
    package = Path(noisekit.__file__).parent
    reads = {path.name: _rate_reads(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert reads.pop("noise.py")
    assert {name: found for name, found in reads.items() if found} == {}


def test_only_noise_reads_a_models_flags():
    """Which channels are off is part of `column`: no module but `noise.py`
    reads a model's `readout_on` or `cnot_dp_on`."""
    package = Path(noisekit.__file__).parent
    reads = {path.name: [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute)
                         and node.attr in ("readout_on", "cnot_dp_on")]
             for path in sorted(package.glob("*.py"))}
    assert reads.pop("noise.py")
    assert {name: found for name, found in reads.items() if found} == {}
