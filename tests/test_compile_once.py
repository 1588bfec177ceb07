"""Each command derives each thing once: a circuit object is lowered and
compiled once, and a record family is fitted once per table and key. The
results live on the circuit and the table they came from, so nothing
carries over from one command to the next, and reusing them changes no
number."""
import dataclasses
import io
import json
import random
from contextlib import redirect_stdout

import numpy as np
import pytest
from law_oracle import one_by_one_law
from noisekit import estimation, simulator
from noisekit.applications import build_bv, build_ghz
from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import (
    Records, SuitePlan, TestKind, build_suite, materialize, run_suite,
)
from noisekit.cli import main
from noisekit.devices import jittered_truth, ladder20, line
from noisekit.errors import NoConvergence
from noisekit.estimation import fit_composite
from noisekit.noise import REGISTER_AVERAGE, SUBSET_AVERAGE, VARIANTS
from noisekit.simulator import TrajectorySampler, simulate_noisy_exact

FAMILIES = ("_p0_fits", "_aro_fits", "_hadamard_fits", "_pcnot_fits")
# the demo's eight fits: every variant per element, and aro+dp averaged
# over the register and over the subset (0, 1)
DEMO_CONFIGS = [dict(variant=v) for v in VARIANTS] + [
    dict(variant="aro+dp", granularity=REGISTER_AVERAGE),
    dict(variant="aro+dp", granularity=SUBSET_AVERAGE, subset=(0, 1)),
]


def _inputs(args) -> tuple:
    """A family fit's inputs after its table, as comparable values."""
    return tuple(a.tobytes() if isinstance(a, np.ndarray) else repr(a) for a in args)


class _Recorder:
    """Every lowering (with its circuit object, kept alive so that ids stay
    unique), every shape compiled, each `_laws` call's circuits, and every
    family fit with its table and inputs."""

    def __init__(self, monkeypatch):
        self.lowered, self.calls, self.fits = [], [], []
        lower, laws, shape = simulator._lower, simulator._laws, simulator._Shape
        self.key_of = lambda circuit: lower(circuit)[0]
        recorder = self

        def counting_lower(circuit):
            recorder.lowered.append(circuit)
            return lower(circuit)

        def counting_laws(circuits, *args, **kwargs):
            recorder.calls.append((list(circuits), []))
            return laws(circuits, *args, **kwargs)

        class CountingShape(shape):
            def __init__(self, *key):
                recorder.calls[-1][1].append(key)
                super().__init__(*key)

        monkeypatch.setattr(simulator, "_lower", counting_lower)
        monkeypatch.setattr(simulator, "_laws", counting_laws)
        monkeypatch.setattr(simulator, "_Shape", CountingShape)
        for name in FAMILIES:
            monkeypatch.setattr(estimation, name, self._family(name, getattr(estimation, name)))

    def _family(self, name, fit):
        def counting_fit(records, *args):
            self.fits.append((name, records, _inputs(args)))
            return fit(records, *args)
        return counting_fit

    def family_counts(self) -> dict:
        return {name: sum(f[0] == name for f in self.fits) for name in FAMILIES}


def _quiet_main(argv) -> int:
    with redirect_stdout(io.StringIO()):
        return main(argv)


def _demo_argv(tmp_path, shots="256"):
    return ["demo", "full-paper", "--shots", shots, "--seed", "42", "--resamples", "2",
            "--out", str(tmp_path / "demo")]


@pytest.fixture(scope="module")
def demo_call(tmp_path_factory):
    """What one demo call lowered, compiled and fitted."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _Recorder(monkeypatch)
        assert _quiet_main(_demo_argv(tmp_path_factory.mktemp("demo"))) == 0
    return seen


def test_a_demo_call_lowers_each_circuit_object_once(demo_call):
    ids = [id(c) for c in demo_call.lowered]
    assert ids and len(ids) == len(set(ids))


def test_a_demo_call_compiles_shapes_only_for_new_circuits(demo_call):
    """A `_laws` call compiles a shape only for a key that some circuit new
    to it carries, and at most once per key."""
    known: set[int] = set()
    for circuits, keys in demo_call.calls:
        new_keys = {demo_call.key_of(c) for c in circuits if id(c) not in known}
        assert len(keys) == len(set(keys))
        assert set(keys) <= new_keys
        known.update(map(id, circuits))
    assert 0 < sum(len(keys) for _, keys in demo_call.calls) <= len(known)


def test_a_demo_call_fits_each_family_once_per_input(demo_call):
    """No family is fitted twice on one table with the same inputs, and the
    demo's suite, which has no Hadamard trains, fits no Hadamard family."""
    fits = [(name, id(records), inputs) for name, records, inputs in demo_call.fits]
    assert fits and len(fits) == len(set(fits))
    assert demo_call.family_counts()["_hadamard_fits"] == 0
    # one suite table: every fit reads it
    assert len({id(records) for _, records, _ in demo_call.fits}) == 1


def test_an_exact_evaluation_compiles_its_circuit_once(tmp_path, monkeypatch):
    """`evaluate --exact --app ghz:4` draws the run on the mock QPU and
    scores it exactly, both from one compiled shape."""
    topo = line(4)
    device, truth, model = (tmp_path / f"{name}.json" for name in ("device", "truth", "model"))
    topo.save(device)
    MockGroundTruth(jittered_truth(topo, 1), 0.04).save(truth)
    jittered_truth(topo, 2).save(model)
    seen = _Recorder(monkeypatch)
    assert _quiet_main(["evaluate", "--device", str(device), "--backend", f"mock:{truth}",
                        "--app", "ghz:4", "--model", str(model), "--shots", "64", "--exact",
                        "--out", str(tmp_path / "out")]) == 0
    assert len(seen.calls) == 2
    assert sum(len(keys) for _, keys in seen.calls) == 1
    assert len(seen.lowered) == 1


def test_nothing_carries_over_between_commands(tmp_path, monkeypatch):
    """Two identical demo calls in one process compile as many shapes and
    fit as many families as each other: the second finds nothing kept."""
    seen = _Recorder(monkeypatch)
    counts = []
    for _ in range(2):
        assert _quiet_main(_demo_argv(tmp_path, shots="64")) == 0
        counts.append((len(seen.lowered), sum(len(k) for _, k in seen.calls),
                       seen.family_counts()))
        seen.lowered.clear(), seen.calls.clear(), seen.fits.clear()
    assert counts[0] == counts[1]
    assert counts[0][1] > 0
    assert counts[0][2] == {"_p0_fits": 2, "_aro_fits": 2, "_hadamard_fits": 0, "_pcnot_fits": 4}


def test_a_suite_run_lowers_one_circuit_per_test_kind(tmp_path, monkeypatch):
    """`characterize` of a ladder20 suite with trains 2, 4, 8 and 16 runs
    163 circuits but lowers 8, one template per test kind (init, x, xx,
    four trains, Bell), and compiles each of their shapes once."""
    topo = ladder20()
    device, truth = tmp_path / "device.json", tmp_path / "truth.json"
    topo.save(device)
    MockGroundTruth(jittered_truth(topo, 42), 0.04).save(truth)
    seen = _Recorder(monkeypatch)
    assert _quiet_main(["characterize", "--device", str(device), "--backend", f"mock:{truth}",
                        "--hadamard-lengths", "2,4,8,16", "--shots", "64",
                        "--out", str(tmp_path / "out")]) == 0
    assert [len(circuits) for circuits, _ in seen.calls] == [163]
    assert len(seen.lowered) == 8
    assert len(seen.calls[0][1]) == 8


def _demo_fits(topo, truth):
    plan = build_suite(topo, hadamard_lengths=(2, 4, 8), shots=2048, seed=5)
    records = run_suite(plan, MockBackend(topo, truth))
    return records, [fit_composite(records, **config).model for config in DEMO_CONFIGS]


class _KeepingBackend(MockBackend):
    """A mock QPU that keeps the circuits of its last run."""

    def run(self, circuits, shots, seed):
        self.circuits = circuits
        return super().run(circuits, shots, seed)


def test_reused_circuits_give_the_laws_of_fresh_ones():
    """One set of circuit objects, its laws taken under the truth with hidden
    readout, then under each demo model, then with no hidden readout: every
    law equals, bit for bit, the one-by-one law of a fresh copy. So does
    every circuit a suite run placed, for every test of a ladder20 suite
    with trains 2 to 32 and the Bell test of (0, 1) recorded as
    `bell:q1-q0`, under the truth with hidden readout: each fresh copy is
    lowered on its own, where the placed circuit took its template's
    lowered form."""
    topo = ladder20()
    truth = MockGroundTruth(jittered_truth(topo, 42), 0.04)
    _, models = _demo_fits(topo, truth)
    circuits = [materialize(TestKind("bell", coupling=(0, 1)))]
    circuits += [build_ghz(n, topo) for n in range(2, 8)]
    circuits += [build_bv(format(i, "03b"), [6, 8, 12], 7, topo) for i in range(8)]
    circuits += [materialize(t) for t in build_suite(topo, hadamard_lengths=(2, 4)).tests[::7]]

    def check(circuits, model, strength):
        for circuit, sampler in zip(circuits, TrajectorySampler.for_circuits(
                circuits, model, strength)):
            fresh = dataclasses.replace(circuit)
            assert fresh._compiled is None
            want = one_by_one_law(fresh, model, strength)
            assert sampler.law.tobytes() == want.tobytes(), (circuit.label, strength)
            if not strength:
                assert TrajectorySampler(circuit, model).law.tobytes() == want.tobytes()
                exact = simulate_noisy_exact(circuit, model)
                assert exact == simulate_noisy_exact(fresh, model)

    check(circuits, truth.model, truth.hidden_readout_strength)
    assert all(c._compiled is not None for c in circuits)
    for model in models:
        check(circuits, model, 0.0)
    check(circuits, truth.model, 0.0)

    tests = build_suite(topo, hadamard_lengths=tuple(range(2, 33, 2))).tests
    tests = tuple(TestKind.from_label("bell:q1-q0") if t.label == "bell:q0-q1" else t
                  for t in tests)
    backend = _KeepingBackend(topo, truth)
    run_suite(SuitePlan(tests, 1, 0), backend)
    placed = backend.circuits
    assert [c.label for c in placed] == [t.label for t in tests] and len(placed) == 403
    assert [g.qubits for g in placed[tests.index(TestKind.from_label("bell:q1-q0"))].gates] == [
        (1,), (1, 0), (1,), (0,)]
    check(placed, truth.model, truth.hidden_readout_strength)


@pytest.mark.parametrize("order_seed", range(4))
def test_fits_in_any_order_on_one_table_are_fits_on_fresh_tables(order_seed):
    """The demo's eight configs fitted on one table in a shuffled order give
    the diagnostics and model files of each config fitted on a table of
    its own."""
    topo = line(5)
    records, _ = _demo_fits(topo, MockGroundTruth(jittered_truth(topo, 3)))

    def fresh() -> Records:
        return Records(records.tests, records.counts.copy(), records.shots.copy())

    want = {}
    for i, config in enumerate(DEMO_CONFIGS):
        fit = fit_composite(fresh(), **config)
        want[i] = fit.diagnostics_dict(), json.dumps(fit.model.to_json_dict())
    order = list(range(len(DEMO_CONFIGS)))
    random.Random(order_seed).shuffle(order)
    shared = fresh()
    for i in order + order:
        fit = fit_composite(shared, **DEMO_CONFIGS[i])
        assert (fit.diagnostics_dict(), json.dumps(fit.model.to_json_dict())) == want[i]


def test_a_family_that_raises_raises_again():
    """No failure is kept: a table whose X test makes p_x unidentifiable
    (g_x = 1 - p0) raises NoConvergence on every fit that needs it, while
    a fit without the X/XX system still succeeds between them."""
    counts = np.array([[9000, 1000, 0, 0], [9000, 1000, 0, 0], [5000, 5000, 0, 0]])
    records = Records((TestKind("init", qubit=0), TestKind("x", qubit=0),
                       TestKind("xx", qubit=0)), counts, np.full(3, 10000))
    for variant in ("aro", "sro", "aro"):
        if variant == "aro":
            with pytest.raises(NoConvergence):
                fit_composite(records, variant)
        else:
            assert fit_composite(records, variant).estimates
