import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from count_tables import rows_where

import noisekit
from noisekit import characterization, cli
from noisekit.backend import MAX_SHOTS, MockGroundTruth
from noisekit.characterization import (
    archive_dict, archive_hash, build_suite, run_suite,
)
from noisekit.circuit import MAX_DEVICE_QUBITS
from noisekit.cli import COMMANDS, build_parser, main
from noisekit.devices import line, uniform_truth
from noisekit.errors import ConfigError, write_json_file
from noisekit.noise import CompositeNoiseModel


@pytest.fixture
def setup(tmp_path):
    """Device + mock truth files for a 4-qubit line."""
    topo = line(4)
    device = tmp_path / "device.json"
    topo.save(device)
    truth = tmp_path / "truth.json"
    MockGroundTruth(uniform_truth(topo)).save(truth)
    return tmp_path, device, truth


def _characterize(tmp_path, device, truth, out="run", seed="42", shots="2048", extra=()):
    code = main([
        "characterize", "--device", str(device), "--backend", f"mock:{truth}",
        "--shots", shots, "--seed", seed, "--out", str(tmp_path / out), *extra,
    ])
    assert code == 0
    return tmp_path / out / "archive.json"


def test_characterize_writes_census_archive(setup):
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    data = json.loads(archive.read_text())
    assert len(data["entries"]) == 3 * 4 + 3  # 3q + c labeled entries
    labels = {e["label"] for e in data["entries"]}
    assert "init:q0" in labels and "bell:q2-q3" in labels
    budget = json.loads((tmp_path / "run" / "budget.json").read_text())
    assert budget["num_circuits"] == 15
    assert budget["formula_2q_plus_2c_plus_1_shots"] == 2048 * 15


def test_characterize_subset_plans_the_subset_suite(setup):
    """`--subset` alone plans the subset's one-qubit tests and the couplings
    inside it."""
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth, extra=("--subset", "1,2"))
    labels = [e["label"] for e in json.loads(archive.read_text())["entries"]]
    assert labels == ["init:q1", "init:q2", "x:q1", "x:q2", "xx:q1", "xx:q2", "bell:q1-q2"]


def test_characterize_missing_device_exit_2(setup, capsys):
    tmp_path, _, truth = setup
    code = main([
        "characterize", "--device", str(tmp_path / "nope.json"),
        "--backend", f"mock:{truth}", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_characterize_zero_shots_exit_2(setup, capsys):
    tmp_path, device, truth = setup
    code = main([
        "characterize", "--device", str(device), "--backend", f"mock:{truth}",
        "--shots", "0", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_fit_produces_feasible_model(setup):
    tmp_path, device, truth = setup
    # Every estimate must land on the feasible side of zero, so each truth
    # value sits several stderrs clear of it at 8192 shots: p_x = 0.015
    # (stderr ~0.0022, 6.8 sigma), p_cnot = 0.02 (~0.0045, 4.4 sigma), p0
    # and p1 over 13 sigma. The default p_x = 0.0033 is only 1.7 sigma.
    MockGroundTruth(uniform_truth(line(4), p_x=0.015)).save(truth)
    archive = _characterize(tmp_path, device, truth, shots="8192")
    code = main(["fit", "--archive", str(archive), "--flags", "aro+dp",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    model = CompositeNoiseModel.load(tmp_path / "run" / "model-aro_dp-per_element.json")
    assert len(model.readout) == 4 and len(model.cnot) == 3
    diag = json.loads(
        (tmp_path / "run" / "model-aro_dp-per_element.diagnostics.json").read_text()
    )
    assert all(p["feasible"] for p in diag["parameters"].values())


def test_fit_sro_register_average_single_readout_parameter(setup):
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    code = main(["fit", "--archive", str(archive), "--flags", "sro",
                 "--granularity", "register_average", "--out", str(tmp_path / "run")])
    assert code == 0
    model = CompositeNoiseModel.load(
        tmp_path / "run" / "model-sro-register_average.json"
    )
    assert model.num_parameters() == 1
    assert model.avg_readout.is_symmetric


def test_fit_builds_no_circuit(setup, monkeypatch):
    """A fit reads only each record's test and counts: it succeeds with
    circuit building patched to fail."""
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)

    def refuse(test):
        raise AssertionError(f"fit built the circuit of {test.label}")

    monkeypatch.setattr(characterization, "materialize", refuse)
    code = main(["fit", "--archive", str(archive), "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "model-aro_dp-per_element.json").exists()


def test_fit_missing_bell_coverage_exit_1(setup, capsys):
    tmp_path, device, truth = setup
    topo = line(4)
    plan = build_suite(topo, shots=256, seed=1)
    from noisekit.backend import MockBackend

    records = rows_where(run_suite(plan, MockBackend(topo, MockGroundTruth.load(truth))),
                         lambda t: t.kind != "bell")
    partial = tmp_path / "partial.json"
    write_json_file(partial, archive_dict(plan, records))
    code = main(["fit", "--archive", str(partial), "--flags", "aro+dp",
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "MissingCoverage"


def test_evaluate_ghz_score(setup):
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    main(["fit", "--archive", str(archive), "--out", str(tmp_path / "run")])
    model = tmp_path / "run" / "model-aro_dp-per_element.json"
    code = main([
        "evaluate", "--device", str(device), "--backend", f"mock:{truth}",
        "--app", "ghz:3", "--model", str(model), "--shots", "2048",
        "--seed", "5", "--resamples", "20", "--out", str(tmp_path / "eval"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert 0.0 <= report["score"]["tvd"] <= 1.0


def test_evaluate_scaling_csv(setup):
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    main(["fit", "--archive", str(archive), "--out", str(tmp_path / "run")])
    model = tmp_path / "run" / "model-aro_dp-per_element.json"
    code = main([
        "evaluate", "--device", str(device), "--backend", f"mock:{truth}",
        "--app", "ghz:2..4", "--model", str(model),
        "--shots", "2048", "--seed", "5", "--resamples", "10",
        "--out", str(tmp_path / "eval"),
    ])
    assert code == 0
    lines = (tmp_path / "eval" / "scaling.csv").read_text().splitlines()
    assert lines[0] == "n,cnot_count,tvd_mean,tvd_std,tvd_per_cnot"
    assert len(lines) == 4  # n = 2, 3, 4


def test_evaluate_bv_accuracy_pair(setup):
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    main(["fit", "--archive", str(archive), "--out", str(tmp_path / "run")])
    model = tmp_path / "run" / "model-aro_dp-per_element.json"
    code = main([
        "evaluate", "--device", str(device), "--backend", f"mock:{truth}",
        "--app", "bv:10@0,2/1", "--model", str(model), "--shots", "2048",
        "--seed", "5", "--out", str(tmp_path / "eval"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert set(report["bv"]) >= {"secret", "observed_accuracy", "predicted_accuracy"}
    assert report["bv"]["observed_accuracy"] > 0.5


def test_evaluate_bv_prediction_draws_sim_shots(setup):
    """The single-model bv prediction is one draw of the run's --shots, and
    the report records that nothing is resampled."""
    tmp_path, device, truth = setup
    model = tmp_path / "model.json"
    uniform_truth(line(4)).save(model)
    out = tmp_path / "eval"
    code = main(["evaluate", "--device", str(device), "--backend", f"mock:{truth}",
                 "--app", "bv:1@0/1", "--model", str(model), "--shots", "256",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    predicted = report["bv"]["predicted_accuracy"] * 256
    assert predicted == pytest.approx(round(predicted), abs=1e-9)
    assert report["meta"]["config"]["resamples"] is None


def test_evaluate_select_walks_ladder(setup):
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    for flags in ("sro", "aro+dp"):
        main(["fit", "--archive", str(archive), "--flags", flags,
              "--out", str(tmp_path / "run")])
    code = main([
        "evaluate", "--device", str(device), "--backend", f"mock:{truth}",
        "--app", "ghz:4",
        "--model", str(tmp_path / "run" / "model-sro-per_element.json"),
        "--model", str(tmp_path / "run" / "model-aro_dp-per_element.json"),
        "--threshold", "0.08", "--shots", "2048", "--seed", "3",
        "--resamples", "20", "--out", str(tmp_path / "eval"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["selection"]["threshold_met"]


def test_evaluate_compare_ranking(setup):
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    for flags in ("noiseless", "aro+dp"):
        main(["fit", "--archive", str(archive), "--flags", flags,
              "--out", str(tmp_path / "run")])
    code = main([
        "evaluate", "--device", str(device), "--backend", f"mock:{truth}",
        "--app", "ghz:4",
        "--model", str(tmp_path / "run" / "model-noiseless-per_element.json"),
        "--model", str(tmp_path / "run" / "model-aro_dp-per_element.json"),
        "--shots", "2048", "--seed", "3", "--resamples", "20",
        "--out", str(tmp_path / "eval"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    ranking = [r["model_id"] for r in report["ranking"]]
    assert ranking[0] == "model-aro_dp-per_element"


@pytest.mark.parametrize("app, extra, key", [
    ("ghz:3", [], "score"),
    ("ghz:3", ["--exact"], "score"),
    ("ghz:2..3", [], "scaling"),
    ("ghz:3..3", [], "scaling"),
    ("ghz:3", ["--threshold", "0.5"], "selection"),
    ("ghz:3", ["--threshold", "0.5", "--model", "TWO"], "selection"),
    ("ghz:3", ["--model", "TWO", "--model", "TWO"], "ranking"),
    ("ghz:3", ["--model", "TWO"], "ranking"),
    ("bv:1@0/1", [], "bv"),
    ("bv:1@0/1", ["--model", "TWO"], "ranking"),
    ("bv:1@0/1", ["--threshold", "0.5"], "selection"),
])
def test_evaluate_mode_follows_inputs(setup, app, extra, key):
    """The app and the flags given pick the one report an evaluation
    writes: a ghz:<a>..<b> app is the scaling report, --threshold selects,
    two or more models rank, and one model scores or, on a bv: app,
    predicts the secret's accuracy."""
    tmp_path, device, truth = setup
    argv = _evaluate_argv(tmp_path, device, truth, app=app)
    CompositeNoiseModel.noiseless().save(tmp_path / "two.json")
    extra = [str(tmp_path / "two.json") if arg == "TWO" else arg for arg in extra]
    out = tmp_path / "eval"
    assert main([*argv, *extra, "--resamples", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"meta", "app", key}
    assert "select" not in report["meta"]["config"]
    assert "scaling" not in report["meta"]["config"]


@pytest.mark.parametrize("app, extra, named", [
    ("ghz:2..3", ["--exact"], "--exact and --app ghz:2..3"),
    ("ghz:3", ["--exact", "--threshold", "0.5"], "--exact and --threshold"),
    ("ghz:2..3", ["--threshold", "0.5"], "--threshold and --app ghz:2..3"),
    ("ghz:2..3", ["--exact", "--threshold", "0.5"], "--exact and --threshold and --app"),
])
def test_conflicting_modes_are_named(setup, capsys, app, extra, named):
    tmp_path, device, truth = setup
    argv = _evaluate_argv(tmp_path, device, truth, app=app)
    assert main([*argv, *extra, "--out", str(tmp_path / "o")]) == 2
    assert named in json.loads(capsys.readouterr().err)["message"]


def test_out_defaults_to_the_working_directory(setup, monkeypatch):
    """Without --out a command writes into the working directory, whatever
    the environment holds."""
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth, shots="64")
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    monkeypatch.setenv("NOISEKIT_OUT", str(tmp_path / "env"))
    assert main(["fit", "--archive", str(archive)]) == 0
    assert sorted(p.name for p in here.iterdir()) == [
        "model-aro_dp-per_element.diagnostics.json", "model-aro_dp-per_element.json"]
    assert not (tmp_path / "env").exists()


def _dests(command: str) -> set[str]:
    """The dests of every option `command`'s parser takes, help aside."""
    parser = cli._Parser()
    COMMANDS[command][1](parser)
    return {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}


def test_report_config_holds_every_option_but_out(setup):
    """Each report's meta config names the command and every option its
    parser took, --out aside."""
    tmp_path, device, truth = setup
    _characterize(tmp_path, device, truth, shots="64")
    evaluate = [*_evaluate_argv(tmp_path, device, truth), "--resamples", "2"]
    assert main([*evaluate, "--out", str(tmp_path / "e")]) == 0
    assert main(["demo", "--shots", "64", "--max-ghz", "2", "--resamples", "2",
                 "--out", str(tmp_path / "d")]) == 0
    for command, report in (("characterize", "run/archive.json"),
                            ("evaluate", "e/report.json"), ("demo", "d/summary.json")):
        config = json.loads((tmp_path / report).read_text())["meta"]["config"]
        assert config["command"] == command
        assert set(config) == {"command"} | _dests(command) - {"out"}, command


def test_config_hash_tells_runs_apart(setup):
    """Runs that differ in any option but --out get different config hashes:
    a demo's --max-ghz and --resamples, and an evaluation's --exact."""
    tmp_path, device, truth = setup
    demo = ["demo", "--shots", "64", "--seed", "1"]
    evaluate = [*_evaluate_argv(tmp_path, device, truth), "--resamples", "2"]
    runs = {"demo": [*demo, "--max-ghz", "3", "--resamples", "2"],
            "demo-elsewhere": [*demo, "--max-ghz", "3", "--resamples", "2"],
            "demo-max-ghz": [*demo, "--max-ghz", "4", "--resamples", "2"],
            "demo-resamples": [*demo, "--max-ghz", "3", "--resamples", "5"],
            "evaluate": evaluate,
            "evaluate-exact": [*evaluate, "--exact"]}
    hashes = {}
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        report = "summary.json" if argv[0] == "demo" else "report.json"
        hashes[name] = json.loads((tmp_path / name / report).read_text())["meta"]["config_hash"]
    assert hashes.pop("demo-elsewhere") == hashes["demo"]
    assert len(set(hashes.values())) == len(hashes), hashes


def test_characterize_byte_stable_modulo_meta(setup):
    tmp_path, device, truth = setup
    a = json.loads(_characterize(tmp_path, device, truth, out="r1").read_text())
    b = json.loads(_characterize(tmp_path, device, truth, out="r2").read_text())
    a.pop("meta"), b.pop("meta")
    assert a == b


def test_fit_byte_stable(setup):
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    for out in ("f1", "f2"):
        main(["fit", "--archive", str(archive), "--out", str(tmp_path / out)])
    one = (tmp_path / "f1" / "model-aro_dp-per_element.json").read_bytes()
    two = (tmp_path / "f2" / "model-aro_dp-per_element.json").read_bytes()
    assert one == two


def test_fit_provenance_is_archive_hash(setup):
    """The fitted model's provenance, hashed from the parsed archive, equals
    archive_hash of the archive file byte for byte."""
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    assert main(["fit", "--archive", str(archive), "--out", str(tmp_path / "f")]) == 0
    model = json.loads((tmp_path / "f" / "model-aro_dp-per_element.json").read_text())
    assert model["provenance"] == archive_hash(archive)


def test_file_backend_through_cli(setup):
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth)
    out = tmp_path / "refit"
    code = main(["characterize", "--device", str(device),
                 "--backend", f"file:{archive}", "--shots", "2048",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    replay = json.loads((out / "archive.json").read_text())
    original = json.loads(archive.read_text())
    assert replay["entries"] == original["entries"]


def _evaluate_argv(tmp_path, device, truth, app="ghz:3"):
    model = tmp_path / "model.json"
    uniform_truth(line(4)).save(model)
    return ["evaluate", "--device", str(device), "--backend", f"mock:{truth}",
            "--app", app, "--model", str(model), "--shots", "64"]


def _demo_argv(tmp_path, device, truth):
    return ["demo", "--shots", "64", "--max-ghz", "2"]


@pytest.mark.parametrize("resamples", ["0", "-3"])
@pytest.mark.parametrize("make_argv", [_evaluate_argv, _demo_argv],
                         ids=["evaluate", "demo"])
def test_resamples_below_one_exit_2(setup, capsys, make_argv, resamples):
    tmp_path, device, truth = setup
    argv = make_argv(tmp_path, device, truth)
    code = main([*argv, "--resamples", resamples, "--out", str(tmp_path / "o")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert not (tmp_path / "o" / "archive.json").exists()  # rejected before any run


def _characterize_argv(tmp_path, device, truth, *extra):
    return ["characterize", "--device", str(device), "--backend", f"mock:{truth}",
            "--shots", "64", *extra]


def _truncated(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    return path


def _self_loop_device(tmp_path, device, truth):
    bad = tmp_path / "loop.json"
    bad.write_text(json.dumps({"num_qubits": 2, "couplings": [[0, 1], [1, 1]]}))
    return _characterize_argv(tmp_path, bad, truth)


def _device_file(data):
    """Characterize the subset (0, 1) of a device file holding `data`: the
    subset keeps a run of any register small, should the file be read."""
    def make(tmp_path, device, truth):
        bad = tmp_path / "bad-device.json"
        bad.write_text(json.dumps(data))
        return _characterize_argv(tmp_path, bad, truth, "--subset", "0,1")
    return make


def _truncated_model(tmp_path, device, truth):
    argv = _evaluate_argv(tmp_path, device, truth)
    _truncated(tmp_path / "model.json")
    return argv


def _entries_not_a_list(tmp_path, device, truth):
    archive = tmp_path / "bad-archive.json"
    archive.write_text(json.dumps({"entries": 5}))
    return ["fit", "--archive", str(archive)]


def _subset_fit_without_subset(tmp_path, device, truth):
    archive = _characterize(tmp_path, device, truth, shots="64")
    return ["fit", "--archive", str(archive), "--granularity", "subset_average"]


def _archive_edit(edit):
    """`fit` on an archive changed by `edit(data)`."""
    def make_argv(tmp_path, device, truth):
        archive = _characterize(tmp_path, device, truth, shots="64")
        _edited(archive, edit)
        return ["fit", "--archive", str(archive)]
    return make_argv


def _entry_edit(label, edit):
    """`fit` on an archive whose entry `label` is changed by `edit(entry)`."""
    return _archive_edit(lambda data: edit(next(e for e in data["entries"]
                                                 if e["label"] == label)))


def _archive_entry_counts(label, counts):
    """`fit` on an archive whose entry `label` holds `counts`."""
    return _entry_edit(label, lambda e: e.update(counts=counts, shots=sum(counts.values())))


def _first_count(convert):
    """Entry edit: the entry's first count becomes convert(count); the shots
    field is left alone."""
    def edit(entry):
        key = next(iter(entry["counts"]))
        entry["counts"][key] = convert(entry["counts"][key])
    return edit


def _fit_subset_per_element(tmp_path, device, truth):
    archive = _characterize(tmp_path, device, truth, shots="64")
    return ["fit", "--archive", str(archive), "--subset", "0"]


def _edited(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edited_truth(edit):
    def make_argv(tmp_path, device, truth):
        _edited(truth, edit)
        return _characterize_argv(tmp_path, device, truth)
    return make_argv


def _negative_pcnot_model(tmp_path, device, truth):
    argv = _evaluate_argv(tmp_path, device, truth)
    _edited(tmp_path / "model.json", lambda d: d["cnot"]["0-1"].update(p_cnot=-0.1))
    return argv


def _register_average(average=None):
    """A saved-model edit: register-average, with `average` (or no block at
    all) as its only rates."""
    def edit(data):
        data.update(granularity="register_average", readout={}, x_gate={}, h_gate={}, cnot={},
                    average=average)
        if average is None:
            del data["average"]
    return edit


def _edited_model(edit):
    def make_argv(tmp_path, device, truth):
        argv = _evaluate_argv(tmp_path, device, truth)
        _edited(tmp_path / "model.json", edit)
        return argv
    return make_argv


_PCNOT_ABOVE_1 = {"p0": 0.02, "p1": 0.05, "p_x": 0.003, "p_h": 0.0, "p_cnot": 2.0}


def _subset_beyond_device(tmp_path, device, truth):
    small = tmp_path / "line3.json"
    line(3).save(small)
    return _characterize_argv(tmp_path, small, truth, "--subset", "0,7")


def _fit_subset_repeated(tmp_path, device, truth):
    archive = _characterize(tmp_path, device, truth, shots="64")
    return ["fit", "--archive", str(archive), "--granularity", "subset_average",
            "--subset", "1,1"]


def _relabelled(label, new_label):
    """`fit` on an archive whose entry `label` is relabelled `new_label`."""
    return _entry_edit(label, lambda e: e.update(label=new_label))


def _device(data):
    """`characterize` on a device file holding `data`."""
    def make_argv(tmp_path, device, truth):
        bad = tmp_path / "bad-device.json"
        bad.write_text(json.dumps(data))
        return _characterize_argv(tmp_path, bad, truth)
    return make_argv


def _fit_subset_negative(tmp_path, device, truth):
    archive = _characterize(tmp_path, device, truth, shots="64")
    return ["fit", "--archive", str(archive), "--granularity", "subset_average",
            "--subset=-1,0"]


def _bell_both_directions(data):
    """A second record of the coupling (0, 1), measured the other way round."""
    bell = next(e for e in data["entries"] if e["label"] == "bell:q0-q1")
    data["entries"].append({**bell, "label": "bell:q1-q0"})


def _file_backend(*entries, app="ghz:3"):
    """`evaluate --exact` of `app` replayed from an archive of ghz:3's
    64-shot entry and `entries`."""
    def make_argv(tmp_path, device, truth):
        archive = tmp_path / "ghz-archive.json"
        ghz = {"label": "ghz:3", "shots": 64, "counts": {"000": 32, "111": 32}}
        archive.write_text(json.dumps({"entries": [ghz, *entries]}))
        argv = _evaluate_argv(tmp_path, device, truth, app=app)
        argv[argv.index("--backend") + 1] = f"file:{archive}"
        return [*argv, "--exact"]
    return make_argv


def _replayed_two_bit_init(tmp_path, device, truth):
    """`characterize` of line(1) replayed from an archive whose init:q0
    holds two-bit counts."""
    small = tmp_path / "line1.json"
    line(1).save(small)
    archive = tmp_path / "line1-archive.json"
    entries = [{"label": "init:q0", "shots": 64, "counts": {"00": 64}}]
    entries += [{"label": label, "shots": 64, "counts": {"1": 64}} for label in ("x:q0", "xx:q0")]
    archive.write_text(json.dumps({"entries": entries}))
    argv = _characterize_argv(tmp_path, small, truth)
    argv[argv.index("--backend") + 1] = f"file:{archive}"
    return argv


def _two_bad_entries(data):
    """init:q1 with a negative count, then x:q0 with a float count, which
    the count rules' type check meets before any sign check."""
    entries = {e["label"]: e for e in data["entries"]}
    entries["init:q1"]["counts"] = {"0": -1, "1": entries["init:q1"]["shots"] + 1}
    entries["x:q0"]["counts"] = {"1": float(entries["x:q0"]["shots"])}


def _evaluate_without_model(tmp_path, device, truth):
    argv = _evaluate_argv(tmp_path, device, truth)
    cut = argv.index("--model")
    return argv[:cut] + argv[cut + 2:]


def _replayed_at_other_shots(tmp_path, device, truth):
    """`characterize` replayed from a 2048-shot archive at 64 shots."""
    archive = _characterize(tmp_path, device, truth)
    return _characterize_argv(tmp_path, device, truth, "--backend", f"file:{archive}")


def _out_is_a_file(tmp_path, device, truth):
    (tmp_path / "o").write_text("not a directory")
    return _characterize_argv(tmp_path, device, truth)


def _deeply_nested(role):
    """A command whose `role` file (device, truth, model or archive) holds
    100,000 nested `[`, deeper than `json.loads` recurses."""
    def make_argv(tmp_path, device, truth):
        archive = tmp_path / "archive.json"
        argv = (["fit", "--archive", str(archive)] if role == "archive"
                else _evaluate_argv(tmp_path, device, truth))
        files = {"device": device, "truth": truth, "model": tmp_path / "model.json",
                 "archive": archive}
        files[role].write_text("[" * 100_000)
        return argv
    return make_argv


def _app_on_line(app, qubits):
    """`evaluate` of `app` on a device that is a line of `qubits` qubits."""
    def make_argv(tmp_path, device, truth):
        long_line = tmp_path / "long-line.json"
        line(qubits).save(long_line)
        return _evaluate_argv(tmp_path, long_line, truth, app=app)
    return make_argv


_MISSPELLED_ELEMENTS = {
    "qubit-leading-zero": lambda d: d["readout"].update({"01": {"p0": 0.5, "p1": 0.5}}),
    "coupling-leading-zero": lambda d: d["cnot"].update({"00-1": {"p_cnot": 0.5}}),
    "qubit-plus": lambda d: d["x_gate"].update({"+1": {"p_x": 0.5}}),
    "qubit-space": lambda d: d["x_gate"].update({" 1": {"p_x": 0.5}}),
    "qubit-underscore": lambda d: d["x_gate"].update({"1_0": {"p_x": 0.5}}),
    "subset-string": lambda d: d.update(subset="abc"),
    "subset-bool-float": lambda d: d.update(subset=[True, 1.5]),
}


MALFORMED_INPUTS = {
    "app-ghz-abc": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="ghz:abc"), "ConfigError"),
    "app-ghz-range": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="ghz:2..x"), "ConfigError"),
    "app-bv-data": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="bv:10@0,x/1"), "ConfigError"),
    "app-bv-oracle": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="bv:10@0,2/y"), "ConfigError"),
    # every number of an app spec is an ASCII decimal, and a range has both ends
    "app-ghz-open-range": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="ghz:2.."),
                           "ConfigError"),
    "app-ghz-underscore": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="ghz:0_3"),
                           "ConfigError"),
    "app-ghz-plus": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="ghz:+3"), "ConfigError"),
    "app-ghz-space": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="ghz: 3"), "ConfigError"),
    "app-bv-data-underscore": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="bv:1@0_0/1"),
                               "ConfigError"),
    "app-ghz-empty-range": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="ghz:5..3"),
                            "ConfigError"),
    "app-unknown-kind": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="foo:3"), "ConfigError"),
    "backend-unknown-kind": (lambda t, d, tr: _characterize_argv(t, d, tr, "--backend", "qpu:x"),
                             "ConfigError"),
    "file-backend-shots-mismatch": (_replayed_at_other_shots, "ParseError"),
    "subset-token": (lambda t, d, tr: _characterize_argv(t, d, tr, "--subset", "0,x"),
                     "ConfigError"),
    "device-self-loop": (_self_loop_device, "ParseError"),
    "device-over-max-qubits": (_device_file(
        {"num_qubits": MAX_DEVICE_QUBITS + 1, "couplings": [[0, 1]]}), "ParseError"),
    "device-truncated": (lambda t, d, tr: _characterize_argv(t, _truncated(d), tr), "ParseError"),
    "truth-truncated": (lambda t, d, tr: _characterize_argv(t, d, _truncated(tr)), "ParseError"),
    "model-truncated": (_truncated_model, "ParseError"),
    "archive-entries": (_entries_not_a_list, "ParseError"),
    "fit-subset-missing": (_subset_fit_without_subset, "ConfigError"),
    "fit-subset-per-element": (_fit_subset_per_element, "ConfigError"),
    # the suite depends only on the qubits it covers; averaging is the fit's choice
    "characterize-granularity-removed": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--granularity", "per_element"), "ConfigError"),
    "characterize-subset-empty": (lambda t, d, tr: _characterize_argv(t, d, tr, "--subset", ""),
                                  "ConfigError"),
    "archive-x-two-bits": (_archive_entry_counts("x:q0", {"00": 900, "11": 100}),
                           "ParseError"),
    "archive-bell-one-bit": (_archive_entry_counts("bell:q0-q1", {"0": 600, "1": 400}),
                             "ParseError"),
    "archive-zero-shot-entry": (_archive_entry_counts("init:q0", {}), "ParseError"),
    "shots-above-capability": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--shots", "20000000"), "ConfigError"),
    # refused by the mock QPU, after the models load and before any output
    "evaluate-shots-above-capability": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--shots",
                                                          "20000000"], "ConfigError"),
    # a score holds one value per resample
    "evaluate-resamples-huge": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--resamples",
                                                  "99999999999999999999"], "ConfigError"),
    "compare-resamples-huge": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--model",
                                                 str(t / "model.json"), "--resamples",
                                                 "99999999999999999999"], "ConfigError"),
    "demo-resamples-huge": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--resamples",
                                              "99999999999999999999"], "ConfigError"),
    "hadamard-length-odd": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--hadamard-lengths", "3"), "ConfigError"),
    # refused by the parser, before the backend runs the suite
    "hadamard-length-repeated": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--hadamard-lengths", "2,2"), "ConfigError"),
    "app-bv-collision": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="bv:1@0/0"),
                         "ConfigError"),
    "app-bv-outside": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="bv:1@0/9"),
                       "ConfigError"),
    "app-bv-oracle-not-adjacent": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="bv:1@0/2"),
                                   "ConfigError"),
    "subset-beyond-device": (_subset_beyond_device, "ConfigError"),
    "hidden-negative": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--hidden", "-0.5"],
                        "ConfigError"),
    "hidden-nan": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--hidden", "nan"], "ConfigError"),
    "truth-hidden-out-of-range": (_edited_truth(
        lambda d: d["hidden_effects"].update(state_dependent_readout=3.0)), "ParseError"),
    "truth-p0-out-of-range": (_edited_truth(lambda d: d["readout"]["0"].update(p0=2.0)),
                              "ParseError"),
    "model-pcnot-negative": (_negative_pcnot_model, "ParseError"),
    # each element is named once: one of two readings would be dropped
    "model-coupling-both-directions": (_edited_model(
        lambda d: d["cnot"].update({"1-0": {"p_cnot": 0.5}})), "ParseError"),
    "truth-self-coupling": (_edited_truth(lambda d: d["cnot"].update({"1-1": {"p_cnot": 0.1}})),
                            "ParseError"),
    "truth-negative-qubit": (_edited_truth(
        lambda d: d["readout"].update({"-1": {"p0": 0.01, "p1": 0.02}})), "ParseError"),
    "model-negative-qubit": (_edited_model(lambda d: d["x_gate"].update({"-1": {"p_x": 0.001}})),
                             "ParseError"),
    # each element has one spelling: a second spelling of qubit 1 or of
    # coupling 0-1 would merge with it, and a sign, a space or `_` spells none
    **{f"{file}-{name}": (edited(edit), "ParseError")
       for name, edit in _MISSPELLED_ELEMENTS.items()
       for file, edited in (("model", _edited_model), ("truth", _edited_truth))},
    # a command-line integer is ASCII decimal digits only
    "shots-spaced-underscored": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--shots", " 6_4 "), "ConfigError"),
    "subset-signed-underscored": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--subset", "+1,0_2"), "ConfigError"),
    "hadamard-lengths-arabic-digit": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--hadamard-lengths", "\u0664"), "ConfigError"),
    # a command-line qubit has the one spelling a model file keys it by
    "subset-leading-zero": (lambda t, d, tr: _characterize_argv(t, d, tr, "--subset", "00,1"),
                            "ConfigError"),
    "app-bv-leading-zeros": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="bv:1@00/01"),
                             "ConfigError"),
    "app-bv-oracle-leading-zero": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="bv:1@0/01"),
                                   "ConfigError"),
    "truth-average-missing": (_edited_truth(_register_average()), "ParseError"),
    "model-average-missing": (_edited_model(_register_average()), "ParseError"),
    "truth-average-pcnot-out-of-range": (_edited_truth(_register_average(_PCNOT_ABOVE_1)),
                                         "ParseError"),
    "model-average-pcnot-out-of-range": (_edited_model(_register_average(_PCNOT_ABOVE_1)),
                                         "ParseError"),
    "demo-shots-zero": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--shots", "0"], "ConfigError"),
    "demo-shots-negative": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--shots", "-3"],
                            "ConfigError"),
    # refused by the parser, before the demo writes its device and truth files
    "demo-shots-above-capability": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--shots",
                                                      str(MAX_SHOTS + 1)], "ConfigError"),
    "demo-max-ghz-1": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--max-ghz", "1"],
                       "ConfigError"),
    "demo-max-ghz-25": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--max-ghz", "25"],
                        "ConfigError"),
    # --compare is gone (two or more models rank), so it is an unknown flag in every mode
    "exact-compare": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--exact", "--compare"],
                      "ConfigError"),
    "compare-scaling": (lambda t, d, tr: [*_evaluate_argv(t, d, tr, app="ghz:2..3"),
                                          "--compare"], "ConfigError"),
    "select-compare": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--compare",
                                         "--threshold", "0.5"], "ConfigError"),
    "exact-select": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--exact",
                                       "--threshold", "0.5"], "ConfigError"),
    "exact-scaling": (lambda t, d, tr: [*_evaluate_argv(t, d, tr, app="ghz:2..3"), "--exact"],
                      "ConfigError"),
    "exact-two-models": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--exact",
                                           "--model", str(t / "model.json")], "ConfigError"),
    "exact-bv": (lambda t, d, tr: [*_evaluate_argv(t, d, tr, app="bv:1@0/1"), "--exact"],
                 "ConfigError"),
    "characterize-seed-negative": (lambda t, d, tr: _characterize_argv(t, d, tr, "--seed", "-1"),
                                   "ConfigError"),
    "evaluate-seed-negative": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--seed", "-1"],
                               "ConfigError"),
    "demo-seed-negative": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--seed", "-42"],
                           "ConfigError"),
    "shots-not-an-integer": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--shots", "abc"],
                             "ConfigError"),
    "fit-without-archive": (lambda t, d, tr: ["fit"], "ConfigError"),
    "evaluate-without-model": (_evaluate_without_model, "ConfigError"),
    "demo-unknown": (lambda t, d, tr: ["demo", "other", "--shots", "64"], "ConfigError"),
    "threshold-zero": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--threshold", "0"],
                       "ConfigError"),
    "threshold-with-range": (lambda t, d, tr: [*_evaluate_argv(t, d, tr, app="ghz:2..3"),
                                               "--threshold", "0.5"], "ConfigError"),
    # --threshold alone selects, and a ghz:<a>..<b> app is the scaling report
    "evaluate-select-removed": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--select",
                                                  "--threshold", "0.5"], "ConfigError"),
    "evaluate-scaling-removed": (lambda t, d, tr: [*_evaluate_argv(t, d, tr, app="ghz:2..3"),
                                                   "--scaling"], "ConfigError"),
    # a sampled score draws the run's shots, and the archive is archive.json
    "evaluate-sim-shots-removed": (lambda t, d, tr: [*_evaluate_argv(t, d, tr),
                                                     "--sim-shots", "7"], "ConfigError"),
    "characterize-archive-name-removed": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--archive-name", "a.json"), "ConfigError"),
    "archive-directory": (lambda t, d, tr: ["fit", "--archive", str(t)], "IsADirectoryError"),
    "device-directory": (lambda t, d, tr: _characterize_argv(t, t, tr), "IsADirectoryError"),
    "out-existing-file": (_out_is_a_file, "FileExistsError"),
    "characterize-subset-repeated": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--subset", "0,0"), "ConfigError"),
    "fit-subset-repeated": (_fit_subset_repeated, "ConfigError"),
    "app-ghz-wider-than-device": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="ghz:5"),
                                  "ConfigError"),
    "scaling-two-models": (lambda t, d, tr: [*_evaluate_argv(t, d, tr, app="ghz:2..3"),
                                             "--model", str(t / "model.json")], "ConfigError"),
    "app-bv-secret-wider-than-data": (lambda t, d, tr: _evaluate_argv(t, d, tr, app="bv:10@0/1"),
                                      "ConfigError"),
    "archive-label-not-a-string": (_entry_edit("x:q0", lambda e: e.update(label=7)),
                                   "ParseError"),
    # int() would truncate 63.9 to 63 and the counts would still sum to the shots
    "archive-count-float": (_entry_edit("init:q0", _first_count(lambda n: n + 0.9)),
                            "ParseError"),
    "archive-count-string": (_entry_edit("init:q0", _first_count(str)), "ParseError"),
    "archive-count-bool": (_entry_edit("init:q0", lambda e: e.update(
        counts={"0": e["shots"] - 1, "1": True})), "ParseError"),
    "archive-shots-float": (_entry_edit("init:q0", lambda e: e.update(shots=float(e["shots"]))),
                            "ParseError"),
    "archive-shots-string": (_entry_edit("init:q0", lambda e: e.update(shots=str(e["shots"]))),
                             "ParseError"),
    # counts are int64 arrays inside
    "archive-shots-above-int64": (_archive_entry_counts("init:q0", {"0": 1 << 63}),
                                  "ParseError"),
    # a record of no shots has no frequencies; a fit would read it as exact
    "archive-entry-zero-shots": (_archive_entry_counts("init:q0", {"0": 0}), "ParseError"),
    "archive-hseq-length-zero": (_relabelled("init:q0", "hseq:q0:len0"), "ParseError"),
    "archive-hseq-length-odd": (_relabelled("init:q0", "hseq:q0:len3"), "ParseError"),
    "archive-negative-qubit": (_relabelled("init:q0", "init:q-1"), "ParseError"),
    "archive-bell-self-coupling": (_relabelled("bell:q0-q1", "bell:q0-q0"), "ParseError"),
    # int() would read 3.9 as 3 qubits and (0, 1.7) as the coupling (0, 1)
    "device-float": (_device({"num_qubits": 3.9, "couplings": [[0, 1.7], [1, 2]]}),
                     "ParseError"),
    "device-bool-qubit": (_device({"num_qubits": 4, "couplings": [[0, True], [1, 2]]}),
                          "ParseError"),
    "device-no-qubits": (_device({"num_qubits": -1, "couplings": []}), "ParseError"),
    "truth-p0-bool": (_edited_truth(lambda d: d["readout"]["0"].update(p0=True)), "ParseError"),
    "model-flag-string": (_edited_model(lambda d: d["flags"].update(readout_on="no")),
                          "ParseError"),
    "truth-hidden-string": (_edited_truth(
        lambda d: d["hidden_effects"].update(state_dependent_readout="0.04")), "ParseError"),
    "truth-hidden-bool": (_edited_truth(
        lambda d: d["hidden_effects"].update(state_dependent_readout=True)), "ParseError"),
    "fit-subset-negative": (_fit_subset_negative, "ConfigError"),
    "archive-bell-both-directions": (_archive_edit(_bell_both_directions), "ParseError"),
    "file-backend-label-not-a-string": (_file_backend(
        {"label": 7, "shots": 64, "counts": {"000": 32, "111": 32}}), "ParseError"),
    # int64 sums of these counts would wrap to the 5 shots
    "archive-count-sum-wraps-int64": (_entry_edit("bell:q0-q1", lambda e: e.update(
        counts={"00": 1 << 62, "01": 1 << 62, "10": 1 << 62, "11": (1 << 62) + 5}, shots=5)),
                                      "ParseError"),
    "archive-key-2": (_archive_entry_counts("init:q0", {"2": 64}), "ParseError"),
    "archive-key-space-0": (_archive_entry_counts("init:q0", {" 0": 64}), "ParseError"),
    "archive-key-empty": (_archive_entry_counts("init:q0", {"": 64}), "ParseError"),
    "archive-count-true-among-keys": (_entry_edit("bell:q0-q1", lambda e: e.update(
        counts={"00": e["shots"] - 2, "01": 1, "11": True})), "ParseError"),
    "archive-two-bad-entries": (_archive_edit(_two_bad_entries), "ParseError"),
    "file-backend-mixed-key-widths": (_file_backend(
        {"label": "ghz:2", "shots": 64, "counts": {"00": 32, "1": 32}}), "ParseError"),
    # replayed counts must have the width their circuit measures
    "file-backend-suite-width": (_replayed_two_bit_init, "ParseError"),
    "file-backend-app-width": (_file_backend(
        {"label": "ghz:2", "shots": 64, "counts": {"000": 32, "111": 32}}, app="ghz:2"),
                               "ParseError"),
    **{f"{role}-deeply-nested": (_deeply_nested(role), "ParseError")
       for role in ("device", "truth", "model", "archive")},
    # no backend holds more than outcomes.MAX_BITS bits; refused before any path search
    "app-ghz-wider-than-any-backend": (_app_on_line("ghz:64", 64), "ConfigError"),
    "app-ghz-range-wider-than-any-backend": (_app_on_line("ghz:2..64", 64), "ConfigError"),
    "app-bv-wider-than-any-backend": (_app_on_line(
        f"bv:{'0' * 64}@{','.join(map(str, range(64)))}/64", 65), "ConfigError"),
    "app-ghz-more-digits-than-int-reads": (lambda t, d, tr: _evaluate_argv(
        t, d, tr, app=f"ghz:{'9' * 5000}"), "ConfigError"),
    # every evaluate mode simulates the app, and the simulator holds simulator.MAX_QUBITS bits
    "app-ghz-wider-than-the-simulator": (_app_on_line("ghz:25", 26), "ConfigError"),
    "hidden-not-a-number": (lambda t, d, tr: [*_demo_argv(t, d, tr), "--hidden", "abc"],
                            "ConfigError"),
    "threshold-not-a-number": (lambda t, d, tr: [*_evaluate_argv(t, d, tr), "--threshold", "x"],
                               "ConfigError"),
    "subset-more-digits-than-int-reads": (lambda t, d, tr: _characterize_argv(
        t, d, tr, "--subset", "1" * 5000), "ConfigError"),
}


@pytest.mark.parametrize("make_argv, error", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exit_2(setup, capsys, make_argv, error):
    """Malformed specs, flags and input files exit 2 with one JSON line on
    stderr, and leave no output directory behind."""
    tmp_path, device, truth = setup
    code = main([*make_argv(tmp_path, device, truth), "--out", str(tmp_path / "o")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert not (tmp_path / "o").is_dir()  # so no archive.json, model or report either


def test_two_bad_entries_name_the_first(setup, capsys):
    tmp_path, device, truth = setup
    argv = _archive_edit(_two_bad_entries)(tmp_path, device, truth)
    assert main(argv) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "'label': 'init:q1'" in message and message.endswith(": negative count")


@pytest.mark.parametrize("make_argv, kind, name", [
    (lambda t, d, tr: _characterize_argv(t, _truncated(d), tr), "device file", "device.json"),
    (lambda t, d, tr: _characterize_argv(t, d, _truncated(tr)), "truth file", "truth.json"),
    (_truncated_model, "noise-model file", "model.json"),
], ids=["device", "truth", "model"])
def test_a_malformed_file_is_named_by_its_kind(setup, capsys, make_argv, kind, name):
    tmp_path, device, truth = setup
    assert main(make_argv(tmp_path, device, truth)) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith(f"{kind} {tmp_path / name} is malformed: ")


@pytest.mark.parametrize("make_argv, field", [
    (_edited_model(lambda d: d["cnot"]["0-1"].update(p_cnot=None)), "p_cnot=None"),
    (_edited_truth(lambda d: d["readout"]["0"].update(p0="0.02")), "p0='0.02'"),
    (_edited_truth(lambda d: d["hidden_effects"].update(state_dependent_readout="0.04")),
     "hidden readout strength='0.04'"),
], ids=["model-pcnot-null", "truth-p0-string", "truth-hidden-string"])
def test_a_rate_that_is_not_a_number_is_named(setup, capsys, make_argv, field):
    tmp_path, device, truth = setup
    assert main(make_argv(tmp_path, device, truth)) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ParseError"
    assert error["message"].endswith(f"{field} is not a number")


def test_files_that_carry_a_window_tag_read_as_before(setup):
    """Truth, archive and model files written while they carried a `window`
    tag still load, fit and score as before: the key is ignored, and only
    the provenance of a fit changes, as it hashes the archive as read."""
    tmp_path, device, truth = setup
    archive = _characterize(tmp_path, device, truth, out="new", shots="256")
    _edited(truth, lambda d: d.update(window="w"))
    tagged = _characterize(tmp_path, device, truth, out="old", shots="256")
    assert archive_hash(tagged) == archive_hash(archive)
    _edited(tagged, lambda d: d.update(window="w"))
    files = {}
    for run in ("new", "old"):
        out = tmp_path / run
        assert main(["fit", "--archive", str(out / "archive.json"), "--out", str(out)]) == 0
        model = json.loads((out / "model-aro_dp-per_element.json").read_text())
        files[run] = model, (out / "model-aro_dp-per_element.diagnostics.json").read_bytes()
    assert files["old"][0].pop("provenance") == archive_hash(tagged) != archive_hash(archive)
    assert files["new"][0].pop("provenance") == archive_hash(archive)
    assert files["old"] == files["new"]
    _edited(tmp_path / "old" / "model-aro_dp-per_element.json", lambda d: d.update(window="w"))
    reports = []
    for run in ("new", "old"):
        out = tmp_path / run
        assert main(["evaluate", "--device", str(device), "--backend", f"mock:{truth}",
                     "--app", "ghz:3", "--model", str(out / "model-aro_dp-per_element.json"),
                     "--exact", "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    assert {**reports[0], "meta": None} == {**reports[1], "meta": None}


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "characterize" in capsys.readouterr().out


def _in_fresh_process(argv, address_space: int | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `noisekit argv` in a new interpreter,
    whose address space is capped at `address_space` bytes if given."""
    src = str(Path(noisekit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    cap = None
    if address_space is not None:
        import resource
        env["OPENBLAS_NUM_THREADS"] = "1"  # keeps numpy's own reservations small

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    done = subprocess.run([sys.executable, "-m", "noisekit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300, preexec_fn=cap)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("make_argv, error, message", [
    (_device_file({"num_qubits": 2**63, "couplings": [[0, 1]]}), "ParseError",
     f"1 to {MAX_DEVICE_QUBITS} qubits"),
    (lambda t, d, tr: _characterize_argv(t, d, tr, "--hadamard-lengths", "2000000000"),
     "ConfigError", f"from 2 to {cli.MAX_TRAIN}"),
], ids=["device-2^63-qubits", "hadamard-length-2e9"])
def test_a_huge_device_exits_2_in_bounded_memory(setup, make_argv, error, message):
    """A device file of 2^63 qubits is refused by its qubit count, before
    any per-qubit list is built, and a Hadamard train of 2*10^9 gates by
    its length, before any gate list is built. The run's address space is
    capped at 512 MiB (a run on a 4-qubit line peaks near 150 MiB on x86-64
    Linux with one BLAS thread), so a reader that builds one fails this
    test rather than the machine."""
    tmp_path, device, truth = setup
    argv = make_argv(tmp_path, device, truth)
    code, _, err = _in_fresh_process([*argv, "--out", str(tmp_path / "o")], 512 << 20)
    assert code == 2, err[-2000:]
    lines = err.strip().splitlines()
    assert len(lines) == 1
    found = json.loads(lines[0])
    assert found["error"] == error
    assert message in found["message"]
    assert not (tmp_path / "o").exists()


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_repeated_main_calls_leak_no_state(setup, capsys, monkeypatch):
    """A fit, a usage error, a fit with other flags and --help, run through
    `main` in that order in one process, each give the exit code, stderr and
    output files (and for --help the text) of the same argv in a fresh
    process."""
    tmp_path, device, truth = setup
    archive = str(_characterize(tmp_path, device, truth, shots="256"))
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help at the terminal width
    calls = [
        ["fit", "--archive", archive],
        ["fit", "--archive", archive, "--flags", "aro+dp", "--subset", "x"],
        ["fit", "--archive", archive, "--flags", "sro", "--granularity", "subset_average",
         "--subset", "0,2", "--name", "pair"],
        ["--help"],
    ]
    capsys.readouterr()
    here = []
    for i, argv in enumerate(calls):
        out = tmp_path / f"here{i}"
        out.mkdir()
        try:
            code = main([*argv, "--out", str(out)] if argv[0] == "fit" else argv)
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        here.append((code, captured.out, captured.err, _files(out)))
    assert [h[0] for h in here] == [0, 2, 0, 0]
    for i, (argv, (code, out_text, err, files)) in enumerate(zip(calls, here)):
        out = tmp_path / f"fresh{i}"
        out.mkdir()
        fresh_code, fresh_out, fresh_err = _in_fresh_process(
            [*argv, "--out", str(out)] if argv[0] == "fit" else argv)
        assert (code, err, files) == (fresh_code, fresh_err, _files(out)), argv
        if argv == ["--help"]:
            assert out_text == fresh_out
    assert set(here[2][3]) == {"pair.json", "pair.diagnostics.json"}


def test_no_option_parses_with_a_bare_number_type():
    """Every numeric flag declares its domain in its `type`, so no out-of-range
    value can get past the parser into a command body."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(COMMANDS)  # the walk covers what main parses
    bare = [f"{name} {'/'.join(action.option_strings) or action.dest}"
            for name, command in [("noisekit", parser), *commands.choices.items()]
            for action in command._actions if action.type in (int, float)]
    assert not bare, f"options typed as a bare int or float: {bare}"


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("rest", [["--help"], ["--bogus"], ["--seed", "-1"], ["--out"],
                                  ["--subset", "0,0"], ["stray"]],
                         ids=["help", "bogus", "seed", "no-value", "subset", "stray"])
def test_command_parser_alone_matches_the_full_parser(capsys, monkeypatch, command, rest):
    """`main` parses `<command> ...` with that command's parser alone; its
    help text and usage errors are those of the four-command parser."""
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help at the terminal width
    argv = [command, *rest]
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out, err = capsys.readouterr()
    alone = (code, out, err and json.loads(err)["message"])
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        full = (exc.code, capsys.readouterr().out, "")
    except ConfigError as exc:
        full = (2, capsys.readouterr().out, str(exc))
    assert alone == full
    assert code == (0 if rest == ["--help"] else 2)


def test_fit_builds_no_full_parser(setup, capsys, monkeypatch):
    tmp_path, device, truth = setup
    archive = str(_characterize(tmp_path, device, truth, shots="64"))

    def refused():
        raise AssertionError("build_parser called for a fit")

    monkeypatch.setattr(cli, "build_parser", refused)
    assert main(["fit", "--archive", archive, "--out", str(tmp_path / "f")]) == 0
    assert main(["fit", "--archive", archive, "--flags", "nope"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
