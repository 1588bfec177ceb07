"""`errors.write_json_file` against its oracle, `json.dumps(obj, indent=2,
sort_keys=True)`: the same bytes for any JSON-able data, and the same
TypeError for data `json` refuses."""
import io
import json
import math
import random
import sys
from contextlib import redirect_stdout

import pytest

import noisekit.errors
from noisekit.cli import main
from noisekit.devices import line, uniform_truth
from noisekit.backend import MockGroundTruth
from noisekit.errors import write_json_file

STRINGS = ["", "a", "é", "naïve ☃", "\U0001f600", 'quote " and \\ slash', "line\nbreak\ttab",
           "\x00\x1f", "[1, 2]", '{"a": 1}', ",\n  ", "/"]
SCALARS = [0, 1, -7, 2**70, -(2**64), 0.0, -0.0, 0.1, 1e300, -2.5e-310, math.pi,
           float("nan"), float("inf"), float("-inf"), True, False, None, *STRINGS]
NUMERIC_KEYS = [0, 1, -3, 2**65, 0.5, -0.0, 1e-9, float("inf"), float("nan"), 2.5, 7]


def _keys(rng):
    """Keys of one family that `json` can sort: strings, numbers with bools
    among them, or None alone."""
    family = rng.choice(["str", "str", "number", "none"])
    if family == "none":
        return [None]
    if family == "str":
        return rng.sample(STRINGS + ["k", "b", "a"], rng.randrange(6))
    return rng.sample(NUMERIC_KEYS, rng.randrange(5)) + rng.sample([True, False], rng.randrange(2))


def _data(rng, depth=0):
    """Nested data with empty containers, lists of lists and tuples at any depth."""
    if depth >= 5:
        return rng.choice(SCALARS)
    kind = rng.choice(["scalar", "empty-list", "empty-dict", "list", "tuple", "dict", "dict",
                       "list-of-lists"])
    if kind == "scalar":
        return rng.choice(SCALARS)
    if kind.startswith("empty"):
        return [] if kind == "empty-list" else {}
    if kind == "dict":
        return {key: _data(rng, depth + 1) for key in _keys(rng)}
    if kind == "list-of-lists":
        return [[_data(rng, depth + 2) for _ in range(rng.randrange(3))]
                for _ in range(rng.randrange(1, 4))]
    items = [_data(rng, depth + 1) for _ in range(rng.randrange(5))]
    return items if kind == "list" else tuple(items)


def _written(tmp_path, data) -> str:
    path = tmp_path / "data.json"
    write_json_file(path, data)
    return path.read_text()


@pytest.mark.parametrize("seed", range(8))
def test_random_data_is_written_as_json_dumps_writes_it(tmp_path, seed):
    rng = random.Random(seed)
    for _ in range(250):
        data = _data(rng)
        assert _written(tmp_path, data) == json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("data", [
    {"a": 1, 2: "b"},                       # keys json cannot sort, flat
    {"x": [{"a": [1], 2: [2]}]},           # ... and where the writer walks
    [1, {None: 1, "a": 2}],
    {"a": {(1, 2): 3}},                     # a key json cannot write
    {"a": [{(1,): [1]}]},
    {"a": [1, {2, 3}]},                     # values json cannot write
    {"a": [[1], object()]},
    [{"a": [1]}, b"bytes"],
])
def test_data_json_refuses_raises_its_type_error(tmp_path, data):
    with pytest.raises(TypeError) as expected:
        json.dumps(data, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        write_json_file(tmp_path / "refused.json", data)
    assert str(got.value) == str(expected.value)
    assert not (tmp_path / "refused.json").exists()
    (tmp_path / "refused.json").write_bytes(b'{\n  "old": 1\n}')  # nor is an existing file touched
    with pytest.raises(TypeError):
        write_json_file(tmp_path / "refused.json", data)
    assert (tmp_path / "refused.json").read_bytes() == b'{\n  "old": 1\n}'


def test_every_file_the_cli_writes_is_json_dumps_of_its_data(tmp_path, monkeypatch):
    """A seed-42 `demo full-paper`, `characterize`, `fit` and
    `evaluate --exact` each write the bytes `json.dumps` gives for the data
    they write."""
    written = []

    def checked(path, data):
        write_json_file(path, data)
        written.append(path.name)
        assert path.read_text() == json.dumps(data, indent=2, sort_keys=True), path.name

    for module in [m for n, m in sys.modules.items() if n.startswith("noisekit")]:
        if getattr(module, "write_json_file", None) is write_json_file:
            monkeypatch.setattr(module, "write_json_file", checked)
    assert noisekit.errors.write_json_file is checked
    device, truth = tmp_path / "device.json", tmp_path / "truth.json"
    line(4).save(device)
    MockGroundTruth(uniform_truth(line(4)), hidden_readout_strength=0.04).save(truth)
    common = ["--device", str(device), "--backend", f"mock:{truth}", "--seed", "42"]
    runs = [["demo", "full-paper", "--seed", "42", "--out", str(tmp_path / "demo")],
            ["characterize", *common, "--hadamard-lengths", "2,4", "--out", str(tmp_path)],
            ["fit", "--archive", str(tmp_path / "archive.json"), "--out", str(tmp_path)],
            ["evaluate", *common, "--app", "ghz:3", "--exact", "--out", str(tmp_path),
             "--model", str(tmp_path / "model-aro_dp-per_element.json")]]
    for argv in runs:
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert {"archive.json", "summary.json", "bell_comparison.json", "budget.json",
            "model-aro_dp-per_element.json", "model-aro_dp-per_element.diagnostics.json",
            "report.json"} <= set(written)
