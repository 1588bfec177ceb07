"""`errors.write_file`, the one writer of every file noisekit writes: it
cuts an existing file to the new text's length and overwrites it in place,
so the bytes, modes and links a file ends up with are those a truncating
write leaves. A scan of the package keeps it the only writer."""
import ast
import csv
import os
import stat
from pathlib import Path

import pytest

import noisekit
from noisekit import errors
from noisekit.errors import write_file
from noisekit.evaluation import (ModelScore, ScalingReport, ScalingRow, write_scaling_csv,
                                 write_scores_csv)

SHORT, LONG = "{\n  \"a\": 1\n}", "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"é\": \"☃\"\n}"


@pytest.mark.parametrize("old, new", [(LONG, SHORT), (SHORT, LONG), (LONG, ""), ("", SHORT)],
                         ids=["longer-by-shorter", "shorter-by-longer", "emptied", "from-empty"])
def test_an_existing_file_holds_exactly_the_new_bytes(tmp_path, old, new):
    path = tmp_path / "out.json"
    path.write_bytes(old.encode())
    write_file(path, new)
    assert path.read_bytes() == new.encode()


def test_an_interrupted_rewrite_leaves_nothing_past_the_new_length(tmp_path, monkeypatch):
    """The file is cut to the new length before the text goes in, so a write
    that stops there cannot leave a longer old file's tail, such as a
    previous run's CSV rows, after the new text."""
    path = tmp_path / "scores.csv"
    path.write_text(LONG * 8)

    class Interrupted:
        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def truncate(self, size):
            return self.fh.truncate(size)

        def write(self, data):
            raise KeyboardInterrupt

    monkeypatch.setattr(errors, "open", Interrupted, raising=False)
    with pytest.raises(KeyboardInterrupt):
        write_file(path, SHORT)
    assert path.stat().st_size == len(SHORT.encode())


def test_a_symlinked_output_is_written_through_its_link(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text(LONG)
    link.symlink_to(target)
    write_file(link, SHORT)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == SHORT.encode()


def test_an_existing_files_permission_bits_are_kept(tmp_path):
    path = tmp_path / "out.json"
    path.write_text(LONG)
    path.chmod(0o640)
    write_file(path, SHORT)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_file_gets_the_mode_write_text_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_file(tmp_path / "new.json", SHORT)
        (tmp_path / "oracle.json").write_text(SHORT)
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("new.json", "oracle.json")}
    assert modes == {0o666 & ~umask}


def _old_scores_csv(path, scores):
    """The writer `write_scores_csv` had before it built its rows in memory."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "tvd_mean", "tvd_std", "tvd_per_cnot", "cnot_count",
                         "n_parameters"])
        for s in scores:
            writer.writerow([s.model_id, f"{s.tvd:.6f}", f"{s.tvd_stderr:.6f}",
                             f"{s.tvd_per_cnot:.6f}", s.cnot_count, s.n_parameters])


def _old_scaling_csv(path, report):
    """The writer `write_scaling_csv` had before it built its rows in memory."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "cnot_count", "tvd_mean", "tvd_std", "tvd_per_cnot"])
        for r in report.rows:
            writer.writerow([r.n, r.cnot_count, f"{r.tvd_mean:.6f}", f"{r.tvd_std:.6f}",
                             f"{r.tvd_per_cnot:.6f}"])


SCORES = [ModelScore("aro+dp", 0.0123456789, 0.001, 0.00411, 3, 41, 100, 8192),
          ModelScore('name, with "quotes"\nand a newline', 1.0, 0.0, 0.5, 0, 0, 1, 1),
          ModelScore("", 0.0, 1e-9, 0.0, 12, 7, 5, 64)]
SCALING = ScalingReport((ScalingRow(2, 1, 0.01, 0.002, 0.01), ScalingRow(3, 2, 0.0312345, 0.0, 0.0156)),
                        0.25)


@pytest.mark.parametrize("write, oracle, rows", [
    (write_scores_csv, _old_scores_csv, SCORES),
    (write_scores_csv, _old_scores_csv, []),
    (write_scaling_csv, _old_scaling_csv, SCALING),
    (write_scaling_csv, _old_scaling_csv, ScalingReport((), 0.0)),
], ids=["scores", "scores-none", "scaling", "scaling-none"])
def test_csv_bytes_are_those_of_the_old_file_writer(tmp_path, write, oracle, rows):
    oracle(tmp_path / "oracle.csv", rows)
    (tmp_path / "new.csv").write_text("x" * 4096)  # over a longer file, too
    write(tmp_path / "new.csv", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


_WRITE_MODE = set("wax+")


def _writes(source: str) -> list[str]:
    """The calls in `source` that write a file: `write_text`, `write_bytes`,
    `os.open`, or an `open` whose mode is not a constant read mode."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, call = node.func, ast.unparse(node.func)
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes") or call == "os.open":
            found.append(call)
        elif name == "open":  # a Path's mode comes first; open(file, mode) and io.open second
            at = 0 if isinstance(func, ast.Attribute) and call != "io.open" else 1
            mode = ([*node.args[at:at + 1], *(k.value for k in node.keywords if k.arg == "mode")]
                    or [ast.Constant("r")])[0]
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not _WRITE_MODE & set(mode.value)):
                found.append(call)
    return found


@pytest.mark.parametrize("source, writes", [
    ("Path(p).write_text(s)", True), ("p.write_bytes(b)", True),
    ("os.open(p, os.O_RDONLY)", True), ("open(p, 'w', newline='')", True),
    ("open(p, mode='ab')", True), ("io.open(p, 'r+')", True), ("p.open('x')", True),
    ("open(p, m)", True), ("open(p)", False), ("open(p, 'rb')", False),
    ("Path(p).open()", False), ("p.read_text()", False), ("io.open(p)", False),
], ids=lambda x: x if isinstance(x, str) else None)
def test_the_write_scan_tells_writes_from_reads(source, writes):
    assert bool(_writes(source)) is writes


def test_only_errors_writes_a_file():
    """Every file noisekit writes goes through `errors.write_file`."""
    package = Path(noisekit.__file__).parent
    writers = {path.name: _writes(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert writers.pop("errors.py") == ["open", "os.open"]
    assert {name: calls for name, calls in writers.items() if calls} == {}
