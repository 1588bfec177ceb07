"""The README's "Step by step" commands run as written."""
import re
import shlex
from pathlib import Path

from noisekit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _step_by_step() -> tuple[str, list[list[str]]]:
    """The block's Python heredoc and its `noisekit` command lines, split
    into argv lists with line continuations joined."""
    text = README.read_text().split("Step by step:", 1)[1]
    block = re.search(r"```bash\n(.*?)```", text, re.S).group(1)
    python = re.search(r"<<'EOF'\n(.*?)\nEOF\n", block, re.S).group(1)
    shell = block.replace("\\\n", " ")
    commands = [shlex.split(line) for line in shell.splitlines()
                if line.startswith("noisekit ")]
    return python, commands


def test_step_by_step_commands_exit_0(tmp_path, monkeypatch, capsys):
    python, commands = _step_by_step()
    assert [argv[1] for argv in commands] == ["characterize", "fit", "evaluate", "evaluate"]
    monkeypatch.chdir(tmp_path)
    exec(python, {})
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
