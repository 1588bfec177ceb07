"""The README's "Step by step" commands run as written, it names every
option and no other flag, each command's options match one pinned
inventory, and every module attribute and test file it cites exists."""
import argparse
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import noisekit
from noisekit.cli import COMMANDS, build_parser, main

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


# Each command's option strings in parser order, help aside: adding or
# removing a setting shows here as a one-line diff.
OPTIONS = {
    "characterize": "--device --backend --shots --seed --subset --hadamard-lengths --out",
    "fit": "--archive --flags --granularity --subset --name --out",
    "evaluate": "--device --backend --app --model --shots --seed --resamples --threshold "
                "--compare --exact --out",
    "demo": "--shots --seed --resamples --hidden --max-ghz --out",
}


# The install and test commands' own flags, which no noisekit command takes.
TOOL_FLAGS = {"-e", "--no-build-isolation", "-v", "-s"}


def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each command's parser, from the parser of all commands."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(COMMANDS)  # the walk covers what main parses
    return commands.choices


def _options() -> dict[str, list[str]]:
    """Each command's option strings, help aside."""
    return {name: [flag for action in command._actions
                   if not isinstance(action, argparse._HelpAction)
                   for flag in action.option_strings]
            for name, command in _commands().items()}


def _named() -> set[str]:
    """The flags README.md names, each whole: `--out` inside a longer flag
    would not count."""
    return set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", README.read_text()))


def test_every_option_is_named_in_the_readme():
    """Each option string of each command appears in README.md as a whole
    flag: no knob goes undocumented."""
    named = _named()
    missing = [f"{name} {flag}" for name, flags in _options().items()
               for flag in flags if flag not in named]
    assert not missing, f"options README.md never names: {missing}"


def test_every_flag_the_readme_names_is_an_option():
    """Each whole flag README.md names is an option of some command
    (`--help` included) or one of the install and test commands' own: a
    deleted option cannot stay in the docs."""
    options = {flag for command in _commands().values()
               for action in command._actions for flag in action.option_strings}
    stray = sorted(_named() - options - TOOL_FLAGS)
    assert not stray, f"flags README.md names that no command takes: {stray}"


def test_the_option_inventory_is_pinned():
    assert _options() == {name: flags.split() for name, flags in OPTIONS.items()}


def test_every_name_the_readme_cites_exists():
    """Each backticked `module.attr` in README.md whose module is one of
    noisekit's resolves in `noisekit.<module>`, and each `tests/*.py` path
    it names exists: a renamed or deleted name cannot stay in the docs."""
    text = README.read_text()
    modules = {info.name for info in pkgutil.iter_modules(noisekit.__path__)}
    cited = [(module, attr) for module, attr in re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)`", text)
             if module in modules]
    stale = [f"{module}.{attr}" for module, attr in cited
             if not hasattr(importlib.import_module(f"noisekit.{module}"), attr)]
    stale += [path for path in re.findall(r"tests/\w+\.py", text)
              if not (README.parent / path).is_file()]
    assert cited and not stale, f"names README.md cites that do not exist: {stale}"
