"""The examples of README.md run and print what the README says they print."""

import re
import shlex
from pathlib import Path

import pytest

from symchar.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_block(section: str, lang: str) -> str:
    """The first fenced block of the given language under a '## ' heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _shown_outputs() -> dict[str, list[str]]:
    """Each command of the command-line block that the README follows with
    its output, as '# ' comment lines, mapped to those lines."""
    shown: dict[str, list[str]] = {}
    command = None
    for line in _code_block("Command line", "sh").splitlines():
        if line.startswith("symchar "):
            command = line.split("#", 1)[0].strip()
        elif line.startswith("# ") and command is not None:
            shown.setdefault(command, []).append(line[2:])
    return shown


SHOWN = _shown_outputs()


def test_readme_shows_the_expected_commands():
    assert sorted(SHOWN) == sorted([
        "symchar poly --k 6 --basis R",
        "symchar poly --k 5 --basis S --route stanley",
        "symchar character --lambda 2,1 --k 3",
        "symchar cumulants --lambda 2,1 --max-k 4",
    ])


@pytest.mark.parametrize("command", sorted(SHOWN))
def test_command_line_examples(capsys, command):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [
        line.split() for line in SHOWN[command]]


def test_library_example():
    exec(compile(_code_block("Library", "python"), "README.md", "exec"), {})
