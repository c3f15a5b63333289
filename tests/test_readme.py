"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from dualpricer.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading):
    """The first fenced block under a ``## heading`` of the README."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```[^\n]*\n(.*?)^```", section, re.S | re.M).group(1)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in fenced_block("Command line").splitlines()
    if line.startswith("dualpricer ")
]


def test_readme_has_command_examples():
    assert len(COMMANDS) >= 3


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_runs(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out != ""


def test_readme_library_example_runs():
    exec(compile(fenced_block("Library"), "README.md", "exec"), {})
