"""The README's command-line examples run as written.

Each ``fusedstar`` line of the first ``sh`` block under "## Command line"
goes through ``cli.main``; it must exit 0, or the code that the line's
``# exit N`` comment names.
"""
from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from fusedstar import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_examples() -> list[tuple[list[str], int]]:
    """Each example's arguments after ``fusedstar`` and its exit code."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    examples = []
    for line in block.splitlines():
        if not line.startswith("fusedstar "):
            continue
        code = re.search(r"#\s*exit (\d+)", line)
        argv = shlex.split(line, comments=True)[1:]
        examples.append((argv, int(code.group(1)) if code else 0))
    return examples


EXAMPLES = command_line_examples()


def test_the_block_holds_an_example_of_every_subcommand():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert commands == {"solve", "compare", "verify", "sweep", "simulate"}


@pytest.mark.parametrize(
    ("argv", "code"), EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_a_readme_example_exits_as_its_comment_says(argv, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == code, err.getvalue()
    # every example writes a report or its reason
    assert out.getvalue() or err.getvalue()
