"""README examples: the Python blocks run and the CLI transcripts match."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from pjtdiag.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# (language, body) of every fenced block, in order.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def python_examples():
    """(source, printed output or None) per Python block; an untagged block
    right after one holds what it prints."""
    examples = []
    for i, (language, body) in enumerate(BLOCKS):
        if language != "python":
            continue
        following = BLOCKS[i + 1] if i + 1 < len(BLOCKS) else ("python", "")
        shown = following[1] if following[0] == "" and not following[1].startswith("$") else None
        examples.append((body, shown))
    return examples


def cli_examples():
    return [body for language, body in BLOCKS if body.startswith("$ pjtdiag ")]


def test_readme_has_the_documented_examples():
    assert len(python_examples()) == 3
    assert len(cli_examples()) == 3


def test_python_examples_run_against_the_package():
    for source, shown in python_examples():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(source, "README.md", "exec"), {})
        if shown is not None:
            assert printed.getvalue() == shown


def test_cli_examples_match_main_output(capsys):
    for body in cli_examples():
        command, *lines = body.splitlines()
        code = main(shlex.split(command)[2:])
        out = capsys.readouterr().out
        assert code == 0
        printed = out.splitlines()
        for line in lines:
            if line != "...":
                assert line in printed, (command, line)
