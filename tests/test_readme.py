"""The README's command-line examples run as shown.

Each `$ ttlab ...` line of the README's "Command line" section is run in
order, in one temporary directory, so that a later example reads the
files an earlier one wrote.  The lines below it, up to the next `$` line
or the end of its block, are what the terminal shows: stdout, through
`| head -N` or `| tail -N` where the example pipes it, then stderr.  A
`...` line matches any run of lines.
"""

import re
import shlex
from pathlib import Path

from test_cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def examples():
    """The (command, shown lines) pairs of the "Command line" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    pairs = []
    for block in section.split("```")[1::2]:
        for line in block.strip("\n").split("\n"):
            if line.startswith("$ "):
                pairs.append((line[2:], []))
            elif pairs:
                pairs[-1][1].append(line)
    return pairs


def shown(capsys, command):
    """The lines a terminal shows for one example command."""
    command, _, pipe = command.partition(" | ")
    argv = shlex.split(command)
    assert argv[0] == "ttlab", command
    code, out, err = run(capsys, *argv[1:])
    lines = out.splitlines()
    if pipe:
        tool, count = shlex.split(pipe)
        n = int(count.lstrip("-"))
        lines = {"head": lines[:n], "tail": lines[-n:]}[tool]
    return code, lines + err.splitlines()


def matches(expected, lines):
    """True when lines match expected, each `...` standing for any run
    of lines."""
    pattern = "".join("(?:.*\n)*" if e == "..." else re.escape(e) + "\n"
                      for e in expected)
    return re.fullmatch(pattern, "".join(f"{line}\n" for line in lines)) is not None


def test_the_command_line_examples_run_as_shown(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pairs = examples()
    assert len(pairs) >= 11
    for command, expected in pairs:
        code, lines = shown(capsys, command)
        assert matches(expected, lines), (command, code, lines)


def test_an_ellipsis_matches_any_run_of_lines():
    assert matches(["...", "b"], ["b"])
    assert matches(["a", "...", "d"], ["a", "b", "c", "d"])
    assert not matches(["a", "d"], ["a", "b", "d"])
    assert not matches(["a"], ["a", "b"])
