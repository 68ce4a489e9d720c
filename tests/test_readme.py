"""The command-line examples in README.md, run through ``cli.run``."""

import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from cyclicaut import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """Each ``$ cyclicaut ...`` line of README.md's code blocks, with the
    lines printed under it, up to a blank line, the next command or the end
    of the block."""
    examples: list[tuple[str, list[str]]] = []
    in_block = False
    expected = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            expected = None
        elif in_block and line.startswith("$ cyclicaut "):
            expected = []
            examples.append((line[2:], expected))
        elif expected is not None and line.strip():
            expected.append(line)
        else:
            expected = None
    return examples


def _run_pipeline(command: str, capsys, monkeypatch) -> str:
    """Stdout of a pipeline of ``cyclicaut`` calls and ``head -N``, each
    stage reading the one before it on stdin."""
    lexer = shlex.shlex(command, posix=True, punctuation_chars="|")
    lexer.whitespace_split = True
    tokens = list(lexer)
    stages: list[list[str]] = [[]]
    for token in tokens:
        if token == "|":
            stages.append([])
        else:
            stages[-1].append(token)
    out = ""
    for program, *args in stages:
        if program == "head":
            (count,) = args
            out = "".join(out.splitlines(keepends=True)[: int(count.lstrip("-"))])
            continue
        assert program == "cyclicaut", command
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert cli.run(args) == 0, command
        out = capsys.readouterr().out
    return out


def _pattern(expected: list[str]) -> str:
    """A `...` line or fragment, or a `{...}` object, matches any text; the
    rest matches itself."""
    parts = re.split(r"\{\.\.\.\}|\.\.\.", "\n".join(expected))
    return ".*".join(map(re.escape, parts))


EXAMPLES = _examples()


def test_readme_has_its_examples():
    assert len(EXAMPLES) == 15
    assert all(expected for _, expected in EXAMPLES)


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, capsys, monkeypatch):
    out = _run_pipeline(command, capsys, monkeypatch)
    assert re.fullmatch(_pattern(expected), out.rstrip("\n"), re.DOTALL), out
