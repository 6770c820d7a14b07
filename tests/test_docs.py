"""The README's format examples load with the library's own loaders, and its
sample sessions print what the CLI prints."""

import json
import re
import shlex
from pathlib import Path

import pytest

from islab.blocks import joint_from_json
from islab.cli import main
from islab.grammar import cfg_from_json
from islab.pda import pda_from_json

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_json_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    return [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S)]


def readme_sessions() -> list:
    """(argv, stdout) of every `$ islab ...` session in the README's text
    blocks; a session's output runs up to the next `$` line."""
    text = README.read_text(encoding="utf-8")
    sessions = []
    for block in re.findall(r"```text\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            argv = shlex.split(command)
            assert argv[0] == "islab", command
            sessions.append((argv[1:], output.rstrip("\n") + "\n"))
    return sessions


@pytest.mark.parametrize(
    "fmt, loader",
    [
        ("pda-v1", pda_from_json),
        ("blocks-v1", joint_from_json),
        ("cfg-v1", cfg_from_json),
    ],
)
def test_readme_example_loads(fmt, loader):
    examples = [b for b in readme_json_blocks() if b.get("format") == fmt]
    assert examples, f"README has no {fmt} example"
    for example in examples:
        loader(example)


SESSIONS = readme_sessions()


def test_readme_has_five_sessions():
    assert len(SESSIONS) == 5


@pytest.mark.parametrize("argv, expected", SESSIONS, ids=[argv[0] for argv, _ in SESSIONS])
def test_readme_session_output(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
