"""The README's format examples load with the library's own loaders."""

import json
import re
from pathlib import Path

import pytest

from islab.blocks import joint_from_json
from islab.grammar import cfg_from_json
from islab.pda import pda_from_json

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_json_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    return [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S)]


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
