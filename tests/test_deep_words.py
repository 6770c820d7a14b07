"""Searches on long words run under a Python recursion limit far below
their depth: run length must never become Python recursion depth."""

import json
import sys

import pytest

from islab import corpus
from islab.arcs import analyze_pair
from islab.cli import main
from islab.pda import enumerate_runs

SHALLOW = 200  # frames; every word searched below is 300 letters or longer


@pytest.fixture
def shallow_recursion():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(SHALLOW)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def only_machine(bundle: str):
    (machine,) = corpus.get(bundle).machines.values()
    return machine


@pytest.mark.parametrize(
    "bundle, word",
    [
        ("counter", "a" * 600 + "b" * 600),
        ("double-push", "a" * 300 + "b" * 600),
    ],
    ids=["counter", "double-push"],
)
def test_enumerate_runs_finds_the_one_run(shallow_recursion, bundle, word):
    runs = enumerate_runs(only_machine(bundle), word)
    assert len(runs) == 1
    assert runs[0].final.stack == ("$",)
    assert runs[0].steps[-1].input_pos == len(word)


def test_cli_runs_on_long_counter_word(shallow_recursion, capsys):
    word = "a" * 600 + "b" * 600
    code = main(["runs", "--pda", "counter", "--word", word, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["count"] == 1
    assert len(payload["runs"][0]) == 1200


def test_analyze_pair_on_long_palindrome_word(shallow_recursion):
    first, second = corpus.get("interleaved-palindrome").pair()
    (analysis,) = analyze_pair(first, second, "0" * 1200)
    assert len(analysis.crossings) == 300
    assert {c.measures.gap for c in analysis.crossings} == {1}


def test_cli_verifies_a_long_one_block_spec(shallow_recursion, tmp_path, capsys):
    spec = tmp_path / "one-block.json"
    spec.write_text(
        json.dumps({"format": "blocks-v1", "alphabets": [["a"]], "c1": [], "c2": []})
    )
    argv = ["verify", "--construct", "joint", "--blocks", str(spec), "--max-len", "300"]
    assert main(argv) == 0
    assert "0 mismatches" in capsys.readouterr().out
