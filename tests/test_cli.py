import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import islab
from islab import corpus
from islab.arcs import analyze_pair
from islab.cli import main
from islab.grammar import cfg_to_json
from islab.pda import (
    FINAL_STATE,
    Pda,
    StackAction,
    Transition,
    accepts,
    enumerate_runs,
    pda_from_json,
    pda_to_json,
)
from test_oracle_properties import MUTUAL_RECURSION
from test_products import epsilon_counter


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def write_machine(tmp_path, machine, name="machine.json"):
    path = tmp_path / name
    path.write_text(json.dumps(pda_to_json(machine)))
    return str(path)


def two_path_machine():
    return Pda(
        states={"p", "q1", "q2", "r"},
        input_alphabet={"a", "b"},
        stack_alphabet={"$", "A"},
        transitions=[
            Transition("p", "a", StackAction.push("A"), "q1"),
            Transition("p", "a", StackAction.none(), "q2"),
            Transition("q1", "b", StackAction.pop("A"), "r"),
            Transition("q2", "b", StackAction.none(), "r"),
        ],
        start="p",
        bottom="$",
        accept={"r"},
    )


class TestSimulate:
    def test_accepted_word(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--corpus", "counter", "--word", "aabb"
        )
        assert code == 0
        assert "accepted" in out

    def test_rejected_word_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--corpus", "counter", "--word", "aab"
        )
        assert code == 1
        assert "rejected" in out

    def test_empty_word_default(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--corpus", "counter")
        assert code == 0

    def test_json_payload(self, capsys):
        code, payload, _ = run_json(
            capsys, "simulate", "--corpus", "counter", "--word", "ab", "--json"
        )
        assert code == 0
        assert payload["accepted"] is True
        assert [s["transition"] for s in payload["run"]]

    def test_machine_file_round_trip(self, capsys, tmp_path):
        path = write_machine(tmp_path, two_path_machine())
        code, out, _ = run_cli(capsys, "simulate", "--pda", path, "--word", "ab")
        assert code == 0

    def test_missing_machine_is_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--word", "ab")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_file_is_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", "--pda", str(path), "--word", "a")
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_file_is_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--pda", "/nonexistent.json")
        assert code == 2
        assert "cannot read" in err

    def test_ambiguous_bundle_requires_machine_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--corpus", "interleaved-palindrome", "--word", "00"
        )
        assert code == 2
        assert "--machine" in err

    def test_unknown_machine_message_unquoted(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--corpus", "interleaved-palindrome",
            "--machine", "nope", "--word", "00",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: bundle 'interleaved-palindrome' has no machine 'nope'; "
            "available: ['even-track', 'odd-track']\n"
        )

    def test_bundle_without_machines(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--corpus", "even-palindrome-grammar", "--word", "00"
        )
        assert (code, out) == (2, "")
        assert err == "error: bundle 'even-palindrome-grammar' has no machine\n"


class TestRuns:
    def test_counts_all_runs(self, capsys, tmp_path):
        path = write_machine(tmp_path, two_path_machine())
        code, payload, _ = run_json(
            capsys, "runs", "--pda", path, "--word", "ab", "--json"
        )
        assert code == 0
        assert payload["count"] == 2

    def test_cap_respected(self, capsys, tmp_path):
        path = write_machine(tmp_path, two_path_machine())
        code, payload, _ = run_json(
            capsys, "runs", "--pda", path, "--word", "ab", "--runs-cap", "1", "--json"
        )
        assert payload["count"] == 1

    def test_rejected_word_zero_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "runs", "--corpus", "counter", "--word", "ba"
        )
        assert code == 0
        assert "0 accepting run(s)" in out


class TestCrossings:
    def test_refutation_family_n3(self, capsys):
        code, out, _ = run_cli(
            capsys, "crossings", "--pair", "gap-refutation", "--n", "3"
        )
        assert code == 0
        assert "arcs (1,3) x (2,10): gap=7 inner=1 segments=(1, 1, 1, 7)" in out

    def test_explicit_word(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "crossings",
            "--pair",
            "interleaved-palindrome",
            "--word",
            "0000",
            "--json",
        )
        assert code == 0
        rows = payload["analyses"][0]["crossings"]
        assert rows and all(r["gap"] == 1 for r in rows)

    def test_rejected_word_reported(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "crossings",
            "--pair",
            "interleaved-palindrome",
            "--word",
            "0100",
            "--json",
        )
        assert code == 0
        assert payload["rejected_by"] == [2]
        assert payload["analyses"] == []

    def test_file_pair(self, capsys, tmp_path):
        from islab import corpus

        bundle = corpus.get("gap-refutation")
        p1 = write_machine(tmp_path, bundle.machine("short-arc"), "first.json")
        p2 = write_machine(tmp_path, bundle.machine("long-arc"), "second.json")
        code, out, _ = run_cli(
            capsys, "crossings", "--pair", f"{p1},{p2}", "--word", "abadef"
        )
        assert code == 0
        assert "gap=3" in out

    def test_svg_written(self, capsys, tmp_path):
        target = tmp_path / "arcs.svg"
        code, _, err = run_cli(
            capsys,
            "crossings",
            "--pair",
            "gap-refutation",
            "--n",
            "2",
            "--svg",
            str(target),
        )
        assert code == 0
        assert "wrote SVG" in err
        assert target.read_text().startswith("<svg")

    def test_needs_word_or_n(self, capsys):
        code, _, err = run_cli(capsys, "crossings", "--pair", "gap-refutation")
        assert code == 2
        assert "--word or --n" in err

    def test_single_machine_bundle_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "crossings", "--pair", "counter", "--word", "ab"
        )
        assert code == 2

    def test_runs_cap_pairs_every_run(self, capsys, tmp_path):
        path = write_machine(tmp_path, two_path_machine())
        argv = ["crossings", "--pair", f"{path},{path}", "--word", "ab", "--json"]
        code, payload, _ = run_json(capsys, *argv, "--runs-cap", "2")
        assert code == 0
        pairs = [(a["run_1"], a["run_2"]) for a in payload["analyses"]]
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]
        code, payload, _ = run_json(capsys, *argv)
        assert [(a["run_1"], a["run_2"]) for a in payload["analyses"]] == [(0, 0)]

    def test_rejected_word_searched_once(self, capsys, monkeypatch):
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        runs = counted("enumerate_runs", enumerate_runs)
        monkeypatch.setattr("islab.cli.enumerate_runs", runs)
        monkeypatch.setattr("islab.arcs.enumerate_runs", runs)
        monkeypatch.setattr("islab.cli.accepts", counted("accepts", accepts))
        code, payload, _ = run_json(
            capsys, "crossings", "--pair", "interleaved-palindrome", "--word", "0100", "--json"
        )
        assert code == 0
        assert payload["rejected_by"] == [2]
        assert calls == ["enumerate_runs", "enumerate_runs"]

    def test_zero_runs_cap_refused(self, capsys):
        # it would analyze no run pair, and report none while both machines accept
        code, out, err = run_cli(
            capsys, "crossings", "--pair", "gap-refutation", "--n", "2", "--runs-cap", "0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: runs_cap must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["crossings", "--word", "00000000"],
        ["classify", "--sizes", "2,3,4"],
        ["report", "--sizes", "2,3,4"],
    ],
)
def test_max_expand_limits_run_search(capsys, argv):
    for cap in ("5", "0"):
        code, _, err = run_cli(
            capsys, *argv, "--pair", "interleaved-palindrome", "--max-expand", cap
        )
        assert code == 2, cap
        assert "search limit exceeded" in err


@pytest.mark.parametrize(
    "command", [["simulate", "--corpus", "counter"], ["runs", "--corpus", "counter"]]
)
def test_negative_max_expand_rejected(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--max-expand", "-1"])
    assert exc.value.code == 2
    assert "argument --max-expand: must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["characterize", "--blocks", "nested-blocks"],
        ["linkage", "--blocks", "abcd", "--n", "1"],
        ["corpus"],
    ],
    ids=["characterize", "linkage", "corpus"],
)
def test_max_expand_only_on_searching_subcommands(capsys, command):
    # these subcommands run no engine search, so there is nothing to cap
    with pytest.raises(SystemExit) as exc:
        main([*command, "--max-expand", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-expand" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--pda", "{path}", "--word", "ab"],
        ["crossings", "--pair", "{path},{path}", "--word", "ab"],
        ["characterize", "--blocks", "{path}"],
        ["construct", "grammar", "--grammar", "{path}"],
    ],
    ids=["pda", "pair", "blocks", "grammar"],
)
def test_top_level_non_object_rejected(capsys, tmp_path, argv):
    path = tmp_path / "array.json"
    path.write_text("[]")
    argv = [arg.replace("{path}", str(path)) for arg in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {path} must hold a JSON object")


def test_zero_runs_cap_gives_no_run(capsys):
    code, out, _ = run_cli(
        capsys, "runs", "--corpus", "counter", "--word", "ab", "--runs-cap", "0"
    )
    assert code == 0
    assert out == "0 accepting run(s) for 'ab' (cap 0)\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["runs", "--corpus", "counter", "--word", "ab", "--runs-cap", "-2"], "--runs-cap"),
        (["crossings", "--pair", "gap-refutation", "--n", "1", "--runs-cap", "-1"], "--runs-cap"),
        (["crossings", "--pair", "gap-refutation", "--n", "-1"], "--n"),
        (["linkage", "--blocks", "abcd", "--n", "-1"], "--n"),
        (
            ["construct", "displacement", "--pair", "gap-refutation", "--k", "1"]
            + ["--max-len", "-1"],
            "--max-len",
        ),
        (
            ["verify", "--construct", "joint", "--blocks", "nested-blocks", "--max-len", "-1"],
            "--max-len",
        ),
        (["construct", "displacement", "--pair", "gap-refutation", "--k", "-1"], "--k"),
        (["verify", "--construct", "buffered", "--pair", "gap-refutation", "--d", "-1"], "--d"),
    ],
    ids=[
        "runs-runs-cap",
        "crossings-runs-cap",
        "crossings-n",
        "linkage-n",
        "construct-max-len",
        "verify-max-len",
        "construct-k",
        "verify-d",
    ],
)
def test_negative_count_flag_rejected(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be nonnegative" in capsys.readouterr().err


def test_linkage_hypotheses_zero_threshold_rejected(capsys):
    code, out, err = run_cli(
        capsys, "linkage", "--blocks", "all-equal", "--witness", "abcd",
        "--n", "0", "--hypotheses", "four-large",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --hypotheses needs a positive size threshold --n, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "displacement", "--k", "1", "--max-len", "4"],
        ["verify", "--construct", "buffered", "--d", "1", "--max-len", "4"],
        ["crossings", "--word", "aabb"],
    ],
    ids=["construct", "verify", "crossings"],
)
def test_pair_outside_normal_form_refused(capsys, tmp_path, argv):
    counter = write_machine(tmp_path, corpus.get("counter").machine("counter"), "ok.json")
    bad = write_machine(tmp_path, epsilon_counter(), "eps.json")
    code, out, err = run_cli(capsys, *argv, "--pair", f"{counter},{bad}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad} is not in normal form: ")
    assert "non-auxiliary transition reads no input symbol" in err


@pytest.mark.parametrize("command", ["classify", "report"])
def test_negative_size_rejected(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--pair", "gap-refutation", "--sizes", "2,-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: --sizes must be nonnegative, got '2,-1'\n"


class TestClassify:
    def test_bounded_gap(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--pair", "interleaved-palindrome", "--sizes", "2,3,4"
        )
        assert code == 0
        assert "regime: bounded-gap" in out

    def test_bounded_inner(self, capsys):
        code, payload, _ = run_json(
            capsys, "classify", "--pair", "gap-refutation", "--json"
        )
        assert code == 0
        assert payload["regime"] == "bounded-inner-unbounded-gap"

    def test_inconclusive_still_exit_zero(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "classify",
            "--pair",
            "interleaved-palindrome",
            "--sizes",
            "1,2,3",
            "--json",
        )
        assert code == 0
        assert payload["regime"] == "inconclusive"
        assert payload["evidence"]

    def test_single_size_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--pair", "gap-refutation", "--sizes", "3"
        )
        assert code == 2
        assert "at least two" in err


class TestCharacterize:
    def test_crossing_outcome(self, capsys):
        code, out, _ = run_cli(capsys, "characterize", "--blocks", "crossing-blocks")
        assert code == 0
        assert "NotCFL (crossing arcs (1, 3)x(2, 4))" in out
        assert "witness family member (n=3): 'aaabbbcccddd'" in out

    def test_shared_endpoint_outcome(self, capsys):
        code, out, _ = run_cli(
            capsys, "characterize", "--blocks", "shared-endpoint-blocks"
        )
        assert code == 0
        assert "NotCFL (shared endpoint between (1, 2) and (2, 3))" in out

    def test_cfl_outcome(self, capsys):
        code, payload, _ = run_json(
            capsys, "characterize", "--blocks", "nested-blocks", "--json"
        )
        assert code == 0
        assert payload["outcome"] == "CFL"
        assert payload["violation"] is None

    def test_alias_and_file(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys, "characterize", "--blocks", "all-equal", "--json"
        )
        assert code == 0
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(payload["spec"]))
        code2, payload2, _ = run_json(
            capsys, "characterize", "--blocks", str(spec_file), "--json"
        )
        assert code2 == 0
        assert payload2["outcome"] == payload["outcome"] == "NotCFL"


class TestConstruct:
    def test_joint_machine_is_valid_pda_json(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "joint", "--blocks", "nested-blocks")
        assert code == 0
        document = json.loads(out)
        assert document["format"] == "pda-v1"
        pda_from_json(document)

    def test_joint_refused_for_crossing(self, capsys):
        code, _, err = run_cli(capsys, "construct", "joint", "--blocks", "abcd")
        assert code == 2
        assert "cannot build" in err

    def test_grammar_machine(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "grammar", "--grammar", "even-palindrome-grammar"
        )
        assert code == 0
        pda_from_json(json.loads(out))

    def test_displacement_fragment(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "construct",
            "displacement",
            "--pair",
            "interleaved-palindrome",
            "--k",
            "1",
            "--max-len",
            "4",
        )
        assert code == 0
        document = json.loads(out)
        assert document["product"] == {
            "kind": "displacement",
            "parameter": 1,
            "explored_input_length": 4,
        }
        assert len(document["states"]) == 48
        assert set(document["composite_state_labels"]) == set(document["states"])

    def test_buffered_needs_d(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "buffered", "--pair", "gap-refutation"
        )
        assert code == 2
        assert "--d" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "joint.json"
        code, out, err = run_cli(
            capsys,
            "construct",
            "joint",
            "--blocks",
            "nested-blocks",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert f"wrote {target}" in err
        pda_from_json(json.loads(target.read_text()))

    def test_out_file_unwritable(self, capsys, tmp_path):
        (tmp_path / "taken").write_text("")
        target = tmp_path / "taken" / "joint.pda.json"
        code, out, err = run_cli(
            capsys, "construct", "joint", "--blocks", "nested-blocks", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")

    def test_mixed_acceptance_modes_refused(self, capsys, tmp_path):
        counter = corpus.get("counter").machine("counter")
        first = write_machine(tmp_path, counter, "first.json")
        second = write_machine(
            tmp_path, replace(counter, acceptance_mode=FINAL_STATE), "second.json"
        )
        code, out, err = run_cli(
            capsys,
            "construct",
            "displacement",
            "--pair",
            f"{first},{second}",
            "--k",
            "1",
            "--max-len",
            "4",
        )
        assert code == 2
        assert out == ""
        assert "acceptance modes FinalStateAndBottomOnly and FinalState:" in err

    def test_deterministic_stdout(self, capsys):
        _, first, _ = run_cli(
            capsys, "construct", "buffered", "--pair", "gap-refutation", "--d", "1",
            "--max-len", "4",
        )
        _, second, _ = run_cli(
            capsys, "construct", "buffered", "--pair", "gap-refutation", "--d", "1",
            "--max-len", "4",
        )
        assert first == second


CONSTRUCTION_FLAGS = {
    "joint": ["--blocks", "nested-blocks"],
    "displacement": ["--pair", "gap-refutation", "--k", "1"],
    "buffered": ["--pair", "gap-refutation", "--d", "1"],
    "grammar": ["--grammar", "even-palindrome-grammar"],
}
FLAG_VALUES = {
    "--blocks": "nested-blocks",
    "--grammar": "even-palindrome-grammar",
    "--pair": "gap-refutation",
    "--k": "1",
    "--d": "1",
    "--max-len": "4",
    "--max-expand": "100",
}
# what each construction does not read: `verify` reads --max-len and
# --max-expand for every kind, `construct` only for the two products
FOREIGN_FLAGS = {
    ("construct", "joint"): ["--grammar", "--pair", "--k", "--d", "--max-len", "--max-expand"],
    ("construct", "displacement"): ["--blocks", "--grammar", "--d"],
    ("construct", "buffered"): ["--blocks", "--grammar", "--k"],
    ("construct", "grammar"): ["--blocks", "--pair", "--k", "--d", "--max-len", "--max-expand"],
    ("verify", "joint"): ["--grammar", "--pair", "--k", "--d"],
    ("verify", "displacement"): ["--blocks", "--grammar", "--d"],
    ("verify", "buffered"): ["--blocks", "--grammar", "--k"],
    ("verify", "grammar"): ["--blocks", "--pair", "--k", "--d"],
}


def construction_argv(command, kind, flags):
    head = ["construct", kind] if command == "construct" else ["verify", "--construct", kind]
    return head + flags


@pytest.mark.parametrize(
    "command, kind, flag",
    [(command, kind, flag) for (command, kind), flags in FOREIGN_FLAGS.items() for flag in flags],
)
def test_foreign_construction_flag_refused(capsys, command, kind, flag):
    argv = construction_argv(command, kind, CONSTRUCTION_FLAGS[kind] + [flag, FLAG_VALUES[flag]])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith(f" does not take {flag}\n")


@pytest.mark.parametrize(
    "command, kind, flag",
    [
        (command, kind, flag)
        for command in ("construct", "verify")
        for kind, flags in CONSTRUCTION_FLAGS.items()
        for flag in flags[::2]
    ],
)
def test_missing_construction_flag_refused(capsys, command, kind, flag):
    flags = CONSTRUCTION_FLAGS[kind]
    at = flags.index(flag)
    code, out, err = run_cli(capsys, *construction_argv(command, kind, flags[:at] + flags[at + 2:]))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith(f" needs {flag}\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (
            ["linkage", "--blocks", "all-equal", "--witness", "abcd", "--n", "2"]
            + ["--hypotheses", "four-large", "--segments", "1,3"],
            "--segments",
        ),
        (["crossings", "--pair", "gap-refutation", "--word", "abaddeef", "--n", "7"], "--n"),
        (["linkage", "--blocks", "all-equal", "--word", "aabbccdd", "--cuts", "2,4,6", "--n", "5"], "--n"),
        (
            ["linkage", "--blocks", "all-equal", "--word", "aabbccdd", "--cuts", "2,4,6"]
            + ["--witness", "abcd"],
            "--witness",
        ),
        (["linkage", "--blocks", "all-equal", "--n", "2", "--witness", "abcd", "--cuts", "1,2,3"], "--cuts"),
        (["simulate", "--pda", "{path}", "--word", "ab", "--machine", "nope"], "--machine"),
        (["simulate", "--pda", "{path}", "--word", "ab", "--corpus", "counter"], "--corpus"),
        (["runs", "--pda", "{path}", "--word", "ab", "--machine", "nope"], "--machine"),
        (["runs", "--pda", "{path}", "--word", "ab", "--corpus", "counter"], "--corpus"),
        (["construct", "joint", "--blocks", "nested-blocks", "--json"], "--json"),
    ],
    ids=[
        "linkage-hypotheses-segments",
        "crossings-word-n",
        "linkage-word-n",
        "linkage-word-witness",
        "linkage-n-cuts",
        "simulate-pda-machine",
        "simulate-pda-corpus",
        "runs-pda-machine",
        "runs-pda-corpus",
        "construct-json",
    ],
)
def test_flag_the_mode_does_not_read_refused(capsys, tmp_path, argv, flag):
    """Each of these flags used to be accepted and then ignored."""
    path = write_machine(tmp_path, two_path_machine())
    argv = [arg.replace("{path}", path) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag the subcommand lacks
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.endswith(f" {flag}\n")


GRAMMAR_BUNDLES = [name for name in corpus.list_bundles() if corpus.get(name).grammar]

# Its GNF stage has left-corner nonterminals for several heads, and their
# names must not follow the order in which a set is iterated.
PAIRING_GRAMMAR = {
    "format": "cfg-v1",
    "nonterminals": ["S", "A"],
    "terminals": ["a", "b"],
    "productions": [
        {"head": "S", "body": ["A", "b"]},
        {"head": "S", "body": ["S", "b", "a"]},
        {"head": "S", "body": ["b"]},
        {"head": "A", "body": ["S", "b", "S"]},
        {"head": "A", "body": ["b", "b"]},
        {"head": "A", "body": ["b"]},
    ],
    "start": "S",
}


@pytest.mark.parametrize("grammar", GRAMMAR_BUNDLES + ["pairing-grammar-file"])
def test_construct_grammar_independent_of_hash_seed(tmp_path, grammar):
    if grammar == "pairing-grammar-file":
        grammar = str(tmp_path / "pairing.cfg.json")
        Path(grammar).write_text(json.dumps(PAIRING_GRAMMAR))
    src = str(Path(islab.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "islab.cli", "construct", "grammar", "--grammar", grammar],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_closed_stdout_ends_quietly():
    """A reader that stops early, as `| head` does, gets no traceback."""
    src = str(Path(islab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "islab.cli", "construct", "joint", "--blocks", "nested-blocks"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()  # before the child has started to write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == ""


def test_mutually_recursive_grammar_file(tmp_path, capsys):
    path = tmp_path / "mutual.cfg.json"
    path.write_text(json.dumps(cfg_to_json(MUTUAL_RECURSION)))
    code, _, err = run_cli(capsys, "construct", "grammar", "--grammar", str(path))
    assert code == 0, err
    code, out, err = run_cli(
        capsys, "verify", "--construct", "grammar", "--grammar", str(path), "--max-len", "8"
    )
    assert code == 0, err
    assert "0 mismatches" in out


class TestVerify:
    def test_joint_equality(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--construct",
            "joint",
            "--blocks",
            "nested-blocks",
            "--max-len",
            "10",
        )
        assert code == 0
        assert "language equality confirmed, 0 mismatches (21 words)" in out

    def test_displacement_equality(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--construct",
            "displacement",
            "--pair",
            "interleaved-palindrome",
            "--k",
            "1",
            "--max-len",
            "6",
        )
        assert code == 0
        assert "0 mismatches" in out

    def test_buffered_equality(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify",
            "--construct",
            "buffered",
            "--pair",
            "gap-refutation",
            "--d",
            "1",
            "--max-len",
            "10",
            "--json",
        )
        assert code == 0
        assert payload["mismatches"] == 0
        assert payload["machine_words"] == 10

    def test_grammar_equality(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--construct",
            "grammar",
            "--grammar",
            "even-palindrome-grammar",
            "--max-len",
            "6",
        )
        assert code == 0
        assert "0 mismatches" in out

    def test_incomplete_product_reports_mismatch(self, capsys):
        """Buffered at d=1 misses growing-inner palindromes, and the
        differential against the component intersection says so."""
        code, payload, _ = run_json(
            capsys,
            "verify",
            "--construct",
            "buffered",
            "--pair",
            "interleaved-palindrome",
            "--d",
            "1",
            "--max-len",
            "6",
            "--json",
        )
        assert code == 1
        assert payload["mismatches"] > 0
        assert "000000" in payload["only_oracle"]
        assert payload["only_machine"] == []


class TestOracleCap:
    def test_cap_rejects_larger_request(self, capsys, monkeypatch):
        monkeypatch.setenv("ISL_ORACLE_MAX_LEN", "6")
        code, _, err = run_cli(
            capsys,
            "verify",
            "--construct",
            "joint",
            "--blocks",
            "nested-blocks",
            "--max-len",
            "8",
        )
        assert code == 2
        assert "exceeds the ISL_ORACLE_MAX_LEN cap of 6" in err

    def test_cap_allows_equal_request(self, capsys, monkeypatch):
        monkeypatch.setenv("ISL_ORACLE_MAX_LEN", "8")
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--construct",
            "joint",
            "--blocks",
            "nested-blocks",
            "--max-len",
            "8",
        )
        assert code == 0

    def test_invalid_cap_value(self, capsys, monkeypatch):
        monkeypatch.setenv("ISL_ORACLE_MAX_LEN", "many")
        code, _, err = run_cli(
            capsys,
            "construct",
            "displacement",
            "--pair",
            "interleaved-palindrome",
            "--k",
            "1",
        )
        assert code == 2
        assert "must be an integer" in err


class TestLinkage:
    def test_intersection_oracle_holds(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "linkage",
            "--blocks",
            "all-equal",
            "--witness",
            "abcd",
            "--n",
            "2",
            "--json",
        )
        assert code == 0
        assert payload["word"] == "aabbccdd"
        assert [entry["holds"] for entry in payload["linkages"]] == [True, True]

    def test_single_side_oracle_fails_outer(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "linkage",
            "--blocks",
            "abcd",
            "--side",
            "1",
            "--segments",
            "1,3",
            "--n",
            "3",
        )
        assert code == 0
        assert "linkage (1,3): FAILS" in out
        assert "'aaabbbbcccddd'" in out

    def test_explicit_word_and_cuts(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "linkage",
            "--blocks",
            "all-equal",
            "--word",
            "aabbccdd",
            "--cuts",
            "2,4,6",
            "--json",
        )
        assert code == 0
        assert payload["segments"] == ["aa", "bb", "cc", "dd"]

    def test_hypotheses_verified(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "linkage",
            "--blocks",
            "all-equal",
            "--witness",
            "abcd",
            "--n",
            "2",
            "--hypotheses",
            "four-large",
        )
        assert code == 0
        assert "size condition (four-large, n=2): ok" in out
        assert "hypotheses of the non-CFL theorem verified at n=2" in out

    def test_word_outside_oracle_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "linkage",
            "--blocks",
            "all-equal",
            "--word",
            "aabb",
            "--cuts",
            "1,2,3",
        )
        assert code == 2
        assert "not in the intersection oracle" in err

    def test_witness_needs_crossing(self, capsys):
        code, _, err = run_cli(
            capsys, "linkage", "--blocks", "all-equal", "--n", "2"
        )
        assert code == 2
        assert "no crossing violation" in err

    def test_bad_cuts_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "linkage",
            "--blocks",
            "all-equal",
            "--word",
            "abcd",
            "--cuts",
            "3,2,1",
        )
        assert code == 2
        assert "out of order" in err


class TestCorpus:
    def test_list(self, capsys):
        code, payload, _ = run_json(capsys, "corpus", "--json")
        assert code == 0
        assert len(payload["bundles"]) == 13
        assert payload["aliases"]["abcd"] == "crossing-blocks"

    def test_single_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--name", "gap-refutation")
        assert code == 0
        assert "gap-refutation (machine-pair)" in out

    def test_unknown_bundle(self, capsys):
        code, _, err = run_cli(capsys, "corpus", "--name", "missing")
        assert code == 2
        assert "available" in err

    def test_export_writes_all_artifacts(self, capsys, tmp_path):
        target = tmp_path / "exported"
        code, _, err = run_cli(capsys, "corpus", "--export", str(target))
        assert code == 0
        assert "exported 23 file(s)" in err
        files = sorted(os.listdir(target))
        assert len(files) == 23
        assert "counter--counter.pda.json" in files
        assert "nested-blocks.blocks.json" in files
        assert "even-palindrome-grammar.cfg.json" in files
        loaded = json.loads((target / "counter--counter.pda.json").read_text())
        pda_from_json(loaded)

    @pytest.mark.parametrize("target", ["taken", "taken/sub"])
    def test_export_onto_a_file_is_error(self, capsys, tmp_path, target):
        (tmp_path / "taken").write_text("")
        path = tmp_path / target
        code, _, err = run_cli(capsys, "corpus", "--export", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot create directory {path}: ")
        assert (tmp_path / "taken").read_text() == ""

    def test_export_single_bundle(self, capsys, tmp_path):
        target = tmp_path / "one"
        code, _, err = run_cli(
            capsys, "corpus", "--name", "abcd", "--export", str(target)
        )
        assert code == 0
        files = sorted(os.listdir(target))
        assert files == [
            "crossing-blocks--first-third-counter.pda.json",
            "crossing-blocks--second-fourth-counter.pda.json",
            "crossing-blocks.blocks.json",
        ]


class TestReport:
    def test_refutation_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--pair", "gap-refutation", "--sizes", "1,2,3"
        )
        assert code == 0
        assert "inner-segment regime: bounded-inner-unbounded-gap" in out
        assert "expected regime: bounded-inner-unbounded-gap" in out

    def test_report_json_rows(self, capsys):
        code, payload, _ = run_json(
            capsys, "report", "--pair", "gap-refutation", "--sizes", "1,2,3", "--json"
        )
        assert code == 0
        assert [row["max_gap"] for row in payload["rows"]] == [3, 5, 7]

    def test_inconclusive_report(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "report",
            "--pair",
            "interleaved-palindrome",
            "--sizes",
            "1,2,3",
            "--json",
        )
        assert code == 0
        assert payload["regime"] == "inconclusive"
        assert payload["detail"]

    def test_svg(self, capsys, tmp_path):
        target = tmp_path / "fam.svg"
        code, _, _ = run_cli(
            capsys,
            "report",
            "--pair",
            "interleaved-palindrome",
            "--sizes",
            "2,3",
            "--svg",
            str(target),
        )
        assert code == 0
        assert target.read_text().startswith("<svg")

    def test_svg_reuses_the_last_analysis(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return analyze_pair(*args, **kwargs)

        monkeypatch.setattr("islab.cli.analyze_pair", counted)
        code, _, _ = run_cli(
            capsys, "report", "--pair", "gap-refutation", "--sizes", "1,2,3",
            "--svg", str(tmp_path / "fam.svg"),
        )
        assert code == 0
        assert [len(word) for word in calls] == [6, 8, 10]


class TestDeterminism:
    def test_json_outputs_stable(self, capsys):
        for argv in (
            ["classify", "--pair", "gap-refutation", "--json"],
            ["characterize", "--blocks", "abcd", "--json"],
            ["corpus", "--json"],
        ):
            _, first, _ = run_cli(capsys, *argv)
            _, second, _ = run_cli(capsys, *argv)
            assert first == second
