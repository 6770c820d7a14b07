import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import islab
from islab import corpus
from islab.arcs import analyze_pair
from islab.cli import MAX_SIZE, main
from islab.grammar import cfg_to_json
from islab.pda import (
    FINAL_STATE,
    Pda,
    StackAction,
    Transition,
    accepts,
    _Search,
    enumerate_runs,
    pda_from_json,
    pda_to_json,
)

from helpers import MUTUAL_RECURSION, epsilon_counter, two_path_machine


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


class TestSimulate:
    def test_accepted_word(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--pda", "counter", "--word", "aabb"
        )
        assert code == 0
        assert "accepted" in out

    def test_rejected_word_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--pda", "counter", "--word", "aab"
        )
        assert code == 1
        assert "rejected" in out

    def test_empty_word_default(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--pda", "counter")
        assert code == 0

    def test_json_payload(self, capsys):
        code, payload, _ = run_json(
            capsys, "simulate", "--pda", "counter", "--word", "ab", "--json"
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
        contents = {
            "broken": b"{not json",
            "nested": b"[" * 1000 + b"]" * 1000,
            "not-utf-8": b"\xff\xfe{}",
        }
        for name, content in contents.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(content)
            code, out, err = run_cli(capsys, "simulate", "--pda", str(path), "--word", "a")
            assert (code, out) == (2, ""), name
            assert err.startswith(f"error: {path} is not valid JSON: "), name

    def test_missing_file_is_error(self, capsys):
        # a name ending in .json is a file, even when no such file exists
        for path in ("/nonexistent.json", "missing.json"):
            code, _, err = run_cli(capsys, "simulate", "--pda", path)
            assert code == 2
            assert err.startswith(f"error: cannot read {path}: ")

    def test_ambiguous_bundle_requires_machine_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--pda", "interleaved-palindrome", "--word", "00"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: bundle 'interleaved-palindrome' has machines "
            "['even-track', 'odd-track']; pick one with --machine\n"
        )

    def test_machine_picks_from_a_bundle(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--pda", "interleaved-palindrome",
            "--machine", "odd-track", "--word", "000",
        )
        assert code == 0
        assert out.startswith("word '000': accepted\n")

    def test_existing_file_without_suffix_is_read_as_a_file(self, capsys, tmp_path):
        path = write_machine(tmp_path, corpus.get("counter").machine("counter"), "counter")
        code, out, _ = run_cli(capsys, "simulate", "--pda", path, "--word", "aabb")
        assert code == 0
        assert out.startswith("word 'aabb': accepted\n")

    def test_unknown_name_is_looked_up_in_the_corpus(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--pda", "missing", "--word", "a")
        assert (code, out) == (2, "")
        assert err.startswith("error: no bundle named 'missing'; available: ")

    def test_machine_with_a_file_refused(self, capsys, tmp_path):
        path = write_machine(tmp_path, two_path_machine())
        code, out, err = run_cli(
            capsys, "simulate", "--pda", path, "--machine", "counter", "--word", "ab"
        )
        assert (code, out) == (2, "")
        assert err == f"error: --pda {path} is a machine file, which does not take --machine\n"

    def test_unknown_machine_message_unquoted(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--pda", "interleaved-palindrome",
            "--machine", "nope", "--word", "00",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: bundle 'interleaved-palindrome' has no machine 'nope'; "
            "available: ['even-track', 'odd-track']\n"
        )

    def test_bundle_without_machines(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--pda", "even-palindrome-grammar", "--word", "00"
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
            capsys, "runs", "--pda", "counter", "--word", "ba"
        )
        assert code == 0
        assert "0 accepting run(s)" in out


class TestCrossings:
    @pytest.mark.parametrize("name", ["counter.pda.json", "counter"])
    def test_one_machine_file_refused(self, capsys, tmp_path, name):
        """A --pair value without a comma that names a file is refused as
        one file, not looked up as a bundle."""
        path = write_machine(tmp_path, corpus.get("counter").machine("counter"), name)
        code, out, err = run_cli(capsys, "crossings", "--pair", path, "--word", "ab")
        assert (code, out) == (2, "")
        assert err == f"error: --pair takes FILE1,FILE2 or a bundle name, not one file {path}\n"

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

    def test_run_popping_the_bottom_refused(self, capsys, tmp_path):
        # simulate accepts "a" by popping the bottom marker, a pop that no
        # push matches, so the run has no arc matching
        machine = Pda(
            states={"p", "q"},
            input_alphabet={"a"},
            stack_alphabet={"$"},
            transitions=[
                Transition("p", "a", StackAction.pop("$"), "q"),
                Transition("q", "a", StackAction.push("$"), "p"),
            ],
            start="p",
            bottom="$",
            accept={"p", "q"},
            acceptance_mode=FINAL_STATE,
        )
        path = write_machine(tmp_path, machine)
        assert run_cli(capsys, "simulate", "--pda", path, "--word", "a")[0] == 0
        code, out, err = run_cli(capsys, "crossings", "--pair", f"{path},{path}", "--word", "a")
        assert code == 2
        assert out == ""
        assert err == "error: machine 1 at position 1: pop of '$' with no pending push\n"

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
    "argv, size, length",
    [
        (["crossings", "--pair", "gap-refutation", "--n", "50"], 50, 104),
        (["classify", "--pair", "interleaved-palindrome", "--sizes", "2,50"], 50, 100),
    ],
    ids=["crossings-n", "classify-sizes"],
)
def test_family_word_longer_than_the_budget_refused_unsearched(
    capsys, monkeypatch, argv, size, length
):
    """A family word is in both languages and accepting it takes one
    expansion per symbol, so a word longer than --max-expand is refused
    before any configuration is expanded; `classify` checks every size
    first, so its size 2 is not searched either."""
    expanded = []
    real = _Search.successors
    monkeypatch.setattr(_Search, "successors", lambda *a: expanded.append(1) or real(*a))
    code, out, err = run_cli(capsys, *argv, "--max-expand", "10")
    assert (code, out, expanded) == (2, "", [])
    assert err == (
        f"error: search limit exceeded: size {size} gives a word of {length} symbols,"
        " longer than the --max-expand budget of 10 expansions, and accepting a word"
        " takes at least one expansion per symbol\n"
    )


def test_family_word_as_long_as_the_budget_searched(capsys):
    """Accepting the family word at n = 2 takes exactly its 8 expansions per
    machine, so a budget of 8 answers and 7 is refused unsearched."""
    argv = ["crossings", "--pair", "gap-refutation", "--n", "2", "--max-expand"]
    code, out, _ = run_cli(capsys, *argv, "8")
    assert (code, out.splitlines()[0]) == (0, "word 'abaddeef'")
    code, _, err = run_cli(capsys, *argv, "7")
    assert code == 2 and "size 2 gives a word of 8 symbols" in err


@pytest.mark.parametrize(
    "command", [["simulate", "--pda", "counter"], ["runs", "--pda", "counter"]]
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
        capsys, "runs", "--pda", "counter", "--word", "ab", "--runs-cap", "0"
    )
    assert code == 0
    assert out == "0 accepting run(s) for 'ab' (cap 0)\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["runs", "--pda", "counter", "--word", "ab", "--runs-cap", "-2"], "--runs-cap"),
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


BIG = "99999999999999999999"  # more than an index-sized integer holds


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["crossings", "--pair", "gap-refutation", "--n", BIG], "--n"),
        (["classify", "--pair", "gap-refutation", "--sizes", f"1,{BIG}"], "--sizes"),
        (["classify", "--pair", "gap-refutation", "--sizes", f"{BIG},{BIG}9"], "--sizes"),
        (
            ["verify", "--construct", "grammar", "--grammar", "matched-pairs-grammar"]
            + ["--max-len", BIG],
            "--max-len",
        ),
        (
            ["verify", "--construct", "joint", "--blocks", "nested-blocks", "--max-len", BIG],
            "--max-len",
        ),
        (
            ["verify", "--construct", "buffered", "--pair", "gap-refutation", "--d", "1"]
            + ["--max-len", BIG],
            "--max-len",
        ),
        (
            ["verify", "--construct", "displacement", "--pair", "gap-refutation", "--k", "1"]
            + ["--max-len", BIG],
            "--max-len",
        ),
        (["linkage", "--blocks", "all-equal", "--witness", "abcd", "--n", BIG], "--n"),
        (["runs", "--pda", "counter", "--word", "ab", "--runs-cap", BIG], "--runs-cap"),
        (
            ["runs", "--pda", "counter", "--word", "ab", "--runs-cap", str(MAX_SIZE + 1)],
            "--runs-cap",
        ),
        (
            ["crossings", "--pair", "gap-refutation", "--n", "2", "--runs-cap", BIG],
            "--runs-cap",
        ),
    ],
    ids=[
        "crossings-n",
        "classify-sizes",
        "classify-sizes-both",
        "verify-grammar-max-len",
        "verify-joint-max-len",
        "verify-buffered-max-len",
        "verify-displacement-max-len",
        "linkage-n",
        "runs-runs-cap",
        "runs-runs-cap-one-past",
        "crossings-runs-cap",
    ],
)
def test_size_flag_above_the_ceiling_refused(capsys, argv, flag):
    # refused before any input is built, so a failure here never allocates
    # a word or a depth table of that size
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's refusal
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert flag in err
    assert f"at most {MAX_SIZE}" in err


def test_size_flag_at_the_ceiling_accepted(capsys):
    code, out, _ = run_cli(
        capsys, "runs", "--pda", "counter", "--word", "ab", "--runs-cap", str(MAX_SIZE)
    )
    assert code == 0
    assert out.startswith(f"1 accepting run(s) for 'ab' (cap {MAX_SIZE})\n")


@pytest.mark.parametrize("command", ["classify"])
def test_negative_size_rejected(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--pair", "gap-refutation", "--sizes", "2,-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: --sizes must be nonnegative, got '2,-1'\n"


class TestClassify:
    def test_file_pair_refused_before_either_file_is_read(self, capsys, tmp_path):
        path = write_machine(tmp_path, corpus.get("counter").machine("counter"))
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(
            capsys, "classify", "--pair", f"{path},{missing}", "--sizes", "1,2"
        )
        assert (code, out) == (2, "")
        assert err == "error: classify needs a corpus bundle with a word family\n"

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

    @pytest.mark.parametrize(
        "bundle, regime",
        [
            ("interleaved-palindrome", "bounded-gap"),
            ("crossing-blocks", "growing-inner"),
            ("shared-endpoint-blocks", "growing-inner"),
            ("nested-blocks", "no-crossings"),
            ("chained-equal-blocks", "growing-inner"),
        ],
    )
    def test_default_sizes_read_the_expected_regime(self, capsys, bundle, regime):
        # size 1 of some families has no crossing pair, so the default
        # starts at 2; the block bundles' regime follows their is_cfl, and
        # test_bounded_inner reads gap-refutation's
        code, payload, _ = run_json(capsys, "classify", "--pair", bundle, "--json")
        assert code == 0
        assert payload["sizes"] == [2, 3, 4, 5, 6]
        assert payload["regime"] == regime

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
        assert payload["detail"] == "crossing pairs appear at some sizes but not others"
        assert payload["evidence"]

    def test_json_evidence_rows(self, capsys):
        code, payload, _ = run_json(
            capsys, "classify", "--pair", "gap-refutation", "--sizes", "1,2,3", "--json"
        )
        assert code == 0
        assert [row["max_gap"] for row in payload["evidence"]] == [3, 5, 7]

    def test_svg(self, capsys, tmp_path):
        target = tmp_path / "fam.svg"
        code, _, err = run_cli(
            capsys,
            "classify",
            "--pair",
            "interleaved-palindrome",
            "--sizes",
            "2,3",
            "--svg",
            str(target),
        )
        assert code == 0
        assert err == f"wrote SVG: {target}\n"
        assert target.read_text().startswith("<svg")

    def test_svg_reuses_the_last_analysis(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return analyze_pair(*args, **kwargs)

        monkeypatch.setattr("islab.cli.analyze_pair", counted)
        target = tmp_path / "fam.svg"
        code, _, _ = run_cli(
            capsys, "classify", "--pair", "gap-refutation", "--sizes", "1,2,3",
            "--svg", str(target),
        )
        assert code == 0
        assert [len(word) for word in calls] == [6, 8, 10]
        assert "n=3" in target.read_text()

    def test_svg_needs_an_analysis_at_the_largest_size(self, capsys, tmp_path, monkeypatch):
        def rejected_at_three(first, second, word, **kwargs):
            return [] if len(word) == 10 else analyze_pair(first, second, word, **kwargs)

        monkeypatch.setattr("islab.cli.analyze_pair", rejected_at_three)
        target = tmp_path / "fam.svg"
        code, out, err = run_cli(
            capsys, "classify", "--pair", "gap-refutation", "--sizes", "1,2,3",
            "--svg", str(target),
        )
        assert code == 2
        assert out.startswith("inconclusive: ")
        assert err == "error: no analysis to draw at the largest size\n"
        assert not target.exists()

    def test_single_size_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--pair", "gap-refutation", "--sizes", "3"
        )
        assert code == 2
        assert "at least two" in err

    @pytest.mark.parametrize("command", ["classify"])
    @pytest.mark.parametrize("sizes", ["3,3,3", "4,3"])
    def test_sizes_that_do_not_grow_rejected(self, capsys, command, sizes):
        """A repeated size gives constant series, which would read as bounded."""
        code, out, err = run_cli(capsys, command, "--pair", "gap-refutation", "--sizes", sizes)
        assert code == 2
        assert out == ""
        assert "strictly grow" in err


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

    @pytest.mark.parametrize("constraint", [[2, 1], [1, 1]])
    def test_reversed_constraint_in_file_refused(self, capsys, tmp_path, constraint):
        spec_file = tmp_path / "spec.json"
        spec = {"format": "blocks-v1", "alphabets": [["a"], ["b"]], "c1": [constraint], "c2": []}
        spec_file.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "characterize", "--blocks", str(spec_file))
        assert code == 2
        assert out == ""
        assert f"constraint {tuple(constraint)} needs 1 <= l < r <= 2" in err

    def test_directory_is_no_document(self, capsys, tmp_path, monkeypatch):
        # only an existing file is read as a document: a directory named
        # after a bundle leaves the name to the corpus
        (tmp_path / "abcd").mkdir()
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "characterize", "--blocks", "abcd")
        assert code == 0
        assert out.startswith("NotCFL (crossing arcs (1, 3)x(2, 4))\n")
        assert err == ""


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
        assert len(document["states"]) == 96
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
            tmp_path, counter._replace(acceptance_mode=FINAL_STATE), "second.json"
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
        (["crossings", "--pair", "gap-refutation", "--word", "abaddeef", "--n", "7"], "--n"),
        (["linkage", "--blocks", "all-equal", "--word", "aabbccdd", "--cuts", "2,4,6", "--n", "5"], "--n"),
        (
            ["linkage", "--blocks", "all-equal", "--word", "aabbccdd", "--cuts", "2,4,6"]
            + ["--witness", "abcd"],
            "--witness",
        ),
        (["linkage", "--blocks", "all-equal", "--n", "2", "--witness", "abcd", "--cuts", "1,2,3"], "--cuts"),
        (["simulate", "--pda", "{path}", "--word", "ab", "--machine", "nope"], "--machine"),
        (["runs", "--pda", "{path}", "--word", "ab", "--machine", "nope"], "--machine"),
        (["construct", "joint", "--blocks", "nested-blocks", "--json"], "--json"),
    ],
    ids=[
        "crossings-word-n",
        "linkage-word-n",
        "linkage-word-witness",
        "linkage-n-cuts",
        "simulate-pda-machine",
        "runs-pda-machine",
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


@pytest.mark.parametrize(
    "argv, unrecognized",
    [
        (["simulate", "--pda", "counter", "--word", "ab", "--corpus", "counter"], "--corpus counter"),
        (["runs", "--pda", "counter", "--word", "ab", "--corpus", "counter"], "--corpus counter"),
        (
            ["linkage", "--blocks", "all-equal", "--witness", "abcd", "--n", "2"]
            + ["--segments", "1,3"],
            "--segments 1,3",
        ),
        (
            ["linkage", "--blocks", "all-equal", "--witness", "abcd", "--n", "2"]
            + ["--hypotheses", "four-large", "--segments", "1,3"],
            "--segments 1,3",
        ),
    ],
    ids=[
        "simulate-pda-corpus",
        "runs-pda-corpus",
        "linkage-segments",
        "linkage-hypotheses-segments",
    ],
)
def test_removed_flag_unrecognized(capsys, argv, unrecognized):
    """--pda takes a corpus bundle itself, and linkage always checks both
    segment pairs, so --corpus and --segments are no flags of islab."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {unrecognized}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "--construct", "grammar", "--grammar", "counter"],
            "bundle 'counter' carries no grammar",
        ),
        (
            ["characterize", "--blocks", "counter"],
            "bundle 'counter' carries no block specification",
        ),
        (["crossings", "--pair", "gap-refutation", "--n", "two"], "expected an integer, got 'two'"),
        (
            ["classify", "--pair", "gap-refutation", "--sizes", "1,2,x"],
            "--sizes must be comma-separated integers, got '1,2,x'",
        ),
        (
            ["crossings", "--pair", "{path},{path}", "--n", "2"],
            "--n needs a corpus bundle with a word family",
        ),
        (["classify", "--pair", "{path},{path}"], "classify needs a corpus bundle with a word family"),
        (
            ["crossings", "--pair", "interleaved-palindrome", "--word", "0100", "--svg", "{svg}"],
            "no analysis to draw; both machines must accept the word",
        ),
        (
            ["linkage", "--blocks", "all-equal", "--word", "aabbccdd", "--cuts", "2,4"],
            "--cuts must be three comma-separated integers, got '2,4'",
        ),
    ],
    ids=[
        "no-grammar",
        "no-blocks",
        "not-an-integer",
        "sizes-not-integers",
        "n-without-family",
        "classify-without-family",
        "nothing-to-draw",
        "cuts-not-three-integers",
    ],
)
def test_refusal(capsys, tmp_path, argv, message):
    path = write_machine(tmp_path, corpus.get("counter").machine("counter"))
    svg = tmp_path / "arcs.svg"
    argv = [arg.format(path=path, svg=svg) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag value its type rejects
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.endswith(f"{message}\n")
    assert not svg.exists()


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


@pytest.mark.parametrize(
    "case", GRAMMAR_BUNDLES + ["pairing-grammar-file", "corpus-export", "construct-buffered"]
)
def test_outputs_independent_of_hash_seed(tmp_path, case):
    """Each output, and each file `corpus --export` writes, is the same
    under two hash seeds: `construct grammar` on each grammar, `corpus
    --export` and `construct buffered`."""
    if case == "corpus-export":
        args = ["corpus", "--export"]
    elif case == "construct-buffered":
        args = ["construct", "buffered", "--pair", "interleaved-palindrome"]
        args += ["--d", "1", "--max-len", "4"]
    else:
        grammar = case
        if case == "pairing-grammar-file":
            grammar = str(tmp_path / "pairing.cfg.json")
            Path(grammar).write_text(json.dumps(PAIRING_GRAMMAR))
        args = ["construct", "grammar", "--grammar", grammar]
    src = str(Path(islab.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        export = tmp_path / f"export{seed}"
        done = subprocess.run(
            [sys.executable, "-m", "islab.cli", *args]
            + ([str(export)] if args[-1] == "--export" else []),
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        files = {f.name: f.read_bytes() for f in export.iterdir()} if export.exists() else {}
        outputs.append((done.stdout, files))
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

    def test_displacement_length_12_within_default_budget(self, capsys):
        """The product's live depths keep this search under the default
        budget; without them it is LimitExceeded."""
        code, out, err = run_cli(
            capsys,
            "verify",
            "--construct",
            "displacement",
            "--pair",
            "interleaved-palindrome",
            "--k",
            "1",
            "--max-len",
            "12",
        )
        assert code == 0, err
        assert "language equality confirmed, 0 mismatches (295 words)" in out

    def test_displacement_length_14_expands_each_configuration_once(self, capsys):
        """Each configuration of each distinct configuration set per length
        is expanded once, however many prefixes reach the set, so the
        product's search fits in 34 325 expansions."""
        code, out, err = run_cli(
            capsys,
            "verify",
            "--construct",
            "displacement",
            "--pair",
            "interleaved-palindrome",
            "--k",
            "1",
            "--max-len",
            "14",
            "--max-expand",
            "34325",
        )
        assert code == 0, err
        assert "language equality confirmed, 0 mismatches (679 words)" in out

    def test_buffered_length_12_within_default_budget(self, capsys):
        """d=1 is not complete on this pair: exit 1, with the mismatches a
        search without live depths finds at a budget of 3 000 000."""
        code, payload, err = run_json(
            capsys,
            "verify",
            "--construct",
            "buffered",
            "--pair",
            "interleaved-palindrome",
            "--d",
            "1",
            "--max-len",
            "12",
            "--json",
        )
        assert code == 1, err
        assert payload["mismatches"] == 160
        assert payload["only_machine"] == []
        assert payload["only_oracle"][:4] == ["000000", "00000000", "0000000000", "000000000000"]


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

    def test_empty_segment_holds_vacuously(self, capsys):
        code, out, _ = run_cli(
            capsys, "linkage", "--blocks", "all-equal", "--word", "aabbccdd", "--cuts", "0,4,6"
        )
        assert code == 0
        assert "linkage (1,3): holds vacuously (an empty segment)\n" in out

    def test_short_segment_fails_the_size_condition(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "linkage",
            "--blocks",
            "all-equal",
            "--word",
            "aabbccdd",
            "--cuts",
            "1,4,6",
            "--hypotheses",
            "four-large",
            "--n",
            "2",
        )
        assert code == 0
        assert "size condition (four-large, n=2): FAILS segment lengths (1, 3, 2, 2)\n" in out
        assert out.endswith("hypotheses NOT satisfied\n")

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

    def test_grammar_bundle_json_carries_its_grammar(self, capsys):
        code, payload, _ = run_json(capsys, "corpus", "--name", "even-palindrome-grammar", "--json")
        assert code == 0
        grammar = corpus.get("even-palindrome-grammar").grammar
        assert payload["grammar"] == cfg_to_json(grammar)
        assert payload["grammar"]["format"] == "cfg-v1"

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


# Two subcommands that read each document format, given a document's path
# and a word over its input alphabet; --max-expand bounds each search.
READERS = {
    "pda-v1": lambda path, word: [
        ["simulate", "--pda", path, "--word", word, "--max-expand", "5000"],
        ["crossings", "--pair", f"{path},{path}", "--word", word, "--max-expand", "5000"],
    ],
    "cfg-v1": lambda path, word: [
        ["construct", "grammar", "--grammar", path],
        ["verify", "--construct", "grammar", "--grammar", path, "--max-len", "4",
         "--max-expand", "5000"],
    ],
    "blocks-v1": lambda path, word: [
        ["characterize", "--blocks", path, "--json"],
        ["verify", "--construct", "joint", "--blocks", path, "--max-len", "6",
         "--max-expand", "5000"],
    ],
}

WRONG_VALUES = [None, True, -1, 0, 2.5, "", "x", [], {}]


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Every corpus document, by file name: (format, document, word)."""
    root = tmp_path_factory.mktemp("corpus")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["corpus", "--export", str(root)]) == 0
    documents = {}
    for path in sorted(root.iterdir()):
        document = json.loads(path.read_text(encoding="utf-8"))
        word = "".join(sorted(document.get("input_alphabet", [])))[:3] * 2
        documents[path.name] = (document["format"], document, word)
    return root, documents


def mutated(data, document):
    """A copy of `document` with one field dropped, duplicated (a list
    item repeated, an object member's value given twice in a list) or
    given a value of another type."""
    document = copy.deepcopy(document)
    parent, key, node = None, None, document
    while isinstance(node, (dict, list)) and node and (parent is None or data.draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    change = data.draw(st.sampled_from(["drop", "duplicate", "retype"]))
    if change == "drop":
        del parent[key]
    elif change == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    elif change == "duplicate":
        parent[key] = [node, copy.deepcopy(node)]
    else:
        wrong = [value for value in WRONG_VALUES if type(value) is not type(node)]
        parent[key] = data.draw(st.sampled_from(wrong))
    return document


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_documents_never_raise(exported, data):
    """A corpus document with one field dropped, duplicated or retyped is
    read by two subcommands in process: each ends in exit 0, 1 or 2, and
    no exception escapes `main`."""
    root, documents = exported
    name = data.draw(st.sampled_from(sorted(documents)))
    kind, document, word = documents[name]
    path = root / f"mutated-{name}"
    path.write_text(json.dumps(mutated(data, document)), encoding="utf-8")
    for argv in READERS[kind](str(path), word):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
