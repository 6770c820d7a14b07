"""Rewrite the golden CLI transcript, tests/transcript/cli.json: the argv,
exit code, stdout and stderr of every command below, run in process from
tests/transcript, where the input files they name are checked in.

    PYTHONPATH=src python tests/make_cli_transcript.py

tests/test_cli_transcript.py replays the file.  A change to the CLI's
output made on purpose reruns this script in the same change, so that the
diff of the file shows every changed byte."""

import json
import os

from helpers import TRANSCRIPT, cli_entry

PAIRS = (
    "gap-refutation",
    "interleaved-palindrome",
    "chained-equal-blocks",
    "crossing-blocks",
    "nested-blocks",
    "shared-endpoint-blocks",
)
BLOCKS = ("chained-equal-blocks", "crossing-blocks", "nested-blocks", "shared-endpoint-blocks")
GRAMMARS = (
    "balanced-parens-grammar",
    "even-palindrome-grammar",
    "left-recursive-grammar",
    "matched-pairs-grammar",
    "unit-chain-grammar",
)
WORDS = {"counter": ("aabb", "aab"), "double-push": ("abb", "ab")}
ODD_TRACK = ("--pda", "interleaved-palindrome", "--machine", "odd-track")
PRODUCT_L14 = ("verify", "--construct", "displacement", "--pair", "interleaved-palindrome",
               "--k", "1", "--max-len", "14")
REJECTED_PALINDROME = "1" + "0" * 599


def answers() -> list:
    """Commands that compute an answer, each in text and, where the command
    has it, in --json."""
    out = [("corpus",)]
    for pair in PAIRS:
        out.append(("crossings", "--pair", pair, "--n", "3"))
        out.append(("classify", "--pair", pair))
        for kind, flag in (("displacement", "--k"), ("buffered", "--d")):
            for bound in "012":
                out.append(("verify", "--construct", kind, "--pair", pair, flag, bound,
                            "--max-len", "8"))
    for blocks in BLOCKS:
        out.append(("characterize", "--blocks", blocks))
        out.append(("verify", "--construct", "joint", "--blocks", blocks))
        out.append(("corpus", "--name", blocks))
    for grammar in GRAMMARS:
        out.append(("verify", "--construct", "grammar", "--grammar", grammar, "--max-len", "10"))
    for machine, words in WORDS.items():
        for word in words:
            out.append(("simulate", "--pda", machine, "--word", word))
            out.append(("runs", "--pda", machine, "--word", word, "--runs-cap", "3"))
    linkage = ("linkage", "--blocks", "all-equal")
    out += [
        linkage + ("--witness", "abcd", "--n", "3"),
        linkage + ("--witness", "abcd", "--n", "3", "--side", "1"),
        linkage + ("--witness", "abcd", "--n", "2", "--hypotheses", "four-large"),
        linkage + ("--word", "aabbccdd", "--cuts", "2,4,6", "--hypotheses", "inner-growing"),
    ]
    return [argv for command in out for argv in (command, command + ("--json",))]


# each budget that CI pins, and the budget one expansion short of it
BOUNDARIES = [
    ("simulate",) + ODD_TRACK + ("--word", REJECTED_PALINDROME, "--max-expand", "599"),
    ("simulate",) + ODD_TRACK + ("--word", REJECTED_PALINDROME, "--max-expand", "598"),
    PRODUCT_L14 + ("--max-expand", "34325"),
    PRODUCT_L14 + ("--max-expand", "34324"),
]

# one command for each refusal message
REFUSALS = [
    # argparse: a size flag's type, sign and ceiling
    ("crossings", "--pair", "gap-refutation", "--n", "three"),
    ("crossings", "--pair", "gap-refutation", "--n", "-1"),
    ("crossings", "--pair", "gap-refutation", "--n", "99999999999999999999"),
    ("verify", "--construct", "grammar", "--grammar", "matched-pairs-grammar",
     "--max-len", "99999999999999999999"),
    # the mode of a subcommand
    ("crossings", "--pair", "gap-refutation"),
    ("crossings", "--pair", "gap-refutation", "--word", "abaddeef", "--n", "7"),
    ("construct", "displacement", "--pair", "interleaved-palindrome"),
    # files and corpus names
    ("simulate", "--word", "ab"),
    ("simulate", "--pda", "missing.json", "--word", "a"),
    ("simulate", "--pda", "truncated.json", "--word", "a"),
    ("simulate", "--pda", "list.json", "--word", "a"),
    ("simulate", "--pda", "counter.pda.json", "--machine", "counter", "--word", "ab"),
    ("simulate", "--pda", "no-such-bundle", "--word", "a"),
    ("simulate", "--pda", "even-palindrome-grammar", "--word", "a"),
    ("simulate", "--pda", "interleaved-palindrome", "--word", "0"),
    ("simulate", "--pda", "interleaved-palindrome", "--machine", "no-such-machine", "--word", "0"),
    ("crossings", "--pair", "counter.pda.json", "--word", "ab"),
    ("crossings", "--pair", "not-normal-form.pda.json,counter.pda.json", "--word", "ab"),
    ("characterize", "--blocks", "counter"),
    ("corpus", "--name", "counter", "--export", "list.json"),
    # block specifications whose sides break the rules of one side
    ("characterize", "--blocks", "shared-endpoint-side.blocks.json"),
    ("characterize", "--blocks", "crossing-side.blocks.json"),
    ("characterize", "--blocks", "two-crossing-side.blocks.json"),
    # budgets
    ("simulate", "--pda", "counter", "--word", "aaabbb", "--max-expand", "2"),
    ("crossings", "--pair", "gap-refutation", "--n", "50", "--max-expand", "10"),
    # crossings and classify
    ("crossings", "--pair", "counter.pda.json,counter.pda.json", "--n", "3"),
    ("crossings", "--pair", "gap-refutation", "--n", "1", "--runs-cap", "0"),
    ("crossings", "--pair", "interleaved-palindrome", "--word", "0100", "--svg", "unused.svg"),
    ("crossings", "--pair", "gap-refutation", "--n", "1", "--svg", "no-such-dir/arcs.svg"),
    ("classify", "--pair", "counter.pda.json,counter.pda.json"),
    ("classify", "--pair", "gap-refutation", "--sizes", "1,x"),
    ("classify", "--pair", "gap-refutation", "--sizes", "1,-2"),
    ("classify", "--pair", "gap-refutation", "--sizes", "1,99999999"),
    ("classify", "--pair", "gap-refutation", "--sizes", "1"),
    # a joint machine of a spec that is not CFL; verify's refusal is among the answers
    ("construct", "joint", "--blocks", "crossing-blocks"),
    # linkage
    ("linkage", "--blocks", "all-equal", "--word", "aabbccdd", "--cuts", "2,4"),
    ("linkage", "--blocks", "all-equal", "--word", "aabbccdd", "--cuts", "6,2,4"),
    ("linkage", "--blocks", "all-equal", "--word", "aabcd", "--cuts", "1,2,3"),
    ("linkage", "--blocks", "all-equal", "--n", "0", "--hypotheses", "four-large"),
    ("linkage", "--blocks", "nested-blocks", "--n", "2"),
]


def main() -> None:
    os.chdir(TRANSCRIPT.parent)
    os.environ["COLUMNS"] = "80"
    entries = [cli_entry(argv) for argv in answers() + BOUNDARIES + REFUSALS]
    with open(TRANSCRIPT, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(entries)} commands to {TRANSCRIPT}")


if __name__ == "__main__":
    main()
