import itertools
import json
import re

import pytest

from islab import corpus
from islab.arcs import analyze_pair, classify_family
from islab.blocks import characterize, joint_to_json
from islab.grammar import cfg_to_json
from islab.pda import accepts, enumerate_language, pda_to_json

from helpers import grammar_bundles, machine_items

EXPECTED_BUNDLES = [
    "balanced-parens-grammar",
    "chained-equal-blocks",
    "counter",
    "crossing-blocks",
    "double-push",
    "even-palindrome-grammar",
    "gap-refutation",
    "interleaved-palindrome",
    "left-recursive-grammar",
    "matched-pairs-grammar",
    "nested-blocks",
    "shared-endpoint-blocks",
    "unit-chain-grammar",
]


class TestInventory:
    def test_bundle_names(self):
        assert corpus.list_bundles() == EXPECTED_BUNDLES

    def test_aliases_resolve(self):
        assert corpus.get("abcd") is corpus.get("crossing-blocks")
        assert corpus.get("abc-shared-endpoint") is corpus.get("shared-endpoint-blocks")
        assert corpus.get("all-equal") is corpus.get("chained-equal-blocks")

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            corpus.get("mystery")

    def test_unknown_machine_in_bundle(self):
        with pytest.raises(KeyError, match="available"):
            corpus.get("counter").machine("other")

    def test_machine_items_count(self):
        assert len(machine_items()) == 14

    def test_grammar_bundles(self):
        bundles = grammar_bundles()
        assert len(bundles) == 5
        assert all(b.grammar is not None for b in bundles)

    def test_descriptions_present(self):
        for name in corpus.list_bundles():
            assert corpus.get(name).description.strip()

    def test_pair_helper(self):
        first, second = corpus.get("gap-refutation").pair()
        assert first.input_alphabet == second.input_alphabet
        with pytest.raises(ValueError):
            corpus.get("counter").pair()


def pair_samples(bundle, sizes):
    first, second = bundle.pair()
    samples = []
    for n in sizes:
        word = bundle.family(n)
        analyses = analyze_pair(first, second, word)
        measures = [c.measures for c in analyses[0].crossings] if analyses else []
        samples.append((word, measures))
    return samples


class TestExpectedReplay:
    def test_palindrome_regime(self):
        bundle = corpus.get("interleaved-palindrome")
        report = classify_family(pair_samples(bundle, (2, 3, 4)))
        assert report.regime == bundle.expected["regime"]
        assert all(r.max_gap == bundle.expected["max_gap"] for r in report.evidence)

    def test_refutation_regime_and_measures(self):
        bundle = corpus.get("gap-refutation")
        report = classify_family(pair_samples(bundle, (1, 2, 3)))
        assert report.regime == bundle.expected["regime"]
        for n, row in zip((1, 2, 3), report.evidence):
            assert row.pair_count == bundle.expected["crossing_count"]
            assert row.max_inner == bundle.expected["inner"]
            assert row.max_gap == 2 * n + 1  # expected gap_of_n

    def test_block_bundle_verdicts(self):
        for name in (
            "crossing-blocks",
            "shared-endpoint-blocks",
            "nested-blocks",
            "chained-equal-blocks",
        ):
            bundle = corpus.get(name)
            verdict = characterize(bundle.joint)
            assert verdict.is_cfl == bundle.expected["is_cfl"], name
            if not verdict.is_cfl:
                assert verdict.violation.kind == bundle.expected["violation"], name


class TestMachineLanguages:
    def test_palindrome_tracks_against_projection_oracle(self):
        bundle = corpus.get("interleaved-palindrome")
        odd, even = bundle.machine("odd-track"), bundle.machine("even-track")
        odd_lang = enumerate_language(odd, 6)
        even_lang = enumerate_language(even, 6)
        for length in range(7):
            for combo in itertools.product("01", repeat=length):
                word = "".join(combo)
                assert (word in odd_lang) == (word[0::2] == word[0::2][::-1]), word
                assert (word in even_lang) == (word[1::2] == word[1::2][::-1]), word

    def test_refutation_machines_against_regex_oracle(self):
        bundle = corpus.get("gap-refutation")
        short_lang = enumerate_language(bundle.machine("short-arc"), 7)
        long_lang = enumerate_language(bundle.machine("long-arc"), 7)

        def short_ok(w):
            m = re.fullmatch(r"aba[de]*f(g*)(h*)", w)
            return bool(m) and len(m.group(1)) == len(m.group(2))

        def long_ok(w):
            m = re.fullmatch(r"aba(d*)(e*)f[gh]*", w)
            return bool(m) and len(m.group(1)) == len(m.group(2))

        for length in range(8):
            for combo in itertools.product("abdefgh", repeat=length):
                word = "".join(combo)
                assert (word in short_lang) == short_ok(word), word
                assert (word in long_lang) == long_ok(word), word

    def test_block_machines_against_membership(self):
        for name in ("crossing-blocks", "shared-endpoint-blocks", "chained-equal-blocks"):
            bundle = corpus.get(name)
            for which, machine_name in enumerate(bundle.machines, start=1):
                spec = bundle.joint.side(which)
                machine = bundle.machine(machine_name)
                lang = enumerate_language(machine, 5)
                letters = sorted(min(a) for a in spec.alphabets)
                for length in range(6):
                    for combo in itertools.product(letters, repeat=length):
                        word = "".join(combo)
                        assert (word in lang) == spec.in_intersection(word), (name, word)


class TestFamilies:
    def test_pair_families_in_both_languages(self):
        for name in ("interleaved-palindrome", "gap-refutation"):
            bundle = corpus.get(name)
            first, second = bundle.pair()
            for n in range(1, 4):
                word = bundle.family(n)
                assert accepts(first, word)[0], (name, n)
                assert accepts(second, word)[0], (name, n)

    def test_block_families_in_intersection(self):
        for name in (
            "crossing-blocks",
            "shared-endpoint-blocks",
            "nested-blocks",
            "chained-equal-blocks",
        ):
            bundle = corpus.get(name)
            for n in range(4):
                assert bundle.joint.in_intersection(bundle.family(n)), (name, n)

    def test_palindrome_family_is_zero_run(self):
        bundle = corpus.get("interleaved-palindrome")
        assert bundle.family(3) == "000000"

    def test_refutation_family_shape(self):
        bundle = corpus.get("gap-refutation")
        assert bundle.family(2) == "abaddeef"


class TestExportability:
    def test_all_artifacts_serialize(self):
        for name in corpus.list_bundles():
            bundle = corpus.get(name)
            for machine in bundle.machines.values():
                json.dumps(pda_to_json(machine))
            if bundle.joint is not None:
                json.dumps(joint_to_json(bundle.joint))
            if bundle.grammar is not None:
                json.dumps(cfg_to_json(bundle.grammar))
