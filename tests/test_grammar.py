import re
from collections import deque

import pytest

from islab import corpus
from islab.grammar import (
    Cfg,
    CnfGrammar,
    GnfGrammar,
    Production,
    cfg_from_json,
    cfg_to_json,
    cyk_membership,
    gnf_to_pda,
    to_cnf,
    to_gnf,
)
from islab.pda import enumerate_language, validate_normal_form

from helpers import DELETE, edited, words


def derived_words(g: Cfg, max_len: int, budget: int = 400_000) -> set:
    """Independent reference: breadth-first leftmost rewriting of sentential
    forms, pruned on terminal count.  Used as the language oracle the whole
    normalization pipeline is compared against."""
    start = (g.start,)
    seen = {start}
    queue = deque([start])
    words = set()
    while queue:
        budget -= 1
        assert budget > 0, "derivation oracle ran out of budget"
        form = queue.popleft()
        idx = next((k for k, s in enumerate(form) if s in g.nonterminals), None)
        if idx is None:
            word = "".join(form)
            if len(word) <= max_len:
                words.add(word)
            continue
        for body in (p.body for p in g.productions if p.head == form[idx]):
            new = form[:idx] + body + form[idx + 1 :]
            terminal_count = sum(1 for s in new if s in g.terminals)
            if terminal_count <= max_len and len(new) <= 4 * max_len + 8 and new not in seen:
                seen.add(new)
                queue.append(new)
    return words


def inline_matched() -> Cfg:
    return Cfg(
        nonterminals={"S"},
        terminals={"a", "b"},
        productions=[Production("S", ("a", "S", "b")), Production("S", ())],
        start="S",
    )


ALL_GRAMMAR_BUNDLES = [
    "even-palindrome-grammar",
    "matched-pairs-grammar",
    "balanced-parens-grammar",
    "left-recursive-grammar",
    "unit-chain-grammar",
]


class TestDerivationOracle:
    def test_even_palindromes_hand_listed(self):
        g = corpus.get("even-palindrome-grammar").grammar
        assert derived_words(g, 4) == {"", "00", "11", "0000", "0110", "1001", "1111"}

    def test_left_recursive_hand_listed(self):
        g = corpus.get("left-recursive-grammar").grammar
        assert derived_words(g, 3) == {"b", "ba", "baa"}

    def test_unit_chain_hand_listed(self):
        g = corpus.get("unit-chain-grammar").grammar
        assert derived_words(g, 3) == {"b", "ab", "aab"}


class TestCnf:
    @pytest.mark.parametrize("name", ALL_GRAMMAR_BUNDLES)
    def test_shape(self, name):
        cnf = to_cnf(corpus.get(name).grammar)
        assert isinstance(cnf, CnfGrammar)
        for p in cnf.productions:
            if p.body == ():
                assert p.head == cnf.start
            elif len(p.body) == 1:
                assert p.body[0] in cnf.terminals
            else:
                assert len(p.body) == 2
                assert all(s in cnf.nonterminals for s in p.body)

    @pytest.mark.parametrize("name", ALL_GRAMMAR_BUNDLES)
    def test_language_preserved_up_to_8(self, name):
        g = corpus.get(name).grammar
        cnf = to_cnf(g)
        oracle = derived_words(g, 8)
        for word in words(g.terminals, 8):
            assert cyk_membership(cnf, word) == (word in oracle), (name, word)

    def test_inline_grammar_round(self):
        cnf = to_cnf(inline_matched())
        assert cyk_membership(cnf, "aabb")
        assert not cyk_membership(cnf, "abab")

    def test_epsilon_only_through_start(self):
        cnf = to_cnf(inline_matched())
        assert cnf.derives_epsilon
        assert all(cnf.start not in p.body for p in cnf.productions)

    def test_empty_language_grammar(self):
        g = Cfg(
            nonterminals={"S"},
            terminals={"a"},
            productions=[Production("S", ("a", "S"))],
            start="S",
        )
        cnf = to_cnf(g)
        assert not cnf.productions
        assert not cnf.derives_epsilon
        assert not cyk_membership(cnf, "a")
        assert not cyk_membership(cnf, "")

    def test_useless_symbols_pruned(self):
        g = Cfg(
            nonterminals={"S", "X", "Y"},
            terminals={"a", "x"},
            productions=[
                Production("S", ("a",)),
                Production("X", ("x",)),  # unreachable
                Production("S", ("a", "Y")),  # Y derives nothing
            ],
            start="S",
        )
        cnf = to_cnf(g)
        assert "X" not in cnf.nonterminals
        assert "Y" not in cnf.nonterminals
        assert cyk_membership(cnf, "a")
        assert not cyk_membership(cnf, "ax")

    @pytest.mark.parametrize("name", ["matched-pairs-grammar", "unit-chain-grammar"])
    def test_negative_bound_refused(self, name):
        cnf = to_cnf(corpus.get(name).grammar)
        message = "length bound must be nonnegative, got -1"
        with pytest.raises(ValueError, match=re.escape(message)):
            cnf.words(-1)


class TestCyk:
    def test_epsilon_follows_flag(self):
        nullable = to_cnf(corpus.get("matched-pairs-grammar").grammar)
        strict = to_cnf(corpus.get("unit-chain-grammar").grammar)
        assert cyk_membership(nullable, "")
        assert not cyk_membership(strict, "")

    def test_hand_examples(self):
        cnf = to_cnf(corpus.get("matched-pairs-grammar").grammar)
        assert cyk_membership(cnf, "ab")
        assert not cyk_membership(cnf, "aab")

    def test_symbol_outside_alphabet_rejected(self):
        cnf = to_cnf(corpus.get("matched-pairs-grammar").grammar)
        assert not cyk_membership(cnf, "az")


class TestGnf:
    @pytest.mark.parametrize("name", ALL_GRAMMAR_BUNDLES)
    def test_shape(self, name):
        gnf = to_gnf(to_cnf(corpus.get(name).grammar))
        assert isinstance(gnf, GnfGrammar)
        for p in gnf.productions:
            assert p.body[0] in gnf.terminals
            tail = p.body[1:]
            assert len(tail) <= 2
            assert all(s in gnf.nonterminals for s in tail)

    @pytest.mark.parametrize("name", ALL_GRAMMAR_BUNDLES)
    def test_no_left_recursion_in_expansion(self, name):
        # first symbol of every body is a terminal, so expansion always
        # consumes input; a derivation of w takes exactly |w| expansions
        gnf = to_gnf(to_cnf(corpus.get(name).grammar))
        heads = {p.head for p in gnf.productions}
        assert all(p.body[0] not in heads for p in gnf.productions)

    def test_epsilon_flag(self):
        assert to_gnf(to_cnf(corpus.get("balanced-parens-grammar").grammar)).derives_epsilon
        assert not to_gnf(to_cnf(corpus.get("left-recursive-grammar").grammar)).derives_epsilon

    def test_empty_grammar_passes_through(self):
        g = Cfg(
            nonterminals={"S"},
            terminals={"a"},
            productions=[Production("S", ("a", "S"))],
            start="S",
        )
        gnf = to_gnf(to_cnf(g))
        assert gnf.productions == ()
        assert not gnf.derives_epsilon

    @pytest.mark.parametrize("name", ["balanced-parens-grammar", "even-palindrome-grammar"])
    def test_language_preserved_up_to_10(self, name):
        g = corpus.get(name).grammar
        gnf = to_gnf(to_cnf(g))
        oracle = derived_words(g, 10)
        machine = gnf_to_pda(gnf)
        assert enumerate_language(machine, 10) == oracle


class TestGnfToPda:
    @pytest.mark.parametrize("name", ALL_GRAMMAR_BUNDLES)
    def test_machine_is_normal_form(self, name):
        machine = gnf_to_pda(to_gnf(to_cnf(corpus.get(name).grammar)))
        assert validate_normal_form(machine) == []

    @pytest.mark.parametrize("name", ALL_GRAMMAR_BUNDLES)
    def test_machine_matches_cyk_up_to_8(self, name):
        g = corpus.get(name).grammar
        cnf = to_cnf(g)
        machine = gnf_to_pda(to_gnf(cnf))
        accepted = enumerate_language(machine, 8)
        for word in words(g.terminals, 8):
            assert (word in accepted) == cyk_membership(cnf, word), (name, word)

    def test_single_terminal_grammar(self):
        g = Cfg(
            nonterminals={"S"},
            terminals={"a"},
            productions=[Production("S", ("a",))],
            start="S",
        )
        machine = gnf_to_pda(to_gnf(to_cnf(g)))
        assert enumerate_language(machine, 3) == {"a"}

    def test_bottom_renamed_past_a_nonterminal(self):
        # "$" is the start symbol and is pushed, so the bottom marker grows
        g = GnfGrammar(
            nonterminals={"$", "A"},
            terminals={"a", "b"},
            productions=[
                Production("$", ("a", "A", "$")),
                Production("$", ("b",)),
                Production("A", ("a",)),
            ],
            start="$",
        )
        machine = gnf_to_pda(g)
        assert machine.bottom == "$$"
        assert validate_normal_form(machine) == []
        assert enumerate_language(machine, 7) == {"b", "aab", "aaaab", "aaaaaab"}


class TestJson:
    @pytest.mark.parametrize("name", ALL_GRAMMAR_BUNDLES)
    def test_round_trip(self, name):
        g = corpus.get(name).grammar
        assert cfg_from_json(cfg_to_json(g)) == g

    def test_format_field_checked(self):
        data = cfg_to_json(inline_matched())
        assert data["format"] == "cfg-v1"
        data["format"] = "bogus"
        with pytest.raises(ValueError, match="format"):
            cfg_from_json(data)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            ((), [], "document must be an object, got a list"),
            (("nonterminals",), DELETE, "missing field nonterminals"),
            (("productions",), None, "productions must be a list, got null"),
            (("productions", 1, "body"), DELETE, "missing field productions[1].body"),
            (("productions", 1, "body", 0), 7, "productions[1].body[0] must be a string, got an integer"),
            (("start",), ["S"], "start must be a string, got a list"),
            (("start",), "T", "start symbol 'T' not a nonterminal"),
            (("terminals", 1), "S", "nonterminals and terminals overlap"),
            (("terminals", 1), "bb", "terminals must be single characters, got 'bb'"),
            (("productions", 1, "head"), "T", "production head 'T' not a nonterminal"),
            (("productions", 1, "body", 0), "c", "undeclared symbol 'c' in production body"),
        ],
    )
    def test_malformed_document_names_field(self, keys, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cfg_from_json(edited(cfg_to_json(inline_matched()), keys, value))

    def test_epsilon_body_survives(self):
        g = inline_matched()
        again = cfg_from_json(cfg_to_json(g))
        assert Production("S", ()) in again.productions


# S -> AB | epsilon, A -> a, B -> b: a grammar in Chomsky normal form
CNF_DOCUMENT = {
    "format": "cfg-v1",
    "nonterminals": ["A", "B", "S"],
    "terminals": ["a", "b"],
    "productions": [
        {"head": "A", "body": ["a"]},
        {"head": "B", "body": ["b"]},
        {"head": "S", "body": ["A", "B"]},
        {"head": "S", "body": []},
    ],
    "start": "S",
}


@pytest.mark.parametrize(
    "form, keys, value, message",
    [
        (CnfGrammar, ("productions", 0, "body"), [], "epsilon production on non-start 'A'"),
        (
            CnfGrammar,
            ("productions", 1, "body"),
            ["S", "S"],
            "nullable start symbol appears on a right side",
        ),
        (CnfGrammar, ("productions", 0, "body"), ["B"], "unit production 'A' -> 'B' not allowed"),
        (
            CnfGrammar,
            ("productions", 0, "body"),
            ["a", "B"],
            "binary body ('a', 'B') must be two nonterminals",
        ),
        (
            CnfGrammar,
            ("productions", 0, "body"),
            ["A", "B", "B"],
            "body ('A', 'B', 'B') too long for this normal form",
        ),
        (GnfGrammar, ("productions", 0, "body"), ["B"], "body ('B',) must begin with a terminal"),
        (
            GnfGrammar,
            ("productions", 0, "body"),
            ["a", "B", "B", "B"],
            "tail of ('a', 'B', 'B', 'B') longer than two symbols",
        ),
        (GnfGrammar, ("productions", 0, "body"), ["a", "b"], "tail of ('a', 'b') must be nonterminals"),
    ],
)
def test_normal_form_refused(form, keys, value, message):
    """Each normal form refuses the loaded grammar.  Productions are checked
    in sorted order, A's first, so a GNF case fails on A before it reaches
    S -> AB."""
    with pytest.raises(ValueError, match=re.escape(message)):
        g = cfg_from_json(edited(CNF_DOCUMENT, keys, value))
        form(g.nonterminals, g.terminals, g.productions, g.start)
