"""Differential tests for the reference languages and the brute-force
oracles: the bit-mask CYK parser against a plain set-based CYK on random
small grammars and in several call orders, the word generators
`CnfGrammar.words` and `JointSpec.words` against membership filters over
every word, the CNF stage's words against a fixpoint over the raw
grammar, the grammar pipeline's machine against CYK, and the window-level
linkage scan against a scan that walks every factorization."""

import random
import sys
import threading

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from islab import corpus
from islab.arcs import SegmentDecomposition
from islab.grammar import Cfg, Production, cyk_membership, gnf_to_pda, to_cnf, to_gnf
from islab.pda import LimitExceeded, enumerate_language
from islab.pumping import INNER_PAIR, OUTER_PAIR, check_linkage

from helpers import BUDGET, MUTUAL_RECURSION, grammar_bundles, joint_specs, words

MAX_LEN = 6
NONTERMINALS = ("S", "A", "B", "C")
TERMINALS = ("a", "b")


def set_cyk(g, w: str) -> bool:
    """Textbook CYK over sets of nonterminal names."""
    if not g.productions:
        return False
    if w == "":
        return Production(g.start, ()) in g.productions
    n = len(w)
    table = {}
    for i, ch in enumerate(w):
        table[i, 1] = {p.head for p in g.productions if p.body == (ch,)}
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            table[i, span] = {
                p.head
                for split in range(1, span)
                for p in g.productions
                if len(p.body) == 2
                and p.body[0] in table[i, split]
                and p.body[1] in table[i + split, span - split]
            }
    return g.start in table[0, n]


@st.composite
def grammars(draw, max_nonterminals: int = 3, max_body: int = 3) -> Cfg:
    """1 to `max_nonterminals` nonterminals over {a, b}, 1-7 productions
    with bodies of length 0 to `max_body`: nullable, unit, useless and
    left-recursive rules all turn up."""
    nts = NONTERMINALS[: draw(st.integers(1, max_nonterminals))]
    body = st.lists(st.sampled_from(nts + TERMINALS), max_size=max_body).map(tuple)
    prods = draw(
        st.lists(st.builds(Production, st.sampled_from(nts), body), min_size=1, max_size=7)
    )
    return Cfg(nonterminals=nts, terminals=TERMINALS, productions=prods, start="S")


def grammar(*rules) -> Cfg:
    prods = [Production(head, tuple(body)) for head, body in rules]
    return Cfg(nonterminals={"S", "A"}, terminals=TERMINALS, productions=prods, start="S")


@settings(max_examples=80, deadline=None)
@given(g=grammars())
# generates nothing: to_cnf returns the designated empty grammar
@example(g=grammar(("S", "S"), ("S", "aA"), ("A", "Ab")))
# nullable start: the empty word is in, and S also recurs on the right
@example(g=grammar(("S", ""), ("S", "aSb"), ("S", "SS")))
def test_cyk_matches_set_based_cyk(g):
    cnf = to_cnf(g)
    expected = {w: set_cyk(cnf, w) for w in words(TERMINALS, MAX_LEN)}
    ordered = list(expected)
    # one grammar object across orders: each call reuses the chart of the
    # prefix it shares with the previous word, whatever that word was
    shuffled = random.Random(len(cnf.productions)).sample(ordered, len(ordered))
    for w in ordered + ordered[::-1] + shuffled:
        assert cyk_membership(cnf, w) == expected[w], w


@settings(max_examples=80, deadline=None)
@given(g=grammars())
@example(g=grammar(("S", "S"), ("S", "aA"), ("A", "Ab")))
@example(g=grammar(("S", ""), ("S", "aSb"), ("S", "SS")))
def test_cnf_words_match_cyk_filter(g):
    cnf = to_cnf(g)
    derived = {w for w in words(TERMINALS, MAX_LEN) if cyk_membership(cnf, w)}
    for n in range(MAX_LEN + 1):
        assert cnf.words(n) == {w for w in derived if len(w) <= n}, n


def raw_words(g: Cfg, max_len: int) -> set:
    """The words up to max_len that `g` derives, read off the raw grammar:
    a least fixpoint over one word set per nonterminal, where each body
    joins its symbols' sets and drops whatever grows past max_len."""
    found = {nt: set() for nt in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            joined = {""}
            for s in p.body:
                options = found.get(s, {s})
                joined = {u + v for u in joined for v in options if len(u + v) <= max_len}
            if not joined <= found[p.head]:
                found[p.head] |= joined
                changed = True
    return found[g.start]


# the unit chain S -> A -> B -> C, which the start wrapper S0 -> S of to_cnf
# lengthens: in most rule orders one pass over the unit rules misses a link
UNIT_CHAIN = Cfg(
    nonterminals=NONTERMINALS,
    terminals=TERMINALS,
    productions=[
        Production(head, tuple(body))
        for head, body in [("S", "A"), ("A", "B"), ("B", "C"), ("C", "aCb"), ("C", "")]
    ],
    start="S",
)


@settings(max_examples=150, deadline=None)
@given(g=grammars(max_nonterminals=4, max_body=4))
@example(g=UNIT_CHAIN)
def test_cnf_keeps_the_raw_grammars_words(g):
    assert to_cnf(g).words(MAX_LEN) == raw_words(g, MAX_LEN)


@settings(max_examples=60, deadline=None)
@given(spec=joint_specs(max_blocks=3))
def test_joint_words_match_membership_filter(spec):
    union = set().union(*spec.alphabets)
    assert spec.words(MAX_LEN) == set(filter(spec.in_intersection, words(union, MAX_LEN)))


def stack_order(alphabet, max_len: int) -> list:
    """Every word up to max_len in the order of a depth-first walk that pops
    a word and pushes its one-letter extensions, as the bench does."""
    order, frontier = [], [""]
    while frontier:
        word = frontier.pop()
        order.append(word)
        if len(word) < max_len:
            frontier.extend(word + ch for ch in sorted(alphabet))
    return order


@pytest.mark.parametrize("bundle", grammar_bundles(), ids=lambda b: b.name)
def test_cyk_matches_generated_words_on_long_words(bundle):
    cnf = to_cnf(bundle.grammar)
    # charts up to 12 columns, where the random grammars above stop at 6
    max_len = 12 if len(cnf.terminals) <= 2 else 10
    derived = cnf.words(max_len)
    ascending = list(words(cnf.terminals, max_len))
    shuffled = random.Random(max_len).sample(ascending, len(ascending))
    # one grammar object across orders: long shared prefixes, then none
    for w in stack_order(cnf.terminals, max_len) + ascending + shuffled:
        assert cyk_membership(cnf, w) == (w in derived), w


def test_examples_cover_empty_grammar_and_nullable_start():
    assert not to_cnf(grammar(("S", "S"), ("S", "aA"), ("A", "Ab"))).productions
    nullable = to_cnf(grammar(("S", ""), ("S", "aSb"), ("S", "SS")))
    assert nullable.derives_epsilon and cyk_membership(nullable, "")


@settings(max_examples=200, deadline=None)
@given(g=grammars(max_nonterminals=4, max_body=4))
@example(g=MUTUAL_RECURSION)
def test_gnf_machine_matches_cyk(g):
    cnf = to_cnf(g)
    # never refuses: every grammar has a Greibach form
    machine = gnf_to_pda(to_gnf(cnf))
    try:
        language = enumerate_language(machine, MAX_LEN, BUDGET)
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample
    assert language == {w for w in words(cnf.terminals, MAX_LEN) if cyk_membership(cnf, w)}


def test_cyk_calls_from_threads_share_no_chart():
    cnf = to_cnf(corpus.get("even-palindrome-grammar").grammar)
    # short words, parsed many times over: the threads meet at the start
    # and end of a parse, where a chart changes hands, most often
    expected = {w: set_cyk(cnf, w) for w in words(cnf.terminals, 3)}
    mismatches = []
    finished = []

    def no_op(frame, event, arg):
        return no_op

    def parse(seed):
        # a trace function, even one that does nothing, is called on every
        # line, and each call lets the thread switch, so the threads
        # interleave between any two lines of a parse
        sys.settrace(no_op)
        rng = random.Random(seed)
        for _ in range(100):
            for w in rng.sample(list(expected), len(expected)):
                if cyk_membership(cnf, w) != expected[w]:
                    mismatches.append(w)
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == list(range(4))
    assert mismatches == []


def reference_linkage(oracle, word: str, cuts, pair) -> tuple:
    """Every factorization (a, b, c, d), by window width, then a, b, c,
    pumped as u v v x y y z.  Returns (holds, vacuous, counterexample as
    (cuts, parts, pumped) or None, examined, relevant, distinct words asked)."""
    i, i_prime, j = cuts.cuts()
    segments = [(0, i), (i, i_prime), (i_prime, j), (j, len(word))]
    first, second = segments[pair[0] - 1], segments[pair[1] - 1]
    if first[0] == first[1] or second[0] == second[1]:
        return True, True, None, 0, 0, 0
    asked = {}
    examined = relevant = 0
    n = len(word)
    for width in range(n + 1):
        for a in range(n - width + 1):
            d = a + width
            for b in range(a, d + 1):
                for c in range(b, d + 1):
                    examined += 1
                    if b == a and c == d:
                        continue
                    meets = [max(a, lo) < min(d, hi) for lo, hi in (first, second)]
                    if meets[0] == meets[1]:
                        continue
                    relevant += 1
                    parts = (word[:a], word[a:b], word[b:c], word[c:d], word[d:])
                    u, v, x, y, z = parts
                    pumped = u + v + v + x + y + y + z
                    if pumped not in asked:
                        asked[pumped] = oracle(pumped)
                    if asked[pumped]:
                        witness = ((a, b, c, d), parts, pumped)
                        return False, False, witness, examined, relevant, len(asked)
    return True, False, None, examined, relevant, len(asked)


class CountingOracle:
    """A fixed random language: each word is a member with probability
    `density`, decided by a generator seeded from the word."""

    def __init__(self, salt: int, density: float):
        self.salt = salt
        self.density = density
        self.asked = []

    def __call__(self, w: str) -> bool:
        self.asked.append(w)
        return random.Random(f"{self.salt}:{w}").random() < self.density


@settings(max_examples=300, deadline=None)
@given(
    word=st.text(alphabet="abc", max_size=9),
    raw_cuts=st.lists(st.integers(0, 9), min_size=3, max_size=3),
    pair=st.sampled_from([OUTER_PAIR, INNER_PAIR]),
    salt=st.integers(0, 2**16),
    density=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]),
)
def test_linkage_scan_matches_full_scan(word, raw_cuts, pair, salt, density):
    cuts = SegmentDecomposition(len(word), *sorted(min(c, len(word)) for c in raw_cuts))
    oracle = CountingOracle(salt, density)
    report = check_linkage(oracle, word, cuts, pair)
    # each distinct pumped word is asked once
    assert len(oracle.asked) == len(set(oracle.asked)) == report.oracle_calls
    ce = report.counterexample
    got = (
        report.holds,
        report.vacuous,
        ce and (ce.factorization.cuts, ce.parts, ce.pumped),
        report.examined,
        report.relevant,
        report.oracle_calls,
    )
    assert got == reference_linkage(CountingOracle(salt, density), word, cuts, pair)


CHAINED = corpus.get("chained-equal-blocks").joint
BLOCK_ORACLES = {"joint": CHAINED.in_intersection, "side 1": CHAINED.side(1).in_intersection}


@st.composite
def linkage_cases(draw):
    """A word over abcd, random or block-shaped with 1-2 letters a block,
    and three cuts, most often strictly inside it so that no segment is
    empty and the linkage is not vacuous."""
    word = draw(
        st.one_of(
            st.text(alphabet="abcd", min_size=4, max_size=8),
            st.lists(st.integers(1, 2), min_size=4, max_size=4).map(
                lambda counts: "".join(ch * n for ch, n in zip("abcd", counts))
            ),
        )
    )
    n = len(word)
    inside = st.lists(st.integers(1, n - 1), min_size=3, max_size=3, unique=True)
    anywhere = st.lists(st.integers(0, n), min_size=3, max_size=3)
    cuts = sorted(draw(st.one_of(inside, inside, inside, anywhere)))
    return word, SegmentDecomposition(n, *cuts)


@settings(max_examples=150, deadline=None)
@given(
    case=linkage_cases(),
    pair=st.sampled_from([OUTER_PAIR, INNER_PAIR]),
    oracle=st.sampled_from(sorted(BLOCK_ORACLES)),
)
# holds: every relevant pump unbalances a constraint
@example(case=("abcd", SegmentDecomposition(4, 1, 2, 3)), pair=OUTER_PAIR, oracle="joint")
# fails: pumping a and b together keeps |a| = |b| and |c| = |d|
@example(case=("abcd", SegmentDecomposition(4, 1, 2, 3)), pair=OUTER_PAIR, oracle="side 1")
# fails on the inner pair: a window across the a|b boundary pumps both
@example(
    case=("aabbccdd", SegmentDecomposition(8, 2, 4, 6)), pair=INNER_PAIR, oracle="side 1"
)
def test_linkage_scan_matches_full_scan_on_block_oracles(case, pair, oracle):
    word, cuts = case
    member = BLOCK_ORACLES[oracle]
    report = check_linkage(member, word, cuts, pair)
    ce = report.counterexample
    got = (
        report.holds,
        report.vacuous,
        ce and (ce.factorization.cuts, ce.parts, ce.pumped),
        report.examined,
        report.relevant,
        report.oracle_calls,
    )
    assert got == reference_linkage(member, word, cuts, pair)
