"""Built-in examples: machine pairs, block specifications, and grammars.

Each bundle packages related objects with a short description and a table
of expected analysis results, so the command line tools and the test
suite can refer to them by name.  Word families parameterized by n are
exposed as callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import JointSpec, build_block_pda
from .grammar import Cfg, Production
from .pda import FINAL_STATE_BOTTOM_ONLY, Pda, StackAction, Transition

MACHINE = "machine"
MACHINE_PAIR = "machine-pair"
BLOCKS = "blocks"
GRAMMAR = "grammar"


@dataclass(frozen=True)
class ExampleBundle:
    name: str
    kind: str
    description: str
    machines: dict = field(default_factory=dict, compare=False)
    joint: JointSpec | None = None
    grammar: Cfg | None = None
    family: object = field(default=None, compare=False)
    expected: dict = field(default_factory=dict, compare=False)

    def machine(self, name: str) -> Pda:
        if name not in self.machines:
            raise KeyError(
                f"bundle {self.name!r} has no machine {name!r}; "
                f"available: {sorted(self.machines)}"
            )
        return self.machines[name]

    def pair(self):
        if len(self.machines) != 2:
            raise ValueError(f"bundle {self.name!r} is not a machine pair")
        first, second = self.machines.values()
        return first, second


def _odd_track_palindrome() -> Pda:
    """Accepts words whose subsequence at odd positions is a palindrome.

    Push phase mirrors the first half of the projection, a midpoint guess
    (pop for even projection length, plain read for odd) flips to the pop
    phase, and even positions are read without stack activity throughout.
    """
    t = []
    for s in "01":
        t.append(Transition("po", s, StackAction.push(s), "pe"))
        t.append(Transition("pe", s, StackAction.none(), "po"))
        t.append(Transition("po", s, StackAction.pop(s), "qe"))
        t.append(Transition("po", s, StackAction.none(), "qe"))
        t.append(Transition("qo", s, StackAction.pop(s), "qe"))
        t.append(Transition("qe", s, StackAction.none(), "qo"))
    return Pda(
        states={"po", "pe", "qo", "qe"},
        input_alphabet={"0", "1"},
        stack_alphabet={"$", "0", "1"},
        transitions=t,
        start="po",
        bottom="$",
        accept={"po", "qe", "qo"},
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


def _even_track_palindrome() -> Pda:
    """Same check on the subsequence at even positions."""
    t = []
    for s in "01":
        t.append(Transition("o1", s, StackAction.none(), "e1"))
        t.append(Transition("e1", s, StackAction.push(s), "o1"))
        t.append(Transition("e1", s, StackAction.pop(s), "o2"))
        t.append(Transition("e1", s, StackAction.none(), "o2"))
        t.append(Transition("e2", s, StackAction.pop(s), "o2"))
        t.append(Transition("o2", s, StackAction.none(), "e2"))
    return Pda(
        states={"o1", "e1", "o2", "e2"},
        input_alphabet={"0", "1"},
        stack_alphabet={"$", "0", "1"},
        transitions=t,
        start="o1",
        bottom="$",
        accept={"o1", "e1", "o2", "e2"},
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


def _short_arc_machine() -> Pda:
    """Brackets the two a's around b, skims the d/e middle, then matches
    g's against h's: a b a (d|e)* f g^m h^m."""
    t = [
        Transition("r0", "a", StackAction.push("A"), "r1"),
        Transition("r1", "b", StackAction.none(), "r2"),
        Transition("r2", "a", StackAction.pop("A"), "r3"),
        Transition("r3", "d", StackAction.none(), "r3"),
        Transition("r3", "e", StackAction.none(), "r3"),
        Transition("r3", "f", StackAction.none(), "r4"),
        Transition("r4", "g", StackAction.push("G"), "r4"),
        Transition("r4", "h", StackAction.pop("G"), "r5"),
        Transition("r5", "h", StackAction.pop("G"), "r5"),
    ]
    return Pda(
        states={"r0", "r1", "r2", "r3", "r4", "r5"},
        input_alphabet=set("abdefgh"),
        stack_alphabet={"$", "A", "G"},
        transitions=t,
        start="r0",
        bottom="$",
        accept={"r4", "r5"},
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


def _long_arc_machine() -> Pda:
    """Brackets b against f across the whole middle while matching d's
    against e's: a b a d^n e^n f (g|h)*."""
    t = [
        Transition("s0", "a", StackAction.none(), "s1"),
        Transition("s1", "b", StackAction.push("B"), "s2"),
        Transition("s2", "a", StackAction.none(), "s3"),
        Transition("s3", "d", StackAction.push("D"), "s3"),
        Transition("s3", "e", StackAction.pop("D"), "s4"),
        Transition("s4", "e", StackAction.pop("D"), "s4"),
        Transition("s3", "f", StackAction.pop("B"), "s5"),
        Transition("s4", "f", StackAction.pop("B"), "s5"),
        Transition("s5", "g", StackAction.none(), "s5"),
        Transition("s5", "h", StackAction.none(), "s5"),
    ]
    return Pda(
        states={"s0", "s1", "s2", "s3", "s4", "s5"},
        input_alphabet=set("abdefgh"),
        stack_alphabet={"$", "B", "D"},
        transitions=t,
        start="s0",
        bottom="$",
        accept={"s5"},
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


def _double_push_machine() -> Pda:
    """a^n b^2n via an auxiliary second push chained after each a."""
    t = [
        Transition("d0", "a", StackAction.push("A"), "daux"),
        Transition("daux", None, StackAction.push("A"), "d0", auxiliary=True),
        Transition("d0", "b", StackAction.pop("A"), "d1"),
        Transition("d1", "b", StackAction.pop("A"), "d1"),
    ]
    return Pda(
        states={"d0", "daux", "d1"},
        input_alphabet={"a", "b"},
        stack_alphabet={"$", "A"},
        transitions=t,
        start="d0",
        bottom="$",
        accept={"d0", "d1"},
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


def _counter_machine() -> Pda:
    """a^n b^n, one push per a and one pop per b."""
    t = [
        Transition("p", "a", StackAction.push("A"), "p"),
        Transition("p", "b", StackAction.pop("A"), "q"),
        Transition("q", "b", StackAction.pop("A"), "q"),
    ]
    return Pda(
        states={"p", "q"},
        input_alphabet={"a", "b"},
        stack_alphabet={"$", "A"},
        transitions=t,
        start="p",
        bottom="$",
        accept={"p", "q"},
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


def _refutation_word(n: int) -> str:
    return "aba" + "d" * n + "e" * n + "f"


def _palindrome_word(n: int) -> str:
    return "0" * (2 * n)


def _four_block_word(n: int) -> str:
    return "a" * n + "b" * n + "c" * n + "d" * n


def _three_block_word(n: int) -> str:
    return "a" * n + "b" * n + "c" * n


_CROSSING_BLOCKS = JointSpec(
    alphabets=({"a"}, {"b"}, {"c"}, {"d"}), c1=((1, 3),), c2=((2, 4),)
)
_SHARED_BLOCKS = JointSpec(
    alphabets=({"a"}, {"b"}, {"c"}), c1=((1, 2),), c2=((2, 3),)
)
_NESTED_BLOCKS = JointSpec(
    alphabets=({"a"}, {"b"}, {"c"}, {"d"}), c1=((1, 4),), c2=((2, 3),)
)
_CHAINED_BLOCKS = JointSpec(
    alphabets=({"a"}, {"b"}, {"c"}, {"d"}), c1=((1, 2), (3, 4)), c2=((2, 3),)
)


def _grammar(nts, ts, prods, start):
    return Cfg(
        nonterminals=nts,
        terminals=ts,
        productions=tuple(Production(h, tuple(b)) for h, b in prods),
        start=start,
    )


def _build_bundles() -> dict:
    bundles = [
        ExampleBundle(
            name="interleaved-palindrome",
            kind=MACHINE_PAIR,
            description="one machine checks the odd positions for a "
            "palindrome, the other the even positions; their crossings "
            "always have gap one",
            machines={
                "odd-track": _odd_track_palindrome(),
                "even-track": _even_track_palindrome(),
            },
            family=_palindrome_word,
            expected={
                "regime": "bounded-gap",
                "max_gap": 1,
                "intersection": "both position-parity subsequences are palindromes",
            },
        ),
        ExampleBundle(
            name="gap-refutation",
            kind=MACHINE_PAIR,
            description="a short bracket over positions 1..3 crosses one "
            "long bracket whose gap grows with the middle, so no gap bound "
            "works while the inner distance stays one",
            machines={
                "short-arc": _short_arc_machine(),
                "long-arc": _long_arc_machine(),
            },
            family=_refutation_word,
            expected={
                "regime": "bounded-inner-unbounded-gap",
                "crossing_count": 1,
                "inner": 1,
                "gap_of_n": "2n+1",
                "intersection": "a b a d^n e^n f g^m h^m",
            },
        ),
        ExampleBundle(
            name="crossing-blocks",
            kind=BLOCKS,
            description="four blocks, |a|=|c| against |b|=|d|; the "
            "constraint arcs cross, so the intersection a^n b^m c^n d^m "
            "restricted to n=m is not context free",
            machines={
                "first-third-counter": build_block_pda(_CROSSING_BLOCKS.side(1)),
                "second-fourth-counter": build_block_pda(_CROSSING_BLOCKS.side(2)),
            },
            joint=_CROSSING_BLOCKS,
            family=_four_block_word,
            expected={"is_cfl": False, "violation": "crossing"},
        ),
        ExampleBundle(
            name="shared-endpoint-blocks",
            kind=BLOCKS,
            description="three blocks, |a|=|b| against |b|=|c|; the arcs "
            "share the middle block, forcing the non context free a^n b^n c^n",
            machines={
                "first-second-counter": build_block_pda(_SHARED_BLOCKS.side(1)),
                "second-third-counter": build_block_pda(_SHARED_BLOCKS.side(2)),
            },
            joint=_SHARED_BLOCKS,
            family=_three_block_word,
            expected={"is_cfl": False, "violation": "shared-endpoint"},
        ),
        ExampleBundle(
            name="nested-blocks",
            kind=BLOCKS,
            description="four blocks, |a|=|d| around |b|=|c|; nested arcs, "
            "and one joint machine recognizes the intersection",
            machines={
                "outer-counter": build_block_pda(_NESTED_BLOCKS.side(1)),
                "inner-counter": build_block_pda(_NESTED_BLOCKS.side(2)),
            },
            joint=_NESTED_BLOCKS,
            family=_four_block_word,
            expected={"is_cfl": True},
        ),
        ExampleBundle(
            name="chained-equal-blocks",
            kind=BLOCKS,
            description="four blocks chained |a|=|b|, |b|=|c|, |c|=|d|; "
            "the intersection is the language with all four counts equal, "
            "which also serves as the linkage oracle for the crossing "
            "example's witness family",
            machines={
                "outer-pairs-counter": build_block_pda(_CHAINED_BLOCKS.side(1)),
                "middle-counter": build_block_pda(_CHAINED_BLOCKS.side(2)),
            },
            joint=_CHAINED_BLOCKS,
            family=_four_block_word,
            expected={"is_cfl": False, "violation": "shared-endpoint"},
        ),
        ExampleBundle(
            name="double-push",
            kind=MACHINE,
            description="a^n b^2n; each a pushes twice, the second push on "
            "an auxiliary step tied to the same position",
            machines={"doubler": _double_push_machine()},
        ),
        ExampleBundle(
            name="counter",
            kind=MACHINE,
            description="a^n b^n with one stack symbol",
            machines={"counter": _counter_machine()},
        ),
        ExampleBundle(
            name="even-palindrome-grammar",
            kind=GRAMMAR,
            description="even-length palindromes over 0 and 1",
            grammar=_grammar(
                {"S"}, {"0", "1"},
                [("S", ("0", "S", "0")), ("S", ("1", "S", "1")), ("S", ())],
                "S",
            ),
        ),
        ExampleBundle(
            name="matched-pairs-grammar",
            kind=GRAMMAR,
            description="a^n b^n",
            grammar=_grammar(
                {"S"}, {"a", "b"}, [("S", ("a", "S", "b")), ("S", ())], "S"
            ),
        ),
        ExampleBundle(
            name="balanced-parens-grammar",
            kind=GRAMMAR,
            description="balanced parentheses",
            grammar=_grammar(
                {"S"}, {"(", ")"},
                [("S", ("(", "S", ")", "S")), ("S", ())],
                "S",
            ),
        ),
        ExampleBundle(
            name="left-recursive-grammar",
            kind=GRAMMAR,
            description="b followed by any number of a's, written with "
            "direct left recursion",
            grammar=_grammar(
                {"S"}, {"a", "b"}, [("S", ("S", "a")), ("S", ("b",))], "S"
            ),
        ),
        ExampleBundle(
            name="unit-chain-grammar",
            kind=GRAMMAR,
            description="a* b behind a unit production",
            grammar=_grammar(
                {"S", "A"}, {"a", "b"},
                [("S", ("A",)), ("A", ("a", "A")), ("A", ("b",))],
                "S",
            ),
        ),
    ]
    return {b.name: b for b in bundles}


_BUNDLES = _build_bundles()

ALIASES = {
    "abcd": "crossing-blocks",
    "abc-shared-endpoint": "shared-endpoint-blocks",
    "all-equal": "chained-equal-blocks",
}


def list_bundles() -> list:
    return sorted(_BUNDLES)


def get(name: str) -> ExampleBundle:
    name = ALIASES.get(name, name)
    if name not in _BUNDLES:
        raise KeyError(f"no bundle named {name!r}; available: {list_bundles()}")
    return _BUNDLES[name]


def grammar_bundles() -> list:
    return [b for _, b in sorted(_BUNDLES.items()) if b.kind == GRAMMAR]


def machine_items() -> list:
    """Every (bundle name, machine name, machine) triple in the corpus."""
    out = []
    for _, bundle in sorted(_BUNDLES.items()):
        for mname, machine in bundle.machines.items():
            out.append((bundle.name, mname, machine))
    return out
