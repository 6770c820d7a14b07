"""Built-in examples: machine pairs, block specifications, and grammars.

Each bundle packages related objects with a short description and a table
of expected analysis results, so the command line tools and the test
suite can refer to them by name.  Word families parameterized by n are
exposed as callables.
"""

from __future__ import annotations

from functools import partial

from .blocks import JointSpec, _spell, build_joint_pda
from .grammar import Cfg, Production
from .pda import Pda, StackAction, Transition, _set, _Value

MACHINE = "machine"
MACHINE_PAIR = "machine-pair"
BLOCKS = "blocks"
GRAMMAR = "grammar"


class ExampleBundle(_Value):
    """A named set of examples: one machine, a machine pair, a joint block
    specification or a grammar, with a description, an optional word
    family `family(n)` and the analysis results expected of them.  Two
    bundles compare by name, description, joint spec and grammar only;
    `machines` and `expected` default to fresh empty dicts."""

    _fields = ("name", "description", "machines", "joint", "grammar", "family", "expected")

    def __init__(
        self,
        name: str,
        description: str,
        machines: dict | None = None,
        joint: JointSpec | None = None,
        grammar: Cfg | None = None,
        family: object = None,
        expected: dict | None = None,
    ):
        _set(self, "name", name)
        _set(self, "description", description)
        _set(self, "machines", {} if machines is None else machines)
        _set(self, "joint", joint)
        _set(self, "grammar", grammar)
        _set(self, "family", family)
        _set(self, "expected", {} if expected is None else expected)

    def _key(self) -> tuple:
        return (self.name, self.description, self.joint, self.grammar)

    def machine(self, name: str) -> Pda:
        if name not in self.machines:
            raise KeyError(
                f"bundle {self.name!r} has no machine {name!r}; "
                f"available: {sorted(self.machines)}"
            )
        return self.machines[name]

    @property
    def kind(self) -> str:
        """What the bundle holds: a grammar, a joint block specification,
        two machines or one."""
        if self.grammar is not None:
            return GRAMMAR
        if self.joint is not None:
            return BLOCKS
        return MACHINE_PAIR if len(self.machines) == 2 else MACHINE

    def pair(self):
        if len(self.machines) != 2:
            raise ValueError(f"bundle {self.name!r} is not a machine pair")
        first, second = self.machines.values()
        return first, second


def _machine(start: str, accept: set, transitions: list) -> Pda:
    """A machine accepting on its bottom only, whose states, input and
    stack symbols are those its transitions name, with bottom marker $."""
    return Pda(
        states={start, *accept} | {t.source for t in transitions} | {t.target for t in transitions},
        input_alphabet={t.read for t in transitions} - {None},
        stack_alphabet={"$"} | {t.action.symbol for t in transitions} - {None},
        transitions=transitions,
        start=start,
        bottom="$",
        accept=accept,
    )


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
    return _machine("po", {"po", "qe", "qo"}, t)


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
    return _machine("o1", {"o1", "e1", "o2", "e2"}, t)


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
    return _machine("r0", {"r4", "r5"}, t)


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
    return _machine("s0", {"s5"}, t)


def _double_push_machine() -> Pda:
    """a^n b^2n via an auxiliary second push chained after each a."""
    t = [
        Transition("d0", "a", StackAction.push("A"), "daux"),
        Transition("daux", None, StackAction.push("A"), "d0", auxiliary=True),
        Transition("d0", "b", StackAction.pop("A"), "d1"),
        Transition("d1", "b", StackAction.pop("A"), "d1"),
    ]
    return _machine("d0", {"d0", "d1"}, t)


def _counter_machine() -> Pda:
    """a^n b^n, one push per a and one pop per b."""
    t = [
        Transition("p", "a", StackAction.push("A"), "p"),
        Transition("p", "b", StackAction.pop("A"), "q"),
        Transition("q", "b", StackAction.pop("A"), "q"),
    ]
    return _machine("p", {"p", "q"}, t)


def _refutation_word(n: int) -> str:
    return "aba" + "d" * n + "e" * n + "f"


def _palindrome_word(n: int) -> str:
    return "0" * (2 * n)


def _every_block_at(spec: JointSpec, n: int) -> str:
    """The word of the spec with every block at count n, which is in both
    sides whatever their constraints."""
    return _spell(spec, [n] * spec.k)


def _block_bundle(
    name: str, description: str, spec: JointSpec, sides: tuple, expected: dict
) -> ExampleBundle:
    """A block bundle: the spec, the machine of each side under the names
    in `sides`, and the family with every block at count n."""
    return ExampleBundle(
        name=name,
        description=description,
        machines={side: build_joint_pda(spec.side(which)) for which, side in enumerate(sides, 1)},
        joint=spec,
        family=partial(_every_block_at, spec),
        expected=expected,
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
        _block_bundle(
            "crossing-blocks",
            "four blocks, |a|=|c| against |b|=|d|; the constraint arcs cross, "
            "so the intersection a^n b^m c^n d^m restricted to n=m is not "
            "context free",
            JointSpec(alphabets=({"a"}, {"b"}, {"c"}, {"d"}), c1=((1, 3),), c2=((2, 4),)),
            ("first-third-counter", "second-fourth-counter"),
            {"is_cfl": False, "violation": "crossing"},
        ),
        _block_bundle(
            "shared-endpoint-blocks",
            "three blocks, |a|=|b| against |b|=|c|; the arcs share the middle "
            "block, forcing the non context free a^n b^n c^n",
            JointSpec(alphabets=({"a"}, {"b"}, {"c"}), c1=((1, 2),), c2=((2, 3),)),
            ("first-second-counter", "second-third-counter"),
            {"is_cfl": False, "violation": "shared-endpoint"},
        ),
        _block_bundle(
            "nested-blocks",
            "four blocks, |a|=|d| around |b|=|c|; nested arcs, and one joint "
            "machine recognizes the intersection",
            JointSpec(alphabets=({"a"}, {"b"}, {"c"}, {"d"}), c1=((1, 4),), c2=((2, 3),)),
            ("outer-counter", "inner-counter"),
            {"is_cfl": True},
        ),
        _block_bundle(
            "chained-equal-blocks",
            "four blocks chained |a|=|b|, |b|=|c|, |c|=|d|; the intersection "
            "is the language with all four counts equal, which also serves as "
            "the linkage oracle for the crossing example's witness family",
            JointSpec(alphabets=({"a"}, {"b"}, {"c"}, {"d"}), c1=((1, 2), (3, 4)), c2=((2, 3),)),
            ("outer-pairs-counter", "middle-counter"),
            {"is_cfl": False, "violation": "shared-endpoint"},
        ),
        ExampleBundle(
            name="double-push",
            description="a^n b^2n; each a pushes twice, the second push on "
            "an auxiliary step tied to the same position",
            machines={"doubler": _double_push_machine()},
        ),
        ExampleBundle(
            name="counter",
            description="a^n b^n with one stack symbol",
            machines={"counter": _counter_machine()},
        ),
        ExampleBundle(
            name="even-palindrome-grammar",
            description="even-length palindromes over 0 and 1",
            grammar=_grammar(
                {"S"}, {"0", "1"},
                [("S", ("0", "S", "0")), ("S", ("1", "S", "1")), ("S", ())],
                "S",
            ),
        ),
        ExampleBundle(
            name="matched-pairs-grammar",
            description="a^n b^n",
            grammar=_grammar(
                {"S"}, {"a", "b"}, [("S", ("a", "S", "b")), ("S", ())], "S"
            ),
        ),
        ExampleBundle(
            name="balanced-parens-grammar",
            description="balanced parentheses",
            grammar=_grammar(
                {"S"}, {"(", ")"},
                [("S", ("(", "S", ")", "S")), ("S", ())],
                "S",
            ),
        ),
        ExampleBundle(
            name="left-recursive-grammar",
            description="b followed by any number of a's, written with "
            "direct left recursion",
            grammar=_grammar(
                {"S"}, {"a", "b"}, [("S", ("S", "a")), ("S", ("b",))], "S"
            ),
        ),
        ExampleBundle(
            name="unit-chain-grammar",
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
