"""Helpers that more than one test module uses: word generators, reference
languages and searches, random arc matchings, document editing, corpus
listings, example machines and grammars, the hypothesis strategies for
random machines and block specifications, and the in-process CLI run that
the golden transcript records and replays.  Test modules import from here and
never from each other, so that a module that fails to import stops no
other module from collecting."""

import contextlib
import copy
import io
import itertools
import re
from pathlib import Path

from hypothesis import strategies as st

from islab import corpus
from islab.arcs import (
    Arc,
    CrossingAnalysis,
    CrossingMeasures,
    CrossingPair,
    PreconditionViolated,
    SegmentDecomposition,
    crosses,
)
from islab.blocks import JointSpec
from islab.cli import main
from islab.grammar import Cfg, Production
from islab.pda import (
    _ANY,
    FINAL_STATE,
    FINAL_STATE_BOTTOM_ONLY,
    Pda,
    StackAction,
    Transition,
    _Search,
    validate_normal_form,
)

BUDGET = 20_000

# the golden CLI transcript; its commands run from this file's directory,
# where the input files they name are checked in
TRANSCRIPT = Path(__file__).resolve().parent / "transcript" / "cli.json"


def words(alphabet, max_len: int):
    """Every word over `alphabet` up to max_len, shortest first and in
    sorted order within a length."""
    for length in range(max_len + 1):
        for letters in itertools.product(sorted(alphabet), repeat=length):
            yield "".join(letters)


def block_words(alphabets, max_len):
    """Every block-shaped word up to max_len, built from each block's
    smallest letter."""
    k = len(alphabets)
    for total in range(max_len + 1):
        for bars in itertools.combinations_with_replacement(range(total + 1), k - 1):
            pos = (0,) + bars + (total,)
            counts = [pos[i + 1] - pos[i] for i in range(k)]
            yield "".join(min(a) * c for a, c in zip(alphabets, counts))


def refutation_member(word):
    """Membership in aba d^n e^n f g^m h^m, the language the gap-refutation
    witnesses pump against."""
    m = re.fullmatch(r"aba(d*)(e*)f(g*)(h*)", word)
    return (
        bool(m)
        and len(m.group(1)) == len(m.group(2))
        and len(m.group(3)) == len(m.group(4))
    )


def random_stack_matching(rng, length, owner, crowded: bool = False):
    """Random LIFO push/pop pairing over positions 1..length; always nested,
    arcs in pop order.  With `crowded`, a position pops up to three arcs and
    pushes up to two, with push ordinals 1 and 2, and the arcs come
    shuffled."""
    arcs = []
    stack = []
    for pos in range(1, length + 1):
        if crowded:
            for _ in range(min(rng.randrange(4), len(stack))):
                push, ordinal = stack.pop()
                arcs.append(Arc(push, pos, owner, ordinal))
            stack.extend([(pos, 1), (pos, 2)][: rng.randrange(3)])
            continue
        if stack and rng.random() < 0.5:
            push, ordinal = stack.pop()
            arcs.append(Arc(push, pos, owner, ordinal))
        if rng.random() < 0.5:
            stack.append((pos, 1))
    while stack:
        push, ordinal = stack.pop()
        arcs.append(Arc(push, length, owner, ordinal))
    if crowded:
        rng.shuffle(arcs)
    return tuple(arcs)


def is_well_nested(arcs) -> tuple:
    """Every arc against every arc: (True, None), or (False, (a, b)) for
    the crossing pair with the smallest key (i, j, i', j'), the first met
    in push order.  The reference for the well-nestedness that
    `crossing_pairs` decides in one stack pass."""
    items = sorted(arcs, key=lambda a: (a.push_pos, a.pop_pos, a.owner, a.push_ordinal))
    for idx, a in enumerate(items):
        for b in items[idx + 1 :]:
            # b pushes no earlier than a, so only a can cross b from the left
            if crosses(a.push_pos, a.pop_pos, b.push_pos, b.pop_pos):
                return False, (a, b)
    return True, None


def reference_crossing_pairs(m1, m2):
    """`crossing_pairs` as every arc against every arc: the reference the
    sweep is tested against.  Gap and inner come from their definitions,
    gap = max(i' - i, j' - j) and inner = max(|P2|, |P3|) over the split's
    segment lengths, not from the library's formula."""
    if m1.word != m2.word:
        raise PreconditionViolated(f"matchings over different words: {m1.word!r} vs {m2.word!r}")
    if m1.owner == m2.owner:
        raise PreconditionViolated("crossing pairs need matchings from two distinct machines")
    n = len(m1.word)
    out = []
    for a in m1.arcs:
        i, j = a.push_pos, a.pop_pos
        for b in m2.arcs:
            i_prime, j_prime = b.push_pos, b.pop_pos
            if crosses(i, j, i_prime, j_prime):
                pair = CrossingPair(a, b)
            elif crosses(i_prime, j_prime, i, j):
                pair = CrossingPair(b, a)
            else:
                continue
            deco = SegmentDecomposition(n, pair.i, pair.i_prime, pair.j)
            _, p2, p3, _ = deco.lengths()
            gap = max(pair.i_prime - pair.i, pair.j_prime - pair.j)
            out.append(CrossingAnalysis(pair, deco, CrossingMeasures(gap, max(p2, p3))))
    out.sort(
        key=lambda c: (c.pair.i, c.pair.i_prime, c.pair.j, c.pair.j_prime)
    )
    return out


def reference_enumerate_language(machine, max_len: int, max_configs: int = BUDGET) -> set:
    """`enumerate_language` as one configuration set per prefix: each
    prefix's set is closed on its own, even where another prefix of the
    same length reaches the same configurations.  The reference the shared
    search is tested against."""
    search = _Search(machine, max_len, max_configs)
    accepted: set[str] = set()
    frontier = [("", {search.start(): None})]
    while frontier:
        next_frontier = []
        for word, configs in frontier:
            reads = _ANY if len(word) < max_len else None
            work = list(configs)
            advanced: dict = {}  # symbol -> configurations after reading it
            while work:
                state, pos, cell = work.pop()
                for t, new_pos, nxt_cell in search.successors(state, pos, cell, reads):
                    nxt = (t.target, new_pos, nxt_cell)
                    if t.read is not None:
                        advanced.setdefault(t.read, {})[nxt] = None
                    elif nxt not in configs:
                        configs[nxt] = None
                        work.append(nxt)
            # every configuration of a prefix has read the whole prefix
            if any(machine.is_accepting(state, cell) for state, _, cell in configs):
                accepted.add(word)
            next_frontier.extend((word + sym, advanced[sym]) for sym in sorted(advanced))
        frontier = next_frontier
    return accepted


DELETE = object()


def edited(document, keys: tuple, value):
    """A copy of `document` with the value at the path `keys` set to
    `value`, or removed if `value` is DELETE; the empty path replaces the
    whole document."""
    if not keys:
        return value
    document = copy.deepcopy(document)
    target = document
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return document


def cli_entry(argv: list) -> dict:
    """Run the CLI in process on argv: its exit code, and stdout and stderr
    each as a list of lines that "\\n".join gives back byte for byte.  An
    argparse refusal exits through SystemExit; its code is recorded the
    same way.  argparse wraps usage lines to $COLUMNS, so callers fix it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def machine_items() -> list:
    """Every (bundle name, machine name, machine) triple in the corpus."""
    return [
        (name, machine_name, machine)
        for name in corpus.list_bundles()
        for machine_name, machine in corpus.get(name).machines.items()
    ]


def grammar_bundles() -> list:
    """Every corpus bundle that carries a grammar, in name order."""
    bundles = [corpus.get(name) for name in corpus.list_bundles()]
    return [bundle for bundle in bundles if bundle.grammar is not None]


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


def epsilon_counter():
    """a^n b^n with a plain (non-auxiliary) epsilon move from the a-loop to
    the b-loop: a valid machine, but not in normal form."""
    return Pda(
        states={"p", "q"},
        input_alphabet={"a", "b"},
        stack_alphabet={"$", "A"},
        transitions=[
            Transition("p", "a", StackAction.push("A"), "p"),
            Transition("p", None, StackAction.none(), "q"),
            Transition("q", "b", StackAction.pop("A"), "q"),
        ],
        start="p",
        bottom="$",
        accept={"q"},
    )


# left and right recursion through each other: Greibach conversion by
# repeated substitution needs more than 500 pairing nonterminals for it
MUTUAL_RECURSION = Cfg(
    nonterminals={"S", "A", "B"},
    terminals={"a", "b", "c"},
    productions=[
        Production(head, tuple(body))
        for head, body in [
            ("S", "ASB"), ("S", "c"), ("A", "aAB"), ("A", "a"), ("B", "bBAb"), ("B", "b"),
        ]
    ],
    start="S",
)


@st.composite
def machines(
    draw, modes=(FINAL_STATE, FINAL_STATE_BOTTOM_ONLY), pushes_both: bool = False
) -> Pda:
    """2-3 states, 1-2 stack symbols, reading transitions plus auxiliary
    second pushes wherever the normal form allows one, accepting in one of
    `modes`.  With `pushes_both`, both symbols are drawn and some state gets
    a read that pushes each, so that one machine's stack can hold two
    different symbols across another's arc."""
    states = [f"s{i}" for i in range(draw(st.integers(2, 3)))]
    alphabet = draw(st.sampled_from([("a",), ("a", "b")]))
    symbols = ["A", "B"][: 2 if pushes_both else draw(st.integers(1, 2))]
    actions = st.one_of(
        st.just(StackAction.none()),
        st.sampled_from(symbols).map(StackAction.push),
        st.sampled_from(symbols).map(StackAction.pop),
    )
    transition = st.builds(
        Transition,
        st.sampled_from(states),
        st.sampled_from(alphabet),
        actions,
        st.sampled_from(states),
    )
    reads = draw(st.lists(transition, min_size=2, max_size=10))
    if pushes_both:
        pusher = draw(st.sampled_from(states))
        reads += [
            Transition(
                pusher,
                draw(st.sampled_from(alphabet)),
                StackAction.push(symbol),
                draw(st.sampled_from(states)),
            )
            for symbol in symbols
        ]
    reads = list(dict.fromkeys(reads))
    entered_by_push = {
        q
        for q in states[1:]
        if any(t.target == q for t in reads)
        and all(t.action.kind == "push" for t in reads if t.target == q)
    }
    chained = sorted(q for q in entered_by_push if draw(st.booleans()))
    landing = [q for q in states if q not in chained]
    aux = [
        Transition(
            q,
            None,
            StackAction.push(draw(st.sampled_from(symbols))),
            draw(st.sampled_from(landing)),
            auxiliary=True,
        )
        for q in chained
    ]
    machine = Pda(
        states=states,
        input_alphabet=alphabet,
        stack_alphabet=["$"] + symbols,
        transitions=reads + aux,
        start=states[0],
        bottom="$",
        accept=draw(st.sets(st.sampled_from(states), min_size=1)),
        acceptance_mode=draw(st.sampled_from(modes)),
    )
    assert validate_normal_form(machine) == []
    return machine


@st.composite
def joint_specs(draw, max_blocks: int = 5, crossing: bool = False) -> JointSpec:
    """2 to `max_blocks` blocks of 1-2 letters each and 0-2 constraints per
    side; a drawn constraint that would make its side invalid is dropped.
    With `crossing`, 4 to `max_blocks` blocks, and c1 and c2 start with two
    crossing constraints, (a, c) and (b, d) for drawn blocks a < b < c < d:
    plain draws give a crossing in fewer than 2 of 100 specs."""
    k = draw(st.integers(4 if crossing else 2, max_blocks))
    letters = iter("abcdefghij")
    alphabets = [{next(letters) for _ in range(draw(st.integers(1, 2)))} for _ in range(k)]
    pair = st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True).map(sorted)

    def side(kept: tuple) -> tuple:
        for constraint in draw(st.lists(pair, max_size=2)):
            try:
                kept = JointSpec(alphabets, kept + (tuple(constraint),), ()).c1
            except ValueError:
                pass
        return kept

    first = second = ()
    if crossing:
        blocks = draw(st.lists(st.integers(1, k), min_size=4, max_size=4, unique=True))
        a, b, c, d = sorted(blocks)
        first, second = ((a, c),), ((b, d),)
    return JointSpec(alphabets, side(first), side(second))
