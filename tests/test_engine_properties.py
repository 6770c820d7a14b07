"""Property tests on random small machines: the engine's searches agree
with each other and with a reference search that shares no engine code on
every word up to length 5, every witness run replays step by step to its
final configuration, what a search returns under a cap is exact, the
live- and floor-depth tables equal ones computed column by column, in any
order of lengths and from several threads, every accepting run keeps
within them, and pruning by floor depth changes no answer.  The machines
are in normal form, except those of `forward_machines`, whose epsilon
moves push, pop or do nothing in any number but never cycle.  Closing one
configuration set per length gives the language that closing one set per
prefix gives, on machines and on products."""

import random
import re
import sys
import threading

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from islab import corpus
from islab.pda import (
    ACCEPTANCE_MODES,
    FINAL_STATE,
    FINAL_STATE_BOTTOM_ONLY,
    POP,
    PUSH,
    Configuration,
    LimitExceeded,
    Pda,
    StackAction,
    Transition,
    accepts,
    enumerate_language,
    enumerate_runs,
)
from islab.products import BufferedProduct, DisplacementProduct

from helpers import BUDGET, machines, reference_enumerate_language, words

MAX_LEN = 5


def reference_accepts(machine, word: str) -> bool:
    """Breadth-first over (state, position, stack) with the stack a plain
    tuple and no bound on its depth, so it ends on every machine whose
    epsilon moves cannot cycle, normal form included; does not use the
    engine's search."""
    n = len(word)
    start = (machine.start, 0, (machine.bottom,))
    seen = {start}
    queue = [start]
    for state, pos, stack in queue:
        if pos == n and state in machine.accept:
            if machine.acceptance_mode != FINAL_STATE_BOTTOM_ONLY:
                return True
            if stack == (machine.bottom,):
                return True
        for t in machine.transitions:
            if t.source != state:
                continue
            if t.read is None:
                new_pos = pos
            elif pos < n and t.read == word[pos]:
                new_pos = pos + 1
            else:
                continue
            if t.action.kind == PUSH:
                new_stack = stack + (t.action.symbol,)
            elif t.action.kind == POP:
                if stack[-1:] != (t.action.symbol,):
                    continue
                new_stack = stack[:-1]
            else:
                new_stack = stack
            nxt = (t.target, new_pos, new_stack)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def replay(machine, run, word: str) -> None:
    """Follow the run's transitions from the start, applying each stack
    operation to a plain tuple, and land on the run's final configuration."""
    config = Configuration(machine.start, 0, (machine.bottom,))
    for s in run.steps:
        t = s.transition
        stack = config.stack
        if t.action.kind == PUSH:
            stack = stack + (t.action.symbol,)
        elif t.action.kind == POP:
            assert stack[-1] == t.action.symbol
            stack = stack[:-1]
        pos = config.input_pos + (t.read is not None)
        nxt = Configuration(t.target, pos, stack)
        assert (s.input_pos, s.stack_depth_after) == (pos, len(stack))
        config = nxt
    assert config == run.final
    assert type(run.final.stack) is tuple
    assert run.final.input_pos == len(word)
    assert run.final.state in machine.accept
    if machine.acceptance_mode == FINAL_STATE_BOTTOM_ONLY:
        assert run.final.stack == (machine.bottom,)


@settings(max_examples=60, deadline=None)
@given(machine=machines())
def test_searches_agree_and_witnesses_replay(machine):
    try:
        language = enumerate_language(machine, MAX_LEN, BUDGET)
        for word in words(machine.input_alphabet, MAX_LEN):
            ok, witness = accepts(machine, word, BUDGET)
            runs = enumerate_runs(machine, word, max_configs=BUDGET)
            assert ok == (word in language), word
            assert bool(runs) == ok, word
            if ok:
                replay(machine, witness, word)
            for run in runs:
                replay(machine, run, word)
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample


@settings(max_examples=60, deadline=None)
@given(machine=machines())
# an auxiliary push out of a state with no reads: live depths must carry
# the bound back over the epsilon move
@example(machine=corpus.get("double-push").machine("doubler"))
def test_accepts_matches_reference_and_lists_first_run(machine):
    """In both acceptance modes `accepts` agrees with the reference search,
    and its witness is the first run `enumerate_runs` lists."""
    try:
        for mode in ACCEPTANCE_MODES:
            moded = machine._replace(acceptance_mode=mode)
            for word in words(moded.input_alphabet, MAX_LEN):
                ok, witness = accepts(moded, word, BUDGET)
                assert ok == reference_accepts(moded, word), (mode, word)
                first = enumerate_runs(moded, word, cap=1, max_configs=BUDGET)
                assert first == ([witness] if ok else []), (mode, word)
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample


@settings(max_examples=150, deadline=None)
@given(machine=machines(), cap=st.integers(0, 40), data=st.data())
def test_results_under_any_cap_are_exact(machine, cap, data):
    """Under a cap a search either stops with the one LimitExceeded message
    or returns what it returns with the cap out of reach.  The message
    counts the cap's expansions, save where `enumerate_language` passes the
    cap in prefixes made first: then it counts fewer, and closing each
    prefix on its own passes the cap too."""
    word = data.draw(st.sampled_from(list(words(machine.input_alphabet, MAX_LEN))))
    searches = [
        (lambda budget: accepts(machine, word, budget), len(word), None),
        (lambda budget: enumerate_runs(machine, word, max_configs=budget), len(word), None),
        (
            lambda budget: enumerate_language(machine, MAX_LEN, budget),
            MAX_LEN,
            lambda budget: reference_enumerate_language(machine, MAX_LEN, budget),
        ),
    ]
    pattern = r"expanded (\d+) configurations, furthest input position (\d+) of (\d+)"
    for search, input_len, per_prefix in searches:
        try:
            exact = search(BUDGET)
        except LimitExceeded:
            reject()
        try:
            answer = search(cap)
        except LimitExceeded as exc:
            match = re.fullmatch(pattern, str(exc))
            assert match, str(exc)
            assert int(match[2]) <= int(match[3]) == input_len
            if int(match[1]) != cap:
                assert per_prefix is not None and int(match[1]) < cap, str(exc)
                with pytest.raises(LimitExceeded):
                    per_prefix(cap)
        else:
            assert answer == exact


@st.composite
def forward_machines(draw) -> Pda:
    """2-4 states, reads between any two states, and epsilon moves (push,
    pop or none) only from a lower- to a higher-numbered state: out of
    normal form, yet every search ends.  Stack operations take the bottom
    marker too, so a stack may be popped below its bottom and refilled."""
    count = draw(st.integers(2, 4))
    states = [f"s{i}" for i in range(count)]
    alphabet = draw(st.sampled_from([("a",), ("a", "b")]))
    symbols = ["A", "B"][: draw(st.integers(1, 2))]
    marked = ["$"] + symbols
    actions = st.one_of(
        st.just(StackAction.none()),
        st.sampled_from(marked).map(StackAction.push),
        st.sampled_from(marked).map(StackAction.pop),
    )
    reads = draw(
        st.lists(
            st.builds(
                Transition,
                st.sampled_from(states),
                st.sampled_from(alphabet),
                actions,
                st.sampled_from(states),
            ),
            min_size=1,
            max_size=8,
        )
    )
    forward = [(i, j) for i in range(count) for j in range(i + 1, count)]
    moves = draw(st.lists(st.tuples(st.sampled_from(forward), actions), max_size=5))
    epsilon = [Transition(states[i], None, action, states[j]) for (i, j), action in moves]
    return Pda(
        states=states,
        input_alphabet=alphabet,
        stack_alphabet=marked,
        transitions=list(dict.fromkeys(reads + epsilon)),
        start=states[0],
        bottom="$",
        accept=draw(st.sets(st.sampled_from(states), min_size=1)),
        acceptance_mode=draw(st.sampled_from(ACCEPTANCE_MODES)),
    )


# a read that pushes, then two chained epsilon pushes: three entries for
# one input symbol, deeper than 2|w|+1
TRIPLE_PUSH = Pda(
    states=["s0", "s1", "s2", "s3"],
    input_alphabet=["a"],
    stack_alphabet=["$", "A"],
    transitions=[
        Transition("s0", "a", StackAction.push("A"), "s1"),
        Transition("s1", None, StackAction.push("A"), "s2", auxiliary=True),
        Transition("s2", None, StackAction.push("A"), "s3", auxiliary=True),
    ],
    start="s0",
    bottom="$",
    accept=["s3"],
    acceptance_mode=FINAL_STATE,
)


@settings(max_examples=100, deadline=None)
@given(machine=forward_machines())
@example(machine=TRIPLE_PUSH)
def test_searches_agree_outside_normal_form(machine):
    """No stack depth is cut: on every word up to length 4 `accepts`,
    `enumerate_runs` and `enumerate_language` agree with each other and
    with the reference search, and every witness replays."""
    language = enumerate_language(machine, 4)
    for word in words(machine.input_alphabet, 4):
        ok, witness = accepts(machine, word)
        runs = enumerate_runs(machine, word)
        assert ok == (word in language) == bool(runs) == reference_accepts(machine, word), word
        if ok:
            replay(machine, witness, word)
            assert runs[0] == witness


def reference_live_depths(machine, input_len: int):
    """The live-depth table column by column: P(q, r) for every r up to
    `input_len`, each column from the one before, with no search for a
    repeat."""
    if machine.acceptance_mode != FINAL_STATE_BOTTOM_ONLY:
        return None
    if any(t.read is None and t.action.kind == POP for t in machine.transitions):
        return None
    reads = [
        (t.source, t.action.kind == POP, t.target)
        for t in machine.transitions
        if t.read is not None
    ]
    moves = [(t.source, t.target) for t in machine.transitions if t.read is None]
    pops = dict.fromkeys(machine.states, 0)
    columns = [pops]
    for _ in range(input_len):
        prev, pops = pops, dict.fromkeys(machine.states, 0)
        for source, popping, target in reads:
            pops[source] = max(pops[source], popping + prev[target])
        changed = True
        while changed:
            changed = False
            for source, target in moves:
                if pops[target] > pops[source]:
                    pops[source] = pops[target]
                    changed = True
        columns.append(pops)
    columns.reverse()
    return {q: [1 + column[q] for column in columns] for q in machine.states}


def bottom_only(transitions, states) -> Pda:
    return Pda(
        states=states,
        input_alphabet=["a"],
        stack_alphabet=["$", "A"],
        transitions=transitions,
        start=states[0],
        bottom="$",
        accept=[states[0]],
    )


def reading(source, action, target) -> Transition:
    return Transition(source, "a", action, target)


POP_A, NO_OP = StackAction.pop("A"), StackAction.none()

# s0 pops on every read and grows; s1 has no reads and stays at depth 1
STUCK_BESIDE_GROWING = bottom_only([reading("s0", POP_A, "s0")], ["s0", "s1"])
# s0 pops on every read, s1 and s2 on every other: their columns drift
# apart, so no column repeats and every one is computed
TWO_RATES = bottom_only(
    [
        reading("s0", POP_A, "s0"),
        reading("s1", POP_A, "s2"),
        reading("s2", NO_OP, "s1"),
    ],
    ["s0", "s1", "s2"],
)
# one pop every other read, as on the palindrome tracks: period 2, lift 1
PERIOD_TWO = bottom_only(
    [reading("s0", POP_A, "s1"), reading("s1", NO_OP, "s0")], ["s0", "s1"]
)
# s5 (long arc) and b4 (first-third counter) read on but reach no pop, so
# they stay at 1 while every other state grows by one per read
LONG_ARC = corpus.get("gap-refutation").machine("long-arc")
FIRST_THIRD = corpus.get("crossing-blocks").machine("first-third-counter")
# s0 pops once, into s1, which reaches no pop: its row goes 1, 2, 2, ...,
# so column 1 is column 0 shifted by one, yet no later column grows
ONE_POP = bottom_only([reading("s0", POP_A, "s1"), reading("s0", NO_OP, "s0")], ["s0", "s1"])


# a machine grows its tables to the longest length asked, so a length asked
# after a longer one is read from rows already grown
DESCENDING = list(range(40, -1, -1))


@settings(max_examples=100, deadline=None)
@given(machine=st.one_of(machines(), forward_machines()), order=st.permutations(range(41)))
@example(machine=STUCK_BESIDE_GROWING, order=DESCENDING)
@example(machine=TWO_RATES, order=DESCENDING)
@example(machine=PERIOD_TWO, order=DESCENDING)
@example(machine=corpus.get("interleaved-palindrome").machine("even-track"), order=DESCENDING)
@example(machine=LONG_ARC, order=DESCENDING)
@example(machine=FIRST_THIRD, order=DESCENDING)
@example(machine=ONE_POP, order=DESCENDING)
def test_live_depths_match_the_column_by_column_reference(machine, order):
    """However early the columns repeat, and in whatever order one machine
    is asked its lengths, the table is the one computed column by column,
    in both acceptance modes and at every length 0-40: at length n, the
    last n + 1 positions of the reference at 40."""
    for mode in ACCEPTANCE_MODES:
        moded = machine._replace(acceptance_mode=mode)
        reference = reference_live_depths(moded, 40)
        for input_len in order:
            expected = None
            if reference is not None:
                expected = {q: row[40 - input_len :] for q, row in reference.items()}
            assert moded.live_depths(input_len) == expected, (mode, input_len)


@pytest.mark.parametrize(
    "machine", [LONG_ARC, FIRST_THIRD, ONE_POP], ids=["long-arc", "first-third-counter", "one-pop"]
)
def test_live_rows_repeat_beside_states_that_reach_no_pop(machine):
    """The states that reach no pop are left out of the search for a
    repeat, so the rows of the others, 581 entries long, are filled from a
    period found within the first 10 columns: one that grows, or, when the
    others stop growing, a column equal to the one before."""
    machine = machine._replace()  # no rows grown yet
    machine.live_depths(580)
    no_pop, rows = machine._live_rows
    assert no_pop
    assert rows.period and rows.computed <= 10


def reference_floor_depths(machine, input_len: int):
    """The floor-depth table column by column: a state is pop-only when no
    state reachable from it, itself included, has a push transition, and
    M(q, r) is taken for every r up to `input_len`, each column from the
    one before, with no search for a repeat."""
    if machine.acceptance_mode != FINAL_STATE_BOTTOM_ONLY:
        return None
    if any(t.read is None and t.action.kind == POP for t in machine.transitions):
        return None
    after = {q: {t.target for t in machine.transitions if t.source == q} for q in machine.states}
    pushers = {t.source for t in machine.transitions if t.action.kind == PUSH}
    pop_only = set()
    for q in machine.states:
        reached, todo = {q}, [q]
        while todo:
            for nxt in after[todo.pop()] - reached:
                reached.add(nxt)
                todo.append(nxt)
        if not reached & pushers:
            pop_only.add(q)
    inf = float("inf")
    inner = [t for t in machine.transitions if t.source in pop_only]
    reads = [(t.source, t.action.kind == POP, t.target) for t in inner if t.read is not None]
    moves = [(t.source, t.target) for t in inner if t.read is None]

    def closed(pops):
        changed = True
        while changed:
            changed = False
            for source, target in moves:
                if pops[target] < pops[source]:
                    pops[source] = pops[target]
                    changed = True
        return pops

    pops = closed({q: 0 if q in machine.accept else inf for q in pop_only})
    columns = [pops]
    for _ in range(input_len):
        prev, pops = pops, dict.fromkeys(pop_only, inf)
        for source, popping, target in reads:
            pops[source] = min(pops[source], popping + prev[target])
        columns.append(closed(pops))
    columns.reverse()
    refilled = any(
        t.action.kind == PUSH and t.action.symbol == machine.bottom for t in machine.transitions
    )
    table = {q: [0 if refilled else 1] * (input_len + 1) for q in machine.states}
    table.update({q: [1 + column[q] for column in columns] for q in pop_only})
    return table


ODD_TRACK = corpus.get("interleaved-palindrome").machine("odd-track")
DOUBLER = corpus.get("double-push").machine("doubler")


@settings(max_examples=100, deadline=None)
@given(machine=st.one_of(machines(), forward_machines()), order=st.permutations(range(41)))
@example(machine=ODD_TRACK, order=DESCENDING)
@example(machine=DOUBLER, order=DESCENDING)
def test_floor_depths_match_the_column_by_column_reference(machine, order):
    """However early the columns repeat, and in whatever order one machine
    is asked its lengths, the floor table is the one computed column by
    column, in both acceptance modes and at every length 0-40."""
    for mode in ACCEPTANCE_MODES:
        moded = machine._replace(acceptance_mode=mode)
        for input_len in order:
            expected = reference_floor_depths(moded, input_len)
            assert moded.floor_depths(input_len) == expected, (mode, input_len)


@pytest.mark.parametrize("machine", [ODD_TRACK, TWO_RATES], ids=["odd-track", "two-rates"])
def test_tables_grown_from_threads_match_the_reference(machine):
    """Threads that ask one fresh machine for different lengths at once,
    switching between lines, each get the live and floor tables computed
    column by column: at length n, the last n + 1 positions of the
    reference at the longest length."""
    machine = machine._replace()  # no rows grown yet
    longest = 119
    lengths = list(range(longest + 1))
    random.Random(0).shuffle(lengths)
    got = [None] * 4
    barrier = threading.Barrier(len(got))

    def no_op(frame, event, arg):
        return no_op

    def ask(slot):
        # called on every line, a trace function lets the threads switch
        # in the middle of a growth
        sys.settrace(no_op)
        barrier.wait(timeout=60)
        got[slot] = [
            (n, machine.live_depths(n), machine.floor_depths(n)) for n in lengths[slot :: len(got)]
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(slot,)) for slot in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    live = reference_live_depths(machine, longest)
    floor = reference_floor_depths(machine, longest)
    for asked in got:
        for n, live_table, floor_table in asked:
            assert live_table == {q: row[longest - n :] for q, row in live.items()}, n
            assert floor_table == {q: row[longest - n :] for q, row in floor.items()}, n


def run_configurations(machine, run):
    """(state, input position, stack depth) of every configuration on the
    run, the initial one included."""
    config = Configuration(machine.start, 0, (machine.bottom,))
    out = [(config.state, config.input_pos, len(config.stack))]
    out.extend((s.transition.target, s.input_pos, s.stack_depth_after) for s in run.steps)
    return out


@settings(max_examples=60, deadline=None)
@given(machine=st.one_of(machines(), forward_machines()))
@example(machine=ODD_TRACK)
@example(machine=DOUBLER)
def test_accepting_runs_keep_within_floor_and_live_depths(machine):
    """Every configuration of every accepting run listed, on every word up
    to length 5 in both acceptance modes, has a stack no shallower than its
    floor depth and no deeper than its live depth."""
    try:
        for mode in ACCEPTANCE_MODES:
            moded = machine._replace(acceptance_mode=mode)
            for word in words(moded.input_alphabet, MAX_LEN):
                live = moded.live_depths(len(word))
                floor = moded.floor_depths(len(word))
                if live is None:
                    assert floor is None
                    continue
                for run in enumerate_runs(moded, word, cap=20, max_configs=BUDGET):
                    for state, pos, depth in run_configurations(moded, run):
                        assert floor[state][pos] <= depth <= live[state][pos], (mode, word)
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample


class Unfloored:
    """A machine that gives the engine no floor depths, so its one-word
    searches prune by live depth only; every other call goes to the
    machine."""

    def __init__(self, machine):
        self._machine = machine

    def __getattr__(self, attr):
        return getattr(self._machine, attr)

    def floor_depths(self, input_len: int) -> None:
        return None


@settings(max_examples=60, deadline=None)
@given(machine=st.one_of(machines(), forward_machines()))
@example(machine=ODD_TRACK)
@example(machine=DOUBLER)
def test_floor_depths_change_no_answer(machine):
    """Pruning by floor depth changes neither verdict nor witness of
    `accepts`, nor the first three runs `enumerate_runs` lists, on every
    word up to length 5 in both acceptance modes."""
    try:
        for mode in ACCEPTANCE_MODES:
            moded = machine._replace(acceptance_mode=mode)
            for word in words(moded.input_alphabet, MAX_LEN):
                for search in (
                    lambda m: accepts(m, word, BUDGET),
                    lambda m: enumerate_runs(m, word, cap=3, max_configs=BUDGET),
                ):
                    assert search(moded) == search(Unfloored(moded)), (mode, word)
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample


@st.composite
def products(draw):
    """The displacement or buffered product, at parameter 0 or 1, of two
    random machines."""
    make = draw(st.sampled_from([DisplacementProduct, BufferedProduct]))
    return make(draw(machines()), draw(machines()), draw(st.integers(0, 1)))


PALINDROME_PRODUCT = DisplacementProduct(*corpus.get("interleaved-palindrome").pair(), 1)
DOUBLER_PRODUCT = BufferedProduct(DOUBLER, DOUBLER, 1)


@settings(max_examples=200, deadline=None)
@given(
    machine=st.one_of(machines(), machines(pushes_both=True), forward_machines(), products()),
    max_len=st.integers(0, MAX_LEN),
)
@example(machine=PALINDROME_PRODUCT, max_len=10)
@example(machine=DOUBLER_PRODUCT, max_len=10)
def test_one_closure_per_configuration_set_gives_the_reference_language(machine, max_len):
    """Prefixes of one length that reach the same configurations share
    one closure, and the words accepted are those of the reference that
    closes the set of every prefix on its own."""
    try:
        expected = reference_enumerate_language(machine, max_len, BUDGET)
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample
    assert enumerate_language(machine, max_len, BUDGET) == expected
