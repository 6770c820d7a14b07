"""Property tests on random small normal-form machines: the engine's
searches agree with each other and with a reference search that shares no
engine code on every word up to length 5, every witness run replays step
by step to its final configuration, and what a search returns under a cap
is exact."""

import re
from dataclasses import replace
from itertools import product

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from islab.pda import (
    ACCEPTANCE_MODES,
    FINAL_STATE_BOTTOM_ONLY,
    POP,
    PUSH,
    Configuration,
    LimitExceeded,
    SearchLimits,
    accepts,
    enumerate_language,
    enumerate_runs,
    step,
)
from test_product_properties import BUDGET, machines

MAX_LEN = 5


def words(alphabet, max_len: int):
    for length in range(max_len + 1):
        for letters in product(sorted(alphabet), repeat=length):
            yield "".join(letters)


def reference_accepts(machine, word: str) -> bool:
    """Breadth-first over (state, position, stack) with the stack a plain
    tuple and pushes capped at the static depth 2|w|+1; uses neither the
    engine's search nor `step`."""
    n = len(word)
    cap = 2 * n + 1
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
                if len(stack) >= cap:
                    continue
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
    """Follow the run's transitions through `step`, applying each stack
    operation to a plain tuple, and land on the run's final configuration."""
    config = machine.initial_config()
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
        assert nxt in step(machine, config, word)
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
            runs = enumerate_runs(machine, word, limits=BUDGET)
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
def test_accepts_matches_reference_and_lists_first_run(machine):
    """In both acceptance modes `accepts` agrees with the reference search,
    and its witness is the first run `enumerate_runs` lists."""
    try:
        for mode in ACCEPTANCE_MODES:
            moded = replace(machine, acceptance_mode=mode)
            for word in words(moded.input_alphabet, MAX_LEN):
                ok, witness = accepts(moded, word, BUDGET)
                assert ok == reference_accepts(moded, word), (mode, word)
                first = enumerate_runs(moded, word, cap=1, limits=BUDGET)
                assert first == ([witness] if ok else []), (mode, word)
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample


@settings(max_examples=150, deadline=None)
@given(machine=machines(), cap=st.integers(0, 40), data=st.data())
def test_results_under_any_cap_are_exact(machine, cap, data):
    """Under a cap a search either stops with the one LimitExceeded message
    or returns what it returns with the cap out of reach."""
    word = data.draw(st.sampled_from(list(words(machine.input_alphabet, MAX_LEN))))
    searches = [
        (lambda limits: accepts(machine, word, limits), len(word)),
        (lambda limits: enumerate_runs(machine, word, limits=limits), len(word)),
        (lambda limits: enumerate_language(machine, MAX_LEN, limits), MAX_LEN),
    ]
    pattern = rf"expanded {cap} configurations, furthest input position (\d+) of (\d+)"
    for search, input_len in searches:
        try:
            exact = search(BUDGET)
        except LimitExceeded:
            reject()
        try:
            answer = search(SearchLimits(max_configs=cap))
        except LimitExceeded as exc:
            match = re.fullmatch(pattern, str(exc))
            assert match, str(exc)
            assert int(match[1]) <= int(match[2]) == input_len
        else:
            assert answer == exact
