"""Property tests on random small normal-form machines: the engine's
searches agree with each other on every word up to length 5, every
witness run replays step by step to its final configuration, and what a
search returns under a cap is exact."""

import re
from itertools import product

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from islab.pda import (
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
