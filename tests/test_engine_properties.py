"""Property tests on random small normal-form machines: the engine's
searches agree with each other on every word up to length 5, and every
witness run replays step by step to its final configuration."""

from itertools import product

from hypothesis import given, reject, settings

from islab.pda import (
    FINAL_STATE_BOTTOM_ONLY,
    POP,
    PUSH,
    Configuration,
    LimitExceeded,
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
