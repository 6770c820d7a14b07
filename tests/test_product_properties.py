"""Property tests on random small normal-form machine pairs: the per-product
transition table answers as a fresh expansion would, every product accepts
only words both components accept, every accepting product run projects to
an accepting run of each component, and pruning by live depth changes no
answer a product gives."""

import itertools

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from islab import corpus
from islab.arcs import crossing_pairs, extract_matching
from islab.pda import (
    FINAL_STATE_BOTTOM_ONLY,
    LimitExceeded,
    _Value,
    accepts,
    enumerate_language,
    enumerate_runs,
)
from islab.products import (
    BufferedProduct,
    DisplacementProduct,
    component_runs,
    fragment_to_json,
    reachable_composite_states,
)

from helpers import BUDGET, machines

PRODUCTS = [DisplacementProduct, BufferedProduct]


def as_fields(value) -> tuple:
    """A transition, stack action or composite state as nested tuples of
    its fields: a fresh product's states are new objects, which compare by
    identity."""
    return tuple(
        as_fields(field) if isinstance(field, _Value) else field
        for field in (getattr(value, name) for name in value._fields)
    )


def control_states(product, limit: int = 200) -> list:
    """Composite states reachable in the control graph, breadth first."""
    start = product.start
    seen = {start: None}
    queue = [start]
    for state in queue:
        for t in product.transitions_from(state):
            if t.target not in seen and len(seen) < limit:
                seen[t.target] = None
                queue.append(t.target)
    return queue


@pytest.mark.parametrize("make", PRODUCTS)
@settings(max_examples=40, deadline=None)
@given(first=machines(), second=machines(), parameter=st.integers(0, 2))
def test_table_answers_as_a_fresh_expansion(make, first, second, parameter):
    product = make(first, second, parameter)
    for state in control_states(product):
        again = product.transitions_from(state)
        assert again is product.transitions_from(state)
        # a fresh product builds its own states: compare them field by field
        fresh = make(first, second, parameter).transitions_from(state)
        assert list(map(as_fields, again)) == list(map(as_fields, fresh))


@pytest.mark.parametrize("make", PRODUCTS)
@settings(max_examples=40, deadline=None)
@given(
    first=machines(),
    second=machines(),
    parameter=st.integers(0, 2),
    max_len=st.integers(0, 5),
)
def test_product_within_component_intersection(make, first, second, parameter, max_len):
    product = make(first, second, parameter)
    try:
        language = enumerate_language(product, max_len, BUDGET)
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample
    both = enumerate_language(first, max_len) & enumerate_language(second, max_len)
    assert language <= both


PALINDROME = corpus.get("interleaved-palindrome").pair()


@pytest.mark.parametrize("make", PRODUCTS)
@settings(max_examples=40, deadline=None)
@given(
    first=machines(pushes_both=True),
    second=machines(),
    parameter=st.integers(0, 2),
    max_len=st.integers(0, 5),
)
# at d = 2 the buffered product accepts 0010001, which odd-track rejects,
# if a machine may pop a stacked entry from under its own buffered one
@example(first=PALINDROME[0], second=PALINDROME[1], parameter=2, max_len=8)
def test_product_runs_replay_on_both_components(make, first, second, parameter, max_len):
    product = make(first, second, parameter)
    try:
        words = enumerate_language(product, max_len, BUDGET)
        runs = [
            (word, run)
            for word in words
            for run in enumerate_runs(product, word, cap=3, max_configs=BUDGET)
        ]
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample
    for word, run in runs:
        first_run, second_run = component_runs(product, run)
        if make is BufferedProduct:
            # two stacked arcs cannot cross: one of them is short
            m1 = extract_matching(first_run, word, 1)
            m2 = extract_matching(second_run, word, 2)
            for crossing in crossing_pairs(m1, m2):
                arcs = (crossing.pair.first, crossing.pair.second)
                assert min(a.pop_pos - a.push_pos for a in arcs) <= 2 * parameter


class Unpruned:
    """A product that gives the engine no live depths, so its searches
    prune nothing by depth; every other call goes to the product."""

    def __init__(self, product):
        self._product = product

    def __getattr__(self, attr):
        return getattr(self._product, attr)

    def live_depths(self, input_len: int) -> None:
        return None


def answers(product, max_len: int) -> list:
    """Everything the searches tell about `product` up to max_len: its
    language, each word's verdict with its witness and first three runs,
    the counting views and the fragment (or why it cannot be exported)."""
    out = [enumerate_language(product, max_len, BUDGET)]
    alphabet = sorted(product.input_alphabet)
    for length in range(max_len + 1):
        for word in map("".join, itertools.product(alphabet, repeat=length)):
            out.append((word, accepts(product, word, BUDGET)))
            out.append((word, enumerate_runs(product, word, cap=3, max_configs=BUDGET)))
    out.append(reachable_composite_states(product, max_len, BUDGET))
    try:
        out.append(fragment_to_json(product, max_len, BUDGET))
    except ValueError as refusal:  # mixed acceptance modes
        out.append(str(refusal))
    return out


# Only pairs that both accept on their bottom only have live depths: for
# the others the engine prunes nothing, with or without the proxy.
BOTTOM_ONLY = (FINAL_STATE_BOTTOM_ONLY,)
COUNTER = corpus.get("counter").machine("counter")


@pytest.mark.parametrize("make", PRODUCTS)
@settings(max_examples=40, deadline=None)
@given(
    first=machines(BOTTOM_ONLY),
    second=machines(BOTTOM_ONLY),
    parameter=st.integers(0, 2),
    max_len=st.integers(0, 5),
)
# the last read of "ab" queues a pop per machine over a stack three deep
@example(first=COUNTER, second=COUNTER, parameter=0, max_len=2)
def test_live_depths_change_no_answer(make, first, second, parameter, max_len):
    # one product, so both searches build runs on the same state objects
    product = make(first, second, parameter)
    try:
        pruned = answers(product, max_len)
        unpruned = answers(Unpruned(product), max_len)
    except LimitExceeded:
        reject()  # inconclusive within the budget; not a counterexample
    assert pruned == unpruned
