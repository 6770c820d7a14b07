import gc
import itertools
import math
import re
import subprocess
import sys
import threading
import weakref
from functools import partial
from pathlib import Path

import pytest

import islab
from islab import corpus
from islab.arcs import UnbalancedRun, crossing_pairs, extract_matching
from islab.pda import (
    FINAL_STATE,
    FINAL_STATE_BOTTOM_ONLY,
    POP,
    PUSH,
    Pda,
    StackAction,
    Transition,
    accepts,
    enumerate_language,
    enumerate_runs,
    pda_from_json,
)
from islab.products import (
    BUFFERED,
    DISPLACEMENT,
    BufferedProduct,
    BufferedState,
    DisplacedState,
    DisplacementProduct,
    component_runs,
    fragment_to_json,
    reachable_composite_states,
    state_bound,
)

from helpers import epsilon_counter, words


def palindrome_pair():
    bundle = corpus.get("interleaved-palindrome")
    return bundle.machine("odd-track"), bundle.machine("even-track")


def refutation_pair():
    bundle = corpus.get("gap-refutation")
    return bundle.machine("short-arc"), bundle.machine("long-arc")


def crossing_counters():
    bundle = corpus.get("crossing-blocks")
    return bundle.machine("first-third-counter"), bundle.machine("second-fourth-counter")


def final_state_copy(machine):
    return machine._replace(acceptance_mode=FINAL_STATE)


def abcdef_machine(ops: dict, acceptance_mode: str) -> Pda:
    """Accepts abcdef alone, doing the stack operation ops[letter] on each
    letter in ops and none on the others."""
    return Pda(
        states=range(7),
        input_alphabet=set("abcdef"),
        stack_alphabet={"$"} | {action.symbol for action in ops.values()},
        transitions=[
            Transition(pos, letter, ops.get(letter, StackAction.none()), pos + 1)
            for pos, letter in enumerate("abcdef")
        ],
        start=0,
        bottom="$",
        accept={6},
        acceptance_mode=acceptance_mode,
    )


def lifting_pair(acceptance_mode=FINAL_STATE_BOTTOM_ONLY):
    """Machine 1 pushes A on a and pops it on d; machine 2 pushes B on b and
    C on c, and pops C on e and B on f.  So machine 1's pop at d must lift
    C, then B, off the shared stack, and put B back first."""
    first = abcdef_machine(
        {"a": StackAction.push("A"), "d": StackAction.pop("A")}, acceptance_mode
    )
    second = abcdef_machine(
        {
            "b": StackAction.push("B"),
            "c": StackAction.push("C"),
            "e": StackAction.pop("C"),
            "f": StackAction.pop("B"),
        },
        acceptance_mode,
    )
    return first, second


def doctored(run, index: int, read: str, change):
    """`run` with its index-th reading step made to read `read` and to owe
    the stack operations `change(queue)` in place of its queue."""
    steps = list(run.steps)
    at = [i for i, s in enumerate(steps) if s.transition.read is not None][index]
    t = steps[at].transition
    t = t._replace(read=read, target=t.target._replace(queue=change(t.target.queue)))
    steps[at] = steps[at]._replace(transition=t)
    return run._replace(steps=tuple(steps))


def both_projections_palindromic(word: str) -> bool:
    odd, even = word[0::2], word[1::2]
    return odd == odd[::-1] and even == even[::-1]





class TestDisplacementCompleteness:
    def test_palindrome_pair_k1_exact_up_to_8(self):
        product = DisplacementProduct(*palindrome_pair(), k=1)
        expected = {w for w in words("01", 8) if both_projections_palindromic(w)}
        assert enumerate_language(product, 8) == expected

    def test_refutation_pair_k1_exact_up_to_10(self):
        product = DisplacementProduct(*refutation_pair(), k=1)
        expected = {
            "aba" + "d" * n + "e" * n + "f" + "g" * m + "h" * m
            for n in range(4)
            for m in range(4)
        }
        expected = {w for w in expected if len(w) <= 10}
        assert enumerate_language(product, 10) == expected

    def test_displacement_stays_within_2k(self):
        product = DisplacementProduct(*palindrome_pair(), k=1)
        for word in ("0000", "001100", "00111100"):
            runs = enumerate_runs(product, word, cap=5)
            assert runs
            for run in runs:
                assert max(len(s.transition.target.displaced) for s in run.steps) <= 2

    def test_k0_handles_disjoint_stack_regions(self):
        # first machine matches a^n b^n then skims, second skims then
        # matches c^m d^m; their arcs never interleave on the stack
        first = Pda(
            states={"s1", "s2", "s3"},
            input_alphabet={"a", "b", "c", "d"},
            stack_alphabet={"$", "A"},
            transitions=[
                Transition("s1", "a", StackAction.push("A"), "s1"),
                Transition("s1", "b", StackAction.pop("A"), "s2"),
                Transition("s2", "b", StackAction.pop("A"), "s2"),
                Transition("s1", "c", StackAction.none(), "s3"),
                Transition("s1", "d", StackAction.none(), "s3"),
                Transition("s2", "c", StackAction.none(), "s3"),
                Transition("s2", "d", StackAction.none(), "s3"),
                Transition("s3", "c", StackAction.none(), "s3"),
                Transition("s3", "d", StackAction.none(), "s3"),
            ],
            start="s1",
            bottom="$",
            accept={"s1", "s2", "s3"},
        )
        second = Pda(
            states={"u1", "u2", "u3"},
            input_alphabet={"a", "b", "c", "d"},
            stack_alphabet={"$", "C"},
            transitions=[
                Transition("u1", "a", StackAction.none(), "u1"),
                Transition("u1", "b", StackAction.none(), "u1"),
                Transition("u1", "c", StackAction.push("C"), "u2"),
                Transition("u2", "c", StackAction.push("C"), "u2"),
                Transition("u2", "d", StackAction.pop("C"), "u3"),
                Transition("u3", "d", StackAction.pop("C"), "u3"),
            ],
            start="u1",
            bottom="$",
            accept={"u1", "u3"},
        )
        product = DisplacementProduct(first, second, 0)
        expected = {
            "a" * n + "b" * n + "c" * m + "d" * m
            for n in range(5)
            for m in range(5)
            if 2 * n + 2 * m <= 8
        }
        assert enumerate_language(product, 8) == expected
        for run in enumerate_runs(product, "aabbccdd", cap=5):
            assert max(len(s.transition.target.displaced) for s in run.steps) == 0


class TestDisplacementIncompleteness:
    def test_k1_rejects_triple_blocks_components_accept(self):
        m1, m2 = crossing_counters()
        word = "aaabbbcccddd"
        assert accepts(m1, word)[0] and accepts(m2, word)[0]
        assert not accepts(DisplacementProduct(m1, m2, 1), word)[0]

    def test_k2_recovers_triple_blocks(self):
        m1, m2 = crossing_counters()
        assert accepts(DisplacementProduct(m1, m2, 2), "aaabbbcccddd")[0]

    def test_k0_rejects_gap_one_crossing(self):
        product = DisplacementProduct(*palindrome_pair(), k=0)
        assert not accepts(product, "0000")[0]


class TestDisplacementBookkeeping:
    def test_lift_and_restore_are_lifo(self):
        """Pops that grow the held set must have popped exactly the new
        entry; the successful own pop must queue the held entries back as
        pushes in reverse order before clearing the holding area."""
        product = DisplacementProduct(*crossing_counters(), k=1)
        runs = enumerate_runs(product, "aabbccdd", cap=10)
        assert runs
        saw_lift = saw_restore = False
        for run in runs:
            lifted = restored = 0
            for s in run.steps:
                t = s.transition
                if not isinstance(t.source, DisplacedState):
                    continue
                before, after = t.source.displaced, t.target.displaced
                if len(after) == len(before) + 1:
                    assert t.action.kind == POP
                    assert after[:-1] == before
                    assert after[-1] == t.action.symbol
                    lifted += 1
                    saw_lift = True
                elif before and not after:
                    assert t.action.kind == POP
                    expected_head = tuple((PUSH, o, s2) for o, s2 in reversed(before))
                    assert t.target.queue[: len(before)] == expected_head
                    restored += len(before)
                    saw_restore = True
                else:
                    assert after == before
            assert lifted == restored
        assert saw_lift and saw_restore


    def test_lifted_entries_go_back_in_stack_order(self):
        first, second = lifting_pair()
        product = DisplacementProduct(first, second, k=1)
        assert enumerate_language(product, 6) == {"abcdef"}
        assert enumerate_language(DisplacementProduct(first, second, k=0), 6) == set()
        (run,) = enumerate_runs(product, "abcdef", cap=2)
        arcs = [
            [a.positions() for a in extract_matching(component, "abcdef", owner).arcs]
            for owner, component in enumerate(component_runs(product, run), 1)
        ]
        assert arcs == [[(1, 4)], [(2, 6), (3, 5)]]


def unknown_operation(run):
    return doctored(run, 0, "a", lambda queue: queue + ((PUSH, 2, "Z"),))


def wrong_symbol(run):
    # machine 2 pops 0 at position 4; read 1 there, and pop 1 instead
    return doctored(
        run, 3, "1", lambda queue: tuple((op, o, "1" if o == 2 else s) for op, o, s in queue)
    )


def cut_before_last_read(run):
    last = max(i for i, s in enumerate(run.steps) if s.transition.read is not None)
    return run._replace(steps=run.steps[:last])


class TestComponentRuns:
    @pytest.mark.parametrize(
        "pair, word, doctor, message",
        [
            (lifting_pair, "abcdef", unknown_operation, "machine 2 has no move at position 1"),
            (
                palindrome_pair,
                "0000",
                wrong_symbol,
                "machine 2 cannot e1 --1/pop 1--> o2 at position 4",
            ),
            # under acceptance by final state the search keeps no live
            # depths, so the cut run replays to its end and the final check
            # refuses it
            (
                partial(lifting_pair, FINAL_STATE),
                "abcdef",
                cut_before_last_read,
                "machine 1 does not accept at position 5",
            ),
        ],
        ids=["unknown-operation", "wrong-symbol", "cut-final-state"],
    )
    def test_doctored_runs_refused(self, pair, word, doctor, message):
        product = DisplacementProduct(*pair(), k=1)
        (run,) = enumerate_runs(product, word, cap=1)
        component_runs(product, run)
        with pytest.raises(UnbalancedRun, match=f"^{re.escape(message)}$"):
            component_runs(product, doctor(run))


class TestBufferedCompleteness:
    def test_refutation_pair_d1_exact_up_to_10(self):
        product = BufferedProduct(*refutation_pair(), d=1)
        expected = {
            "aba" + "d" * n + "e" * n + "f" + "g" * m + "h" * m
            for n in range(4)
            for m in range(4)
        }
        expected = {w for w in expected if len(w) <= 10}
        assert enumerate_language(product, 10) == expected

    def test_buffer_bounds_respected(self):
        product = BufferedProduct(*refutation_pair(), d=1)
        for word in ("abaf", "abadef", "abaddeefgh"):
            runs = enumerate_runs(product, word, cap=20)
            assert runs
            for run in runs:
                assert max(len(s.transition.target.buffer) for s in run.steps) <= 8

    def test_arc_reconstruction_matches_overlay(self):
        """Push and pop positions per owner are forced, and so is their
        pairing, since each owner keeps its own stack order; every crossing
        has a short arc, closed within 2d positions."""
        product = BufferedProduct(*refutation_pair(), d=1)
        word = "abaddeefgh"
        canonical = {
            (1, 1, 3),
            (1, 9, 10),
            (2, 2, 8),
            (2, 4, 7),
            (2, 5, 6),
        }
        runs = enumerate_runs(product, word, cap=20)
        assert runs
        for run in runs:
            m1, m2 = (
                extract_matching(component, word, owner)
                for owner, component in enumerate(component_runs(product, run), 1)
            )
            assert {(a.owner, a.push_pos, a.pop_pos) for a in m1.arcs + m2.arcs} == canonical
            crossings = crossing_pairs(m1, m2)
            assert crossings
            for c in crossings:
                assert min(c.pair.j - c.pair.i, c.pair.j_prime - c.pair.i_prime) <= 2

    def test_d0_still_covers_crossing_free_words(self):
        product = BufferedProduct(*palindrome_pair(), d=0)
        assert accepts(product, "00")[0]
        assert accepts(product, "")[0]


class TestBufferedIncompleteness:
    def test_d1_misses_growing_inner_palindrome(self):
        product = BufferedProduct(*palindrome_pair(), d=1)
        odd, even = palindrome_pair()
        assert accepts(odd, "000000")[0] and accepts(even, "000000")[0]
        assert not accepts(product, "000000")[0]

    def test_threshold_on_double_blocks(self):
        m1, m2 = crossing_counters()
        word = "aabbccdd"
        assert not accepts(BufferedProduct(m1, m2, 2), word)[0]
        assert accepts(BufferedProduct(m1, m2, 3), word)[0]

    def test_d0_rejects_gap_one_crossing(self):
        assert not accepts(BufferedProduct(*palindrome_pair(), d=0), "0000")[0]


class TestNormalFormRequired:
    def test_machines_outside_normal_form_refused(self):
        machine = epsilon_counter()
        assert enumerate_language(machine, 4) == {"", "ab", "aabb"}
        counter = corpus.get("counter").machine("counter")
        for make in (DisplacementProduct, BufferedProduct):
            for first, second, owner in ((machine, machine, 1), (counter, machine, 2)):
                with pytest.raises(ValueError) as info:
                    make(first, second, 1)
                message = str(info.value)
                assert message.startswith(f"machine {owner} is not in normal form: ")
                assert "non-auxiliary transition reads no input symbol" in message


class TestSoundness:
    def pairs(self):
        # length 8 reaches words such as 0010001, which odd-track rejects
        # and which the buffered product at d = 2 accepts if a machine may
        # pop a stacked entry from under one of its own buffered entries
        yield palindrome_pair(), both_projections_palindromic, 8
        m1, m2 = refutation_pair()
        yield (m1, m2), lambda w: accepts(m1, w)[0] and accepts(m2, w)[0], 6

    def test_products_never_overshoot_component_intersection(self):
        for (m1, m2), oracle, max_len in self.pairs():
            for product in (
                DisplacementProduct(m1, m2, 0),
                DisplacementProduct(m1, m2, 1),
                BufferedProduct(m1, m2, 0),
                BufferedProduct(m1, m2, 1),
                BufferedProduct(m1, m2, 2),
                BufferedProduct(m1, m2, 3),
            ):
                for word in enumerate_language(product, max_len):
                    assert oracle(word), (product.kind, product.parameter, word)


class TestLiveDepths:
    def test_none_when_a_component_accepts_in_any_final_state(self):
        counter = corpus.get("counter").machine("counter")
        loose = final_state_copy(counter)
        for make in (DisplacementProduct, BufferedProduct):
            for first, second in ((loose, counter), (counter, loose), (loose, loose)):
                assert make(first, second, 1).live_depths(4) is None
            assert make(counter, counter, 1).live_depths(4) is not None

    def test_row_composes_component_tables_and_queued_pops(self):
        first, second = palindrome_pair()
        live = DisplacementProduct(first, second, 1).live_depths(6)
        t1, t2 = first.live_depths(6), second.live_depths(6)
        q1, q2 = sorted(first.states)[0], sorted(second.states)[0]
        queue = ((POP, 1, "A"), (PUSH, 2, "B"), (POP, 2, "B"))
        state = DisplacedState(q1, q2, queue, ((2, "B"),))
        assert live[state] == [a + b + 1 for a, b in zip(t1[q1], t2[q2])]
        assert live[state] is live[state]  # filled once, on first lookup


def refreshed(state):
    """The fields of `state`, each tuple rebuilt as an equal new object."""
    return [
        tuple(list(value)) if isinstance(value, tuple) else value
        for value in (getattr(state, name) for name in state._fields)
    ]


class TestCanonicalStates:
    def explored(self):
        for make in (DisplacementProduct, BufferedProduct):
            product = make(*palindrome_pair(), 1)
            enumerate_language(product, 6)
            yield product

    def test_equal_fields_give_one_object(self):
        product = DisplacementProduct(*palindrome_pair(), k=1)
        queue = ((PUSH, 1, "A"), (POP, 2, "B"))
        state = product._state(DisplacedState("p", "q", queue, ((2, "B"),)))
        assert product._state(DisplacedState(*refreshed(state))) is state
        assert product._state(state) is state
        shorter = product._state(DisplacedState("p", "q", queue[:1], ((2, "B"),)))
        assert product._state(state, queue=queue[:1]) is shorter
        assert product._state(DisplacedState("p", "q")) is product._state(
            DisplacedState("p", "q", (), ())
        )
        assert product._state(DisplacedState("p", "q")) != product._state(DisplacedState("q", "p"))
        buffered = BufferedProduct(*palindrome_pair(), d=1)
        held = buffered._state(BufferedState("p", "q", (), (("1", "A", 2),), True))
        assert buffered._state(BufferedState(*refreshed(held))) is held
        opened = buffered._state(BufferedState("p", "q", buffer=(("1", "A", 2),)))
        assert buffered._state(held, closing=False) is opened
        # each product holds its own states
        other = DisplacementProduct(*palindrome_pair(), k=1)
        assert other._state(state) is other._state(DisplacedState(*refreshed(state)))
        assert other._state(state) != state

    def test_table_targets_are_canonical(self):
        for product in self.explored():
            assert product._table
            start = product.start
            reached = {start}
            for source, transitions in product._table.items():
                assert product._state(source) is source
                for t in transitions:
                    assert t.source is source
                    assert product._state(type(t.target)(*refreshed(t.target))) is t.target
                    reached.add(t.target)
            # the product holds no state that no transition reaches
            assert set(product._states.values()) == reached

    def test_states_die_with_their_product(self):
        product = DisplacementProduct(*palindrome_pair(), k=1)
        enumerate_language(product, 6)
        refs = [weakref.ref(state) for state in product._states.values()]
        assert len(refs) >= len(product._table)
        del product
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_equal_states_built_from_threads_are_one_object(self):
        product = DisplacementProduct(*palindrome_pair(), k=1)
        keys = [("p", n, ((PUSH, 1, "A"),) * (n % 3), ()) for n in range(3000)]
        built = [None] * 4
        barrier = threading.Barrier(len(built))

        def no_op(frame, event, arg):
            return no_op

        def build(slot):
            # called on every line, a trace function lets the threads
            # switch between the lookup that misses and the store
            sys.settrace(no_op)
            barrier.wait(timeout=60)
            built[slot] = [product._state(DisplacedState(*key)) for key in keys]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(slot,)) for slot in range(len(built))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert None not in built
        for states in zip(*built):
            assert all(state is states[0] for state in states)


class TestStateBound:
    def test_displacement_example(self):
        assert state_bound(DISPLACEMENT, 2, 2, 1, 1, 1) == 36

    def test_buffered_example(self):
        assert state_bound(BUFFERED, 1, 1, 1, 1, 1) == 390625

    def test_parameter_zero_collapses_to_control_product(self):
        assert state_bound(DISPLACEMENT, 3, 5, 2, 2, 0) == 15
        assert state_bound(BUFFERED, 3, 5, 2, 2, 0) == 15

    def test_validation(self):
        with pytest.raises(ValueError, match="q1"):
            state_bound(DISPLACEMENT, 0, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="g2"):
            state_bound(DISPLACEMENT, 1, 1, 1, -1, 1)
        with pytest.raises(ValueError, match="kind"):
            state_bound("zipper", 1, 1, 1, 1, 1)

    def test_exponent_guard(self):
        with pytest.raises(ValueError, match="too large"):
            state_bound(DISPLACEMENT, 1, 1, 1, 1, 5001)
        with pytest.raises(ValueError, match="too large"):
            state_bound(BUFFERED, 1, 1, 1, 1, 1251)
        # just inside the guard still evaluates exactly
        assert state_bound(DISPLACEMENT, 1, 1, 0, 0, 5000) == 1

    def test_negative_parameter_rejected_by_constructors(self):
        odd, even = palindrome_pair()
        with pytest.raises(ValueError):
            DisplacementProduct(odd, even, -1)
        with pytest.raises(ValueError):
            BufferedProduct(odd, even, -1)


def product_bound(product) -> int:
    """`state_bound` for a product's kind, components and parameter."""
    first, second = product.first, product.second
    return state_bound(
        product.kind,
        len(first.states),
        len(second.states),
        len(first.stack_alphabet - {first.bottom}),
        len(second.stack_alphabet - {second.bottom}),
        product.parameter,
    )


class TestReachableStates:
    def test_displacement_reachable_within_bound(self):
        product = DisplacementProduct(*palindrome_pair(), k=1)
        reached = reachable_composite_states(product, 6)
        assert 0 < len(reached) <= product_bound(product)

    def test_buffered_reachable_within_bound(self):
        product = BufferedProduct(*refutation_pair(), d=1)
        reached = reachable_composite_states(product, 8)
        assert 0 < len(reached) <= product_bound(product)
        # sync-only projections: buffer entries, no queue leakage
        for q1, q2, buffer in reached:
            assert len(buffer) <= 8

    def test_transition_less_components_reach_one_state(self):
        trivial = Pda(
            states={"z"},
            input_alphabet={"a"},
            stack_alphabet={"$"},
            transitions=[],
            start="z",
            bottom="$",
            accept={"z"},
        )
        product = DisplacementProduct(trivial, trivial, 3)
        assert reachable_composite_states(product, 5) == {("z", "z", ())}

    def test_walk_stops_once_no_state_is_left(self):
        # the control graph of this product is 5 reads deep, so a walk that
        # kept going through every length up to the bound would never end:
        # run it in a child process, where a timeout fails instead of hanging
        script = (
            "from islab import corpus\n"
            "from islab.products import DisplacementProduct, reachable_composite_states\n"
            "product = DisplacementProduct(*corpus.get('gap-refutation').pair(), 1)\n"
            "assert reachable_composite_states(product, 10**12)"
            " == reachable_composite_states(product, 6)\n"
        )
        src = str(Path(islab.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r})\n{script}"],
            timeout=20,
            check=True,
        )

    def test_budget_enforced(self):
        from islab.pda import LimitExceeded

        product = DisplacementProduct(*palindrome_pair(), k=1)
        searches = (
            reachable_composite_states,
            fragment_to_json,
            lambda product, n, budget: accepts(product, "0" * n, budget),
            enumerate_language,
        )
        for explore in searches:
            with pytest.raises(LimitExceeded) as info:
                explore(product, 8, 10)
            message = str(info.value)
            assert "expanded 10 configurations" in message
            assert re.search(r"furthest input position [1-8] of 8", message)

    @pytest.mark.parametrize(
        "explore", [reachable_composite_states, fragment_to_json, enumerate_language]
    )
    def test_negative_bound_refused(self, explore):
        product = DisplacementProduct(*palindrome_pair(), k=1)
        message = "length bound must be nonnegative, got -1"
        with pytest.raises(ValueError, match=re.escape(message)):
            explore(product, -1)


def fewest_reads(machine, ends, backward=False) -> dict:
    """The fewest reads over the control graph of `machine` from any state
    of `ends` (to one, if `backward`) to each state that has such a path,
    by relaxing every transition until none changes."""
    reads = dict.fromkeys(ends, 0)
    changed = True
    while changed:
        changed = False
        for t in machine.transitions:
            near, far = (t.target, t.source) if backward else (t.source, t.target)
            if near in reads and reads[near] + (t.read is not None) < reads.get(far, math.inf):
                reads[far] = reads[near] + (t.read is not None)
                changed = True
    return reads


class TestFragmentExport:
    def test_shape_and_metadata(self):
        product = DisplacementProduct(*palindrome_pair(), k=1)
        frag = fragment_to_json(product, 4)
        assert frag["format"] == "pda-v1"
        assert frag["product"] == {
            "kind": "displacement",
            "parameter": 1,
            "explored_input_length": 4,
        }
        assert len(frag["states"]) == 96
        labels = frag["composite_state_labels"]
        assert set(labels) == set(frag["states"])
        assert all(label.startswith("c") for label in labels)

    def test_fragment_reloads_and_matches_product(self):
        final_state_pair = [final_state_copy(m) for m in palindrome_pair()]
        # a fragment pushes up to four entries per position, beyond the
        # 2|w|+1 a normal-form machine needs: its runs must still all count
        doubler = final_state_copy(corpus.get("double-push").machine("doubler"))
        # a buffered state may still hold short pushes: the reloaded
        # fragment must not accept there, on any two-machine bundle
        buffered = [
            BufferedProduct(*bundle.machines.values(), d=d)
            for bundle in map(corpus.get, corpus.list_bundles())
            if len(bundle.machines) == 2
            for d in (1, 2)
        ]
        assert len(buffered) == 12
        doubled = BufferedProduct(doubler, doubler, d=1)
        for product in [
            DisplacementProduct(*palindrome_pair(), k=1),
            BufferedProduct(*refutation_pair(), d=1),
            DisplacementProduct(*final_state_pair, k=1),
            BufferedProduct(*final_state_pair, d=1),
            DisplacementProduct(doubler, doubler, k=1),
            doubled,
        ] + buffered:
            frag = fragment_to_json(product, 4)
            loaded = pda_from_json(frag)
            # trimmed: every state lies on a path from the start to an
            # accepting state of at most 4 reads, within the fragment
            to = fewest_reads(loaded, [loaded.start])
            back = fewest_reads(loaded, loaded.accept, backward=True)
            assert all(to.get(s, math.inf) + back.get(s, math.inf) <= 4 for s in loaded.states)
            if product is doubled:
                # its control graph within 4 reads: 1 878 states, 2 001
                # transitions; an owner with a buffered push buffers the
                # pushes after it, so no long push follows a short one
                assert (len(frag["states"]), len(frag["transitions"])) == (304, 344)
            assert enumerate_language(loaded, 4) == enumerate_language(product, 4)
            for length in range(5):
                for letters in itertools.product(sorted(product.input_alphabet), repeat=length):
                    word = "".join(letters)
                    assert accepts(loaded, word)[0] == accepts(product, word)[0], word

    def test_lifts_bounded_by_the_entries_max_len_reads_push(self):
        # two reads push at most 8 entries, so no gap bound past 4 lifts more
        products = [DisplacementProduct(*palindrome_pair(), k=k) for k in (4, 100_000)]
        fragments = [fragment_to_json(product, 2) for product in products]
        for frag in fragments:
            del frag["product"]["parameter"]
        assert fragments[0] == fragments[1]
        reached = [reachable_composite_states(product, 2) for product in products]
        assert reached[0] == reached[1]

    def test_product_that_accepts_nothing_exports_its_start(self):
        # both machines count a's mod 2 in step, but accept on opposite
        # parities, so no composite state accepts
        odd = Pda(
            states={"p0", "p1"},
            input_alphabet={"a"},
            stack_alphabet={"$"},
            transitions=[
                Transition("p0", "a", StackAction.none(), "p1"),
                Transition("p1", "a", StackAction.none(), "p0"),
            ],
            start="p0",
            bottom="$",
            accept={"p1"},
        )
        even = odd._replace(accept={"p0"})
        for product in (DisplacementProduct(odd, even, 1), BufferedProduct(odd, even, 1)):
            frag = fragment_to_json(product, 4)
            assert (frag["states"], frag["transitions"], frag["accept"]) == (["c0"], [], [])
            assert enumerate_language(pda_from_json(frag), 4) == set()

    def test_mixed_acceptance_modes_refused(self):
        # such a product requires only one owner's entries to drain (here it
        # accepts '', ab, aabb up to length 4): no single pda-v1 mode says that
        counter = corpus.get("counter").machine("counter")
        for product in (
            DisplacementProduct(counter, final_state_copy(counter), 1),
            BufferedProduct(final_state_copy(counter), counter, 1),
        ):
            with pytest.raises(ValueError) as info:
                fragment_to_json(product, 4)
            message = str(info.value)
            assert "FinalStateAndBottomOnly" in message
            assert re.search(r"\bFinalState\b", message)

    def test_deterministic_output(self):
        product = BufferedProduct(*refutation_pair(), d=1)
        import json

        a = json.dumps(fragment_to_json(product, 4), sort_keys=True)
        b = json.dumps(fragment_to_json(product, 4), sort_keys=True)
        assert a == b
