import itertools
import re
from dataclasses import replace

import pytest

from islab import corpus
from islab.arcs import Arc, union_well_nested
from islab.pda import (
    FINAL_STATE,
    POP,
    PUSH,
    Pda,
    SearchLimits,
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
    buffer_high_water,
    buffered_arcs,
    fragment_to_json,
    max_displacement,
    reachable_composite_states,
    state_bound,
)


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
    return replace(machine, acceptance_mode=FINAL_STATE)


def both_projections_palindromic(word: str) -> bool:
    odd, even = word[0::2], word[1::2]
    return odd == odd[::-1] and even == even[::-1]


def words_over(alphabet, max_len):
    for length in range(max_len + 1):
        for combo in itertools.product(sorted(alphabet), repeat=length):
            yield "".join(combo)


class TestDisplacementCompleteness:
    def test_palindrome_pair_k1_exact_up_to_8(self):
        product = DisplacementProduct(*palindrome_pair(), k=1)
        expected = {w for w in words_over("01", 8) if both_projections_palindromic(w)}
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
                assert max_displacement(run) <= 2

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
            assert max_displacement(run) == 0


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
                assert buffer_high_water(run) <= 8

    def test_arc_reconstruction_matches_overlay(self):
        """Push and pop positions per owner are forced; the pairing may
        legally reorder equal symbols between buffer and stack."""
        product = BufferedProduct(*refutation_pair(), d=1)
        canonical = {
            (1, 1, 3),
            (1, 9, 10),
            (2, 2, 8),
            (2, 4, 7),
            (2, 5, 6),
        }
        pushes = {(o, p) for o, p, _ in canonical}
        pops = {(o, q) for o, _, q in canonical}
        runs = enumerate_runs(product, "abaddeefgh", cap=20)
        assert runs
        seen_canonical = False
        for run in runs:
            arcs = buffered_arcs(run)
            assert {(a.owner, a.push_pos) for a in arcs} == pushes
            assert {(a.owner, a.pop_pos) for a in arcs} == pops
            if {(a.owner, a.push_pos, a.pop_pos) for a in arcs} == canonical:
                seen_canonical = True
            for a in arcs:
                if a.mode == "short":
                    assert a.pop_pos - a.push_pos <= 2
            longs_1 = [Arc(a.push_pos, a.pop_pos, 1) for a in arcs if a.mode == "long" and a.owner == 1]
            longs_2 = [Arc(a.push_pos, a.pop_pos, 2) for a in arcs if a.mode == "long" and a.owner == 2]
            ok, _ = union_well_nested(longs_1, longs_2)
            assert ok
        assert seen_canonical

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
        yield palindrome_pair(), both_projections_palindromic
        m1, m2 = refutation_pair()
        yield (m1, m2), lambda w: accepts(m1, w)[0] and accepts(m2, w)[0]

    def test_products_never_overshoot_component_intersection(self):
        for (m1, m2), oracle in self.pairs():
            for product in (
                DisplacementProduct(m1, m2, 0),
                DisplacementProduct(m1, m2, 1),
                BufferedProduct(m1, m2, 0),
                BufferedProduct(m1, m2, 1),
            ):
                for word in enumerate_language(product, 6):
                    assert oracle(word), (product.kind, word)


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

    def test_budget_enforced(self):
        from islab.pda import LimitExceeded

        product = DisplacementProduct(*palindrome_pair(), k=1)
        searches = (
            reachable_composite_states,
            fragment_to_json,
            lambda product, n, limits: accepts(product, "0" * n, limits),
            enumerate_language,
        )
        for explore in searches:
            with pytest.raises(LimitExceeded) as info:
                explore(product, 8, SearchLimits(max_configs=10))
            message = str(info.value)
            assert "expanded 10 configurations" in message
            assert re.search(r"furthest input position [1-8] of 8", message)


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
        assert len(frag["states"]) == 48
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
        for product in [
            DisplacementProduct(*palindrome_pair(), k=1),
            BufferedProduct(*refutation_pair(), d=1),
            DisplacementProduct(*final_state_pair, k=1),
            BufferedProduct(*final_state_pair, d=1),
            DisplacementProduct(doubler, doubler, k=1),
            BufferedProduct(doubler, doubler, d=1),
        ] + buffered:
            frag = fragment_to_json(product, 4)
            loaded = pda_from_json(frag)
            assert enumerate_language(loaded, 4) == enumerate_language(product, 4)
            for length in range(5):
                for letters in itertools.product(sorted(product.input_alphabet), repeat=length):
                    word = "".join(letters)
                    assert accepts(loaded, word)[0] == accepts(product, word)[0], word

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
