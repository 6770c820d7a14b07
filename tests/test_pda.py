import itertools
import json
import re

import pytest

from islab import corpus
from islab.pda import (
    FINAL_STATE,
    FINAL_STATE_BOTTOM_ONLY,
    POP,
    PUSH,
    AcceptingRun,
    Configuration,
    LimitExceeded,
    Pda,
    StackAction,
    Transition,
    accepts,
    enumerate_language,
    enumerate_runs,
    pda_from_json,
    pda_to_json,
    validate_normal_form,
)
from islab.products import BufferedProduct, DisplacementProduct

from helpers import DELETE, edited, machine_items


def counter() -> Pda:
    return corpus.get("counter").machine("counter")


def doubler() -> Pda:
    return corpus.get("double-push").machine("doubler")


def odd_track() -> Pda:
    return corpus.get("interleaved-palindrome").machine("odd-track")


def even_track() -> Pda:
    return corpus.get("interleaved-palindrome").machine("even-track")


def ambiguous_two_path() -> Pda:
    """Accepts "ab" along two distinct runs (stack path and no-op path)."""
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
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


class CountingMachine:
    """A machine that counts the engine's `transitions_from` calls, one per
    configuration expanded."""

    def __init__(self, machine):
        self.machine = machine
        self.calls = 0

    def transitions_from(self, state):
        self.calls += 1
        return self.machine.transitions_from(state)

    def __getattr__(self, attr):
        return getattr(self.machine, attr)


class TestConstruction:
    def test_undeclared_state_rejected(self):
        with pytest.raises(ValueError, match="undeclared state"):
            Pda(
                states={"p"},
                input_alphabet={"a"},
                stack_alphabet={"$"},
                transitions=[Transition("p", "a", StackAction.none(), "ghost")],
                start="p",
                bottom="$",
                accept={"p"},
            )

    def test_multichar_input_symbol_rejected(self):
        with pytest.raises(ValueError, match="single characters"):
            Pda(
                states={"p"},
                input_alphabet={"ab"},
                stack_alphabet={"$"},
                transitions=[],
                start="p",
                bottom="$",
                accept={"p"},
            )

    def test_bottom_must_be_declared(self):
        with pytest.raises(ValueError, match="bottom"):
            Pda(
                states={"p"},
                input_alphabet={"a"},
                stack_alphabet={"Z"},
                transitions=[],
                start="p",
                bottom="$",
                accept={"p"},
            )

    def test_push_without_symbol_refused(self):
        # pda-v1 stack symbols are strings, so only a machine built in code
        # can declare None as one and push it
        message = "transition pushes or pops no stack symbol: p --a/push None--> q"
        with pytest.raises(ValueError, match=re.escape(message)):
            Pda(
                states={"p", "q"},
                input_alphabet={"a"},
                stack_alphabet={"$", None},
                transitions=[Transition("p", "a", StackAction.push(None), "q")],
                start="p",
                bottom="$",
                accept={"q"},
            )

    def test_transitions_canonically_sorted(self):
        """push ranks before pop before none from the same source/read."""
        machine = Pda(
            states={"p", "q"},
            input_alphabet={"a"},
            stack_alphabet={"$", "A"},
            transitions=[
                Transition("p", "a", StackAction.none(), "q"),
                Transition("p", "a", StackAction.pop("A"), "q"),
                Transition("p", "a", StackAction.push("A"), "q"),
            ],
            start="p",
            bottom="$",
            accept={"q"},
        )
        kinds = [t.action.kind for t in machine.transitions]
        assert kinds == [PUSH, POP, "none"]


class TestNormalForm:
    def test_corpus_machines_are_normal_form(self):
        for bundle_name, machine_name, machine in machine_items():
            assert validate_normal_form(machine) == [], (bundle_name, machine_name)

    def test_non_auxiliary_epsilon_flagged(self):
        machine = Pda(
            states={"p", "q"},
            input_alphabet={"a"},
            stack_alphabet={"$"},
            transitions=[Transition("p", None, StackAction.none(), "q")],
            start="p",
            bottom="$",
            accept={"q"},
        )
        diags = validate_normal_form(machine)
        assert len(diags) == 1
        assert "reads no input symbol" in diags[0]

    def test_auxiliary_must_push(self):
        machine = Pda(
            states={"p", "q", "r"},
            input_alphabet={"a"},
            stack_alphabet={"$", "A"},
            transitions=[
                Transition("p", "a", StackAction.push("A"), "q"),
                Transition("q", None, StackAction.pop("A"), "r", auxiliary=True),
            ],
            start="p",
            bottom="$",
            accept={"r"},
        )
        assert any("must push" in d for d in validate_normal_form(machine))

    def test_auxiliary_chained_after_non_push_flagged(self):
        machine = Pda(
            states={"p", "q", "r"},
            input_alphabet={"a"},
            stack_alphabet={"$", "A"},
            transitions=[
                Transition("p", "a", StackAction.none(), "q"),
                Transition("q", None, StackAction.push("A"), "r", auxiliary=True),
            ],
            start="p",
            bottom="$",
            accept={"r"},
        )
        assert any("chained after non-pushing" in d for d in validate_normal_form(machine))

    def test_auxiliary_reading_input_flagged(self):
        machine = Pda(
            states={"p", "q", "r"},
            input_alphabet={"a"},
            stack_alphabet={"$", "A"},
            transitions=[
                Transition("p", "a", StackAction.push("A"), "q"),
                Transition("q", "a", StackAction.push("A"), "r", auxiliary=True),
            ],
            start="p",
            bottom="$",
            accept={"r"},
        )
        assert any("must not read" in d for d in validate_normal_form(machine))

    # The doubler's transitions, as pda_to_json lists them: 0 d0 --a/push A-->
    # daux, 1 d0 --b/pop A--> d1, 2 d1 --b/pop A--> d1, 3 daux --eps/push A--> d0 aux
    @pytest.mark.parametrize(
        "keys, value, diagnostic",
        [
            (
                ("transitions", 2, "action"),
                {"kind": "none", "symbol": "A"},
                "transition (d1 --b/none--> d1): no-op action carries a stack symbol",
            ),
            (
                ("start",),
                "daux",
                "transition (daux --eps/push A--> d0 aux):"
                " auxiliary transition leaves the start state unchained",
            ),
            (
                ("transitions", 0, "to"),
                "d0",
                "transition (daux --eps/push A--> d0 aux):"
                " auxiliary transition has no triggering push into 'daux'",
            ),
        ],
    )
    def test_document_refused_by_products(self, keys, value, diagnostic):
        machine = pda_from_json(edited(pda_to_json(doubler()), keys, value))
        message = f"machine 1 is not in normal form: {diagnostic}"
        with pytest.raises(ValueError, match=re.escape(message)):
            DisplacementProduct(machine, machine, 0)


class TestAccepts:
    def test_palindrome_pair_accepts_00(self):
        for machine in (odd_track(), even_track()):
            ok, run = accepts(machine, "00")
            assert ok and isinstance(run, AcceptingRun)

    def test_empty_word_accepted(self):
        for machine in (odd_track(), even_track(), counter(), doubler()):
            ok, run = accepts(machine, "")
            assert ok
            assert run.steps == ()

    def test_refutation_short_arc_examples(self):
        machine = corpus.get("gap-refutation").machine("short-arc")
        assert accepts(machine, "abafgh")[0]
        assert not accepts(machine, "abafg")[0]

    def test_run_replays_to_acceptance(self):
        machine = doubler()
        ok, run = accepts(machine, "aabbbb")
        assert ok
        stack = ["$"]
        for s in run.steps:
            action = s.transition.action
            if action.kind == PUSH:
                stack.append(action.symbol)
            elif action.kind == POP:
                assert stack[-1] == action.symbol
                stack.pop()
            assert s.stack_depth_after == len(stack)
        assert stack == ["$"]

    def test_limit_exceeded_raised(self):
        machine = odd_track()
        message = "expanded 5 configurations, furthest input position 4 of 8"
        with pytest.raises(LimitExceeded, match=f"^{message}$"):
            accepts(machine, "0" * 8, 5)
        with pytest.raises(LimitExceeded, match=f"^{message}$"):
            accepts(machine, "0" * 8, max_configs=5)

    @pytest.mark.parametrize(
        "machine, word, expansions",
        [
            (odd_track(), "1" + "0" * 299, 299),
            (even_track(), "01" + "0" * 398, 400),
        ],
        ids=["odd-track", "even-track"],
    )
    def test_rejected_palindrome_takes_exact_budget(self, machine, word, expansions):
        # the search expands these configurations, no more and no fewer
        assert accepts(machine, word, expansions) == (False, None)
        pattern = rf"expanded {expansions - 1} configurations, furthest input position"
        with pytest.raises(LimitExceeded, match=pattern):
            accepts(machine, word, expansions - 1)

    def test_pushing_epsilon_loop_is_inconclusive(self):
        # no stack depth bounds this machine: only the budget ends the search
        machine = Pda(
            states={"p"},
            input_alphabet={"a"},
            stack_alphabet={"$", "X"},
            transitions=[Transition("p", None, StackAction.push("X"), "p")],
            start="p",
            bottom="$",
            accept={"p"},
            acceptance_mode=FINAL_STATE,
        )
        with pytest.raises(LimitExceeded):
            accepts(machine, "a", 1_000)

    def test_boolean_result_stable(self):
        machine = even_track()
        results = {accepts(machine, "0110")[0] for _ in range(3)}
        assert len(results) == 1


def two_symbol_pusher() -> Pda:
    """0^n 1^n, pushing A or B per 0 and popping either per 1: 2^n distinct
    stacks after the zeros."""
    t = []
    for sym in "AB":
        t.append(Transition("p", "0", StackAction.push(sym), "p"))
        t.append(Transition("p", "1", StackAction.pop(sym), "q"))
        t.append(Transition("q", "1", StackAction.pop(sym), "q"))
    return Pda(
        states={"p", "q"},
        input_alphabet={"0", "1"},
        stack_alphabet={"$", "A", "B"},
        transitions=t,
        start="p",
        bottom="$",
        accept={"q"},
    )


class TestLiveDepths:
    def test_counter_table_by_hand(self):
        # from either state, r reads can pop r entries
        assert counter().live_depths(2) == {"p": [3, 2, 1], "q": [3, 2, 1]}

    def test_epsilon_move_carries_the_bound_back(self):
        # daux reads nothing: its bound is d0's, reached by the second push
        table = doubler().live_depths(3)
        assert table["daux"] == table["d0"] == [4, 3, 2, 1]

    def test_final_state_machine_has_none(self):
        machine = Pda(
            states={"p"},
            input_alphabet={"a"},
            stack_alphabet={"$", "A"},
            transitions=[Transition("p", "a", StackAction.push("A"), "p")],
            start="p",
            bottom="$",
            accept={"p"},
            acceptance_mode=FINAL_STATE,
        )
        assert machine.live_depths(3) is None
        assert accepts(machine, "aaa")[0]

    def test_epsilon_pop_machine_has_none_and_accepts(self):
        machine = Pda(
            states={"p", "q", "r"},
            input_alphabet={"a"},
            stack_alphabet={"$", "A"},
            transitions=[
                Transition("p", "a", StackAction.push("A"), "q"),
                Transition("q", None, StackAction.pop("A"), "r"),
            ],
            start="p",
            bottom="$",
            accept={"r"},
        )
        assert machine.live_depths(1) is None
        ok, run = accepts(machine, "a")
        assert ok
        assert [s.transition.action.kind for s in run.steps] == [PUSH, POP]

    @pytest.mark.parametrize(
        "machine, word",
        [(odd_track(), "0" * 1600), (two_symbol_pusher(), "0" * 18 + "1" * 18)],
        ids=["odd-track", "two-symbol-pusher"],
    )
    def test_blow_up_words_accepted_cheaply(self, machine, word):
        ok, run = accepts(machine, word, 10_000)
        assert ok
        assert run.final == Configuration(run.final.state, len(word), ("$",))


class TestFloorDepths:
    def test_counter_table_by_hand(self):
        # q pops on every read, so r reads left need r entries above the
        # bottom; p can push, so its row is the shared row of 1s
        assert counter().floor_depths(2) == {"p": [1, 1, 1], "q": [3, 2, 1]}

    def test_final_state_machine_has_none(self):
        machine = counter()._replace(acceptance_mode=FINAL_STATE)
        assert machine.floor_depths(3) is None
        assert accepts(machine, "aab")[0]

    def test_epsilon_pop_machine_has_none(self):
        machine = Pda(
            states={"p", "q", "r"},
            input_alphabet={"a"},
            stack_alphabet={"$", "A"},
            transitions=[
                Transition("p", "a", StackAction.push("A"), "q"),
                Transition("q", None, StackAction.pop("A"), "r"),
            ],
            start="p",
            bottom="$",
            accept={"r"},
        )
        assert machine.floor_depths(1) is None

    @pytest.mark.parametrize("make", [DisplacementProduct, BufferedProduct])
    def test_products_have_none(self, make):
        product = make(counter(), counter(), 1)
        assert product.live_depths(4) is not None
        assert product.floor_depths(4) is None

    def test_refilled_bottom_keeps_empty_stacks(self):
        # q is entered with the bottom popped and pushes it back: an empty
        # stack there can still accept, so the shared row is of 0s; r reads
        # nothing, so it accepts only at the end
        machine = Pda(
            states={"p", "q", "r"},
            input_alphabet={"a"},
            stack_alphabet={"$"},
            transitions=[
                Transition("p", "a", StackAction.pop("$"), "q"),
                Transition("q", "a", StackAction.push("$"), "r"),
            ],
            start="p",
            bottom="$",
            accept={"r"},
        )
        inf = float("inf")
        assert machine.floor_depths(2) == {"p": [0, 0, 0], "q": [0, 0, 0], "r": [inf, inf, 1]}
        assert accepts(machine, "aa")[0]

    def test_unreachable_acceptance_floors_at_infinity(self):
        # q only pops and does not accept: no stack there can accept
        machine = counter()._replace(accept={"p"})
        assert machine.floor_depths(2)["q"] == [float("inf")] * 3

    def test_rejected_doubler_word_dies_at_its_first_pop(self):
        # a^266 b^533: the first b leaves fewer entries than b's to pop, so
        # the run ends there, not at the bottom 532 pops later; the search
        # expands two configurations per a and one for the first b
        word = "a" * 266 + "b" * 533
        machine = doubler()
        assert accepts(machine, word, 533) == (False, None)
        with pytest.raises(LimitExceeded, match="expanded 532 configurations"):
            accepts(machine, word, 532)


class TestEnumerateRuns:
    def test_deterministic_machine_single_run(self):
        runs = enumerate_runs(counter(), "aabb")
        assert len(runs) == 1

    def test_rejected_word_gives_no_runs(self):
        assert enumerate_runs(counter(), "aab") == []

    def test_two_path_machine_has_two_runs_push_first(self):
        runs = enumerate_runs(ambiguous_two_path(), "ab")
        assert len(runs) == 2
        assert runs[0].steps[0].transition.action.kind == PUSH
        assert runs[1].steps[0].transition.action.kind == "none"

    def test_odd_track_0000_hand_count(self):
        # only push@1, skip@2, pop@3, skip@4 survives bottom-only acceptance
        runs = enumerate_runs(odd_track(), "0000")
        assert len(runs) == 1
        kinds = [s.transition.action.kind for s in runs[0].steps]
        assert kinds == [PUSH, "none", POP, "none"]

    def test_cap_respected(self):
        machine = ambiguous_two_path()
        assert len(enumerate_runs(machine, "ab", cap=1)) == 1

    @pytest.mark.parametrize("cap", [0, -2])
    def test_nonpositive_cap_gives_no_run(self, cap):
        assert enumerate_runs(counter(), "ab", cap=cap) == []

    def test_runs_deterministic_across_calls(self):
        machine = odd_track()
        first = enumerate_runs(machine, "000000")
        second = enumerate_runs(machine, "000000")
        assert [
            [s.transition.describe() for s in r.steps] for r in first
        ] == [[s.transition.describe() for s in r.steps] for r in second]


def brute_force_language(machine: Pda, max_len: int) -> set:
    alphabet = sorted(machine.input_alphabet)
    out = set()
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            word = "".join(combo)
            if accepts(machine, word)[0]:
                out.add(word)
    return out


class TestEnumerateLanguage:
    def test_counter_language(self):
        assert enumerate_language(counter(), 6) == {"", "ab", "aabb", "aaabbb"}

    def test_doubler_language(self):
        assert enumerate_language(doubler(), 9) == {"", "abb", "aabbbb", "aaabbbbbb"}

    def test_max_len_zero(self):
        assert enumerate_language(counter(), 0) == {""}

    @pytest.mark.parametrize("mode", [FINAL_STATE_BOTTOM_ONLY, FINAL_STATE])
    def test_negative_bound_refused(self, mode):
        machine = counter()._replace(acceptance_mode=mode)
        message = "length bound must be nonnegative, got -1"
        with pytest.raises(ValueError, match=re.escape(message)):
            enumerate_language(machine, -1)

    def test_agrees_with_per_word_accepts(self):
        machine = corpus.get("gap-refutation").machine("short-arc")
        assert enumerate_language(machine, 5) == brute_force_language(machine, 5)

    def test_short_arc_language_matches_shape(self):
        machine = corpus.get("gap-refutation").machine("short-arc")
        pattern = re.compile(r"aba[de]*f(g*)(h*)")
        for word in enumerate_language(machine, 8):
            m = pattern.fullmatch(word)
            assert m and len(m.group(1)) == len(m.group(2)), word

    def test_long_arc_language_matches_shape(self):
        machine = corpus.get("gap-refutation").machine("long-arc")
        pattern = re.compile(r"aba(d*)(e*)f[gh]*")
        for word in enumerate_language(machine, 8):
            m = pattern.fullmatch(word)
            assert m and len(m.group(1)) == len(m.group(2)), word

    def test_each_configuration_expanded_once_per_prefix(self):
        """One state looping on a and b, no stack moves: each word up to
        length 3 has one configuration, expanded once (1 + 2 + 4 + 8)."""
        loop = Pda(
            states={"p"},
            input_alphabet={"a", "b"},
            stack_alphabet={"$"},
            transitions=[
                Transition("p", "a", StackAction.none(), "p"),
                Transition("p", "b", StackAction.none(), "p"),
            ],
            start="p",
            bottom="$",
            accept={"p"},
            acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
        )
        machine = CountingMachine(loop)
        assert len(enumerate_language(machine, 3)) == 15
        assert machine.calls == 15

    def test_epsilon_successors_expanded_once_per_prefix(self):
        """The doubler at length 3: "" has its start, "a" the auxiliary
        state and then d0 over two A's, "ab" and "abb" one d1 each."""
        machine = CountingMachine(doubler())
        assert enumerate_language(machine, 3) == {"", "abb"}
        assert machine.calls == 5


class TestRunInvariants:
    def sample_runs(self):
        for _, _, machine in machine_items():
            for word in sorted(enumerate_language(machine, 6)):
                for run in enumerate_runs(machine, word, cap=10):
                    yield machine, word, run

    def test_push_pop_balance_and_depth(self):
        checked = 0
        for machine, word, run in self.sample_runs():
            pushed: list = []
            per_pos_push: dict = {}
            per_pos_pop: dict = {}
            for s in run.steps:
                action = s.transition.action
                assert s.stack_depth_after <= 2 * len(word) + 1
                if action.kind == PUSH:
                    pushed.append(action.symbol)
                    per_pos_push[s.input_pos] = per_pos_push.get(s.input_pos, 0) + 1
                elif action.kind == POP:
                    assert pushed.pop() == action.symbol
                    per_pos_pop[s.input_pos] = per_pos_pop.get(s.input_pos, 0) + 1
            assert tuple(["$"] + pushed) == run.final.stack
            assert all(v <= 2 for v in per_pos_push.values())
            assert all(v <= 1 for v in per_pos_pop.values())
            checked += 1
        assert checked > 50


class TestJson:
    def test_round_trip_all_corpus_machines(self):
        for _, _, machine in machine_items():
            assert pda_from_json(pda_to_json(machine)) == machine

    def test_format_field_required(self):
        data = pda_to_json(counter())
        data["format"] = "pda-v2"
        with pytest.raises(ValueError, match="format"):
            pda_from_json(data)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            ((), [], "document must be an object, got a list"),
            (("transitions",), DELETE, "missing field transitions"),
            (("transitions",), {}, "transitions must be a list, got an object"),
            (("transitions", 0), "p", "transitions[0] must be an object, got a string"),
            (("transitions", 0, "action", "kind"), DELETE, "missing field transitions[0].action.kind"),
            (("transitions", 0, "read"), 1, "transitions[0].read must be a string or null, got an integer"),
            (("transitions", 0, "auxiliary"), "yes", "transitions[0].auxiliary must be a boolean, got a string"),
            (("states",), "pq", "states must be a list, got a string"),
            (("accept", 0), ["q"], "accept[0] must be a string, got a list"),
            (("start",), DELETE, "missing field start"),
            (("transitions", 0, "action", "kind"), "jump", "unknown action kind: p --a/jump A--> p"),
            (("acceptance_mode",), "Empty", "unknown acceptance mode 'Empty'"),
            (("start",), "ghost", "start state 'ghost' not declared"),
            (("accept", 1), "ghost", "accept states not all declared"),
            (("transitions", 1, "read"), "c", "transition reads undeclared symbol: p --c/pop A--> q"),
            (
                ("transitions", 1, "action", "symbol"),
                "B",
                "transition uses undeclared stack symbol: p --b/pop B--> q",
            ),
        ],
    )
    def test_malformed_document_names_field(self, keys, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            pda_from_json(edited(pda_to_json(counter()), keys, value))

    def test_duplicate_transition_kept_once(self):
        data = pda_to_json(counter())
        data["transitions"].append(data["transitions"][0])
        machine = pda_from_json(data)
        assert len(machine.transitions) == 3
        assert len(enumerate_runs(machine, "aabb")) == 1

    def test_document_is_plain_json(self):
        text = json.dumps(pda_to_json(doubler()), sort_keys=True)
        assert json.loads(text)["format"] == "pda-v1"

    def test_final_state_mode_round_trip(self):
        machine = Pda(
            states={"p"},
            input_alphabet={"a"},
            stack_alphabet={"$"},
            transitions=[Transition("p", "a", StackAction.none(), "p")],
            start="p",
            bottom="$",
            accept={"p"},
            acceptance_mode=FINAL_STATE,
        )
        again = pda_from_json(pda_to_json(machine))
        assert again.acceptance_mode == FINAL_STATE
        assert accepts(again, "aaa")[0]
