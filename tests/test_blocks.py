import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from islab import corpus
from islab.blocks import (
    CROSSING,
    SHARED_ENDPOINT,
    BlockSpec,
    JointSpec,
    NoCrossing,
    Violation,
    build_block_pda,
    build_joint_pda,
    characterize,
    is_jointly_well_nested,
    joint_from_json,
    joint_to_json,
    segments_and_linkages,
    witness_blocks,
    witness_string,
)
from islab.pda import enumerate_language, validate_normal_form

from helpers import DELETE, block_words, edited, joint_specs

CROSSING_J = corpus.get("crossing-blocks").joint
SHARED_J = corpus.get("shared-endpoint-blocks").joint
NESTED_J = corpus.get("nested-blocks").joint
CHAINED_J = corpus.get("chained-equal-blocks").joint


# regex metacharacters and non-ASCII letters, enough for five blocks of
# three; FOREIGN is in no alphabet
SCAN_POOL = "][^-\\.*$?aéßλΩ中"
FOREIGN = "x"


@st.composite
def scan_cases(draw):
    """A spec of 1-5 blocks of 1-3 letters from SCAN_POOL, with 0-2
    constraints per side, and words over its letters plus FOREIGN: some
    block-shaped, some not, the empty word among them."""
    pool = draw(st.permutations(SCAN_POOL))
    k = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 3)) for _ in range(k)]
    starts = list(itertools.accumulate([0] + sizes))
    alphabets = [set(pool[starts[i] : starts[i + 1]]) for i in range(k)]
    pair = st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True).map(sorted)

    def side() -> tuple:
        kept = ()
        for constraint in draw(st.lists(pair, max_size=2)) if k > 1 else ():
            try:
                kept = BlockSpec(alphabets, kept + (tuple(constraint),)).constraints
            except ValueError:
                pass
        return kept

    spec = JointSpec(alphabets, side(), side())
    letters = sorted(set().union(*alphabets)) + [FOREIGN]
    shaped = st.tuples(
        *(st.lists(st.sampled_from(sorted(a)), max_size=3).map("".join) for a in alphabets)
    ).map("".join)
    anything = st.text(alphabet=letters, max_size=8)
    return spec, [""] + draw(st.lists(st.one_of(shaped, anything), max_size=12))


def loop_counts(spec: BlockSpec, word: str):
    """The per-character block scan that the compiled pattern replaced."""
    block_index = {ch: idx for idx, alpha in enumerate(spec.alphabets, 1) for ch in alpha}
    counts = [0] * spec.k
    current = 1
    for ch in word:
        idx = block_index.get(ch)
        if idx is None or idx < current:
            return None
        current = idx
        counts[idx - 1] += 1
    return counts


def loop_contains(spec: BlockSpec, word: str) -> bool:
    counts = loop_counts(spec, word)
    return counts is not None and all(counts[l - 1] == counts[r - 1] for l, r in spec.constraints)


@settings(max_examples=100, deadline=None)
@given(case=scan_cases())
@example(
    case=(
        JointSpec(("]", "^", "-", "\\"), ((1, 4),), ((2, 3),)),
        ["", "]^-\\", "]]\\", "^-", "]-^\\", "]^-\\x", "\\]"],
    )
)
def test_block_scan_matches_character_loop(case):
    spec, words = case
    first, second = spec.side(1), spec.side(2)
    for word in words:
        assert first.contains(word) == loop_contains(first, word), word
        assert second.contains(word) == loop_contains(second, word), word
        assert spec.in_intersection(word) == (
            loop_contains(first, word) and loop_contains(second, word)
        ), word


class TestBlockSpecValidation:
    def test_overlapping_alphabets_rejected(self):
        with pytest.raises(ValueError, match="two block alphabets"):
            BlockSpec(alphabets=({"a"}, {"a"}), constraints=())

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError, match="empty alphabet"):
            BlockSpec(alphabets=({"a"}, set()), constraints=())

    def test_constraint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            BlockSpec(alphabets=({"a"}, {"b"}), constraints=((1, 3),))

    @pytest.mark.parametrize("constraint", [(2, 1), (1, 1)])
    def test_reversed_or_degenerate_constraint_names_the_rule(self, constraint):
        # both blocks exist, so the constraint is not out of range
        message = f"constraint {constraint} needs 1 <= l < r <= 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            joint_from_json(
                {
                    "format": "blocks-v1",
                    "alphabets": [["a"], ["b"]],
                    "c1": [list(constraint)],
                    "c2": [],
                }
            )

    def test_reused_endpoint_rejected(self):
        with pytest.raises(ValueError, match="two constraints"):
            BlockSpec(
                alphabets=({"a"}, {"b"}, {"c"}), constraints=((1, 2), (2, 3))
            )

    def test_crossing_constraints_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            BlockSpec(
                alphabets=({"a"}, {"b"}, {"c"}, {"d"}),
                constraints=((1, 3), (2, 4)),
            )

    def test_multichar_symbol_rejected(self):
        with pytest.raises(ValueError, match="single characters"):
            BlockSpec(alphabets=({"ab"},), constraints=())


class TestMembership:
    def spec13(self):
        return BlockSpec(alphabets=({"a"}, {"b"}, {"c"}), constraints=((1, 3),))

    def test_first_third_examples(self):
        spec = self.spec13()
        assert spec.contains("aabcc")
        assert not spec.contains("aabc")
        assert spec.contains("")

    def test_second_third_example(self):
        spec = BlockSpec(alphabets=({"a"}, {"b"}, {"c"}), constraints=((2, 3),))
        assert spec.contains("abbcc")
        assert not spec.contains("abbc")

    def test_multi_letter_block(self):
        spec = BlockSpec(alphabets=({"a", "b"}, {"c"}), constraints=((1, 2),))
        assert spec.contains("abcc")
        assert spec.contains("bacc")
        assert not spec.contains("abc")

    def test_unconstrained_spec_accepts_any_block_order(self):
        spec = BlockSpec(alphabets=({"a"}, {"b"}), constraints=())
        assert spec.contains("aaab")
        assert not spec.contains("aba")


class TestJointSpec:
    def test_sides(self):
        assert CROSSING_J.side(1).constraints == ((1, 3),)
        assert CROSSING_J.side(2).constraints == ((2, 4),)
        with pytest.raises(ValueError):
            CROSSING_J.side(3)

    def test_intersection_is_conjunction(self):
        assert CROSSING_J.in_intersection("abcd")
        assert CROSSING_J.in_intersection("aabccd")
        assert not CROSSING_J.in_intersection("aabcd")

    def test_chained_joint_is_all_counts_equal(self):
        for n1, n2, n3, n4 in itertools.product(range(4), repeat=4):
            word = "a" * n1 + "b" * n2 + "c" * n3 + "d" * n4
            expected = n1 == n2 == n3 == n4
            assert CHAINED_J.in_intersection(word) == expected, word

    @settings(max_examples=60, deadline=None)
    @given(spec=joint_specs())
    @example(spec=CROSSING_J)
    @example(spec=CHAINED_J)
    def test_words_match_membership_filter(self, spec):
        """`words` generates exactly the block-shaped words that
        `in_intersection` accepts, at every length bound."""
        shaped = [""]
        for alphabet in spec.alphabets:
            shaped = [
                prefix + "".join(body)
                for prefix in shaped
                for length in range(7 - len(prefix))
                for body in itertools.product(sorted(alphabet), repeat=length)
            ]
        accepted = set(filter(spec.in_intersection, shaped))
        for n in range(7):
            assert spec.words(n) == {w for w in accepted if len(w) <= n}, n

    def test_words_of_classes_spanning_both_sides(self):
        """c1 ties blocks 1 and 2, c2 ties 2 and 3: all three share one
        length, block 1's letters vary and block 4 is free."""
        j = JointSpec(alphabets=({"a", "b"}, {"c"}, {"d"}, {"e"}), c1=((1, 2),), c2=((2, 3),))
        assert j.words(4) == {"", "e", "ee", "eee", "eeee", "acd", "bcd", "acde", "bcde"}

    def test_negative_bound_refused(self):
        message = "length bound must be nonnegative, got -1"
        with pytest.raises(ValueError, match=re.escape(message)):
            CHAINED_J.words(-1)


class TestJointWellNested:
    def test_crossing_detected(self):
        ok, violation = is_jointly_well_nested(CROSSING_J)
        assert not ok
        assert violation == Violation(CROSSING, (1, 3), (2, 4))

    def test_shared_endpoint_detected(self):
        ok, violation = is_jointly_well_nested(SHARED_J)
        assert not ok
        assert violation == Violation(SHARED_ENDPOINT, (1, 2), (2, 3))

    def test_nested_passes(self):
        assert is_jointly_well_nested(NESTED_J) == (True, None)

    def test_identical_arcs_allowed(self):
        j = JointSpec(alphabets=({"a"}, {"b"}), c1=((1, 2),), c2=((1, 2),))
        assert is_jointly_well_nested(j) == (True, None)


class TestCharacterize:
    def test_three_verdicts(self):
        crossing = characterize(CROSSING_J)
        shared = characterize(SHARED_J)
        nested = characterize(NESTED_J)
        assert (crossing.is_cfl, crossing.outcome) == (False, "NotCFL")
        assert crossing.violation.kind == CROSSING
        assert (shared.is_cfl, shared.violation.kind) == (False, SHARED_ENDPOINT)
        assert nested.is_cfl and nested.outcome == "CFL"
        assert nested.violation is None

    def test_symmetric_in_sides(self):
        for j in (CROSSING_J, SHARED_J, NESTED_J, CHAINED_J):
            swapped = JointSpec(alphabets=j.alphabets, c1=j.c2, c2=j.c1)
            assert characterize(swapped).is_cfl == characterize(j).is_cfl


class TestMachines:
    def test_side_machines_normal_form(self):
        for j in (CROSSING_J, SHARED_J, NESTED_J, CHAINED_J):
            for which in (1, 2):
                assert validate_normal_form(build_block_pda(j.side(which))) == []

    def test_side_machine_matches_membership(self):
        spec = CROSSING_J.side(1)
        machine = build_block_pda(spec)
        expected = {w for w in block_words(spec.alphabets, 8) if spec.contains(w)}
        assert enumerate_language(machine, 8) == expected

    def test_joint_machine_nested_blocks(self):
        machine = build_joint_pda(NESTED_J)
        assert validate_normal_form(machine) == []
        expected = {
            w for w in block_words(NESTED_J.alphabets, 12) if NESTED_J.in_intersection(w)
        }
        assert enumerate_language(machine, 12) == expected
        assert "aabbbcccdd" in expected

    def test_joint_machine_without_constraints(self):
        j = JointSpec(alphabets=({"a"}, {"b"}), c1=(), c2=())
        machine = build_joint_pda(j)
        assert enumerate_language(machine, 4) == {
            "a" * i + "b" * k for i in range(5) for k in range(5 - i)
        }

    def test_joint_machine_identical_arcs(self):
        j = JointSpec(alphabets=({"a"}, {"b"}), c1=((1, 2),), c2=((1, 2),))
        machine = build_joint_pda(j)
        assert enumerate_language(machine, 6) == {"", "ab", "aabb", "aaabbb"}

    @settings(max_examples=40, deadline=None)
    @given(spec=joint_specs())
    @example(spec=CROSSING_J)  # crossing arcs are rare among the drawn specs
    def test_dichotomy_on_random_specs(self, spec):
        """Each side machine has its side's language.  Jointly well nested:
        the joint machine has the intersection as its language.  Otherwise
        no joint machine is built."""
        for which, constraints in ((1, spec.c1), (2, spec.c2)):
            side = spec.side(which)
            language = JointSpec(spec.alphabets, constraints, ()).words(7)
            assert enumerate_language(build_block_pda(side), 7) == language
            assert all(side.contains(word) for word in language)
        if characterize(spec).is_cfl:
            assert enumerate_language(build_joint_pda(spec), 7) == spec.words(7)
        else:
            with pytest.raises(ValueError, match="not jointly well nested"):
                build_joint_pda(spec)

    def test_joint_machine_refused_on_violation(self):
        with pytest.raises(ValueError, match="not jointly well nested: crossing"):
            build_joint_pda(CROSSING_J)
        with pytest.raises(ValueError, match="shared-endpoint"):
            build_joint_pda(SHARED_J)


class TestWitnesses:
    def crossing_violation(self):
        return is_jointly_well_nested(CROSSING_J)[1]

    def test_witness_blocks_crossing(self):
        assert witness_blocks(CROSSING_J, self.crossing_violation()) == frozenset(
            {1, 2, 3, 4}
        )

    def test_witness_blocks_chain_connectivity(self):
        j = JointSpec(
            alphabets=({"a"}, {"b"}, {"c"}, {"d"}, {"e"}),
            c1=((1, 3), (4, 5)),
            c2=((2, 4),),
        )
        ok, violation = is_jointly_well_nested(j)
        assert not ok
        assert witness_blocks(j, violation) == frozenset({1, 2, 3, 4, 5})
        assert witness_string(j, violation, 2) == "aabbccddee"

    @settings(max_examples=100, deadline=None)
    @given(spec=joint_specs())
    @example(spec=CROSSING_J)
    @example(spec=CHAINED_J)
    def test_witness_blocks_match_closure(self, spec):
        """The blocks read off the spec's partition are those a closure over
        the constraint graph reaches from the violation's blocks."""

        def closure(violation):
            reached = set(violation.blocks())
            changed = True
            while changed:
                changed = False
                for l, r in set(spec.c1) | set(spec.c2):
                    if (l in reached) != (r in reached):
                        reached |= {l, r}
                        changed = True
            return frozenset(reached)

        constraints = spec.c1 + spec.c2
        for first, second in itertools.product(constraints, repeat=2):
            violation = Violation(CROSSING, first, second)
            assert witness_blocks(spec, violation) == closure(violation)

    def test_unconnected_block_stays_empty(self):
        j = JointSpec(
            alphabets=({"a"}, {"b"}, {"c"}, {"d"}, {"e"}),
            c1=((1, 3),),
            c2=((2, 4),),
        )
        ok, violation = is_jointly_well_nested(j)
        assert not ok
        assert witness_string(j, violation, 3) == "aaabbbcccddd"

    def test_witness_string_examples(self):
        ok, violation = is_jointly_well_nested(SHARED_J)
        assert witness_string(SHARED_J, violation, 3) == "aaabbbccc"
        assert witness_string(SHARED_J, violation, 0) == ""
        with pytest.raises(ValueError):
            witness_string(SHARED_J, violation, -1)

    def test_witnesses_in_both_sides(self):
        for j in (CROSSING_J, SHARED_J, CHAINED_J):
            ok, violation = is_jointly_well_nested(j)
            assert not ok
            for n in range(5):
                w = witness_string(j, violation, n)
                assert j.side(1).contains(w), (j, n)
                assert j.side(2).contains(w), (j, n)

    def test_decomposition_crossing(self):
        pkg = segments_and_linkages(CROSSING_J, self.crossing_violation(), 3)
        assert pkg.word == "aaabbbcccddd"
        assert pkg.decomposition.cuts() == (3, 6, 9)
        assert pkg.decomposition.parts(pkg.word) == ("aaa", "bbb", "ccc", "ddd")

    def test_decomposition_handles_swapped_violation(self):
        swapped = Violation(CROSSING, (2, 4), (1, 3))
        pkg = segments_and_linkages(CROSSING_J, swapped, 2)
        assert pkg.word == "aabbccdd"
        assert pkg.decomposition.cuts() == (2, 4, 6)

    def test_decomposition_needs_crossing(self):
        ok, violation = is_jointly_well_nested(SHARED_J)
        assert violation.kind == SHARED_ENDPOINT
        with pytest.raises(NoCrossing, match="^segment decomposition is defined for crossings only$"):
            segments_and_linkages(SHARED_J, violation, 3)

    def test_segments_and_linkages_package(self):
        pkg = segments_and_linkages(CROSSING_J, self.crossing_violation(), 4)
        assert pkg.word == "aaaabbbbccccdddd"
        assert pkg.decomposition.lengths() == (4, 4, 4, 4)


class TestJson:
    def test_round_trip(self):
        for j in (CROSSING_J, SHARED_J, NESTED_J, CHAINED_J):
            assert joint_from_json(joint_to_json(j)) == j

    def test_format_guard(self):
        data = joint_to_json(NESTED_J)
        assert data["format"] == "blocks-v1"
        data["format"] = "nope"
        with pytest.raises(ValueError, match="format"):
            joint_from_json(data)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            ((), [], "document must be an object, got a list"),
            (("alphabets",), DELETE, "missing field alphabets"),
            (("alphabets", 1), "b", "alphabets[1] must be a list, got a string"),
            (("alphabets", 1, 0), 2, "alphabets[1][0] must be a string, got an integer"),
            (("c1",), DELETE, "missing field c1"),
            (("c1", 0), [1, 2, 4], "c1[0] must be a pair of block indices, got 3 items"),
            (("c2", 0, 1), "3", "c2[0][1] must be an integer, got a string"),
            (("k",), "4", "k must be an integer or null, got a string"),
            (
                (),
                {"format": "blocks-v1", "alphabets": [], "c1": [], "c2": []},
                "at least one block is required",
            ),
        ],
    )
    def test_malformed_document_names_field(self, keys, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            joint_from_json(edited(joint_to_json(NESTED_J), keys, value))

    def test_k_disagreement_rejected(self):
        data = joint_to_json(NESTED_J)
        data["k"] = 7
        with pytest.raises(ValueError, match="disagrees"):
            joint_from_json(data)
