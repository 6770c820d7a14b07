import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from islab import corpus
from islab.arcs import analyze_pair, classify_family
from islab.blocks import (
    CROSSING,
    SHARED_ENDPOINT,
    JointSpec,
    NoCrossing,
    Violation,
    build_joint_pda,
    characterize,
    joint_from_json,
    joint_to_json,
    segments_and_linkages,
    witness_blocks,
    witness_string,
)
from islab.pda import enumerate_language, validate_normal_form
from islab.products import BufferedProduct

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
                kept = JointSpec(alphabets, kept + (tuple(constraint),), ()).c1
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


def loop_counts(spec: JointSpec, word: str):
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


def loop_contains(spec: JointSpec, word: str) -> bool:
    counts = loop_counts(spec, word)
    pairs = spec.c1 + spec.c2
    return counts is not None and all(counts[l - 1] == counts[r - 1] for l, r in pairs)


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
        assert first.in_intersection(word) == loop_contains(first, word), word
        assert second.in_intersection(word) == loop_contains(second, word), word
        assert spec.in_intersection(word) == (
            loop_contains(first, word) and loop_contains(second, word)
        ), word


class TestBlockSpecValidation:
    """The rules each of c1 and c2 is checked by, with its messages."""

    def test_overlapping_alphabets_rejected(self):
        with pytest.raises(ValueError, match="two block alphabets"):
            JointSpec(alphabets=({"a"}, {"a"}), c1=(), c2=())

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError, match="empty alphabet"):
            JointSpec(alphabets=({"a"}, set()), c1=(), c2=())

    def test_constraint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            JointSpec(alphabets=({"a"}, {"b"}), c1=(), c2=((1, 3),))

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
            JointSpec(alphabets=({"a"}, {"b"}, {"c"}), c1=((1, 2), (2, 3)), c2=())

    def test_crossing_constraints_rejected(self):
        alphabets = ({"a"}, {"b"}, {"c"}, {"d"})
        message = "constraints (1, 3) and (2, 4) cross"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JointSpec(alphabets, c1=((1, 3), (2, 4)), c2=())
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JointSpec(alphabets, c1=((1, 4),), c2=((1, 3), (2, 4)))

    def test_multichar_symbol_rejected(self):
        with pytest.raises(ValueError, match="single characters"):
            JointSpec(alphabets=({"ab"},), c1=(), c2=())


class TestMembership:
    def spec13(self):
        return JointSpec(alphabets=({"a"}, {"b"}, {"c"}), c1=((1, 3),), c2=())

    def test_first_third_examples(self):
        spec = self.spec13()
        assert spec.in_intersection("aabcc")
        assert not spec.in_intersection("aabc")
        assert spec.in_intersection("")

    def test_second_third_example(self):
        spec = JointSpec(alphabets=({"a"}, {"b"}, {"c"}), c1=(), c2=((2, 3),))
        assert spec.in_intersection("abbcc")
        assert not spec.in_intersection("abbc")

    def test_multi_letter_block(self):
        spec = JointSpec(alphabets=({"a", "b"}, {"c"}), c1=((1, 2),), c2=())
        assert spec.in_intersection("abcc")
        assert spec.in_intersection("bacc")
        assert not spec.in_intersection("abc")

    def test_unconstrained_spec_accepts_any_block_order(self):
        spec = JointSpec(alphabets=({"a"}, {"b"}), c1=(), c2=())
        assert spec.in_intersection("aaab")
        assert not spec.in_intersection("aba")


class TestJointSpec:
    def test_sides(self):
        assert CROSSING_J.side(1) == JointSpec(CROSSING_J.alphabets, ((1, 3),), ())
        assert CROSSING_J.side(2) == JointSpec(CROSSING_J.alphabets, ((2, 4),), ())
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
        verdict = characterize(CROSSING_J)
        assert not verdict.is_cfl
        assert verdict.violation == Violation(CROSSING, (1, 3), (2, 4))

    def test_shared_endpoint_detected(self):
        verdict = characterize(SHARED_J)
        assert not verdict.is_cfl
        assert verdict.violation == Violation(SHARED_ENDPOINT, (1, 2), (2, 3))

    def test_nested_passes(self):
        verdict = characterize(NESTED_J)
        assert (verdict.is_cfl, verdict.violation) == (True, None)

    def test_identical_arcs_allowed(self):
        j = JointSpec(alphabets=({"a"}, {"b"}), c1=((1, 2),), c2=((1, 2),))
        verdict = characterize(j)
        assert (verdict.is_cfl, verdict.violation) == (True, None)


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
                assert validate_normal_form(build_joint_pda(j.side(which))) == []

    def test_side_machine_matches_membership(self):
        spec = CROSSING_J.side(1)
        machine = build_joint_pda(spec)
        expected = {w for w in block_words(spec.alphabets, 8) if spec.in_intersection(w)}
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
        for which in (1, 2):
            side = spec.side(which)
            language = side.words(7)
            assert enumerate_language(build_joint_pda(side), 7) == language
            assert all(side.in_intersection(word) for word in language)
        if characterize(spec).is_cfl:
            assert enumerate_language(build_joint_pda(spec), 7) == spec.words(7)
        else:
            with pytest.raises(ValueError, match="not jointly well nested"):
                build_joint_pda(spec)

    @settings(max_examples=100, deadline=None)
    @given(spec=st.one_of(joint_specs(), joint_specs(crossing=True)))
    @example(spec=CROSSING_J)
    @example(spec=SHARED_J)
    @example(spec=NESTED_J)
    @example(spec=CHAINED_J)
    def test_one_dichotomy_three_views(self, spec):
        """`characterize` says CFL exactly when the buffered product of the
        two side machines at d = 0 has the intersection as its language, and
        exactly when the family with every block at count n, n = 2..5, reads
        `no-crossings` (otherwise `growing-inner`).  A violating spec must
        leave a word the product misses: if none is found at length 6, the
        bound is raised until one is."""
        is_cfl = characterize(spec).is_cfl
        sides = [build_joint_pda(spec.side(which)) for which in (1, 2)]
        product = BufferedProduct(*sides, 0)
        for max_len in range(6, 13):
            language, expected = enumerate_language(product, max_len), spec.words(max_len)
            assert language <= expected, (max_len, language - expected)
            if is_cfl or language != expected:
                break
        assert (language == expected) == is_cfl, max_len
        samples = []
        for n in range(2, 6):
            word = "".join(min(alphabet) * n for alphabet in spec.alphabets)
            (analysis,) = analyze_pair(*sides, word)
            samples.append((word, [crossing.measures for crossing in analysis.crossings]))
        regime = classify_family(samples).regime
        assert regime == ("no-crossings" if is_cfl else "growing-inner"), regime

    def test_joint_machine_refused_on_violation(self):
        with pytest.raises(ValueError, match="not jointly well nested: crossing"):
            build_joint_pda(CROSSING_J)
        with pytest.raises(ValueError, match="shared-endpoint"):
            build_joint_pda(SHARED_J)


class TestWitnesses:
    def crossing_violation(self):
        return characterize(CROSSING_J).violation

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
        violation = characterize(j).violation
        assert violation is not None
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
        violation = characterize(j).violation
        assert violation is not None
        assert witness_string(j, violation, 3) == "aaabbbcccddd"

    def test_witness_string_examples(self):
        violation = characterize(SHARED_J).violation
        assert witness_string(SHARED_J, violation, 3) == "aaabbbccc"
        assert witness_string(SHARED_J, violation, 0) == ""
        with pytest.raises(ValueError):
            witness_string(SHARED_J, violation, -1)

    def test_witnesses_in_both_sides(self):
        for j in (CROSSING_J, SHARED_J, CHAINED_J):
            violation = characterize(j).violation
            assert violation is not None
            for n in range(5):
                w = witness_string(j, violation, n)
                assert j.side(1).in_intersection(w), (j, n)
                assert j.side(2).in_intersection(w), (j, n)

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
        violation = characterize(SHARED_J).violation
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
