import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islab import corpus
from islab.arcs import (
    REGIME_BOUNDED_GAP,
    REGIME_BOUNDED_INNER,
    REGIME_GROWING_INNER,
    REGIME_NO_CROSSINGS,
    Arc,
    CrossingMeasures,
    InconclusiveRegime,
    Matching,
    PreconditionViolated,
    SegmentDecomposition,
    SourceMismatch,
    analyze_pair,
    classify_family,
    crossing_pairs,
    extract_matching,
    is_well_nested,
    measures_of,
    union_well_nested,
)
from islab.diagrams import render_arcs
from islab.pda import (
    FINAL_STATE,
    AcceptingRun,
    Configuration,
    Pda,
    RunStep,
    StackAction,
    Transition,
    accepts,
    enumerate_runs,
)
from islab.pumping import Factorization, case_trace, check_linkage


def first_matching(machine, word, owner=1):
    runs = enumerate_runs(machine, word, cap=1)
    assert runs, f"{word!r} rejected"
    return extract_matching(runs[0], word, owner=owner)


class TestExtractMatching:
    def test_counter_aabb(self):
        machine = corpus.get("counter").machine("counter")
        m = first_matching(machine, "aabb")
        assert [a.positions() for a in m.arcs] == [(1, 4), (2, 3)]

    def test_double_push_ordinals(self):
        machine = corpus.get("double-push").machine("doubler")
        m = first_matching(machine, "abb")
        assert [(a.push_pos, a.pop_pos, a.push_ordinal) for a in m.arcs] == [
            (1, 2, 2),
            (1, 3, 1),
        ]

    def test_short_arc_word(self):
        machine = corpus.get("gap-refutation").machine("short-arc")
        m = first_matching(machine, "abadef")
        assert [a.positions() for a in m.arcs] == [(1, 3)]

    def test_empty_run_gives_no_arcs(self):
        machine = corpus.get("counter").machine("counter")
        m = first_matching(machine, "")
        assert m.arcs == ()
        assert m.word == ""

    def test_residual_pushes_allowed_under_plain_final_state(self):
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
        ok, run = accepts(machine, "aa")
        assert ok
        m = extract_matching(run, "aa")
        assert m.arcs == ()

    def test_inconsistent_run_raises(self):
        from islab.arcs import UnbalancedRun

        bad = AcceptingRun(
            steps=(RunStep(Transition("p", "a", StackAction.pop("A"), "p"), 1, 1),),
            final=Configuration("p", 1, ("$",)),
        )
        with pytest.raises(UnbalancedRun):
            extract_matching(bad, "a")


class TestWellNested:
    def test_nested_pair(self):
        ok, bad = is_well_nested([Arc(1, 4), Arc(2, 3)])
        assert ok and bad is None

    def test_crossing_pair_reported(self):
        ok, bad = is_well_nested([Arc(2, 4), Arc(1, 3)])
        assert not ok
        assert (bad[0].positions(), bad[1].positions()) == ((1, 3), (2, 4))

    def test_shared_endpoint_is_nested(self):
        ok, _ = is_well_nested([Arc(1, 2), Arc(2, 3)])
        assert ok

    def test_same_position_loop_never_crosses(self):
        ok, _ = is_well_nested([Arc(2, 2), Arc(1, 3), Arc(2, 3)])
        assert ok

    def test_smallest_crossing_pair_chosen(self):
        arcs = [Arc(1, 3), Arc(2, 4), Arc(5, 7), Arc(6, 8)]
        ok, bad = is_well_nested(arcs)
        assert not ok
        assert (bad[0].positions(), bad[1].positions()) == ((1, 3), (2, 4))


@st.composite
def arc_sets(draw):
    """Up to eight arcs over positions 1..8, owners and push ordinals mixed,
    duplicates and same-position loops allowed."""
    arcs = []
    for _ in range(draw(st.integers(0, 8))):
        push = draw(st.integers(1, 8))
        arcs.append(
            Arc(push, draw(st.integers(push, 8)), draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        )
    return arcs


@settings(max_examples=300, deadline=None)
@given(arc_sets())
def test_first_crossing_has_smallest_key(arcs):
    # brute force over every ordered pair: (i, j, i', j') with i < i' < j < j'
    smallest = min(
        (
            (a.push_pos, a.pop_pos, b.push_pos, b.pop_pos)
            for a in arcs
            for b in arcs
            if a.push_pos < b.push_pos < a.pop_pos < b.pop_pos
        ),
        default=None,
    )
    ok, bad = is_well_nested(arcs)
    assert ok == (smallest is None)
    if bad is not None:
        assert bad[0].positions() + bad[1].positions() == smallest


class TestSegmentDecomposition:
    def test_intervals_lengths_parts(self):
        cuts = SegmentDecomposition(word_len=8, i=2, i_prime=3, j=6)
        assert cuts.intervals() == ((0, 2), (2, 3), (3, 6), (6, 8))
        assert cuts.lengths() == (2, 1, 3, 2)
        assert cuts.parts("aabbccdd") == ("aa", "b", "bcc", "dd")

    @pytest.mark.parametrize(
        "i, i_prime, j",
        [(6, 2, 4), (2, 1, 4), (2, 5, 4), (3, 2, 1), (-1, 2, 4), (2, 4, 9), (0, 0, 9)],
        ids=["i>i'", "i>i'<j", "i'>j", "reversed", "negative", "past-end", "j-past-end"],
    )
    def test_cuts_out_of_order_refused(self, i, i_prime, j):
        with pytest.raises(ValueError, match=r"out of order for word length 8$"):
            SegmentDecomposition(word_len=8, i=i, i_prime=i_prime, j=j)

    @pytest.mark.parametrize("i, i_prime, j", [(0, 0, 0), (8, 8, 8), (0, 8, 8), (3, 3, 3)])
    def test_boundary_cuts_accepted(self, i, i_prime, j):
        assert sum(SegmentDecomposition(8, i, i_prime, j).lengths()) == 8

    @pytest.mark.parametrize(
        "use",
        [
            lambda word, cuts: check_linkage(lambda w: True, word, cuts),
            lambda word, cuts: case_trace(word, cuts, Factorization((0, 1, 1, 2))),
            lambda word, cuts: render_arcs(word, [], decomposition=cuts),
        ],
        ids=["check_linkage", "case_trace", "render_arcs"],
    )
    def test_word_of_another_length_refused(self, use):
        cuts = SegmentDecomposition(word_len=8, i=2, i_prime=4, j=6)
        use("aabbccdd", cuts)
        with pytest.raises(ValueError, match="different word length: 8, not 7"):
            use("abbccdd", cuts)


def random_stack_matching(rng, length, owner):
    """Random LIFO push/pop pairing over positions 1..length; always nested."""
    arcs = []
    stack = []
    for pos in range(1, length + 1):
        if stack and rng.random() < 0.5:
            arcs.append(Arc(stack.pop(), pos, owner))
        if rng.random() < 0.5:
            stack.append(pos)
    while stack:
        arcs.append(Arc(stack.pop(), length, owner))
    return tuple(arcs)


class TestUnionWellNested:
    def test_cross_machine_crossing_detected(self):
        ok, bad = union_well_nested([Arc(1, 3, 1)], [Arc(2, 4, 2)])
        assert not ok
        assert (bad[0].positions(), bad[1].positions()) == ((1, 3), (2, 4))

    def test_disjoint_spans_stay_nested(self):
        ok, _ = union_well_nested([Arc(1, 2, 1)], [Arc(3, 4, 2)])
        assert ok

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionViolated):
            union_well_nested([Arc(1, 3), Arc(2, 4)], [Arc(5, 6)])

    def test_random_unions_symmetric_and_consistent(self):
        rng = random.Random(20260823)
        for trial in range(200):
            length = rng.randrange(2, 12)
            first = random_stack_matching(rng, length, 1)
            second = random_stack_matching(rng, length, 2)
            ok_ab, _ = union_well_nested(first, second)
            ok_ba, _ = union_well_nested(second, first)
            ok_flat, _ = is_well_nested(first + second)
            assert ok_ab == ok_ba == ok_flat, (trial, first, second)


class TestCrossingPairs:
    def refutation_word(self, n):
        return corpus.get("gap-refutation").family(n)

    def test_refutation_n3_measures(self):
        bundle = corpus.get("gap-refutation")
        word = self.refutation_word(3)
        assert word == "abadddeeef"
        analyses = analyze_pair(
            bundle.machine("short-arc"), bundle.machine("long-arc"), word
        )
        assert len(analyses) == 1
        crossings = analyses[0].crossings
        assert len(crossings) == 1
        c = crossings[0]
        assert (c.pair.i, c.pair.i_prime, c.pair.j, c.pair.j_prime) == (1, 2, 3, 10)
        assert c.measures == CrossingMeasures(gap=7, inner=1)
        assert c.decomposition.lengths() == (1, 1, 1, 7)

    def test_palindrome_pair_gap_one(self):
        bundle = corpus.get("interleaved-palindrome")
        analyses = analyze_pair(
            bundle.machine("odd-track"), bundle.machine("even-track"), "0000"
        )
        assert len(analyses) == 1
        measures = [c.measures for c in analyses[0].crossings]
        assert measures and max(m.gap for m in measures) == 1

    def test_inner_exceeds_gap(self):
        word = "x" * 9
        m1 = Matching(word, 1, (Arc(1, 8, 1),))
        m2 = Matching(word, 2, (Arc(2, 9, 2),))
        (analysis,) = crossing_pairs(m1, m2)
        assert analysis.measures == CrossingMeasures(gap=1, inner=6)

    def test_source_mismatch(self):
        with pytest.raises(SourceMismatch):
            crossing_pairs(Matching("ab", 1, ()), Matching("ba", 2, ()))

    def test_same_owner_rejected(self):
        with pytest.raises(PreconditionViolated):
            crossing_pairs(Matching("ab", 1, ()), Matching("ab", 1, ()))

    def test_results_sorted(self):
        word = "x" * 12
        m1 = Matching(word, 1, (Arc(1, 6, 1), Arc(7, 10, 1)))
        m2 = Matching(word, 2, (Arc(3, 8, 2), Arc(8, 12, 2)))
        analyses = crossing_pairs(m1, m2)
        keys = [(c.pair.i, c.pair.i_prime, c.pair.j, c.pair.j_prime) for c in analyses]
        assert keys == sorted(keys)
        assert len(keys) >= 2

    def test_decomposition_invariants(self):
        bundle = corpus.get("crossing-blocks")
        for n in (1, 2, 3):
            word = bundle.family(n)
            analyses = analyze_pair(
                bundle.machine("first-third-counter"),
                bundle.machine("second-fourth-counter"),
                word,
            )
            for analysis in analyses:
                for c in analysis.crossings:
                    deco = c.decomposition
                    assert sum(deco.lengths()) == len(word)
                    assert deco.lengths()[1] >= 1 and deco.lengths()[2] >= 1
                    parts = deco.parts(word)
                    assert "".join(parts) == word
                    assert tuple(len(p) for p in parts) == deco.lengths()

    def test_measures_of_direct(self):
        from islab.arcs import CrossingPair

        pair = CrossingPair(Arc(2, 7, 1), Arc(4, 9, 2))
        assert measures_of(pair) == CrossingMeasures(gap=2, inner=3)


class TestAnalyzePair:
    def test_rejected_word_empty(self):
        bundle = corpus.get("interleaved-palindrome")
        # even-position projection "10" is not a palindrome
        assert (
            analyze_pair(bundle.machine("odd-track"), bundle.machine("even-track"), "0100")
            == []
        )

    def test_all_runs_cross_product(self):
        machine = Pda(
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
        )
        assert len(analyze_pair(machine, machine, "ab", runs_cap=20)) == 4
        assert len(analyze_pair(machine, machine, "ab")) == 1
        assert len(analyze_pair(machine, machine, "ab", runs_cap=1)) == 1
        with pytest.raises(ValueError, match="runs_cap must be at least 1"):
            analyze_pair(machine, machine, "ab", runs_cap=0)


def family_samples(bundle_name, machine_a, machine_b, sizes):
    bundle = corpus.get(bundle_name)
    samples = []
    for n in sizes:
        word = bundle.family(n)
        analyses = analyze_pair(bundle.machine(machine_a), bundle.machine(machine_b), word)
        measures = [c.measures for c in analyses[0].crossings] if analyses else []
        samples.append((word, measures))
    return samples


class TestClassifyFamily:
    def test_palindrome_family_bounded_gap(self):
        samples = family_samples(
            "interleaved-palindrome", "odd-track", "even-track", (2, 3, 4)
        )
        report = classify_family(samples)
        assert report.regime == REGIME_BOUNDED_GAP
        assert all(row.max_gap == 1 for row in report.evidence)

    def test_refutation_family_bounded_inner(self):
        samples = family_samples("gap-refutation", "short-arc", "long-arc", (1, 2, 3, 4))
        report = classify_family(samples)
        assert report.regime == REGIME_BOUNDED_INNER
        assert [row.max_gap for row in report.evidence] == [3, 5, 7, 9]
        assert all(row.max_inner == 1 for row in report.evidence)

    def test_nested_blocks_no_crossings(self):
        samples = family_samples("nested-blocks", "outer-counter", "inner-counter", (1, 2, 3))
        report = classify_family(samples)
        assert report.regime == REGIME_NO_CROSSINGS

    def test_crossing_blocks_growing_inner(self):
        samples = family_samples(
            "crossing-blocks", "first-third-counter", "second-fourth-counter", (1, 2, 3)
        )
        report = classify_family(samples)
        assert report.regime == REGIME_GROWING_INNER

    def test_palindrome_from_size_one_inconclusive(self):
        samples = family_samples(
            "interleaved-palindrome", "odd-track", "even-track", (1, 2, 3)
        )
        with pytest.raises(InconclusiveRegime) as exc:
            classify_family(samples)
        assert len(exc.value.evidence) == 3

    def test_mixed_growth_inconclusive(self):
        samples = [
            ("xx", [CrossingMeasures(1, 1)]),
            ("xxxx", [CrossingMeasures(3, 1)]),
            ("xxxxxx", [CrossingMeasures(2, 1)]),
        ]
        with pytest.raises(InconclusiveRegime):
            classify_family(samples)

    def test_single_sample_rejected(self):
        with pytest.raises(PreconditionViolated):
            classify_family([("xx", [])])
