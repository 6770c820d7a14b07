import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from islab import corpus
from islab.arcs import (
    REGIME_BOUNDED_GAP,
    REGIME_BOUNDED_INNER,
    REGIME_GROWING_INNER,
    REGIME_INCONCLUSIVE,
    REGIME_NO_CROSSINGS,
    Arc,
    CrossingMeasures,
    Matching,
    PreconditionViolated,
    SegmentDecomposition,
    analyze_pair,
    analyze_runs,
    classify_family,
    crossing_pairs,
    extract_matching,
)
from islab.diagrams import render_arcs, render_pair_analysis
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
from islab.pumping import check_linkage

from helpers import (
    is_well_nested,
    random_stack_matching,
    reference_crossing_pairs,
    two_path_machine,
)


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
        with pytest.raises(UnbalancedRun, match="^machine 1 at position 1: pop of 'A' with no pending push$"):
            extract_matching(bad, "a")

    @pytest.mark.parametrize(
        "actions, message",
        [
            (
                (StackAction.push("A"), StackAction.pop("B")),
                "machine 1 at position 2: pop of 'B' does not match pushed 'A'",
            ),
            # cut before its last pop: one push unmatched, yet the final
            # stack holds the bottom alone
            (
                (StackAction.push("A"),),
                "machine 1 at position 1: 1 unmatched pushes but final stack depth 1",
            ),
        ],
        ids=["wrong-symbol", "cut"],
    )
    def test_doctored_run_raises(self, actions, message):
        from islab.arcs import UnbalancedRun

        steps = tuple(
            RunStep(Transition("p", "a", action, "p"), pos, 1)
            for pos, action in enumerate(actions, 1)
        )
        bad = AcceptingRun(steps, Configuration("p", len(steps), ("$",)))
        with pytest.raises(UnbalancedRun, match=f"^{message}$"):
            extract_matching(bad, "a" * len(steps))


def pair_keys(m1, m2):
    return [(c.pair.first.positions(), c.pair.second.positions()) for c in crossing_pairs(m1, m2)]


class TestWellNested:
    """`crossing_pairs` decides whether two machines' matchings overlay into
    a well-nested union: it is, exactly when no pair is found."""

    def test_nested_pair(self):
        m1, m2 = Matching("x" * 4, 1, (Arc(1, 4, 1),)), Matching("x" * 4, 2, (Arc(2, 3, 2),))
        assert pair_keys(m1, m2) == pair_keys(m2, m1) == []

    def test_crossing_pair_reported(self):
        m1, m2 = Matching("x" * 4, 1, (Arc(2, 4, 1),)), Matching("x" * 4, 2, (Arc(1, 3, 2),))
        assert pair_keys(m1, m2) == pair_keys(m2, m1) == [((1, 3), (2, 4))]

    def test_shared_endpoint_is_nested(self):
        m1, m2 = Matching("x" * 3, 1, (Arc(1, 2, 1),)), Matching("x" * 3, 2, (Arc(2, 3, 2),))
        assert pair_keys(m1, m2) == pair_keys(m2, m1) == []

    def test_same_position_loop_never_crosses(self):
        m1 = Matching("x" * 3, 1, (Arc(2, 2, 1), Arc(1, 3, 1)))
        m2 = Matching("x" * 3, 2, (Arc(2, 3, 2),))
        assert pair_keys(m1, m2) == pair_keys(m2, m1) == []

    def test_smallest_crossing_pair_chosen(self):
        m1 = Matching("x" * 8, 1, (Arc(5, 7, 1), Arc(1, 3, 1)))
        m2 = Matching("x" * 8, 2, (Arc(6, 8, 2), Arc(2, 4, 2)))
        assert pair_keys(m1, m2)[0] == ((1, 3), (2, 4))
        assert pair_keys(m1, m2) == [((1, 3), (2, 4)), ((5, 7), (6, 8))]


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
            lambda word, cuts: render_arcs(word, [], decomposition=cuts),
        ],
        ids=["check_linkage", "render_arcs"],
    )
    def test_word_of_another_length_refused(self, use):
        cuts = SegmentDecomposition(word_len=8, i=2, i_prime=4, j=6)
        use("aabbccdd", cuts)
        with pytest.raises(ValueError, match="different word length: 8, not 7"):
            use("abbccdd", cuts)


class TestUnionWellNested:
    """Two well-nested matchings of one word overlay into a well-nested
    union exactly when `crossing_pairs` finds no pair between them."""

    def test_cross_machine_crossing_detected(self):
        first = Matching("abcd", 1, (Arc(1, 3, 1),))
        second = Matching("abcd", 2, (Arc(2, 4, 2),))
        (analysis,) = crossing_pairs(first, second)
        pair = analysis.pair
        assert (pair.first.positions(), pair.second.positions()) == ((1, 3), (2, 4))

    def test_disjoint_spans_stay_nested(self):
        first = Matching("abcd", 1, (Arc(1, 2, 1),))
        second = Matching("abcd", 2, (Arc(3, 4, 2),))
        assert crossing_pairs(first, second) == []

    def test_random_unions_symmetric_and_consistent(self):
        rng = random.Random(20260823)
        for trial in range(200):
            length = rng.randrange(2, 12)
            first = random_stack_matching(rng, length, 1)
            second = random_stack_matching(rng, length, 2)
            word = "x" * length
            ab = crossing_pairs(Matching(word, 1, first), Matching(word, 2, second))
            ba = crossing_pairs(Matching(word, 2, second), Matching(word, 1, first))
            ok_flat, _ = is_well_nested(first + second)
            assert ab == ba and (not ab) == ok_flat, (trial, first, second)


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
        message = "^matchings over different words: 'ab' vs 'ba'$"
        with pytest.raises(PreconditionViolated, match=message):
            crossing_pairs(Matching("ab", 1, ()), Matching("ba", 2, ()))

    def test_same_owner_rejected(self):
        with pytest.raises(PreconditionViolated):
            crossing_pairs(Matching("ab", 1, ()), Matching("ab", 1, ()))

    def test_crossing_arcs_of_one_machine_refused(self):
        # machine 2 pushes nothing after position 1, so only a check of
        # every arc of machine 1 finds the crossing
        word = "x" * 7
        first = Matching(word, 1, (Arc(1, 5, 1), Arc(2, 7, 1)))
        second = Matching(word, 2, (Arc(1, 1, 2),))
        message = r"^arcs of machine 1 cross: \(1, 5\) and \(2, 7\)$"
        for m1, m2 in ((first, second), (second, first)):
            with pytest.raises(PreconditionViolated, match=message):
                crossing_pairs(m1, m2)

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
        # gap = max(i' - i, j' - j) and inner = max(|P2|, |P3|), read off
        # the pair and its split rather than from the library's formula
        word = "x" * 9
        m1 = Matching(word, 1, (Arc(2, 7, 1),))
        m2 = Matching(word, 2, (Arc(4, 9, 2),))
        (analysis,) = crossing_pairs(m1, m2)
        pair, (_, p2, p3, _) = analysis.pair, analysis.decomposition.lengths()
        assert analysis.measures == CrossingMeasures(gap=2, inner=3)
        assert analysis.measures == CrossingMeasures(
            gap=max(pair.i_prime - pair.i, pair.j_prime - pair.j), inner=max(p2, p3)
        )


@st.composite
def matching_pairs(draw):
    """Two crowded random matchings of one word, owners 1 and 2, with arcs
    shuffled or in `extract_matching`'s order."""
    length = draw(st.integers(1, 12))
    rng = draw(st.randoms(use_true_random=False))
    in_push_order = draw(st.booleans())
    pair = []
    for owner in (1, 2):
        arcs = random_stack_matching(rng, length, owner, crowded=True)
        if in_push_order:
            arcs = tuple(sorted(arcs, key=lambda a: (a.push_pos, a.pop_pos, a.push_ordinal)))
        pair.append(Matching("x" * length, owner, arcs))
    return tuple(pair)


TIED = "x" * 6


@settings(max_examples=300, deadline=None)
@given(matching_pairs())
# both pairs have key (1, 2, 3, 5); the one with machine 1's first arc, of
# push ordinal 1, comes first
@example(
    (
        Matching(TIED, 1, (Arc(2, 5, 1, 1), Arc(2, 5, 1, 2))),
        Matching(TIED, 2, (Arc(1, 3, 2),)),
    )
)
def test_sweep_matches_pairwise_scan(pair):
    m1, m2 = pair
    assert crossing_pairs(m1, m2) == reference_crossing_pairs(m1, m2)
    assert crossing_pairs(m2, m1) == reference_crossing_pairs(m2, m1)


@settings(max_examples=300, deadline=None)
@given(matching_pairs())
def test_first_crossing_has_smallest_key(pair):
    # brute force over every cross-machine pair: (i, i', j, j') with
    # i < i' < j < j', the order `crossing_pairs` sorts by
    m1, m2 = pair
    smallest = min(
        (
            (a.push_pos, b.push_pos, a.pop_pos, b.pop_pos)
            for a in m1.arcs + m2.arcs
            for b in m1.arcs + m2.arcs
            if a.owner != b.owner and a.push_pos < b.push_pos < a.pop_pos < b.pop_pos
        ),
        default=None,
    )
    for analyses in (crossing_pairs(m1, m2), crossing_pairs(m2, m1)):
        assert (not analyses) == (smallest is None)
        if analyses:
            p = analyses[0].pair
            assert (p.i, p.i_prime, p.j, p.j_prime) == smallest


class TestAnalyzePair:
    def test_rejected_word_empty(self):
        bundle = corpus.get("interleaved-palindrome")
        # even-position projection "10" is not a palindrome
        assert (
            analyze_pair(bundle.machine("odd-track"), bundle.machine("even-track"), "0100")
            == []
        )

    def test_all_runs_cross_product(self):
        machine = two_path_machine()
        runs = enumerate_runs(machine, "ab", cap=20)
        assert len(analyze_runs("ab", runs, runs)) == 4
        assert len(analyze_pair(machine, machine, "ab")) == 1
        first = enumerate_runs(machine, "ab", cap=1)
        assert analyze_runs("ab", first, first) == analyze_pair(machine, machine, "ab")

    def test_each_run_matched_once(self, monkeypatch):
        machine = two_path_machine()
        owners = []

        def counted(run, word, owner=1):
            owners.append(owner)
            return extract_matching(run, word, owner=owner)

        monkeypatch.setattr("islab.arcs.extract_matching", counted)
        runs = enumerate_runs(machine, "ab", cap=2)
        analyses = analyze_runs("ab", runs, runs)
        assert owners == [1, 1, 2, 2]
        assert [(a.run_index_1, a.run_index_2) for a in analyses] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        # run 0 of each side pushes at a and pops at b; arcs on one span do not cross
        assert analyses[0].matching_1.arcs == (Arc(1, 2, 1),)
        assert analyses[0].matching_2.arcs == (Arc(1, 2, 2),)
        assert all(a.crossings == () for a in analyses)

    def test_same_position_arc_drawn_as_a_loop(self):
        # outside normal form an epsilon move may pop what the read just
        # pushed, so the arc starts and ends at one position
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
        (analysis,) = analyze_pair(machine, machine, "a")
        assert analysis.matching_1.arcs == (Arc(1, 1, 1),)
        svg = render_pair_analysis(analysis)
        paths = [line for line in svg.splitlines() if line.startswith("<path ")]
        # one short loop, a cubic curve, per machine; no elliptical arc
        assert len(paths) == 2
        assert all(" C " in path and " A " not in path for path in paths)


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
        report = classify_family(samples)
        assert report.regime == REGIME_INCONCLUSIVE
        assert report.detail == "crossing pairs appear at some sizes but not others"
        assert len(report.evidence) == 3

    def test_mixed_growth_inconclusive(self):
        samples = [
            ("xx", [CrossingMeasures(1, 1)]),
            ("xxxx", [CrossingMeasures(3, 1)]),
            ("xxxxxx", [CrossingMeasures(2, 1)]),
        ]
        report = classify_family(samples)
        assert report.regime == REGIME_INCONCLUSIVE
        assert report.detail == "measure growth is mixed (gap mixed, inner constant)"
        assert len(report.evidence) == 3

    def test_single_sample_rejected(self):
        with pytest.raises(PreconditionViolated):
            classify_family([("xx", [])])
