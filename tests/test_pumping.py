import re
from math import comb

import pytest

from islab import corpus
from islab.arcs import SegmentDecomposition
from islab.blocks import characterize, segments_and_linkages
from islab.pumping import (
    FOUR_LARGE,
    INNER_GROWING,
    INNER_PAIR,
    OUTER_PAIR,
    Factorization,
    check_crossing_hypotheses,
    check_linkage,
)

from helpers import refutation_member

CHAINED = corpus.get("chained-equal-blocks").joint
CROSSING = corpus.get("crossing-blocks").joint
CROSSING_VIOLATION = characterize(CROSSING).violation


def all_equal_member(word: str) -> bool:
    return CHAINED.in_intersection(word)


def crossing_witness(n: int):
    pkg = segments_and_linkages(CROSSING, CROSSING_VIOLATION, n)
    return pkg.word, pkg.decomposition


class TestFactorization:
    def test_parts_and_pump(self):
        f = Factorization((1, 2, 3, 4))
        assert f.parts("abcde") == ("a", "b", "c", "d", "e")
        assert f.pumped("abcde") == "abbcdde"

    def test_empty_window(self):
        f = Factorization((2, 2, 2, 2))
        assert f.pumped("abcd") == "abcd"

    @pytest.mark.parametrize(
        "cuts", [(3, 1, 2, 0), (0, 2, 1, 3), (0, 1, 2, 1), (-1, 0, 0, 0)]
    )
    def test_cuts_out_of_order_refused(self, cuts):
        with pytest.raises(ValueError, match="out of order"):
            Factorization(cuts)

    @pytest.mark.parametrize("use", ["parts", "pumped"])
    def test_word_shorter_than_window_refused(self, use):
        f = Factorization((1, 2, 3, 5))
        assert getattr(f, use)("abcde")
        with pytest.raises(ValueError, match="reach past a word of length 4"):
            getattr(f, use)("abcd")


class TestCheckLinkage:
    def test_all_equal_holds_both_pairs(self):
        word, cuts = crossing_witness(2)
        assert word == "aabbccdd"
        outer = check_linkage(all_equal_member, word, cuts, OUTER_PAIR)
        inner = check_linkage(all_equal_member, word, cuts, INNER_PAIR)
        for report in (outer, inner):
            assert report.holds and not report.vacuous
            assert report.counterexample is None
            assert report.examined == comb(len(word) + 4, 4) == 495
            assert report.relevant == 210
            assert report.oracle_calls == 76

    def test_single_side_breaks_outer_linkage(self):
        """Against membership in the first side alone, pumping the last
        letter of the first block together with one second-block letter
        stays inside the language, and the checker finds exactly that."""
        word, cuts = crossing_witness(3)
        report = check_linkage(CROSSING.side(1).in_intersection, word, cuts, OUTER_PAIR)
        assert not report.holds and not report.vacuous
        ce = report.counterexample
        assert ce.factorization.cuts == (2, 2, 3, 4)
        assert ce.parts == ("aa", "", "a", "b", "bbcccddd")
        assert ce.pumped == "aaabbbbcccddd"
        assert CROSSING.side(1).in_intersection(ce.pumped)

    def test_counterexample_is_first_in_window_order(self):
        word, cuts = crossing_witness(3)
        report = check_linkage(CROSSING.side(1).in_intersection, word, cuts, OUTER_PAIR)
        a, b, c, d = report.counterexample.factorization.cuts
        width = d - a
        for cand_a, cand_b, cand_c, cand_d in (
            (0, 0, 0, 1),
            (0, 0, 1, 1),
            (2, 2, 2, 3),
            (0, 1, 1, 2),
        ):
            cand_width = cand_d - cand_a
            assert (cand_width, cand_a) <= (width, a)

    def test_vacuous_when_member_empty(self):
        word = "bbcc"
        cuts = SegmentDecomposition(word_len=4, i=0, i_prime=2, j=4)
        report = check_linkage(lambda w: True, word, cuts, OUTER_PAIR)
        assert report.holds and report.vacuous
        assert report.examined == report.relevant == report.oracle_calls == 0

    def test_vacuous_inner_when_tail_empty(self):
        word = "aabbcc"
        cuts = SegmentDecomposition(word_len=6, i=2, i_prime=4, j=6)
        report = check_linkage(lambda w: True, word, cuts, INNER_PAIR)
        assert report.vacuous

    def test_oracle_calls_are_memoized_and_bounded(self):
        word, cuts = crossing_witness(2)
        report = check_linkage(all_equal_member, word, cuts, OUTER_PAIR)
        assert report.oracle_calls <= report.relevant <= report.examined

    def test_report_stable_across_calls(self):
        word, cuts = crossing_witness(2)
        first = check_linkage(all_equal_member, word, cuts, INNER_PAIR)
        second = check_linkage(all_equal_member, word, cuts, INNER_PAIR)
        assert first == second

    def test_pair_validated(self):
        word, cuts = crossing_witness(2)
        with pytest.raises(ValueError, match="pair"):
            check_linkage(all_equal_member, word, cuts, (1, 2))

    def test_word_length_validated(self):
        _, cuts = crossing_witness(2)
        with pytest.raises(ValueError, match="different word length"):
            check_linkage(all_equal_member, "abc", cuts)


class TestCrossingHypotheses:
    def test_four_large_holds_on_all_equal(self):
        word, cuts = crossing_witness(2)
        report = check_crossing_hypotheses(all_equal_member, word, cuts, FOUR_LARGE, 2)
        assert report.sizes_ok
        assert report.outer_linkage.holds and report.inner_linkage.holds
        assert report.holds
        assert report.segment_lengths == (2, 2, 2, 2)
        assert "finite evidence" in report.note

    def test_four_large_size_threshold(self):
        word, cuts = crossing_witness(2)
        report = check_crossing_hypotheses(all_equal_member, word, cuts, FOUR_LARGE, 3)
        assert not report.sizes_ok and not report.holds

    def test_inner_growing_ignores_outer_segments(self):
        word = "bbbccc"
        cuts = SegmentDecomposition(word_len=6, i=0, i_prime=3, j=6)
        report = check_crossing_hypotheses(
            lambda w: True, word, cuts, INNER_GROWING, 3
        )
        assert report.sizes_ok
        assert report.segment_lengths == (0, 3, 3, 0)

    def test_refutation_family_fails_at_every_size(self):
        bundle = corpus.get("gap-refutation")
        for n in range(1, 7):
            word = bundle.family(n)
            cuts = SegmentDecomposition(word_len=len(word), i=1, i_prime=2, j=3)
            report = check_crossing_hypotheses(
                refutation_member, word, cuts, INNER_GROWING, n
            )
            assert not report.holds, n
            if n == 1:
                assert report.sizes_ok
                assert not report.inner_linkage.holds
                ce = report.inner_linkage.counterexample
                assert ce.factorization.cuts == (3, 4, 4, 5)
                assert ce.pumped == "abaddeef"
                assert refutation_member(ce.pumped)
            else:
                assert not report.sizes_ok
                assert report.segment_lengths == (1, 1, 1, 2 * n + 1)

    def test_outer_only_linkage_language(self):
        """|a|=|c| around a single b and a single d: the outer pair stays
        linked but pumping inside the fourth segment alone keeps the word
        in the language, breaking the inner pair."""

        def member(w):
            m = re.fullmatch(r"(a*)b(c*)d", w)
            return bool(m) and len(m.group(1)) == len(m.group(2))

        word = "aabccd"
        cuts = SegmentDecomposition(word_len=6, i=2, i_prime=3, j=5)
        outer = check_linkage(member, word, cuts, OUTER_PAIR)
        inner = check_linkage(member, word, cuts, INNER_PAIR)
        assert outer.holds
        assert not inner.holds
        ce = inner.counterexample
        assert ce.factorization.cuts == (1, 2, 3, 4)
        assert ce.pumped == "aaabcccd"

    def test_mode_validated(self):
        word, cuts = crossing_witness(2)
        with pytest.raises(ValueError, match="mode"):
            check_crossing_hypotheses(all_equal_member, word, cuts, "five-large", 2)

    def test_threshold_validated(self):
        word, cuts = crossing_witness(2)
        with pytest.raises(ValueError, match="positive"):
            check_crossing_hypotheses(all_equal_member, word, cuts, FOUR_LARGE, 0)
