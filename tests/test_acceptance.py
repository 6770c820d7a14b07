"""End-to-end acceptance checks.

Each test covers one criterion, prints a single [AC-xx] PASS line when it
succeeds, and enforces the stated wall-clock budget where one applies.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import math
import random
import time

from islab import corpus
from islab.arcs import (
    Matching,
    SegmentDecomposition,
    analyze_pair,
    classify_family,
    crossing_pairs,
    extract_matching,
    is_well_nested,
)
from islab.blocks import (
    CROSSING,
    SHARED_ENDPOINT,
    JointSpec,
    build_joint_pda,
    characterize,
)
from islab.grammar import cyk_membership, gnf_to_pda, to_cnf, to_gnf
from islab.pda import enumerate_language, enumerate_runs
from islab.products import (
    BUFFERED,
    DISPLACEMENT,
    BufferedProduct,
    DisplacementProduct,
    reachable_composite_states,
    state_bound,
)
from islab.pumping import (
    FOUR_LARGE,
    INNER_GROWING,
    INNER_PAIR,
    OUTER_PAIR,
    check_crossing_hypotheses,
    check_linkage,
)

from helpers import (
    block_words,
    grammar_bundles,
    machine_items,
    random_stack_matching,
    refutation_member,
)

CHAINED = corpus.get("chained-equal-blocks").joint
CROSSING_J = corpus.get("crossing-blocks").joint
SHARED_J = corpus.get("shared-endpoint-blocks").joint
NESTED_J = corpus.get("nested-blocks").joint


def both_tracks_palindromic(word):
    return word[::2] == word[::2][::-1] and word[1::2] == word[1::2][::-1]


def test_criterion_01_characterization_verdicts():
    started = time.perf_counter()
    crossing = characterize(CROSSING_J)
    shared = characterize(SHARED_J)
    nested = characterize(NESTED_J)
    elapsed = time.perf_counter() - started

    assert not crossing.is_cfl and crossing.violation.kind == CROSSING
    assert crossing.violation.first == (1, 3)
    assert crossing.violation.second == (2, 4)
    assert not shared.is_cfl and shared.violation.kind == SHARED_ENDPOINT
    assert nested.is_cfl and nested.violation is None
    assert elapsed < 1.0
    print(f"\n[AC-01] PASS three characterization verdicts in {elapsed:.3f}s")


def test_criterion_02_joint_machine_matches_block_membership():
    started = time.perf_counter()

    def assert_equality(joint, max_len):
        machine = build_joint_pda(joint)
        language = enumerate_language(machine, max_len)
        oracle = {
            w for w in block_words(joint.alphabets, max_len) if joint.in_intersection(w)
        }
        assert language == oracle, sorted(language ^ oracle)[:5]
        return len(language)

    nested_words = assert_equality(NESTED_J, 10)
    assert nested_words == 21
    for joint in (CROSSING_J, SHARED_J, CHAINED):
        try:
            build_joint_pda(joint)
        except ValueError as exc:
            assert "not jointly well nested" in str(exc)
        else:
            raise AssertionError("joint machine built for a non-CFL spec")

    letters = "abcdefghij"

    def crossing_intervals(a, b):
        return (a[0] < b[0] < a[1] < b[1]) or (b[0] < a[0] < b[1] < a[1])

    def random_side(rng, k):
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        rng.shuffle(pairs)
        kept = []
        for p in pairs:
            if any(set(p) & set(q) for q in kept):
                continue
            if any(crossing_intervals(p, q) for q in kept):
                continue
            if rng.random() < 0.6:
                kept.append(p)
        return tuple(sorted(kept))

    rng = random.Random(20260823)
    constrained = 0
    for _ in range(50):
        while True:
            k = rng.randint(2, 5)
            joint = JointSpec(
                tuple(letters[i] for i in range(k)),
                random_side(rng, k),
                random_side(rng, k),
            )
            if characterize(joint).is_cfl:
                break
        if joint.c1 or joint.c2:
            constrained += 1
        assert_equality(joint, 10)

    elapsed = time.perf_counter() - started
    assert constrained >= 40
    assert elapsed < 300.0
    print(
        f"[AC-02] PASS joint machines match block membership on the corpus and "
        f"50 random specs ({constrained} constrained) in {elapsed:.1f}s"
    )


def test_criterion_03_refutation_family_measures():
    bundle = corpus.get("gap-refutation")
    first, second = bundle.pair()
    samples = []
    for n in range(1, 6):
        word = bundle.family(n)
        analyses = analyze_pair(first, second, word)
        assert len(analyses) == 1
        crossings = analyses[0].crossings
        assert len(crossings) == 1
        row = crossings[0]
        assert (row.pair.i, row.pair.i_prime, row.pair.j, row.pair.j_prime) == (
            1,
            2,
            3,
            2 * n + 4,
        )
        assert row.measures.inner == 1
        assert row.measures.gap == 2 * n + 1
        samples.append((word, [c.measures for c in crossings]))

    report = classify_family(samples)
    assert report.regime == "bounded-inner-unbounded-gap"
    print("[AC-03] PASS refutation family keeps inner=1 while gap=2n+1 for n=1..5")


def test_criterion_04_buffered_product_on_refutation_pair():
    started = time.perf_counter()
    product = BufferedProduct(*corpus.get("gap-refutation").pair(), d=1)
    language = enumerate_language(product, 12)
    oracle = set()
    for n in range(7):
        for m in range(7):
            word = "aba" + "d" * n + "e" * n + "f" + "g" * m + "h" * m
            if len(word) <= 12:
                oracle.add(word)
    assert language == oracle
    assert len(language) == 15

    high_water = max(
        max(
            max(len(s.transition.target.buffer) for s in run.steps)
            for run in enumerate_runs(product, word, cap=20)
        )
        for word in language
    )
    elapsed = time.perf_counter() - started
    assert high_water <= 8
    assert elapsed < 300.0
    print(
        f"[AC-04] PASS buffered product (d=1) matches the pair intersection up to "
        f"length 12 ({len(language)} words, buffer peak {high_water}) in {elapsed:.1f}s"
    )


def test_criterion_05_displacement_product_on_palindrome_pair():
    product = DisplacementProduct(*corpus.get("interleaved-palindrome").pair(), k=1)
    language = enumerate_language(product, 10)
    oracle = {
        "".join(bits)
        for n in range(11)
        for bits in itertools.product("01", repeat=n)
        if both_tracks_palindromic("".join(bits))
    }
    assert language == oracle
    assert len(language) == 167

    worst = max(
        max(
            max(len(s.transition.target.displaced) for s in run.steps)
            for run in enumerate_runs(product, word, cap=20)
        )
        for word in language
        if word
    )
    assert worst <= 2
    print(
        f"[AC-05] PASS displacement product (k=1) matches both-track palindromes up "
        f"to length 10 ({len(language)} words, displacement peak {worst})"
    )


def test_criterion_06_state_bounds():
    def naive_bound(kind, q1, q2, g1, g2, parameter):
        if kind == DISPLACEMENT:
            base, exponent = g1 + g2 + 1, 2 * parameter
        else:
            base, exponent = 1 + (g1 + g2) * 2 * parameter, 8 * parameter
        total = q1 * q2
        for _ in range(exponent):
            total *= base
        return total

    tuples = [
        (DISPLACEMENT, 1, 1, 0, 0, 0),
        (DISPLACEMENT, 2, 3, 1, 2, 1),
        (DISPLACEMENT, 4, 4, 2, 2, 3),
        (DISPLACEMENT, 7, 5, 3, 4, 50),
        (DISPLACEMENT, 1, 1, 0, 0, 5000),
        (BUFFERED, 1, 1, 0, 0, 0),
        (BUFFERED, 2, 2, 2, 2, 1),
        (BUFFERED, 3, 4, 1, 1, 2),
        (BUFFERED, 5, 5, 3, 3, 100),
        (BUFFERED, 10, 10, 5, 5, 625),
    ]
    for kind, q1, q2, g1, g2, parameter in tuples:
        assert state_bound(kind, q1, q2, g1, g2, parameter) == naive_bound(
            kind, q1, q2, g1, g2, parameter
        )

    def stack_letters(machine):
        return len(machine.stack_alphabet - {machine.bottom})

    m1, m2 = corpus.get("interleaved-palindrome").pair()
    displacement = DisplacementProduct(m1, m2, k=1)
    bound = state_bound(
        DISPLACEMENT, len(m1.states), len(m2.states), stack_letters(m1), stack_letters(m2), 1
    )
    reached = reachable_composite_states(displacement, 6, 200_000)
    assert len(reached) == 32 <= bound

    r1, r2 = corpus.get("gap-refutation").pair()
    buffered = BufferedProduct(r1, r2, d=1)
    buffered_bound = state_bound(
        BUFFERED, len(r1.states), len(r2.states), stack_letters(r1), stack_letters(r2), 1
    )
    buffered_reached = reachable_composite_states(buffered, 6, 200_000)
    assert len(buffered_reached) <= buffered_bound
    print(
        f"[AC-06] PASS state bounds agree with repeated multiplication on 10 tuples; "
        f"reachable projections fit ({len(reached)} <= {bound}, "
        f"{len(buffered_reached)} <= {buffered_bound})"
    )


def test_criterion_07_linkages_on_the_four_block_witness():
    started = time.perf_counter()
    word = "aaaabbbbccccdddd"
    cuts = SegmentDecomposition(16, 4, 8, 12)

    outer = check_linkage(CHAINED.in_intersection, word, cuts, OUTER_PAIR)
    inner = check_linkage(CHAINED.in_intersection, word, cuts, INNER_PAIR)
    for report in (outer, inner):
        assert report.holds and not report.vacuous
        assert report.examined == math.comb(20, 4) == 4845
        assert report.relevant == 2014
        assert report.oracle_calls == 560

    alone = check_linkage(CROSSING_J.side(1).in_intersection, word, cuts, OUTER_PAIR)
    assert not alone.holds
    ce = alone.counterexample
    assert ce.factorization.cuts == (3, 3, 4, 5)
    assert ce.parts == ("aaa", "", "a", "b", "bbbccccdddd")
    assert ce.pumped == "aaaabbbbbccccdddd"
    assert CROSSING_J.side(1).in_intersection(ce.pumped)
    assert not CHAINED.in_intersection(ce.pumped)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"[AC-07] PASS both linkages hold against the intersection (4845 "
        f"factorizations each) and the outer one fails against one side alone "
        f"in {elapsed:.1f}s"
    )


def test_criterion_08_crossing_hypotheses():
    for n in (2, 3, 4):
        word = "a" * n + "b" * n + "c" * n + "d" * n
        cuts = SegmentDecomposition(4 * n, n, 2 * n, 3 * n)
        report = check_crossing_hypotheses(
            CHAINED.in_intersection, word, cuts, FOUR_LARGE, n
        )
        assert report.holds and report.sizes_ok
        assert report.segment_lengths == (n, n, n, n)
        assert report.outer_linkage.holds and report.inner_linkage.holds

    bundle = corpus.get("gap-refutation")
    for n in range(1, 7):
        word = bundle.family(n)
        cuts = SegmentDecomposition(len(word), 1, 2, 3)
        report = check_crossing_hypotheses(
            refutation_member, word, cuts, INNER_GROWING, n
        )
        assert not report.holds
        assert report.segment_lengths == (1, 1, 1, 2 * n + 1)
        if n == 1:
            assert report.sizes_ok and report.outer_linkage.holds
            assert not report.inner_linkage.holds
            assert report.inner_linkage.counterexample.pumped == "abaddeef"
        else:
            assert not report.sizes_ok
    print(
        "[AC-08] PASS four-large hypotheses hold for n=2..4 on the block witness; "
        "the refutation family fails inner-growing at every n"
    )


def test_criterion_09_matchings_and_union_overlay():
    runs_checked = 0
    for bundle_name, machine_name, machine in machine_items():
        for word in sorted(enumerate_language(machine, 10)):
            for run in enumerate_runs(machine, word, cap=20):
                matching = extract_matching(run, word, owner=1)
                ok, witness = is_well_nested(matching.arcs)
                assert ok, (bundle_name, machine_name, word, witness)
                runs_checked += 1
    assert runs_checked >= 2000

    # two well-nested matchings overlay into a well-nested union exactly
    # when no arc of one crosses an arc of the other
    rng = random.Random(11)
    for trial in range(200):
        length = rng.randrange(2, 12)
        first = random_stack_matching(rng, length, 1)
        second = random_stack_matching(rng, length, 2)
        word = "x" * length
        crossing = crossing_pairs(Matching(word, 1, first), Matching(word, 2, second))
        ok_flat, _ = is_well_nested(first + second)
        assert (not crossing) == ok_flat, (trial, first, second)
    print(
        f"[AC-09] PASS {runs_checked} corpus runs give well-nested matchings; "
        f"200 random union overlays agree with the flat check"
    )


def test_criterion_10_grammar_pipeline_against_cyk():
    for bundle in grammar_bundles():
        grammar = bundle.grammar
        cnf = to_cnf(grammar)
        machine = gnf_to_pda(to_gnf(cnf))
        language = enumerate_language(machine, 8)
        terminals = sorted(grammar.terminals)
        oracle = {
            "".join(chars)
            for n in range(9)
            for chars in itertools.product(terminals, repeat=n)
            if cyk_membership(cnf, "".join(chars))
        }
        assert language == oracle, bundle.name
    print(
        "[AC-10] PASS all five grammar machines agree with span parsing up to "
        "length 8"
    )
