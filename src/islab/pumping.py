"""Exhaustive pump-sensitive linkage checks over four-segment splits.

A word is split into four consecutive segments by three cuts.  A segment
pair (first and third, or second and fourth) is pump-sensitively linked
for a language when every factorization u v x y z whose pumping window
vxy meets exactly one member of the pair and misses the other, with v or
y nonempty, pumps out of the language: u v v x y y z is not a member.
The checker enumerates every factorization of the given word, so its
verdicts are exact for that word while remaining finite evidence about
the family it was drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arcs import SegmentDecomposition

FOUR_LARGE = "four-large"
INNER_GROWING = "inner-growing"

OUTER_PAIR = (1, 3)
INNER_PAIR = (2, 4)


@dataclass(frozen=True)
class Factorization:
    cuts: tuple  # (a, b, c, d) with u=w[:a], v=w[a:b], x=w[b:c], y=w[c:d]

    def parts(self, word: str) -> tuple:
        a, b, c, d = self.cuts
        return (word[:a], word[a:b], word[b:c], word[c:d], word[d:])

    def pumped(self, word: str) -> str:
        u, v, x, y, z = self.parts(word)
        return u + v + v + x + y + y + z

    def window(self) -> tuple:
        return (self.cuts[0], self.cuts[3])


@dataclass(frozen=True)
class Counterexample:
    factorization: Factorization
    parts: tuple
    pumped: str


@dataclass(frozen=True)
class LinkageReport:
    pair: tuple
    holds: bool
    vacuous: bool
    counterexample: Counterexample | None
    examined: int
    relevant: int
    oracle_calls: int


@dataclass(frozen=True)
class CaseTrace:
    label: str
    touched: tuple
    invoked_pair: tuple | None


@dataclass(frozen=True)
class HypothesesReport:
    mode: str
    n: int
    segment_lengths: tuple
    sizes_ok: bool
    outer_linkage: LinkageReport
    inner_linkage: LinkageReport
    holds: bool
    note: str


def _meets(window: tuple, interval: tuple) -> bool:
    return max(window[0], interval[0]) < min(window[1], interval[1])


def check_linkage(
    oracle, word: str, cuts: SegmentDecomposition, pair: tuple = OUTER_PAIR
) -> LinkageReport:
    """Exhaustively test one segment pair; the reported counterexample, if
    any, is the first in window-width order.

    Factorizations are taken by window width, then window start, then b,
    then c.  `examined` counts every factorization up to the reported one
    (all C(|w|+4, 4) when the linkage holds), `relevant` those whose window
    meets exactly one member of the pair and that pump something, and
    `oracle_calls` the distinct pumped words asked of `oracle`, a membership
    predicate for the language under test.  When either member of the pair
    is empty the linkage holds vacuously and no factorization is examined.
    """
    if pair not in (OUTER_PAIR, INNER_PAIR):
        raise ValueError(f"pair must be {OUTER_PAIR} or {INNER_PAIR}")
    intervals = cuts.intervals(word)
    member_a = intervals[pair[0] - 1]
    member_b = intervals[pair[1] - 1]
    if member_a[0] == member_a[1] or member_b[0] == member_b[1]:
        return LinkageReport(pair, True, True, None, 0, 0, 0)
    n = len(word)
    memo: dict = {}
    examined = 0
    relevant = 0
    for width in range(n + 1):
        # (b, c) with a <= b <= c <= d: the factorizations of one window
        per_window = (width + 1) * (width + 2) // 2
        for a in range(n - width + 1):
            d = a + width
            window = (a, d)
            if _meets(window, member_a) == _meets(window, member_b):
                examined += per_window
                continue
            # u v v x y y z == w[:b] + w[a:b] + w[b:d] + w[c:]
            for b in range(a, d + 1):
                head = word[:b] + word[a:b] + word[b:d]
                # at b == a, c == d nothing is pumped: examined, not relevant
                for c in range(b, d + 1) if b > a else range(a, d):
                    examined += 1
                    relevant += 1
                    pumped = head + word[c:]
                    hit = memo.get(pumped)
                    if hit is None:
                        hit = memo[pumped] = bool(oracle(pumped))
                    if hit:
                        fact = Factorization((a, b, c, d))
                        return LinkageReport(
                            pair,
                            False,
                            False,
                            Counterexample(fact, fact.parts(word), pumped),
                            examined,
                            relevant,
                            len(memo),
                        )
                if b == a:
                    examined += 1
    return LinkageReport(pair, True, False, None, examined, relevant, len(memo))


def case_trace(
    word: str, cuts: SegmentDecomposition, factorization: Factorization
) -> CaseTrace:
    """Which segments the pumping window meets, and which linkage that
    invokes: the outer pair when exactly one of segments one and three is
    met, else the inner pair when exactly one of two and four is, else
    none."""
    intervals = cuts.intervals(word)
    window = factorization.window()
    touched = tuple(
        idx for idx, iv in enumerate(intervals, start=1) if _meets(window, iv)
    )
    if not touched:
        label = "empty-window"
    elif len(touched) == 1:
        label = f"inside-segment-{touched[0]}"
    elif len(touched) == 2:
        label = f"straddle-segments-{touched[0]}-{touched[1]}"
    else:
        label = "multi-straddle"
    if (1 in touched) != (3 in touched):
        invoked = OUTER_PAIR
    elif (2 in touched) != (4 in touched):
        invoked = INNER_PAIR
    else:
        invoked = None
    return CaseTrace(label, touched, invoked)


def check_crossing_hypotheses(
    oracle, word: str, cuts: SegmentDecomposition, mode: str, n: int
) -> HypothesesReport:
    """Size conditions plus both linkages for one witness word.

    four-large asks all four segments to have length at least n;
    inner-growing asks it only of the two inner segments.  The verdict is
    exact for this word and finite evidence only for its family.
    """
    if mode not in (FOUR_LARGE, INNER_GROWING):
        raise ValueError(f"mode must be {FOUR_LARGE!r} or {INNER_GROWING!r}")
    if n < 1:
        raise ValueError("size threshold must be positive")
    lengths = cuts.lengths()
    if mode == FOUR_LARGE:
        sizes_ok = all(length >= n for length in lengths)
    else:
        sizes_ok = lengths[1] >= n and lengths[2] >= n
    outer = check_linkage(oracle, word, cuts, OUTER_PAIR)
    inner = check_linkage(oracle, word, cuts, INNER_PAIR)
    return HypothesesReport(
        mode=mode,
        n=n,
        segment_lengths=lengths,
        sizes_ok=sizes_ok,
        outer_linkage=outer,
        inner_linkage=inner,
        holds=sizes_ok and outer.holds and inner.holds,
        note="exhaustive for this word; finite evidence only for the family",
    )
