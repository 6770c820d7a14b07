"""Push-pop arc geometry.

A run of a normal-form machine induces a matching: every push is paired with
the pop that removes it, giving an arc (push position, pop position) over
1-based input positions.  Auxiliary second pushes inherit the position of the
read that triggered them.  Matchings from a single run are well nested; the
interesting structure appears when two machines' matchings on the same word
are overlaid and arcs from different machines cross.

The geometry is decided here alone: whether two arcs cross (`crosses`, also
for block constraints), well-nestedness (`is_well_nested`), and the split
w = P1 P2 P3 P4 a crossing induces (`SegmentDecomposition`).
`classify_family` returns every regime as a `RegimeReport`, the
inconclusive one with a `detail`; inputs the geometry is not defined on,
such as matchings of two different words, raise `PreconditionViolated`.

`crossing_pairs` finds the crossings of two matchings in one left-to-right
sweep per direction, in O(n log n + K) time for n arcs and K crossings.
It opens one machine's arcs in push order on a stack: they nest, so the
arcs open at a position i' lie on the stack innermost on top, and the ones
that cross an arc (i', j') of the other machine, those popped before j',
are a run at the top.  Each matching is first checked to be well nested in
one stack pass, and refused if not.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .pda import (
    MAX_CONFIGS,
    POP,
    PUSH,
    AcceptingRun,
    _set,
    _Value,
    enumerate_runs,
)


class UnbalancedRun(ValueError):
    """Run steps are not stack-consistent (bad pop, or residuals that the
    final configuration contradicts)."""


class PreconditionViolated(ValueError):
    """An input outside what the geometry is defined on."""


REGIME_NO_CROSSINGS = "no-crossings"
REGIME_BOUNDED_GAP = "bounded-gap"
REGIME_BOUNDED_INNER = "bounded-inner-unbounded-gap"
REGIME_GROWING_INNER = "growing-inner"
REGIME_INCONCLUSIVE = "inconclusive"


class Arc(_Value):
    """One matched push/pop pair.  push_pos <= pop_pos, both 1-based.
    push_ordinal is 1 for the first push at that position, 2 for an
    auxiliary second push."""

    _fields = ("push_pos", "pop_pos", "owner", "push_ordinal")

    def __init__(self, push_pos: int, pop_pos: int, owner: int = 1, push_ordinal: int = 1):
        _set(self, "push_pos", push_pos)
        _set(self, "pop_pos", pop_pos)
        _set(self, "owner", owner)
        _set(self, "push_ordinal", push_ordinal)

    def positions(self) -> tuple[int, int]:
        return (self.push_pos, self.pop_pos)


class Matching(NamedTuple):
    word: str
    owner: int
    arcs: tuple[Arc, ...]


def extract_matching(run: AcceptingRun, word: str, owner: int = 1) -> Matching:
    """Pair pushes with pops along the run's steps.

    Unmatched pushes (possible under plain final-state acceptance) yield no
    arc but must agree with the run's final stack.  UnbalancedRun names the
    machine and the position of a bad pop, or of the first unmatched push.
    """

    def refuse(pos: int, problem: str) -> UnbalancedRun:
        return UnbalancedRun(f"machine {owner} at position {pos}: {problem}")

    pending: list[tuple[str, int, int]] = []
    per_pos: dict[int, int] = {}
    arcs = []
    for s in run.steps:
        action = s.transition.action
        if action.kind == PUSH:
            ordinal = per_pos.get(s.input_pos, 0) + 1
            per_pos[s.input_pos] = ordinal
            pending.append((action.symbol, s.input_pos, ordinal))
        elif action.kind == POP:
            if not pending:
                raise refuse(s.input_pos, f"pop of {action.symbol!r} with no pending push")
            sym, pos, ordinal = pending.pop()
            if sym != action.symbol:
                raise refuse(s.input_pos, f"pop of {action.symbol!r} does not match pushed {sym!r}")
            arcs.append(Arc(pos, s.input_pos, owner, ordinal))
    depth = len(run.final.stack)
    if len(pending) != depth - 1:
        at = pending[0][1] if pending else run.final.input_pos
        raise refuse(at, f"{len(pending)} unmatched pushes but final stack depth {depth}")
    arcs.sort(key=lambda a: (a.push_pos, a.pop_pos, a.push_ordinal))
    return Matching(word, owner, tuple(arcs))


def crosses(i: int, j: int, i_prime: int, j_prime: int) -> bool:
    """Whether arc (i, j) crosses arc (i', j') from the left: i < i' < j < j'.
    Arcs that share an endpoint do not cross."""
    return i < i_prime < j < j_prime


def is_well_nested(arcs) -> tuple[bool, tuple[Arc, Arc] | None]:
    """Pairwise crossing check; on failure also return the crossing pair with
    the smallest key (i, j, i', j'), which is the first one met in push
    order."""
    items = sorted(arcs, key=lambda a: (a.push_pos, a.pop_pos, a.owner, a.push_ordinal))
    for idx, a in enumerate(items):
        for b in items[idx + 1 :]:
            # b pushes no earlier than a, so only a can cross b from the left
            if crosses(a.push_pos, a.pop_pos, b.push_pos, b.pop_pos):
                return False, (a, b)
    return True, None


class CrossingPair(NamedTuple):
    """Arcs (i, j) and (i', j') from different machines with i < i' < j < j'."""

    first: Arc
    second: Arc

    @property
    def i(self) -> int:
        return self.first.push_pos

    @property
    def i_prime(self) -> int:
        return self.second.push_pos

    @property
    def j(self) -> int:
        return self.first.pop_pos

    @property
    def j_prime(self) -> int:
        return self.second.pop_pos


class SegmentDecomposition(_Value):
    """The four-way split a crossing pair induces on its word:
    P1 = w[1..i], P2 = w[i+1..i'], P3 = w[i'+1..j], P4 = w[j+1..|w|].

    Cuts outside 0 <= i <= i' <= j <= word_len raise ValueError."""

    _fields = ("word_len", "i", "i_prime", "j")

    def __init__(self, word_len: int, i: int, i_prime: int, j: int):
        _set(self, "word_len", word_len)
        _set(self, "i", i)
        _set(self, "i_prime", i_prime)
        _set(self, "j", j)
        if not 0 <= i <= i_prime <= j <= word_len:
            raise ValueError(f"cuts {self.cuts()} out of order for word length {self.word_len}")

    def intervals(self, word: str | None = None) -> tuple:
        """0-based (start, end) offsets of P1..P4, each segment being
        word[start:end].  Given a word, first refuse it unless the split
        was made for its length."""
        if word is not None and len(word) != self.word_len:
            n = self.word_len
            raise ValueError(f"cuts made for a different word length: {n}, not {len(word)}")
        i, i_prime, j = self.cuts()
        return ((0, i), (i, i_prime), (i_prime, j), (j, self.word_len))

    def lengths(self) -> tuple[int, int, int, int]:
        return tuple(end - start for start, end in self.intervals())

    def cuts(self) -> tuple[int, int, int]:
        """0-based cut offsets: segment m is word[cuts[m-1]:cuts[m]]."""
        return (self.i, self.i_prime, self.j)

    def parts(self, word: str) -> tuple[str, str, str, str]:
        return tuple(word[start:end] for start, end in self.intervals(word))


class CrossingMeasures(NamedTuple):
    gap: int
    inner: int


class CrossingAnalysis(NamedTuple):
    pair: CrossingPair
    decomposition: SegmentDecomposition
    measures: CrossingMeasures


def _measures(i: int, i_prime: int, j: int, j_prime: int) -> CrossingMeasures:
    return CrossingMeasures(gap=max(i_prime - i, j_prime - j), inner=max(i_prime - i, j - i_prime))


def measures_of(pair: CrossingPair) -> CrossingMeasures:
    return _measures(pair.i, pair.i_prime, pair.j, pair.j_prime)


_PUSH = attrgetter("push_pos")
_POP = attrgetter("pop_pos")
# an arc that stays open over every position: the bottom of each open-arc stack
_OUTERMOST = Arc(0, float("inf"))


def _push_order(matching: Matching):
    """The arcs of `matching` in push order, the outer arc first where two
    share a push position: the order in which a left-to-right sweep opens
    them.  Raise PreconditionViolated, naming the owner and two arcs, if
    any two of them cross."""
    arcs = matching.arcs
    if not _nested_in_push_order(arcs, matching.owner):
        # two stable sorts on C-level keys: by pop descending, then by push
        arcs = sorted(arcs, key=_POP, reverse=True)
        arcs.sort(key=_PUSH)
        _nested_in_push_order(arcs, matching.owner)
    return arcs


def _nested_in_push_order(arcs, owner: int) -> bool:
    """False if `arcs` are not in push order, outer first at a shared push.
    Otherwise check each arc against the innermost arc still open at its
    push, the only one it can cross since the open arcs nest: raise
    PreconditionViolated on a crossing, and return True if there is none."""
    open_arcs = [_OUTERMOST]
    top = _OUTERMOST
    last_push = last_pop = float("-inf")
    for b in arcs:
        push = b.push_pos
        if push <= last_push and (push < last_push or b.pop_pos > last_pop):
            return False
        last_push, last_pop = push, b.pop_pos
        while top.pop_pos <= push:
            open_arcs.pop()
            top = open_arcs[-1]
        if top.pop_pos < b.pop_pos:
            raise PreconditionViolated(
                f"arcs of machine {owner} cross: {top.positions()} and {b.positions()}"
            )
        open_arcs.append(b)
        top = b
    return True


def _crossings_from_left(firsts, seconds, first_is_1: bool, rows: list):
    """Append a row (i, i', j, j', rank 1, rank 2, first, second) for every
    arc of `firsts` that crosses an arc of `seconds` from the left; both
    lists come in push order, and a rank is an arc's index in its list.

    The arcs of `firsts` open at i' (i < i' < j) nest, so they form a stack
    with the innermost, the one that pops first, on top.  Those that cross
    (i', j') are the ones popped before j': a run at the top of the stack."""
    open_ranks = []
    k, count = 0, len(firsts)
    for r, b in enumerate(seconds):
        i_prime = b.push_pos
        while k < count and firsts[k].push_pos < i_prime:
            push = firsts[k].push_pos
            while open_ranks and firsts[open_ranks[-1]].pop_pos <= push:
                open_ranks.pop()
            open_ranks.append(k)
            k += 1
        while open_ranks and firsts[open_ranks[-1]].pop_pos <= i_prime:
            open_ranks.pop()
        if k == count and not open_ranks:
            break
        j_prime = b.pop_pos
        for t in reversed(open_ranks):
            a = firsts[t]
            if a.pop_pos >= j_prime:
                break
            ranks = (t, r) if first_is_1 else (r, t)
            rows.append((a.push_pos, i_prime, a.pop_pos, j_prime, *ranks, a, b))


def crossing_pairs(m1: Matching, m2: Matching) -> list[CrossingAnalysis]:
    """All cross-machine crossing pairs, sorted by (i, i', j, j'); pairs
    with equal positions come in the order of their arcs in `m1.arcs`, then
    in `m2.arcs`.  PreconditionViolated if the matchings are of different
    words or of one owner, or if two arcs of one matching cross."""
    if m1.word != m2.word:
        raise PreconditionViolated(f"matchings over different words: {m1.word!r} vs {m2.word!r}")
    if m1.owner == m2.owner:
        raise PreconditionViolated("crossing pairs need matchings from two distinct machines")
    arcs_1, arcs_2 = _push_order(m1), _push_order(m2)
    rows = []
    _crossings_from_left(arcs_1, arcs_2, True, rows)
    _crossings_from_left(arcs_2, arcs_1, False, rows)
    # ranks differ between any two rows, so the sort never compares arcs
    rows.sort()
    n = len(m1.word)
    return [
        CrossingAnalysis(
            CrossingPair(a, b),
            SegmentDecomposition(n, i, i_prime, j),
            _measures(i, i_prime, j, j_prime),
        )
        for i, i_prime, j, j_prime, _, _, a, b in rows
    ]


class PairAnalysis(NamedTuple):
    """Crossing analyses for one (run of machine 1, run of machine 2) pair."""

    run_index_1: int
    run_index_2: int
    matching_1: Matching
    matching_2: Matching
    crossings: tuple[CrossingAnalysis, ...]


def analyze_pair(
    machine_1, machine_2, word: str, max_configs: int = MAX_CONFIGS
) -> list[PairAnalysis]:
    """Overlay the matchings of each machine's first accepting run on one
    word, the run `accepts` gives as its witness: one analysis, or none
    when either machine rejects the word.  To pair more runs, give lists
    from `enumerate_runs` to `analyze_runs`."""
    return analyze_runs(
        word,
        enumerate_runs(machine_1, word, cap=1, max_configs=max_configs),
        enumerate_runs(machine_2, word, cap=1, max_configs=max_configs),
    )


def analyze_runs(word: str, runs_1: list, runs_2: list) -> list[PairAnalysis]:
    """Crossing analyses for every (run of machine 1, run of machine 2)
    combination on `word`, in list order; empty when either list is."""
    matchings_1 = [extract_matching(r, word, owner=1) for r in runs_1]
    matchings_2 = [extract_matching(r, word, owner=2) for r in runs_2]
    return [
        PairAnalysis(idx1, idx2, m1, m2, tuple(crossing_pairs(m1, m2)))
        for idx1, m1 in enumerate(matchings_1)
        for idx2, m2 in enumerate(matchings_2)
    ]


class EvidenceRow(NamedTuple):
    word_len: int
    pair_count: int
    max_gap: int | None
    max_inner: int | None


class RegimeReport(NamedTuple):
    """The regime of a family, the per-size rows it rests on, and, for the
    inconclusive regime, why."""

    regime: str
    evidence: tuple[EvidenceRow, ...]
    detail: str | None = None


def _growth(values: list[int]) -> str:
    if all(v == values[0] for v in values):
        return "constant"
    if all(a < b for a, b in zip(values, values[1:])):
        return "growing"
    return "mixed"


def classify_family(samples: list[tuple[str, list[CrossingMeasures]]]) -> RegimeReport:
    """Classify measure growth over word samples of increasing size.

    Each sample is (word, crossing measures found on it).  Requires at least
    two samples whose word lengths strictly grow: a repeated size gives a
    constant series, which would read as bounded.  Growth detection is
    deliberately blunt: a measure series is bounded when constant across all
    samples and unbounded when strictly increasing; anything in between
    is the inconclusive regime, with `detail` saying why.
    """
    if len(samples) < 2:
        raise PreconditionViolated("need at least two sample sizes to classify")
    if any(len(a) >= len(b) for (a, _), (b, _) in zip(samples, samples[1:])):
        raise PreconditionViolated("sample word lengths must strictly grow")
    evidence = tuple(
        EvidenceRow(
            word_len=len(word),
            pair_count=len(ms),
            max_gap=max((m.gap for m in ms), default=None),
            max_inner=max((m.inner for m in ms), default=None),
        )
        for word, ms in samples
    )
    if all(row.pair_count == 0 for row in evidence):
        return RegimeReport(REGIME_NO_CROSSINGS, evidence)
    if any(row.pair_count == 0 for row in evidence):
        why = "crossing pairs appear at some sizes but not others"
        return RegimeReport(REGIME_INCONCLUSIVE, evidence, why)
    gaps = [row.max_gap for row in evidence]
    inners = [row.max_inner for row in evidence]
    gap_growth = _growth(gaps)
    inner_growth = _growth(inners)
    if gap_growth == "constant":
        return RegimeReport(REGIME_BOUNDED_GAP, evidence)
    if gap_growth == "growing" and inner_growth == "constant":
        return RegimeReport(REGIME_BOUNDED_INNER, evidence)
    if gap_growth == "growing" and inner_growth == "growing":
        return RegimeReport(REGIME_GROWING_INNER, evidence)
    why = f"measure growth is mixed (gap {gap_growth}, inner {inner_growth})"
    return RegimeReport(REGIME_INCONCLUSIVE, evidence, why)
