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
"""

from __future__ import annotations

from dataclasses import dataclass

from .pda import DEFAULT_LIMITS, POP, PUSH, AcceptingRun, SearchLimits, enumerate_runs


class UnbalancedRun(Exception):
    """Run steps are not stack-consistent (bad pop, or residuals that the
    final configuration contradicts)."""


class SourceMismatch(Exception):
    """Two matchings being compared were extracted from different words."""


class PreconditionViolated(Exception):
    pass


class InconclusiveRegime(Exception):
    """Measure growth across sizes is neither constant nor strictly growing."""

    def __init__(self, message: str, evidence: tuple):
        super().__init__(message)
        self.evidence = evidence


REGIME_NO_CROSSINGS = "no-crossings"
REGIME_BOUNDED_GAP = "bounded-gap"
REGIME_BOUNDED_INNER = "bounded-inner-unbounded-gap"
REGIME_GROWING_INNER = "growing-inner"


@dataclass(frozen=True)
class Arc:
    """One matched push/pop pair.  push_pos <= pop_pos, both 1-based.
    push_ordinal is 1 for the first push at that position, 2 for an
    auxiliary second push."""

    push_pos: int
    pop_pos: int
    owner: int = 1
    push_ordinal: int = 1

    def positions(self) -> tuple[int, int]:
        return (self.push_pos, self.pop_pos)


@dataclass(frozen=True)
class Matching:
    word: str
    owner: int
    arcs: tuple[Arc, ...]


def extract_matching(run: AcceptingRun, word: str, owner: int = 1) -> Matching:
    """Pair pushes with pops along the run's steps.

    Unmatched pushes (possible under plain final-state acceptance) yield no
    arc but must agree with the run's final stack; any inconsistency raises
    UnbalancedRun.
    """
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
                raise UnbalancedRun(f"pop of {action.symbol!r} with no pending push")
            sym, pos, ordinal = pending.pop()
            if sym != action.symbol:
                raise UnbalancedRun(f"pop of {action.symbol!r} does not match pushed {sym!r}")
            arcs.append(Arc(pos, s.input_pos, owner, ordinal))
    if len(pending) != len(run.final.stack) - 1:
        raise UnbalancedRun(
            f"{len(pending)} unmatched pushes but final stack depth {len(run.final.stack)}"
        )
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


def union_well_nested(first, second) -> tuple[bool, tuple[Arc, Arc] | None]:
    """Whether two individually well-nested arc sets stay well nested when
    overlaid.  Since each side is well nested on its own, the union is well
    nested exactly when no arc of one side crosses an arc of the other."""
    ok1, bad1 = is_well_nested(first)
    if not ok1:
        raise PreconditionViolated(f"first arc set is not well nested: {bad1}")
    ok2, bad2 = is_well_nested(second)
    if not ok2:
        raise PreconditionViolated(f"second arc set is not well nested: {bad2}")
    return is_well_nested(tuple(first) + tuple(second))


@dataclass(frozen=True)
class CrossingPair:
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


@dataclass(frozen=True)
class SegmentDecomposition:
    """The four-way split a crossing pair induces on its word:
    P1 = w[1..i], P2 = w[i+1..i'], P3 = w[i'+1..j], P4 = w[j+1..|w|].

    Cuts outside 0 <= i <= i' <= j <= word_len raise ValueError."""

    word_len: int
    i: int
    i_prime: int
    j: int

    def __post_init__(self):
        if not 0 <= self.i <= self.i_prime <= self.j <= self.word_len:
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


@dataclass(frozen=True)
class CrossingMeasures:
    gap: int
    inner: int


@dataclass(frozen=True)
class CrossingAnalysis:
    pair: CrossingPair
    decomposition: SegmentDecomposition
    measures: CrossingMeasures


def measures_of(pair: CrossingPair) -> CrossingMeasures:
    gap = max(pair.i_prime - pair.i, pair.j_prime - pair.j)
    inner = max(pair.i_prime - pair.i, pair.j - pair.i_prime)
    return CrossingMeasures(gap=gap, inner=inner)


def crossing_pairs(m1: Matching, m2: Matching) -> list[CrossingAnalysis]:
    """All cross-machine crossing pairs, sorted by (i, i', j, j')."""
    if m1.word != m2.word:
        raise SourceMismatch(f"matchings over different words: {m1.word!r} vs {m2.word!r}")
    if m1.owner == m2.owner:
        raise PreconditionViolated("crossing pairs need matchings from two distinct machines")
    n = len(m1.word)
    out = []
    for a in m1.arcs:
        i, j = a.push_pos, a.pop_pos
        for b in m2.arcs:
            i_prime, j_prime = b.push_pos, b.pop_pos
            if crosses(i, j, i_prime, j_prime):
                pair = CrossingPair(a, b)
            elif crosses(i_prime, j_prime, i, j):
                pair = CrossingPair(b, a)
            else:
                continue
            deco = SegmentDecomposition(n, pair.i, pair.i_prime, pair.j)
            out.append(CrossingAnalysis(pair, deco, measures_of(pair)))
    out.sort(
        key=lambda c: (c.pair.i, c.pair.i_prime, c.pair.j, c.pair.j_prime)
    )
    return out


@dataclass(frozen=True)
class PairAnalysis:
    """Crossing analyses for one (run of machine 1, run of machine 2) pair."""

    run_index_1: int
    run_index_2: int
    matching_1: Matching
    matching_2: Matching
    crossings: tuple[CrossingAnalysis, ...]


def analyze_pair(
    machine_1,
    machine_2,
    word: str,
    runs_cap: int = 1,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> list[PairAnalysis]:
    """Overlay matchings of two machines on one word.

    Every combination of the first runs_cap runs of each machine, in
    deterministic order, is analyzed; by default the first run of each.
    Words rejected by either machine give an empty list.  A runs_cap below
    1 raises ValueError, since it would analyze nothing on any word.
    """
    if runs_cap < 1:
        raise ValueError(f"runs_cap must be at least 1, got {runs_cap}")
    return analyze_runs(
        word,
        enumerate_runs(machine_1, word, cap=runs_cap, limits=limits),
        enumerate_runs(machine_2, word, cap=runs_cap, limits=limits),
    )


def analyze_runs(word: str, runs_1: list, runs_2: list) -> list[PairAnalysis]:
    """Crossing analyses for every (run of machine 1, run of machine 2)
    combination on `word`, in list order; empty when either list is."""
    out = []
    for idx1, r1 in enumerate(runs_1):
        m1 = extract_matching(r1, word, owner=1)
        for idx2, r2 in enumerate(runs_2):
            m2 = extract_matching(r2, word, owner=2)
            out.append(
                PairAnalysis(idx1, idx2, m1, m2, tuple(crossing_pairs(m1, m2)))
            )
    return out


@dataclass(frozen=True)
class EvidenceRow:
    word_len: int
    pair_count: int
    max_gap: int | None
    max_inner: int | None


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    evidence: tuple[EvidenceRow, ...]


def _growth(values: list[int]) -> str:
    if all(v == values[0] for v in values):
        return "constant"
    if all(a < b for a, b in zip(values, values[1:])):
        return "growing"
    return "mixed"


def classify_family(samples: list[tuple[str, list[CrossingMeasures]]]) -> RegimeReport:
    """Classify measure growth over word samples of increasing size.

    Each sample is (word, crossing measures found on it).  Requires at least
    two samples.  Growth detection is deliberately blunt: a measure series is
    bounded when constant across all samples and unbounded when strictly
    increasing; anything in between raises InconclusiveRegime.
    """
    if len(samples) < 2:
        raise PreconditionViolated("need at least two sample sizes to classify")
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
        raise InconclusiveRegime("crossing pairs appear at some sizes but not others", evidence)
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
    raise InconclusiveRegime(
        f"measure growth is mixed (gap {gap_growth}, inner {inner_growth})", evidence
    )
