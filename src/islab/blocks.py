"""Block-counting languages and the intersection characterization.

A word is split into consecutive blocks over pairwise disjoint
sub-alphabets; a specification constrains some pairs of blocks to have
equal length.  Two such specifications over the same block structure have
a context-free intersection exactly when their combined constraint arcs
are well nested and share no endpoints; the characterization is
constructive in both directions, producing a single joint machine in the
positive case and a family of pumping witnesses in the negative one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .arcs import Arc, SegmentDecomposition, crosses, is_well_nested
from .pda import FINAL_STATE_BOTTOM_ONLY, JsonFields, Pda, StackAction, Transition

BLOCKS_FORMAT = "blocks-v1"

CROSSING = "crossing"
SHARED_ENDPOINT = "shared-endpoint"


class NoCrossing(ValueError):
    """Raised when an operation needs a crossing violation but was handed
    a shared-endpoint one (or none at all)."""


def _balanced(counts: list, constraints: tuple) -> bool:
    return all(counts[l - 1] == counts[r - 1] for l, r in constraints)


@dataclass(frozen=True)
class BlockSpec:
    """One machine's view: block alphabets plus equal-length constraints.

    Constraints are pairs (l, r) of 1-based block indices with l < r; they
    must be well nested and no block may appear in two constraints, which
    is what makes the language recognizable by a single counting machine.
    The symbol -> block map that membership scans with is built once, at
    construction, and kept on the instance.
    """

    alphabets: tuple
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "alphabets", tuple(frozenset(a) for a in self.alphabets)
        )
        object.__setattr__(
            self, "constraints", tuple(sorted(set(tuple(c) for c in self.constraints)))
        )
        if not self.alphabets:
            raise ValueError("at least one block is required")
        block_index: dict = {}
        for idx, alpha in enumerate(self.alphabets, start=1):
            if not alpha:
                raise ValueError(f"block {idx} has an empty alphabet")
            for ch in alpha:
                if not (isinstance(ch, str) and len(ch) == 1):
                    raise ValueError(f"block symbols must be single characters, got {ch!r}")
                if ch in block_index:
                    raise ValueError(f"symbol {ch!r} appears in two block alphabets")
                block_index[ch] = idx
        # not a field: per instance, and left out of equality and repr
        object.__setattr__(self, "_block_index", block_index)
        endpoints: set = set()
        for l, r in self.constraints:
            if not (1 <= l < r <= self.k):
                raise ValueError(f"constraint {(l, r)} out of range for k={self.k}")
            for e in (l, r):
                if e in endpoints:
                    raise ValueError(f"block {e} appears in two constraints")
                endpoints.add(e)
        ok, bad = is_well_nested(Arc(l, r) for l, r in self.constraints)
        if not ok:
            raise ValueError(f"constraints {bad[0].positions()} and {bad[1].positions()} cross")

    @property
    def k(self) -> int:
        return len(self.alphabets)

    def block_counts(self, word: str):
        """Per-block symbol counts, or None when the word does not scan as
        consecutive blocks in order."""
        block_index = self._block_index
        counts = [0] * self.k
        current = 1
        for ch in word:
            idx = block_index.get(ch)
            if idx is None or idx < current:
                return None
            current = idx
            counts[idx - 1] += 1
        return counts

    def contains(self, word: str) -> bool:
        counts = self.block_counts(word)
        return counts is not None and _balanced(counts, self.constraints)


@dataclass(frozen=True)
class Violation:
    kind: str
    first: tuple
    second: tuple

    def blocks(self) -> frozenset:
        return frozenset(self.first) | frozenset(self.second)


@dataclass(frozen=True)
class Verdict:
    is_cfl: bool
    reason: str
    violation: Violation | None = None

    @property
    def outcome(self) -> str:
        return "CFL" if self.is_cfl else "NotCFL"


@dataclass(frozen=True)
class JointSpec:
    """Two constraint sets over one shared block structure.

    Both sides are validated and built once, at construction, and kept on
    the instance: `side` and `in_intersection` reuse them on every call.
    """

    alphabets: tuple
    c1: tuple
    c2: tuple

    def __post_init__(self):
        first = BlockSpec(self.alphabets, self.c1)
        second = BlockSpec(self.alphabets, self.c2)
        object.__setattr__(self, "alphabets", first.alphabets)
        object.__setattr__(self, "c1", first.constraints)
        object.__setattr__(self, "c2", second.constraints)
        # not a field: per instance, and left out of equality and repr
        object.__setattr__(self, "_sides", (first, second))

    @property
    def k(self) -> int:
        return len(self.alphabets)

    def side(self, which: int) -> BlockSpec:
        if which not in (1, 2):
            raise ValueError("side must be 1 or 2")
        return self._sides[which - 1]

    def in_intersection(self, word: str) -> bool:
        """Block membership on both sides; the word is scanned once, since
        the sides share their blocks."""
        counts = self._sides[0].block_counts(word)
        return (
            counts is not None
            and _balanced(counts, self.c1)
            and _balanced(counts, self.c2)
        )


def is_jointly_well_nested(j: JointSpec):
    """Returns (True, None) or (False, first violation in constraint order).

    Identical arcs present on both sides impose the same condition twice
    and are not a violation.
    """
    for e1 in j.c1:
        for e2 in j.c2:
            if e1 == e2:
                continue
            if set(e1) & set(e2):
                return False, Violation(SHARED_ENDPOINT, e1, e2)
            if crosses(*e1, *e2) or crosses(*e2, *e1):
                return False, Violation(CROSSING, e1, e2)
    return True, None


def characterize(j: JointSpec) -> Verdict:
    ok, violation = is_jointly_well_nested(j)
    if ok:
        return Verdict(
            is_cfl=True,
            reason="combined constraint arcs are well nested with distinct "
            "endpoints; a single joint machine recognizes the intersection",
        )
    detail = (
        f"constraints {violation.first} and {violation.second} "
        + ("share a block" if violation.kind == SHARED_ENDPOINT else "cross")
    )
    return Verdict(
        is_cfl=False,
        reason=f"{detail}; the intersection admits no context-free recognizer",
        violation=violation,
    )


def _counting_machine(alphabets: tuple, arcs) -> Pda:
    marker = {arc: f"X{arc[0]}_{arc[1]}" for arc in arcs}
    pushes = {l: marker[(l, r)] for l, r in arcs}
    pops = {r: marker[(l, r)] for l, r in arcs}
    k = len(alphabets)

    def action_for(block: int) -> StackAction:
        if block in pushes:
            return StackAction.push(pushes[block])
        if block in pops:
            return StackAction.pop(pops[block])
        return StackAction.none()

    states = [f"b{i}" for i in range(k + 1)]
    transitions = []
    for i in range(k + 1):
        for m in range(max(i, 1), k + 1):
            for ch in sorted(alphabets[m - 1]):
                transitions.append(Transition(states[i], ch, action_for(m), states[m]))
    return Pda(
        states=states,
        input_alphabet=set().union(*alphabets),
        stack_alphabet={"$"} | set(marker.values()),
        transitions=transitions,
        start=states[0],
        bottom="$",
        accept=states,
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


def build_block_pda(spec: BlockSpec) -> Pda:
    """Normal-form machine for one side: control tracks the current block,
    each constrained left block pushes a marker private to its arc and the
    matching right block pops it, so empty-stack acceptance enforces every
    equality at once."""
    return _counting_machine(spec.alphabets, sorted(spec.constraints))


def build_joint_pda(j: JointSpec) -> Pda:
    """One normal-form machine for the intersection of both sides; requires
    joint well-nestedness so the combined markers obey stack discipline."""
    ok, violation = is_jointly_well_nested(j)
    if not ok:
        raise ValueError(
            f"not jointly well nested: {violation.kind} between "
            f"{violation.first} and {violation.second}"
        )
    return _counting_machine(j.alphabets, sorted(set(j.c1) | set(j.c2)))


def witness_blocks(j: JointSpec, violation: Violation) -> frozenset:
    """Blocks connected to the violating arcs through the constraint graph.

    These are the blocks that must grow together in the witness family;
    every other block can stay empty while both sides remain satisfied.
    """
    edges = set(j.c1) | set(j.c2)
    reached = set(violation.blocks())
    changed = True
    while changed:
        changed = False
        for l, r in edges:
            if (l in reached) != (r in reached):
                reached |= {l, r}
                changed = True
    return frozenset(reached)


def _witness_lengths(j: JointSpec, violation: Violation, n: int) -> list:
    """Per-block lengths of the witness: n for every violation-connected
    block, 0 for the rest."""
    if n < 0:
        raise ValueError("witness size must be nonnegative")
    large = witness_blocks(j, violation)
    return [n if idx in large else 0 for idx in range(1, j.k + 1)]


def _spell(j: JointSpec, lengths: list) -> str:
    return "".join(min(alpha) * length for alpha, length in zip(j.alphabets, lengths))


def witness_string(j: JointSpec, violation: Violation, n: int) -> str:
    """Member of the intersection with every violation-connected block of
    length n and all remaining blocks empty."""
    return _spell(j, _witness_lengths(j, violation, n))


def witness_decomposition(j: JointSpec, violation: Violation, n: int):
    """Witness word plus the four-segment split induced by a crossing.

    For crossing arcs (l1, r1) and (l2, r2) with l1 < l2 < r1 < r2 the
    cuts sit at the ends of blocks l1, l2 and r1, so segment two spans
    blocks l1+1..l2 and segment three spans l2+1..r1.
    """
    if violation.kind != CROSSING:
        raise NoCrossing("segment decomposition is defined for crossings only")
    first, second = violation.first, violation.second
    if not crosses(*first, *second):
        first, second = second, first
    (l1, r1), (l2, _) = first, second
    lengths = _witness_lengths(j, violation, n)
    ends = list(accumulate(lengths, initial=0))
    return _spell(j, lengths), SegmentDecomposition(ends[-1], ends[l1], ends[l2], ends[r1])


@dataclass(frozen=True)
class LinkagePackage:
    """A pumping work order: witness word, its four-segment split, and the
    segment pairs whose linkage the crossing is claimed to force."""

    word: str
    decomposition: SegmentDecomposition
    claims: tuple


def segments_and_linkages(j: JointSpec, violation: Violation, n: int) -> LinkagePackage:
    """Bundle the crossing witness at size n with the two linkage claims
    ((1, 3) and (2, 4)) ready for verification against a membership oracle."""
    word, decomposition = witness_decomposition(j, violation, n)
    return LinkagePackage(word=word, decomposition=decomposition, claims=((1, 3), (2, 4)))


def joint_to_json(j: JointSpec) -> dict:
    return {
        "format": BLOCKS_FORMAT,
        "k": j.k,
        "alphabets": [sorted(a) for a in j.alphabets],
        "c1": [list(c) for c in j.c1],
        "c2": [list(c) for c in j.c2],
    }


def joint_from_json(data: dict) -> JointSpec:
    doc = JsonFields(data)
    doc.check_format(BLOCKS_FORMAT)
    alphabets = tuple(frozenset(a) for a in doc.lists("alphabets"))
    k = doc.value("k", int, type(None), default=None)
    if k is not None and k != len(alphabets):
        raise ValueError("declared k disagrees with the alphabet list")
    return JointSpec(alphabets=alphabets, c1=_constraints(doc, "c1"), c2=_constraints(doc, "c2"))


def _constraints(doc: JsonFields, key: str) -> tuple:
    pairs = doc.lists(key, int)
    for i, pair in enumerate(pairs):
        if len(pair) != 2:
            raise ValueError(f"{key}[{i}] must be a pair of block indices, got {len(pair)} items")
    return tuple(tuple(pair) for pair in pairs)
