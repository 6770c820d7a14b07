"""Block-counting languages and the intersection characterization.

A word is split into consecutive blocks over pairwise disjoint
sub-alphabets; a specification constrains some pairs of blocks to have
equal length.  Two such specifications over the same block structure have
a context-free intersection exactly when their combined constraint arcs
are well nested and share no endpoints; the characterization is
constructive in both directions, producing a single joint machine in the
positive case and a family of pumping witnesses in the negative one:
`segments_and_linkages` gives a crossing's witness word and its
four-segment split.  One side is a specification whose second constraint
set is empty, so membership on one side and on the intersection both go
through one block scan, `JointSpec.in_intersection`, and both machines
through `build_joint_pda`.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import accumulate, product
from typing import NamedTuple

from .arcs import Arc, SegmentDecomposition, crosses, is_well_nested
from .pda import (
    FINAL_STATE_BOTTOM_ONLY,
    JsonFields,
    Pda,
    StackAction,
    Transition,
    _set,
    _Value,
    check_length_bound,
)

BLOCKS_FORMAT = "blocks-v1"

CROSSING = "crossing"
SHARED_ENDPOINT = "shared-endpoint"


class NoCrossing(ValueError):
    """Raised when an operation needs a crossing violation but was handed
    a shared-endpoint one (or none at all)."""


class Violation(NamedTuple):
    kind: str
    first: tuple
    second: tuple

    def blocks(self) -> frozenset:
        return frozenset(self.first) | frozenset(self.second)


class Verdict(NamedTuple):
    is_cfl: bool
    reason: str
    violation: Violation | None = None

    @property
    def outcome(self) -> str:
        return "CFL" if self.is_cfl else "NotCFL"


class JointSpec(_Value):
    """Block alphabets and two sets of equal-length constraints over them.

    Constraints are pairs (l, r) of 1-based block indices with l < r.  Each
    of c1 and c2 must be well nested and use no block twice, which is what
    makes its side recognizable by a single counting machine; one side
    alone is `JointSpec(alphabets, c, ())`, as `side` builds it.  The
    classes of the blocks that c1 and c2 together force to equal length,
    and the constraint pairs of c1 and c2 in one tuple, are built once, at
    construction, and kept on the instance.

    Membership scans with one pattern, ([A1]*)([A2]*)...([Ak]*), compiled
    on the first scan and kept on the instance.  It is called with `match`,
    not `fullmatch`: the alphabets are disjoint, so the first greedy
    attempt is the only parse and `match` never backtracks, while
    `fullmatch` backtracks through every star on a word that is not
    block-shaped.
    """

    _fields = ("alphabets", "c1", "c2")

    def __init__(self, alphabets: tuple, c1: tuple, c2: tuple):
        _set(self, "alphabets", tuple(frozenset(a) for a in alphabets))
        if not self.alphabets:
            raise ValueError("at least one block is required")
        seen: set = set()
        for idx, alpha in enumerate(self.alphabets, start=1):
            if not alpha:
                raise ValueError(f"block {idx} has an empty alphabet")
            for ch in alpha:
                if not (isinstance(ch, str) and len(ch) == 1):
                    raise ValueError(f"block symbols must be single characters, got {ch!r}")
                if ch in seen:
                    raise ValueError(f"symbol {ch!r} appears in two block alphabets")
                seen.add(ch)
        for name, side in (("c1", c1), ("c2", c2)):
            side = tuple(sorted(set(tuple(c) for c in side)))
            endpoints: set = set()
            for l, r in side:
                if not (1 <= l <= self.k and 1 <= r <= self.k):
                    raise ValueError(f"constraint {(l, r)} out of range for k={self.k}")
                if l >= r:
                    raise ValueError(f"constraint {(l, r)} needs 1 <= l < r <= {self.k}")
                for e in (l, r):
                    if e in endpoints:
                        raise ValueError(f"block {e} appears in two constraints")
                    endpoints.add(e)
            ok, bad = is_well_nested(Arc(l, r) for l, r in side)
            if not ok:
                raise ValueError(f"constraints {bad[0].positions()} and {bad[1].positions()} cross")
            _set(self, name, side)
        pairs = self.c1 + self.c2
        classes = list(range(self.k))  # union-find by relabelling: each block's class
        for l, r in pairs:
            old, new = classes[l - 1], classes[r - 1]
            classes = [new if c == old else c for c in classes]
        # not fields: per instance, and left out of equality and repr
        _set(self, "_classes", tuple(classes))
        _set(self, "_pairs", pairs)

    @property
    def k(self) -> int:
        return len(self.alphabets)

    def side(self, which: int) -> JointSpec:
        """Side 1 or 2 as a spec of its own: its constraints, and none
        beside them."""
        if which not in (1, 2):
            raise ValueError("side must be 1 or 2")
        return JointSpec(self.alphabets, (self.c1, self.c2)[which - 1], ())

    @cached_property
    def _scan(self):
        return re.compile(
            "".join(
                "([" + "".join(map(re.escape, sorted(alpha))) + "]*)"
                for alpha in self.alphabets
            )
        ).match

    def in_intersection(self, word: str) -> bool:
        """Whether the word scans as blocks with equal lengths on every
        constraint of c1 and c2.  Group l of the scan is block l, so the
        constraints are read as they stand; the first mismatch ends the
        check."""
        m = self._scan(word)
        if m.end() != len(word):
            return False
        for l, r in self._pairs:
            if len(m[l]) != len(m[r]):
                return False
        return True

    def words(self, max_len: int) -> set:
        """The words of the intersection up to max_len, generated, not
        filtered: the blocks that c1 and c2 together force to equal length
        form classes, and each way to give the classes lengths within
        max_len is filled with every choice of letters per block.  The
        alphabets are disjoint, so no word is made twice, and the cost
        follows the intersection, not the block alphabets."""
        check_length_bound(max_len)
        classes = self._classes
        sizes = {c: classes.count(c) for c in classes}
        lengths = [({}, 0)]  # class -> block length, letters used so far
        for c, size in sizes.items():
            lengths = [
                ({**fixed, c: n}, used + size * n)
                for fixed, used in lengths
                for n in range((max_len - used) // size + 1)
            ]
        letters = [sorted(alphabet) for alphabet in self.alphabets]
        out = set()
        for fixed, _ in lengths:
            bodies = [
                ["".join(body) for body in product(block, repeat=fixed[c])]
                for block, c in zip(letters, classes)
            ]
            out.update(map("".join, product(*bodies)))
        return out


def characterize(j: JointSpec) -> Verdict:
    """CFL exactly when the arcs of c1 and c2 together are well nested with
    distinct endpoints; otherwise NotCFL with the first violation in
    constraint order.  An arc present on both sides imposes the same
    condition twice and is not a violation."""
    for e1 in j.c1:
        for e2 in j.c2:
            if e1 == e2:
                continue
            if set(e1) & set(e2):
                violation = Violation(SHARED_ENDPOINT, e1, e2)
                detail = "share a block"
            elif crosses(*e1, *e2) or crosses(*e2, *e1):
                violation = Violation(CROSSING, e1, e2)
                detail = "cross"
            else:
                continue
            return Verdict(
                is_cfl=False,
                reason=f"constraints {e1} and {e2} {detail}; the intersection "
                "admits no context-free recognizer",
                violation=violation,
            )
    return Verdict(
        is_cfl=True,
        reason="combined constraint arcs are well nested with distinct "
        "endpoints; a single joint machine recognizes the intersection",
    )


def build_joint_pda(j: JointSpec) -> Pda:
    """One normal-form machine for the intersection of both sides, and for
    one side as `build_joint_pda(j.side(which))`.  Control tracks the
    current block; each constrained left block pushes a marker private to
    its arc and the matching right block pops it, so empty-stack acceptance
    enforces every equality at once.  The spec must be CFL, so that the
    markers of both sides together obey stack discipline."""
    violation = characterize(j).violation
    if violation is not None:
        raise ValueError(
            f"not jointly well nested: {violation.kind} between "
            f"{violation.first} and {violation.second}"
        )
    actions = {}
    for l, r in sorted(set(j._pairs)):
        actions[l], actions[r] = StackAction.push(f"X{l}_{r}"), StackAction.pop(f"X{l}_{r}")
    states = [f"b{i}" for i in range(j.k + 1)]
    transitions = [
        Transition(states[i], ch, actions.get(m, StackAction.none()), states[m])
        for i in range(j.k + 1)
        for m in range(max(i, 1), j.k + 1)
        for ch in sorted(j.alphabets[m - 1])
    ]
    return Pda(
        states=states,
        input_alphabet=set().union(*j.alphabets),
        stack_alphabet={"$"} | {action.symbol for action in actions.values()},
        transitions=transitions,
        start=states[0],
        bottom="$",
        accept=states,
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


def witness_blocks(j: JointSpec, violation: Violation) -> frozenset:
    """Blocks connected to the violating arcs through the constraint graph:
    the classes that hold the violation's blocks.

    These are the blocks that must grow together in the witness family;
    every other block can stay empty while both sides remain satisfied.
    """
    classes = {j._classes[block - 1] for block in violation.blocks()}
    return frozenset(b for b, c in enumerate(j._classes, start=1) if c in classes)


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


class LinkagePackage(NamedTuple):
    """A pumping work order: the witness word and its four-segment split."""

    word: str
    decomposition: SegmentDecomposition


def segments_and_linkages(j: JointSpec, violation: Violation, n: int) -> LinkagePackage:
    """The crossing witness at size n with the four-segment split its
    crossing induces, ready for `check_crossing_hypotheses`.

    For crossing arcs (l1, r1) and (l2, r2) with l1 < l2 < r1 < r2 the
    cuts sit at the ends of blocks l1, l2 and r1, so segment two spans
    blocks l1+1..l2 and segment three spans l2+1..r1.  A shared-endpoint
    violation has no such split and raises NoCrossing.
    """
    if violation.kind != CROSSING:
        raise NoCrossing("segment decomposition is defined for crossings only")
    first, second = violation.first, violation.second
    if not crosses(*first, *second):
        first, second = second, first
    (l1, r1), (l2, _) = first, second
    lengths = _witness_lengths(j, violation, n)
    ends = list(accumulate(lengths, initial=0))
    decomposition = SegmentDecomposition(ends[-1], ends[l1], ends[l2], ends[r1])
    return LinkagePackage(word=_spell(j, lengths), decomposition=decomposition)


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
