"""Context-free grammars and the normalization pipeline down to machines.

Cfg -> CnfGrammar (start wrapper, terminal lifting, binarization, nullable
and unit elimination, useless-symbol pruning) -> GnfGrammar (the
left-corner transform of the CNF grammar, in Greibach 2-standard form:
every body is a, a B or a B C) -> a normal-form machine whose control holds
the nonterminal under expansion.  Every closure of the pipeline (nullable,
unit-reachable, generating and reachable symbols) is one least fixpoint,
`_deriving`.  No stage has a budget or can refuse a grammar.
cyk_membership and CnfGrammar.words on the CNF stage are the references
the rest of the pipeline is checked against.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import chain, product
from typing import NamedTuple

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

CFG_FORMAT = "cfg-v1"


class Production(NamedTuple):
    head: str
    body: tuple[str, ...]

    def sort_key(self) -> tuple:
        return (self.head, len(self.body), self.body)


class Cfg(_Value):
    """A context-free grammar over single-character terminals.  The
    symbol sets become frozensets, and the productions are deduplicated
    and sorted at construction; a start symbol that is not a nonterminal,
    overlapping symbol sets or an undeclared body symbol raise
    ValueError."""

    _fields = ("nonterminals", "terminals", "productions", "start")

    def __init__(
        self, nonterminals: frozenset, terminals: frozenset, productions: tuple, start: str
    ):
        _set(self, "nonterminals", frozenset(nonterminals))
        _set(self, "terminals", frozenset(terminals))
        _set(self, "productions", tuple(sorted(set(productions), key=Production.sort_key)))
        _set(self, "start", start)
        if self.start not in self.nonterminals:
            raise ValueError(f"start symbol {self.start!r} not a nonterminal")
        if self.nonterminals & self.terminals:
            raise ValueError("nonterminals and terminals overlap")
        for t in self.terminals:
            if not (isinstance(t, str) and len(t) == 1):
                raise ValueError(f"terminals must be single characters, got {t!r}")
        for p in self.productions:
            if p.head not in self.nonterminals:
                raise ValueError(f"production head {p.head!r} not a nonterminal")
            for sym in p.body:
                if sym not in self.nonterminals and sym not in self.terminals:
                    raise ValueError(f"undeclared symbol {sym!r} in production body")
        self._shape_check()

    def _shape_check(self) -> None:
        pass


class CnfGrammar(Cfg):
    """Bodies are a single terminal or two nonterminals; an empty body is
    allowed only for the start symbol, which never appears on a right side.
    A grammar with no productions is the designated empty grammar."""

    def _shape_check(self) -> None:
        start_on_rhs = any(self.start in p.body for p in self.productions)
        for p in self.productions:
            b = p.body
            if b == ():
                if p.head != self.start:
                    raise ValueError(f"epsilon production on non-start {p.head!r}")
                if start_on_rhs:
                    raise ValueError("nullable start symbol appears on a right side")
            elif len(b) == 1:
                if b[0] not in self.terminals:
                    raise ValueError(f"unit production {p.head!r} -> {b[0]!r} not allowed")
            elif len(b) == 2:
                if not all(s in self.nonterminals for s in b):
                    raise ValueError(f"binary body {b!r} must be two nonterminals")
            else:
                raise ValueError(f"body {b!r} too long for this normal form")

    @property
    def derives_epsilon(self) -> bool:
        return any(p.body == () and p.head == self.start for p in self.productions)

    @cached_property
    def _cyk_index(self) -> "_CykIndex":
        return _CykIndex(self)

    def words(self, max_len: int) -> set:
        """Every word the grammar derives up to max_len, built bottom-up by
        length: a leaf rule gives a word of length 1, and a rule A -> B C
        joins the words of B and C over every split.  Only the start can
        derive the empty word, and it never appears on a right side, so no
        split is empty.  The cost follows the language, not the alphabet."""
        check_length_bound(max_len)
        # by_length[n][A]: the words of length n that A derives
        by_length = [defaultdict(set) for _ in range(max_len + 1)]
        for n in range(1, max_len + 1):
            for p in self.productions:
                if len(p.body) == 1 and n == 1:
                    by_length[1][p.head].add(p.body[0])
                elif len(p.body) == 2:
                    left, right = p.body
                    for split in range(1, n):
                        firsts, seconds = by_length[split][left], by_length[n - split][right]
                        by_length[n][p.head].update(u + v for u in firsts for v in seconds)
        found = {w for level in by_length for w in level[self.start]}
        if self.derives_epsilon:
            found.add("")
        return found


class _CykIndex(dict):
    """The bit-vector view of one CNF grammar that cyk_membership parses
    with, and the memos of its joins.

    Each nonterminal owns one bit (in sorted name order), so a set of
    nonterminals is an int mask.  `leaves` maps a terminal to the mask of
    heads producing it, and `by_left` maps a left bit to the (right bit,
    head bit) pairs of the binary rules it starts.  As a dict, the index
    maps a (left mask, right mask) pair of adjacent spans, keyed as
    `left << width | right`, to the heads A of every rule A -> B C with B
    in the left mask and C in the right one; a pair is joined on first
    lookup.  `partners` is the partner memo: it maps a right mask to the
    left nonterminals B of every rule A -> B C with C in it, also filled
    on first lookup, so a pair whose left mask shares no bit with it is
    never looked up.  `charts` holds the charts of the last words parsed
    as (word, ends), with `ends[j - 1]` the sparse column of the spans
    ending at j: one (i, mask) pair for each nonzero mask of word[i:j],
    in descending i.  It holds one chart unless calls ran at the same
    time.  One index belongs to one grammar instance and dies with it.
    """

    def __init__(self, g: CnfGrammar):
        super().__init__()
        bit = {nt: 1 << i for i, nt in enumerate(sorted(g.nonterminals))}
        self.width = len(bit)
        self.start = bit[g.start]
        self.leaves: dict[str, int] = {}
        self.by_left: dict[int, list[tuple[int, int]]] = {}
        by_right: dict[int, int] = {}
        for p in g.productions:
            if len(p.body) == 1:
                self.leaves[p.body[0]] = self.leaves.get(p.body[0], 0) | bit[p.head]
            elif len(p.body) == 2:
                left, right = bit[p.body[0]], bit[p.body[1]]
                self.by_left.setdefault(left, []).append((right, bit[p.head]))
                by_right[right] = by_right.get(right, 0) | left
        self.partners = _Partners(by_right)
        self.charts: list[tuple[str, list[list[tuple[int, int]]]]] = []

    def __missing__(self, key: int) -> int:
        width = self.width
        left, right = key >> width, key & ((1 << width) - 1)
        heads = 0
        while left:
            low = left & -left
            for right_bit, head_bit in self.by_left.get(low, ()):
                if right & right_bit:
                    heads |= head_bit
            left ^= low
        self[key] = heads
        return heads


class _Partners(dict):
    """Maps a right mask to the mask of the left bits that some binary
    rule pairs with one of its bits; `by_right` holds that mask per right
    bit, and a mask is filled on first lookup."""

    def __init__(self, by_right: dict[int, int]):
        super().__init__()
        self.by_right = by_right

    def __missing__(self, right: int) -> int:
        lefts = 0
        for right_bit, left_mask in self.by_right.items():
            if right & right_bit:
                lefts |= left_mask
        self[right] = lefts
        return lefts


class GnfGrammar(Cfg):
    """Every body is a terminal followed by at most two nonterminals.  The
    empty word is carried by the derives_epsilon flag instead of a body."""

    _fields = Cfg._fields + ("derives_epsilon",)

    def __init__(
        self,
        nonterminals: frozenset,
        terminals: frozenset,
        productions: tuple,
        start: str,
        derives_epsilon: bool = False,
    ):
        _set(self, "derives_epsilon", derives_epsilon)
        super().__init__(nonterminals, terminals, productions, start)

    def _shape_check(self) -> None:
        for p in self.productions:
            if not p.body or p.body[0] not in self.terminals:
                raise ValueError(f"body {p.body!r} must begin with a terminal")
            tail = p.body[1:]
            if len(tail) > 2:
                raise ValueError(f"tail of {p.body!r} longer than two symbols")
            if not all(s in self.nonterminals for s in tail):
                raise ValueError(f"tail of {p.body!r} must be nonterminals")


class _Names:
    """Fresh-name factory that avoids every symbol already in play."""

    def __init__(self, used):
        self.used = set(used)

    def fresh(self, base: str) -> str:
        if base not in self.used:
            self.used.add(base)
            return base
        n = 1
        while f"{base}{n}" in self.used:
            n += 1
        name = f"{base}{n}"
        self.used.add(name)
        return name


def to_cnf(g: Cfg) -> CnfGrammar:
    """Standard normalization; returns the designated empty grammar when the
    input generates nothing."""
    names = _Names(g.nonterminals | g.terminals)
    prods: set[tuple[str, tuple[str, ...]]] = {(p.head, p.body) for p in g.productions}
    nts = set(g.nonterminals)

    start = names.fresh("S0")
    nts.add(start)
    prods.add((start, (g.start,)))

    # lift terminals out of long bodies; the fresh names below are handed
    # out in sorted production order, so they do not depend on string hashing
    lifted: dict[str, str] = {}
    out = set()
    for head, body in sorted(prods):
        if len(body) >= 2:
            new_body = []
            for sym in body:
                if sym in g.terminals:
                    if sym not in lifted:
                        wrapper = names.fresh("T")
                        lifted[sym] = wrapper
                        nts.add(wrapper)
                        out.add((wrapper, (sym,)))
                    new_body.append(lifted[sym])
                else:
                    new_body.append(sym)
            out.add((head, tuple(new_body)))
        else:
            out.add((head, body))
    prods = out

    # binarize
    out = set()
    for head, body in sorted(prods):
        while len(body) > 2:
            helper = names.fresh("B")
            nts.add(helper)
            out.add((head, (body[0], helper)))
            head, body = helper, body[1:]
        out.add((head, body))
    prods = out

    # nullable elimination: each nullable symbol of a body is kept or dropped
    nullable = _deriving(prods)
    out = set()
    for head, body in prods:
        for parts in product(*[((s,), ()) if s in nullable else ((s,),) for s in body]):
            kept = tuple(chain.from_iterable(parts))
            if kept or head == start:
                out.add((head, kept))
    prods = out

    # unit elimination: A =>* B through unit rules exactly when A derives a
    # string over {B} by them, so each rule of B is copied to every such A
    units = {(head, body) for head, body in prods if len(body) == 1 and body[0] in nts}
    reach = {b: _deriving(units, {b}) | {b} for b in nts}
    prods = {(a, body) for head, body in prods - units for a in reach[head]}

    prods, keep = _prune(start, prods, g.terminals)
    return CnfGrammar(
        nonterminals=keep,
        terminals=g.terminals,
        productions=tuple(Production(h, b) for h, b in prods),
        start=start,
    )


def _deriving(prods: set, symbols=frozenset()) -> set:
    """The heads of the (head, body) pairs `prods` that derive a string over
    `symbols`, as a least fixpoint.  It is every closure of the pipeline:
    given no symbols, the nullable heads; given the terminals, the
    generating heads; over the unit rules given {B}, the heads that reach B
    through unit rules; over the pairs (symbol, (head,)), the symbols
    reachable from the given ones."""
    derived: set = set()
    changed = True
    while changed:
        changed = False
        for head, body in prods:
            if head not in derived and all(s in derived or s in symbols for s in body):
                derived.add(head)
                changed = True
    return derived


def _prune(start: str, prods: set, terminals) -> tuple[set, set]:
    """The (head, body) pairs of `prods` whose symbols all generate a word
    and are reachable from `start`, and the reachable nonterminals, both as
    `_deriving` closures: the generating heads, then the symbols in the
    bodies of kept rules with reachable heads.  When `start` generates
    nothing, no rule of it is kept, so this is (set(), {start})."""
    generating = _deriving(prods, terminals)
    kept = {(h, b) for h, b in prods if all(s in generating or s in terminals for s in b)}
    edges = {(s, (h,)) for h, b in kept for s in b if s not in terminals}
    reachable = _deriving(edges, {start}) | {start}
    return {(h, b) for h, b in kept if h in reachable}, reachable


def cyk_membership(g: CnfGrammar, w: str) -> bool:
    """Bottom-up span parsing on the CNF stage.

    The chart is kept by end position, in sparse columns: `ends[j - 1]`
    lists (i, mask) for each span w[i:j] whose nonterminal bit mask is
    nonzero, from i = j - 1 down to 0.  Column j is filled in push order,
    through the split points k from j - 1 down to 1: the cell of w[k:j],
    if nonzero, joins each cell w[i:k] of `ends[k - 1]` and adds the heads
    to the cell of w[i:j].  Only a split at some k' with k < k' < j adds
    to the cell of w[k:j], and those came first, so each cell is final
    when it is reached and goes into the sparse column then.  The left
    mask of a pair is cut to the right mask's partners first: bits
    outside them join to nothing, and a pair left with none is skipped
    before the join memo.  Everything behind the chart is kept per grammar
    instance in one _CykIndex, built on the first call: the rule masks,
    the memos of partners and of the heads that join each pair of
    adjacent spans, and the chart of the last word parsed.  A column
    depends only on the prefix it ends, so a call truncates that chart to
    the prefix it shares with the previous word and computes only the
    columns past it.  A call takes the chart off the index and puts it
    back when done, so calls on one grammar from several threads never
    share a chart.
    """
    if w == "":
        return g.derives_epsilon
    index = g._cyk_index
    try:
        word, ends = index.charts.pop()
    except IndexError:
        word, ends = "", []
    # a word after the previous one in a depth-first walk extends it, or
    # differs from it in the last letter it keeps
    shared = min(len(word), len(w))
    if word[:shared] != w[:shared]:
        shared -= 1
        if word[:shared] != w[:shared]:
            shared = 0
            while word[shared] == w[shared]:
                shared += 1
    del ends[shared:]
    leaves = index.leaves
    partners = index.partners
    shift = index.width
    for j in range(shared + 1, len(w) + 1):
        cells = [0] * j
        cells[-1] = leaves.get(w[j - 1], 0)
        column = []
        for k in range(j - 1, 0, -1):
            right = cells[k]
            if right:
                column.append((k, right))
                partner = partners[right]
                if partner:
                    for i, left in ends[k - 1]:
                        left &= partner
                        if left:
                            cells[i] |= index[(left << shift) | right]
        if cells[0]:
            column.append((0, cells[0]))
        ends.append(column)
    # read the answer before the chart goes back: once it is on the index,
    # another thread may take it and cut its columns
    i, mask = (ends[-1] or [(0, 0)])[-1]
    member = i == 0 and bool(mask & index.start)
    index.charts.append((w, ends))
    return member


def to_gnf(g: CnfGrammar) -> GnfGrammar:
    """The left-corner transform (Rosenkrantz 1967) into 2-standard form.

    For each pair of nonterminals A, B a fresh nonterminal A_B derives what
    follows the left corner B inside A: the words v with A =>* B v down the
    leftmost spine.  So A -> a A_B for each rule B -> a, and
    A_B -> d D_E A_C for each rule C -> B D and each rule E -> d.  Since a
    CNF grammar has no unit rules, X_Y derives the empty word exactly when
    X = Y; instead of an epsilon body, each body using X_X gets a second
    copy without it.  Every body is a, a X or a X Y by construction, and
    only the generating/reachable pruning iterates.
    """
    names = _Names(g.nonterminals | g.terminals)
    nts = sorted(g.nonterminals)
    # named in sorted pair order, so the names do not depend on hashing
    after = {(x, y): names.fresh(f"{x}_{y}") for x in nts for y in nts}
    leaves = [(p.head, p.body[0]) for p in g.productions if len(p.body) == 1]
    binaries = [(p.head, p.body) for p in g.productions if len(p.body) == 2]

    def bodies(terminal: str, *pairs) -> list:
        """`terminal` then X_Y for each pair (X, Y), X_X also left out."""
        out = [(terminal,)]
        for x, y in pairs:
            tail = (after[x, y],)
            out = [b + tail for b in out] + (out if x == y else [])
        return out

    prods = set()
    for a in nts:
        for b, t in leaves:
            prods.update((a, body) for body in bodies(t, (a, b)))
        for c, (b, d) in binaries:
            for e, t in leaves:
                prods.update((after[a, b], body) for body in bodies(t, (d, e), (a, c)))
    prods, keep = _prune(g.start, prods, g.terminals)
    return GnfGrammar(
        nonterminals=keep,
        terminals=g.terminals,
        productions=tuple(Production(h, b) for h, b in prods),
        start=g.start,
        derives_epsilon=g.derives_epsilon,
    )


def gnf_to_pda(g: GnfGrammar) -> Pda:
    """Compile to a normal-form machine.

    The control state is the nonterminal currently being expanded; the stack
    holds the nonterminals whose expansion is deferred.  A body `a B C`
    pushes C and hands control to B (one push); `a B` just hands control to
    B; a bare `a` finishes the current nonterminal, so the next deferred one
    is popped into control, or the run drains to a halt state when nothing
    is deferred.  Every input position performs at most one stack operation.
    """
    names = _Names(g.nonterminals | g.terminals)
    halt = names.fresh("#halt")
    pushables = sorted({p.body[2] for p in g.productions if len(p.body) == 3})
    bottom = "$"
    while bottom in pushables or bottom in g.nonterminals:
        bottom = bottom + "$"
    transitions = []
    for p in g.productions:
        head, body = p.head, p.body
        terminal, tail = body[0], body[1:]
        if len(tail) == 0:
            for x in pushables:
                transitions.append(Transition(head, terminal, StackAction.pop(x), x))
            transitions.append(Transition(head, terminal, StackAction.none(), halt))
        elif len(tail) == 1:
            transitions.append(Transition(head, terminal, StackAction.none(), tail[0]))
        else:
            transitions.append(
                Transition(head, terminal, StackAction.push(tail[1]), tail[0])
            )
    accept = {halt}
    if g.derives_epsilon:
        accept.add(g.start)
    return Pda(
        states=set(g.nonterminals) | {halt},
        input_alphabet=set(g.terminals),
        stack_alphabet=set(pushables) | {bottom},
        transitions=transitions,
        start=g.start,
        bottom=bottom,
        accept=accept,
        acceptance_mode=FINAL_STATE_BOTTOM_ONLY,
    )


def cfg_to_json(g: Cfg) -> dict:
    return {
        "format": CFG_FORMAT,
        "nonterminals": sorted(g.nonterminals),
        "terminals": sorted(g.terminals),
        "productions": [
            {"head": p.head, "body": list(p.body)} for p in g.productions
        ],
        "start": g.start,
    }


def cfg_from_json(data: dict) -> Cfg:
    doc = JsonFields(data)
    doc.check_format(CFG_FORMAT)
    return Cfg(
        nonterminals=frozenset(doc.items("nonterminals")),
        terminals=frozenset(doc.items("terminals")),
        productions=tuple(
            Production(p.value("head"), tuple(p.items("body"))) for p in doc.objects("productions")
        ),
        start=doc.value("start"),
    )
