"""Context-free grammars and the normalization pipeline down to machines.

Cfg -> CnfGrammar (start wrapper, terminal lifting, binarization, nullable
and unit elimination, useless-symbol pruning) -> GnfGrammar (ordered
substitution with left-recursion elimination, tails normalized to length
at most two) -> a normal-form machine whose control holds the nonterminal
under expansion.  cyk_membership on the CNF stage is the reference parser
the rest of the pipeline is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pda import (
    FINAL_STATE_BOTTOM_ONLY,
    Pda,
    StackAction,
    Transition,
)

CFG_FORMAT = "cfg-v1"


@dataclass(frozen=True)
class Production:
    head: str
    body: tuple[str, ...]

    def sort_key(self) -> tuple:
        return (self.head, len(self.body), self.body)


@dataclass(frozen=True)
class Cfg:
    nonterminals: frozenset
    terminals: frozenset
    productions: tuple
    start: str

    def __post_init__(self):
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        object.__setattr__(
            self, "productions", tuple(sorted(set(self.productions), key=Production.sort_key))
        )
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

    def bodies(self, head: str) -> list[tuple[str, ...]]:
        return [p.body for p in self.productions if p.head == head]


@dataclass(frozen=True)
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
    def is_empty(self) -> bool:
        return not self.productions

    @property
    def derives_epsilon(self) -> bool:
        return any(p.body == () and p.head == self.start for p in self.productions)


@dataclass(frozen=True)
class GnfGrammar(Cfg):
    """Every body is a terminal followed by at most two nonterminals.  The
    empty word is carried by the derives_epsilon flag instead of a body."""

    derives_epsilon: bool = False

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

    # nullable elimination
    nullable = set()
    changed = True
    while changed:
        changed = False
        for head, body in prods:
            if head not in nullable and all(s in nullable for s in body):
                nullable.add(head)
                changed = True
    out = set()
    for head, body in prods:
        optional = [idx for idx, s in enumerate(body) if s in nullable]
        for mask in range(1 << len(optional)):
            kept = [
                s
                for idx, s in enumerate(body)
                if idx not in optional or not (mask >> optional.index(idx)) & 1
            ]
            if kept or head == start:
                out.add((head, tuple(kept)))
    prods = {(h, b) for h, b in out if b or h == start}
    if start in nullable:
        prods.add((start, ()))

    # unit elimination
    unit_pairs = {(a, a) for a in nts}
    changed = True
    while changed:
        changed = False
        for head, body in prods:
            if len(body) == 1 and body[0] in nts:
                for a, b in list(unit_pairs):
                    if b == head and (a, body[0]) not in unit_pairs:
                        unit_pairs.add((a, body[0]))
                        changed = True
    out = set()
    for a, b in unit_pairs:
        for head, body in prods:
            if head == b and not (len(body) == 1 and body[0] in nts):
                out.add((a, body))
    prods = out

    # drop non-generating, then unreachable
    generating = set()
    changed = True
    while changed:
        changed = False
        for head, body in prods:
            if head not in generating and all(
                s in generating or s in g.terminals for s in body
            ):
                generating.add(head)
                changed = True
    if start not in generating:
        return CnfGrammar(
            nonterminals={start}, terminals=g.terminals, productions=(), start=start
        )
    prods = {
        (h, b)
        for h, b in prods
        if h in generating and all(s in generating or s in g.terminals for s in b)
    }
    reachable = {start}
    frontier = [start]
    while frontier:
        head = frontier.pop()
        for h, b in prods:
            if h == head:
                for s in b:
                    if s in nts and s not in reachable:
                        reachable.add(s)
                        frontier.append(s)
    prods = {(h, b) for h, b in prods if h in reachable}

    keep_nts = reachable & (generating | {start})
    return CnfGrammar(
        nonterminals=keep_nts,
        terminals=g.terminals,
        productions=tuple(Production(h, b) for h, b in prods),
        start=start,
    )


def cyk_membership(g: CnfGrammar, w: str) -> bool:
    """Bottom-up span parsing on the CNF stage."""
    if g.is_empty:
        return False
    if w == "":
        return g.derives_epsilon
    by_terminal: dict[str, set[str]] = {}
    by_pair: dict[tuple[str, str], set[str]] = {}
    for p in g.productions:
        if len(p.body) == 1:
            by_terminal.setdefault(p.body[0], set()).add(p.head)
        elif len(p.body) == 2:
            by_pair.setdefault((p.body[0], p.body[1]), set()).add(p.head)
    n = len(w)
    table = [[set() for _ in range(n)] for _ in range(n + 1)]
    for i, ch in enumerate(w):
        table[1][i] = set(by_terminal.get(ch, ()))
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            cell = table[span][i]
            for split in range(1, span):
                for left in table[split][i]:
                    for right in table[span - split][i + split]:
                        cell |= by_pair.get((left, right), set())
    return g.start in table[n][0]


_PAIR_CAP = 500


def to_gnf(g: CnfGrammar) -> GnfGrammar:
    """Ordered substitution plus left-recursion elimination, then tail
    normalization to length two via fresh pairing nonterminals."""
    if g.is_empty:
        return GnfGrammar(
            nonterminals={g.start},
            terminals=g.terminals,
            productions=(),
            start=g.start,
            derives_epsilon=False,
        )
    derives_epsilon = g.derives_epsilon
    names = _Names(g.nonterminals | g.terminals)
    # sorted, so the pairing names handed out below do not depend on hashing
    bodies: dict[str, list[tuple[str, ...]]] = {nt: [] for nt in sorted(g.nonterminals)}
    for p in g.productions:
        if p.body:
            bodies[p.head].append(p.body)

    order = [g.start] + sorted(nt for nt in g.nonterminals if nt != g.start)
    index = {nt: i for i, nt in enumerate(order)}

    def dedupe(items):
        return list(dict.fromkeys(items))

    for i, head in enumerate(order):
        while True:
            expanded = []
            changed = False
            for body in bodies[head]:
                lead = body[0]
                if lead in index and index[lead] < i:
                    changed = True
                    for sub in bodies[lead]:
                        expanded.append(sub + body[1:])
                else:
                    expanded.append(body)
            bodies[head] = dedupe(expanded)
            if not changed:
                break
        recursive = [b for b in bodies[head] if b[0] == head]
        if recursive:
            rest = [b for b in bodies[head] if b[0] != head]
            helper = names.fresh("Z")
            bodies[head] = dedupe(rest + [b + (helper,) for b in rest])
            bodies[helper] = dedupe(
                [b[1:] for b in recursive] + [b[1:] + (helper,) for b in recursive]
            )

    # back-substitute until every body leads with a terminal
    for _ in range(10 * (len(bodies) + 1)):
        changed = False
        for head in list(bodies):
            expanded = []
            for body in bodies[head]:
                lead = body[0]
                if lead in bodies:
                    ready = all(sub[0] in g.terminals for sub in bodies[lead])
                    if ready:
                        changed = True
                        for sub in bodies[lead]:
                            expanded.append(sub + body[1:])
                        continue
                expanded.append(body)
            bodies[head] = dedupe(expanded)
        if not changed:
            break
    for head, bs in bodies.items():
        for body in bs:
            if body[0] not in g.terminals:
                raise ValueError(
                    f"substitution did not terminate: {head!r} -> {body!r}"
                )

    # normalize tails to <= 2 nonterminals with pairing symbols
    pair_names: dict[tuple[str, str], str] = {}
    pair_defs: dict[str, tuple[str, str]] = {}
    defined: dict[str, list[tuple[str, ...]]] = {}

    def get_pair(x: str, y: str) -> str:
        key = (x, y)
        if key not in pair_names:
            if len(pair_names) >= _PAIR_CAP:
                raise ValueError("tail normalization exceeded the pairing budget")
            name = names.fresh("P")
            pair_names[key] = name
            pair_defs[name] = key
        return pair_names[key]

    def norm_tail(tail: tuple[str, ...]) -> tuple[str, ...]:
        while len(tail) > 2:
            tail = tail[:-2] + (get_pair(tail[-2], tail[-1]),)
        return tail

    def productions_of(sym: str, in_progress: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
        if sym in bodies:
            return [(b[0],) + norm_tail(b[1:]) for b in bodies[sym]]
        if sym in defined:
            return defined[sym]
        if sym in in_progress:
            raise ValueError("cyclic pairing during tail normalization")
        x, y = pair_defs[sym]
        out = []
        for sub in productions_of(x, in_progress + (sym,)):
            out.append((sub[0],) + norm_tail(sub[1:] + (y,)))
        defined[sym] = dedupe(out)
        return defined[sym]

    final: dict[str, list[tuple[str, ...]]] = {}
    for head in list(bodies):
        final[head] = dedupe([(b[0],) + norm_tail(b[1:]) for b in bodies[head]])
    pending = [name for name in pair_defs if name not in defined]
    while pending:
        for name in pending:
            final[name] = productions_of(name)
        pending = [name for name in pair_defs if name not in final]

    # prune nonterminals unreachable from the start
    reachable = {g.start}
    frontier = [g.start]
    while frontier:
        head = frontier.pop()
        for body in final.get(head, []):
            for sym in body[1:]:
                if sym not in reachable:
                    reachable.add(sym)
                    frontier.append(sym)
    productions = tuple(
        Production(head, body)
        for head in sorted(reachable)
        for body in final.get(head, [])
    )
    return GnfGrammar(
        nonterminals=reachable,
        terminals=g.terminals,
        productions=productions,
        start=g.start,
        derives_epsilon=derives_epsilon,
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
    if data.get("format") != CFG_FORMAT:
        raise ValueError(f"expected format {CFG_FORMAT!r}, got {data.get('format')!r}")
    return Cfg(
        nonterminals=frozenset(data["nonterminals"]),
        terminals=frozenset(data["terminals"]),
        productions=tuple(
            Production(p["head"], tuple(p["body"])) for p in data["productions"]
        ),
        start=data["start"],
    )
