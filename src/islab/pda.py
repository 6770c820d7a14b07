"""Normal-form pushdown machines: model, validation, simulation, enumeration.

The normal form expected of hand-built and grammar-derived machines: every
non-auxiliary transition reads exactly one input symbol and performs at most
one stack operation (a single push or a single pop), and epsilon-transitions
exist only as auxiliary second-push steps chained directly after a pushing
read.  Each input position therefore contributes at most two pushes or one
pop per machine, and stack depth never exceeds 2*|w|+1.

The engine.  Every search (`accepts`, `enumerate_runs`, `enumerate_language`,
`step`, and `explore_reachable`, the reachability search behind the product
fragments and state counts in `products`) keys its configurations as plain
(state, input position, stack cell) tuples.  A stack cell holds a
top symbol, the cell below it and the depth; each search call interns its
cells in a table of its own, so equal stacks are one object, and push, pop,
depth, hashing and equality each cost O(1) however deep the stack.  All
searches step through the one successor generator `_Search.successors`,
which also charges each search's budget, and no search recurses: run
length never becomes Python recursion depth.  What a caller gets back
still holds tuples: `Configuration.stack` is the whole stack, bottom
first, in `AcceptingRun.final` and in the results of `step`.

Machines, plain or product, meet the engine through a duck-typed protocol
that products follow without being normal-form themselves:

* `transitions_from(state)`: the transitions out of a control state, in the
  order the searches try them;
* `initial_config()`: the start `Configuration`, its stack a tuple;
* `is_accepting(state, stack)`: whether a run that has read the whole input
  and ends in `state` over the stack cell `stack` accepts;
* `stack_depth_cap(input_len)`: the deepest stack a search keeps on inputs
  of that length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable

EPSILON = None  # the `read` field of a transition that consumes no input

PDA_FORMAT = "pda-v1"

FINAL_STATE = "FinalState"
FINAL_STATE_BOTTOM_ONLY = "FinalStateAndBottomOnly"
ACCEPTANCE_MODES = (FINAL_STATE, FINAL_STATE_BOTTOM_ONLY)

PUSH = "push"
POP = "pop"
NONE = "none"

_KIND_RANK = {PUSH: 0, POP: 1, NONE: 2}


class LimitExceeded(Exception):
    """A search hit its configuration cap before exhausting the graph.

    The cap counts calls of the successor step in one search, and the
    message always reads "expanded N configurations, furthest input
    position p of n".  Signals an inconclusive search, never a wrong
    answer: whenever a result is returned it is exact.
    """


@dataclass(frozen=True)
class StackAction:
    """A single stack operation: push one symbol, pop one symbol, or nothing."""

    kind: str
    symbol: str | None = None

    @classmethod
    def push(cls, symbol: str) -> "StackAction":
        return cls(PUSH, symbol)

    @classmethod
    def pop(cls, symbol: str) -> "StackAction":
        return cls(POP, symbol)

    @classmethod
    def none(cls) -> "StackAction":
        return cls(NONE, None)

    def describe(self) -> str:
        if self.kind == NONE:
            return "none"
        return f"{self.kind} {self.symbol}"


@dataclass(frozen=True)
class Transition:
    source: Hashable
    read: str | None
    action: StackAction
    target: Hashable
    auxiliary: bool = False

    def describe(self) -> str:
        read = self.read if self.read is not None else "eps"
        aux = " aux" if self.auxiliary else ""
        return f"{self.source} --{read}/{self.action.describe()}--> {self.target}{aux}"

    def sort_key(self) -> tuple:
        return (
            str(self.source),
            self.read if self.read is not None else "",
            _KIND_RANK.get(self.action.kind, 3),
            self.action.symbol or "",
            str(self.target),
            self.auxiliary,
        )


@dataclass(frozen=True)
class Configuration:
    """A point in the run graph: control state, input consumed, full stack."""

    state: Hashable
    input_pos: int
    stack: tuple


@dataclass(frozen=True)
class RunStep:
    transition: Transition
    input_pos: int  # 1-based input position this step is associated with
    stack_depth_after: int


@dataclass(frozen=True)
class AcceptingRun:
    steps: tuple[RunStep, ...]
    final: Configuration

    def transition_sequence(self) -> tuple[Transition, ...]:
        return tuple(s.transition for s in self.steps)


@dataclass(frozen=True)
class SearchLimits:
    """Work cap for one search: `max_configs` bounds the calls of the
    successor step one search makes, and the call past it raises
    LimitExceeded("expanded N configurations, furthest input position p of
    n").  It is a count, not a memory bound: the memory a configuration
    takes depends on the machine."""

    max_configs: int = 500_000


DEFAULT_LIMITS = SearchLimits()


@dataclass(frozen=True)
class Pda:
    """An explicit pushdown machine over single-character input symbols.

    Transitions are canonically sorted at construction (by source, read,
    action ranked push < pop < none, symbol, target) so that every search
    below is deterministic and the "first run" is well defined.
    """

    states: frozenset
    input_alphabet: frozenset
    stack_alphabet: frozenset
    transitions: tuple
    start: str
    bottom: str
    accept: frozenset
    acceptance_mode: str = FINAL_STATE_BOTTOM_ONLY

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "input_alphabet", frozenset(self.input_alphabet))
        object.__setattr__(self, "stack_alphabet", frozenset(self.stack_alphabet))
        object.__setattr__(self, "accept", frozenset(self.accept))
        object.__setattr__(
            self, "transitions", tuple(sorted(self.transitions, key=Transition.sort_key))
        )
        self._check()

    def _check(self) -> None:
        if self.acceptance_mode not in ACCEPTANCE_MODES:
            raise ValueError(f"unknown acceptance mode {self.acceptance_mode!r}")
        if self.start not in self.states:
            raise ValueError(f"start state {self.start!r} not declared")
        if not self.accept <= self.states:
            raise ValueError("accept states not all declared")
        if self.bottom not in self.stack_alphabet:
            raise ValueError(f"bottom marker {self.bottom!r} not in stack alphabet")
        for sym in self.input_alphabet:
            if not (isinstance(sym, str) and len(sym) == 1):
                raise ValueError(f"input symbols must be single characters, got {sym!r}")
        for t in self.transitions:
            if t.source not in self.states or t.target not in self.states:
                raise ValueError(f"transition references undeclared state: {t.describe()}")
            if t.read is not None and t.read not in self.input_alphabet:
                raise ValueError(f"transition reads undeclared symbol: {t.describe()}")
            if t.action.kind not in (PUSH, POP, NONE):
                raise ValueError(f"transition has unknown action kind: {t.describe()}")
            if t.action.kind in (PUSH, POP) and t.action.symbol not in self.stack_alphabet:
                raise ValueError(f"transition uses undeclared stack symbol: {t.describe()}")

    @cached_property
    def _by_source(self) -> dict:
        index: dict = {}
        for t in self.transitions:
            index.setdefault(t.source, []).append(t)
        return {state: tuple(ts) for state, ts in index.items()}

    def transitions_from(self, state) -> tuple:
        return self._by_source.get(state, ())

    def initial_config(self) -> Configuration:
        return Configuration(self.start, 0, (self.bottom,))

    def is_accepting(self, state, stack) -> bool:
        """Whether the whole input read, ending in `state` over the stack
        cell `stack`, is accepted."""
        if state not in self.accept:
            return False
        if self.acceptance_mode == FINAL_STATE_BOTTOM_ONLY:
            return stack.depth == 1 and stack.top == self.bottom
        return True

    def stack_depth_cap(self, input_len: int) -> int:
        return 2 * input_len + 1


def validate_normal_form(pda: Pda) -> list[str]:
    """Check the normal-form contract; return one diagnostic per violation.

    Empty result iff: every non-auxiliary transition reads exactly one input
    symbol and performs at most one stack operation, and every auxiliary
    epsilon-transition is a single push whose source state is entered only by
    non-auxiliary pushing reads (so second pushes chain directly after a
    pushing read and epsilon-chains have length one).
    """
    diags = []
    incoming: dict = {}
    for t in pda.transitions:
        incoming.setdefault(t.target, []).append(t)
    for t in pda.transitions:
        where = f"transition ({t.describe()})"
        kind = t.action.kind
        if kind in (PUSH, POP) and t.action.symbol is None:
            diags.append(f"{where}: {kind} without a stack symbol")
        if kind == NONE and t.action.symbol is not None:
            diags.append(f"{where}: no-op action carries a stack symbol")
        if not t.auxiliary:
            if t.read is None:
                diags.append(f"{where}: non-auxiliary transition reads no input symbol")
            continue
        # auxiliary second-push steps
        if t.read is not None:
            diags.append(f"{where}: auxiliary transition must not read input")
        if kind != PUSH:
            diags.append(f"{where}: auxiliary transition must push exactly one symbol")
        if t.source == pda.start:
            diags.append(f"{where}: auxiliary transition leaves the start state unchained")
        entries = incoming.get(t.source, [])
        if not entries:
            diags.append(f"{where}: auxiliary transition has no triggering push into {t.source!r}")
        for u in entries:
            if u.auxiliary or u.action.kind != PUSH:
                diags.append(
                    f"{where}: chained after non-pushing transition ({u.describe()})"
                )
    return diags


class _Cell:
    """One stack entry `top` over the stack `below`, `depth` entries in all.

    Cells are interned per search (see _Search), so two equal stacks of one
    search are the same object: hashing and equality go by identity.
    """

    __slots__ = ("top", "below", "depth")

    def __init__(self, top, below, depth: int):
        self.top = top
        self.below = below
        self.depth = depth

    def entries(self) -> tuple:
        """The whole stack as a tuple, bottom first."""
        out = []
        cell = self
        while cell.depth:
            out.append(cell.top)
            cell = cell.below
        out.reverse()
        return tuple(out)


_EMPTY = _Cell(None, None, 0)

_ANY = object()  # `symbol` for successors that may read any input symbol


class _Search:
    """What one search call shares: the machine, the stack depth cap for
    inputs of length `input_len`, the table interning the search's stack
    cells by (cell below, top symbol), and the search's budget: how many
    configurations it has expanded, out of `limits.max_configs`, and the
    furthest input position among them."""

    def __init__(self, machine, input_len: int, limits: SearchLimits):
        self.machine = machine
        self.input_len = input_len
        self.cap = machine.stack_depth_cap(input_len)
        self.cells: dict = {}
        self.max_configs = limits.max_configs
        self.expanded = self.furthest = 0

    def intern(self, config: Configuration) -> tuple:
        """A configuration as a search key (state, input position, cell)."""
        cells = self.cells
        cell = _EMPTY
        for symbol in config.stack:
            key = (cell, symbol)
            below, cell = cell, cells.get(key)
            if cell is None:
                cell = cells[key] = _Cell(symbol, below, below.depth + 1)
        return config.state, config.input_pos, cell

    def successors(self, state, pos: int, cell: _Cell, symbol, epsilon: bool = True):
        """Yield (transition, input position, cell) after each transition
        out of `state` that moves on epsilon (if `epsilon`) or reads
        `symbol` (any symbol if it is _ANY, none if it is None) and whose
        stack operation applies to `cell` within the depth cap, in
        transition order.  This is the engine's only stack step, and each
        call is one expansion charged to the budget."""
        if self.expanded >= self.max_configs:
            raise LimitExceeded(
                f"expanded {self.expanded} configurations, furthest input"
                f" position {self.furthest} of {self.input_len}"
            )
        self.expanded += 1
        if pos > self.furthest:
            self.furthest = pos
        cells, cap = self.cells, self.cap
        for t in self.machine.transitions_from(state):
            read = t.read
            if read is None:
                if not epsilon:
                    continue
                new_pos = pos
            elif read == symbol or symbol is _ANY:
                new_pos = pos + 1
            else:
                continue
            action = t.action
            kind = action.kind
            if kind == PUSH:
                if cell.depth >= cap:
                    continue
                key = (cell, action.symbol)
                nxt = cells.get(key)
                if nxt is None:
                    nxt = cells[key] = _Cell(action.symbol, cell, cell.depth + 1)
            elif kind == POP:
                if not cell.depth or cell.top != action.symbol or cell.depth > cap + 1:
                    continue
                nxt = cell.below
            else:  # NONE: Pda._check admits no other kind
                if cell.depth > cap:
                    continue
                nxt = cell
            yield t, new_pos, nxt

    def closure(self, configs: Iterable[tuple]) -> dict:
        """Epsilon-closure as an insertion-ordered dict (values unused)."""
        out = dict.fromkeys(configs, True)
        stack = list(out)
        while stack:
            state, pos, cell = stack.pop()
            for t, _, nxt_cell in self.successors(state, pos, cell, None):
                nxt = (t.target, pos, nxt_cell)
                if nxt not in out:
                    out[nxt] = True
                    stack.append(nxt)
        return out


def _run(node: tuple) -> AcceptingRun:
    """The run to a search node: a node is (configuration, transition into
    it, node it came from), and the start node has no transition."""
    state, pos, cell = node[0]
    final = Configuration(state, pos, cell.entries())
    steps = []
    while node[1] is not None:
        (_, pos, cell), t, node = node
        steps.append(RunStep(t, pos, cell.depth))
    steps.reverse()
    return AcceptingRun(tuple(steps), final)


def step(machine, config: Configuration, w: str) -> tuple:
    """One-step successor configurations of `config` on input `w`."""
    search = _Search(machine, len(w), DEFAULT_LIMITS)
    state, pos, cell = search.intern(config)
    symbol = w[pos] if pos < len(w) else None
    return tuple(
        Configuration(t.target, new_pos, nxt.entries())
        for t, new_pos, nxt in search.successors(state, pos, cell, symbol)
    )


def accepts(
    machine, w: str, limits: SearchLimits = DEFAULT_LIMITS
) -> tuple[bool, AcceptingRun | None]:
    """Decide acceptance of `w`; on success also return one witness run.

    Breadth-first over the configuration graph with a visited set keyed on
    (state, input position, stack cell).  Raises LimitExceeded if the cap is
    hit before the graph is exhausted and no accepting configuration was
    found.
    """
    n = len(w)
    search = _Search(machine, n, limits)
    init = search.intern(machine.initial_config())
    seen = {init}
    queue = [(init, None, None)]
    for node in queue:
        state, pos, cell = node[0]
        if pos == n and machine.is_accepting(state, cell):
            return True, _run(node)
        symbol = w[pos] if pos < n else None
        for t, new_pos, nxt_cell in search.successors(state, pos, cell, symbol):
            nxt = (t.target, new_pos, nxt_cell)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, t, node))
    return False, None


def enumerate_runs(
    machine, w: str, cap: int = 20, limits: SearchLimits = DEFAULT_LIMITS
) -> list[AcceptingRun]:
    """Up to `cap` accepting runs on `w`, lexicographic by transition order.

    Depth-first without cross-path pruning, so distinct runs through shared
    configurations are all reported.  Rejected words give an empty list.
    The depth-first order is kept on an explicit work stack, each entry
    linked to its path, so run length never becomes Python recursion depth.
    A cap of zero or less gives no run.
    """
    if cap <= 0:
        return []
    n = len(w)
    search = _Search(machine, n, limits)
    runs: list[AcceptingRun] = []
    work = [(search.intern(machine.initial_config()), None, None)]
    while work:
        node = work.pop()
        state, pos, cell = node[0]
        if pos == n and machine.is_accepting(state, cell):
            runs.append(_run(node))
            if len(runs) >= cap:
                break
        symbol = w[pos] if pos < n else None
        children = [
            ((t.target, new_pos, nxt), t, node)
            for t, new_pos, nxt in search.successors(state, pos, cell, symbol)
        ]
        work.extend(reversed(children))
    return runs


def enumerate_language(
    machine, max_len: int, limits: SearchLimits = DEFAULT_LIMITS
) -> set[str]:
    """All accepted words of length <= max_len.

    Breadth-first over prefixes, carrying the live configuration set of each
    prefix; prefixes with no live configurations are pruned, so cost tracks
    the size of the reachable prefix tree rather than |alphabet|^max_len.
    Agrees with per-word `accepts` on every word it reports or omits.
    """
    search = _Search(machine, max_len, limits)
    alphabet = sorted(machine.input_alphabet)
    accepted: set[str] = set()
    init = search.intern(machine.initial_config())
    frontier: list[tuple[str, dict]] = [("", search.closure([init]))]
    while frontier:
        next_frontier = []
        for word, configs in frontier:
            # every configuration of a prefix has read the whole prefix
            if any(machine.is_accepting(state, cell) for state, _, cell in configs):
                accepted.add(word)
            if len(word) == max_len:
                continue
            for sym in alphabet:
                advanced = []
                for state, pos, cell in configs:
                    for t, new_pos, nxt in search.successors(
                        state, pos, cell, sym, epsilon=False
                    ):
                        advanced.append((t.target, new_pos, nxt))
                if advanced:
                    next_frontier.append((word + sym, search.closure(advanced)))
        frontier = next_frontier
    return accepted


def explore_reachable(machine, max_len: int, limits: SearchLimits):
    """Depth-first over the configurations reachable on some input of length
    at most max_len, keeping each (state, stack cell) at the least input
    consumed.

    Yields the state of every expanded configuration together with the
    transitions that apply to it within the machine's stack cap.
    """
    search = _Search(machine, max_len, limits)
    init = search.intern(machine.initial_config())
    start, _, bottom = init
    best = {(start, bottom): 0}
    frontier = [init]
    while frontier:
        state, pos, cell = frontier.pop()
        applied = []
        reads = _ANY if pos < max_len else None
        for t, consumed, nxt in search.successors(state, pos, cell, reads):
            applied.append(t)
            key = (t.target, nxt)
            if key not in best or best[key] > consumed:
                best[key] = consumed
                frontier.append((t.target, consumed, nxt))
        yield state, applied


def pda_to_json(pda: Pda) -> dict:
    """Serialize to the pda-v1 interchange dict (deterministic field order)."""
    transitions = []
    for t in pda.transitions:
        action: dict = {"kind": t.action.kind}
        if t.action.symbol is not None:
            action["symbol"] = t.action.symbol
        transitions.append(
            {
                "from": t.source,
                "read": t.read,
                "action": action,
                "to": t.target,
                "auxiliary": t.auxiliary,
            }
        )
    return {
        "format": PDA_FORMAT,
        "states": sorted(pda.states),
        "input_alphabet": sorted(pda.input_alphabet),
        "stack_alphabet": sorted(pda.stack_alphabet),
        "transitions": transitions,
        "start": pda.start,
        "bottom": pda.bottom,
        "accept": sorted(pda.accept),
        "acceptance_mode": pda.acceptance_mode,
    }


_JSON_TYPES = {
    str: "a string",
    int: "an integer",
    bool: "a boolean",
    list: "a list",
    dict: "an object",
    type(None): "null",
}

_REQUIRED = object()  # `default` of a field that must be present


class JsonFields:
    """One object of a JSON document, read field by field: a missing field
    or a value of the wrong type raises ValueError naming the field's path
    in the document, such as `transitions[0].action.kind`."""

    def __init__(self, data, path: str = ""):
        self.data = _typed(data, (dict,), path or "document")
        self.path = path

    def check_format(self, expected: str) -> None:
        if self.data.get("format") != expected:
            raise ValueError(f"expected format {expected!r}, got {self.data.get('format')!r}")

    def where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def value(self, key: str, *types, default=_REQUIRED):
        """The value at `key`, of one of `types` (a string if none given)."""
        if key not in self.data:
            if default is _REQUIRED:
                raise ValueError(f"missing field {self.where(key)}")
            return default
        return _typed(self.data[key], types, self.where(key))

    def items(self, key: str, *types) -> list:
        """The list at `key`, each item of one of `types` (a string if none
        given)."""
        where = self.where(key)
        return [
            _typed(item, types, f"{where}[{i}]")
            for i, item in enumerate(self.value(key, list))
        ]

    def lists(self, key: str, *types) -> list:
        """The list of lists at `key`, each inner item of one of `types` (a
        string if none given)."""
        where = self.where(key)
        return [
            [_typed(item, types, f"{where}[{i}][{j}]") for j, item in enumerate(inner)]
            for i, inner in enumerate(self.items(key, list))
        ]

    def objects(self, key: str) -> list:
        where = self.where(key)
        return [JsonFields(item, f"{where}[{i}]") for i, item in enumerate(self.value(key, list))]


def _typed(value, types: tuple, where: str):
    """`value` if it is of one of `types` (a string if none given)."""
    types = types or (str,)
    # a JSON true is no integer, though Python's bool is an int
    if isinstance(value, types) and (bool in types or not isinstance(value, bool)):
        return value
    wanted = " or ".join(_JSON_TYPES[t] for t in types)
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    raise ValueError(f"{where} must be {wanted}, got {got}")


def pda_from_json(data: dict) -> Pda:
    doc = JsonFields(data)
    doc.check_format(PDA_FORMAT)
    transitions = []
    for item in doc.objects("transitions"):
        action = JsonFields(item.value("action", dict), item.where("action"))
        transitions.append(
            Transition(
                source=item.value("from"),
                read=item.value("read", str, type(None)),
                action=StackAction(action.value("kind"), action.value("symbol", str, type(None), default=None)),
                target=item.value("to"),
                auxiliary=item.value("auxiliary", bool, default=False),
            )
        )
    return Pda(
        states=frozenset(doc.items("states")),
        input_alphabet=frozenset(doc.items("input_alphabet")),
        stack_alphabet=frozenset(doc.items("stack_alphabet")),
        transitions=tuple(transitions),
        start=doc.value("start"),
        bottom=doc.value("bottom"),
        accept=frozenset(doc.items("accept")),
        acceptance_mode=doc.value("acceptance_mode"),
    )
