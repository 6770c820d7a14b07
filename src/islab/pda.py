"""Pushdown machines: model, validation, simulation, enumeration.

The normal form expected of hand-built and grammar-derived machines: every
non-auxiliary transition reads exactly one input symbol and performs at most
one stack operation (a single push or a single pop), and epsilon-transitions
exist only as auxiliary second-push steps chained directly after a pushing
read.  Each input position therefore contributes at most two pushes or one
pop per machine, and stack depth never exceeds 2*|w|+1.  The engine itself
runs any `Pda`, in normal form or not.

The engine.  Every search (`accepts`, `enumerate_runs` and
`enumerate_language`) starts from the machine's `start` state over its
`bottom` entry, and keys its configurations as plain (state, input
position, stack cell) tuples.  A stack cell holds a top symbol, the cell
below it and the depth; each search call interns its cells in a table of
its own, so equal stacks are one object, and push, pop, depth, hashing and
equality each cost O(1) however deep the stack.  All searches step through
the one successor function `_Search.successors`, which also charges each
search's budget, one expansion per configuration (per configuration of each
prefix in `enumerate_language`, whatever the alphabet size), and drops
every successor whose stack is too deep to be emptied in the input left
(see `live_depths`) or, in the searches over one word (`accepts` and
`enumerate_runs`), too shallow to last it (see `floor_depths`).  No search
recurses: run length never becomes Python recursion depth.  What a caller
gets back still holds tuples: `Configuration.stack` is the whole stack,
bottom first, in `AcceptingRun.final`.

What bounds a search.  The engine caps no stack depth: a machine in normal
form stays within 2*|w|+1 by construction, products within 4*|w|+1
because they take normal-form components only, and live depths prune the
machines that accept on their bottom only, products of two such machines
included.  On one word, floor depths also prune such a plain machine's
stacks that are too shallow to last the input left: from a pop-only state
(one that can reach no push) a run must pop down to the bottom in exactly
the input left, so a guess of where the pops begin that comes too early
dies where it is made, not where the stack runs out.  Everything else,
such as a machine whose epsilon moves push without end, is bounded by the
search's one budget, `max_configs`: such a search ends in LimitExceeded,
never in a wrong answer.

Machines, plain or product, meet the engine through a duck-typed protocol
that products follow without being normal-form themselves:

* `transitions_from(state)`: the transitions out of a control state, in the
  order the searches try them.  Every search keys its tables by state, so
  states should hash and compare cheaply: a product's states are canonical
  objects, hashed by identity;
* `start` and `bottom`: the control state every search starts in, and the
  one stack entry it starts over;
* `is_accepting(state, stack)`: whether a run that has read the whole input
  and ends in `state` over the stack cell `stack` accepts;
* `live_depths(input_len)`: None, or a mapping from each state to the
  deepest stack from which an accepting run can still be reached at each
  input position 0..input_len of inputs of at most that length (see
  `Pda.live_depths`).  The mapping may fill its rows on first lookup, as
  a product's does: its composite states are only known once reached;
* `floor_depths(input_len)`: None, or a mapping from each state to the
  shallowest stack from which an accepting run can still be reached at
  each input position 0..input_len of inputs of exactly that length (see
  `Pda.floor_depths`).  Products give None.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from math import isfinite
from operator import attrgetter
from threading import Lock
from typing import Hashable, NamedTuple

PDA_FORMAT = "pda-v1"

FINAL_STATE = "FinalState"
FINAL_STATE_BOTTOM_ONLY = "FinalStateAndBottomOnly"
ACCEPTANCE_MODES = (FINAL_STATE, FINAL_STATE_BOTTOM_ONLY)

PUSH = "push"
POP = "pop"
NONE = "none"

_KIND_RANK = {PUSH: 0, POP: 1, NONE: 2}


class LimitExceeded(Exception):
    """A search hit its budget, `max_configs`, before exhausting the graph.

    The budget counts the successor-step calls of one search (the states a
    product's control-graph walk fetches, in `products`).  It is a count,
    not a memory bound: the memory a configuration takes depends on the
    machine.  The call past it raises this error, and the message always
    reads "expanded N configurations, furthest input position p of n".
    Signals an inconclusive search, never a wrong answer: whenever a result
    is returned it is exact.
    """


_set = object.__setattr__  # how a `_Value` sets its fields in `__init__`


class _Value:
    """An immutable public class that is not a named tuple: it names its
    fields in `_fields` and sets each in `__init__` through `_set`.

    It compares and hashes by value over `_key()`, every field unless the
    class says otherwise, prints as `Name(field=value, ...)` and raises
    AttributeError on assignment and deletion.  `_replace(**changes)`
    builds a changed copy through `__init__`, which normalises and checks
    it again.  Instances keep a `__dict__`, where `cached_property` writes
    its tables.  Copy and pickle go through the constructor: they rebuild
    the value by `__init__` from its fields, so cached tables never travel
    and a restored value is checked again.

    Not a dataclass: `dataclasses` imports `inspect`, and a dataclass
    generates and execs its methods at every import.  Not a named tuple
    where the engine or `crossing_pairs` reads the fields in an inner
    loop: 3.11 does not specialise attribute reads on tuple subclasses,
    which cost about 2.5 times as much.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field values in one call, and the repr's format: what a
        # dataclass would generate, built without exec
        names = cls._fields
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda value: (get(value),))
        cls._format = f"{cls.__qualname__}({', '.join(name + '=%r' for name in names)})"

    def _key(self) -> tuple:
        return self._values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return self._format % self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))

    def __reduce__(self):
        return type(self), self._values(self)


class StackAction(_Value):
    """A single stack operation: push one symbol, pop one symbol, or nothing."""

    _fields = ("kind", "symbol")

    def __init__(self, kind: str, symbol: str | None = None):
        _set(self, "kind", kind)
        _set(self, "symbol", symbol)

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


class Transition(_Value):
    """One move of a machine: from `source`, read one input symbol (`read`)
    or none (`read` is None), apply `action` to the stack and enter `target`.
    `auxiliary` marks the epsilon second push that normal form chains
    directly after a pushing read."""

    _fields = ("source", "read", "action", "target", "auxiliary")

    def __init__(
        self,
        source: Hashable,
        read: str | None,
        action: StackAction,
        target: Hashable,
        auxiliary: bool = False,
    ):
        _set(self, "source", source)
        _set(self, "read", read)
        _set(self, "action", action)
        _set(self, "target", target)
        _set(self, "auxiliary", auxiliary)

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


class Configuration(NamedTuple):
    """A point in the run graph: control state, input consumed, full stack."""

    state: Hashable
    input_pos: int
    stack: tuple


class RunStep(NamedTuple):
    transition: Transition
    input_pos: int  # 1-based input position this step is associated with
    stack_depth_after: int


class AcceptingRun(NamedTuple):
    steps: tuple[RunStep, ...]
    final: Configuration


MAX_CONFIGS = 500_000  # the default budget of every search


def limit_exceeded(expanded: int, furthest: int, input_len: int) -> LimitExceeded:
    """The one LimitExceeded of every search past its budget."""
    where = f"furthest input position {furthest} of {input_len}"
    return LimitExceeded(f"expanded {expanded} configurations, {where}")


def check_length_bound(max_len: int) -> None:
    """Refuse a negative bound on word length, in one message for all."""
    if max_len < 0:
        raise ValueError(f"length bound must be nonnegative, got {max_len}")


_NO_PATH = float("-inf")  # a depth-table entry that no control path reaches


class Pda(_Value):
    """An explicit pushdown machine over single-character input symbols.

    Transitions are canonically sorted at construction (by source, read,
    action ranked push < pop < none, symbol, target) so that every search
    below is deterministic and the "first run" is well defined.  A
    transition listed twice is kept once, as a production is in `Cfg`.
    """

    _fields = (
        "states", "input_alphabet", "stack_alphabet", "transitions",
        "start", "bottom", "accept", "acceptance_mode",
    )

    def __init__(
        self,
        states: frozenset,
        input_alphabet: frozenset,
        stack_alphabet: frozenset,
        transitions: tuple,
        start: str,
        bottom: str,
        accept: frozenset,
        acceptance_mode: str = FINAL_STATE_BOTTOM_ONLY,
    ):
        _set(self, "states", frozenset(states))
        _set(self, "input_alphabet", frozenset(input_alphabet))
        _set(self, "stack_alphabet", frozenset(stack_alphabet))
        _set(self, "transitions", tuple(sorted(set(transitions), key=Transition.sort_key)))
        _set(self, "start", start)
        _set(self, "bottom", bottom)
        _set(self, "accept", frozenset(accept))
        _set(self, "acceptance_mode", acceptance_mode)
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
            if t.action.kind in (PUSH, POP) and t.action.symbol is None:
                # only a machine built in code can declare None as a symbol
                raise ValueError(f"transition pushes or pops no stack symbol: {t.describe()}")

    @cached_property
    def _by_source(self) -> dict:
        index: dict = {}
        for t in self.transitions:
            index.setdefault(t.source, []).append(t)
        return {state: tuple(ts) for state, ts in index.items()}

    def transitions_from(self, state) -> tuple:
        return self._by_source.get(state, ())

    def is_accepting(self, state, stack) -> bool:
        """Whether the whole input read, ending in `state` over the stack
        cell `stack`, is accepted."""
        if state not in self.accept:
            return False
        if self.acceptance_mode == FINAL_STATE_BOTTOM_ONLY:
            return stack.depth == 1 and stack.top == self.bottom
        return True

    @cached_property
    def _depth_bounded(self) -> bool:
        """Whether the depth tables exist: the machine accepts on its bottom
        only and no epsilon-transition pops, so only reads pop, at most one
        symbol each."""
        return self.acceptance_mode == FINAL_STATE_BOTTOM_ONLY and not any(
            t.read is None and t.action.kind == POP for t in self.transitions
        )

    def live_depths(self, input_len: int) -> dict | None:
        """For each state q, a list over input positions 0..n (n =
        `input_len`) whose entry at `pos` is 1 + P(q, n - pos): P(q, r) is
        the most pops the control graph allows in r reads from q.  A
        configuration in q at `pos` whose stack is deeper can never empty
        it down to the bottom, so it cannot lead to acceptance.

        Only sound, and so only given, when the machine accepts on its
        bottom only and no epsilon-transition pops; None otherwise.  P
        never decreases as r grows, so the table also serves inputs
        shorter than n.  P is 0 at a state from which no pop can be
        reached.  The rows of the other states are built once per machine,
        indexed by r and grown to the longest input asked (see
        `_DepthRows`); each call returns fresh lists, reversed slices of
        those rows.
        """
        if not self._depth_bounded:
            return None
        no_pop, rows = self._live_rows
        table = {q: [1] * (input_len + 1) for q in no_pop}
        if rows is not None:
            table.update(rows.table(input_len))
        return table

    def _split_by_reach(self, kind: str) -> tuple:
        """The states from which a transition whose action is of `kind` can
        be reached, reading or not, and the others."""
        states = list(self.states)
        index = {q: i for i, q in enumerate(states)}
        reaches = [0] * len(states)
        for t in self.transitions:
            if t.action.kind == kind:
                reaches[index[t.source]] = 1
        _close(reaches, [(index[t.source], index[t.target]) for t in self.transitions])
        return (
            [q for q, reached in zip(states, reaches) if reached],
            [q for q, reached in zip(states, reaches) if not reached],
        )

    @cached_property
    def _live_rows(self) -> tuple:
        """The states from which no pop can be reached, whose rows are all
        1, and the rows of the others (None if there are none)."""
        popping, no_pop = self._split_by_reach(POP)
        if not popping:
            return no_pop, None
        # Column r holds 1 + P(q, r): at least 1, and epsilon moves never
        # pop, so P(source, r) >= P(target, r).  A read into a state of
        # no_pop gives its source a constant, 1 plus 1 if it pops, kept in
        # `base`; a move into one gives 1, which every entry has anyway.
        index = {q: i for i, q in enumerate(popping)}
        base = [1] * len(popping)
        reads = []
        for t in self.transitions:
            if t.read is None or t.source not in index:
                continue
            weight = int(t.action.kind == POP)
            if t.target in index:
                reads.append((index[t.source], weight, index[t.target]))
            else:
                base[index[t.source]] = max(base[index[t.source]], 1 + weight)
        moves = [
            (index[t.source], index[t.target])
            for t in self.transitions
            if t.read is None and t.source in index and t.target in index
        ]
        return no_pop, _DepthRows(popping, [1] * len(popping), reads, moves, base)

    def floor_depths(self, input_len: int) -> dict | None:
        """For each state q, a list over input positions 0..n (n =
        `input_len`) of the shallowest stack from which an input of length
        exactly n can still be accepted: a configuration in q at `pos`
        whose stack is shallower cannot lead to acceptance.

        A state is pop-only when no push transition, reading or not, can be
        reached from it.  A pop-only state's entry at `pos` is 1 + M(q, n -
        pos): M(q, r) is the fewest pops over control paths of exactly r
        reads from q that end in an accepting state (inf if there is none).
        A run from a pop-only state at depth d never grows the stack and
        must end at depth 1, so it pops exactly d - 1 entries along such a
        path.  Every other state shares one row of 1s: a stack emptied
        below its bottom is refilled only by pushing the bottom marker, so
        the row is of 0s when a transition does.

        Has the preconditions of `live_depths`, and is None otherwise.
        Unlike P, M may fall as r grows, so the table serves inputs of
        length n only.  The rows of M are built once per machine, as those
        of P are; each call returns fresh lists, the shared row one list.
        """
        if not self._depth_bounded:
            return None
        shared, rows = self._floor_rows
        table = dict.fromkeys(self.states, [shared] * (input_len + 1))
        if rows is not None:
            table.update(rows.table(input_len))
        return table

    @cached_property
    def _floor_rows(self) -> tuple:
        """The entry of the shared row, and the rows of the pop-only states
        (None if there are none)."""
        _, pop_only = self._split_by_reach(PUSH)
        refilled = any(t.action == StackAction.push(self.bottom) for t in self.transitions)
        shared = int(not refilled)
        if not pop_only:
            return shared, None
        # Max-plus over -M: weight -1 per pop, _NO_PATH for no path.  Every
        # transition out of a pop-only state enters one and pushes nothing.
        index = {q: i for i, q in enumerate(pop_only)}
        reads = [
            (index[t.source], -int(t.action.kind == POP), index[t.target])
            for t in self.transitions
            if t.read is not None and t.source in index
        ]
        moves = [
            (index[t.source], index[t.target])
            for t in self.transitions
            if t.read is None and t.source in index
        ]
        seed = [0 if q in self.accept else _NO_PATH for q in pop_only]
        base = [_NO_PATH] * len(pop_only)
        return shared, _DepthRows(pop_only, seed, reads, moves, base, complement=True)


def _close(column: list, moves: list) -> list:
    """Raise the entry of each source of `moves` (source, target) to its
    target's until none changes, in place; return `column`."""
    changed = True
    while changed:
        changed = False
        for source, target in moves:
            if column[target] > column[source]:
                column[source] = column[target]
                changed = True
    return column


class _DepthRows:
    """One depth table of a machine: a row per state of `states`, indexed
    by r, the reads left, whose column r is: for r = 0, `seed` closed under
    `moves` (see `_close`); after that, at each state the largest of its
    entry of `base` and weight + column r - 1 at the target over its
    `reads` (source, weight, target), closed under `moves`.  With
    `complement`, each entry v is given as 1 - v.

    The rows grow on demand to the longest input asked, and are never
    rebuilt: each growth resumes the column loop from its last column,
    until a column repeats an earlier one up to a constant shift, and
    after that fills every later entry of each row from the one a period
    before.  A column costs O(|reads|), times the epsilon-chain length (one
    in normal form).  Growth and reads hold a lock, so searches on several
    threads may share one machine.
    """

    def __init__(
        self, states: list, seed: list, reads: list, moves: list, base: list, complement=False
    ):
        self.states = states
        self.reads, self.moves, self.base = reads, moves, base
        self.lowest = _close(list(base), moves)  # see _grow
        self.complement = complement
        self.rows = [[] for _ in states]
        # column r - 1 when the rows hold r > 0 entries, else column 0
        self.column = _close(list(seed), moves)
        self.shapes: dict = {}  # column minus its top -> (r, top)
        self.period = self.lift = 0  # until a column repeats
        self.computed = 0  # columns the loop has computed
        self.lock = Lock()

    def table(self, count: int) -> dict:
        """For each state, its row over input positions 0..count: entry
        `pos` is the row's entry at r = count - pos.  The lists are fresh."""
        with self.lock:
            if len(self.rows[0]) <= count:
                self._grow(count + 1)
            return {q: row[count::-1] for q, row in zip(self.states, self.rows)}

    def _grow(self, size: int) -> None:
        """Grow every row to `size` entries."""
        # One step is F(x) = max(lowest, H(x)): `lowest` is `base` closed
        # under the moves, H(x) is the reads from x, then the closure, and
        # H commutes with adding a constant.  Say column r is column r0
        # plus c, r0 < r, and every column after r0 is H of the one before.
        # Then column r + 1 is H(column r0 + c) = column r0 + 1 plus c, and
        # so on: the rows repeat with period r - r0 and lift c.  A column
        # is H of the one before at each state where `lowest` is _NO_PATH
        # or the column is above it, since only H can put it there.  So
        # shapes are recorded only from columns above `lowest` wherever it
        # is finite, and every later column is above it too: it is finite
        # for live depths only, whose weights are >= 0 and whose column 0
        # is all 1 <= base, so their columns never fall.  An exact repeat
        # (c = 0) needs no such condition, F being a function; as live
        # columns never fall, it repeats the column just before (floor
        # depths record every column).
        rows, column, columns = self.rows, self.column, []
        r = len(rows[0])
        while r < size and not self.period:
            prev = column
            if r:
                column = list(self.base)
                for source, weight, target in self.reads:
                    value = weight + prev[target]
                    if value > column[source]:
                        column[source] = value
                _close(column, self.moves)
            columns.append(column)
            if r and column == prev:
                self.period = 1
            elif all(v > low for v, low in zip(column, self.lowest) if low != _NO_PATH):
                top = max(column)
                if top == _NO_PATH:
                    top = 0
                r0, top0 = self.shapes.setdefault(tuple([v - top for v in column]), (r, top))
                if r0 < r:
                    lift = top - top0
                    self.period, self.lift = r - r0, -lift if self.complement else lift
            r += 1
        self.computed += len(columns)
        self.column = column
        # Complement here, on the columns before the period, not on the
        # filled rows: a pass over all entries of each row took
        # floor_depths(600) of odd-track from 43 to 77 us (2-core Xeon VM).
        if self.complement:
            columns = [[1 - v for v in column] for column in columns]
        for row, new in zip(rows, zip(*columns)):
            row += new
        left = size - r
        if left <= 0:
            return
        period, lift = self.period, self.lift
        for row in rows:
            # entry r is entry r - period plus lift: each phase of the last
            # period goes on as an arithmetic sequence, or stays put
            later = [None] * left
            for phase, value in enumerate(row[-period:]):
                times = len(range(phase, left, period))
                if lift and isfinite(value):
                    later[phase::period] = range(value + lift, value + lift * (times + 1), lift)
                else:
                    later[phase::period] = [value] * times
            row += later


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
    """What one search call shares: the machine, its live depths for inputs
    of length `input_len` (None if it has none), its floor depths (None
    unless the search reads one word of exactly that length, `one_word`),
    both fresh lists sliced from the rows the machine builds once, the
    table interning the search's stack cells by (cell below, top
    symbol), and the search's budget: how many configurations it has
    expanded, out of `max_configs`, and the furthest input position among
    them."""

    def __init__(self, machine, input_len: int, max_configs: int, one_word: bool = False):
        check_length_bound(input_len)
        self.machine = machine
        self.input_len = input_len
        self.live = machine.live_depths(input_len)
        self.floor = machine.floor_depths(input_len) if one_word else None
        self.cells: dict = {}
        self.max_configs = max_configs
        self.expanded = self.furthest = 0

    def start(self) -> tuple:
        """The search key (state, input position, cell) the search starts
        from, made once before any step: the machine's `start` state over
        its `bottom` entry alone."""
        machine = self.machine
        cell = self.cells[_EMPTY, machine.bottom] = _Cell(machine.bottom, _EMPTY, 1)
        return machine.start, 0, cell

    def successors(self, state, pos: int, cell: _Cell, symbol) -> list:
        """Return a list of (transition, input position, cell), one after
        each transition out of `state` that moves on epsilon or reads
        `symbol` (any symbol if it is _ANY, none if it is None) and whose
        stack operation applies to `cell`, in transition order, leaving out
        every successor whose stack is deeper than the live depth of its
        state and position, or shallower than its floor depth: none of
        those, nor any configuration after them, can accept.  No stack
        depth is capped otherwise.  This is the engine's only stack step,
        and each call is one expansion charged to the budget."""
        if self.expanded >= self.max_configs:
            raise limit_exceeded(self.expanded, self.furthest, self.input_len)
        self.expanded += 1
        if pos > self.furthest:
            self.furthest = pos
        cells, live, floor = self.cells, self.live, self.floor
        out = []
        for t in self.machine.transitions_from(state):
            read = t.read
            if read is None:
                new_pos = pos
            elif read == symbol or symbol is _ANY:
                new_pos = pos + 1
            else:
                continue
            action = t.action
            kind = action.kind
            if kind == PUSH:
                key = (cell, action.symbol)
                nxt = cells.get(key)
                if nxt is None:
                    nxt = cells[key] = _Cell(action.symbol, cell, cell.depth + 1)
            elif kind == POP:
                if not cell.depth or cell.top != action.symbol:
                    continue
                nxt = cell.below
            else:  # NONE: Pda._check admits no other kind
                nxt = cell
            if live is not None:
                depth = nxt.depth
                if depth > live[t.target][new_pos]:
                    continue
                if floor is not None and depth < floor[t.target][new_pos]:
                    continue
            out.append((t, new_pos, nxt))
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


def _accepting_nodes(machine, w: str, max_configs: int, seen: set | None):
    """Depth-first over the runs on `w` in transition order, yielding the
    search node (see `_run`) of each accepting configuration reached.

    With a `seen` set, a configuration is expanded only the first time it
    is taken off the work stack; without, every path is followed, so
    distinct runs through shared configurations are all reached.  The
    depth-first order is kept on an explicit work stack, each entry linked
    to its path, so run length never becomes Python recursion depth.
    """
    n = len(w)
    search = _Search(machine, n, max_configs, one_word=True)
    work = [(search.start(), None, None)]
    while work:
        node = work.pop()
        config = node[0]
        if seen is not None:
            if config in seen:
                continue
            seen.add(config)
        state, pos, cell = config
        if pos == n and machine.is_accepting(state, cell):
            yield node
        symbol = w[pos] if pos < n else None
        for t, new_pos, nxt in reversed(search.successors(state, pos, cell, symbol)):
            work.append(((t.target, new_pos, nxt), t, node))


def accepts(
    machine, w: str, max_configs: int = MAX_CONFIGS
) -> tuple[bool, AcceptingRun | None]:
    """Decide acceptance of `w`; on success also return one witness run.

    Depth-first over the configuration graph in transition order, each
    (state, input position, stack cell) expanded once, stopping at the
    first accepting configuration.  The witness is the first accepting run
    in transition order, the one `enumerate_runs(machine, w, cap=1)`
    lists.  Raises LimitExceeded if `max_configs` is hit before the graph is
    exhausted and no accepting configuration was found.
    """
    node = next(_accepting_nodes(machine, w, max_configs, set()), None)
    if node is None:
        return False, None
    return True, _run(node)


def enumerate_runs(
    machine, w: str, cap: int = 20, max_configs: int = MAX_CONFIGS
) -> list[AcceptingRun]:
    """Up to `cap` accepting runs on `w`, lexicographic by transition order.

    Depth-first without cross-path pruning, so distinct runs through shared
    configurations are all reported.  Rejected words give an empty list,
    and so does a cap of zero or less.
    """
    if cap <= 0:
        return []
    nodes = _accepting_nodes(machine, w, max_configs, None)
    return [_run(node) for node in islice(nodes, cap)]


def enumerate_language(machine, max_len: int, max_configs: int = MAX_CONFIGS) -> set[str]:
    """All accepted words of length <= max_len.

    Breadth-first over prefixes in sorted-symbol order.  One worklist
    closes each prefix's configuration set: every configuration is
    expanded once, its epsilon successors joining the set and its reads
    seeding the set of the prefix one symbol longer.  Prefixes with no live
    configurations are pruned, so cost tracks the size of the reachable
    prefix tree rather than |alphabet|^max_len.  Agrees with per-word
    `accepts` on every word it reports or omits.
    """
    search = _Search(machine, max_len, max_configs)
    accepted: set[str] = set()
    frontier = [("", {search.start(): None})]
    while frontier:
        next_frontier = []
        for word, configs in frontier:
            reads = _ANY if len(word) < max_len else None
            work = list(configs)
            advanced: dict = {}  # symbol -> configurations after reading it
            while work:
                state, pos, cell = work.pop()
                for t, new_pos, nxt_cell in search.successors(state, pos, cell, reads):
                    nxt = (t.target, new_pos, nxt_cell)
                    if t.read is not None:
                        advanced.setdefault(t.read, {})[nxt] = None
                    elif nxt not in configs:
                        configs[nxt] = None
                        work.append(nxt)
            # every configuration of a prefix has read the whole prefix
            if any(machine.is_accepting(state, cell) for state, _, cell in configs):
                accepted.add(word)
            next_frontier.extend((word + sym, advanced[sym]) for sym in sorted(advanced))
        frontier = next_frontier
    return accepted


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
