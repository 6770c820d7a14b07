"""Lazily expanded product machines over one shared, ownership-tagged stack.

Both constructions synchronize two normal-form machines on the input and
interleave their stack operations on one stack whose entries are
(owner, symbol) pairs.  They differ in how a machine reaches its own
symbols past the other machine's material:

* the displacement product may lift up to 2k foreign entries off the top
  into a small holding area, pop its target, and put them back unchanged,
  which suffices when crossings have bounded gap;
* the buffered product instead guesses at push time whether an arc is
  short or long; short pushes live in a bounded side buffer under a
  countdown of 2d positions and never touch the stack, which suffices
  when crossings have bounded inner distance however large the gap.

Each position is simulated as one reading step followed by epsilon
micro-steps that drain the queued stack operations (plus, for the
buffered product, one closing step that advances the countdowns), so the
standard engine in pda explores these machines unchanged.

Composite states are canonical: building a state with the fields of one
that is still alive returns that object.  So equal states are one object,
and the engine's tables, the product's expansion table and the live-depth
rows hash and compare them by identity, in C, however long their queues
and buffers are.  Value equality still holds, because no two live states
have equal fields; copies and pickles come back as the canonical object.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, fields, replace

from .pda import (
    Configuration,
    DEFAULT_LIMITS,
    FINAL_STATE_BOTTOM_ONLY,
    NONE,
    POP,
    PUSH,
    Pda,
    SearchLimits,
    StackAction,
    Transition,
    explore_reachable,
    pda_to_json,
    validate_normal_form,
)

DISPLACEMENT = "displacement"
BUFFERED = "buffered"

_BOTTOM = (0, "$")


def _describe_entry(entry) -> str:
    return f"{entry[0]}:{entry[1]}"


class _Canonical:
    """Hash-consing (Filliâtre & Conchon, "Type-safe modular hash-consing",
    2006) for the frozen composite states: each subclass keeps a table from
    field tuples to the one live state with those fields.  The table holds
    its states weakly, so a state lives only as long as a product, a search
    or a run refers to it, and nothing persists across calls.  The lock
    guards the miss path only, so two threads never build two objects for
    one value; a hit takes no lock."""

    _lock = threading.Lock()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._interned = weakref.WeakValueDictionary()

    @classmethod
    def _intern(cls, values: tuple):
        state = cls._interned.get(values)
        if state is None:
            with cls._lock:
                state = cls._interned.get(values)
                if state is None:
                    state = object.__new__(cls)
                    for field, value in zip(fields(cls), values):
                        object.__setattr__(state, field.name, value)
                    cls._interned[values] = state
        return state

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __new__, so each gives
        # back the canonical object
        return type(self), tuple(getattr(self, field.name) for field in fields(self))


@dataclass(frozen=True, eq=False, init=False)
class DisplacedState(_Canonical):
    """Composite control: both machine states, the queue of stack
    operations still owed for the current position, and the foreign
    entries currently lifted aside mid-pop.  Canonical, so compared and
    hashed by identity (see `_Canonical`)."""

    q1: object
    q2: object
    queue: tuple
    displaced: tuple

    def __new__(cls, q1, q2, queue=(), displaced=()):
        return cls._intern((q1, q2, queue, displaced))

    @property
    def is_sync(self) -> bool:
        return not self.queue and not self.displaced

    def describe(self) -> str:
        ops = " ".join(f"{k}:{o}:{s}" for k, o, s in self.queue)
        held = " ".join(_describe_entry(e) for e in self.displaced)
        return f"[{self.q1}|{self.q2}|ops {ops}|held {held}]"


@dataclass(frozen=True, eq=False, init=False)
class BufferedState(_Canonical):
    """Composite control for the buffered product; closing marks the
    pending end-of-position countdown step.  Canonical, so compared and
    hashed by identity (see `_Canonical`)."""

    q1: object
    q2: object
    queue: tuple
    buffer: tuple
    closing: bool

    def __new__(cls, q1, q2, queue=(), buffer=(), closing=False):
        return cls._intern((q1, q2, queue, buffer, closing))

    @property
    def is_sync(self) -> bool:
        return not self.queue and not self.closing

    def describe(self) -> str:
        ops = " ".join(f"{k}:{o}:{s}" for k, o, s in self.queue)
        buf = " ".join(f"{o}:{s}@{t}" for o, s, t in self.buffer)
        phase = "closing" if self.closing else "open"
        return f"[{self.q1}|{self.q2}|ops {ops}|buf {buf}|{phase}]"


def _moves(machine: Pda, state, symbol: str):
    """All one-position moves of a machine: a reading transition, optionally
    extended by a chained auxiliary push."""
    out = []
    for t in machine.transitions_from(state):
        if t.read != symbol:
            continue
        base = () if t.action.kind == NONE else (t.action,)
        out.append((base, t.target))
        for aux in machine.transitions_from(t.target):
            if aux.read is None and aux.auxiliary:
                out.append((base + (aux.action,), aux.target))
    return out


def _tag(ops, owner: int) -> tuple:
    return tuple((op.kind, owner, op.symbol) for op in ops)


def _aux(state, action: StackAction, target) -> Transition:
    return Transition(state, None, action, target, auxiliary=True)


class _LiveDepths(dict):
    """A product's live depths: composite state -> list over input
    positions, each row composed from the two component tables when the
    state is first looked up.  One instance serves one search."""

    def __init__(self, first: dict, second: dict):
        super().__init__()
        self.first = first
        self.second = second

    def __missing__(self, state) -> list:
        queued = sum(op == POP for op, _, _ in state.queue)
        row = self[state] = [
            a + b - 1 + queued for a, b in zip(self.first[state.q1], self.second[state.q2])
        ]
        return row


class _ProductBase:
    """Shared product machinery.  Each instance keeps a table from composite
    state to its outgoing transitions, filled on first request: the control
    graph is finite, so every state is expanded once per product.
    `parameter` is the bound the construction is built for: the gap bound k
    or the inner bound d.  Both components must be in normal form (see
    `validate_normal_form`); the constructors raise ValueError otherwise,
    since the per-position simulation below assumes it."""

    kind = "abstract"

    def __init__(self, first: Pda, second: Pda, parameter: int):
        for owner, machine in ((1, first), (2, second)):
            diagnostics = validate_normal_form(machine)
            if diagnostics:
                raise ValueError(
                    f"machine {owner} is not in normal form: " + "; ".join(diagnostics)
                )
        self.first = first
        self.second = second
        self.parameter = parameter
        self.input_alphabet = frozenset(first.input_alphabet) & frozenset(
            second.input_alphabet
        )
        self._symbols = {
            1: tuple(sorted(first.stack_alphabet - {first.bottom})),
            2: tuple(sorted(second.stack_alphabet - {second.bottom})),
        }
        self._table: dict = {}
        self._bottom_only_owners = frozenset(
            owner
            for owner in (1, 2)
            if self.component(owner).acceptance_mode == FINAL_STATE_BOTTOM_ONLY
        )

    def component(self, owner: int) -> Pda:
        return self.first if owner == 1 else self.second

    def initial_config(self) -> Configuration:
        return Configuration(self._initial_state(), 0, (_BOTTOM,))

    def live_depths(self, input_len: int) -> _LiveDepths | None:
        """The components' live depths composed, one row per composite
        state filled on first lookup: a state with component states q1, q2
        at input position pos gets 1 + P1(q1, n - pos) + P2(q2, n - pos)
        plus the pops still queued in it (see `Pda.live_depths` for P).

        Sound because every entry on the stack belongs to an owner that
        accepts on its bottom only, so an accepting run must pop each one,
        by a pop already queued or by one of a later read of its owner;
        the displacement product puts back every entry it lifts.  Entries
        lifted aside and the buffered product's short pushes are off the
        stack, and a queued pop may take from the buffer instead, so they
        only loosen the bound.
        None when either component has no table: a machine that accepts in
        any final state may leave its entries on the stack, so a pair with
        one (mixed-mode pairs included) has no depth bound."""
        tables = (self.first.live_depths(input_len), self.second.live_depths(input_len))
        if None in tables:
            return None
        return _LiveDepths(*tables)

    def transitions_from(self, state) -> tuple:
        out = self._table.get(state)
        if out is None:
            out = self._table[state] = self._expand(state)
        return out

    def accepts_control(self, state) -> bool:
        """Acceptance as far as the composite control state decides it: a
        synchronized state whose two component states both accept.  The
        fragment export marks exactly these states accepting."""
        return (
            state.is_sync
            and state.q1 in self.first.accept
            and state.q2 in self.second.accept
        )

    def is_accepting(self, state, stack) -> bool:
        """Control acceptance, and no entry of an owner that accepts on its
        bottom only left above the bottom of the stack cell `stack`."""
        if not self.accepts_control(state):
            return False
        owners = self._bottom_only_owners
        while stack.depth > 1:
            if stack.top[0] in owners:
                return False
            stack = stack.below
        return True

    def _reads(self, state) -> tuple:
        """Reading steps of a sync state, covering both machines' move
        choices and both per-position operation orders."""
        out = []
        for symbol in sorted(self.input_alphabet):
            for ops1, t1 in _moves(self.first, state.q1, symbol):
                for ops2, t2 in _moves(self.second, state.q2, symbol):
                    a, b = _tag(ops1, 1), _tag(ops2, 2)
                    queues = [a + b] if b + a == a + b else [a + b, b + a]
                    for queue in queues:
                        nxt = self._after_read(state, t1, t2, queue)
                        out.append(Transition(state, symbol, StackAction.none(), nxt))
        return tuple(out)


class DisplacementProduct(_ProductBase):
    """Sound for any pair; complete whenever every crossing between the two
    matchings has gap at most k."""

    kind = DISPLACEMENT

    def __init__(self, first: Pda, second: Pda, k: int):
        if k < 0:
            raise ValueError("gap parameter must be nonnegative")
        super().__init__(first, second, k)

    def _initial_state(self) -> DisplacedState:
        return DisplacedState(self.first.start, self.second.start)

    def _after_read(self, state, t1, t2, queue) -> DisplacedState:
        return DisplacedState(t1, t2, queue, ())

    def projection(self, state: DisplacedState):
        """Counting view: control pair plus the held foreign symbols."""
        return (state.q1, state.q2, state.displaced)

    def _expand(self, state: DisplacedState) -> tuple:
        if not state.queue:
            return self._reads(state)
        (op, owner, sym), rest = state.queue[0], state.queue[1:]
        if op == PUSH:
            drained = replace(state, queue=rest)
            return (_aux(state, StackAction.push((owner, sym)), drained),)
        restore = tuple((PUSH, o, s) for o, s in reversed(state.displaced))
        done = replace(state, queue=restore + rest, displaced=())
        out = [_aux(state, StackAction.pop((owner, sym)), done)]
        if len(state.displaced) < 2 * self.parameter:
            other = 2 if owner == 1 else 1
            for foreign in self._symbols[other]:
                entry = (other, foreign)
                lifted = replace(state, displaced=state.displaced + (entry,))
                out.append(_aux(state, StackAction.pop(entry), lifted))
        return tuple(out)


class BufferedProduct(_ProductBase):
    """Sound for any pair; complete whenever every crossing between the two
    matchings has inner distance at most d, with no bound on the gap."""

    kind = BUFFERED

    def __init__(self, first: Pda, second: Pda, d: int):
        if d < 0:
            raise ValueError("inner parameter must be nonnegative")
        super().__init__(first, second, d)

    def _initial_state(self) -> BufferedState:
        return BufferedState(self.first.start, self.second.start)

    def _after_read(self, state, t1, t2, queue) -> BufferedState:
        return BufferedState(t1, t2, queue, state.buffer, closing=True)

    def accepts_control(self, state: BufferedState) -> bool:
        """Also asks that no owner that accepts on its bottom only still has
        a short push waiting in the buffer."""
        return super().accepts_control(state) and not any(
            entry[0] in self._bottom_only_owners for entry in state.buffer
        )

    def projection(self, state: BufferedState):
        """Counting view: sync states only, as control pair plus buffer."""
        if not state.is_sync:
            return None
        return (state.q1, state.q2, state.buffer)

    def _expand(self, state: BufferedState) -> tuple:
        buffer = state.buffer
        if not state.queue:
            if not state.closing:
                return self._reads(state)
            if not all(t > 0 for _, _, t in buffer):
                return ()
            aged = tuple((o, s, t - 1) for o, s, t in buffer)
            done = replace(state, buffer=aged, closing=False)
            return (_aux(state, StackAction.none(), done),)
        (op, owner, sym), rest = state.queue[0], state.queue[1:]
        drained = replace(state, queue=rest)
        if op == PUSH:
            out = [_aux(state, StackAction.push((owner, sym)), drained)]
            if len(buffer) < 8 * self.parameter:
                short = replace(drained, buffer=buffer + ((owner, sym, 2 * self.parameter),))
                out.append(_aux(state, StackAction.none(), short))
            return tuple(out)
        idx = self._newest_match(buffer, owner, sym)
        if idx is None:
            return (_aux(state, StackAction.pop((owner, sym)), drained),)
        taken = replace(drained, buffer=buffer[:idx] + buffer[idx + 1 :])
        return (_aux(state, StackAction.none(), taken),)

    @staticmethod
    def _newest_match(buffer: tuple, owner: int, sym: str):
        for idx in range(len(buffer) - 1, -1, -1):
            if buffer[idx][0] == owner and buffer[idx][1] == sym:
                return idx
        return None


def state_bound(kind: str, q1: int, q2: int, g1: int, g2: int, parameter: int) -> int:
    """Closed-form composite-state count the constructions stay within.

    Displacement with gap bound k: q1*q2*(g1+g2+1)^(2k), one factor per
    holding slot.  Buffered with inner bound d: q1*q2*(1+(g1+g2)*2d)^(8d),
    one factor per buffer slot, each empty or a symbol with a countdown.
    """
    for name, value in (("q1", q1), ("q2", q2)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    for name, value in (("g1", g1), ("g2", g2), ("parameter", parameter)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
    if kind == DISPLACEMENT:
        base, exponent = g1 + g2 + 1, 2 * parameter
    elif kind == BUFFERED:
        base, exponent = 1 + (g1 + g2) * 2 * parameter, 8 * parameter
    else:
        raise ValueError(f"unknown product kind {kind!r}")
    if exponent > 10_000:
        raise ValueError("parameter too large for an exact bound")
    return q1 * q2 * base**exponent


def reachable_composite_states(
    product, max_len: int, limits: SearchLimits = DEFAULT_LIMITS
) -> set:
    """Distinct counting-view projections reachable on any input of length
    at most max_len."""
    explored = explore_reachable(product, max_len, limits)
    return {product.projection(state) for state, _ in explored} - {None}


@dataclass(frozen=True)
class ArcRecord:
    owner: int
    symbol: str
    push_pos: int
    pop_pos: int
    mode: str  # "long" or "short"


def _high_water(run, state_class: type, field: str) -> int:
    """The longest `field` of any `state_class` state a step of `run` enters."""
    targets = (step_.transition.target for step_ in run.steps)
    return max(
        (len(getattr(t, field)) for t in targets if isinstance(t, state_class)), default=0
    )


def max_displacement(run) -> int:
    """Largest number of foreign entries held aside by any single pop."""
    return _high_water(run, DisplacedState, "displaced")


def buffer_high_water(run) -> int:
    return _high_water(run, BufferedState, "buffer")


def buffered_arcs(run) -> list[ArcRecord]:
    """Reconstruct each machine's arcs from a buffered-product run,
    labelled short or long by how the push was realized."""
    arcs: list[ArcRecord] = []
    shadow: list[tuple] = []  # open long pushes as (owner, symbol, pos)
    open_shorts: list[tuple] = []  # mirrors buffer order as (owner, symbol, pos)
    for step_ in run.steps:
        t = step_.transition
        source, target = t.source, t.target
        if not isinstance(target, BufferedState):
            continue
        pos = step_.input_pos
        if t.action.kind == PUSH:
            owner, sym = t.action.symbol
            shadow.append((owner, sym, pos))
        elif t.action.kind == POP:
            owner, sym = t.action.symbol
            o, s, opened = shadow.pop()
            arcs.append(ArcRecord(o, s, opened, pos, "long"))
        elif isinstance(source, BufferedState):
            if len(target.buffer) == len(source.buffer) + 1:
                owner, sym, _ = target.buffer[-1]
                open_shorts.append((owner, sym, pos))
            elif len(target.buffer) == len(source.buffer) - 1 and source.queue:
                _, owner, sym = source.queue[0]
                idx = BufferedProduct._newest_match(source.buffer, owner, sym)
                o, s, opened = open_shorts.pop(idx)
                arcs.append(ArcRecord(o, s, opened, pos, "short"))
    return sorted(arcs, key=lambda a: (a.owner, a.push_pos, a.pop_pos))


def fragment_to_json(
    product, max_len: int, limits: SearchLimits = DEFAULT_LIMITS
) -> dict:
    """Exhaustively expanded fragment of the product, as an interchange
    machine with opaque state labels plus a side table describing each
    composite state.

    pda-v1 has one acceptance mode per machine, so a pair whose components
    differ in mode is refused: the product checks residue per owner, which a
    single mode cannot express.
    """
    modes = [product.component(owner).acceptance_mode for owner in (1, 2)]
    if modes[0] != modes[1]:
        raise ValueError(
            f"cannot export a fragment of machines with acceptance modes {modes[0]}"
            f" and {modes[1]}: pda-v1 has one acceptance mode per machine"
        )
    edges = set()
    for _, applied in explore_reachable(product, max_len, limits):
        edges.update(applied)
    start = product.initial_config().state
    labels = {start: "c0"}
    for t in sorted(edges, key=lambda t: (str(t.source), str(t.read), str(t.target))):
        for state in (t.source, t.target):
            labels.setdefault(state, f"c{len(labels)}")

    def relabel(t: Transition) -> Transition:
        symbol = t.action.symbol
        if symbol is not None:
            symbol = _describe_entry(symbol)
        action = StackAction(t.action.kind, symbol)
        return Transition(labels[t.source], t.read, action, labels[t.target], t.auxiliary)

    transitions = [relabel(t) for t in edges]
    bottom = _describe_entry(_BOTTOM)
    fragment = Pda(
        states=labels.values(),
        input_alphabet=product.input_alphabet,
        stack_alphabet={bottom} | {t.action.symbol for t in transitions} - {None},
        transitions=transitions,
        start=labels[start],
        bottom=bottom,
        accept=[label for s, label in labels.items() if product.accepts_control(s)],
        acceptance_mode=modes[0],
    )
    document = pda_to_json(fragment)
    document["composite_state_labels"] = {label: s.describe() for s, label in labels.items()}
    document["product"] = {
        "kind": product.kind,
        "parameter": product.parameter,
        "explored_input_length": max_len,
    }
    return document
