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
  Each machine keeps its own stack order: while it has a buffered push,
  its pushes are buffered too, and its pops take its newest one.

Each position is simulated as one reading step followed by epsilon
micro-steps that drain the queued stack operations (plus, for the
buffered product, one closing step that advances the countdowns), so the
standard engine in pda explores these machines unchanged.

Each product interns its composite states (see `_ProductBase._state`), so
equal states of one product are one object, and the engine's tables, the
product's expansion table and the live-depth rows hash and compare them by
identity, in C, however long their queues and buffers are.  States built by
two products compare unequal, and a copy or pickle of a state is a new one.
"""

from __future__ import annotations

from .arcs import UnbalancedRun
from .pda import (
    AcceptingRun,
    Configuration,
    FINAL_STATE_BOTTOM_ONLY,
    MAX_CONFIGS,
    NONE,
    POP,
    PUSH,
    Pda,
    RunStep,
    StackAction,
    Transition,
    _Search,
    _set,
    _Value,
    check_length_bound,
    limit_exceeded,
    pda_to_json,
    validate_normal_form,
)

DISPLACEMENT = "displacement"
BUFFERED = "buffered"

_BOTTOM = (0, "$")


def _describe_entry(entry) -> str:
    return f"{entry[0]}:{entry[1]}"


class DisplacedState(_Value):
    """Composite control: both machine states, the queue of stack
    operations still owed for the current position, and the foreign
    entries currently lifted aside mid-pop.  Compared and hashed by
    identity: two products, a copy or a pickle give unequal states."""

    _fields = ("q1", "q2", "queue", "displaced")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, q1, q2, queue: tuple = (), displaced: tuple = ()):
        _set(self, "q1", q1)
        _set(self, "q2", q2)
        _set(self, "queue", queue)
        _set(self, "displaced", displaced)

    @property
    def is_sync(self) -> bool:
        return not self.queue and not self.displaced

    def describe(self) -> str:
        ops = " ".join(f"{k}:{o}:{s}" for k, o, s in self.queue)
        held = " ".join(_describe_entry(e) for e in self.displaced)
        return f"[{self.q1}|{self.q2}|ops {ops}|held {held}]"


class BufferedState(_Value):
    """Composite control for the buffered product; closing marks the
    pending end-of-position countdown step.  Compared and hashed by
    identity, as `DisplacedState` is."""

    _fields = ("q1", "q2", "queue", "buffer", "closing")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, q1, q2, queue: tuple = (), buffer: tuple = (), closing: bool = False):
        _set(self, "q1", q1)
        _set(self, "q2", q2)
        _set(self, "queue", queue)
        _set(self, "buffer", buffer)
        _set(self, "closing", closing)

    @property
    def is_sync(self) -> bool:
        return not self.queue and not self.closing

    def describe(self) -> str:
        ops = " ".join(f"{k}:{o}:{s}" for k, o, s in self.queue)
        buf = " ".join(f"{o}:{s}@{t}" for o, s, t in self.buffer)
        phase = "closing" if self.closing else "open"
        return f"[{self.q1}|{self.q2}|ops {ops}|buf {buf}|{phase}]"


def _moves(machine: Pda, state, symbol: str) -> list:
    """All one-position moves of a machine, as transition chains: a reading
    transition, optionally followed by a chained auxiliary push."""
    out = []
    for t in machine.transitions_from(state):
        if t.read != symbol:
            continue
        out.append((t,))
        for aux in machine.transitions_from(t.target):
            if aux.read is None and aux.auxiliary:
                out.append((t, aux))
    return out


def _tag(chain, owner: int) -> tuple:
    """A move's stack operations as queue entries (kind, owner, symbol)."""
    ops = (t.action for t in chain)
    return tuple((op.kind, owner, op.symbol) for op in ops if op.kind != NONE)


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
    bottom = _BOTTOM

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
        self.input_alphabet = first.input_alphabet & second.input_alphabet
        self._table: dict = {}
        self._states: dict = {}
        self.start = self._state(self.state_class(first.start, second.start))
        self._bottom_only_owners = frozenset(
            owner
            for owner in (1, 2)
            if self.component(owner).acceptance_mode == FINAL_STATE_BOTTOM_ONLY
        )

    def component(self, owner: int) -> Pda:
        return self.first if owner == 1 else self.second

    def _state(self, state, **changes):
        """This product's one state with the fields of `state` but `changes`;
        setdefault on a miss keeps one object per value across threads."""
        values = tuple({**vars(state), **changes}.values())
        found = self._states.get(values)
        if found is None:
            found = self._states.setdefault(values, self.state_class(*values))
        return found

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

    def floor_depths(self, input_len: int) -> None:
        """None: a product has no floor depths.  Entries lifted aside and
        buffered pushes take pops off the stack, so a run of pops need not
        shrink it (see `Pda.floor_depths`)."""
        return None

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
            for move1 in _moves(self.first, state.q1, symbol):
                for move2 in _moves(self.second, state.q2, symbol):
                    a, b = _tag(move1, 1), _tag(move2, 2)
                    queues = [a + b] if b + a == a + b else [a + b, b + a]
                    t1, t2 = move1[-1].target, move2[-1].target
                    for queue in queues:
                        nxt = self._after_read(state, t1, t2, queue)
                        out.append(Transition(state, symbol, StackAction.none(), nxt))
        return tuple(out)


class DisplacementProduct(_ProductBase):
    """Sound for any pair; complete whenever every crossing between the two
    matchings has gap at most k."""

    kind = DISPLACEMENT
    state_class = DisplacedState

    def __init__(self, first: Pda, second: Pda, k: int):
        if k < 0:
            raise ValueError("gap parameter must be nonnegative")
        super().__init__(first, second, k)

    def _after_read(self, state, t1, t2, queue) -> DisplacedState:
        return self._state(state, q1=t1, q2=t2, queue=queue, displaced=())

    def projection(self, state: DisplacedState):
        """Counting view: control pair plus the held foreign symbols."""
        return (state.q1, state.q2, state.displaced)

    def _expand(self, state: DisplacedState) -> tuple:
        if not state.queue:
            return self._reads(state)
        (op, owner, sym), rest = state.queue[0], state.queue[1:]
        if op == PUSH:
            drained = self._state(state, queue=rest)
            return (_aux(state, StackAction.push((owner, sym)), drained),)
        restore = tuple((PUSH, o, s) for o, s in reversed(state.displaced))
        done = self._state(state, queue=restore + rest, displaced=())
        out = [_aux(state, StackAction.pop((owner, sym)), done)]
        if len(state.displaced) < 2 * self.parameter:
            other = 2 if owner == 1 else 1
            machine = self.component(other)
            for foreign in sorted(machine.stack_alphabet - {machine.bottom}):
                entry = (other, foreign)
                lifted = self._state(state, displaced=state.displaced + (entry,))
                out.append(_aux(state, StackAction.pop(entry), lifted))
        return tuple(out)


class BufferedProduct(_ProductBase):
    """Sound for any pair; complete whenever every crossing between the two
    matchings has inner distance at most d, with no bound on the gap.

    Sound because each owner pops in its own stack order.  While an owner
    has an entry in the buffer, its pushes go there too: an arc nested in
    a short arc is short.  A pop of that owner takes its newest buffered
    entry, and the path dies if that entry holds another symbol."""

    kind = BUFFERED
    state_class = BufferedState

    def __init__(self, first: Pda, second: Pda, d: int):
        if d < 0:
            raise ValueError("inner parameter must be nonnegative")
        super().__init__(first, second, d)

    def _after_read(self, state, t1, t2, queue) -> BufferedState:
        return self._state(state, q1=t1, q2=t2, queue=queue, closing=True)

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
            done = self._state(state, buffer=aged, closing=False)
            return (_aux(state, StackAction.none(), done),)
        (op, owner, sym), rest = state.queue[0], state.queue[1:]
        mine = [idx for idx, entry in enumerate(buffer) if entry[0] == owner]
        drained = None if mine else self._state(state, queue=rest)
        if op == PUSH:
            out = [] if mine else [_aux(state, StackAction.push((owner, sym)), drained)]
            if len(buffer) < 8 * self.parameter:
                entry = (owner, sym, 2 * self.parameter)
                short = self._state(state, queue=rest, buffer=buffer + (entry,))
                out.append(_aux(state, StackAction.none(), short))
            return tuple(out)
        if not mine:
            return (_aux(state, StackAction.pop((owner, sym)), drained),)
        idx = mine[-1]  # the owner's newest entry: another symbol ends the path
        if buffer[idx][1] != sym:
            return ()
        taken = self._state(state, queue=rest, buffer=buffer[:idx] + buffer[idx + 1 :])
        return (_aux(state, StackAction.none(), taken),)


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


def _control_graph(product, max_len: int, max_configs: int) -> dict:
    """Each composite state reachable within max_len reads, whatever the
    stack, mapped to (the fewest reads reaching it, its transitions).  Each
    state fetched is one expansion charged to `max_configs`.

    Each machine pushes at most twice per read, so a run of max_len reads
    never holds more than 4 * max_len entries above the bottom, and no state
    that has lifted more aside is walked to, whatever the gap bound.  The
    bound is max_len's, not the reads of the state: each state is expanded
    once, at its fewest reads, and a longer run may reach it over a deeper
    stack."""
    check_length_bound(max_len)
    held = 4 * max_len
    graph: dict = {}
    layer = [product.start]
    furthest = 0
    for reads in range(max_len + 1):
        if not layer:
            break
        later = []
        while layer:
            state = layer.pop()
            if state in graph:
                continue
            if len(graph) >= max_configs:
                raise limit_exceeded(len(graph), furthest, max_len)
            furthest = reads
            graph[state] = reads, product.transitions_from(state)
            for t in graph[state][1]:
                if len(getattr(t.target, "displaced", ())) <= held:
                    (layer if t.read is None else later).append(t.target)
        layer = later
    return graph


def reachable_composite_states(product, max_len: int, max_configs: int = MAX_CONFIGS) -> set:
    """Distinct counting-view projections of the control states reachable
    within max_len reads.  The stack is not consulted, so this
    over-approximates the views of reachable configurations."""
    graph = _control_graph(product, max_len, max_configs)
    return {product.projection(state) for state in graph} - {None}


def component_runs(product, run: AcceptingRun) -> tuple:
    """The two component runs behind an accepting product run, each
    replayed on the engine's one-word search, the one `accepts` runs.  Each
    reading step of a sync state fixes each owner's move: its state in the
    step's target and its stack operations as the target's queue orders
    them, and each transition of that move must be a successor the search
    gives.  Raises UnbalancedRun, naming the owner and the position, when
    a projected step is not one its machine takes there, or the replay
    ends outside acceptance.  The search prunes to moves that can still
    accept this word, so "cannot" means cannot on the way to acceptance,
    and the position named is where the pruning stopped the replay, which
    may come before the step at fault."""
    reads = [s for s in run.steps if s.transition.read is not None]
    word = "".join(s.transition.read for s in reads)
    out = []
    for owner in (1, 2):
        machine = product.component(owner)
        search = _Search(machine, len(word), MAX_CONFIGS, one_word=True)
        state, pos, cell = search.start()
        steps = []
        for read in reads:
            at, target = read.input_pos, read.transition.target
            ops = tuple(entry for entry in target.queue if entry[1] == owner)
            goal = target.q1 if owner == 1 else target.q2
            for move in _moves(machine, state, read.transition.read):
                if move[-1].target == goal and _tag(move, owner) == ops:
                    break
            else:
                raise UnbalancedRun(f"machine {owner} has no move at position {at}")
            for t in move:
                symbol = word[pos] if pos < len(word) else None
                taken = [s for s in search.successors(state, pos, cell, symbol) if s[0] == t]
                if not taken:
                    raise UnbalancedRun(f"machine {owner} cannot {t.describe()} at position {at}")
                _, pos, cell = taken[0]
                state = t.target
                steps.append(RunStep(t, pos, cell.depth))
        if not machine.is_accepting(state, cell):
            raise UnbalancedRun(f"machine {owner} does not accept at position {pos}")
        out.append(AcceptingRun(tuple(steps), Configuration(state, pos, cell.entries())))
    return tuple(out)


def fragment_to_json(product, max_len: int, max_configs: int = MAX_CONFIGS) -> dict:
    """The product's control graph trimmed to max_len, as an interchange
    machine with opaque state labels plus a side table describing each
    composite state.

    A transition s -> t is kept when the fewest reads to s, its own read
    and the fewest reads from t to an `accepts_control` state add up to at
    most max_len, so fragment and product accept the same words up to
    max_len.  Without such a path the fragment is the start state alone.

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
    graph = _control_graph(product, max_len, max_configs)
    far = max_len + 1
    left = {state: 0 for state in graph if product.accepts_control(state)}
    changed = True
    while changed:  # left: the fewest reads, up to max_len, to acceptance
        changed = False
        for state, (_, applied) in reversed(graph.items()):
            for t in applied:
                reads = left.get(t.target, far) + (t.read is not None)
                if reads < left.get(state, far):
                    left[state] = reads
                    changed = True
    edges = [
        t
        for reads, applied in graph.values()
        for t in applied
        if reads + (t.read is not None) + left.get(t.target, far) <= max_len
    ]
    start = product.start
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
