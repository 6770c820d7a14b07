"""The public calls a job makes, optionally wrapped in spans and counters.

Jobs call the library only through an `Api`.  Untraced, its attributes are
the library functions themselves.  Traced, every call is a span (name,
start, end, parent span, job id) kept in memory, and the objects the
program calls back are wrapped: machines and products handed to the engine
count `transitions_from` calls, products and membership oracles also time
them.  A span's self time is its duration minus the time of the spans and
timed callbacks inside it; self time is charged to the layer that names the
span (`pda`, `products`, `arcs`, ...).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from islab import arcs, blocks, diagrams, grammar, pda, products, pumping

# (layer, function) for every public call a job makes.
PUBLIC_CALLS = [
    (pda, "pda_from_json"), (pda, "accepts"), (pda, "enumerate_runs"),
    (pda, "enumerate_language"),
    (products, "DisplacementProduct"), (products, "BufferedProduct"),
    (products, "fragment_to_json"), (products, "reachable_composite_states"),
    (arcs, "analyze_pair"), (arcs, "classify_family"),
    (diagrams, "render_pair_analysis"),
    (blocks, "joint_from_json"), (blocks, "characterize"), (blocks, "build_joint_pda"),
    (blocks, "witness_string"), (blocks, "segments_and_linkages"),
    (pumping, "check_crossing_hypotheses"),
    (grammar, "cfg_from_json"), (grammar, "to_cnf"), (grammar, "to_gnf"),
    (grammar, "gnf_to_pda"), (grammar, "cyk_membership"),
]


def _layer_name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Api:
    """Untraced: the library as is."""

    def __init__(self):
        for module, name in PUBLIC_CALLS:
            setattr(self, name, getattr(module, name))

    def engine(self, machine):
        return machine

    def oracle(self, member):
        return member


class Tracer(Api):
    """Traced: spans around public calls and counting wrappers on callbacks.

    `begin(job_id)` and `end()` bracket one job execution; `end` returns the
    execution's totals (`<span>.s` seconds and counts) and self time per layer.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, job id)
        self._open = []  # [span index, seconds of children, name] per open span
        self._job = None
        for module, name in PUBLIC_CALLS:
            setattr(self, name, self._wrap(f"{_layer_name(module)}.{name}", getattr(module, name)))
        self.enumerate_language = self._wrap(
            "pda.enumerate_language", pda.enumerate_language,
            rename=lambda args: "pda.enumerate_language.product"
            if isinstance(args[0], _TimedProduct) else "pda.enumerate_language",
        )
        self._hooks = {
            "arcs.analyze_pair": lambda result: self._add(
                "arcs.crossings", sum(len(a.crossings) for a in result)),
            "grammar.to_cnf": lambda result: self._add(
                "grammar.cnf_productions", len(result.productions)),
            "grammar.to_gnf": lambda result: self._add(
                "grammar.gnf_productions", len(result.productions)),
            "grammar.cyk_membership": lambda result: self._add(
                "grammar.cyk_membership.calls", 1),
            "pumping.check_crossing_hypotheses": self._count_linkage,
        }

    # -- job brackets

    def begin(self, job_id: int) -> None:
        self._job = job_id
        self._totals = defaultdict(float)
        self._self = defaultdict(float)
        self._wrapped = []

    def end(self) -> tuple:
        for wrapper in self._wrapped:
            wrapper.collect(self._add)
        self._job = None
        return dict(self._totals), dict(self._self)

    # -- wrappers handed to jobs

    def engine(self, machine):
        if isinstance(machine, pda.Pda):
            wrapper = _CountedMachine(machine)
        else:
            wrapper = _TimedProduct(machine, self._charge)
        self._wrapped.append(wrapper)
        return wrapper

    def oracle(self, member):
        wrapper = _TimedOracle(member, self._charge)
        self._wrapped.append(wrapper)
        return wrapper

    # -- bookkeeping

    def _add(self, metric: str, value) -> None:
        self._totals[metric] += value

    def _charge(self, layer: str, seconds: float):
        """Time spent in a callback: the callback's layer's self time, and
        not the enclosing span's.  Returns the enclosing span's name."""
        self._self[layer] += seconds
        if not self._open:
            return None
        self._open[-1][1] += seconds
        return self._open[-1][2]

    def _count_linkage(self, report) -> None:
        for linkage in (report.outer_linkage, report.inner_linkage):
            self._add("pumping.examined", linkage.examined)
            self._add("pumping.relevant", linkage.relevant)
            self._add("pumping.oracle_calls", linkage.oracle_calls)

    def _wrap(self, name, fn, rename=None):
        def traced(*args, **kwargs):
            span_name = rename(args) if rename else name
            parent = self._open[-1][0] if self._open else None
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0, span_name]
            self._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = perf_counter()
                self._open.pop()
                self.spans[index] = (span_name, start, stop, parent, self._job)
                duration = stop - start
                self._self[span_name.split(".", 1)[0]] += duration - frame[1]
                self._totals[span_name + ".s"] += duration
                if self._open:
                    self._open[-1][1] += duration
            hook = self._hooks.get(name)
            if hook:
                hook(result)
            return result

        return traced


class _CountedMachine:
    """A plain machine handed to the engine; counts expansions."""

    def __init__(self, machine):
        self._machine = machine
        self.calls = 0

    def __getattr__(self, attr):
        return getattr(self._machine, attr)

    def transitions_from(self, state):
        self.calls += 1
        return self._machine.transitions_from(state)

    def collect(self, add) -> None:
        add("pda.expansions", self.calls)


class _TimedProduct:
    """A product handed to the engine or to its own exploration loops."""

    def __init__(self, product, charge):
        self._product = product
        self._charge = charge
        self.calls = 0
        self.states = set()
        self.seconds = 0.0

    def __getattr__(self, attr):
        return getattr(self._product, attr)

    def transitions_from(self, state):
        self.calls += 1
        self.states.add(state)
        start = perf_counter()
        out = self._product.transitions_from(state)
        seconds = perf_counter() - start
        self.seconds += seconds
        self._charge("products", seconds)
        return out

    def collect(self, add) -> None:
        add("products.transitions_from.calls", self.calls)
        add("products.distinct_states", len(self.states))
        add("products.transitions_from.s", self.seconds)


class _TimedOracle:
    """A block-membership oracle handed to the linkage scan or to the joint
    verification.  Its time is the blocks layer's; the part spent inside a
    linkage scan is also reported as the scan's oracle time."""

    def __init__(self, member, charge):
        self._member = member
        self._charge = charge
        self.calls = 0
        self.in_scan = 0.0

    def __call__(self, word):
        self.calls += 1
        start = perf_counter()
        out = self._member(word)
        seconds = perf_counter() - start
        if self._charge("blocks", seconds) == "pumping.check_crossing_hypotheses":
            self.in_scan += seconds
        return out

    def collect(self, add) -> None:
        add("blocks.oracle.calls", self.calls)
        add("pumping.oracle.s", self.in_scan)
