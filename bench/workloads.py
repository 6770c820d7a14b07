"""Jobs of the three benchmark workloads, their inputs and their known answers.

A job is the library work one `islab` subcommand does: it starts from
interchange documents (pda-v1, blocks-v1, cfg-v1), loads them through the
public loaders and returns a verdict.  Every job carries a check that
compares the verdict with an answer computed here, independently of the
program: language predicates, block counting and closed forms.

Before each timed execution the documents are relabelled: states, stack
symbols and nonterminals get a fresh prefix, block letters are swapped for
fresh characters.  The relabelling keeps the sort order of all names, so
every execution does exactly the same search, while no cache that outlives
one call can ever hit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import comb

from islab import corpus
from islab.blocks import joint_to_json
from islab.grammar import cfg_to_json
from islab.pda import pda_to_json

PRODUCT_VERIFY = "product-verify"
LONG_WORD_GEOMETRY = "long-word-geometry"
ORACLE_CHECK = "oracle-check"
WORKLOADS = (PRODUCT_VERIFY, LONG_WORD_GEOMETRY, ORACLE_CHECK)

# Fresh block letters are drawn from the CJK block, far from every letter
# the corpus uses; drawn letters are sorted so block order is kept.
_LETTER_POOL = range(0x4E00, 0x9FA0)
_TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True)
class Job:
    name: str
    docs: dict  # role -> interchange document with canonical names
    run: object  # (api, docs) -> verdict
    check: object  # (verdict, Relabel) -> True when the verdict is the known answer


class Relabel:
    """One execution's renaming, and its inverse for the checks."""

    def __init__(self, rng, docs: dict):
        # Library-made names (S0, T, B, Z, P, #halt, b0, X1_2) never start
        # with a lowercase letter, so a fixed first letter keeps their order
        # against renamed names the same in every execution.
        self.token = "n" + "".join(rng.choice(_TOKEN_CHARS) for _ in range(7)) + "."
        letters = sorted(
            {ch for doc in docs.values() if doc["format"] == "blocks-v1"
             for alphabet in doc["alphabets"] for ch in alphabet}
        )
        fresh = sorted(rng.sample(_LETTER_POOL, len(letters)))
        self.letters = {old: chr(new) for old, new in zip(letters, fresh)}
        self._back = str.maketrans({new: old for old, new in self.letters.items()})

    def docs(self, docs: dict) -> dict:
        return {role: self._doc(doc) for role, doc in docs.items()}

    def word(self, w: str) -> str:
        """Map a word over fresh block letters back to canonical letters."""
        return w.translate(self._back)

    def name(self, label: str) -> str:
        return label[len(self.token):] if label.startswith(self.token) else label

    def _doc(self, doc: dict) -> dict:
        kind = doc["format"]
        if kind == "pda-v1":
            return self._pda(doc)
        if kind == "cfg-v1":
            return self._cfg(doc)
        if kind == "blocks-v1":
            return {
                **doc,
                "alphabets": [[self.letters[ch] for ch in a] for a in doc["alphabets"]],
            }
        raise ValueError(f"cannot relabel a {kind} document")

    def _pda(self, doc: dict) -> dict:
        tok = self.token
        transitions = []
        for t in doc["transitions"]:
            action = dict(t["action"])
            if "symbol" in action:
                action["symbol"] = tok + action["symbol"]
            transitions.append({**t, "from": tok + t["from"], "to": tok + t["to"], "action": action})
        return {
            **doc,
            "states": [tok + s for s in doc["states"]],
            "stack_alphabet": [tok + s for s in doc["stack_alphabet"]],
            "transitions": transitions,
            "start": tok + doc["start"],
            "bottom": tok + doc["bottom"],
            "accept": [tok + s for s in doc["accept"]],
        }

    def _cfg(self, doc: dict) -> dict:
        tok = self.token
        nts = set(doc["nonterminals"])
        return {
            **doc,
            "nonterminals": [tok + s for s in doc["nonterminals"]],
            "productions": [
                {"head": tok + p["head"], "body": [tok + s if s in nts else s for s in p["body"]]}
                for p in doc["productions"]
            ],
            "start": tok + doc["start"],
        }


# ---------------------------------------------------------------- references


def _palindrome(s: str) -> bool:
    return s == s[::-1]


def odd_track_ok(w: str) -> bool:
    """Symbols at odd (1-based) positions read the same both ways."""
    return _palindrome(w[0::2])


def even_track_ok(w: str) -> bool:
    return _palindrome(w[1::2])


def a_n_b_kn(w: str, k: int) -> bool:
    n = len(w) - len(w.lstrip("a"))
    return w == "a" * n + "b" * (k * n)


def even_palindrome(w: str) -> bool:
    return len(w) % 2 == 0 and _palindrome(w)


def balanced_parens(w: str) -> bool:
    depth = 0
    for ch in w:
        depth += 1 if ch == "(" else -1
        if depth < 0:
            return False
    return depth == 0


def refutation_word(n: int, m: int = 0) -> str:
    return "aba" + "d" * n + "e" * n + "f" + "g" * m + "h" * m


def block_counts(alphabets, w: str):
    """Per-block letter counts, or None if w is not its blocks in order."""
    owner = {ch: idx for idx, a in enumerate(alphabets) for ch in a}
    counts = [0] * len(alphabets)
    current = 0
    for ch in w:
        idx = owner.get(ch)
        if idx is None or idx < current:
            return None
        current = idx
        counts[idx] += 1
    return counts


def block_member(doc: dict, w: str) -> bool:
    """Membership in both sides of a blocks-v1 document, by counting."""
    counts = block_counts(doc["alphabets"], w)
    if counts is None:
        return False
    return all(counts[l - 1] == counts[r - 1] for l, r in doc["c1"] + doc["c2"])


def block_words(alphabets, max_len: int):
    """Every word of block shape up to max_len."""
    out = [""]
    for alphabet in alphabets:
        grown = []
        for prefix in out:
            for length in range(max_len - len(prefix) + 1):
                for body in itertools.product(sorted(alphabet), repeat=length):
                    grown.append(prefix + "".join(body))
        out = grown
    return out


def _words(alphabet, max_len: int, predicate) -> set:
    return {
        "".join(p)
        for length in range(max_len + 1)
        for p in itertools.product(sorted(alphabet), repeat=length)
        if predicate("".join(p))
    }


def _arcs_cross(a, b) -> bool:
    return a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]


def expected_outcome(doc: dict) -> tuple:
    """(outcome, violation kind) from the constraint arcs alone."""
    for e1 in doc["c1"]:
        for e2 in doc["c2"]:
            if e1 == e2:
                continue
            if set(e1) & set(e2):
                return "NotCFL", "shared-endpoint"
            if _arcs_cross(e1, e2):
                return "NotCFL", "crossing"
    return "CFL", None


# ---------------------------------------------------------------- inputs


def _pair_docs(bundle: str) -> dict:
    first, second = corpus.get(bundle).pair()
    return {"first": pda_to_json(first), "second": pda_to_json(second)}


def _machine_doc(bundle: str, machine: str) -> dict:
    return pda_to_json(corpus.get(bundle).machine(machine))


def _blocks_doc(bundle: str) -> dict:
    return joint_to_json(corpus.get(bundle).joint)


def _cfg_doc(bundle: str) -> dict:
    return cfg_to_json(corpus.get(bundle).grammar)


def _crossing_blocks_accepts(w: str, construct: str, param: int) -> bool:
    """Whether a product accepts a^n b^m c^n d^m from the crossing-blocks pair.

    Every a-c arc crosses every b-d arc.  The displacement product pops an
    a-marker from under the m b-markers only if it may lift m <= 2k foreign
    entries.  The buffered product keeps an arc off the stack only when it
    closes within 2d positions, so one side's arcs must all be that short:
    the outermost a-c arc spans 2n+m-1 positions, the outermost b-d arc n+2m-1.
    """
    n, m, _, _ = block_counts(["a", "b", "c", "d"], w)
    if n == 0 or m == 0:
        return True
    if construct == "displacement":
        return m <= 2 * param
    return min(2 * n + m - 1, n + 2 * m - 1) <= 2 * param


def _pair_intersection(pair: str, max_len: int) -> set:
    if pair == "interleaved-palindrome":
        return _words("01", max_len, lambda w: odd_track_ok(w) and even_track_ok(w))
    if pair == "gap-refutation":
        return {
            refutation_word(n, m)
            for n in range(max_len) for m in range(max_len)
            if 4 + 2 * n + 2 * m <= max_len
        }
    doc = _blocks_doc(pair)
    return {w for w in block_words(doc["alphabets"], max_len) if block_member(doc, w)}


def _product_language(pair: str, construct: str, param: int, max_len: int) -> set:
    both = _pair_intersection(pair, max_len)
    if pair == "crossing-blocks":
        return {w for w in both if _crossing_blocks_accepts(w, construct, param)}
    # Crossings have gap one on the palindrome pair, and inner distance one
    # on the refutation pair: the products are complete there.
    return both


def _product(api, construct, first, second, param):
    if construct == "displacement":
        return api.DisplacementProduct(first, second, param)
    return api.BufferedProduct(first, second, param)


def _state_bound(docs: dict, construct: str, param: int) -> int:
    """Closed-form composite-state bound: one factor per holding slot."""
    q1, q2 = len(docs["first"]["states"]), len(docs["second"]["states"])
    g = len(docs["first"]["stack_alphabet"]) - 1 + len(docs["second"]["stack_alphabet"]) - 1
    if construct == "displacement":
        return q1 * q2 * (g + 1) ** (2 * param)
    return q1 * q2 * (1 + g * 2 * param) ** (8 * param)


# ---------------------------------------------------------------- jobs


def verify_product(pair: str, construct: str, param: int, max_len: int) -> Job:
    """`islab verify --construct displacement|buffered`."""
    docs = _pair_docs(pair)
    want_both = _pair_intersection(pair, max_len)
    want_product = _product_language(pair, construct, param, max_len)

    def run(api, d):
        first, second = api.pda_from_json(d["first"]), api.pda_from_json(d["second"])
        product = _product(api, construct, first, second, param)
        lhs = api.enumerate_language(api.engine(product), max_len)
        rhs = api.enumerate_language(api.engine(first), max_len) & api.enumerate_language(
            api.engine(second), max_len
        )
        return lhs, rhs

    def check(verdict, _):
        lhs, rhs = verdict
        return rhs == want_both and lhs == want_product

    return Job(f"verify-{construct}-{param}:{pair}:L{max_len}", docs, run, check)


def construct_fragment(pair: str, construct: str, param: int, max_len: int) -> Job:
    """`islab construct displacement|buffered`: every composite state of the
    fragment must lie within the closed-form bound."""
    docs = _pair_docs(pair)
    bound = _state_bound(docs, construct, param)

    def run(api, d):
        first, second = api.pda_from_json(d["first"]), api.pda_from_json(d["second"])
        product = _product(api, construct, first, second, param)
        return api.fragment_to_json(api.engine(product), max_len)

    def check(doc, _):
        # A label reads [q1|q2|ops ..|held ..] or [q1|q2|ops ..|buf ..|phase].
        # The counting view is control pair plus held entries, or, for the
        # buffered product, control pair plus buffer of synchronized states.
        views = set()
        for label in doc["composite_state_labels"].values():
            q1, q2, ops, held, *phase = label[1:-1].split("|")
            if not phase or (phase == ["open"] and ops == "ops "):
                views.add((q1, q2, held))
        return (
            doc["format"] == "pda-v1"
            and doc["product"]["explored_input_length"] == max_len
            and len(doc["states"]) == len(doc["composite_state_labels"])
            and 0 < len(views) <= bound
        )

    return Job(f"construct-{construct}-{param}:{pair}:L{max_len}", docs, run, check)


def reachable_states(pair: str, construct: str, param: int, max_len: int) -> Job:
    """Counting views reachable up to max_len: within the closed-form bound,
    and built from the components' own states."""
    docs = _pair_docs(pair)
    bound = _state_bound(docs, construct, param)
    states = (set(docs["first"]["states"]), set(docs["second"]["states"]))

    def run(api, d):
        first, second = api.pda_from_json(d["first"]), api.pda_from_json(d["second"])
        product = _product(api, construct, first, second, param)
        return api.reachable_composite_states(api.engine(product), max_len)

    def check(views, names):
        return 0 < len(views) <= bound and all(
            names.name(q1) in states[0] and names.name(q2) in states[1]
            for q1, q2, _ in views
        )

    return Job(f"reachable-{construct}-{param}:{pair}:L{max_len}", docs, run, check)


def simulate(bundle: str, machine: str, word: str, predicate, label: str) -> Job:
    """`islab simulate`; label names the word in the job name."""
    docs = {"machine": _machine_doc(bundle, machine)}
    want = predicate(word)

    def run(api, d):
        ok, accepting = api.accepts(api.engine(api.pda_from_json(d["machine"])), word)
        return ok, None if accepting is None else accepting.final.input_pos

    def check(verdict, _):
        return verdict == (want, len(word) if want else None)

    return Job(f"simulate:{machine}:{label}", docs, run, check)


def runs(bundle: str, machine: str, word: str, predicate) -> Job:
    """`islab runs` on a deterministic machine: one run or none."""
    docs = {"machine": _machine_doc(bundle, machine)}
    want = 1 if predicate(word) else 0

    def run(api, d):
        found = api.enumerate_runs(api.engine(api.pda_from_json(d["machine"])), word, cap=20)
        return [r.final.input_pos for r in found]

    def check(ends, _):
        return ends == [len(word)] * want

    return Job(f"runs:{machine}:|{len(word)}|", docs, run, check)


def _crossing_measures(api, d, word):
    first, second = api.pda_from_json(d["first"]), api.pda_from_json(d["second"])
    analyses = api.analyze_pair(first, second, word)
    return [(c.measures.gap, c.measures.inner) for c in analyses[0].crossings]


def crossings_palindrome(length: int) -> Job:
    """`islab crossings` on 0^length: each odd-track arc crosses just the
    adjacent even-track arc, so |w|/4 crossings, all of gap one."""
    docs = _pair_docs("interleaved-palindrome")
    word = "0" * length

    def check(measures, _):
        return len(measures) == length // 4 and all(gap == 1 for gap, _ in measures)

    return Job(
        f"crossings:interleaved-palindrome:|{length}|",
        docs, lambda api, d: _crossing_measures(api, d, word), check,
    )


def crossings_refutation(n: int) -> Job:
    """One crossing, inner distance 1, gap 2n+1."""
    docs = _pair_docs("gap-refutation")
    word = refutation_word(n)
    return Job(
        f"crossings:gap-refutation:n{n}",
        docs,
        lambda api, d: _crossing_measures(api, d, word),
        lambda measures, _: measures == [(2 * n + 1, 1)],
    )


def report_family(pair: str, words: list, regime: str) -> Job:
    """`islab report --svg`: analyze every size, classify, draw the largest.
    The regimes follow from the closed forms above: constant gap on the
    palindrome pair, growing gap with constant inner on the refutation pair."""
    docs = _pair_docs(pair)

    def run(api, d):
        first, second = api.pda_from_json(d["first"]), api.pda_from_json(d["second"])
        samples = []
        for word in words:
            analyses = api.analyze_pair(first, second, word)
            samples.append((word, [c.measures for c in analyses[0].crossings]))
        report = api.classify_family(samples)
        largest = api.analyze_pair(first, second, words[-1])
        svg = api.render_pair_analysis(largest[0], title=f"{pair} |w|={len(words[-1])}")
        return report.regime, svg

    def check(verdict, _):
        got, svg = verdict
        return got == regime and svg.lstrip().startswith("<svg") and svg.rstrip().endswith("</svg>")

    return Job(f"report:{pair}:{len(words)}-sizes", docs, run, check)


def verify_grammar(bundle: str, max_len: int, predicate) -> Job:
    """`islab verify --construct grammar`: the pipeline machine against CYK
    on every word up to max_len."""
    docs = {"grammar": _cfg_doc(bundle)}
    want = _words(docs["grammar"]["terminals"], max_len, predicate)

    def run(api, d):
        cnf = api.to_cnf(api.cfg_from_json(d["grammar"]))
        machine = api.gnf_to_pda(api.to_gnf(cnf))
        lhs = api.enumerate_language(api.engine(machine), max_len)
        rhs = set()
        alphabet = sorted(cnf.terminals)
        frontier = [""]
        while frontier:
            word = frontier.pop()
            if api.cyk_membership(cnf, word):
                rhs.add(word)
            if len(word) < max_len:
                frontier.extend(word + ch for ch in alphabet)
        return lhs, rhs

    def check(verdict, _):
        lhs, rhs = verdict
        return lhs == rhs == want

    return Job(f"verify-grammar:{bundle}:L{max_len}", docs, run, check)


def verify_joint(bundle: str, max_len: int) -> Job:
    """`islab verify --construct joint`: the joint machine against block
    membership on every block-shaped word up to max_len."""
    docs = {"blocks": _blocks_doc(bundle)}
    canonical = docs["blocks"]
    want = {w for w in block_words(canonical["alphabets"], max_len) if block_member(canonical, w)}

    def run(api, d):
        spec = api.joint_from_json(d["blocks"])
        verdict = api.characterize(spec)
        if not verdict.is_cfl:
            raise ValueError(f"cannot verify a joint machine: {verdict.reason}")
        lhs = api.enumerate_language(api.engine(api.build_joint_pda(spec)), max_len)
        member = api.oracle(spec.in_intersection)
        rhs = {w for w in block_words(spec.alphabets, max_len) if member(w)}
        return lhs, rhs

    def check(verdict, names):
        lhs, rhs = verdict
        return {names.word(w) for w in lhs} == {names.word(w) for w in rhs} == want

    return Job(f"verify-joint:{bundle}:L{max_len}", docs, run, check)


def characterize_bundle(bundle: str) -> Job:
    """`islab characterize`, with the n=3 witness for a violation."""
    docs = {"blocks": _blocks_doc(bundle)}
    outcome, kind = expected_outcome(docs["blocks"])

    def run(api, d):
        spec = api.joint_from_json(d["blocks"])
        verdict = api.characterize(spec)
        if verdict.violation is None:
            return verdict.outcome, None, None
        witness = api.witness_string(spec, verdict.violation, 3)
        return verdict.outcome, verdict.violation.kind, witness

    def check(verdict, names):
        got, got_kind, witness = verdict
        if (got, got_kind) != (outcome, kind):
            return False
        return witness is None or block_member(docs["blocks"], names.word(witness))

    return Job(f"characterize:{bundle}", docs, run, check)


def linkage_hypotheses(mode: str, n: int) -> Job:
    """`islab linkage --blocks all-equal --witness abcd --hypotheses MODE`.
    Both linkages hold and each scan examines C(|w|+4, 4) factorizations."""
    docs = {"oracle": _blocks_doc("all-equal"), "witness": _blocks_doc("abcd")}
    word = "a" * n + "b" * n + "c" * n + "d" * n
    examined = comb(len(word) + 4, 4)

    def run(api, d):
        oracle_spec = api.joint_from_json(d["oracle"])
        source = api.joint_from_json(d["witness"])
        verdict = api.characterize(source)
        package = api.segments_and_linkages(source, verdict.violation, n)
        oracle = api.oracle(oracle_spec.in_intersection)
        if not oracle(package.word):
            return package.word, None
        report = api.check_crossing_hypotheses(
            oracle, package.word, package.decomposition, mode, n
        )
        return package.word, report

    def check(verdict, names):
        got_word, report = verdict
        return (
            names.word(got_word) == word
            and report is not None
            and report.holds
            and report.outer_linkage.examined == examined
            and report.inner_linkage.examined == examined
        )

    return Job(f"linkage-{mode}:all-equal:n{n}", docs, run, check)


def past_limit_jobs() -> list:
    """Run enumerations that end in RecursionError: the engine recurses once
    per step, deeper than Python's limit.  They stay cheap once fixed, and are
    reported by the traced run, not timed, since the timed workloads hold only
    jobs that succeed."""
    return [
        runs("counter", "counter", "a" * 600 + "b" * 600, partial(a_n_b_kn, k=1)),
        runs("double-push", "doubler", "a" * 300 + "b" * 600, partial(a_n_b_kn, k=2)),
    ]


def build(workload: str, tiny: bool = False) -> list:
    """The workload's jobs; tiny sizes run in well under a second.

    Sizes are chosen so the pooled median falls inside one job whose
    neighbours take at least 1.5 times more or less (13, 19 and 11 jobs),
    and the slowest job, or pair of jobs, holds the samples around the
    tail: then neither statistic jumps between jobs from run to run.
    """
    if workload == PRODUCT_VERIFY:
        ip, gr, cb = "interleaved-palindrome", "gap-refutation", "crossing-blocks"
        big = 4 if tiny else 8
        return [
            verify_product(ip, "displacement", 1, big),
            verify_product(ip, "displacement", 2, big - 1),
            verify_product(gr, "displacement", 1, big + 1),
            verify_product(gr, "displacement", 2, big),
            verify_product(gr, "buffered", 1, big),
            verify_product(cb, "displacement", 1, big + 2),
            verify_product(cb, "displacement", 2, big),
            verify_product(cb, "buffered", 1, big),
            construct_fragment(ip, "displacement", 1, big),
            construct_fragment(gr, "buffered", 1, big),
            construct_fragment(cb, "displacement", 2, big),
            reachable_states(ip, "buffered", 1, big - 1),
            reachable_states(cb, "displacement", 1, big),
        ]
    if workload == LONG_WORD_GEOMETRY:
        scale = 1 if tiny else 8
        ip = "interleaved-palindrome"
        anbn, anb2n = partial(a_n_b_kn, k=1), partial(a_n_b_kn, k=2)
        jobs = []
        for length in (25 * scale, 50 * scale, 75 * scale):
            jobs.append(simulate(ip, "odd-track", "0" * length, odd_track_ok, f"0^{length}"))
            jobs.append(simulate(ip, "even-track", "0" * length, even_track_ok, f"0^{length}"))
        n = 50 * scale
        jobs += [
            simulate(ip, "odd-track", "1" + "0" * (n - 1), odd_track_ok, f"10^{n - 1}"),
            simulate(ip, "even-track", "01" + "0" * (n - 2), even_track_ok, f"010^{n - 2}"),
            simulate("counter", "counter", "a" * n + "b" * n, anbn, f"a^{n}b^{n}"),
            simulate("counter", "counter", "a" * n + "b" * (n - 1), anbn, f"a^{n}b^{n - 1}"),
            simulate("double-push", "doubler", "a" * (n * 2 // 3) + "b" * (n * 4 // 3), anb2n,
                     f"a^{n * 2 // 3}b^{n * 4 // 3}"),
            runs("counter", "counter", "a" * 38 * scale + "b" * 38 * scale, anbn),
            runs("double-push", "doubler", "a" * 19 * scale + "b" * 38 * scale, anb2n),
            crossings_palindrome(12 * scale),
            crossings_palindrome(36 * scale),
            crossings_refutation(12 * scale),
            crossings_refutation(36 * scale),
            report_family(ip, ["0" * (4 * k * scale) for k in (1, 2, 4, 6)], "bounded-gap"),
            report_family(
                "gap-refutation",
                [refutation_word(k * scale) for k in (2, 4, 8, 16)],
                "bounded-inner-unbounded-gap",
            ),
        ]
        return jobs
    if workload == ORACLE_CHECK:
        big = 6 if tiny else 11
        jobs = [
            verify_grammar("even-palindrome-grammar", big, even_palindrome),
            verify_grammar("balanced-parens-grammar", big - 1, balanced_parens),
            verify_grammar("matched-pairs-grammar", big - 1, partial(a_n_b_kn, k=1)),
            verify_joint("nested-blocks", big + 1),
            verify_joint("nested-blocks", big + 3),
        ]
        jobs += [
            characterize_bundle(b)
            for b in ("crossing-blocks", "shared-endpoint-blocks", "nested-blocks",
                      "chained-equal-blocks")
        ]
        jobs += [
            linkage_hypotheses("four-large", 2 if tiny else 6),
            linkage_hypotheses("inner-growing", 3 if tiny else 7),
        ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
