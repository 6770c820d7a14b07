"""Command line front end.

Subcommands map one to one onto library operations: simulate and runs
drive the machine engine, crossings and classify the arc geometry,
characterize and construct the block characterization and the product
builders, verify runs differential oracle checks, linkage runs the
pumping checker, corpus browses the built-in examples, and report renders
a classification table for a family across sizes.

Exit codes: 0 for any computed answer, 1 when simulate rejects or verify
finds mismatches, 2 for bad flags, bad files, or exceeded limits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus
from .arcs import (
    InconclusiveRegime,
    SegmentDecomposition,
    analyze_pair,
    analyze_runs,
    classify_family,
)
from .blocks import (
    CROSSING,
    build_joint_pda,
    characterize,
    joint_from_json,
    joint_to_json,
    segments_and_linkages,
    witness_string,
)
from .diagrams import render_pair_analysis
from .grammar import cfg_from_json, cfg_to_json, gnf_to_pda, to_cnf, to_gnf
from .pda import (
    LimitExceeded,
    SearchLimits,
    accepts,
    enumerate_language,
    enumerate_runs,
    pda_from_json,
    pda_to_json,
    validate_normal_form,
)
from .products import (
    BufferedProduct,
    DisplacementProduct,
    fragment_to_json,
)
from .pumping import (
    FOUR_LARGE,
    INNER_GROWING,
    INNER_PAIR,
    OUTER_PAIR,
    check_crossing_hypotheses,
    check_linkage,
)

DEFAULT_MAX_LEN = 8


class CliError(Exception):
    """Diagnosed failure; message goes to stderr, exit code is 2."""


def _emit(payload: dict, args, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _max_len(args) -> int:
    return DEFAULT_MAX_LEN if args.max_len is None else args.max_len


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CliError(
            f"{path} must hold a JSON object at top level, got {type(data).__name__}"
        )
    return data


def _load_machine(args):
    if args.pda is not None:
        return pda_from_json(_read_json(args.pda))
    bundle = corpus.get(args.corpus)
    if args.machine:
        return bundle.machine(args.machine)
    if len(bundle.machines) == 1:
        return next(iter(bundle.machines.values()))
    if not bundle.machines:
        raise CliError(f"bundle {bundle.name!r} has no machine")
    raise CliError(
        f"bundle {bundle.name!r} has machines {sorted(bundle.machines)}; "
        "pick one with --machine"
    )


def _load_pair(args):
    """The two machines of --pair; both must be in normal form, which the
    products and the arc geometry of every pair command assume."""
    if "," in args.pair:
        paths = args.pair.split(",", 1)
        machines = [pda_from_json(_read_json(path)) for path in paths]
        for path, machine in zip(paths, machines):
            diagnostics = validate_normal_form(machine)
            if diagnostics:
                raise CliError(
                    f"{path} is not in normal form: " + "; ".join(diagnostics)
                )
        return machines[0], machines[1], None
    bundle = corpus.get(args.pair)
    first, second = bundle.pair()
    return first, second, bundle


_DOCUMENTS = {
    "joint": (joint_from_json, "block specification"),
    "grammar": (cfg_from_json, "grammar"),
}


def _load_document(value: str, kind: str):
    """A block spec (kind "joint") or a grammar (kind "grammar"): read from
    `value` if it names a file, else taken from the corpus bundle `value`."""
    from_json, noun = _DOCUMENTS[kind]
    if value.endswith(".json") or os.path.exists(value):
        return from_json(_read_json(value))
    bundle = corpus.get(value)
    document = getattr(bundle, kind)
    if document is None:
        raise CliError(f"bundle {bundle.name!r} carries no {noun}")
    return document


def _limits(args) -> SearchLimits:
    """The budget of --max-expand, which only the searching subcommands take."""
    cap = args.max_expand
    return SearchLimits() if cap is None else SearchLimits(max_configs=cap)


def _nonnegative_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _parse_sizes(raw: str) -> list:
    try:
        sizes = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise CliError(f"--sizes must be comma-separated integers, got {raw!r}")
    if any(n < 0 for n in sizes):
        raise CliError(f"--sizes must be nonnegative, got {raw!r}")
    return sizes


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _write_json(path: str, document: dict) -> None:
    _write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def _write_svg(path: str, text: str) -> None:
    _write_text(path, text)
    print(f"wrote SVG: {path}", file=sys.stderr)


def _run_payload(run) -> list:
    return [
        {
            "step": idx,
            "transition": step.transition.describe(),
            "input_pos": step.input_pos,
            "stack_depth": step.stack_depth_after,
        }
        for idx, step in enumerate(run.steps, start=1)
    ]


def _cmd_simulate(args) -> int:
    machine = _load_machine(args)
    word = args.word if args.word is not None else ""
    ok, run = accepts(machine, word, _limits(args))
    payload = {
        "command": "simulate",
        "word": word,
        "accepted": ok,
        "run": _run_payload(run) if run else None,
    }
    lines = [f"word {word!r}: {'accepted' if ok else 'rejected'}"]
    if run:
        for entry in payload["run"]:
            lines.append(f"  {entry['step']:>3}. {entry['transition']}")
    _emit(payload, args, lines)
    return 0 if ok else 1


def _cmd_runs(args) -> int:
    machine = _load_machine(args)
    word = args.word if args.word is not None else ""
    runs = enumerate_runs(machine, word, cap=args.runs_cap, limits=_limits(args))
    payload = {
        "command": "runs",
        "word": word,
        "count": len(runs),
        "cap": args.runs_cap,
        "runs": [_run_payload(r) for r in runs],
    }
    lines = [f"{len(runs)} accepting run(s) for {word!r} (cap {args.runs_cap})"]
    for idx, run in enumerate(runs, start=1):
        steps = "; ".join(s.transition.describe() for s in run.steps)
        lines.append(f"  run {idx}: {steps if steps else '(no steps)'}")
    _emit(payload, args, lines)
    return 0


def _crossing_rows(analysis) -> list:
    rows = []
    for crossing in analysis.crossings:
        pair = crossing.pair
        rows.append(
            {
                "i": pair.i,
                "i_prime": pair.i_prime,
                "j": pair.j,
                "j_prime": pair.j_prime,
                "gap": crossing.measures.gap,
                "inner": crossing.measures.inner,
                "segment_lengths": list(crossing.decomposition.lengths()),
            }
        )
    return rows


def _cmd_crossings(args) -> int:
    first, second, bundle = _load_pair(args)
    word = args.word
    if word is None:
        if bundle is None or bundle.family is None:
            raise CliError("--n needs a corpus bundle with a word family")
        word = bundle.family(args.n)
    if args.runs_cap < 1:
        # analyze_pair's refusal, made before any search
        raise CliError(f"runs_cap must be at least 1, got {args.runs_cap}")
    limits = _limits(args)
    runs = [
        enumerate_runs(machine, word, cap=args.runs_cap, limits=limits)
        for machine in (first, second)
    ]
    rejected = [tag for tag, found in enumerate(runs, start=1) if not found]
    analyses = analyze_runs(word, *runs)
    payload = {
        "command": "crossings",
        "word": word,
        "rejected_by": rejected,
        "analyses": [
            {
                "run_1": a.run_index_1,
                "run_2": a.run_index_2,
                "crossings": _crossing_rows(a),
            }
            for a in analyses
        ],
    }
    lines = [f"word {word!r}"]
    if rejected:
        lines.append(f"no analysis: rejected by machine(s) {rejected}")
    for entry in payload["analyses"]:
        lines.append(f"runs ({entry['run_1']}, {entry['run_2']}):")
        if not entry["crossings"]:
            lines.append("  no crossing pairs")
        for row in entry["crossings"]:
            lines.append(
                f"  arcs ({row['i']},{row['j']}) x ({row['i_prime']},{row['j_prime']})"
                f": gap={row['gap']} inner={row['inner']}"
                f" segments={tuple(row['segment_lengths'])}"
            )
    _emit(payload, args, lines)
    if args.svg:
        if not analyses:
            raise CliError("no analysis to draw; both machines must accept the word")
        _write_svg(args.svg, render_pair_analysis(analyses[0], title=f"word {word}"))
    return 0


def _family_pair(args) -> tuple:
    """The machine pair, its bundle and the family sizes named by the flags."""
    first, second, bundle = _load_pair(args)
    if bundle is None or bundle.family is None:
        raise CliError(f"{args.command} needs a corpus bundle with a word family")
    return first, second, bundle, _parse_sizes(args.sizes)


def _regime(first, second, bundle, sizes, limits) -> tuple:
    """(regime, detail, evidence rows, analyses of the last size) of the
    bundle's family across the sizes; detail says why when the regime is
    inconclusive, else is None."""
    samples = []
    for n in sizes:
        word = bundle.family(n)
        analyses = analyze_pair(first, second, word, limits=limits)
        measures = [c.measures for c in analyses[0].crossings] if analyses else []
        samples.append((word, measures))
    try:
        report = classify_family(samples)
    except InconclusiveRegime as exc:
        return "inconclusive", str(exc), exc.evidence, analyses
    return report.regime, None, report.evidence, analyses


def _evidence_payload(evidence) -> list:
    return [
        {
            "word_len": row.word_len,
            "crossing_pairs": row.pair_count,
            "max_gap": row.max_gap,
            "max_inner": row.max_inner,
        }
        for row in evidence
    ]


def _evidence_lines(evidence) -> list:
    lines = ["  |w|  pairs  max-gap  max-inner"]
    for row in evidence:
        gap = "-" if row.max_gap is None else row.max_gap
        inner = "-" if row.max_inner is None else row.max_inner
        lines.append(
            f"  {row.word_len:>3}  {row.pair_count:>5}  {gap!s:>7}  {inner!s:>9}"
        )
    return lines


def _cmd_classify(args) -> int:
    first, second, bundle, sizes = _family_pair(args)
    regime, detail, evidence, _ = _regime(first, second, bundle, sizes, _limits(args))
    payload = {
        "command": "classify",
        "bundle": bundle.name,
        "sizes": sizes,
        "regime": regime,
        "evidence": _evidence_payload(evidence),
    }
    if detail is None:
        head = f"regime: {regime}"
    else:
        payload["detail"] = detail
        head = f"inconclusive: {detail}"
    _emit(payload, args, [head] + _evidence_lines(evidence))
    return 0


def _verdict_text(verdict) -> str:
    if verdict.is_cfl:
        return "CFL (jointly well nested)"
    violation = verdict.violation
    if violation.kind == CROSSING:
        return f"NotCFL (crossing arcs {violation.first}x{violation.second})"
    return f"NotCFL (shared endpoint between {violation.first} and {violation.second})"


def _cmd_characterize(args) -> int:
    spec = _load_document(args.blocks, "joint")
    verdict = characterize(spec)
    payload = {
        "command": "characterize",
        "spec": joint_to_json(spec),
        "outcome": verdict.outcome,
        "reason": verdict.reason,
        "violation": None
        if verdict.violation is None
        else {
            "kind": verdict.violation.kind,
            "first": list(verdict.violation.first),
            "second": list(verdict.violation.second),
        },
    }
    lines = [_verdict_text(verdict), f"  {verdict.reason}"]
    if verdict.violation is not None:
        sample = witness_string(spec, verdict.violation, 3)
        payload["witness_n3"] = sample
        lines.append(f"  witness family member (n=3): {sample!r}")
    _emit(payload, args, lines)
    return 0


_KINDS = ("joint", "displacement", "buffered", "grammar")
_PRODUCTS = ("displacement", "buffered")
_SEARCH = ("max_len", "max_expand")

# (subcommand, mode): the flags the mode needs, then the others it reads, by
# argparse dest.  A mode is the construction kind, else the first entry whose
# flags in its name are all given.  A flag that only other modes of the
# subcommand list is refused; one that no mode lists is read by every mode.
_MODES = {
    ("construct", "joint"): (("blocks",), ()),
    ("construct", "displacement"): (("pair", "k"), _SEARCH),
    ("construct", "buffered"): (("pair", "d"), _SEARCH),
    ("construct", "grammar"): (("grammar",), ()),
    ("verify", "--construct joint"): (("blocks",), ()),
    ("verify", "--construct displacement"): (("pair", "k"), ()),
    ("verify", "--construct buffered"): (("pair", "d"), ()),
    ("verify", "--construct grammar"): (("grammar",), ()),
    ("simulate", "--pda"): (("pda",), ()),
    ("simulate", "--corpus"): (("corpus",), ("machine",)),
    ("runs", "--pda"): (("pda",), ()),
    ("runs", "--corpus"): (("corpus",), ("machine",)),
    ("crossings", "--word"): (("word",), ()),
    ("crossings", "--n"): (("n",), ()),
    ("linkage", "--word --hypotheses"): (("word", "cuts", "hypotheses"), ("n",)),
    ("linkage", "--word"): (("word", "cuts"), ("segments",)),
    ("linkage", "--n --hypotheses"): (("n", "hypotheses"), ("witness",)),
    ("linkage", "--n"): (("n",), ("witness", "segments")),
}


def _check_flags(args) -> None:
    """Refuse a flag that the mode of args needs and lacks, or has and does not read."""
    modes = [mode for command, mode in _MODES if command == args.command]
    if not modes:
        return
    if args.command == "construct":
        mode = args.construct
    elif args.command == "verify":
        mode = f"--construct {args.construct}"
    else:
        selected = [m for m in modes if all(getattr(args, f[2:]) is not None for f in m.split())]
        if not selected:
            choices = dict.fromkeys(m.split()[0] for m in modes)
            raise CliError(f"{args.command} needs {' or '.join(choices)}")
        mode = selected[0]
    name = f"{args.command} {mode}"
    needs, reads = _MODES[args.command, mode]
    listed = dict.fromkeys(d for m in modes for part in _MODES[args.command, m] for d in part)
    for dest in listed:
        flag = "--" + dest.replace("_", "-")
        given = getattr(args, dest) is not None
        if dest in needs and not given:
            raise CliError(f"{name} needs {flag}")
        if dest not in needs + reads and given:
            raise CliError(f"{name} does not take {flag}")


def _construction(args) -> tuple:
    """(machine, oracle, label) of `args.construct`: the joint machine, the
    grammar pipeline's machine or the product; its oracle, which maps a length
    bound to the language the machine must have up to it; and the check's label."""
    kind = args.construct
    if kind == "joint":
        spec = _load_document(args.blocks, "joint")
        verdict = characterize(spec)
        if not verdict.is_cfl:
            verb = "build" if args.command == "construct" else "verify"
            raise CliError(f"cannot {verb} a joint machine: {_verdict_text(verdict)}")
        return build_joint_pda(spec), spec.words, "joint machine vs block membership"
    if kind == "grammar":
        cnf = to_cnf(_load_document(args.grammar, "grammar"))
        return gnf_to_pda(to_gnf(cnf)), cnf.words, "grammar pipeline machine vs CNF derivations"
    first, second, _ = _load_pair(args)
    if kind == "displacement":
        product = DisplacementProduct(first, second, args.k)
    else:
        product = BufferedProduct(first, second, args.d)
    limits = _limits(args)

    def oracle(n):
        return enumerate_language(first, n, limits) & enumerate_language(second, n, limits)

    return product, oracle, f"{kind} product vs component intersection"


def _cmd_construct(args) -> int:
    machine, _, _ = _construction(args)
    if args.construct in _PRODUCTS:
        document = fragment_to_json(machine, _max_len(args), _limits(args))
    else:
        document = pda_to_json(machine)
    if args.out:
        _write_json(args.out, document)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    machine, oracle, check = _construction(args)
    max_len = _max_len(args)
    lhs = enumerate_language(machine, max_len, _limits(args))
    rhs = oracle(max_len)
    label = f"{check} <= {max_len}"
    only_machine = sorted(lhs - rhs)
    only_oracle = sorted(rhs - lhs)
    mismatches = len(only_machine) + len(only_oracle)
    payload = {
        "command": "verify",
        "check": label,
        "machine_words": len(lhs),
        "oracle_words": len(rhs),
        "mismatches": mismatches,
        "only_machine": only_machine[:10],
        "only_oracle": only_oracle[:10],
    }
    if mismatches == 0:
        lines = [f"{label}: language equality confirmed, 0 mismatches ({len(lhs)} words)"]
    else:
        lines = [f"{label}: {mismatches} mismatches"]
        for word in only_machine[:10]:
            lines.append(f"  machine only: {word!r}")
        for word in only_oracle[:10]:
            lines.append(f"  oracle only: {word!r}")
    _emit(payload, args, lines)
    return 0 if mismatches == 0 else 1


def _parse_cuts(raw: str, word: str) -> SegmentDecomposition:
    try:
        i, i_prime, j = (int(part) for part in raw.split(","))
    except ValueError:
        raise CliError(f"--cuts must be three comma-separated integers, got {raw!r}")
    return SegmentDecomposition(word_len=len(word), i=i, i_prime=i_prime, j=j)


def _linkage_payload(report) -> dict:
    out = {
        "pair": list(report.pair),
        "holds": report.holds,
        "vacuous": report.vacuous,
        "examined": report.examined,
        "relevant": report.relevant,
        "oracle_calls": report.oracle_calls,
        "counterexample": None,
    }
    if report.counterexample is not None:
        ce = report.counterexample
        out["counterexample"] = {
            "cuts": list(ce.factorization.cuts),
            "parts": list(ce.parts),
            "pumped": ce.pumped,
        }
    return out


def _linkage_lines(report) -> list:
    pair = f"({report.pair[0]},{report.pair[1]})"
    if report.vacuous:
        return [f"linkage {pair}: holds vacuously (an empty segment)"]
    if report.holds:
        return [
            f"linkage {pair}: holds"
            f" ({report.examined} factorizations, {report.relevant} relevant)"
        ]
    ce = report.counterexample
    u, v, x, y, z = ce.parts
    return [
        f"linkage {pair}: FAILS",
        f"  cuts {tuple(ce.factorization.cuts)}:"
        f" u={u!r} v={v!r} x={x!r} y={y!r} z={z!r}",
        f"  pumped word stays in the language: {ce.pumped!r}",
    ]


def _cmd_linkage(args) -> int:
    if args.hypotheses and args.n == 0:
        raise CliError("--hypotheses needs a positive size threshold --n, got 0")
    oracle_spec = _load_document(args.blocks, "joint")
    if args.side == "both":
        oracle = oracle_spec.in_intersection
        oracle_name = "intersection"
    else:
        oracle = oracle_spec.side(int(args.side)).contains
        oracle_name = f"side {args.side}"
    if args.word is not None:
        word = args.word
        decomposition = _parse_cuts(args.cuts, word)
    else:
        source_spec = _load_document(args.witness, "joint") if args.witness else oracle_spec
        verdict = characterize(source_spec)
        if verdict.violation is None or verdict.violation.kind != CROSSING:
            raise CliError(
                "the witness spec has no crossing violation to derive segments from"
            )
        package = segments_and_linkages(source_spec, verdict.violation, args.n)
        word, decomposition = package.word, package.decomposition
    if not oracle(word):
        raise CliError(f"word {word!r} is not in the {oracle_name} oracle language")
    payload = {
        "command": "linkage",
        "word": word,
        "cuts": list(decomposition.cuts()),
        "segments": list(decomposition.parts(word)),
        "oracle": oracle_name,
    }
    lines = [
        f"word {word!r}, segments {decomposition.parts(word)}, oracle {oracle_name}"
    ]
    if args.hypotheses:
        threshold = 1 if args.n is None else args.n
        report = check_crossing_hypotheses(
            oracle, word, decomposition, args.hypotheses, threshold
        )
        payload["hypotheses"] = {
            "mode": report.mode,
            "n": report.n,
            "segment_lengths": list(report.segment_lengths),
            "sizes_ok": report.sizes_ok,
            "outer": _linkage_payload(report.outer_linkage),
            "inner": _linkage_payload(report.inner_linkage),
            "holds": report.holds,
            "note": report.note,
        }
        lines.append(
            f"size condition ({report.mode}, n={report.n}): "
            f"{'ok' if report.sizes_ok else 'FAILS'}"
            f" segment lengths {report.segment_lengths}"
        )
        lines.extend(_linkage_lines(report.outer_linkage))
        lines.extend(_linkage_lines(report.inner_linkage))
        if report.holds:
            lines.append(
                f"hypotheses of the non-CFL theorem verified at n={report.n}"
                f" ({report.note})"
            )
        else:
            lines.append("hypotheses NOT satisfied")
    else:
        pairs = {"1,3": [OUTER_PAIR], "2,4": [INNER_PAIR]}.get(
            args.segments, [OUTER_PAIR, INNER_PAIR]
        )
        payload["linkages"] = []
        for pair in pairs:
            report = check_linkage(oracle, word, decomposition, pair)
            payload["linkages"].append(_linkage_payload(report))
            lines.extend(_linkage_lines(report))
    _emit(payload, args, lines)
    return 0


def _cmd_corpus(args) -> int:
    if args.name:
        bundle = corpus.get(args.name)
        payload = {
            "command": "corpus",
            "name": bundle.name,
            "kind": bundle.kind,
            "description": bundle.description,
            "machines": sorted(bundle.machines),
            "has_family": bundle.family is not None,
            "expected": {k: str(v) for k, v in sorted(bundle.expected.items())},
        }
        if bundle.joint is not None:
            payload["blocks"] = joint_to_json(bundle.joint)
        if bundle.grammar is not None:
            payload["grammar"] = cfg_to_json(bundle.grammar)
        lines = [
            f"{bundle.name} ({bundle.kind})",
            f"  {bundle.description}",
        ]
        if bundle.machines:
            lines.append(f"  machines: {', '.join(sorted(bundle.machines))}")
        for key, value in sorted(bundle.expected.items()):
            lines.append(f"  expected {key}: {value}")
        _emit(payload, args, lines)
    else:
        bundles = [corpus.get(name) for name in corpus.list_bundles()]
        payload = {
            "command": "corpus",
            "bundles": [
                {"name": b.name, "kind": b.kind, "description": b.description}
                for b in bundles
            ],
            "aliases": dict(sorted(corpus.ALIASES.items())),
        }
        lines = [f"{b.name:<26} {b.kind:<12} {b.description}" for b in bundles]
        _emit(payload, args, lines)
    if args.export:
        _export_corpus(args)
    return 0


def _export_corpus(args) -> None:
    try:
        os.makedirs(args.export, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create directory {args.export}: {exc}")
    names = [corpus.ALIASES.get(args.name, args.name)] if args.name else corpus.list_bundles()
    documents = {}
    for name in names:
        bundle = corpus.get(name)
        for machine_name, machine in sorted(bundle.machines.items()):
            documents[f"{name}--{machine_name}.pda.json"] = pda_to_json(machine)
        if bundle.joint is not None:
            documents[f"{name}.blocks.json"] = joint_to_json(bundle.joint)
        if bundle.grammar is not None:
            documents[f"{name}.cfg.json"] = cfg_to_json(bundle.grammar)
    for filename, document in documents.items():
        _write_json(os.path.join(args.export, filename), document)
    print(f"exported {len(documents)} file(s) to {args.export}", file=sys.stderr)


def _cmd_report(args) -> int:
    first, second, bundle, sizes = _family_pair(args)
    regime, detail, evidence, analyses = _regime(first, second, bundle, sizes, _limits(args))
    rows = [dict(n=n, **row) for n, row in zip(sizes, _evidence_payload(evidence))]
    payload = {
        "command": "report",
        "bundle": bundle.name,
        "description": bundle.description,
        "sizes": sizes,
        "rows": rows,
        "regime": regime,
        "detail": detail,
        "expected": {k: str(v) for k, v in sorted(bundle.expected.items())},
    }
    lines = [
        f"family report: {bundle.name}",
        f"  {bundle.description}",
        "  n  |w|  crossings  max-gap  max-inner",
    ]
    for row in rows:
        gap = "-" if row["max_gap"] is None else row["max_gap"]
        inner = "-" if row["max_inner"] is None else row["max_inner"]
        lines.append(
            f"  {row['n']:>2} {row['word_len']:>4} {row['crossing_pairs']:>10}"
            f" {gap!s:>8} {inner!s:>10}"
        )
    lines.append(f"  inner-segment regime: {regime}" + (f" ({detail})" if detail else ""))
    if "regime" in bundle.expected:
        lines.append(f"  expected regime: {bundle.expected['regime']}")
    _emit(payload, args, lines)
    if args.svg:
        if not analyses:
            raise CliError("no analysis to draw at the largest size")
        _write_svg(
            args.svg,
            render_pair_analysis(analyses[0], title=f"{bundle.name} n={sizes[-1]}"),
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="islab",
        description="Workbench for crossing-arc geometry, block-counting "
        "intersections, product machines, and pump-sensitive linkage checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_flags(p):
        p.add_argument("--pda", help="machine file (pda-v1 JSON)")
        p.add_argument("--corpus", help="corpus bundle name")
        p.add_argument("--machine", help="machine name within the bundle")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_search_flags(p, with_json=True):
        if with_json:
            add_json(p)
        p.add_argument(
            "--max-expand",
            type=_nonnegative_int,
            help="cap on the successor-step calls of each search, one per"
            f" configuration expanded (default {SearchLimits().max_configs});"
            " a search that passes it ends with exit 2 and 'expanded N"
            " configurations, furthest input position p of n'",
        )

    def add_construction_flags(p):
        p.add_argument("--blocks", help="blocks-v1 file or corpus name (joint)")
        p.add_argument("--grammar", help="cfg-v1 file or corpus name (grammar)")
        p.add_argument("--pair", help="corpus bundle or FILE1,FILE2 (products)")
        p.add_argument("--k", type=_nonnegative_int, help="gap bound (displacement)")
        p.add_argument("--d", type=_nonnegative_int, help="inner bound (buffered)")
        p.add_argument(
            "--max-len",
            type=_nonnegative_int,
            help="word length bound of a product fragment or of a check"
            f" (default {DEFAULT_MAX_LEN})",
        )
        add_search_flags(p, with_json=False)

    p = sub.add_parser("simulate", help="run one machine on one word")
    add_machine_flags(p)
    p.add_argument("--word", help="input word (may be empty)")
    add_search_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("runs", help="enumerate accepting runs")
    add_machine_flags(p)
    p.add_argument("--word", help="input word")
    p.add_argument("--runs-cap", type=_nonnegative_int, default=20)
    add_search_flags(p)
    p.set_defaults(handler=_cmd_runs)

    p = sub.add_parser("crossings", help="cross-machine crossing analysis")
    p.add_argument("--pair", required=True, help="corpus bundle name, or FILE1,FILE2")
    p.add_argument("--word")
    p.add_argument("--n", type=_nonnegative_int, help="family size (uses the bundle's words)")
    p.add_argument(
        "--runs-cap", type=_nonnegative_int, default=1, help="runs per machine (default 1)"
    )
    p.add_argument("--svg", help="write an arc diagram here")
    add_search_flags(p)
    p.set_defaults(handler=_cmd_crossings)

    p = sub.add_parser("classify", help="growth regime across family sizes")
    p.add_argument("--pair", required=True, help="corpus bundle name")
    p.add_argument("--sizes", default="1,2,3,4,5", help="comma-separated sizes")
    add_search_flags(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("characterize", help="block-spec intersection verdict")
    p.add_argument("--blocks", required=True, help="blocks-v1 file or corpus name")
    add_json(p)
    p.set_defaults(handler=_cmd_characterize)

    p = sub.add_parser("construct", help="emit a constructed machine as JSON")
    p.add_argument("construct", choices=_KINDS, help="what to build")
    add_construction_flags(p)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="differential check against an oracle")
    p.add_argument("--construct", required=True, choices=_KINDS)
    add_construction_flags(p)
    add_json(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("linkage", help="pump-sensitive linkage checks")
    p.add_argument("--blocks", required=True, help="oracle spec: blocks-v1 file or corpus name")
    p.add_argument(
        "--side",
        choices=["1", "2", "both"],
        default="both",
        help="use one side's language or the intersection (default)",
    )
    p.add_argument("--word", help="word to factor (needs --cuts)")
    p.add_argument("--cuts", help="segment cuts i,i',j (0-based offsets)")
    p.add_argument(
        "--n",
        type=_nonnegative_int,
        help="witness size (derives word and cuts); with --hypotheses the size"
        " threshold, which must be positive (default 1)",
    )
    p.add_argument("--witness", help="spec whose crossing supplies word and cuts (default --blocks)")
    p.add_argument(
        "--segments",
        choices=["1,3", "2,4", "both"],
        help="which segment pair(s) to check (default both; not with --hypotheses)",
    )
    p.add_argument(
        "--hypotheses",
        choices=[FOUR_LARGE, INNER_GROWING],
        help="run the full hypothesis report in this mode instead",
    )
    add_json(p)
    p.set_defaults(handler=_cmd_linkage)

    p = sub.add_parser("corpus", help="list or export built-in examples")
    p.add_argument("--name", help="show one bundle in detail")
    p.add_argument("--export", metavar="DIR", help="write artifacts as JSON files")
    add_json(p)
    p.set_defaults(handler=_cmd_corpus)

    p = sub.add_parser("report", help="classification table for a family")
    p.add_argument("--pair", required=True, help="corpus bundle name")
    p.add_argument("--sizes", default="1,2,3,4,5")
    p.add_argument("--svg", help="arc diagram of the largest size")
    add_search_flags(p)
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early, as `| head` does: drop the rest quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except LimitExceeded as exc:
        print(f"error: search limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, KeyError) as exc:
        # the message itself: str() of a KeyError quotes it
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
