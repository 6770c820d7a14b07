"""Benchmark of the islab workbench: three workloads, end-to-end and per layer.

    python3 bench/run.py --workload product-verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each workload runs in this process, single threaded, as a closed loop with
one client: the next job starts when the previous one returns.  One
untimed warm-up round comes first; then rounds over all jobs, in a
seed-drawn order per round, until the time is up.  Every execution gets a
freshly relabelled copy of its inputs, a `gc.collect()`, and the calibration
loop run before and after it, all outside the timed interval; its time is
divided by the loop's (see calibration.py).  A job is summarised by its
median time; `suite_s` sums the medians.

`--trace 1` instead starts two traced processes with different
PYTHONHASHSEED.  Each alternates untraced and traced rounds, so the tracing
overhead is measured under the same drift, and reports per-layer spans and
counts; the counts of the two processes must agree exactly.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_S, calibration_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

E2E = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
]

LAYER_SECONDS = [
    "pda.accepts.s", "pda.enumerate_runs.s", "pda.enumerate_language.s",
    "pda.pda_from_json.s",
    "products.transitions_from.s", "pda.enumerate_language.product.s",
    "products.fragment_to_json.s", "products.reachable_composite_states.s",
    "arcs.analyze_pair.s", "arcs.classify_family.s",
    "diagrams.render_pair_analysis.s",
    "blocks.joint_from_json.s", "blocks.characterize.s", "blocks.build_joint_pda.s",
    "pumping.check_crossing_hypotheses.s", "pumping.oracle.s",
    "grammar.to_cnf.s", "grammar.to_gnf.s", "grammar.gnf_to_pda.s",
    "grammar.cyk_membership.s",
]
LAYER_COUNTS = [
    "pda.expansions", "products.transitions_from.calls", "products.distinct_states",
    "arcs.crossings", "blocks.oracle.calls", "pumping.examined", "pumping.relevant",
    "pumping.oracle_calls", "grammar.cnf_productions", "grammar.gnf_productions",
    "grammar.cyk_membership.calls", "pda.past_limit.failed",
]
SELF_LAYERS = ("pda", "products", "arcs", "diagrams", "blocks", "pumping", "grammar", "bench")
PER_LAYER = (
    [(name, "count") for name in LAYER_COUNTS]
    + [(name, "s") for name in LAYER_SECONDS]
    + [("products.reuse_ratio", "ratio")]
    + [(f"self_share.{layer}", "ratio") for layer in SELF_LAYERS]
    + [("trace.suite_s", "s"), ("trace.overhead", "ratio")]
)

SETUP_INTERPRETERS = 9
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def _import_islab():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "islab" / "__init__.py").is_file():
        sys.exit(f"error: no islab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import islab

    if Path(islab.__file__).resolve().parent != SRC / "islab":
        sys.exit(f"error: imported islab from {islab.__file__}, not from {SRC}")


# ---------------------------------------------------------------- executions


class Tally:
    """Executions attempted, and those that raised or gave a wrong verdict."""

    def __init__(self, label: str = "job"):
        self.label = label
        self.attempted = 0
        self.failed = 0
        self.checked = set()

    def execute(self, job, rng, api, before=None) -> tuple:
        """Run one job on freshly relabelled inputs.  Returns its seconds,
        and its calibrated seconds: seconds over the mean time of the
        calibration loop run just before and just after, times the loop's
        reference time."""
        from workloads import Relabel

        names = Relabel(rng, job.docs)
        docs = names.docs(job.docs)
        gc.collect()
        calibration = calibration_seconds()
        self.attempted += 1
        if before:
            before()
        start = perf_counter()
        seconds = None
        try:
            verdict = job.run(api, docs)
            seconds = perf_counter() - start
            problem = None if job.check(verdict, names) else "verdict differs from the known answer"
        except Exception as exc:  # a failed job is counted, and the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        if seconds is None:
            seconds = perf_counter() - start
        calibration = (calibration + calibration_seconds()) / 2
        if problem is None:
            self.checked.add(job.name)
        else:
            self.failed += 1
            print(f"{self.label} {job.name}: {problem}"[:300], file=sys.stderr)
        return seconds, REFERENCE_S * seconds / calibration


def _order(jobs, rng):
    order = list(jobs)
    rng.shuffle(order)
    return order


def sum_of_medians(per_job: dict) -> float:
    return sum(statistics.median(values) for values in per_job.values())


def timed_rounds(jobs, rng, seconds: float, tally: Tally, min_rounds: int = 3) -> tuple:
    """Warm-up round, then rounds until `seconds` would be overrun.  Returns
    the calibrated and the raw seconds of every execution, per job."""
    from tracing import Api

    api = Api()
    for job in _order(jobs, rng):
        tally.execute(job, rng, api)
    calibrated = {job.name: [] for job in jobs}
    raw = {job.name: [] for job in jobs}
    start = perf_counter()
    last_round = 0.0
    rounds = 0
    while rounds < min_rounds or perf_counter() - start + last_round <= seconds:
        round_start = perf_counter()
        for job in _order(jobs, rng):
            seconds_taken, scaled = tally.execute(job, rng, api)
            raw[job.name].append(seconds_taken)
            calibrated[job.name].append(scaled)
        last_round = perf_counter() - round_start
        rounds += 1
    return calibrated, raw


def tail(samples: list) -> tuple:
    """Highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_seconds(count: int) -> float:
    """Median over fresh interpreters of the calibrated time to import the
    CLI stack; one interpreter runs first, untimed, so byte code is compiled."""
    code = (
        "import statistics, sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "from calibration import REFERENCE_S, calibration_seconds\n"
        "scale = REFERENCE_S / statistics.median(calibration_seconds() for _ in range(3))\n"
        "start = time.perf_counter()\n"
        "import islab, islab.corpus, islab.cli\n"
        "print((time.perf_counter() - start) * scale)\n"
    )
    values = []
    for _ in range(count + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True,
            timeout=60, check=True,
        )
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(values[1:])


def measure(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """End-to-end metrics of one workload."""
    from workloads import build

    setup = setup_seconds(3 if tiny else SETUP_INTERPRETERS)
    jobs = build(workload, tiny)
    rng = random.Random(seed)
    tally = Tally()
    times, raw = timed_rounds(jobs, rng, seconds, tally)
    samples = [t for values in times.values() for t in values]
    tail_value, tail_pct = tail(samples)
    metrics = {
        "setup_s": setup,
        "suite_s": sum_of_medians(times),
        "verdict_s.p50": statistics.median(samples),
        "verdict_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
    }
    details = {
        "workload": workload,
        "rounds": len(next(iter(times.values()))),
        "jobs": len(jobs),
        "verdict_s.tail": {"percentile": round(tail_pct, 2), "samples": len(samples)},
        "raw_suite_s": sum_of_medians(raw),
        "job_median_s": {name: statistics.median(v) for name, v in sorted(times.items())},
    }
    return _result(tally, metrics, E2E, details, unchecked=_unchecked(jobs, tally))


# ---------------------------------------------------------------- tracing


def traced_child(workload: str, seed: int, seconds: float, tiny: bool, spans_path: Path) -> dict:
    """Alternate untraced and traced rounds until `seconds` would be
    overrun; aggregate each metric as the sum over jobs of its median."""
    from tracing import Api, Tracer
    from workloads import build, past_limit_jobs

    jobs = build(workload, tiny)
    rng = random.Random(seed)
    tally = Tally()
    api, tracer = Api(), Tracer()
    for job in _order(jobs, rng):
        tally.execute(job, rng, api)
    plain = {job.name: [] for job in jobs}
    traced = {job.name: [] for job in jobs}
    totals = {job.name: [] for job in jobs}
    executions = []  # job name per traced execution id
    start = perf_counter()
    last_pair = 0.0
    while len(traced[jobs[0].name]) < 3 or perf_counter() - start + last_pair <= seconds:
        pair_start = perf_counter()
        for job in _order(jobs, rng):
            plain[job.name].append(tally.execute(job, rng, api)[0])
        for job in _order(jobs, rng):
            execution = len(executions)
            executions.append(job.name)
            seconds_taken, _ = tally.execute(job, rng, tracer, before=lambda: tracer.begin(execution))
            counts, self_time = tracer.end()
            self_time["bench"] = seconds_taken - sum(self_time.values())
            counts.update({f"self.{layer}": s for layer, s in self_time.items()})
            traced[job.name].append(seconds_taken)
            totals[job.name].append(counts)
        last_pair = perf_counter() - pair_start

    def aggregate(metric: str) -> float:
        return sum(statistics.median(row.get(metric, 0.0) for row in rows) for rows in totals.values())

    metrics = {name: aggregate(name) for name in LAYER_SECONDS + LAYER_COUNTS}
    calls = metrics["products.transitions_from.calls"]
    metrics["products.reuse_ratio"] = 1 - metrics["products.distinct_states"] / calls if calls else 0.0
    self_time = {layer: aggregate(f"self.{layer}") for layer in SELF_LAYERS}
    whole = sum(self_time.values())
    for layer in SELF_LAYERS:
        metrics[f"self_share.{layer}"] = self_time[layer] / whole
    metrics["trace.suite_s"] = sum_of_medians(traced)
    metrics["trace.overhead"] = metrics["trace.suite_s"] / sum_of_medians(plain)
    probes = past_limit_jobs() if workload == "long-word-geometry" else []
    probe_tally = Tally("past-limit probe")
    for job in probes:
        probe_tally.execute(job, rng, api)
    metrics["pda.past_limit.failed"] = probe_tally.failed

    RESULTS.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"executions": executions,
                   "fields": ["name", "start", "end", "parent", "execution"],
                   "spans": tracer.spans}, fh)
    varying = sorted(
        f"{name}:{metric}" for name, rows in totals.items() for metric in LAYER_COUNTS
        if len({row.get(metric, 0.0) for row in rows}) > 1
    )
    details = {
        "rounds": len(traced[jobs[0].name]),
        "past_limit_attempted": len(probes),
        "counts_varying_between_rounds": varying,
    }
    return _result(tally, metrics, PER_LAYER, details, unchecked=_unchecked(jobs, tally))


def trace(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """Two traced processes with different hash seeds; their counts must agree."""
    children = []
    for hash_seed in ("1", "2"):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds / 2), "--traced-child",
        ] + (["--tiny"] if tiny else [])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=170)
        sys.stderr.write(done.stderr)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if done.returncode != 0:
            raise RuntimeError(f"traced run exited with {done.returncode}")
        children.append(json.loads(done.stdout.strip().splitlines()[-1]))
    first, second = children
    count_names = [name for name, unit in PER_LAYER if unit == "count"]
    differing = [
        name for name in count_names
        if first["metrics"][name]["value"] != second["metrics"][name]["value"]
    ]
    if differing:
        print(f"counts differ between hash seeds: {differing}", file=sys.stderr)
    return {
        "correct": first["correct"] and second["correct"] and not differing,
        "attempted": first["attempted"] + second["attempted"],
        "failed": first["failed"] + second["failed"],
        "metrics": first["metrics"],
    }


# ---------------------------------------------------------------- output


def _unchecked(jobs, tally) -> list:
    return [job.name for job in jobs if job.name not in tally.checked]


def _result(tally, metrics, spec, details, unchecked) -> dict:
    if unchecked:
        print(f"no execution matched its known answer: {unchecked}", file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    return {
        "correct": tally.failed == 0 and not unchecked,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }


def smoke() -> int:
    """All three workloads at tiny sizes, untraced and traced: every metric
    is named with its unit and every job's known-answer check ran."""
    from workloads import WORKLOADS

    wanted = _declared_metrics()
    problems = []
    for workload in WORKLOADS:
        for label, result, spec in (
            ("untraced", measure(workload, 1, 0.5, tiny=True), E2E),
            ("traced", trace(workload, 1, 1.0, tiny=True), PER_LAYER),
        ):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} {label}: not correct")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != dict(spec):
                problems.append(f"{workload} {label}: metrics {sorted(set(got) ^ set(dict(spec)))}")
            if wanted and got != wanted[label]:
                problems.append(f"{workload} {label}: metrics differ from BENCHMARK.json")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"smoke": "failed" if problems else "passed"}))
    return 1 if problems else 0


def _declared_metrics():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    declared = json.loads(path.read_text(encoding="utf-8"))
    return {
        "untraced": {m["name"]: m["unit"] for m in declared["end_to_end"]},
        "traced": {m["name"]: m["unit"] for m in declared["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, self-check")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes")
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_islab()
    from workloads import WORKLOADS

    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.traced_child:
        hash_seed = os.environ.get("PYTHONHASHSEED", "random")
        spans = RESULTS / f"spans-{args.workload}-hashseed-{hash_seed}.json"
        result = traced_child(args.workload, args.seed, args.seconds, args.tiny, spans)
    elif args.trace:
        result = trace(args.workload, args.seed, args.seconds, args.tiny)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
