"""clalg benchmark: one workload per process, metrics as one JSON line.

Run from the root of a source checkout:

    python3 bench/run.py --workload census|analysis|triage --seed N \
        --seconds S --trace 0|1

The package is imported from ./src (nothing is installed).  Every pass
starts from a fresh import, so no state carries over between passes.
Every time is the thread's CPU time, scaled to a reference host speed
(see hostspeed.py).
With --trace 0 the run measures whole passes until S seconds have gone
and prints the end-to-end metrics, each operation timed by its median
over the passes.  With --trace 1 it alternates
untraced and traced passes (at least two of each, until S seconds have
gone), checks that every count repeats exactly, and prints the
per-layer metrics and the tracing overhead; the span summary of the
last traced pass goes to standard error.  The last
line of standard output is always the result object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import hostspeed
import spans
import workloads

MODULES = ("core", "fileformat", "validator", "identities", "ideals", "quotient",
           "replay", "search", "cli", "fixtures")


def fresh_import(src: str) -> SimpleNamespace:
    """Drop every loaded clalg module and import the package again."""
    for name in [m for m in sys.modules if m == "clalg" or m.startswith("clalg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("clalg")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(src, "clalg"):
        raise ImportError(f"clalg imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"clalg.{m}") for m in MODULES})


def percentile(samples: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(samples: list[float], p: int) -> float:
    """The p-th percentile when at least ten samples lie beyond it, else the median."""
    if len(samples) - math.ceil(p / 100 * len(samples)) < 10:
        p = 50
    return percentile(samples, p)


# set-ups timed per pass; set-up time is the median over the run's set-ups
SETUPS_PER_PASS = 5


class Runner:
    def __init__(self, workload, src: str, seed: int):
        self.workload = workload
        self.src = src
        self.attempted = 0
        self.failed: list[tuple[str | None, str]] = []
        self.errors: list[str] = []
        workload.prepare(fresh_import(src), seed)

    def one_pass(self, tracer=None) -> dict:
        """Set up after a fresh import, run one pass, check it.

        Times are CPU times scaled to the reference host speed; `raw_s`
        is the pass's measured operation time (samples included),
        `scale` the ratio of its scaled to its measured operation time.
        """
        setups = []
        res = workloads.PassResult()
        with hostspeed.Speed(timer=tracer is None) as speed:
            for i in range(SETUPS_PER_PASS):
                gc.collect()
                t0 = time.thread_time()
                program = fresh_import(self.src)
                if tracer is not None and i == SETUPS_PER_PASS - 1:
                    tracer.reset()
                    for name in spans.install(tracer, program):
                        print(f"trace: {name} not found, not traced", file=sys.stderr)
                state = self.workload.setup(program)
                setups.append((t0, time.thread_time()))
            self.workload.run_pass(program, state, res)
        times = [speed.scaled(t0, t1) for t0, t1 in res.spans]
        raw_s = sum(t1 - t0 for t0, t1 in res.spans)  # samples included
        self.attempted += len(times)
        self.failed += res.failed
        # only the named faults may fail; any other failure is a wrong output
        self.errors += [f"unexpected failure: {error}" for fault, error in res.failed
                        if fault is None]
        self.errors += self.workload.check(res.outputs)
        return {"setups": [speed.scaled(t0, t1) for t0, t1 in setups], "times": times,
                "latency": res.latency, "raw_s": raw_s, "scale": sum(times) / raw_s}


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Whole passes until `seconds` have gone.

    Each operation's time is its median over the run's passes (every
    pass starts from a fresh import, so nothing is cached between them),
    and a pass takes the sum of those times.  Set-up time is the median
    over every set-up of the run.  Peak memory is the process's
    high-water mark, so it also covers prepare() and what the checks
    keep (see README).
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(runner.one_pass())
    typical = [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]
    sampled = [all(flags) for flags in zip(*(p["latency"] for p in passes))]
    latency = [t * 1000.0 for t, ok in zip(typical, sampled) if ok]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{runner.workload.name}: {len(passes)} passes of {len(typical)} operations "
          f"({len(latency)} latency samples); measured operation time per pass "
          f"{[round(p['raw_s'], 3) for p in passes]} s, scaled by "
          f"{[round(p['scale'], 3) for p in passes]}", file=sys.stderr)
    return {
        "setup_s": (statistics.median(t for p in passes for t in p["setups"]), "s"),
        "pass_s": (sum(typical), "s"),
        "op_p50_ms": (percentile(latency, 50), "ms"),
        "op_tail_ms": (tail(latency, runner.workload.tail_percentile), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


# per-layer metric -> (span, field) for times and calls
SPAN_METRICS = {
    "search.lattices_s": ("search.lattices", "self_s"),
    "search.complete_s": ("search.complete", "incl_s"),
    "search.complete_calls": ("search.complete", "calls"),
    "search.dfs_self_s": ("search.complete", "self_s"),
    "search.canonical_s": ("search.canonical", "self_s"),
    "search.canonical_calls": ("search.canonical", "calls"),
    "validator.validate_s": ("validator.validate", "self_s"),
    "validator.validate_calls": ("validator.validate", "calls"),
    "validator.flags_s": ("validator.flags", "self_s"),
    "core.lattice_ops_s": ("core.lattice_ops", "self_s"),
    "core.lattice_ops_calls": ("core.lattice_ops", "calls"),
    "core.derive_implication_s": ("core.derive_implication", "self_s"),
    "core.derive_implication_calls": ("core.derive_implication", "calls"),
    "identities.suite_s": ("identities.suite", "self_s"),
    "identities.suite_calls": ("identities.suite", "calls"),
    "ideals.all_ideals_s": ("ideals.all_ideals", "self_s"),
    "ideals.classify_s": ("ideals.classify", "self_s"),
    "ideals.classify_calls": ("ideals.classify", "calls"),
    "ideals.checks_s": ("ideals.checks", "self_s"),
    "ideals.checks_calls": ("ideals.checks", "calls"),
    "quotient.congruence_s": ("quotient.congruence", "self_s"),
    "quotient.congruence_calls": ("quotient.congruence", "calls"),
    "quotient.build_s": ("quotient.build", "self_s"),
    "quotient.theorems_s": ("quotient.theorems", "self_s"),
    "quotient.theorems_calls": ("quotient.theorems", "calls"),
    "fileformat.parse_s": ("fileformat.parse", "self_s"),
    "fileformat.parse_calls": ("fileformat.parse", "calls"),
    "fileformat.serialize_s": ("fileformat.serialize", "self_s"),
    "replay.confirm_s": ("replay.confirm", "self_s"),
    "replay.confirm_calls": ("replay.confirm", "calls"),
    "cli.self_s": ("cli.run_command", "self_s"),
    "cli.calls": ("cli.run_command", "calls"),
}
COUNT_METRICS = ("search.lattices", "search.sealed", "search.unique", "validator.promoted",
                 "ideals.found", "quotient.built")


def _layer_figures(summary: dict, counts) -> dict:
    out = {}
    for metric, (span, fld) in SPAN_METRICS.items():
        out[metric] = summary.get(span, {}).get(fld, 0.0 if fld.endswith("_s") else 0)
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    out["search.dedup_hits"] = out["search.sealed"] - out["search.unique"]
    return out


def per_layer(runner: Runner, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    tracer = spans.Tracer()
    figures, traced_s, untraced_s, summary = [], [], [], {}
    while len(figures) < 2 or time.perf_counter() < deadline:
        untraced_s.append(sum(runner.one_pass()["times"]))
        traced = runner.one_pass(tracer)
        traced_s.append(sum(traced["times"]))
        summary = tracer.reduce()
        # wall-clock span times, scaled by the pass's speed factor
        figures.append({k: v * traced["scale"] if k.endswith("_s") else v
                        for k, v in _layer_figures(summary, tracer.counts).items()})
    tracer.reset()
    counts = [{k: v for k, v in f.items() if not k.endswith("_s")} for f in figures]
    if any(c != counts[0] for c in counts[1:]):
        runner.errors.append(f"per-layer counts differ between traced passes: {counts}")
    print(json.dumps({"spans_last_pass": summary}, indent=1, sort_keys=True), file=sys.stderr)
    metrics = {}
    for k in figures[0]:
        if k.endswith("_s"):
            metrics[k] = (statistics.median(f[k] for f in figures), "s")
        else:
            metrics[k] = (figures[0][k], "count")
    sealed, unique = metrics["search.sealed"][0], metrics["search.unique"][0]
    metrics["search.unique_per_sealed"] = (unique / sealed if sealed else 0.0, "ratio")
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    print(f"{runner.workload.name}: {len(figures)} traced passes", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "clalg", "__init__.py")):
        print("error: run from the root of a clalg checkout (src/clalg not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    try:
        runner = Runner(workload, src, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    by_fault: dict[str, int] = {}
    for fault, error in runner.failed:
        key = fault or f"unexpected: {error}"
        by_fault[key] = by_fault.get(key, 0) + 1
    for key, count in sorted(by_fault.items()):
        print(f"failed: {count} x {key}", file=sys.stderr)
    for error in runner.errors[:20]:
        print(f"check: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
