"""nacflex benchmark: one workload in one fresh process, closed loop, one client.

    python3 nacbench/run.py --workload hitting --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nacflex is imported from ``src/``.
With ``--trace 0`` the run measures for ``--seconds`` of trial time and
prints every end-to-end metric.  With ``--trace 1`` it runs each round twice,
untraced and traced, until ``--seconds / 2`` of untraced trial time have
passed, writes the spans to ``.nacbench/spans-<workload>-seed<seed>.jsonl``
and prints the per-layer metrics computed from that file.

Either way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Trial time is CPU time of the benchmark's one thread (``time.thread_time``).
Every trial is a single-threaded, CPU-bound call with no I/O, so this is its
wall time on an otherwise idle machine.  It leaves out the time the thread
waited for a core; it still includes slowdowns of a core shared with other
work, such as contended caches.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".nacbench"

sys.path.insert(0, str(HERE))
from spans import Tracer, layer_totals  # noqa: E402
from workloads import BUDGET, DEFAULT_SEED, DIGESTS, WORKLOADS, digest  # noqa: E402

SETUP_PROBES = 9
TAIL_BEYOND = 10
# A run also stops after this many times --seconds of wall time, so that a
# heavily loaded machine cannot keep it running past the harness's limit.
WALL_LIMIT = 2.5
CLOCK = time.thread_time

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Span name -> reported fields.  Units: calls, found, budget_exceeded,
# rejects and probes are counts; ms and self_ms are milliseconds.
PER_LAYER = {
    "randmodels.hitting_times": ("calls", "self_ms", "probes"),
    "randmodels.process": ("ms",),
    "randmodels.regular_configuration": ("ms", "rejects"),
    "cuts.stable_cut_exists": ("calls", "ms", "found", "budget_exceeded"),
    "cuts.sprime_holds": ("calls", "ms", "budget_exceeded"),
    "cuts.decompose_s": ("calls", "self_ms"),
    "cuts.firm_cut_exists": ("calls", "ms", "budget_exceeded"),
    "nac.nac_exists": ("calls", "ms", "found", "budget_exceeded"),
    "nac.triangle_classes": ("calls", "ms"),
    "nac.nac_check": ("calls", "ms"),
    "graphs.Graph.from_edges": ("calls", "ms"),
    "graphs.components": ("calls", "ms"),
    "graphs.every_vertex_in_triangle": ("calls", "ms"),
    "graphs.triangle_count": ("calls", "ms"),
    "experiments.sweep_trial_outcomes": ("self_ms",),
    "experiments.triangle_covered": ("calls", "ms"),
    "experiments.regular_nac_lower_bound": ("self_ms",),
}

# Wrapped functions each workload must call; a traced run in which one of
# them records no call fails.
PREDICTED = {
    "hitting": (
        "randmodels.hitting_times",
        "randmodels.process",
        "cuts.stable_cut_exists",
        "cuts.sprime_holds",
        "cuts.decompose_s",
        "nac.nac_exists",
        "nac.triangle_classes",
        "graphs.Graph.from_edges",
        "graphs.components",
        "graphs.every_vertex_in_triangle",
    ),
    "sparse": (
        "randmodels.regular_configuration",
        "nac.nac_check",
        "graphs.Graph.from_edges",
        "graphs.triangle_count",
        "experiments.sweep_trial_outcomes",
        "experiments.triangle_covered",
        "experiments.regular_nac_lower_bound",
    ),
    "decide": (
        "cuts.stable_cut_exists",
        "cuts.sprime_holds",
        "cuts.firm_cut_exists",
        "nac.nac_exists",
        "nac.triangle_classes",
        "graphs.components",
    ),
}


def import_nacflex():
    """nacflex from this checkout's sources, never from an installed copy."""
    if not (SRC / "nacflex" / "__init__.py").is_file():
        raise SystemExit(f"nacbench: no nacflex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nacflex

    if Path(nacflex.__file__).resolve().parent != SRC / "nacflex":
        raise SystemExit(f"nacbench: imported nacflex from {nacflex.__file__}")
    return nacflex


class Tally:
    """Trial times, failures and the round-0 output lines of one run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.round0: list[str] | None = None

    @property
    def attempted(self) -> int:
        return len(self.times)

    def finish(self) -> None:
        """Run the workload's deferred checks; each problem is one more failure."""
        for problem in self.workload.deferred_checks():
            self.failed += 1
            self.problems.append(problem)

    def add(self, r: int, trials, times: list[float], outs: list) -> list[str]:
        verdicts, lines = self.workload.check(r, outs)
        for trial, verdict in zip(trials, verdicts):
            if verdict is None:
                continue
            self.failed += 1
            if verdict != BUDGET:
                self.problems.append(f"round {r}, {trial.kind}: {verdict}")
        self.times += times
        if self.round0 is None:
            self.round0 = lines
        return lines


def run_round(workload, r: int, tracer: Tracer | None = None):
    """Build round r's inputs untimed, then time its trials, traced if a tracer is given."""
    trials = workload.round(r)
    times, outs = [], []
    with tracer.installed() if tracer else nullcontext():
        for trial in trials:
            if tracer is not None:
                tracer.trial = 0 if tracer.trial is None else tracer.trial + 1
            with tracer.span(f"trial {trial.kind}") if tracer else nullcontext():
                start = CLOCK()
                try:
                    out = trial.call(outs)
                except Exception as exc:  # a failed trial is counted, not fatal
                    out = exc
                times.append(CLOCK() - start)
            outs.append(out)
    return trials, times, outs


def setup_seconds(name: str, seed: int) -> list[float]:
    """CPU times (user + system) of fresh processes that import nacflex and build the inputs.

    Set-up reads only files in the page cache, so its CPU time is its wall
    time on an otherwise idle machine.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    out = []
    for i in range(SETUP_PROBES + 1):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if i:  # the first probe also writes the bytecode caches
            out.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return out


def tail(times_ms: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(times_ms)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], f"max of {n} samples"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return s[n - TAIL_BEYOND - 1], f"p{pct:.1f}: {TAIL_BEYOND} of {n} samples beyond"


def end_to_end(workload, name: str, seed: int, seconds: float):
    setups = setup_seconds(name, seed)
    workload.round(-1)[0].call([])  # warm-up: lazy imports and caches
    tally = Tally(workload)
    r = 0
    deadline = time.monotonic() + WALL_LIMIT * seconds
    while r == 0 or (sum(tally.times) < seconds and time.monotonic() < deadline):
        trials, times, outs = run_round(workload, r)
        tally.add(r, trials, times, outs)
        r += 1
    rss = peak_rss_mb()  # before the deferred checks, which allocate
    tally.finish()
    ms = [t * 1000 for t in tally.times]
    tail_ms, tail_note = tail(ms)
    n = tally.attempted
    values = {
        "setup_s": (statistics.median(setups),
                    f"median CPU time of {len(setups)} fresh processes"),
        "trials_per_s": (n / sum(tally.times), f"{n} trials in {r} rounds"),
        "trial_p50_ms": (statistics.median(ms), f"{n} samples"),
        "trial_tail_ms": (tail_ms, tail_note),
        "peak_rss_mb": (rss, "whole process"),
    }
    return tally, values


def traced(workload, name: str, seed: int, seconds: float):
    tracer = Tracer(workload.nf)
    tally = Tally(workload)
    plain_s = traced_s = 0.0
    workload.round(-1)[0].call([])
    r = 0
    deadline = time.monotonic() + WALL_LIMIT * seconds
    while r == 0 or (plain_s < seconds / 2 and time.monotonic() < deadline):
        trials, times, outs = run_round(workload, r)
        plain_lines = tally.add(r, trials, times, outs)
        plain_s += sum(times)
        trials, times, outs = run_round(workload, r, tracer)
        traced_s += sum(times)
        if tally.add(r, trials, times, outs) != plain_lines:
            tally.problems.append(f"round {r}: outputs differ when traced")
        r += 1
    tally.finish()
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(path)
    totals = layer_totals(path)
    values = {}
    for span, fields in PER_LAYER.items():
        row = totals.get(span, {})
        for field in fields:
            values[f"{span}.{field}"] = (row.get(field, 0), "")
    values["trace.overhead_frac"] = (traced_s / plain_s - 1.0, f"{r} rounds each way")
    for span in PREDICTED[name]:
        if not totals.get(span, {}).get("calls"):
            tally.problems.append(f"{span} recorded no call on workload {name}")
    print(f"spans written to {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return tally, values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric == "trace.overhead_frac":
        return "ratio"
    return "ms" if metric.endswith("ms") else "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    nf = import_nacflex()
    workload = WORKLOADS[args.workload](nf, args.seed)
    if args.setup_only:
        return 0
    run = traced if args.trace else end_to_end
    tally, values = run(workload, args.workload, args.seed, args.seconds)

    if args.seed == DEFAULT_SEED and digest(tally.round0) != DIGESTS[args.workload]:
        tally.problems.append(
            f"round-0 output digest {digest(tally.round0)} differs from the frozen one"
        )
    for problem in tally.problems[:20]:
        print(f"nacbench: INCORRECT {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    metrics = {}
    for metric, (value, note) in values.items():
        unit = unit_of(metric)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"  {metric} = {value} {unit}" + (f" ({note})" if note else ""))
    print(f"  failed_frac = {tally.failed / tally.attempted} ratio "
          f"({tally.failed} of {tally.attempted} operations failed or ran out of budget)")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
