"""The limitgap benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload builtin-limits --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports limitgap from ./src.  With
`--trace 0` it runs the workload as a closed loop for `--seconds` seconds and
reports the end-to-end metrics.  With `--trace 1` it runs a fixed prefix of
the workload's rounds, alternating an untraced and a traced pass until
`--seconds` have passed, and reports the per-layer metrics.  Every answer is
checked by an oracle after the timed region.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "queries/s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 15
CLASS_LEVEL = 50.0
# Host-speed calibration: the loop below is timed about every CAL_INTERVAL_S
# between queries, and each query's wall time is scaled by CAL_REF_S over the
# median of its CAL_NEIGHBOURS nearest calibrations on either side.
CAL_REF_S = 1.5e-3
CAL_INTERVAL_S = 0.2
CAL_NEIGHBOURS = 4


def calibration_loop() -> Fraction:
    """A fixed stdlib-only computation shaped like limitgap's: Fraction sums
    whose denominators are powers of two up to 2^259.  On a 2-vCPU x86-64 VM
    under Python 3.11 it takes 1.1 to 2.3 ms as the shared host's speed
    changes; CAL_REF_S is a round figure in that range and only fixes the
    unit of the scaled times."""
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(k, 2 ** (k % 260))
    return total


class HostClock:
    """How fast the host runs right now, from the calibration loop.

    A shared host slows everything down for spells of seconds to minutes,
    by up to 1.7x, and CPU time slows with it, so neither wall nor CPU time
    of the program alone is steady from run to run.  The calibration loop
    does not touch limitgap, so a change to the program moves the query
    times and not the calibration; a slow spell moves both, and the ratio
    cancels it.
    """

    def __init__(self) -> None:
        self.marks: list[float] = []  # end time of each calibration
        self.times: list[float] = []  # its duration

    def sample(self) -> None:
        # One run, not the best of several: a query, too, runs after other
        # work, and a warmed-up loop tracked the queries less well.
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.marks.append(end)
        self.times.append(end - start)

    def sample_if_due(self) -> None:
        if not self.marks or time.perf_counter() - self.marks[-1] >= CAL_INTERVAL_S:
            self.sample()

    def scale(self, start: float) -> float:
        """CAL_REF_S over the host's calibration time around a call begun at `start`."""
        i = bisect.bisect_right(self.marks, start)
        near = self.times[max(0, i - CAL_NEIGHBOURS): i + CAL_NEIGHBOURS]
        return CAL_REF_S / statistics.median(near)


def percentile(sorted_values: list[float], level: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(level / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def class_times(labels: list[str], latencies: list[float]) -> tuple[dict, dict]:
    """Latencies grouped by query class, and each class's CLASS_LEVEL percentile.

    A class is one computation (function, family and horizon; event size;
    or CLI subcommand) whose cost the seeded arguments barely move.  Every
    query is reported at its class's time, so the order of a run's queries
    and the odd slow call do not move the percentiles.
    """
    by_label: dict[str, list[float]] = {}
    for label, lat in zip(labels, latencies):
        by_label.setdefault(label, []).append(lat)
    return by_label, {k: percentile(sorted(v), CLASS_LEVEL) for k, v in by_label.items()}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_report")):
        return "ratio"
    return "count"


def peak_rss_mb(state: dict) -> float:
    """Peak RSS of the process doing the work: the largest CLI child, or this one."""
    if "child_rss" in state:
        return max(state["child_rss"])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def judge(wl, state, query, answer) -> str | None:
    if isinstance(answer, Exception):
        return f"{wl.label(query)} raised {type(answer).__name__}: {answer}"
    try:
        return wl.check(state, query, answer)
    except Exception as exc:  # a malformed answer must count, not stop the run
        return f"{wl.label(query)}: checker failed on the answer ({type(exc).__name__}: {exc})"


def run_pass(wl, state, prepared, tracer=None, between=None) -> tuple[list, list, list]:
    """Execute queries one after another; return start times, latencies and settled answers."""
    starts, latencies, answers = [], [], []
    for i, (query, args) in enumerate(prepared):
        if between is not None:
            between()
        if tracer is not None:
            tracer.query_id = i
        start = time.perf_counter()
        try:
            answer = wl.execute(state, args)
        except Exception as exc:  # counted against error_ratio by judge()
            answer = exc
        latencies.append(time.perf_counter() - start)
        starts.append(start)
        answers.append(answer if isinstance(answer, Exception) else wl.settle(answer))
    return starts, latencies, answers


def run_untraced(wl, seed: int, seconds: float) -> tuple[dict, int, list[str], list[str]]:
    state, load = wl.setup(seed)
    clock = HostClock()
    setups: list[tuple[float, float]] = []  # (start, wall seconds)

    def timed_load() -> None:
        clock.sample_if_due()
        t0 = time.perf_counter()
        load()
        setups.append((t0, time.perf_counter() - t0))

    def between_queries() -> None:
        # Set-up is repeated at evenly spaced moments of the run, so one slow
        # spell of a shared host cannot set the median.
        done = len(setups)
        if done < SETUP_REPEATS and time.perf_counter() - start >= done * seconds / SETUP_REPEATS:
            timed_load()
        clock.sample_if_due()

    rounds, records = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        prepared = wl.prepare(state, seed, len(rounds))
        starts, lat, answers = run_pass(wl, state, prepared, between=between_queries)
        rounds.append(list(zip(starts, lat)))
        records += [(query, answer) for (query, _), answer in zip(prepared, answers)]
    peak_mb = peak_rss_mb(state)
    while len(setups) < SETUP_REPEATS:
        timed_load()
    clock.sample()
    failures = [r for q, a in records if (r := judge(wl, state, q, a)) is not None]

    timed = [pair for r in rounds for pair in r]
    latencies = [lat * clock.scale(t0) for t0, lat in timed]
    setup_times = [wall * clock.scale(t0) for t0, wall in setups]
    raw = [lat for _, lat in timed]
    labels = [wl.label(query) for query, _ in records]
    by_label, best = class_times(labels, latencies)
    ordered = sorted(best[label] for label in labels)
    level = wl.tail_level
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": percentile(ordered, 50) * 1000,
        "latency_tail_ms": percentile(ordered, level) * 1000,
        "throughput_qps": len(ordered) / sum(ordered),
        "peak_rss_mb": peak_mb,
    }
    beyond = len(ordered) - math.ceil(level / 100 * len(ordered))
    lines = [
        f"workload {wl.name}, seed {seed}: {len(rounds)} rounds, {len(records)} queries, "
        f"{len(failures)} failed (error_ratio {len(failures) / len(records):.6g})",
        f"  setup_s          {metrics['setup_s']:.6f} s (median of {len(setup_times)})",
        f"  latency_p50_ms   {metrics['latency_p50_ms']:.4f} ms ({len(ordered)} samples, "
        f"{len(best)} classes at their p{CLASS_LEVEL:g})",
        f"  latency_tail_ms  {metrics['latency_tail_ms']:.4f} ms at p{level:g} "
        f"({beyond} samples beyond it)",
        f"  throughput_qps   {metrics['throughput_qps']:.4f} queries/s (unscaled wall: "
        f"{len(raw) / sum(raw):.4f} over {len(rounds)} rounds)",
        f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB",
        f"  host speed       calibration median {statistics.median(clock.times) * 1000:.4f} ms "
        f"(reference {CAL_REF_S * 1000:g} ms; {len(clock.times)} samples, "
        f"range {min(clock.times) * 1000:.4f}..{max(clock.times) * 1000:.4f})",
        "breakdown " + json.dumps({k: [len(v), round(best[k] * 1000, 4)]
                                   for k, v in sorted(by_label.items())}),
    ]
    return metrics, len(records), failures, lines


def run_traced(wl, seed: int, seconds: float) -> tuple[dict, int, list[str], list[str]]:
    from tracer import COUNT_NAMES, LAYERS, Tracer

    state, _ = wl.setup(seed)
    if "in_process" in state:
        importlib.import_module("limitgap.cli")
        state["in_process"] = True
    prepared = [pair for i in range(wl.trace_rounds) for pair in wl.prepare(state, seed, i)]
    plain_walls, traced_walls, stats, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while not stats or time.perf_counter() - start < seconds:
        _, lat, answers = run_pass(wl, state, prepared)
        plain_walls.append(sum(lat))
        state["stdout_bytes"] = 0
        tracer = Tracer()
        with tracer:
            _, lat, traced_answers = run_pass(wl, state, prepared, tracer)
        traced_walls.append(sum(lat))
        tracer.counts["cli.stdout_bytes"] = state["stdout_bytes"]
        pass_stats = tracer.layer_stats()
        pass_stats.update({name: tracer.counts[name] for name in COUNT_NAMES})
        stats.append(pass_stats)
        top = tracer.top_spans()
        del tracer
        for got in (answers, traced_answers):
            attempted += len(got)
            failures += [r for (q, _), a in zip(prepared, got)
                         if (r := judge(wl, state, q, a)) is not None]

    exact = [k for k in stats[0] if not k.endswith(".self_s")]
    if any(s[k] != stats[0][k] for s in stats for k in exact):
        failures.append("span and call counts differ between traced passes")
    metrics = {k: v for k, v in stats[0].items() if k in exact and k != "convergence_lab.reports"}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(s[f"{layer}.self_s"] for s in stats)
    reports = stats[0]["convergence_lab.reports"]
    metrics["convergence_lab.members_per_report"] = (
        stats[0]["convergence_lab.member_requests"] / reports if reports else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    lines = [f"workload {wl.name}, seed {seed}, traced: {wl.trace_rounds} rounds, "
             f"{len(prepared)} queries per pass, {len(stats)} traced passes, "
             f"{len(failures)} failed"]
    lines += [f"  span {name:48s} {calls:9d} calls {secs:10.4f} s self" for name, calls, secs in top]
    return metrics, attempted, failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "limitgap" / "__init__.py").is_file():
        print(f"error: no limitgap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if hasattr(os, "sched_setaffinity"):
        # One core for this process and the CLI children it starts, so that
        # the calibration loop measures the core the queries run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        metrics, attempted, failures, lines = run_traced(wl, args.seed, args.seconds)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics, attempted, failures, lines = run_untraced(wl, args.seed, args.seconds)
        units = END_TO_END_UNITS
    for line in lines + [f"  FAILED: {f}" for f in failures[:20]]:
        print(line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
