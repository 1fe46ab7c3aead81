"""Measure a commit: two series of every workload on several seeds, plus traced runs.

    python3 perfbench/baseline.py --seeds 1-10 --series 2 --out perfbench/baseline.json

Workloads and run length come from BENCHMARK.json.  For each series and
workload it reports, per end-to-end metric, the median over seeds and the
spread (distance between the first and third quartile, as a share of the
median), and then how much worse the second series' median is than the
first's.  It checks that two traced runs of a seed give bit-identical
counts, and pulls two growth curves out of the first series' per-class
breakdown: event queries by n on `scan` and order (b) on mu by horizon on
`builtin-limits`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(final JSON object, per-class breakdown) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    breakdown = next((json.loads(line[len("breakdown "):]) for line in lines
                      if line.startswith("breakdown ")), {})
    return json.loads(lines[-1]), breakdown


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure_series(spec: dict, seeds: list[int], seconds: int) -> dict:
    """Every workload on every seed: per-metric values, medians and spreads."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    series = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        breakdowns, failed = [], 0
        for seed in seeds:
            result, breakdown = run_once(workload, seed, seconds, 0)
            failed += result["failed"]
            breakdowns.append(breakdown)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[name] = {"median": median, "spread": (q3 - q1) / median,
                             "bound": bounds[name], "values": vals}
            print(f"  {workload:15s} {name:16s} median {median:10.4f} "
                  f"spread {(q3 - q1) / median:.3f} (bound {bounds[name]})", flush=True)
        classes = {}
        for label in breakdowns[0]:
            classes[label] = statistics.median(b[label][1] for b in breakdowns if label in b)
        series[workload] = {"end_to_end": summary, "failed": failed, "class_ms": classes}
    return series


def agreement(spec: dict, first: dict, second: dict) -> dict:
    """How much worse each metric's median is in the second series, as a share."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = {}
    for workload, entry in first.items():
        out[workload] = {}
        for name, summary in entry["end_to_end"].items():
            m1, m2 = summary["median"], second[workload]["end_to_end"][name]["median"]
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            out[workload][name] = {"worse_by": worse, "bound": summary["bound"]}
            print(f"  {workload:15s} {name:16s} second series worse by {worse:+.3f} "
                  f"(bound {summary['bound']})", flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--series", type=int, default=2)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: the gated ones in BENCHMARK.json")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    if args.workloads:
        spec["workloads"] = [{"name": name} for name in args.workloads.split(",")]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    report = {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
              "seconds": seconds, "seeds": args.seeds, "series": []}
    seeds = seed_range(args.seeds)
    for k in range(args.series):
        print(f"series {k + 1}", flush=True)
        report["series"].append(measure_series(spec, seeds, seconds))
    if args.series >= 2:
        report["agreement"] = agreement(spec, report["series"][0], report["series"][1])
    first = report["series"][0]
    if "scan" in first:
        classes = first["scan"]["class_ms"]
        report["event_ms_by_n"] = {n: classes[f"event n={n}"] for n in range(8, 19)}
    if "builtin-limits" in first:
        classes = first["builtin-limits"]["class_ms"]
        report["order_b_mu_ms_by_horizon"] = {h: classes[f"order_b mu H={h}"]
                                              for h in (32, 64, 128, 256)}
    report["traced"] = {}
    for workload in first:
        traced = [run_once(workload, seeds[0], seconds, 1)[0] for _ in range(2)]
        counts = [{k: m["value"] for k, m in t["metrics"].items() if m["unit"] == "count"}
                  for t in traced]
        report["traced"][workload] = {
            "counts_repeat": counts[0] == counts[1],
            "metrics": {k: m["value"] for k, m in traced[0]["metrics"].items()}}
        print(f"  {workload}: traced counts repeat: {counts[0] == counts[1]}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
