#!/usr/bin/env python3
"""Summarise the run records in .perfbench/results/ per workload and metric:

    python3 perfbench/summarize.py [--out perfbench/BENCH_<label>.json]

For every end-to-end metric of BENCHMARK.json it prints the median over the
untraced runs (one per seed), the quartiles as statistics.quantiles(n=4)
gives them, and their distance as a share of the median, next to the
metric's bound.  Per-layer values are the medians of the traced runs.
--out also writes all of it, with each run's environment, as a JSON file to
compare later commits against.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / ".perfbench" / "results"


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the summary to this JSON file")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"no run records in {RESULTS}", file=sys.stderr)
        return 1
    if not all(r["correct"] for r in records):
        print("some runs were not correct:", [(r["workload"], r["seed"], r["error"]) for r in records
                                               if not r["correct"]], file=sys.stderr)
        return 1
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    for wl in (w["name"] for w in bench["workloads"]):
        plain = [r for r in records if r["workload"] == wl and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == wl and r["trace"] == 1]
        environments = []
        for r in plain + traced:
            if r["environment"] not in environments:
                environments.append(r["environment"])
        entry = {"seeds": sorted(r["seed"] for r in plain), "environments": environments,
                 "end_to_end": {}, "per_layer": {}}
        if plain:
            print(f"{wl}: {len(plain)} runs")
            for m in bench["end_to_end"]:
                s = spread([r["metrics"][m["name"]]["value"] for r in plain])
                s["bound"] = m["bound"]
                entry["end_to_end"][m["name"]] = s
                if m["name"] != "setup_s":
                    worst = max(worst, s["spread"] / m["bound"])
                print(f"  {m['name']:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"spread {s['spread']:.4f}  bound {m['bound']}")
        if traced:
            for m in bench["per_layer"]:
                entry["per_layer"][m["name"]] = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in traced)
        summary["workloads"][wl] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
