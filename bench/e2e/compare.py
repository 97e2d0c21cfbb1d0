#!/usr/bin/env python3
"""Compares two sets of prodigy_bench result JSONs: a parent and a change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
    python3 bench/e2e/compare.py --summarize DIR > bench/e2e/results/<commit>.json

Each directory holds the --out files of untraced runs (traced and smoke
results are ignored).  Runs are paired in the order they finished.  Per
workload and end-to-end metric it reports each side's median and quartiles
and one verdict:

  gain        at least 10 pairs that alternate which side ran first, the
              change wins at least 9 in 10 of them (ties count for neither),
              and the medians differ by more than the parent's quartile
              spread; void when failed_frac got worse
  regressed   the change's median is worse than the parent's by more than the
              metric's bound (BENCHMARK.json when it lists the metric, else
              the bound the result file carries)
  unresolved  within the bound, but the parent's own quartile spread is wider
              than the bound, and not every change run beats every parent run
  ok          within the bound

It refuses (exit 2) to compare runs from a different nproc or build type.
Exit status 1 when any metric regressed, else 0.  --summarize prints the
median and quartiles of every metric of one directory's runs, per workload,
as JSON (the form of the committed files under results/).  Standard library
only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(data, dict) or "workload" not in data or "metrics" not in data:
            continue
        if data.get("traced") or data.get("smoke"):
            continue
        runs.append(data)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def alternating(parent, change):
    """True when, in finishing order, every consecutive pair of runs holds one
    run of each side and the side that ran first alternates pair to pair."""
    order = sorted([(r["finished_unix_s"], "p") for r in parent] +
                   [(r["finished_unix_s"], "c") for r in change])
    sides = [side for _, side in order]
    if len(sides) % 2:
        return False
    firsts = []
    for i in range(0, len(sides), 2):
        if sides[i] == sides[i + 1]:
            return False
        firsts.append(sides[i])
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def verdict(name, parent, change, bound, absolute, higher_better, pairs_alternate):
    sign = -1.0 if higher_better else 1.0  # positive = worse
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse_by = (c_med - p_med) * sign
    allowed = bound if absolute else bound * abs(p_med)
    spread = p_q3 - p_q1
    paired = list(zip(parent, change))  # both in finishing order
    wins = sum(1 for p, c in paired if (c - p) * sign < 0)
    all_better = all((c - p) * sign < 0 for p in parent for c in change)
    if (len(paired) >= 10 and pairs_alternate and wins >= 0.9 * len(paired)
            and -worse_by > spread):
        result = "gain"
    elif worse_by > allowed:
        result = "regressed"
    elif spread > allowed and not all_better:
        result = "unresolved"
    else:
        result = "ok"
    change_pct = 100.0 * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return {
        "metric": name, "verdict": result, "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3), "change_pct": change_pct,
        "wins": wins, "pairs": len(paired),
        "bound": f"{bound:g} abs" if absolute else f"{100 * bound:g}%",
    }


def same_host(runs):
    for key in ("nproc", "build_type"):
        seen = {r.get(key) for r in runs}
        if len(seen) > 1:
            print(f"compare.py: refusing to mix runs with different {key}: "
                  f"{sorted(map(str, seen))}", file=sys.stderr)
            return False
    return True


def summarize(directory):
    runs = load(directory)
    if not runs or not same_host(runs):
        return 2
    summary = {"nproc": runs[0]["nproc"], "build_type": runs[0]["build_type"],
               "workloads": {}}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        metrics = {}
        for name, meta in sorted(mine[0]["metrics"].items()):
            values = [r["metrics"][name]["value"] for r in mine if name in r["metrics"]]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"unit": meta["unit"], "better": meta["better"],
                             "layer": meta.get("layer", False), "median": med,
                             "q1": q1, "q3": q3, "n": len(values), "values": values}
        summary["workloads"][workload] = {
            "runs": len(mine), "seeds": sorted({r["seed"] for r in mine}),
            "seconds": mine[0]["seconds"], "metrics": metrics}
    print(json.dumps(summary, indent=1))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--summarize", metavar="DIR")
    parser.add_argument("--benchmark", default=str(Path(__file__).resolve().parents[2] /
                                                   "BENCHMARK.json"))
    args = parser.parse_args()
    if args.summarize:
        return summarize(args.summarize)
    if not args.parent or not args.change:
        parser.error("PARENT_DIR and CHANGE_DIR are required")

    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("compare.py: no untraced result files in one of the directories",
              file=sys.stderr)
        return 2
    if not same_host(parent + change):
        return 2

    bounds = {}
    bench_path = Path(args.benchmark)
    if bench_path.is_file():
        for entry in json.loads(bench_path.read_text())["end_to_end"]:
            bounds[entry["name"]] = entry["bound"]

    regressed = False
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    for workload in workloads:
        p_runs = sorted((r for r in parent if r["workload"] == workload),
                        key=lambda r: r["finished_unix_s"])
        c_runs = sorted((r for r in change if r["workload"] == workload),
                        key=lambda r: r["finished_unix_s"])
        pairs_alternate = alternating(p_runs, c_runs)
        rows = []
        for name, meta in sorted(p_runs[0]["metrics"].items()):
            if meta.get("layer") or not all(name in r["metrics"] for r in p_runs + c_runs):
                continue
            absolute = name not in bounds and "bound_abs" in meta
            bound = bounds.get(name, meta.get("bound_abs", meta.get("bound", 0.0)))
            rows.append(verdict(name,
                                [r["metrics"][name]["value"] for r in p_runs],
                                [r["metrics"][name]["value"] for r in c_runs],
                                bound, absolute, meta["better"] == "higher",
                                pairs_alternate))
        failed_worse = any(r["metric"] == "failed_frac" and r["change"][1] > r["parent"][1]
                           for r in rows)
        for r in rows:
            if failed_worse and r["verdict"] == "gain":
                r["verdict"] = "ok"  # a gain does not count with more failures
        regressed |= any(r["verdict"] == "regressed" for r in rows)
        summary = "  ".join(f"{r['metric']}={r['verdict']}" for r in rows)
        print(f"{workload} ({len(p_runs)} parent / {len(c_runs)} change runs, "
              f"{'alternating' if pairs_alternate else 'not alternating'}): {summary}")
        for r in rows:
            p, c = r["parent"], r["change"]
            print(f"  {r['metric']:<24} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
                  f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  {r['change_pct']:+.1f}%  "
                  f"wins {r['wins']}/{r['pairs']}  bound {r['bound']}  -> {r['verdict']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
