"""Compare benchmark result sets, or summarize one into a baseline.

Result sets are the JSON-lines files ``run.py --out FILE`` appends to,
one record per run::

    python3 perfbench/compare.py compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py summarize RESULTS.jsonl > perfbench/baseline.json

``compare`` prints, for every workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles and the fraction of
pairs the change won (runs are paired by seed, else in order), then one
row per workload: ``regressed`` when a median got worse by more than the
metric's bound, or when the change failed verification on more operations
than the parent (``failed_frac``, failed over attempted, is printed per
side), ``unresolved`` when the parent's own spread (quartile
distance over median) is wider than the bound and the change does not
beat every parent run, else ``unchanged``.  It exits 1 if any workload
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
STATUS_ORDER = ("unchanged", "unresolved", "regressed")


def load_runs(path: Path, trace: int = 0) -> dict[str, list[tuple[int, dict]]]:
    """workload -> [(seed, {metric: value})] of the records with ``trace``.

    Besides the metrics, each run's values hold its ``failed`` and
    ``attempted`` operation counts.
    """
    runs: dict[str, list[tuple[int, dict]]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"] != trace:
            continue
        result = record["result"]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values.update(failed=result["failed"], attempted=result["attempted"])
        runs[record["workload"]].append((record["seed"], values))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent: list[tuple[int, dict]], change: list[tuple[int, dict]]):
    """Parent/change runs of one workload, paired by seed where they share one."""
    by_seed = dict(change)
    if len(by_seed) == len(change) and all(seed in by_seed for seed, _ in parent):
        return [(values, by_seed[seed]) for seed, values in parent]
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Status of one end-to-end metric on one workload."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse = sign * (c_med - p_med) / abs(p_med)
    spread = (p_q3 - p_q1) / abs(p_med)
    beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
    if worse > metric["bound"]:
        status = "regressed"
    elif spread > metric["bound"] and not beats_all:
        status = "unresolved"
    else:
        status = "unchanged"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "worse_frac": worse, "status": status}


def failed_frac(runs: list[tuple[int, dict]]) -> float:
    """Failed over attempted operations, summed over ``runs``."""
    return (sum(v["failed"] for _, v in runs)
            / max(1, sum(v["attempted"] for _, v in runs)))


def compare(spec: dict, parent_path: Path, change_path: Path) -> int:
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    rows = []
    print(f"{'workload':18s} {'metric':14s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'worse':>8s} {'won':>5s}  status")
    for workload in [w["name"] for w in spec["workloads"]]:
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload:18s} (no runs on {'parent' if not parent else 'change'} side)")
            rows.append((workload, "unresolved"))
            continue
        paired = pairs(parent, change)
        statuses = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            won = sum(sign * (c[name] - p[name]) < 0 for p, c in paired) / len(paired)
            verdict = judge(metric, [v[name] for _, v in parent],
                            [v[name] for _, v in change])
            statuses.append(verdict["status"])
            p, c = verdict["parent"], verdict["change"]
            print(f"{workload:18s} {name:14s} "
                  f"{p[1]:12.4f} [{p[0]:9.4f}, {p[2]:9.4f}] "
                  f"{c[1]:12.4f} [{c[0]:9.4f}, {c[2]:9.4f}] "
                  f"{verdict['worse_frac']:+8.1%} {won:5.0%}  {verdict['status']}")
        p_failed, c_failed = failed_frac(parent), failed_frac(change)
        if c_failed > p_failed:
            statuses.append("regressed")
        print(f"{workload:18s} {'failed_frac':14s} {p_failed:12.4f} {'':22s} "
              f"{c_failed:12.4f} {'':22s} {'':8s} {'':5s}  "
              f"{'regressed' if c_failed > p_failed else 'unchanged'}")
        rows.append((workload, max(statuses, key=STATUS_ORDER.index)))
    print()
    for workload, status in rows:
        print(f"{workload:18s} {status}")
    return 1 if any(status == "regressed" for _, status in rows) else 0


def summarize(spec: dict, path: Path) -> dict:
    """Median and quartiles per end-to-end metric, mean traced layer values."""
    plain, traced = load_runs(path, trace=0), load_runs(path, trace=1)
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        entry = {"runs": len(plain.get(workload, [])), "end_to_end": {}, "per_layer": {}}
        if plain.get(workload):
            entry["failed_frac"] = failed_frac(plain[workload])
        for metric in spec["end_to_end"]:
            values = [v[metric["name"]] for _, v in plain.get(workload, [])]
            if values:
                q1, med, q3 = quartiles(values)
                entry["end_to_end"][metric["name"]] = {
                    "median": med, "q1": q1, "q3": q3, "unit": metric["unit"]}
        layer_runs = traced.get(workload, [])
        if layer_runs:
            entry["traced_runs"] = len(layer_runs)
            for name in layer_runs[0][1].keys() - {"failed", "attempted"}:
                entry["per_layer"][name] = sum(v[name] for _, v in layer_runs) / len(layer_runs)
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_compare = sub.add_parser("compare", help="parent vs change, one row per workload")
    p_compare.add_argument("parent", type=Path)
    p_compare.add_argument("change", type=Path)
    p_summary = sub.add_parser("summarize", help="baseline JSON of one result set")
    p_summary.add_argument("results", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    if args.command == "compare":
        return compare(spec, args.parent, args.change)
    print(json.dumps(summarize(spec, args.results), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
