"""Summarise one result set, or compare a parent result set with a change.

    python3 bench/compare.py RESULTS.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Result sets are the JSON-lines files `suite.py run` writes. Only untraced
runs (--trace 0) are compared, on the end-to-end metrics and bounds of
BENCHMARK.json.

One file: for each workload and metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (interquartile
distance over the median) against the metric's bound.

Two files: each side's median and quartiles, the ratio change/parent with
its base, the pairs (same workload and seed) the change won, and a verdict
following the rules for claiming a gain in a small sandbox:

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  distance;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unresolved: the parent's own spread is wider than the bound and not every
  change run beats every parent run;
- no worse: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, metric): {seed: value}} over the untraced runs of a file."""
    out: dict = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        detail = record.get("detail")
        if detail is None or detail["trace"] != 0:
            continue
        for name, metric in record["metrics"].items():
            out[(detail["workload"], name)][detail["seed"]] = metric["value"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, int, int]:
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p_vals, c_vals = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p_vals)
    cm = quartiles(c_vals)[1]
    gain = sign * (cm - pm)
    if seeds and wins >= 0.9 * len(seeds) and gain > (p3 - p1):
        return "improved", wins, len(seeds)
    if -gain > bound * abs(pm):
        return "worse", wins, len(seeds)
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if spread(p_vals) > bound and not all_better:
        return "unresolved", wins, len(seeds)
    return "no worse", wins, len(seeds)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        raise SystemExit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in argv]
    workloads = sorted({w for w, _ in sets[0]}, key=[x["name"] for x in spec["workloads"]].index)
    for workload in workloads:
        print(f"== {workload}")
        for name, m in metrics.items():
            sides = [s.get((workload, name), {}) for s in sets]
            if not all(sides):
                print(f"  {name:26s} missing")
                continue
            cells = []
            for side in sides:
                q1, q2, q3 = quartiles(list(side.values()))
                cells.append(f"{q2:11.5g} [{q1:.5g}, {q3:.5g}] n={len(side)}")
            if len(sets) == 1:
                s = spread(list(sides[0].values()))
                status = "steady" if s < m["bound"] / 3 else "within bound" if s <= m["bound"] else "WIDE"
                print(f"  {name:26s} {cells[0]}  spread {s:.3f} (bound {m['bound']}) {status}")
                continue
            parent, change = sides
            base = quartiles(list(parent.values()))[1]
            ratio = quartiles(list(change.values()))[1] / base if base else float("nan")
            word, wins, pairs = verdict(parent, change, m["better"], m["bound"])
            print(f"  {name:26s} parent {cells[0]} | change {cells[1]} | "
                  f"ratio {ratio:.4f} of {base:.5g} {m['unit']} | won {wins}/{pairs} | {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
