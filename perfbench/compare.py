"""Compare two benchmark result files.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the records `run.py --out FILE` appends, one per run.  The
command prints one row per workload, trace mode and metric with each side's
median and quartiles and the change of the medians, and flags:

  WORSE    an end-to-end metric whose HEAD median is worse than the BASE
           median by more than the bound BENCHMARK.json gives it;
  COUNTER  an exact counter (steps, rounds, iterations, fires, evaluations)
           that differs between any two records of the same workload, seed
           and trace mode, on either side or across sides;
  DIGEST   a gate digest that differs in the same way.

It exits with 1 when anything is flagged, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_rows(base: list[dict], head: list[dict], bounds: dict) -> tuple[list[str], int]:
    series: dict = {}
    for side, records in ((0, base), (1, head)):
        for r in records:
            for name, m in r["metrics"].items():
                key = (r["workload"], r["trace"], name)
                series.setdefault(key, ([], []))[side].append(m["value"])
    rows, flagged = [], 0
    for (workload, trace, name), (a, b) in sorted(series.items()):
        cells = []
        for values in (a, b):
            if values:
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            else:
                cells.append(f"{'-':>12}")
        change, flag = "", ""
        if a and b:
            ma, mb = statistics.median(a), statistics.median(b)
            if ma:
                rel = (mb - ma) / abs(ma)
                change = f"{rel:+.1%}"
                if name in bounds:
                    better, bound = bounds[name]
                    worse = -rel if better == "higher" else rel
                    if worse > bound:
                        flag = f"WORSE (bound {bound:.0%})"
                        flagged += 1
        rows.append(f"{workload:11s} t{trace} {name:34s} {cells[0]:40s} "
                    f"{cells[1]:40s} {change:>8s} {flag}")
    return rows, flagged


def exact_rows(base: list[dict], head: list[dict]) -> tuple[list[str], int]:
    groups: dict = {}
    for side, records in (("base", base), ("head", head)):
        for r in records:
            key = (r["workload"], r["seed"], r["trace"])
            groups.setdefault(key, []).append((side, r))
    rows, compared = [], 0
    for (workload, seed, trace), recs in sorted(groups.items()):
        if len(recs) < 2:
            continue
        compared += 1
        first_side, first = recs[0]
        for side, r in recs[1:]:
            if r["digest"] != first["digest"]:
                rows.append(f"DIGEST  {workload} seed {seed} t{trace}: "
                            f"{first_side} {first['digest'][:16]} != {side} {r['digest'][:16]}")
            for name in sorted(set(first["counters"]) | set(r["counters"])):
                x, y = first["counters"].get(name), r["counters"].get(name)
                if x != y:
                    rows.append(f"COUNTER {workload} seed {seed} t{trace} {name}: "
                                f"{first_side} {x} != {side} {y}")
    return rows, compared


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two benchmark result files.")
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.bench, encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    base, head = load(args.base), load(args.head)

    rows, worse = metric_rows(base, head, bounds)
    print(f"{'workload':11s} tr {'metric':34s} {'base median [q1, q3]':40s} "
          f"{'head median [q1, q3]':40s} {'change':>8s}")
    for row in rows:
        print(row)
    exact, compared = exact_rows(base, head)
    print(f"# exact counters and digests: {compared} (workload, seed, trace) "
          f"groups with two or more records, {len(exact)} differences")
    for row in exact:
        print(row)
    return 1 if worse or exact else 0


if __name__ == "__main__":
    sys.exit(main())
