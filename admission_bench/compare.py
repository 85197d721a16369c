#!/usr/bin/env python3
"""Compares two sets of admission-benchmark runs.

    python3 admission_bench/compare.py runs/parent.jsonl runs/change.jsonl

Reads the records sweep.py wrote (untraced runs), pairs the runs of the
two sets by (workload, seed) and prints, per workload and end-to-end
metric, each side's median and quartiles, the share of pairs the change
won (ties count for neither side), and a verdict. Gated metrics use
their bound from BENCHMARK.json; the reported-only ones (latency
percentiles, throughput, switch figures) are judged against the largest
bound a gated metric may have, 0.25, and marked "(reported)". The
verdicts:

  improved    the change won at least 9 in 10 pairs and the medians differ,
              in its favour, by more than the parent's quartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread, (q3 - q1) / median, is wider than
              the bound, and not every change run beat every parent run;
  unchanged   otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


REPORTED_BOUND = 0.25


def load(path):
    """(workload, seed) -> {metric name: value}, gated and reported."""
    runs = {}
    for line in pathlib.Path(path).read_text().splitlines():
        record = json.loads(line)
        values = {n: m["value"] for n, m in record.get("all", {}).items()}
        values.update({n: m["value"] for n, m in
                       record["result"]["metrics"].items()})
        runs[(record["workload"], record["seed"])] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, pairs, metric):
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    won = sum(better(c, p) for p, c in pairs)
    share = won / len(pairs) if pairs else 0.0
    worse_by = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    spread = (p3 - p1) / pm if pm else float("inf")
    every_run_better = all(better(c, p) for c in change for p in parent)
    if share >= 0.9 and better(cm, pm) and abs(cm - pm) > (p3 - p1):
        return share, "improved"
    if worse_by > metric["bound"]:
        return share, "unresolved" if spread > metric["bound"] else "worse"
    if spread > metric["bound"] and not every_run_better:
        return share, "unresolved"
    return share, "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':15} {'metric':26} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5} {'n':>3}  verdict")
    worse = False
    gated = {m["name"] for m in BENCHMARK["end_to_end"]}
    for w in BENCHMARK["workloads"]:
        seeds = sorted(s for (name, s) in parent
                       if name == w["name"] and (name, s) in change)
        if not seeds:
            continue
        first = parent[(w["name"], seeds[0])]
        metrics = BENCHMARK["end_to_end"] + [
            {"name": n, "bound": REPORTED_BOUND,
             "better": "higher" if n == "decisions_per_s" else "lower"}
            for n in first if n not in gated]
        for m in metrics:
            if not all(m["name"] in runs[(w["name"], s)]
                       for runs in (parent, change) for s in seeds):
                continue
            pv = [parent[(w["name"], s)][m["name"]] for s in seeds]
            cv = [change[(w["name"], s)][m["name"]] for s in seeds]
            share, result = verdict(pv, cv, list(zip(pv, cv)), m)
            if m["name"] not in gated:
                result += " (reported)"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w['name']:15} {m['name']:26} {fmt(quartiles(pv)):>32} "
                  f"{fmt(quartiles(cv)):>32} {share:5.2f} {len(seeds):3}  "
                  f"{result}")
            worse = worse or result == "worse"
    if len(seeds) < 10:
        print(f"note: {len(seeds)} pairs; the method asks for at least 10")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
