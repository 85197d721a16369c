#!/usr/bin/env python3
"""Runs the admission benchmark over many seeds and records the results.

    python3 admission_bench/sweep.py --out runs/ --seeds 1-10
    python3 admission_bench/sweep.py --out runs/ --seeds 1-10 \
        --checkout parent=../parent-checkout --checkout change=.

Each checkout (default: this one, named "this") runs every workload once
per seed through its own admission_bench/run.py, untraced and for
BENCHMARK.json's run_seconds; with several checkouts the order alternates
from seed to seed. Traced runs are run.py --trace 1 on their own. Results
go to <out>/<name>.jsonl, one {"workload", "seed", "result", "all"} object
per line, which
compare.py reads: "result" is the run's JSON result line, "all" every
end-to-end metric of its "# all-metrics" report line, gated or not.
Afterwards the spread of each end-to-end metric over the seeds — (q3 - q1)
/ median, quartiles as statistics.quantiles(n=4) gives them — is printed
next to a third of its bound from BENCHMARK.json.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root, workload, seed):
    cmd = [sys.executable, str(root / "admission_bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"sweep: {workload} seed {seed} failed in {root}")
    report = [l for l in lines if l.startswith("# all-metrics ")]
    every = json.loads(report[-1][len("# all-metrics "):]) if report else {}
    return json.loads(lines[-1]), every


def spread_table(records):
    """Gated metrics against a third of their bound; reported-only ones
    (bound shown as '-') for information."""
    gated = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    print(f"{'workload':16} {'metric':26} {'median':>12} {'spread':>8} "
          f"{'bound/3':>8}")
    for w in BENCHMARK["workloads"]:
        runs = [r for r in records if r["workload"] == w["name"]]
        names = list(gated) + [n for n in (runs[0]["all"] if runs else {})
                               if n not in gated]
        for name in names:
            values = [(r["all"].get(name) or r["result"]["metrics"][name])
                      ["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = gated.get(name)
            third = f"{bound / 3:8.4f}" if bound else f"{'-':>8}"
            flag = "  WIDE" if bound and spread >= bound / 3 else ""
            print(f"{w['name']:16} {name:26} {med:12.4f} {spread:8.4f} "
                  f"{third}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in BENCHMARK["workloads"]))
    parser.add_argument("--checkout", action="append", default=[],
                        metavar="NAME=DIR")
    args = parser.parse_args()

    checkouts = [(n, pathlib.Path(d).resolve())
                 for n, _, d in (c.partition("=") for c in args.checkout)]
    checkouts = checkouts or [("this", HERE.parent)]
    args.out.mkdir(parents=True, exist_ok=True)
    records = {name: [] for name, _ in checkouts}
    for workload in args.workloads.split(","):
        for i, seed in enumerate(seed_list(args.seeds)):
            order = checkouts[i % len(checkouts):] + \
                checkouts[:i % len(checkouts)]
            for name, root in order:
                result, every = run_once(root, workload, seed)
                record = {"workload": workload, "seed": seed,
                          "result": result, "all": every}
                records[name].append(record)
                with open(args.out / f"{name}.jsonl", "a") as f:
                    f.write(json.dumps(record) + "\n")
                print(f"{name} {workload} seed {seed}: done", flush=True)
    for name, recs in records.items():
        print(f"\n== {name}")
        spread_table(recs)


if __name__ == "__main__":
    main()
