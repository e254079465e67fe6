"""Run every workload over a range of seeds and summarise the spread.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 --label first

For each workload of BENCHMARK.json and each seed it runs
`perfbench/run.py` for the file's run_seconds with --trace 0, and once
with --trace 1 at the first seed.  It prints, per workload and
end-to-end metric, the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
metric's bound from BENCHMARK.json, and the share of failed operations.
The runs' last lines go to .perfbench-runs/sweep-<label>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"report": lines[:-1], "result": json.loads(lines[-1])}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--label", default="sweep")
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {}
    seconds = bench["run_seconds"]
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_one(workload, seed, seconds, 0) for seed in seeds]
        traced = run_one(workload, seeds[0], seconds, 1)
        record[workload] = {"seeds": seeds, "runs": runs, "traced": traced}
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        print(f"{workload}: correct={all(r['result']['correct'] for r in runs)} "
              f"failed/attempted={sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:<12} median={med:<12.5g} q1={q1:<12.5g} q3={q3:<12.5g} "
                  f"spread={(q3 - q1) / med:.4f} bound={bound}")
        sys.stdout.flush()
    os.makedirs(os.path.join(ROOT, ".perfbench-runs"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench-runs", f"sweep-{args.label}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
