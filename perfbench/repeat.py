"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads train-lpd-rma,eval-mix --seeds 1-10

Runs are sequential, each in a fresh process, as BENCHMARK.json specifies
them.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, (q3 - q1) / median, next
to the metric's bound; ``--out`` also writes the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import envstamp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(proc.stdout, proc.stderr, file=sys.stderr)
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"env": envstamp.stamp(envstamp.pin_blas(), with_caches=True),
               "run_seconds": args.seconds, "seeds": args.seeds}
    for workload in args.workloads.split(","):
        runs = [run_once(bench["command"], workload, seed, args.seconds, 0)
                for seed in seed_list(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        per_metric = {name: summarise([r["metrics"][name]["value"] for r in runs])
                      for name in bounds}
        summary[workload] = {"runs": len(runs), "failed": failed,
                             "metrics": per_metric}
        print(f"{workload}: {len(runs)} runs, {failed} failed checks")
        for name, s in per_metric.items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:14s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  "
                  f"bound {bounds[name]}  {flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
