#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

Runs the benchmark command from BENCHMARK.json once per (workload, seed)
at its run_seconds, then prints per metric the median and quartiles over
the seeds and the quartile spread as a share of the median, flagged when
it is not below a third of the metric's bound. Fingerprints of repeated
seeds must match. `--trajectory LABEL` appends the medians and quartiles
to perfbench/trajectory.jsonl, the committed perf history.

    python3 perfbench/spread.py --workloads se-100x20,ga-100x20 --seeds 1-10
    python3 perfbench/spread.py --seeds 1-5 --repeat 2
    python3 perfbench/spread.py --seeds 1-10 --trajectory "after <change>"
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--trajectory", metavar="LABEL", help="append a trajectory entry")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values, prints = {}, {}
        for seed in args.seeds:
            for _ in range(args.repeat):
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", "0"]
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = out.stdout.strip().splitlines()
                if out.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                fp = next((l for l in lines if l.startswith("fingerprint")), "")
                if prints.setdefault(seed, fp) != fp:
                    print(f"{workload} seed {seed}: fingerprint changed: {fp}")
                    ok = False
                ok &= result["correct"] and result["failed"] == 0
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(args.seeds)} seeds x {args.repeat})")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            summary.setdefault(workload, {})[name] = {"median": med, "q1": q1, "q3": q3}
            spread = (q3 - q1) / med if med else float("nan")
            limit = bounds.get(name, float("nan")) / 3
            flag = "" if spread < limit else "  <-- wide"
            print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}  bound/3 {limit:.4f}{flag}")
    if args.trajectory:
        entry = {"label": args.trajectory, "seeds": [args.seeds[0], args.seeds[-1]],
                 "repeat": args.repeat, "seconds": seconds,
                 "cpus": os.cpu_count(), "metrics": summary}
        with open(ROOT / "perfbench" / "trajectory.jsonl", "a") as f:
            f.write(json.dumps(entry) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
