"""Run workloads over several seeds and report each metric's spread.

    python3 benchmarks/sweep.py --seeds 1-10 --seconds 20 [--trace]
        [--workloads roads-corpus,scale-ladder] [--out summary.json]

Runs run.py once per (workload, seed), one at a time, and prints for every
metric the median, the first and third quartiles, and the spread
(Q3 - Q1) / median as `statistics.quantiles(values, n=4)` gives them. With
`--out` it writes the same table, the raw values, the Python version and
the git commit (when the tree is a git checkout) as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "benchmarks", "run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--out", default=None)
    args = p.parse_args()

    summary = {"python": platform.python_version(), "commit": git_commit(),
               "seconds": args.seconds, "trace": int(args.trace),
               "seeds": args.seeds, "workloads": {}}
    for w in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        failed = 0
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, RUN, "--workload", w, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", str(int(args.trace))],
                capture_output=True, text=True, cwd=ROOT)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        table = {}
        print(f"{w}: {len(args.seeds)} runs, {failed} failed cases")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            table[name] = {"unit": units[name], "median": med, "q1": q1,
                           "q3": q3, "spread": spread, "values": vals}
            print(f"  {name:<42} median {med:<12.6g} {units[name]:<6} "
                  f"spread {spread:.4f}")
        summary["workloads"][w] = {"failed": failed, "metrics": table}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
