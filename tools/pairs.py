"""Run one benchmark workload in alternated pairs: a git revision against
the working tree.

    python3 tools/pairs.py --rev HEAD --workload roads-corpus --seed 2626
        [--seconds 20] [--pairs 10] [--out claim.json]

The revision is unpacked with `git archive <rev>` into a temporary
directory. Each pair runs `benchmarks/run.py --workload W --seed S
--seconds T --trace 0` once in that copy (the parent) and once in this
checkout (the change), each from its own tree, one after the other; the
parent runs first in odd pairs and the change in even ones. A run that
exits nonzero, fails a case or reports a wrong output stops the tool with
a nonzero exit, since run.py itself exits 0 then, and a claim must not be
built from wrong outputs.

The output is the `claim` block of a BENCH_<n>.json for the workload's
cases_per_s: per pair the seed, which side ran first, both sides'
cases_per_s, their failed case counts and whether their outputs were
correct; then the pairs in which the change ran more cases per second
(ties count for neither side), each side's median and quartiles
(`statistics.quantiles(values, n=4)`, as benchmarks/sweep.py takes them),
the gain, the parent's interquartile range, the median difference, and
every other end-to-end metric's values per side. Each end-to-end metric,
cases_per_s and every other one, gets a verdict against its `better` and
`bound` in BENCHMARK.json: `worse` when the change's median is worse than
the parent's by more than the bound (relative to the parent's median),
`unresolved` when the parent's interquartile range over its median is
wider than the bound, unless every change run beats every parent run, and
`within` otherwise. The block is printed, with the verdicts on stderr, and
written to --out when given.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC = "cases_per_s"


def unpack(rev: str, dest: str) -> str:
    """Extract the tree of rev into dest; return rev's full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: str) -> dict:
    """One run.py run in tree; its last stdout line, parsed."""
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "benchmarks", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", seconds,
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run.py failed in {tree} (exit {out.returncode})")
    return checked(json.loads(out.stdout.strip().splitlines()[-1]), tree)


def checked(res: dict, where: str) -> dict:
    """res, or a stop when its run failed a case or an output was wrong."""
    if res["failed"] or not res["correct"]:
        raise SystemExit(f"run.py in {where} failed {res['failed']} cases, "
                         f"correct: {res['correct']}; no claim is made")
    return res


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3}


def end_to_end() -> dict[str, tuple[str, float]]:
    """BENCHMARK.json's end-to-end metrics: name -> (better, bound)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"])
                for m in json.load(fh)["end_to_end"]}


def verdict(par: list[float], chg: list[float], better: str,
            bound: float) -> str:
    """within, worse or unresolved, for a metric whose `better` is
    "higher" or "lower", from the parent's and the change's runs."""
    sign = 1 if better == "higher" else -1
    if min(sign * c for c in chg) > max(sign * p for p in par):
        return "within"  # every change run beats every parent run
    ps = spread(par)
    scale = bound * abs(ps["median"])
    if ps["q3"] - ps["q1"] > scale:
        return "unresolved"
    worse_by = sign * (ps["median"] - statistics.median(chg))
    return "worse" if worse_by > scale else "within"


def value(res: dict, name: str) -> float:
    return res["metrics"][name]["value"]


def claim(runs: list[tuple[str, dict, dict]], workload: str, seed: int,
          command: str) -> dict:
    """The claim block from (first, parent result, change result) pairs;
    a run that failed a case or gave a wrong output stops it."""
    for _, p, c in runs:
        checked(p, "the parent")
        checked(c, "the change")
    pairs = [{"seed": seed, "first": first, "parent": value(p, METRIC),
              "change": value(c, METRIC),
              "failed": [p["failed"], c["failed"]],
              "correct": [p["correct"], c["correct"]]}
             for first, p, c in runs]
    par = [x["parent"] for x in pairs]
    chg = [x["change"] for x in pairs]
    ps, cs = spread(par), spread(chg)
    bounds = end_to_end()
    others = {}
    for name in runs[0][1]["metrics"]:
        if name != METRIC:
            vals = [[value(r[k], name) for r in runs] for k in (1, 2)]
            others[name] = {side: {**spread(v), "values": v}
                            for side, v in zip(("parent", "change"), vals)}
            others[name]["verdict"] = verdict(*vals, *bounds[name])
    return {"metric": f"{workload} {METRIC}", "command": command,
            "pairs": pairs, "wins": sum(c > p for p, c in zip(par, chg)),
            "parent": ps, "change": cs,
            "gain": cs["median"] / ps["median"] - 1,
            "parent_iqr": ps["q3"] - ps["q1"],
            "median_difference": cs["median"] - ps["median"],
            "verdict": verdict(par, chg, *bounds[METRIC]),
            "other_metrics": others}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--rev", required=True, help="the parent revision")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", default="20")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as parent:
        commit = unpack(args.rev, parent)
        for k in range(args.pairs):
            first = "parent" if k % 2 == 0 else "change"
            order = [("parent", parent), ("change", ROOT)]
            res = {}
            for side, tree in (order if first == "parent" else order[::-1]):
                res[side] = run_once(tree, args.workload, args.seed,
                                     args.seconds)
            runs.append((first, res["parent"], res["change"]))
            print(f"pair {k + 1}/{args.pairs} ({first} first): parent "
                  f"{value(res['parent'], METRIC):.6g}, change "
                  f"{value(res['change'], METRIC):.6g}", file=sys.stderr)
    command = (f"python3 benchmarks/run.py --workload {args.workload} --seed "
               f"{args.seed} --seconds {args.seconds} --trace 0 in {args.pairs}"
               f" pairs by tools/pairs.py: the parent {commit} unpacked with "
               f"git archive against the working tree, one run of each per "
               f"pair, alternating which runs first")
    block = claim(runs, args.workload, args.seed, command)
    verdicts = {METRIC: block["verdict"], **{
        name: m["verdict"] for name, m in block["other_metrics"].items()}}
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in verdicts.items()),
          file=sys.stderr)
    text = json.dumps(block, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
