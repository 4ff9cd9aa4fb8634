"""Time cocycles past the catalog, one rung per algebra dimension.

    python3 tools/ladder.py [--src DIR] [--dims 200,400,800,1600]
        [--runs 3] [--out ladder.json]

A chain rung, one per --dims entry, takes the chain cocycle
sum_i [i, i+1, i+2] on n = dim/2 base vectors, which has O(n) terms; a
dense rung, one per DENSE_DIMS entry, takes the seeded random cocycle of
density 1/2 on n base vectors (randgen.random_coeffs, seed DENSE_SEED),
which has about C(n, 3)/2. Each rung runs tstar_extend, nilindex and
is_reduced on its cocycle in a fresh interpreter that imports quadlie
from DIR (default: this checkout's src/), so that each rung's peak
resident memory is its own. A rung is run --runs times; the report gives,
per rung, the median seconds of each step and of the three together
(wall_s, import excluded), the largest peak RSS, and the ratio of each
rung's median to the one before it of the same kind. The peak RSS is
read after the three steps; then each rung times trivector_rank on a
fresh trivector copy of its cocycle as rank_s, outside wall_s and the
peak, and checks that the rank is n. No target is asserted.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DENSE_DIMS = (40, 80, 120, 160)
DENSE_SEED = 1

RUNG = f"DENSE_SEED = {DENSE_SEED}\n" + """
import json, resource, sys, time
from fractions import Fraction
from quadlie import CocycleCoeffs, delta, trivector_rank, tstar_extend
from quadlie.randgen import random_coeffs
kind, n = sys.argv[1], int(sys.argv[2]) // 2
if kind == "chain":
    c = CocycleCoeffs(n, {(i, i + 1, i + 2): 1 for i in range(1, n - 1)})
else:
    c = random_coeffs(n, seed=DENSE_SEED, density=Fraction(1, 2))
t0 = time.perf_counter()
q = tstar_extend(c)
t1 = time.perf_counter()
nilindex = q.alg.nilindex()
t2 = time.perf_counter()
reduced = q.alg.is_reduced()
t3 = time.perf_counter()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
t = delta(c)  # a fresh copy: nothing tstar_extend cached on c is reused
t4 = time.perf_counter()
rank = trivector_rank(t)
t5 = time.perf_counter()
if (nilindex, reduced, rank) != (2, True, n):
    sys.exit(f"dim {2 * n}: nilindex {nilindex}, reduced {reduced}, "
             f"rank {rank}")
print(json.dumps({"tstar_extend_s": t1 - t0, "nilindex_s": t2 - t1,
                  "is_reduced_s": t3 - t2, "wall_s": t3 - t0,
                  "rank_s": t5 - t4, "peak_rss_mb": peak}))
"""


def rung(src: str, kind: str, dim: int) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", RUNG, kind, str(dim)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--dims", default="200,400,800,1600")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    rungs = []
    chain_dims = tuple(map(int, args.dims.split(",")))
    for kind, kind_dims in (("chain", chain_dims), ("dense", DENSE_DIMS)):
        prev = None
        for dim in kind_dims:
            runs = [rung(args.src, kind, dim) for _ in range(args.runs)]
            row = {"kind": kind, "dim": dim}
            for key in ("tstar_extend_s", "nilindex_s", "is_reduced_s",
                        "wall_s", "rank_s"):
                row[key] = statistics.median(r[key] for r in runs)
            row["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
            row["wall_values"] = [r["wall_s"] for r in runs]
            if prev:
                row["growth"] = row["wall_s"] / prev["wall_s"]
            rungs.append(prev := row)
            print(f"{kind} dim {dim:>5}: {row['wall_s']:.3f} s "
                  f"(tstar_extend {row['tstar_extend_s']:.3f}, nilindex "
                  f"{row['nilindex_s']:.3f}, is_reduced "
                  f"{row['is_reduced_s']:.3f}), rank "
                  f"{row['rank_s']:.3f} s, peak "
                  f"{row['peak_rss_mb']:.1f} MiB"
                  + (f", x{row['growth']:.2f} over the rung before"
                     if "growth" in row else ""))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"python": sys.version.split()[0], "src": args.src,
                       "runs": args.runs, "dense_seed": DENSE_SEED,
                       "rungs": rungs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
