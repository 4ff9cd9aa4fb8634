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

Each step also reports, as medians, the growth of the objects the cyclic
garbage collector tracks (`<step>_objects`, from len(gc.get_objects())
before and after it) and the generation-2 collections it ran
(`<step>_gen2`, from gc.get_stats()); the steps are tstar_extend,
nilindex, is_reduced and rank. The counts are taken between the timed
intervals, so they add to no step's seconds, but their lists of objects
are inside the peak.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DENSE_DIMS = (40, 80, 120, 160, 200, 240)
DENSE_SEED = 1
STEPS = ("tstar_extend", "nilindex", "is_reduced", "rank")

RUNG = f"DENSE_SEED = {DENSE_SEED}\n" + """
import gc, json, resource, sys, time
from fractions import Fraction
from quadlie import AltCoeffs, CocycleCoeffs, trivector_rank, tstar_extend
from quadlie.randgen import random_coeffs
kind, n = sys.argv[1], int(sys.argv[2]) // 2
if kind == "chain":
    c = CocycleCoeffs(n, {(i, i + 1, i + 2): 1 for i in range(1, n - 1)})
else:
    c = random_coeffs(n, seed=DENSE_SEED, density=Fraction(1, 2))
out = {}

def step(name, fn):
    objects, gen2 = len(gc.get_objects()), gc.get_stats()[2]["collections"]
    t0 = time.perf_counter()
    got = fn()
    out[name + "_s"] = time.perf_counter() - t0
    out[name + "_objects"] = len(gc.get_objects()) - objects
    out[name + "_gen2"] = gc.get_stats()[2]["collections"] - gen2
    return got

q = step("tstar_extend", lambda: tstar_extend(c))
nilindex = step("nilindex", q.alg.nilindex)
reduced = step("is_reduced", q.alg.is_reduced)
out["wall_s"] = (out["tstar_extend_s"] + out["nilindex_s"]
                 + out["is_reduced_s"])
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
t = AltCoeffs(c.n, c.terms)  # a fresh copy: nothing cached on c is reused
rank = step("rank", lambda: trivector_rank(t))
if (nilindex, reduced, rank) != (2, True, n):
    sys.exit(f"dim {2 * n}: nilindex {nilindex}, reduced {reduced}, "
             f"rank {rank}")
print(json.dumps(out))
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
            keys = [f"{s}_{k}" for k in ("s", "objects", "gen2")
                    for s in STEPS] + ["wall_s"]
            for key in keys:
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
                  f"{row['peak_rss_mb']:.1f} MiB, objects "
                  + "/".join(f"{row[f'{s}_objects']:+.0f}" for s in STEPS)
                  + ", gen-2 "
                  + "/".join(f"{row[f'{s}_gen2']:.0f}" for s in STEPS)
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
