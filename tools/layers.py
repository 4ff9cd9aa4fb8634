"""Count the eliminations of one benchmark workload pass: the calls of the
integer elimination core `linalg._eliminate` and their seconds, by caller
chain and by shape.

    python3 tools/layers.py --workload extension-derivations --seed 11
        [--tree DIR] [--out layers.json]

The case list is built by benchmarks/workloads.py from the seed, as the
benchmark worker builds it, with quadlie imported from the tree's `src/`
(by default this checkout's; point --tree at an unpacked parent commit to
count its eliminations). One pass runs unrecorded to warm up, then one
pass runs with every binding of `linalg._eliminate` in the loaded quadlie
modules wrapped, so that the eliminations of `rref`, `rank`, `kernel`,
`inverse`, `solve` and the spans are all counted. Outputs are not
checked, since benchmarks/run.py does that.

A call's caller chain is the quadlie functions on the stack above it,
outermost first, as `module.qualname` joined by " > ", for example
`doubleext.derivation_space > linalg.inverse`. The JSON written holds:
- `eliminate`: the calls and seconds of the pass;
- `by_caller`: calls and seconds per chain;
- `by_function`: calls and seconds of the eliminations each quadlie
  function is on the chain of, itself included;
- `by_shape`: calls and seconds per "rows x cols".
Each table is sorted by seconds, largest first. Nothing under `src/`
changes, so the tool costs nothing unless it runs.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _chain(frame) -> str:
    """The quadlie frames from frame outward, outermost first; a call from
    outside the package reads "(outside quadlie)"."""
    names = []
    while frame is not None:
        mod = frame.f_globals.get("__name__", "")
        if mod != "quadlie" and not mod.startswith("quadlie."):
            break
        names.append(f"{mod.removeprefix('quadlie.')}."
                     f"{frame.f_code.co_qualname}")
        frame = frame.f_back
    return " > ".join(reversed(names)) or "(outside quadlie)"


def _add(table: dict, key: str, dt: float) -> None:
    row = table.setdefault(key, {"calls": 0, "seconds": 0.0})
    row["calls"] += 1
    row["seconds"] += dt


def _by_seconds(table: dict) -> dict:
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["seconds"]))


def record(cases) -> dict:
    """Run each case once with `_eliminate` wrapped; the tables of the
    module docstring. Every binding is restored afterwards."""
    from quadlie import linalg
    orig = linalg._eliminate
    by_caller: dict = {}
    by_shape: dict = {}
    clock = time.perf_counter

    def eliminate(m):
        t0 = clock()
        try:
            return orig(m)
        finally:
            dt = clock() - t0
            _add(by_caller, _chain(sys._getframe(1)), dt)
            _add(by_shape, f"{m.rows}x{m.cols}", dt)

    mods = [m for name, m in list(sys.modules.items())
            if name == "quadlie" or name.startswith("quadlie.")]
    bound = [(m, key) for m in mods for key, val in vars(m).items()
             if val is orig]
    for m, key in bound:
        setattr(m, key, eliminate)
    try:
        for case in cases:
            case.run()
    finally:
        for m, key in bound:
            setattr(m, key, orig)
    by_function: dict = {}
    for chain, row in by_caller.items():
        for name in dict.fromkeys(chain.split(" > ")):
            f = by_function.setdefault(name, {"calls": 0, "seconds": 0.0})
            f["calls"] += row["calls"]
            f["seconds"] += row["seconds"]
    rows = by_caller.values()
    return {"eliminate": {"calls": sum(r["calls"] for r in rows),
                          "seconds": sum(r["seconds"] for r in rows)},
            "by_caller": _by_seconds(by_caller),
            "by_function": _by_seconds(by_function),
            "by_shape": _by_seconds(by_shape)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tree", default=ROOT,
                   help="the checkout whose src/ and benchmarks/ run")
    p.add_argument("--out", default=None)
    args = p.parse_args()

    tree = os.path.abspath(args.tree)
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "benchmarks")]
    import quadlie
    if not os.path.abspath(quadlie.__file__).startswith(src + os.sep):
        sys.exit(f"quadlie imported from {quadlie.__file__}, not from {src}")
    import workloads

    with tempfile.TemporaryDirectory(prefix="layers-") as workdir:
        rng = random.Random(f"{args.workload}:{args.seed}")
        cases = workloads.WORKLOADS[args.workload](rng, workdir)
        for case in cases:
            case.run()
        out = {"workload": args.workload, "seed": args.seed,
               "cases": len(cases), **record(cases)}
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
