"""One workload in one fresh, single-threaded interpreter.

Started by run.py, which passes a scratch directory. It imports quadlie
from the checkout's `src/`, builds the workload's inputs from the seed,
prints `READY` and then `PROBE <seconds>` (the speed probe run right
after set-up, to scale the set-up time), then runs the case list in whole passes, closed loop (one
case at a time, the next after the previous returns): at least MIN_PASSES,
and more while they fit in `--seconds`. Its last line is `RESULT <json>`
with every case run as (pass, case index, dimension, seconds, correct,
mean speed probe seconds over it).

With `--trace 1` it first runs one untraced pass (pass -1), then installs
the span wrappers, runs traced passes and adds the per-layer table. With
`--setup-only` it stops after `READY`.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import quadlie  # noqa: E402  (counted in set-up time on purpose)

if not os.path.abspath(quadlie.__file__).startswith(SRC + os.sep):
    sys.exit(f"quadlie imported from {quadlie.__file__}, not from {SRC}")

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A case's latency is the median of its runs, which are spread across the
# window; three is the fewest that gives a median.
MIN_PASSES = 3


def run_pass(cases, samples, failures, pass_no):
    """Run every case once, each timed with its speed probes."""
    meter = speed.Meter()
    for idx, case in enumerate(cases):
        meter.start()
        try:
            out = case.run()
        except Exception as e:  # a rejected valid input is a failed case
            out, why = None, f"raised {type(e).__name__}: {e}"
        else:
            why = None
        finally:
            dt, probe_s = meter.stop()
        if why is None:
            try:
                why = case.check(out)
            except Exception as e:
                why = f"check raised {type(e).__name__}: {e}"
        samples.append((pass_no, idx, case.dim, dt, why is None, probe_s))
        if why is not None:
            failures.append(f"{case.label}: {why}")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    rng = random.Random(f"{args.workload}:{args.seed}")
    cases = workloads.WORKLOADS[args.workload](rng, args.workdir)
    print("READY", flush=True)
    print(f"PROBE {statistics.median(speed.probe() for _ in range(5))}",
          flush=True)
    if args.setup_only:
        return 0

    samples, failures = [], []
    if args.trace:
        run_pass(cases, samples, failures, -1)
        tracer = tracing.Tracer()
        tracer.install()
    # Whole passes only, so every case runs equally often; another pass
    # starts only if it should end within --seconds, after a minimum count.
    min_passes = 1 if args.trace else MIN_PASSES
    passes = 0
    start = time.perf_counter()
    while True:
        run_pass(cases, samples, failures, passes)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed + elapsed / passes > args.seconds:
            break
    result = {"passes": passes, "samples": samples,
              "failures": failures[:20],
              "peak_rss_kb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if args.trace:
        result["layers"] = tracer.metrics(passes)
        if args.spans:
            tracer.write_spans(args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
