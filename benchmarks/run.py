"""Run one quadlie benchmark workload and print its metrics.

From the root of a checkout:

    python3 benchmarks/run.py --workload roads-corpus --seed 1 \
        --seconds 20 --trace 0

The workload runs in a fresh single-threaded interpreter (worker.py) that
imports quadlie from `src/`, so memory and set-up time belong to one
workload. Every case runs once in each of k >= 3 passes spread over the
window. Each case's time is scaled to reference machine speed (see
speed.py), and its latency is the median of its k scaled runs. With
`--trace 0` the run reports the end-to-end metrics:

  setup_s      median time from launching a fresh interpreter until its
               inputs are built (covers `import quadlie`), over SETUPS
               launches, scaled by the probe the worker runs right after
  cases_per_s  N cases / the sum of their latencies
  case_p50_ms  median case latency
  case_p90_ms  90th percentile case latency (every workload has >= 100
               cases, so at least 10 lie beyond it)
  top_rung_s   summed latency of the cases of the largest dimension
  peak_rss_mb  peak resident memory of the worker

With `--trace 1` it reports the per-layer metrics of tracing.py instead,
per pass, plus the tracing overhead, and writes every span to .bench_out/.
Every case's output is checked in both modes. Each metric is printed with
its unit and sample count; the last line is one JSON object for machines.
The exit code is 0 when the run completed, whether or not its checks
passed (`correct`).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "benchmarks", "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SPANS_DIR = os.path.join(ROOT, ".bench_out")
# The keys of workloads.WORKLOADS, named here so that this process never
# imports quadlie.
WORKLOADS = ("roads-corpus", "catalog-verify", "scale-ladder",
             "extension-derivations")
SETUPS = 11
TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("QUADLIE_FORMAT", None)  # would override --format json
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A started worker that has printed READY. A timer kills it at the
    run's deadline, so no read or wait blocks past the time limit."""

    def __init__(self, argv, workdir, deadline):
        os.makedirs(workdir)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, *argv, "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_worker_env())
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0),
                                     self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        probe = self.proc.stdout.readline()
        if line.strip() != "READY" or not probe.startswith("PROBE "):
            self.close(kill=True)
            raise BenchError(f"worker did not start "
                             f"(exit {self.proc.returncode})")
        self.setup_s = speed.scaled(elapsed, float(probe.split()[1]))

    def result(self) -> dict:
        result = None
        for line in self.proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        self.proc.wait()
        if self.proc.returncode != 0 or result is None:
            raise BenchError(f"worker exited {self.proc.returncode} "
                             f"without a result")
        return result

    def close(self, kill=False):
        if kill and self.proc.poll() is None:
            self.proc.kill()
        self.proc.stdout.close()
        self.proc.wait()
        self.timer.cancel()


def measure(args, workdir) -> tuple[dict, list[float]]:
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for k in range(SETUPS - 1):
            w = Worker(common + ["--seconds", "0", "--setup-only"],
                       os.path.join(workdir, f"setup{k}"), deadline)
            w.close()
            if w.proc.returncode != 0:
                raise BenchError(f"set-up run exited {w.proc.returncode}")
            setups.append(w.setup_s)
    argv = common + ["--seconds", str(args.seconds),
                     "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        argv += ["--spans", os.path.join(
            SPANS_DIR, f"spans-{args.workload}-{args.seed}.tsv.gz")]
    w = Worker(argv, os.path.join(workdir, "run"), deadline)
    setups.append(w.setup_s)
    try:
        return w.result(), setups
    finally:
        w.close(kill=True)


def case_latencies(samples, passes) -> dict:
    """{case index: (dimension, median scaled latency)} over the given
    passes."""
    runs, dims = {}, {}
    for pass_no, idx, dim, dt, _, probe_s in samples:
        if pass_no in passes:
            runs.setdefault(idx, []).append(speed.scaled(dt, probe_s))
            dims[idx] = dim
    return {i: (dims[i], statistics.median(v)) for i, v in runs.items()}


def end_to_end(result: dict, setups: list[float]) -> list[tuple]:
    """(name, value, unit, sample note) for every end-to-end metric."""
    k = result["passes"]
    cases = case_latencies(result["samples"], range(k))
    lat = [t for _, t in cases.values()]
    top = max(d for d, _ in cases.values())
    top_lat = [t for d, t in cases.values() if d == top]
    p90 = statistics.quantiles(lat, n=10)[-1]
    beyond = sum(1 for x in lat if x > p90)
    each = f"{len(lat)} cases, median of {k} runs each"
    return [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} fresh interpreters"),
        ("cases_per_s", len(lat) / sum(lat), "1/s", each),
        ("case_p50_ms", statistics.median(lat) * 1e3, "ms", each),
        ("case_p90_ms", p90 * 1e3, "ms", f"{each}, {beyond} beyond it"),
        ("top_rung_s", sum(top_lat), "s",
         f"{len(top_lat)} cases of dim {top}, median of {k} runs each"),
        ("peak_rss_mb", result["peak_rss_kb"] / 1024, "MiB",
         "worker process"),
    ]


def trace_overhead(result: dict) -> float:
    """Scaled time of a traced pass over that of the untraced pass."""
    def total(passes):
        return sum(t for _, t in case_latencies(result["samples"],
                                                passes).values())
    return total(range(result["passes"])) / total([-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "quadlie",
                                       "__init__.py")):
        print("benchmark: src/quadlie is missing from this checkout",
              file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result, setups = measure(args, workdir)
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it

    attempted = len(result["samples"])
    failed = sum(1 for _, _, _, _, good, _ in result["samples"] if not good)
    print(f"{args.workload} seed {args.seed}: {attempted} cases run in "
          f"{result['passes']} timed passes, {failed} failed "
          f"(fail_frac {failed / attempted})")
    for why in result["failures"]:
        print(f"  FAIL {why}")
    metrics = {}
    if args.trace:
        result["layers"]["trace.wall_ratio"] = trace_overhead(result)
        for name, unit in tracing.metric_units().items():
            value = result["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<42} {value:<14.6g} {unit}  (per pass)")
    else:
        for name, value, unit, note in end_to_end(result, setups):
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<12} {value:<12.6g} {unit:<4} ({note})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
