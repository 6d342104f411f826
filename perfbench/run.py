#!/usr/bin/env python3
"""Seeded benchmark for ratgrowth: point counting and determinant-method
covering over Q and F_q(t).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload count-Q --seed 1 --seconds 35 --trace 0

runs the workload's operations in rounds, one after another in this one
process (a closed loop with a single client), for --seconds; checks every
output against an independent computation; and prints, as the last line
of stdout, one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1).  A per-operation table goes to stderr.

Steadiness, from the same place:

    python3 perfbench/run.py --steady --runs 10 --seconds 35

runs every workload once per seed 1..runs in fresh processes and prints
the median, quartiles and quartile spread of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import reference  # the benchmark's own arithmetic; never imports ratgrowth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("count-Q", "cover-Q", "funcfield")
SETUP_PROBES = 5  # fresh processes that time the set-up
MIN_ROUNDS = 3

END_TO_END = {"wall_s": "s", "max_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Time metrics are scaled to the machine speed at which speed_probe()
# takes this long (its median on the machine the benchmark was built on).
PROBE_REFERENCE_S = 0.020
PROBE_CUBIC_Q = [((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), -2), ((1, 1, 1), 1)]
PROBE_CUBIC_F3 = [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1, 1)), ((1, 1, 1), (1,))]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def prepare() -> None:
    """Make ratgrowth importable from this checkout's sources, single-threaded."""
    if not (SRC / "ratgrowth" / "__init__.py").is_file():
        fail(f"no ratgrowth sources under {SRC}; run from a checkout of the repository")
    os.environ.pop("RATGROWTH_THREADS", None)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    warnings.simplefilter("ignore")


def set_up(workload: str, seed: int):
    """Import ratgrowth and build the workload's inputs; returns (ops, seconds)."""
    start = time.perf_counter()
    import workloads

    ops = workloads.build(workload, seed)
    return ops, time.perf_counter() - start


def speed_probe() -> float:
    """Time a fixed sample of the three workloads' kinds of work, done by
    the benchmark's own reference code, which never calls ratgrowth: a box
    scan of a cubic over Z, one over F_3[t] on coefficient tuples, and
    Gauss-Jordan elimination over Fraction."""
    start = time.perf_counter()
    reference.brute_points_q(PROBE_CUBIC_Q, 5)
    reference.brute_points_fq(PROBE_CUBIC_F3, 3, 3)
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(12)] for i in range(10)]
    for col in range(10):
        pivot = rows[col][col] or Fraction(1)
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(10):
            if r != col:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return time.perf_counter() - start


def run_round(ops, call=None, probes=None):
    """Run every operation once; returns (seconds per op, outcome per op).
    Given a `probes` list, a speed probe runs before each operation."""
    times, outcomes = [], []
    for op in ops:
        if probes is not None:
            probes.append(speed_probe())
        start = time.perf_counter()
        try:
            outcome = (call(op) if call else op.call(), None)
        except Exception as exc:  # an operation that fails is counted, not fatal
            outcome = (None, exc)
        times.append(time.perf_counter() - start)
        outcomes.append(outcome)
    return times, outcomes


class Ledger:
    """Attempted and failed operations, and whether every output checked out."""

    def __init__(self, ops):
        self.ops = ops
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, outcomes) -> None:
        """Check one round's outputs outside the timed region.  The first
        round is checked against the independent computations; later rounds
        must reproduce its outputs exactly."""
        from workloads import Mismatch

        digests = []
        for op, (result, exc) in zip(self.ops, outcomes):
            self.attempted += 1
            if exc is None:
                try:
                    if self.first_digests is None:
                        op.check(result)
                    digest = op.digest(result)
                    if self.first_digests is not None and digest != self.first_digests[len(digests)]:
                        raise Mismatch("output differs from the first round's")
                except Mismatch as mismatch:
                    exc = mismatch
                    if op.fault is None:
                        self.correct = False
            if exc is not None:
                self.failed += 1
                digest = ("failed", type(exc).__name__)
            if exc is not None and self.first_digests is None:
                print(f"perfbench: {op.name}: {type(exc).__name__}: {exc}"
                      + (f" [known fault: {op.fault}]" if op.fault else ""), file=sys.stderr)
            digests.append(digest)
        if self.first_digests is None:
            self.first_digests = digests


def scaled_setup(workload: str, seed: int) -> float:
    """Set up once in this fresh process, scaled by speed probes run right
    after it."""
    _, seconds = set_up(workload, seed)
    probes = [speed_probe() for _ in range(5)]
    return seconds * PROBE_REFERENCE_S / statistics.median(probes)


def probe_setup(workload: str, seed: int) -> list[float]:
    """Scaled set-up times of SETUP_PROBES fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def report_ops(ops, per_op) -> None:
    for op, samples in zip(ops, per_op):
        tag = "  (known fault)" if op.fault else ""
        print(f"  {op.name:32s} {statistics.median(samples):9.4f} s{tag}", file=sys.stderr)


def measure(ops, ledger, seconds: float) -> tuple[list[list[float]], list[float]]:
    """Round after round until the next would overrun `seconds`; returns
    the per-op times of each round and the speed probe times."""
    start = time.perf_counter()
    rounds, probes = [], []
    while True:
        round_start = time.perf_counter()
        times, outcomes = run_round(ops, probes=probes)
        round_s = time.perf_counter() - round_start
        ledger.record(outcomes)
        rounds.append(times)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + round_s > seconds:
            return rounds, probes


def untraced_run(workload, seed, seconds) -> dict:
    ops, _ = set_up(workload, seed)
    ledger = Ledger(ops)
    rounds, probes = measure(ops, ledger, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = probe_setup(workload, seed)
    scale = PROBE_REFERENCE_S / statistics.median(probes)
    per_op = [list(col) for col in zip(*rounds)]
    print(f"perfbench: {workload} seed {seed}: {len(rounds)} rounds; raw medians below, "
          f"speed scale {scale:.4f}", file=sys.stderr)
    report_ops(ops, per_op)
    op_medians = [statistics.median(col) for col in per_op]
    values = {
        "wall_s": sum(op_medians) * scale,
        "max_op_s": max(op_medians) * scale,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def traced_run(workload, seed, seconds) -> dict:
    """A warm-up round, then untraced and traced rounds in turn; the
    per-layer figures are medians over the traced rounds."""
    from tracer import Tracer, is_time

    ops, _ = set_up(workload, seed)
    ledger = Ledger(ops)
    start = time.perf_counter()
    ledger.record(run_round(ops)[1])
    plain, traced, per_round, last = [], [], [], None
    while not traced or time.perf_counter() - start + sum(plain[-1:] + traced[-1:]) <= seconds:
        times, outcomes = run_round(ops)
        ledger.record(outcomes)
        plain.append(sum(times))
        tracer = Tracer()
        tracer.install()
        try:
            times, outcomes = run_round(ops, call=lambda op: tracer.root(op.name, op.call))
        finally:
            tracer.uninstall()
        ledger.record(outcomes)
        traced.append(sum(times))
        per_round.append(tracer.metrics())
        last = tracer
    names = list(per_round[0])
    values = {n: statistics.median(m[n] for m in per_round) for n in names}
    unsteady = [n for n in names if not is_time(n) and len({m[n] for m in per_round}) > 1]
    if unsteady:
        print(f"perfbench: counts differ between traced rounds: {unsteady}", file=sys.stderr)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload, "seed": seed, "rounds": len(traced),
        "totals": {n: dict(zip(("calls", "s", "self_s"), t)) for n, t in last.totals.items()},
        "spans": last.spans,
    }))
    print(f"perfbench: {len(traced)} traced rounds, spans of the last in {trace_file}", file=sys.stderr)
    layer = {n: {"value": v, "unit": "s" if is_time(n) else "count"} for n, v in sorted(values.items())}
    return {"correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": layer}


def steady(runs: int, seconds: float, workloads) -> dict:
    """Each workload once per seed 1..runs, in fresh processes."""
    summary = {}
    for workload in workloads:
        results = []
        for seed in range(1, runs + 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600, check=True,
            )
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        stats = {}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted({str(Fraction(r["failed"], r["attempted"])) for r in results}),
            "metrics": stats,
        }
        for name, s in stats.items():
            print(f"{workload:10s} {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true", help="repeat each workload over seeds")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload for --steady")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    if args.steady:
        print(json.dumps(steady(args.runs, args.seconds, [args.workload] if args.workload else WORKLOADS)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        print(scaled_setup(args.workload, args.seed))
        return 0
    run = traced_run if args.trace else untraced_run
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
