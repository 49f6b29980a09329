"""One workload in one fresh process, measured by a single closed-loop client.

    python3 bench/worker.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 bench/worker.py --workload suite --first-op '{"kind": "suite", "seed": 5}'

`bench/run.py` starts this with PYTHONPATH pointing at `src` and the BLAS
thread count pinned; it prints one JSON line.  With --first-op it runs only
that op and prints "done", which is how set-up time is taken from a fresh
interpreter.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

from workloads import WORKLOADS, Op, Runner, make_pool

TAIL_CAP = 99.0  # percentile; the tail is never reported above it
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, up to TAIL_CAP, with at
    least TAIL_BEYOND samples beyond it (nearest-rank)."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(1, min(math.ceil(TAIL_CAP / 100 * n), n - TAIL_BEYOND))
    pct = TAIL_CAP if rank == math.ceil(TAIL_CAP / 100 * n) else 100.0 * rank / n
    return pct, xs[rank - 1]


class Loop:
    """Runs pool ops in order, checking each output and its digest."""

    def __init__(self, workload: str, seed: int):
        self.pool = make_pool(workload, seed)
        self.runner = Runner(workload)
        # untimed warm-up: one suite op, or one pass over the scenario pool
        self.warmup = len(self.pool) if workload == "scenarios" else 1
        self.root = "suite.run_suite" if workload != "scenarios" else None
        self.digests: dict[int, str] = {}
        self.repeats = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, i: int, tracer=None) -> float:
        """Run pool op i (mod the pool size); returns its latency in seconds."""
        k = i % len(self.pool)
        op = self.pool[k]
        self.attempted += 1
        span = tracer.op(self.root or f"cli.main.{op.kind}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = self.runner.call(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failures.append(f"op {k} raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        outcome = self.runner.check(op, result)
        if not outcome.ok:
            self.failures.append(f"op {k}: {outcome.why}")
        elif k in self.digests:
            self.repeats += 1
            if self.digests[k] != outcome.digest:
                self.failures.append(f"op {k}: output digest changed on repeat")
        else:
            self.digests[k] = outcome.digest
        return dt


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def measure(loop: Loop, seconds: float) -> dict:
    """Untraced closed loop for `seconds`: end-to-end figures."""
    for i in range(loop.warmup):
        loop.run(i)
    latencies = []
    i = loop.warmup
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        latencies.append(loop.run(i))
        i += 1
    elapsed = time.perf_counter() - start
    pct, value = tail(latencies)
    return {
        "ops_per_s": len(latencies) / elapsed,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * value,
        "tail_percentile": pct,
        "samples": len(latencies),
        "window_s": elapsed,
    }


def measure_traced(loop: Loop, seconds: float, spans_path: str | None) -> dict:
    """Pairs of whole passes over the pool, one untraced and one traced, for
    as long as another pair still fits in `seconds` (at least one pair)."""
    from spans import Tracer

    tracer = Tracer()
    for i in range(loop.warmup):
        loop.run(i)
    plain = traced = 0.0
    start = time.perf_counter()
    pair_s = 0.0
    while traced == 0.0 or time.perf_counter() - start + pair_s <= seconds:
        t0 = time.perf_counter()
        plain += sum(loop.run(i) for i in range(len(loop.pool)))
        with tracer.installed():
            traced += sum(loop.run(i, tracer) for i in range(len(loop.pool)))
        pair_s = time.perf_counter() - t0
    metrics = tracer.metrics(overhead_ratio=plain / traced)
    if spans_path:
        tracer.write(spans_path)
    return {"metrics": metrics, "traced_ops": tracer.ops, "spans": len(tracer.start)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="gzip JSON-lines file for the traced spans")
    ap.add_argument("--first-op", default=None, help="run this one op (JSON of an Op) and exit")
    args = ap.parse_args(argv)

    if args.first_op is not None:
        op = Op(**json.loads(args.first_op))
        runner = Runner(args.workload)
        result = runner.call(op)
        print("done", flush=True)
        return 0 if runner.check(op, result).ok else 1

    loop = Loop(args.workload, args.seed)
    if args.trace:
        out = measure_traced(loop, args.seconds, args.spans)
    else:
        out = measure(loop, args.seconds)
    out.update(
        attempted=loop.attempted,
        failed=len(loop.failures),
        failures=loop.failures[:5],
        distinct_inputs=len(loop.digests),
        repeats_checked=loop.repeats,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
