"""nordenhyp benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload scenarios --seed 1 --seconds 25 --trace 1

Run from the root of a source checkout.  Set-up time is the median over
fresh interpreters of the time to the first completed op; the other
end-to-end figures come from one fresh worker process (`worker.py`) running
a closed loop with one client.  `--trace 1` instead reports the per-layer
figures of a traced run.  The last line of standard output is the result;
the lines before it name every metric with its unit.  Full results and
traced spans are written under `.bench_out/`.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_STARTS = 3
BLAS_THREADS = "1"  # one client on matrices of side <= 10: a second BLAS thread only adds noise
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from its own .git; "unknown" outside a repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def time_to_first_op(workload: str, op_json: str, env: dict) -> float:
    """Seconds from starting a fresh interpreter to its first completed op."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--first-op", op_json]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "done" or code != 0:
        raise RuntimeError(f"first-op probe failed (exit {code})")
    return elapsed


def measure_setup(workload: str, seed: int, env: dict) -> list[float]:
    from dataclasses import asdict

    from workloads import first_op

    op_json = json.dumps(asdict(first_op(workload, seed)))
    # untimed start: compiles bytecode and warms the file cache
    subprocess.run([sys.executable, "-c", "import nordenhyp.cli"], env=env, cwd=ROOT, check=True, timeout=60)
    return [time_to_first_op(workload, op_json, env) for _ in range(SETUP_STARTS)]


def run_worker(args, env: dict) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")]
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"worker exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nordenhyp" / "__init__.py").is_file():
        print(f"error: no nordenhyp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    OUT.mkdir(exist_ok=True)

    setup = [] if args.trace else measure_setup(args.workload, args.seed, env)
    res = run_worker(args, env)
    res["env"]["commit"] = git_commit()
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)

    if args.trace:
        from spans import metric_names

        units = dict(metric_names())
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res.pop("metrics").items()}
    else:
        res["setup_s"] = statistics.median(setup)
        res["setup_starts_s"] = setup
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    fail_ratio = res["failed"] / res["attempted"]
    res["fail_ratio"] = fail_ratio
    res["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))

    print(f"# {args.workload} seed {args.seed}: {json.dumps(res['env'])}")
    for name, m in metrics.items():
        print(f"{name:58s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"{'  tail percentile, samples':58s} p{res['tail_percentile']:.2f}, {res['samples']}")
    print(f"{'fail_ratio':58s} {fail_ratio:14.6g} ratio  ({res['failed']}/{res['attempted']})")
    for why in res["failures"]:
        print(f"# failure: {why}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
