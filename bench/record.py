"""Aggregate benchmark records under `.bench_out/` into one trajectory point.

    python3 bench/record.py --seeds 1-10 --out bench/trajectory/00-54d752e.json

For each workload with records for the given seeds: the median, quartiles
and spread (quartile distance over median) of every end-to-end metric over
the untraced runs, and the median of every per-layer metric over the traced
runs.  Quartiles are `statistics.quantiles(values, n=4)`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, required=True, help="a seed or a range such as 1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    point: dict = {"workloads": {}}
    for workload in WORKLOADS:
        runs = [OUT / f"{workload}-seed{s}-trace0.json" for s in args.seeds]
        runs = [json.loads(p.read_text()) for p in runs if p.is_file()]
        traced = [OUT / f"{workload}-seed{s}-trace1.json" for s in args.seeds]
        traced = [json.loads(p.read_text()) for p in traced if p.is_file()]
        if not runs and not traced:
            continue
        entry: dict = {"seeds": [r["seed"] for r in runs], "end_to_end": {}}
        for name, m in (runs[0]["metrics"] if runs else {}).items():
            entry["end_to_end"][name] = {"unit": m["unit"], **summary([r["metrics"][name]["value"] for r in runs])}
            print(f"{workload:12s} {name:18s} median {entry['end_to_end'][name]['median']:12.6g} "
                  f"{m['unit']:4s} spread {entry['end_to_end'][name]['spread']:.4f}")
        if runs:
            entry["fail_ratio_max"] = max(r["fail_ratio"] for r in runs)
            entry["tail_percentile"] = [r["tail_percentile"] for r in runs]
            entry["samples"] = [r["samples"] for r in runs]
        if traced:
            entry["traced_seeds"] = [r["seed"] for r in traced]
            entry["per_layer"] = {
                name: {"unit": m["unit"], "value": statistics.median(r["metrics"][name]["value"] for r in traced)}
                for name, m in traced[0]["metrics"].items()
            }
        point["workloads"][workload] = entry
        first = (runs or traced)[0]
        point.setdefault("env", first["env"])
        point.setdefault("run_seconds", first["seconds"])
    if not point["workloads"]:
        print(f"error: no records for seeds {args.seeds} under {OUT}", file=sys.stderr)
        return 2
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
