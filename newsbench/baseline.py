"""Repeat the benchmark over seeds and record medians and run-to-run spread.

    python3 newsbench/baseline.py --runs 10 --out newsbench/baseline.json

For each workload it runs `run.py` once per seed (1..runs), takes every
end-to-end metric's median and quartiles (`statistics.quantiles(n=4)`), and
reports the spread, (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json. One traced run per workload (seed 1) adds the per-layer
figures. The output also records the environment the numbers come from,
the raw wall-clock figures each run prints next to its host-scaled ones, and
how long each whole run took.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, with the whole run's wall time as `run_s` and
    the human-readable figures (raw wall times among them) as `info`."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - start
    result["info"] = next(json.loads(line[2:]) for line in lines if line.startswith("# {"))
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    summary = {
        "environment": {**run.environment(), "machine": "2-core shared virtual machine; other tenants load it"},
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for workload in names:
        results = [bench(workload, seed, spec["run_seconds"], 0) for seed in summary["seeds"]]
        entry = {
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in results),
            "attempted": [r["attempted"] for r in results],
            "run_s": [r["run_s"] for r in results],
            "end_to_end": {},
            "wall_clock": {
                name: summarize([r["info"][name] for r in results])
                for name in ("wall_setup_s", "wall_latency_p50_ms", "wall_latency_tail_ms",
                             "wall_throughput_rps", "calibration_ms_median")
            },
        }
        for name in bounds:
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            print(f"{workload:13s} {name:16s} median {stats['median']:12.4f}  spread {stats['spread']:.4f}"
                  f"  bound {bounds[name]}", flush=True)
        traced = bench(workload, summary["seeds"][0], spec["run_seconds"], 1)
        entry["per_layer_seed_%d" % summary["seeds"][0]] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
