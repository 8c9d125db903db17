"""Measure the run-to-run spread of the benchmark and record a baseline.

Usage, from the repository root:

    python3 bench/baseline.py [--workloads a,b] [--seeds N] [--write]

Runs bench/run.py once per seed (1..N) on each workload, one run at a
time, and prints for every end-to-end metric the median, the quartiles
and the spread (quartile distance over median, the figure the bounds in
BENCHMARK.json are compared against).  With --write it also makes one
traced run per workload and stores everything, with the machine's core
count and the Python version, in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run(cfg: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*cfg["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(cfg["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main() -> int:
    cfg = config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in cfg["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}

    out = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "run_seconds": cfg["run_seconds"], "seeds": list(range(1, args.seeds + 1)),
           "end_to_end": {}, "per_layer": {}}
    for workload in args.workloads.split(","):
        runs = [run(cfg, workload, seed, 0) for seed in out["seeds"]]
        table = {name: spread([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        out["end_to_end"][workload] = table
        for name, row in table.items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:10s} {name:12s} median {row['median']:.6g}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}  "
                  f"bound {bounds[name]}{flag}", flush=True)
        if args.write:
            traced = run(cfg, workload, 1, 1)
            out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.write:
        with open(BENCH_DIR / "baseline.json", "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
