"""Repeat the benchmark over several seeds and summarise the spread.

    python3 bench/baseline.py [--out bench/BENCH_0.json]

Runs `python3 bench/run.py` once per workload of BENCHMARK.json and seed
1..10, one process at a time, for BENCHMARK.json's run_seconds, then once
more with --trace 1 and seed 1 per workload.  For every end-to-end metric
it reports the ten values, their median and quartiles
(statistics.quantiles, n=4), and the spread: the distance between the
quartiles as a share of the median.  Spreads above a third of a metric's
bound are flagged.  Exits 1 when a run was not correct or a spread other
than setup_s's exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["traffic"] = json.loads(next(
        line.split(": ", 1)[1] for line in lines if line.startswith("traffic: ")))
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
                   f"{platform.python_version()}",
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, seed, seconds, 0) for seed in SEEDS]
        entry: dict = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "traffic_first_seed": runs[0]["traffic"],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else "  <-- above bound/3"
            steady = steady and (name == "setup_s" or s["spread"] <= bound)
            print(f"{workload:9} {name:15} median {s['median']:12.4f} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        traced = one_run(workload, SEEDS[0], seconds, 1)
        entry["traced_correct"] = traced["correct"]
        entry["per_layer_first_seed"] = {
            k: v["value"] for k, v in traced["metrics"].items() if v["value"]}
        report["workloads"][workload] = entry
        steady = steady and entry["correct"] and traced["correct"]
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
