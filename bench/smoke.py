"""Smoke check of the benchmark itself, at tiny case counts.

    python3 bench/smoke.py

For every workload: each metric named in BENCHMARK.json is produced, no case
fails, layer spans cover at least run.COVERAGE_FLOOR of case time, the default
seed reproduces its inputs and the recorded digests, and another seed gives
other inputs.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys

import run

# The first cases of each stream are its cheapest ones.
CASES = {"bimodule": 6, "factor": 3, "cli": 46}


def fingerprint(wl, seed: int, count: int) -> str:
    """The generated inputs of the first `count` cases, as text."""
    cases = []
    for rnd in wl.rounds(seed):
        cases.extend(rnd)
        if len(cases) >= count:
            break
    return json.dumps(cases[:count], sort_keys=True,
                      default=lambda o: vars(o) if hasattr(o, "__dict__") else str(o))


def check_workload(name: str, spec: dict, recorded: list[str]) -> list[str]:
    wl = run.WORKLOADS[name]
    count = CASES[name]
    nl, api, setup_s = run.set_up(wl, run.DEFAULT_SEED)
    errors = []

    digests: list[list[str]] = []
    for _ in range(2):
        record: list[str] = []
        stats = run.measure(wl, api, run.DEFAULT_SEED, float("inf"), max_cases=count,
                            expected=recorded, record=record)
        digests.append(record)
        if stats.failed:
            errors.append(f"{stats.failed} of {stats.attempted} cases failed: {stats.problems}")
    metrics = run.end_to_end(stats, setup_s)
    if digests[0] != digests[1]:
        errors.append("the same seed gave different digests")
    if sorted(metrics) != sorted(m["name"] for m in spec["end_to_end"]):
        errors.append(f"end-to-end metrics differ from BENCHMARK.json: {sorted(metrics)}")
    if metrics["verified_share"][0] != 1.0:
        errors.append("verified_share is not 1")

    traced, tracer = run.traced_run(wl, api, nl, run.DEFAULT_SEED, count, recorded)
    layer = run.per_layer(stats, traced, tracer)
    if traced.failed:
        errors.append(f"{traced.failed} traced cases failed")
    if set(layer) != {m["name"] for m in spec["per_layer"]}:
        errors.append(f"per-layer metrics differ from BENCHMARK.json: "
                      f"{sorted(set(layer) ^ {m['name'] for m in spec['per_layer']})}")
    if layer["trace.coverage_share"][0] < run.COVERAGE_FLOOR:
        errors.append(f"layer spans cover {layer['trace.coverage_share'][0]:.4f} of case time")

    first = fingerprint(wl, run.DEFAULT_SEED, count)
    if first != fingerprint(wl, run.DEFAULT_SEED, count):
        errors.append("the same seed gave different inputs")
    if first == fingerprint(wl, run.DEFAULT_SEED + 1, count):
        errors.append("another seed gave the same inputs")
    return errors


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    recorded = json.loads(run.DIGESTS.read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        print("workloads differ from BENCHMARK.json")
        return 1
    failed = False
    for name in run.WORKLOADS:
        errors = check_workload(name, spec, recorded[name])
        failed = failed or bool(errors)
        print(f"{name}: {'ok' if not errors else '; '.join(errors)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
