"""Record the canonical-output digests of the default seed.

    python3 bench/record_digests.py

Runs the first cases of every workload with the default seed and writes one
digest per case to digests.json.  Run it only when a change is meant to alter
canonical output; otherwise a changed digest is a failed case.
"""

from __future__ import annotations

import json
import sys

import run

# Cases recorded per workload: the first few rounds of each.
COUNTS = {"bimodule": 60, "factor": 70, "cli": 2300}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for name, count in COUNTS.items():
        wl = run.WORKLOADS[name]
        _, api, _ = run.set_up(wl, run.DEFAULT_SEED)
        record: list[str] = []
        stats = run.measure(wl, api, run.DEFAULT_SEED, float("inf"), max_cases=count,
                            record=record)
        if stats.failed:
            print(f"{name}: {stats.failed} cases failed; nothing recorded", file=sys.stderr)
            return 1
        digests[name] = record
    run.DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"recorded {', '.join(f'{k}: {len(v)}' for k, v in digests.items())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
