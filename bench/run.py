"""nestlab benchmark: one closed-loop client, one thread, three workloads.

    python3 bench/run.py --workload {bimodule,factor,cli} --seed N \
        --seconds S --trace {0,1}

The client sends the next case only after the previous one returns.  Every
case is checked against an independent prediction (see workloads.py), and
with the default seed its canonical output is compared with the digests
recorded in digests.json.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; it runs at least MIN_CASES cases,
however long they take.  --trace 1 spends half the time untraced and half
traced on the same case stream, reports the per-layer metrics, and writes the
spans to bench/out/.  A traced run whose layer spans cover less than
COVERAGE_FLOOR of case time is not correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 9
# p90 needs at least ten cases above it.
MIN_CASES = 100
COVERAGE_FLOOR = 0.95
# The machine's speed is sampled between blocks of cases with a fixed exact
# elimination, and case times are rescaled to a machine on which that kernel
# takes REFERENCE_S.  On a shared host the speed of a core drifts by tens of
# per cent over seconds to minutes; the rescaling takes that drift out of the
# end-to-end figures while leaving any change in nestlab's own cost in.
REFERENCE_S = 0.005
_KERNEL_RNG = random.Random(0)
REFERENCE_MATRIX = [[_KERNEL_RNG.randint(-9, 9) for _ in range(12)] for _ in range(12)]

MODULES = ("ratlin", "nest", "opspace", "chaincalc", "documents", "errors", "cli", "suites")

# Every call the benchmark makes into a layer goes through one of these call sites.
CALL_SITES = {
    "ratlin.span": lambda nl: nl.ratlin.span,
    "ratlin.rank": lambda nl: nl.ratlin.rank,
    "ratlin.contains_vector": lambda nl: nl.ratlin.Subspace.contains_vector,
    "nest.validate_nest": lambda nl: nl.nest.validate_nest,
    **{f"opspace.{f}": (lambda f: lambda nl: getattr(nl.opspace, f))(f) for f in (
        "generate_bimodule", "support_of", "m_of", "essential_support_of",
        "nest_algebra", "span_of_rank_ones", "decompose", "rank_one_in_m",
        "rank_one_in_alg")},
    "documents.parse_document": lambda nl: nl.documents.parse_document,
    "cli.run.chain": lambda nl: nl.cli.run,
    "cli.run.concrete": lambda nl: nl.cli.run,
    "cli.to_json": lambda nl: nl.cli.Verdict.to_json,
}


# The import part of set-up is rescaled by its own reference: a cold import
# of standard-library modules that nestlab does not import, to a machine on
# which it takes REFERENCE_IMPORT_S.  An import is reading, unmarshalling and
# running module code, and does not follow the elimination kernel's speed:
# rescaled by that kernel, set-up time spread two to four times wider than
# raw, and raw it drifted by a fifth between two sets of runs.
REFERENCE_IMPORTS = "unittest,email.mime.multipart,http.client,xml.dom.minidom,logging,tomllib"
REFERENCE_IMPORT_S = 0.08
NESTLAB_IMPORTS = ",".join(f"nestlab.{m}" for m in MODULES)
# Run in a fresh interpreter: prints how long importing the modules takes.
COLD_IMPORT = """
import sys, time
sys.path[:0] = sys.argv[2:]
start = time.perf_counter()
for name in sys.argv[1].split(","):
    __import__(name)
print(time.perf_counter() - start)
"""


def cold_import_s(modules: str, *path: str) -> float:
    """Seconds a fresh interpreter takes to import `modules` (comma-separated)
    and everything they import, timed inside that interpreter (its start-up
    is not counted)."""
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT, modules, *path],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def import_nestlab() -> SimpleNamespace:
    """Import nestlab from the checkout's src/, from scratch (dependencies
    already loaded stay loaded)."""
    for name in [m for m in sys.modules if m == "nestlab" or m.startswith("nestlab.")]:
        del sys.modules[name]
    importlib.import_module("nestlab")
    return SimpleNamespace(**{
        m: importlib.import_module(f"nestlab.{m}") for m in MODULES
    })


def measure(wl, api, seed: int, seconds: float, *, min_cases: int = 0,
            max_cases: int | None = None, tracer: Tracer | None = None,
            expected: list[str] | None = None, record: list[str] | None = None):
    """Run whole rounds of cases until `seconds` have passed and `min_cases`
    cases ran (or until `max_cases` cases ran); time each case, then check it
    outside the timed region.

    The machine's speed is probed before the first case and after every
    `wl.probe_every` cases.  The canonical output of case i must digest to
    expected[i], where given; `record` collects the digest of every case."""
    stats = SimpleNamespace(latencies=array("d"), attempted=0, failed=0, problems=[],
                            traffic=Counter(), blocks=[], probes=[machine_speed()])
    block = SimpleNamespace(cases=0, latencies=array("d"), verified=0)

    def close_block() -> None:
        nonlocal block
        stats.blocks.append(block)
        stats.probes.append(machine_speed())
        block = SimpleNamespace(cases=0, latencies=array("d"), verified=0)

    deadline = perf_counter() + seconds
    for rnd in wl.rounds(seed):
        for case in rnd:
            if max_cases is not None and stats.attempted >= max_cases:
                if block.cases:
                    close_block()
                return stats
            if block.cases == wl.probe_every:
                close_block()
            block.cases += 1
            case_id = stats.attempted
            stats.attempted += 1
            prepared = wl.prepare(case)
            if tracer:
                tracer.open_case(case_id)
            start = perf_counter()
            try:
                out = wl.run(api, prepared)
            except Exception as exc:  # an unpredicted exception fails the case
                stats.failed += 1
                stats.problems.append(f"case {case_id}: {type(exc).__name__}: {exc}")
                continue
            finally:
                end = perf_counter()
                if tracer:
                    tracer.close_case(start, end)
            elapsed = end - start
            stats.latencies.append(elapsed)
            block.latencies.append(elapsed)
            want = expected[case_id] if expected and case_id < len(expected) else None
            try:
                ok = wl.check(case, out)
                if want is not None or record is not None:
                    got = digest(wl.canonical(out))
                    if record is not None:
                        record.append(got)
                    if want not in (None, got):
                        ok = False
                        stats.problems.append(f"case {case_id}: canonical output changed")
            except Exception as exc:
                ok = False
                stats.problems.append(f"case {case_id} check: {type(exc).__name__}: {exc}")
            if ok:
                block.verified += 1
            else:
                stats.failed += 1
                stats.problems.append(f"case {case_id}: check failed")
            wl.note(case, out, stats.traffic)
        if perf_counter() >= deadline and stats.attempted >= min_cases:
            if block.cases:
                close_block()
            return stats
    return stats


def set_up(wl, seed: int):
    """A cold import of nestlab in a fresh interpreter; then, in this one,
    on a fresh import (untimed), generating the first round and running and
    checking its first case (a warm-up outside the measured cases).

    Repeated SETUP_REPEATS times, the import rescaled by the reference
    import just after it and the rest by the probes just before and after
    it; returns the modules of the last import and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        imported = cold_import_s(NESTLAB_IMPORTS, str(SRC))
        imported *= REFERENCE_IMPORT_S / cold_import_s(REFERENCE_IMPORTS)
        nl = import_nestlab()
        before = machine_speed()
        start = perf_counter()
        wl.bind(nl)
        api = {name: get(nl) for name, get in CALL_SITES.items()}
        first = next(wl.rounds(seed))[0]
        wl.check(first, wl.run(api, wl.prepare(first)))
        elapsed = perf_counter() - start
        speed = (before + machine_speed()) / 2
        times.append(imported + elapsed * REFERENCE_S / speed)
    return nl, api, statistics.median(times)


def machine_speed(reps: int = 2) -> float:
    """Fastest of `reps` timings of the reference kernel, in seconds.

    The cyclic garbage collector is paused meanwhile, so that a collection
    of the program's garbage is not charged to the machine."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(reps):
            start = perf_counter()
            reference.rank(REFERENCE_MATRIX)
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best


def rescaled(stats) -> array:
    """Case latencies rescaled to the reference speed.

    Block b lies between probes b and b + 1; its speed is the median of
    those two and their outer neighbours, so one disturbed probe moves no
    block."""
    out = array("d")
    for b, block in enumerate(stats.blocks):
        scale = REFERENCE_S / statistics.median(stats.probes[max(0, b - 1):b + 3])
        out.extend(x * scale for x in block.latencies)
    return out


def cases_per_s(stats) -> float:
    """Verified cases per second of (rescaled) timed work."""
    return sum(b.verified for b in stats.blocks) / sum(rescaled(stats))


def end_to_end(stats, setup_s: float) -> dict:
    lat = rescaled(stats)
    return {
        "cases_per_s": (cases_per_s(stats), "1/s"),
        "case_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "case_p90_ms": (_p90(lat) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verified_share": ((stats.attempted - stats.failed) / stats.attempted, "share"),
    }


def _p90(latencies) -> float:
    return statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]


def traced_run(wl, api, nl, seed: int, max_cases: int, expected: list[str] | None):
    """The first `max_cases` cases of the stream, with every call site and
    the lower-layer names inside cli and documents traced."""
    tracer = Tracer()
    traced_api = {name: tracer.wrap(name, fn) for name, fn in api.items()}
    with tracer.nested(nl):
        stats = measure(wl, traced_api, seed, float("inf"), max_cases=max_cases,
                        tracer=tracer, expected=expected)
    return stats, tracer


def per_layer(plain, traced, tracer: Tracer) -> dict:
    """Every per-layer metric, from the traced run and the untraced run of
    the same cases."""
    values = tracer.metrics(list(CALL_SITES))
    values["trace.overhead_share"] = cases_per_s(plain) / cases_per_s(traced) - 1
    return {k: (float(v), per_layer_unit(k)) for k, v in values.items()}


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"busy_s": "s", "calls": "count", "p50_us": "us", "errors": "count"}.get(
        suffix, "share")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nestlab" / "__init__.py").is_file():
        print(f"nestlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    nl, api, setup_s = set_up(wl, args.seed)
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text())[args.workload]

    shortfall = ""  # why a run without failed cases is still not correct
    if args.trace:
        plain = measure(wl, api, args.seed, args.seconds / 2, expected=expected)
        traced, tracer = traced_run(wl, api, nl, args.seed, plain.attempted, expected)
        metrics = per_layer(plain, traced, tracer)
        runs = (plain, traced)
        out = BENCH / "out" / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        tracer.dump(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(BENCH.parent)}")
        coverage = metrics["trace.coverage_share"][0]
        if coverage < COVERAGE_FLOOR:
            shortfall = f"layer spans cover {coverage:.4f} of case time, under {COVERAGE_FLOOR}"
    else:
        plain = measure(wl, api, args.seed, args.seconds, min_cases=MIN_CASES,
                        expected=expected)
        metrics = end_to_end(plain, setup_s)
        runs = (plain,)
        if len(plain.latencies) < MIN_CASES:
            shortfall = f"only {len(plain.latencies)} cases timed, under {MIN_CASES}"

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if shortfall:
        print(f"problem: {shortfall}")
    for problem in [p for r in runs for p in r.problems][:20]:
        print(f"problem: {problem}")
    print("traffic: " + json.dumps(wl.describe(plain.traffic, len(plain.latencies))))
    lat = plain.latencies
    speeds = plain.probes
    print(f"cases: {len(lat)}, timed {sum(lat):.3f} s; "
          f"unscaled p50 {statistics.median(lat) * 1e3:.3f} ms, p90 {_p90(lat) * 1e3:.3f} ms, "
          f"{len(lat) / sum(lat):.4f} cases/s; reference kernel {min(speeds) * 1e3:.3f}"
          f"..{max(speeds) * 1e3:.3f} ms")
    print(json.dumps({
        "correct": failed == 0 and not shortfall,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
