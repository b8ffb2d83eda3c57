"""Spans around the benchmark's calls into each nestlab layer.

The benchmark calls every layer through a table of call sites (see `CALL_SITES`
in run.py).  A traced run swaps each entry for a wrapper that records one
span per call: (name, start, end, parent span, case id, ok).  While tracing,
the names that `nestlab.cli` and `nestlab.documents` import from lower layers
are swapped as well, so a CLI request splits into its parsing, chain
calculus and operator-space parts.  Nothing under src/ changes; the swaps are
undone when the traced run ends.

A span's self time is its duration minus the durations of its children; a
layer is busy for the self time of its spans.
"""

from __future__ import annotations

import gzip
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

LAYERS = ("ratlin", "nest", "opspace", "chaincalc", "documents", "cli")

# Module attributes swapped while tracing: (module, attribute, span name).
NESTED = (
    *(("cli", f, f"chaincalc.{f}") for f in (
        "check_essential", "check_left_continuous", "check_p_infinity",
        "check_p_property", "check_pair", "lower_regularization", "predict_m0",
        "predict_m0_pair", "predict_max_pair", "predict_me_support")),
    *(("cli", f, f"opspace.{f}") for f in (
        "nest_algebra", "m_of", "decompose", "rank_one_in_alg", "rank_one_in_m")),
    ("documents", "span", "ratlin.span"),
    ("documents", "validate_nest", "nest.validate_nest"),
    ("documents", "validate_chain", "chaincalc.validate_chain"),
)


class Tracer:
    """Spans kept in memory; `dump` writes them out once the run ends."""

    def __init__(self):
        # (name, start, end, parent index or -1, case id, ok)
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # A span includes its own bookkeeping, as a parent span already
            # includes its children's: case time outside every span is then
            # the benchmark's own dispatch, not the tracer's.
            start = perf_counter()
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                stack.pop()
                parent = stack[-1] if stack else -1
                case = spans[stack[0]][4] if stack else -1
                spans[idx] = (name, start, perf_counter(), parent, case, ok)

        return traced

    def open_case(self, case_id: int) -> None:
        """Open the root span of one timed case; its children follow."""
        self._stack.append(len(self.spans))
        self.spans.append(("case", 0.0, 0.0, -1, case_id, True))

    def close_case(self, start: float, end: float) -> None:
        """Close the open case span over the interval the case was timed."""
        idx = self._stack.pop()
        self.spans[idx] = ("case", start, end, -1, self.spans[idx][4], True)

    @contextmanager
    def nested(self, nl) -> Iterator[None]:
        """Swap the lower-layer names used inside cli and documents."""
        saved = []
        try:
            for module, attr, name in NESTED:
                mod = getattr(nl, module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def metrics(self, call_sites: list[str]) -> dict[str, float]:
        """Per call site busy_s, calls, p50_us and errors; per layer the
        share of case time spent in that layer's own code; and the share of
        case time covered by layer spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        case_time = covered = 0.0
        durations: dict[str, list[float]] = {c: [] for c in call_sites}
        errors = dict.fromkeys(call_sites, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, parent, _, ok) in enumerate(spans):
            if name == "case":
                case_time += end - start
                continue
            if parent >= 0 and spans[parent][0] == "case":
                covered += end - start
            busy[name.split(".", 1)[0]] += end - start - child_time[i]
            if name in durations:
                durations[name].append(end - start)
                errors[name] += not ok
        out: dict[str, float] = {}
        for c in call_sites:
            d = durations[c]
            out[f"{c}.busy_s"] = sum(d)
            out[f"{c}.calls"] = len(d)
            out[f"{c}.p50_us"] = statistics.median(d) * 1e6 if d else 0.0
            out[f"{c}.errors"] = errors[c]
        for layer in LAYERS:
            out[f"{layer}.busy_share"] = busy[layer] / case_time if case_time else 0.0
        out["trace.coverage_share"] = covered / case_time if case_time else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, case, ok in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "case": case, "ok": ok,
                }) + "\n")
