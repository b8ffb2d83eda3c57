"""The benchmark under bench/ reaches nestlab by name: the call sites in
`run.CALL_SITES` and the names `tracing.NESTED` swaps while tracing.  These
tests check that every such name still resolves, that every recorded seed-0
case of every workload still gives its recorded digest, and that the CLI
looks up every swapped name when a command runs.

The benchmark is imported in a fresh interpreter, so that its `sys.path`
entries and its reimport of nestlab stay out of the pytest process, and without
writing bytecode, so that bench/ is left as it was.  `tracing.py` alone, which
imports nothing from bench/ or nestlab, is also run in process with `runpy`,
which writes no bytecode either.
"""

import contextlib
import importlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from nestlab.cli import main
from test_golden import FIXTURES, INVOCATIONS

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, math, sys
sys.path[:0] = sys.argv[1:]
import run, tracing

nl = run.import_nestlab()
unresolved = []
for module, attr, span in tracing.NESTED:
    layer, name = span.split(".", 1)
    if not hasattr(getattr(nl, module), attr):
        unresolved.append(f"{module}.{attr}")
    if not hasattr(getattr(nl, layer), name):
        unresolved.append(span)
api = {}
for site, get in run.CALL_SITES.items():
    try:
        api[site] = get(nl)
    except AttributeError:
        unresolved.append(site)
workloads = {}
if not unresolved:
    digests = json.loads(run.DIGESTS.read_text())
    for name, wl in run.WORKLOADS.items():
        wl.bind(nl)
        stats = run.measure(wl, api, 0, math.inf, max_cases=len(digests[name]),
                            expected=digests[name])
        workloads[name] = {"expected": len(digests[name]), "attempted": stats.attempted,
                           "failed": stats.failed, "problems": stats.problems[:5]}
print(json.dumps({"unresolved": unresolved, "workloads": workloads}))
"""


@pytest.fixture(scope="module")
def probe():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_benchmark_name_resolves(probe):
    assert probe["unresolved"] == []


@pytest.mark.parametrize("name", ["bimodule", "factor", "cli"])
def test_every_recorded_case_gives_its_digest(probe, name):
    stats = probe["workloads"][name]
    assert stats["attempted"] == stats["expected"] > 0
    assert stats["failed"] == 0, stats["problems"]


def _counted(calls: dict, span: str, fn):
    def counted(*args, **kwargs):
        calls[span] += 1
        return fn(*args, **kwargs)
    return counted


def test_every_traced_name_is_looked_up_when_a_command_runs(monkeypatch):
    # a traced run swaps each NESTED name in its module; a handler or parser
    # that held the function itself would bypass the swap, and the spans the
    # benchmark reports for it would silently vanish
    nested = runpy.run_path(str(ROOT / "bench" / "tracing.py"))["NESTED"]
    calls = {span: 0 for _, _, span in nested}
    for module, attr, span in nested:
        mod = importlib.import_module(f"nestlab.{module}")
        monkeypatch.setattr(mod, attr, _counted(calls, span, getattr(mod, attr)))
    for fixture in sorted(FIXTURES.glob("*.json")):
        for command, *kind in INVOCATIONS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main([command, "--doc", str(fixture), *kind])
    assert len(calls) == 18
    assert [span for span, n in calls.items() if n == 0] == []
