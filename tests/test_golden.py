"""Every CLI invocation on every fixture, compared byte for byte with the
transcripts in tests/golden/, and the seeded proptest verdict of every suite
with those in tests/golden/proptest/.

An invocation is one `COMMANDS` entry, or one `chain-check` or
`chain-predict` kind, run through `cli.main` in either output format.  A
transcript records its exit code, stdout and stderr; commands that do not
apply to a fixture are recorded too, with their parse error and exit code.
When a change of output is intended, regenerate the transcripts with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from nestlab import cli
from nestlab.cli import CHAIN_CHECKS, COMMANDS, PREDICT_KINDS, main
from nestlab.suites import SUITES

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"
FORMATS = ("json", "table")
PROPTEST = GOLDEN / "proptest"
# the fast suites run at this seed and case count; the chaincalc sweep ignores
# both and is read from the session fixture, run at seed 7 and 100 cases
PROPTEST_SEED, PROPTEST_CASES = 7, 15
FAST_SUITES = tuple(name for name in SUITES if name != "chaincalc")
INVOCATIONS = (
    *((command,) for command in COMMANDS),
    *(("chain-check", kind) for kind in CHAIN_CHECKS),
    *(("chain-predict", kind) for kind in PREDICT_KINDS),
)


def transcript(fixture: pathlib.Path, fmt: str) -> dict:
    out = {}
    for command, *kind in INVOCATIONS:
        argv = ["--format", fmt, command, "--doc", str(fixture), *kind]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out[" ".join(["nestlab", "--format", fmt, command, *kind])] = {
            "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
        }
    return out


def golden_path(fixture: pathlib.Path, fmt: str) -> pathlib.Path:
    return GOLDEN / f"{fixture.stem}.{fmt}.json"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_cli_output_matches_the_golden_transcript(fixture, fmt):
    expected = json.loads(golden_path(fixture, fmt).read_text(encoding="utf-8"))
    assert transcript(fixture, fmt) == expected


def test_every_golden_transcript_has_a_fixture():
    expected = {golden_path(f, fmt).name for f in FIXTURES.glob("*.json") for fmt in FORMATS}
    assert {p.name for p in GOLDEN.glob("*.json")} == expected


def proptest_path(suite: str) -> pathlib.Path:
    return PROPTEST / f"{suite}.json"


@pytest.mark.parametrize("suite", FAST_SUITES)
def test_proptest_output_matches_the_golden_verdict(suite):
    expected = proptest_path(suite).read_text(encoding="utf-8")
    assert cli.proptest(suite, PROPTEST_SEED, PROPTEST_CASES).to_json() + "\n" == expected


def test_chaincalc_proptest_output_matches_the_golden_verdict(chaincalc_outcomes, monkeypatch):
    outcomes, _ = chaincalc_outcomes
    monkeypatch.setattr(cli, "run_suite", lambda suite, seed, cases: outcomes)
    expected = proptest_path("chaincalc").read_text(encoding="utf-8")
    assert cli.proptest("chaincalc", 7, 100).to_json() + "\n" == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fixture in sorted(FIXTURES.glob("*.json")):
        for fmt in FORMATS:
            text = json.dumps(transcript(fixture, fmt), indent=2, ensure_ascii=False)
            golden_path(fixture, fmt).write_text(text + "\n", encoding="utf-8")
    PROPTEST.mkdir(exist_ok=True)
    for suite in FAST_SUITES:
        verdict = cli.proptest(suite, PROPTEST_SEED, PROPTEST_CASES)
        proptest_path(suite).write_text(verdict.to_json() + "\n", encoding="utf-8")
    proptest_path("chaincalc").write_text(
        cli.proptest("chaincalc", 7, 100).to_json() + "\n", encoding="utf-8"
    )
