"""Every CLI invocation on every fixture, compared byte for byte with the
transcripts in tests/golden/.

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

from nestlab.cli import CHAIN_CHECKS, COMMANDS, PREDICT_KINDS, main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"
FORMATS = ("json", "table")
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fixture in sorted(FIXTURES.glob("*.json")):
        for fmt in FORMATS:
            text = json.dumps(transcript(fixture, fmt), indent=2, ensure_ascii=False)
            golden_path(fixture, fmt).write_text(text + "\n", encoding="utf-8")
