import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nestlab import cli
from nestlab.cli import main, proptest, run
from nestlab.documents import parse_document
from nestlab.errors import UnknownCommandError, UnknownSuiteError
from nestlab.suites import run_suite

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def doc_path(name):
    return str(FIXTURES / f"{name}.json")


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_alg_reports_dimension_and_basis(capsys):
    code, out, err = invoke(capsys, "alg", "--doc", doc_path("triangular"))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "alg"
    assert payload["result"]["dimension"] == 6
    assert len(payload["result"]["basis"]) == 6


def test_output_is_deterministic(capsys):
    _, first, _ = invoke(capsys, "support", "--doc", doc_path("triangular"))
    _, second, _ = invoke(capsys, "support", "--doc", doc_path("triangular"))
    assert first == second


def test_support_values(capsys):
    code, out, _ = invoke(capsys, "support", "--doc", doc_path("triangular"))
    assert code == 0
    assert json.loads(out)["result"]["values"] == [0, 0, 0, 1]


def test_m_of_phi(capsys):
    code, out, _ = invoke(capsys, "m-of-phi", "--doc", doc_path("support"))
    assert code == 0
    assert json.loads(out)["result"]["dimension"] == 7


def test_check_reflexive(capsys):
    code, out, _ = invoke(capsys, "check-reflexive", "--doc", doc_path("triangular"))
    assert code == 0
    assert json.loads(out)["result"]["reflexive"] is True


def test_decompose_factors(capsys):
    code, out, _ = invoke(capsys, "decompose", "--doc", doc_path("decompose"))
    assert code == 0
    factors = json.loads(out)["result"]["factors"]
    assert factors == [
        {"functional": ["1", "1", "0"], "vector": ["1", "0", "0"]},
        {"functional": ["0", "1", "0"], "vector": ["0", "1", "0"]},
    ]


def test_rank_one_check_uses_support_when_present(capsys):
    code, out, _ = invoke(capsys, "rank-one-check", "--doc", doc_path("triangular"))
    assert code == 0 and json.loads(out)["result"]["member"] is True
    code, out, _ = invoke(capsys, "rank-one-check", "--doc", doc_path("decompose"))
    assert code == 0 and json.loads(out)["result"]["member"] is True


def test_chain_validate(capsys):
    code, out, _ = invoke(capsys, "chain-validate", "--doc", doc_path("chain-pinf"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["labels"] == ["0", "A", "X"]
    assert result["finite_stratum"] == []
    assert result["p_infinity"] is True


def test_chain_check_left_continuous(capsys):
    code, out, _ = invoke(
        capsys, "chain-check", "left-continuous", "--doc", doc_path("chain-continuous")
    )
    assert code == 0
    assert json.loads(out)["result"]["result"] is False


def test_chain_check_p_infinity_flags(capsys):
    code, out, _ = invoke(
        capsys, "chain-check", "p-infinity", "--doc", doc_path("chain-pinf")
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["result"] is True and result["finite_stratum_empty"] is True


def test_chain_regularize(capsys):
    code, out, _ = invoke(
        capsys, "chain-regularize", "--doc", doc_path("chain-continuous")
    )
    assert code == 0
    value = json.loads(out)["result"]["value"]
    assert value == {"0": "0", "A": "A", "B": "B", "C": "X", "X": "X"}


def test_chain_predict_m0(capsys):
    code, out, _ = invoke(capsys, "chain-predict", "m0", "--doc", doc_path("chain-step"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["phi"] == result["psi"]


def test_table_format(capsys):
    code, out, _ = invoke(
        capsys, "--format", "table", "chain-validate", "--doc", doc_path("chain-pinf")
    )
    assert code == 0
    assert out.splitlines()[0] == "command: chain-validate"
    assert 'labels: ["0", "A", "X"]' in out


def test_validation_failure_exits_one(capsys):
    code, out, err = invoke(
        capsys, "chain-predict", "m0", "--doc", doc_path("chain-offzero")
    )
    assert code == 1 and err == ""
    result = json.loads(out)["result"]
    assert result["error"]["type"] == "NonzeroAtZeroError"


def test_missing_file_exits_two(tmp_path, capsys):
    # a missing --doc file, and a --doc path that is a directory
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = invoke(capsys, "alg", "--doc", str(path))
        assert code == 2 and out == ""
        assert err.startswith("cannot read document: ") and "Traceback" not in err


class ClosedStdout:
    """A stdout whose reader has gone away, as under `nestlab ... | head -1`.
    Its file descriptor is a scratch file's, which the CLI may point at
    devnull."""

    def __init__(self, sink):
        self.sink = sink

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.sink.fileno()


@pytest.mark.parametrize("argv", [
    ["alg", "--doc", doc_path("triangular")],
    ["--format", "table", "support", "--doc", doc_path("triangular")],
    ["chain-predict", "m0", "--doc", doc_path("chain-offzero")],
    ["proptest", "lattice", "--cases", "2"],
])
def test_closed_stdout_ends_quietly(argv, tmp_path, monkeypatch, capsys):
    with open(tmp_path / "sink", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(sink))
        code = main(argv)
        monkeypatch.undo()
    out = capsys.readouterr()
    assert code == 1 and out.out == "" and out.err == ""


@pytest.mark.parametrize("cases", ["-3", "0"])
def test_proptest_rejects_fewer_than_one_case(cases, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["proptest", "lattice", "--cases", cases])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert f"argument --cases: must be at least 1, got {cases}" in err


def test_bad_document_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "other/9"}')
    code, out, err = invoke(capsys, "alg", "--doc", str(bad))
    assert code == 2 and "version" in err


def test_non_utf8_document_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = invoke(capsys, "alg", "--doc", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("parse error: $: ") and "Traceback" not in err


def run_in_a_process(*argv):
    """`python -m nestlab.cli` in a fresh interpreter, which runs
    `sys.exit(main())` and flushes stdout at exit."""
    return subprocess.run(
        [sys.executable, "-m", "nestlab.cli", *argv], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_process_prints_the_golden_transcript(fmt):
    proc = run_in_a_process(
        "--format", fmt, "chain-check", "--doc", doc_path("chain-step"), "p-infinity"
    )
    golden = json.loads((GOLDEN / f"chain-step.{fmt}.json").read_text(encoding="utf-8"))
    expected = golden[f"nestlab --format {fmt} chain-check p-infinity"]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        expected["exit"], expected["stdout"], expected["stderr"]
    )


def test_a_process_given_a_malformed_document_exits_two(tmp_path):
    raw = json.loads(Path(doc_path("chain-step")).read_text(encoding="utf-8"))
    raw["abstract_fn"]["value"]["Q"] = "X"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    proc = run_in_a_process("chain-regularize", "--doc", str(bad))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "parse error: abstract_fn: unknown node 'Q' in value table\n"
    assert "Traceback" not in proc.stderr


BRACKET = "must sit between the value at the predecessor and the value at the node"


def _edit(*path, value=None):
    """An edit that sets the value at path in a document, or deletes it."""
    def edit(raw):
        *parents, last = path
        for key in parents:
            raw = raw[key]
        if value is None:
            del raw[last]
        else:
            raw[last] = value
    return edit


def _map_rows(edit_id, table, node, target, message):
    return [
        pytest.param("chain-step", _edit(*where.split("."), table, node, value=target),
                     where, message, id=f"{edit_id}-{where}")
        for where in ("abstract_fn", "abstract_pair.psi")
    ]


# A fixture, one edit that some constructor rejects, the section it fails
# at and the constructor's message: every constructor a document reaches.
CONSTRUCTOR_FAULTS = [
    *_map_rows("not-monotone", "value", "A", "X", "value table is not monotone"),
    *_map_rows("left-limit-outside-bracket", "left_limit", "A", "X",
               f"left limit at 'A' {BRACKET}"),
    *_map_rows("left-limit-missing", "left_limit", "A", None,
               "limit node 'A' needs a left limit"),
    *_map_rows("left-limit-names-no-node", "left_limit", "A", "Q",
               "left limit at 'A' names 'Q', which is not a chain node"),
    pytest.param("chain-step", _edit("chain", "nodes", 2, "label", value="A"),
                 "chain", "duplicate node label 'A'", id="duplicate-label"),
    pytest.param("chain-step", _edit("chain", "nodes", 0, "label", value="O"),
                 "chain", 'the chain must start at a node labelled "0"', id="first-node-not-0"),
    pytest.param("chain-step", _edit("chain", "nodes", 1, "below", "gap", value=1),
                 "chain", "node 'A' is a limit from below but declares a jump",
                 id="limit-node-with-gap"),
    pytest.param("chain-step", _edit("chain", "nodes", 1, "above"),
                 "chain", "node 'A' needs an above annotation", id="node-without-above"),
    pytest.param("chain-step", _edit("abstract_pair", "phi", "left_limit", "C", value="B"),
                 "abstract_pair", "phi must be left continuous", id="phi-not-left-continuous"),
    pytest.param("chain-step", _edit("abstract_pair", "psi", "value", "B", value="X"),
                 "abstract_pair", "psi must sit below phi at every node", id="psi-above-phi"),
    pytest.param("chain-step",
                 _edit("rank_one", value={"functional": ["1", "0"], "vector": ["1"]}),
                 "rank_one", "functional and vector sizes differ", id="rank-one-sizes-differ"),
    pytest.param("support", _edit("nest", 1, value=[["0", "1", "0"]]), "nest",
                 "subspaces are incomparable: span[['1', '0', '0']] and span[['0', '1', '0']]",
                 id="nest-incomparable"),
    pytest.param("support", _edit("support_fn", 3, value=7),
                 "support_fn", "support value 7 is out of range", id="support-out-of-range"),
]


@pytest.mark.parametrize("fixture, edit, section, message", CONSTRUCTOR_FAULTS)
def test_a_map_breaking_its_constructor_rules_exits_two_at_its_path(
    fixture, edit, section, message, tmp_path, capsys
):
    # chain-regularize reads only abstract_fn, yet the whole document parses
    raw = json.loads(Path(doc_path(fixture)).read_text(encoding="utf-8"))
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = invoke(capsys, "chain-regularize", "--doc", str(bad))
    assert (code, out, err) == (2, "", f"parse error: {section}: {message}\n")


def test_unexpected_exception_exits_three_without_traceback(monkeypatch, capsys):
    def broken(doc):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "alg", broken)
    code, out, err = invoke(capsys, "alg", "--doc", doc_path("triangular"))
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_proptest_command(capsys):
    code, out, _ = invoke(capsys, "proptest", "lattice", "--seed", "1", "--cases", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 1 and payload["cases"] == 40
    assert payload["result"]["all_passed"] is True
    assert all(p["passed"] for p in payload["result"]["properties"])


def test_run_rejects_unknown_command():
    doc = parse_document((FIXTURES / "triangular.json").read_text())
    with pytest.raises(UnknownCommandError):
        run("frobnicate", doc)
    with pytest.raises(UnknownCommandError, match="^unknown chain check 'nope'$"):
        run("chain-check", doc, "nope")


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("nonsense", 0, 1)


def test_proptest_reports_each_property():
    verdict = proptest("lattice", 1, 20)
    names = [p["name"] for p in verdict.result["properties"]]
    assert len(names) == len(set(names)) and len(names) >= 3


def _unit(i, j):
    return [["1" if (r, c) == (i, j) else "0" for c in range(3)] for r in range(3)]


def with_operators(tmp_path, name, **operators):
    """A fixture's nest and support with the given operator roles."""
    raw = json.loads((FIXTURES / f"{name}.json").read_text())
    raw.pop("rank_one", None)
    raw["operators"] = operators
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_a_basis_role_spans_the_space(tmp_path, capsys):
    # the matrix unit at the top right spans a bimodule of the triangular nest
    doc = with_operators(tmp_path, "triangular", basis=[_unit(0, 2)])
    code, out, err = invoke(capsys, "support", "--doc", doc)
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["values"] == [0, 0, 0, 1]


@pytest.mark.parametrize("command, message", [
    ("support", "operator space is not a bimodule over the nest algebra"),
    ("ess-support", "essential support is defined for bimodules only"),
    ("check-reflexive", "reflexivity is defined for bimodules only"),
])
def test_a_basis_that_is_no_bimodule_exits_one(tmp_path, capsys, command, message):
    doc = with_operators(tmp_path, "triangular", basis=[_unit(2, 0)])
    code, out, err = invoke(capsys, command, "--doc", doc)
    assert code == 1 and err == ""
    assert json.loads(out)["result"] == {
        "error": {"type": "NotABimoduleError", "message": message},
    }


def test_decompose_takes_one_target(tmp_path, capsys):
    doc = with_operators(tmp_path, "decompose", target=[_unit(0, 2), _unit(0, 1)])
    code, out, err = invoke(capsys, "decompose", "--doc", doc)
    assert code == 2 and out == ""
    assert err == "parse error: operators.target: 'target' must hold exactly one matrix\n"


def test_table_format_names_seed_and_cases(capsys):
    code, out, _ = invoke(
        capsys, "--format", "table", "proptest", "lattice", "--seed", "3", "--cases", "2"
    )
    assert code == 0
    assert out.splitlines()[:3] == ["command: proptest", "seed: 3", "cases: 2"]
