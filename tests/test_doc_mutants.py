"""Seeded one-edit mutants of the fixture documents, run through every CLI
invocation of tests/test_golden.py and compared with recorded transcripts.

Each mutant is a fixture with one edit.  Targeted edits put null and a value
of the wrong type at every 'below'/'above' key of a chain node and at both
map tables of every abstract map, duplicate a node, and write huge numerals.
Seeded edits delete, swap the type of, duplicate or turn into a huge numeral
one value at a random place in each fixture.  A transcript records, per
invocation in JSON format, the exit code, stderr and the sha256 of stdout.
Every outcome must stay byte-identical, end with exit 0, 1 or 2, and print
no traceback.  When a change of outcome is intended, record them anew with

    PYTHONPATH=src python tests/test_doc_mutants.py
"""

import contextlib
import copy
import hashlib
import io
import json
import pathlib
import random

import pytest

from nestlab import DocumentError, parse_document, serialize_document
from nestlab.cli import main
from test_golden import FIXTURES, GOLDEN, INVOCATIONS

MUTANTS = GOLDEN / "mutants"
SEED = 5
SEEDED_PER_FIXTURE = 5

# Raw JSON literals written in place of a string placeholder, because
# json.dumps cannot write them: a float beyond double range, and an integer
# literal longer than int's string conversion limit.
HUGE_LITERALS = {"@1e400@": "1e400", "@digits@": "9" * 5000}
HUGE_VALUES = {
    "10^400": 10**400, "1e400": "@1e400@", "5000 digits": "@digits@",
    "300 digits": "1" * 300, "1e999": "1e999", "1/0": "1/0",
}
SWAP_VALUES = (None, True, 0, -1, 1.5, "", "x", [], {})
# a wrong-typed value for each chain annotation key
WRONG_TYPE = {
    "below": ["limit"], "above": ["limit"], "kind": 5, "cofinality": 5,
    "coinitiality": 5, "gap": True,
}


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _delete(doc, path):
    del _get(doc, path[:-1])[path[-1]]


def _duplicate(doc, path):
    """Insert a copy of a list element next to it."""
    _get(doc, path[:-1]).insert(path[-1], copy.deepcopy(_get(doc, path)))


def _paths(node, path=()):
    """Every place in a document below the root, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _name(op, path):
    return op + ":" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _targeted(doc):
    """(name, edit) pairs for the targeted mutants of one document."""
    out = []
    nodes = doc.get("chain", {}).get("nodes", [])
    done = set()
    for i, node in enumerate(nodes):
        for side in ("below", "above"):
            if side not in node:
                continue
            for key in (None, *node[side]):
                path = ("chain", "nodes", i, side) + ((key,) if key else ())
                if path[3:] in done:
                    continue
                done.add(path[3:])
                for value in (None, WRONG_TYPE[key or side]):
                    out.append((_name(f"set {json.dumps(value)}", path),
                                lambda d, p=path, v=value: _set(d, p, v)))
    if len(nodes) > 1:
        second = ("chain", "nodes", 1)
        out.append((_name("duplicate", second), lambda d: _duplicate(d, second)))
    maps = [("abstract_fn",)] if "abstract_fn" in doc else []
    maps += [("abstract_pair", k) for k in ("phi", "psi") if k in doc.get("abstract_pair", {})]
    for base in maps:
        for table in ("value", "left_limit"):
            path = base + (table,)
            for value in (None, ["0"]):
                out.append((_name(f"set {json.dumps(value)}", path),
                            lambda d, p=path, v=value: _set(d, p, v)))
            entries = _get(doc, path)
            if entries:
                entry = path + (next(iter(entries)),)
                out.append((_name("set null", entry), lambda d, p=entry: _set(d, p, None)))
                out.append((_name("set 0", entry), lambda d, p=entry: _set(d, p, 0)))
                out.append((_name("delete", entry), lambda d, p=entry: _delete(d, p)))
    for i, node in enumerate(nodes):
        if "gap" in node.get("below", {}):
            path = ("chain", "nodes", i, "below", "gap")
            out.extend(_huge(path))
            break
    if "ambient_dim" in doc:
        out.extend(_huge(("ambient_dim",)))
    return out


def _huge(path):
    """The integer-valued huge numerals at one place."""
    return [(_name(f"huge {label}", path), lambda d, v=HUGE_VALUES[label]: _set(d, path, v))
            for label in ("10^400", "1e400", "5000 digits")]


def _seeded(doc, rng):
    """(name, edit) pairs for the seeded mutants of one document."""
    out = []
    for _ in range(SEEDED_PER_FIXTURE):
        paths = list(_paths(doc))
        path = paths[rng.randrange(len(paths))]
        op = ("delete", "swap", "duplicate", "huge")[rng.randrange(4)]
        if op == "delete":
            out.append((_name(op, path), lambda d, p=path: _delete(d, p)))
            continue
        if op == "duplicate":
            if isinstance(_get(doc, path[:-1]), list):
                out.append((_name(op, path), lambda d, p=path: _duplicate(d, p)))
                continue
            op = "swap"
        if op == "swap":
            current = type(_get(doc, path))
            choices = [v for v in SWAP_VALUES if type(v) is not current]
            value = choices[rng.randrange(len(choices))]
            label = json.dumps(value)
        else:
            label = sorted(HUGE_VALUES)[rng.randrange(len(HUGE_VALUES))]
            value = HUGE_VALUES[label]
        out.append((_name(f"{op} {label}", path), lambda d, p=path, v=value: _set(d, p, v)))
    return out


def mutants(fixture: pathlib.Path) -> dict[str, str]:
    """Name -> document text for every mutant of one fixture."""
    doc = json.loads(fixture.read_text(encoding="utf-8"))
    rng = random.Random(f"{SEED}:{fixture.stem}")
    out = {}
    for name, edit in _targeted(doc) + _seeded(doc, rng):
        mutant = copy.deepcopy(doc)
        edit(mutant)
        text = json.dumps(mutant, indent=2)
        for placeholder, literal in HUGE_LITERALS.items():
            text = text.replace(json.dumps(placeholder), literal)
        out.setdefault(name, text)
    return out


def outcomes(text: str, doc_path: pathlib.Path) -> dict:
    """Exit code, stderr and stdout digest of every invocation on one document."""
    doc_path.write_text(text, encoding="utf-8")
    out = {"document_sha256": hashlib.sha256(text.encode()).hexdigest()}
    for command, *kind in INVOCATIONS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--doc", str(doc_path), *kind])
        out[" ".join(["nestlab", command, *kind])] = {
            "exit": code,
            "stderr": stderr.getvalue(),
            "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        }
    return out


def transcript(fixture: pathlib.Path, doc_path: pathlib.Path) -> dict:
    return {name: outcomes(text, doc_path) for name, text in mutants(fixture).items()}


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_mutant_outcomes_match_the_recorded_transcript(fixture, tmp_path):
    expected = json.loads((MUTANTS / fixture.name).read_text(encoding="utf-8"))
    actual = transcript(fixture, tmp_path / "mutant.json")
    assert list(actual) == list(expected)
    for name, runs in actual.items():
        for invocation, run in runs.items():
            if invocation == "document_sha256":
                continue
            assert run["exit"] in (0, 1, 2), (name, invocation, run)
            assert "Traceback" not in run["stderr"], (name, invocation)
        assert runs == expected[name], name


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_every_document_that_parses_writes_one_that_parses_back(fixture):
    for name, text in {"fixture": fixture.read_text(encoding="utf-8"), **mutants(fixture)}.items():
        try:
            doc = parse_document(text)
        except DocumentError:
            continue
        assert parse_document(serialize_document(doc)) == doc, name


if __name__ == "__main__":
    import tempfile

    MUTANTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in sorted(FIXTURES.glob("*.json")):
            text = json.dumps(transcript(fixture, pathlib.Path(tmp) / "mutant.json"),
                              indent=2, ensure_ascii=False)
            (MUTANTS / fixture.name).write_text(text + "\n", encoding="utf-8")
