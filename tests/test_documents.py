import inspect
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nestlab import (
    DocumentError,
    Matrix,
    PairAdmissibilityError,
    RankOne,
    SupportFn,
    SupportPair,
    WorkbenchDoc,
    parse_document,
    serialize_document,
    span,
    validate_nest,
)
from nestlab import documents, sampling
from nestlab.cli import main
from nestlab.documents import MAX_AMBIENT_DIM, MAX_RATIONAL_CHARS
from nestlab.suites import canonical_triangular_nest, sweep_chains, sweep_maps

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name):
    return (FIXTURES / f"{name}.json").read_text()


@pytest.mark.parametrize("name", [
    "triangular",
    "support",
    "decompose",
    "chain-continuous",
    "chain-step",
    "chain-pinf",
    "chain-offzero",
])
def test_round_trip_is_identity(name):
    text = fixture_text(name)
    assert serialize_document(parse_document(text)) == text


def test_swept_chains_and_maps_round_trip():
    # what the Python API builds, the serializer writes and the parser reads
    # back: every chain of up to three nodes over the sweep alphabet, alone,
    # with each of its maps, and with a seeded sample of the pairs of its maps
    # that SupportPair accepts
    rng = random.Random("documents:pair-round-trip")
    docs = pairs = 0
    for chain in sweep_chains(3):
        maps = list(sweep_maps(chain))
        sampled = []
        for _ in range(4):
            try:
                sampled.append(SupportPair(rng.choice(maps), rng.choice(maps)))
            except PairAdmissibilityError:
                continue
        built = [WorkbenchDoc(chain=chain)]
        # a map or a pair brings its own chain, so the chain may be left out
        for c in (chain, None):
            built += [WorkbenchDoc(chain=c, abstract_fn=f) for f in maps]
            built += [WorkbenchDoc(chain=c, abstract_pair=pair) for pair in sampled]
        for doc in built:
            text = serialize_document(doc)
            assert parse_document(text) == doc, text
            docs += 1
        pairs += len(sampled)
    assert docs == 156 + 2 * 2238 + 2 * pairs and pairs == 98


def test_sampled_concrete_documents_round_trip():
    # a seeded nest, support table, generators and rank-one, as the property
    # suites draw them, written by the serializer and read back by the parser
    rng = random.Random("documents:round-trip")
    for _ in range(40):
        nest = sampling.random_nest(rng)
        n = nest.ambient_dim
        gens = sampling.random_generators(rng, n)
        phi = sampling.random_support(rng, nest)
        functional, vector = ([sampling.random_entry(rng) for _ in range(n)] for _ in range(2))
        sections = dict(
            nest=nest,
            operators={"generators": gens},
            support_fn=phi,
            rank_one=RankOne.of(functional, vector),
        )
        # the nest brings its ambient dimension and the support table its
        # nest, so either may be left out; operators=None is no table, as
        # None is for every other section
        without_nest = {k: v for k, v in sections.items() if k != "nest"}
        for doc in (
            WorkbenchDoc(ambient_dim=n, **sections),
            WorkbenchDoc(**sections),
            WorkbenchDoc(**without_nest),
            WorkbenchDoc(support_fn=phi),
            WorkbenchDoc(operators=None, support_fn=phi),
        ):
            text = serialize_document(doc)
            back = parse_document(text)
            assert back == doc, text
            assert serialize_document(back) == text


def _chain_doc(name):
    return parse_document(fixture_text(name))


def _flag(*rows):
    # the nest in Q^3 spanned by the first 1, 2, ... of the given rows
    return validate_nest([span(rows[:j], 3) for j in range(1, len(rows) + 1)], 3)


NOT_BOTH = "a document carries either a concrete nest or an abstract chain, not both"
# sections the parser refuses together, each with the path and message; each
# states everything the serializer writes, so that the same sections set
# without the constructor serialize to the same document
PARSER_FAULTS = {
    "nest-and-chain": (
        lambda: dict(nest=canonical_triangular_nest(), chain=_chain_doc("chain-step").chain),
        None, NOT_BOTH),
    "dimension-bound": (
        lambda: dict(ambient_dim=MAX_AMBIENT_DIM + 1),
        "ambient_dim", f"'ambient_dim' is at most {MAX_AMBIENT_DIM}"),
    "rank-one-width": (
        lambda: dict(ambient_dim=3, nest=canonical_triangular_nest(),
                     rank_one=RankOne.of([1, 0], [0, 1])),
        "rank_one.functional", "vector has 2 entries, expected 3"),
    "generator-width": (
        lambda: dict(ambient_dim=3, nest=canonical_triangular_nest(),
                     operators={"generators": [Matrix(2, 2, ((1, 0), (0, 1)))]}),
        "operators.generators[0]", "matrix is 2x2, expected 3x3"),
    # what the serializer writes is read back under the one rational bound
    "rational-303-characters": (
        lambda: dict(ambient_dim=1, rank_one=RankOne.of([Fraction(1, 10**300)], [1])),
        "rank_one.functional[0]", "rational has 303 characters, more than 256"),
    "rank-one-1e256": (
        lambda: dict(ambient_dim=1, rank_one=RankOne.of([10**256], [1])),
        "rank_one.functional[0]", "rational has 257 characters, more than 256"),
    "empty-matrix": (
        lambda: dict(operators={"g": [Matrix(0, 0, ())]}),
        "operators.g[0]", "expected a non-empty array of rows"),
}


@pytest.mark.parametrize("build, path, message", [
    pytest.param(lambda: WorkbenchDoc(ambient_dim=2, nest=canonical_triangular_nest()),
                 "ambient_dim", "disagrees with the nest", id="ambient-dim"),
    *(pytest.param(lambda sections=sections: WorkbenchDoc(**sections()), path, message, id=fault)
      for fault, (sections, path, message) in PARSER_FAULTS.items()),
    # a map brings its chain, which cannot sit beside a nest
    pytest.param(lambda: WorkbenchDoc(nest=canonical_triangular_nest(),
                                      abstract_fn=_chain_doc("chain-step").abstract_fn),
                 None, NOT_BOTH, id="nest-and-map"),
    # a support table on another flag, with as many elements and with fewer
    pytest.param(lambda: WorkbenchDoc(
        nest=canonical_triangular_nest(),
        support_fn=SupportFn(_flag([0, 0, 1], [0, 1, 0], [1, 0, 0]), (0, 1, 1, 3))),
                 "nest", "disagrees with the support_fn", id="support-fn-other-flag"),
    pytest.param(lambda: WorkbenchDoc(
        nest=canonical_triangular_nest(),
        support_fn=SupportFn(_flag([0, 0, 1]), (0, 1, 2))),
                 "nest", "disagrees with the support_fn", id="support-fn-fewer-elements"),
    pytest.param(lambda: WorkbenchDoc(chain=_chain_doc("chain-pinf").chain,
                                      abstract_fn=_chain_doc("chain-continuous").abstract_fn),
                 "chain", "disagrees with the abstract_fn", id="abstract-fn-chain"),
    pytest.param(lambda: WorkbenchDoc(abstract_fn=_chain_doc("chain-pinf").abstract_fn,
                                      abstract_pair=_chain_doc("chain-step").abstract_pair),
                 "chain", "disagrees with the abstract_pair", id="abstract-pair-chain"),
])
def test_a_built_document_refuses_a_disagreeing_dimension_or_chain(build, path, message):
    with pytest.raises(DocumentError) as info:
        build()
    assert info.value.path == path
    assert str(info.value) == (f"{path}: {message}" if path else message)


@pytest.mark.parametrize("fault", PARSER_FAULTS)
def test_a_built_document_refuses_in_the_parsers_words(fault):
    # the same sections set past the frozen fields skip the constructor's
    # checks, and the document they serialize to is refused by the parser in
    # the words the constructor uses
    sections = PARSER_FAULTS[fault][0]
    with pytest.raises(DocumentError) as built:
        WorkbenchDoc(**sections())
    doc = WorkbenchDoc()
    for name, value in sections().items():
        object.__setattr__(doc, name, value)
    with pytest.raises(DocumentError) as parsed:
        parse_document(serialize_document(doc))
    assert (parsed.value.path, str(parsed.value)) == (built.value.path, str(built.value))


def _spanning_rows(rng, element):
    """Rows that span the element, but not its canonical ones: its basis
    shuffled, each row scaled by a nonzero rational, the first row mixed with
    the second, one row written twice, and a zero row, which parsing skips."""
    rows = [list(r) for r in element.basis.entries]
    rng.shuffle(rows)
    if len(rows) >= 2:
        c = rng.choice((1, -2, Fraction(1, 3)))
        rows[0] = [a + c * b for a, b in zip(rows[0], rows[1])]
    scales = (1, 2, -3, Fraction(1, 2), Fraction(-5, 7))
    rows = [[c * x for x in r] for r, c in zip(rows, (rng.choice(scales) for _ in rows))]
    if rows and rng.random() < 0.5:
        rows.append(list(rows[rng.randrange(len(rows))]))
    if rng.random() < 0.5:
        rows.append(["0/5"] * element.ambient_dim)
    return rows


def test_a_nest_written_any_way_parses_to_its_canonical_form():
    # the same nest written with shuffled, scaled or repeated basis rows,
    # with the zero and full space listed or left out, and with its elements
    # in any order, parses to an equal Nest; serializing it writes the
    # canonical form, which parsing and serializing leave as it is
    rng = random.Random("documents:nest-forms")
    for _ in range(40):
        nest = sampling.random_nest(rng)
        n = nest.ambient_dim
        elements = list(nest.elements[1:-1])
        if rng.random() < 0.5:
            elements.append(nest.elements[0])
        if rng.random() < 0.5:
            elements.append(nest.elements[-1])
        if elements and rng.random() < 0.5:
            elements.append(rng.choice(elements))
        rng.shuffle(elements)
        written = [[[str(x) for x in r] for r in _spanning_rows(rng, e)] for e in elements]
        text = json.dumps({"version": "nestlab/1", "ambient_dim": n, "nest": written})
        doc = parse_document(text)
        assert doc.nest == nest, text
        canonical = serialize_document(doc)
        assert canonical == serialize_document(WorkbenchDoc(ambient_dim=n, nest=nest))
        assert serialize_document(parse_document(canonical)) == canonical


def test_parse_rejects_bad_json():
    with pytest.raises(DocumentError, match="line"):
        parse_document("{not json")


def test_parse_rejects_wrong_version():
    with pytest.raises(DocumentError, match="version"):
        parse_document(json.dumps({"version": "nestlab/0"}))
    with pytest.raises(DocumentError):
        parse_document(json.dumps({}))


def test_parse_rejects_unknown_fields():
    with pytest.raises(DocumentError, match="extra"):
        parse_document(json.dumps({"version": "nestlab/1", "extra": 1}))


def test_sections_are_the_document_fields_in_order():
    # one table states the sections, the order of WorkbenchDoc's fields and
    # the fields that a document may carry
    assert tuple(documents.SECTIONS) == WorkbenchDoc.FIELDS
    assert tuple(inspect.signature(WorkbenchDoc).parameters) == WorkbenchDoc.FIELDS
    assert documents.DOCUMENT_FIELDS == {"version", *documents.SECTIONS}


def test_rationals_must_be_strings():
    doc = {
        "version": "nestlab/1",
        "ambient_dim": 2,
        "nest": [[[1, 0]]],
    }
    with pytest.raises(DocumentError, match="rationals are strings"):
        parse_document(json.dumps(doc))


def test_rational_strings_parse_exactly():
    doc = {
        "version": "nestlab/1",
        "ambient_dim": 2,
        "nest": [[["1/3", "-2"]]],
    }
    parsed = parse_document(json.dumps(doc))
    nest = parsed.require("nest")
    assert nest.elements[1].contains_vector((1, -6))


def test_nest_and_chain_are_exclusive():
    doc = {
        "version": "nestlab/1",
        "ambient_dim": 2,
        "nest": [[["1", "0"]]],
        "chain": {"nodes": []},
    }
    with pytest.raises(DocumentError, match="not both"):
        parse_document(json.dumps(doc))


def test_left_limit_must_name_a_node():
    raw = json.loads(fixture_text("chain-continuous"))
    raw["abstract_fn"]["left_limit"]["A"] = "nowhere"
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(raw))
    assert str(info.value) == (
        "abstract_fn: left limit at 'A' names 'nowhere', which is not a chain node"
    )


def test_a_map_may_leave_out_an_empty_left_limit_table():
    # on a chain with no limit from below the table is empty, and the
    # canonical form writes it back
    raw = json.loads(fixture_text("chain-pinf"))
    del raw["abstract_fn"]["left_limit"]
    assert serialize_document(parse_document(json.dumps(raw))) == fixture_text("chain-pinf")


def test_value_table_must_cover_all_nodes():
    raw = json.loads(fixture_text("chain-pinf"))
    del raw["abstract_fn"]["value"]["A"]
    with pytest.raises(DocumentError, match="misses"):
        parse_document(json.dumps(raw))


@pytest.mark.parametrize("name, lookup, path, message", [
    pytest.param("triangular", lambda doc: doc.require("support_fn"), "support_fn",
                 "document has no 'support_fn' section", id="support_fn"),
    pytest.param("support", lambda doc: doc.require("rank_one"), "rank_one",
                 "document has no 'rank_one' section", id="rank_one"),
    pytest.param("triangular", lambda doc: doc.require("chain"), "chain",
                 "document has no 'chain' section", id="chain"),
    pytest.param("triangular", lambda doc: doc.require("abstract_fn"), "abstract_fn",
                 "document has no 'abstract_fn' section", id="abstract_fn"),
    pytest.param("chain-continuous", lambda doc: doc.require("abstract_pair"), "abstract_pair",
                 "document has no 'abstract_pair' section", id="abstract_pair"),
    pytest.param("triangular", lambda doc: doc.matrices("target"), "operators",
                 "document has no operator list named 'target'", id="operators-target"),
    # a document with no nest and no 'ambient_dim' is told of the dimension
    pytest.param("chain-continuous", lambda doc: doc.require("nest"), "ambient_dim",
                 "document has no 'ambient_dim'", id="nest-without-ambient_dim"),
    pytest.param(None, lambda doc: doc.require("nest"), "nest",
                 "document has no 'nest' section", id="nest-with-ambient_dim"),
])
def test_missing_sections_are_reported(name, lookup, path, message):
    text = fixture_text(name) if name else json.dumps({"version": "nestlab/1", "ambient_dim": 2})
    with pytest.raises(DocumentError) as info:
        lookup(parse_document(text))
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


def test_operator_roles_parse_as_matrices():
    doc = parse_document(fixture_text("triangular"))
    (gen,) = doc.matrices("generators")
    assert gen.rows == gen.cols == 3
    assert gen.entries[0][2] == 1


def test_serialization_is_deterministic():
    text = fixture_text("decompose")
    doc = parse_document(text)
    assert serialize_document(doc) == serialize_document(parse_document(text))


def test_ambient_dim_rejects_booleans():
    raw = json.loads(fixture_text("support"))
    raw["ambient_dim"] = True
    with pytest.raises(DocumentError, match="ambient_dim"):
        parse_document(json.dumps(raw))


def test_gap_rejects_booleans():
    raw = json.loads(fixture_text("chain-pinf"))
    raw["chain"]["nodes"][1]["below"]["gap"] = True
    with pytest.raises(DocumentError, match=r"chain\.nodes\[1\]\.below\.gap"):
        parse_document(json.dumps(raw))


def test_support_fn_rejects_booleans():
    raw = json.loads(fixture_text("support"))
    raw["support_fn"] = [0, True, 2, 3]
    with pytest.raises(DocumentError, match="support_fn"):
        parse_document(json.dumps(raw))


def test_chain_nodes_must_be_an_array():
    raw = json.loads(fixture_text("chain-pinf"))
    raw["chain"]["nodes"] = 5
    with pytest.raises(DocumentError, match=r"^chain\.nodes: "):
        parse_document(json.dumps(raw))


def test_nest_elements_must_be_arrays():
    raw = json.loads(fixture_text("support"))
    raw["nest"] = [5]
    with pytest.raises(DocumentError, match=r"^nest\[0\]: "):
        parse_document(json.dumps(raw))


def test_node_labels_must_be_strings():
    raw = json.loads(fixture_text("chain-pinf"))
    raw["chain"]["nodes"][1]["label"] = 5
    with pytest.raises(DocumentError, match=r"^chain\.nodes\[1\]\.label: "):
        parse_document(json.dumps(raw))


def test_map_targets_must_be_node_labels():
    raw = json.loads(fixture_text("chain-pinf"))
    raw["abstract_fn"]["value"]["A"] = []
    with pytest.raises(DocumentError, match=r"^abstract_fn: "):
        parse_document(json.dumps(raw))
    raw = json.loads(fixture_text("chain-continuous"))
    raw["abstract_fn"]["left_limit"]["A"] = ["X"]
    with pytest.raises(DocumentError, match=r"^abstract_fn: "):
        parse_document(json.dumps(raw))


def test_deeply_nested_json_is_a_document_error():
    depth = 100_000
    with pytest.raises(DocumentError, match="deeper"):
        parse_document("[" * depth + "]" * depth)


def _one_rational(text):
    return json.dumps({"version": "nestlab/1", "ambient_dim": 1, "nest": [[[text]]]})


def _parsed_rational(text):
    """The value one rational string parses to, read back from the line it
    spans with 1 in Q^2."""
    doc = {"version": "nestlab/1", "ambient_dim": 2, "nest": [[["1", text]]]}
    (line,) = parse_document(json.dumps(doc)).nest.elements[1:-1]
    return line.basis.entries[0][1]


def test_rational_length_is_bounded():
    at_limit = "1" * MAX_RATIONAL_CHARS
    assert _parsed_rational(at_limit) == int(at_limit)
    with pytest.raises(DocumentError, match=r"^nest\[0\]\[0\]\[0\]: .*characters"):
        parse_document(_one_rational(at_limit + "1"))


def test_rational_exponent_is_bounded():
    # the line through (1, 10^e) is written as the row 1, 10^e, and the one
    # through (1, 10^-e) as 10^e, 1: e + 1 characters either way, so 255 is
    # the largest exponent whose written row parses back; 256 is read but
    # refused as the row it writes, and beyond it the exponent itself
    edge = MAX_RATIONAL_CHARS - 1
    assert _parsed_rational(f"1e{edge}") == 10 ** edge
    assert _parsed_rational(f"1e-{edge}") == Fraction(1, 10 ** edge)
    for written, path in ((f"1e{edge + 1}", "nest[0][0][1]"), (f"1e-{edge + 1}", "nest[0][0][0]")):
        with pytest.raises(DocumentError) as info:
            _parsed_rational(written)
        assert str(info.value) == f"{path}: rational has 257 characters, more than 256"
    for beyond in (f"1e{MAX_RATIONAL_CHARS + 1}", f"1E-{MAX_RATIONAL_CHARS + 1}"):
        with pytest.raises(DocumentError, match=r"^nest\[0\]\[0\]\[0\]: .*exponent"):
            parse_document(_one_rational(beyond))


def test_a_value_beyond_the_string_limit_is_refused_by_its_length():
    # the serializer could not write 10^5000 at all: int refuses to convert
    # more than 4,300 digits, so the length is counted from the bit length
    with pytest.raises(DocumentError) as info:
        WorkbenchDoc(rank_one=RankOne.of([Fraction(1, 10**5000)], [1]))
    assert str(info.value) == "rank_one.functional[0]: rational has 5003 characters, more than 256"


def test_a_parsed_document_is_frozen():
    doc = parse_document(fixture_text("support"))
    with pytest.raises(AttributeError, match="cannot assign to field 'support_fn'"):
        doc.support_fn = None


def test_parsing_builds_the_document_through_its_constructor(monkeypatch):
    # the constructor's checks see every section the parser read
    seen = []
    construct = WorkbenchDoc.__init__

    def spy(doc, **sections):
        seen.append((sections.get("nest"), sections.get("support_fn")))
        construct(doc, **sections)

    monkeypatch.setattr(WorkbenchDoc, "__init__", spy)
    doc = parse_document(fixture_text("support"))
    assert doc.support_fn is not None and seen == [(doc.nest, doc.support_fn)]


# 1/a, 1/b, 1/c with pairwise coprime 131-digit a, b, c: each entry is short,
# but the vector's primitive integer row (bc, ac, ab) has 261-digit entries
LONG_ROW = [f"1/{10**130 + d}" for d in (1, 3, 7)]


@pytest.mark.parametrize("basis", [
    pytest.param([LONG_ROW], id="line"),
    # the element is {x4 = 0}, whose echelon rows are short: the vector's own
    # row is still refused
    pytest.param([LONG_ROW + ["0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                 id="inside-a-short-element"),
])
def test_a_nest_vector_is_refused_by_its_row_before_any_span(monkeypatch, basis):
    spanned = []

    def spy(vectors, n):
        spanned.append(vectors)
        return span(vectors, n)

    monkeypatch.setattr(documents, "span", spy)
    with pytest.raises(DocumentError) as info:
        parse_document(_doc(ambient_dim=len(basis[0]), nest=[basis]))
    assert str(info.value) == "nest[0][0][0]: rational has 261 characters, more than 256"
    assert spanned == []


def _with_literal(name, place, literal):
    """A fixture's text with one field set to a raw JSON literal."""
    raw = json.loads(fixture_text(name))
    place(raw, "LITERAL")
    return json.dumps(raw).replace('"LITERAL"', literal)


def _set_gap(raw, v):
    raw["chain"]["nodes"][1]["below"]["gap"] = v


@pytest.mark.parametrize("literal", ["1e400", "1.0", '"2"', "null"])
def test_gap_is_an_integer_or_inf(literal):
    with pytest.raises(DocumentError, match=r"^chain\.nodes\[1\]\.below\.gap: "):
        parse_document(_with_literal("chain-pinf", _set_gap, literal))


@pytest.mark.parametrize("side, field", [
    ("below", "kind"), ("below", "cofinality"), ("above", "kind"), ("above", "coinitiality"),
])
@pytest.mark.parametrize("literal", ["5", "1e400", "null", '["limit"]', '"countably"'])
def test_chain_annotations_are_checked_words(side, field, literal):
    def place(raw, v):
        raw["chain"]["nodes"][1][side][field] = v

    with pytest.raises(DocumentError, match=rf"^chain\.nodes\[1\]\.{side}\.{field}: "):
        parse_document(_with_literal("chain-continuous", place, literal))


def test_nest_vectors_have_the_ambient_width():
    doc = {"version": "nestlab/1", "ambient_dim": 2, "nest": [[["1", "0"], ["0", "1", "0"]]]}
    with pytest.raises(DocumentError, match=r"^nest\[0\]\[1\]: vector has 3 entries"):
        parse_document(json.dumps(doc))
    doc["nest"] = [[["1"]]]
    with pytest.raises(DocumentError, match=r"^nest\[0\]\[0\]: vector has 1 entries"):
        parse_document(json.dumps(doc))


def test_wrong_width_nest_vector_exits_two_under_alg(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(
        {"version": "nestlab/1", "ambient_dim": 2, "nest": [[["1", "0", "0"]]]}
    ))
    assert main(["alg", "--doc", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("parse error: nest[0][0]: ")


@pytest.mark.parametrize("name, place", [
    ("support", lambda raw, v: raw.update(ambient_dim=v)),
    ("support", lambda raw, v: raw["support_fn"].__setitem__(0, v)),
    ("chain-pinf", _set_gap),
], ids=["ambient_dim", "support_fn", "gap"])
def test_huge_integer_literals_are_document_errors(name, place):
    with pytest.raises(DocumentError, match=r"^\$: .*digits"):
        parse_document(_with_literal(name, place, "9" * 5000))


def test_ambient_dim_is_bounded():
    nest = [[["1"] + ["0"] * (MAX_AMBIENT_DIM - 1)]]
    doc = {"version": "nestlab/1", "ambient_dim": MAX_AMBIENT_DIM, "nest": nest}
    assert parse_document(json.dumps(doc)).require("nest").ambient_dim == MAX_AMBIENT_DIM
    doc["ambient_dim"] = MAX_AMBIENT_DIM + 1
    with pytest.raises(DocumentError, match=r"^ambient_dim: "):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("text, path", [
    (json.dumps({"version": "nestlab/1", "chain": {"nodes": 5}}), "chain.nodes"),
    (json.dumps({"version": "nestlab/1", "ambient_dim": 2, "nest": [5]}), "nest[0]"),
    (json.dumps({"version": "nestlab/1", "chain": {"nodes": [{"label": 5}]}}),
     "chain.nodes[0].label"),
    (_one_rational("1e999999"), "nest[0][0][0]"),
    ("[" * 100_000 + "]" * 100_000, "$"),
    pytest.param(_with_literal("support", lambda raw, v: raw.update(ambient_dim=v),
                               "9" * 5000), "$", id="huge-integer"),
    pytest.param(_with_literal("chain-pinf", _set_gap, "1e400"),
                 "chain.nodes[1].below.gap", id="float-gap"),
    pytest.param(json.dumps({"version": "nestlab/1", "ambient_dim": 100_000_000, "nest": []}),
                 "ambient_dim", id="huge-ambient-dim"),
    pytest.param(json.dumps({"version": "nestlab/1", "ambient_dim": 2,
                             "nest": [[["1", "0", "0"]]]}),
                 "nest[0][0]", id="wide-nest-vector"),
    pytest.param(_with_literal("chain-continuous",
                               lambda raw, v: raw["chain"]["nodes"][0]["above"].update(kind=v),
                               "5"),
                 "chain.nodes[0].above.kind", id="numeric-kind"),
    pytest.param(_with_literal("chain-continuous",
                               lambda raw, v: raw["chain"]["nodes"][1]["below"].update(cofinality=v),
                               "7"),
                 "chain.nodes[1].below.cofinality", id="numeric-cofinality"),
    pytest.param(_with_literal("support",
                               lambda raw, v: raw.update(operators={"generators": [v]}),
                               json.dumps([["1", "0", "0"]] * 2)),
                 "operators.generators[0]", id="short-generator"),
    pytest.param(json.dumps({"version": "nestlab/1", "ambient_dim": 2,
                             "operators": {"generators": [[["1", "0", "0"]] * 3]}}),
                 "operators.generators[0]", id="wide-generator"),
    pytest.param(_with_literal("decompose",
                               lambda raw, v: raw["rank_one"].update(functional=v),
                               '["0", "1"]'),
                 "rank_one.functional", id="short-functional"),
    pytest.param(_with_literal("decompose",
                               lambda raw, v: raw["rank_one"].update(vector=v),
                               '["1", "0", "0", "0"]'),
                 "rank_one.vector", id="long-vector"),
    pytest.param(json.dumps({"version": "nestlab/1",
                             "rank_one": {"functional": ["1", "0", "0"], "vector": ["1", "0"]}}),
                 "rank_one", id="rank-one-sizes-differ"),
    pytest.param(_with_literal("support", lambda raw, v: raw.update(support_fn=v),
                               "[0, 2, 3]"),
                 "support_fn", id="short-support-fn"),
    pytest.param(json.dumps({"version": "nestlab/1", "ambient_dim": 2,
                             "nest": [[["1", "0"]]], "support_fn": [0, 1, 7]}),
                 "support_fn", id="support-fn-out-of-range"),
    pytest.param(_with_literal("support", lambda raw, v: raw.update(support_fn=v),
                               "[0, 3, 2, 3]"),
                 "support_fn", id="support-fn-not-monotone"),
])
def test_malformed_documents_exit_two_with_a_path(tmp_path, capsys, text, path):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    assert main(["chain-validate", "--doc", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {path}: ") and "Traceback" not in err


def _doc(**fields):
    return json.dumps({"version": "nestlab/1", **fields})


def _without(name, section, key):
    raw = json.loads(fixture_text(name))
    del raw[section][key]
    return json.dumps(raw)


ONE_NODE_CHAIN = {"nodes": [{"label": "0", "above": {"kind": "attained"}},
                            {"label": "X", "below": {"kind": "attained", "gap": 1}}]}


def _one_side(i, side, **annotation):
    """ONE_NODE_CHAIN with node i's annotation on one side replaced."""
    nodes = [dict(node) for node in ONE_NODE_CHAIN["nodes"]]
    nodes[i][side] = annotation
    return _doc(chain={"nodes": nodes})


@pytest.mark.parametrize("text, path, message", [
    pytest.param(_one_rational("1eX"), "nest[0][0][0]",
                 "bad rational '1eX': Invalid literal for Fraction: '1eX'", id="bad-exponent"),
    pytest.param(_doc(ambient_dim=2, operators={"generators": [[]]}), "operators.generators[0]",
                 "expected a non-empty array of rows", id="empty-matrix"),
    pytest.param(_doc(chain={}), "chain", "a chain needs a 'nodes' array", id="chain-no-nodes"),
    pytest.param(_doc(chain=ONE_NODE_CHAIN, abstract_fn={"left_limit": {}}), "abstract_fn",
                 "an abstract map needs a 'value' table", id="map-no-value"),
    pytest.param("[]", None, "a document is a JSON object", id="not-an-object"),
    pytest.param(_doc(nest=[]), "nest", "a nest needs 'ambient_dim'", id="nest-no-ambient-dim"),
    pytest.param(_doc(ambient_dim=2, nest={}), "nest", "'nest' must be an array of bases",
                 id="nest-not-a-list"),
    pytest.param(_doc(ambient_dim=2, operators=[]), "operators",
                 "'operators' must map role names to matrix lists", id="operators-not-an-object"),
    pytest.param(_doc(ambient_dim=2, operators={"generators": {}}), "operators.generators",
                 "each operator role holds an array of matrices", id="role-not-a-list"),
    pytest.param(_without("decompose", "rank_one", "vector"), "rank_one",
                 "'rank_one' needs 'functional' and 'vector'", id="rank-one-no-vector"),
    pytest.param(_without("chain-step", "abstract_pair", "psi"), "abstract_pair",
                 "'abstract_pair' needs 'phi' and 'psi'", id="abstract-pair-no-psi"),
    # values the parser reads but would write longer than it reads back: a
    # rational whose canonical string is long, and a nest whose echelon rows
    # grow past the bound from entries of 130 digits
    pytest.param(_doc(ambient_dim=1, rank_one={"functional": ["1e256"], "vector": ["1"]}),
                 "rank_one.functional[0]", "rational has 257 characters, more than 256",
                 id="rank-one-1e256"),
    pytest.param(_doc(ambient_dim=3, nest=[[["1", "7" * 130, "3" * 130],
                                            ["5" * 130, "1", "2" * 130]]]),
                 "nest[0][0][0]", "rational has 260 characters, more than 256",
                 id="nest-rows-grow"),
    # each rule of `chaincalc.SIDES`, on each side, reached through the parser
    pytest.param(_one_side(1, "below", kind="attained", gap=1, cofinality="countable"),
                 "chain", "attained node 'X' takes no cofinality mark",
                 id="attained-below-marked"),
    pytest.param(_one_side(0, "above", kind="attained", coinitiality="countable"),
                 "chain", "attained node '0' takes no coinitiality mark",
                 id="attained-above-marked"),
    pytest.param(_one_side(1, "below", kind="limit"),
                 "chain", "node 'X' needs a cofinality mark", id="limit-below-unmarked"),
    pytest.param(_one_side(0, "above", kind="limit"),
                 "chain", "node '0' needs a coinitiality mark", id="limit-above-unmarked"),
    pytest.param(_one_side(0, "below", kind="attained", gap=1),
                 "chain", 'node "0" takes no below annotation', id="zero-below"),
    pytest.param(_one_side(1, "above", kind="attained"),
                 "chain", 'node "X" takes no above annotation', id="top-above"),
    pytest.param(_one_side(1, "below", kind="attained", gap=0),
                 "chain", "node 'X' needs a positive or infinite jump dimension",
                 id="gap-zero"),
])
def test_malformed_sections_name_their_field(text, path, message):
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert info.value.path == path
    assert str(info.value) == (f"{path}: {message}" if path else message)
