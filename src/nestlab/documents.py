"""Workbench documents: the versioned on-disk format the CLI consumes.

A document is JSON with an explicit ``"version": "nestlab/1"`` field.
Rationals are strings ("p/q" or "p"), matrices are row-major nested arrays,
and a document carries either a concrete nest or an abstract chain, never
both.  `parse_document` builds each value once, through its constructor, and
`_checked` turns any fault a constructor raises into a DocumentError at the
section's path, so a `WorkbenchDoc` holds only checked values.  Its fields
name the sections, and `require(section)` looks one up.  A document built in
Python takes its dimension from its nest and its chain from its maps.
Serialization is canonical: sorted keys, canonical rational strings, and a
nest as its proper elements in increasing order, each as the primitive
integer rows of its reduced echelon basis.  Parsing followed by
serialization is therefore the identity on canonical documents, and takes
any other spelling of the same values to the canonical one.  The `_fmt_*`
writers here also produce every value the CLI prints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Callable, Sequence

from .chaincalc import (
    ATTAINED,
    COUNTABLE,
    LIMIT,
    UNCOUNTABLE,
    AbstractNest,
    AbstractSupportFn,
    ChainNode,
    SupportPair,
    validate_chain,
)
from .errors import DocumentError, NestlabError
from .nest import Nest, validate_nest
from .opspace import OperatorSpace, RankOne, SupportFn
from .ratlin import Matrix, Vector, span

VERSION = "nestlab/1"

# Bounds on a rational string, checked before Fraction sees it, so that a
# short document cannot ask for a huge integer: at most this many characters,
# and a decimal exponent ("1e5", "2.5E-3") of at most this magnitude.
MAX_RATIONAL_CHARS = 256
MAX_RATIONAL_EXPONENT = 256
# A concrete nest lives in Q^n with n at most this; operator spaces have
# width n^2 and the exact elimination over them grows faster than that.
MAX_AMBIENT_DIM = 16


def _rational(raw: Any, path: str) -> Fraction:
    if not isinstance(raw, str):
        raise DocumentError(
            f"rationals are strings like '3/4' or '-2', got {raw!r}", path=path
        )
    if len(raw) > MAX_RATIONAL_CHARS:
        raise DocumentError(
            f"rational has {len(raw)} characters, more than {MAX_RATIONAL_CHARS}",
            path=path,
        )
    _, e, exponent = raw.lower().partition("e")
    if e:
        try:
            magnitude = abs(int(exponent))
        except ValueError:
            magnitude = 0  # malformed; Fraction rejects it below
        if magnitude > MAX_RATIONAL_EXPONENT:
            raise DocumentError(
                f"rational exponent {exponent.strip()} is beyond "
                f"+-{MAX_RATIONAL_EXPONENT}",
                path=path,
            )
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {raw!r}: {exc}", path=path) from None


def _vector(raw: Any, path: str, n: int | None = None) -> Vector:
    """An array of rationals; with n given, it must have n entries."""
    if not isinstance(raw, list):
        raise DocumentError("expected an array of rationals", path=path)
    vec = tuple(_rational(x, f"{path}[{i}]") for i, x in enumerate(raw))
    if n is not None and len(vec) != n:
        raise DocumentError(f"vector has {len(vec)} entries, expected {n}", path=path)
    return vec


def _matrix(raw: Any, path: str, n: int | None) -> Matrix:
    """A matrix of rationals; with n given, it must be n x n."""
    if not isinstance(raw, list) or not raw:
        raise DocumentError("expected a non-empty array of rows", path=path)
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(raw)]
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise DocumentError("matrix rows have unequal lengths", path=f"{path}[{i}]")
    if n is not None and (len(rows), width) != (n, n):
        raise DocumentError(f"matrix is {len(rows)}x{width}, expected {n}x{n}", path=path)
    return Matrix(len(rows), width, tuple(rows))


def _checked(path: str, build: Callable, *args: Any) -> Any:
    """build(*args), with any fault its constructor raises turned into a
    DocumentError at the section's path."""
    try:
        return build(*args)
    except NestlabError as exc:
        raise DocumentError(str(exc), path=path) from None


def _fmt_vector(v: Sequence[Fraction]) -> list[str]:
    return [str(x) for x in v]


def _fmt_matrix(m: Matrix) -> list[list[str]]:
    return [_fmt_vector(r) for r in m.entries]


# the words a 'kind' and a cofinality or coinitiality mark may take
KINDS = (ATTAINED, LIMIT)
MARKS = (COUNTABLE, UNCOUNTABLE)


def _not_one_of(allowed: tuple[str, ...], path: str) -> DocumentError:
    return DocumentError(f"expected one of {', '.join(map(repr, allowed))}", path=path)


def _parse_chain(raw: Any, path: str) -> AbstractNest:
    # field paths are formatted only on the error branches
    if not isinstance(raw, dict) or "nodes" not in raw:
        raise DocumentError("a chain needs a 'nodes' array", path=path)
    items = raw["nodes"]
    if not isinstance(items, list):
        raise DocumentError("'nodes' must be an array of nodes", path=f"{path}.nodes")
    nodes = []
    for i, item in enumerate(items):
        if not isinstance(item, dict) or "label" not in item:
            raise DocumentError("each node needs at least a 'label'", path=f"{path}.nodes[{i}]")
        label = item["label"]
        if not isinstance(label, str):
            raise DocumentError("a node 'label' is a string", path=f"{path}.nodes[{i}].label")
        below_kind = gap = cofinality = above_kind = coinitiality = None
        below = item.get("below")
        if below is not None:
            if not isinstance(below, dict) or "kind" not in below:
                raise DocumentError("'below' needs a 'kind'", path=f"{path}.nodes[{i}]")
            below_kind = below["kind"]
            if below_kind not in KINDS:
                raise _not_one_of(KINDS, f"{path}.nodes[{i}].below.kind")
            if "gap" in below:
                gap = below["gap"]
                if gap == "inf":
                    gap = math.inf
                elif type(gap) is not int:
                    raise DocumentError(
                        "'gap' is a positive integer or \"inf\"",
                        path=f"{path}.nodes[{i}].below.gap",
                    )
            if "cofinality" in below:
                cofinality = below["cofinality"]
                if cofinality not in MARKS:
                    raise _not_one_of(MARKS, f"{path}.nodes[{i}].below.cofinality")
        above = item.get("above")
        if above is not None:
            if not isinstance(above, dict) or "kind" not in above:
                raise DocumentError("'above' needs a 'kind'", path=f"{path}.nodes[{i}]")
            above_kind = above["kind"]
            if above_kind not in KINDS:
                raise _not_one_of(KINDS, f"{path}.nodes[{i}].above.kind")
            if "coinitiality" in above:
                coinitiality = above["coinitiality"]
                if coinitiality not in MARKS:
                    raise _not_one_of(MARKS, f"{path}.nodes[{i}].above.coinitiality")
        nodes.append(ChainNode(label, below_kind, gap, cofinality, above_kind, coinitiality))
    return _checked(path, validate_chain, nodes)


def _fmt_chain(chain: AbstractNest) -> dict:
    nodes = []
    for node in chain.nodes:
        item: dict[str, Any] = {"label": node.label}
        if node.below is not None:
            below: dict[str, Any] = {"kind": node.below}
            if node.gap is not None:
                below["gap"] = "inf" if node.gap == math.inf else node.gap
            if node.cofinality is not None:
                below["cofinality"] = node.cofinality
            item["below"] = below
        if node.above is not None:
            above: dict[str, Any] = {"kind": node.above}
            if node.coinitiality is not None:
                above["coinitiality"] = node.coinitiality
            item["above"] = above
        nodes.append(item)
    return {"nodes": nodes}


def _resolve_tables(
    chain: AbstractNest, value: dict, left_limit: dict, path: str
) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
    """Index tables for a map's label tables.  A label that is no node, or a
    node the value table misses, is a DocumentError at the map's path."""
    index = chain.label_index
    values = [0] * len(index)
    for key, target in value.items():
        if key not in index:
            raise DocumentError(f"unknown node {key!r} in value table", path=path)
        if not isinstance(target, str) or target not in index:
            raise DocumentError(f"unknown node {target!r} in value table", path=path)
        values[index[key]] = index[target]
    if len(value) != len(index):
        # every key is a node, so some node is missing
        missing = sorted(set(index) - set(value))
        raise DocumentError(f"value table misses nodes {missing}", path=path)
    left: list[int | None] = [None] * len(index)
    for key, target in left_limit.items():
        if key not in index:
            raise DocumentError(f"unknown node {key!r} in left_limit table", path=path)
        if not isinstance(target, str):
            raise DocumentError(
                f"left limit at {key!r} is {target!r}, not a node label", path=path
            )
        if target not in index:
            raise DocumentError(
                f"left limit at {key!r} names {target!r}, which is not a chain node",
                path=path,
            )
        left[index[key]] = index[target]
    return tuple(values), tuple(left)


def _parse_abstract_fn(raw: Any, chain: AbstractNest, path: str) -> AbstractSupportFn:
    if not isinstance(raw, dict) or "value" not in raw:
        raise DocumentError("an abstract map needs a 'value' table", path=path)
    value = raw["value"]
    if not isinstance(value, dict):
        raise DocumentError("'value' must map node labels to node labels", path=path)
    left = raw.get("left_limit", {})
    if not isinstance(left, dict):
        raise DocumentError("'left_limit' must map node labels to node labels", path=path)
    return _checked(path, AbstractSupportFn, chain, *_resolve_tables(chain, value, left, path))


def _fmt_abstract_fn(f: AbstractSupportFn) -> dict:
    labels = list(f.chain.label_index)
    return {
        "value": {a: labels[v] for a, v in zip(labels, f.value)},
        "left_limit": {a: labels[ll] for a, ll in zip(labels, f.left_limit) if ll is not None},
    }


def _fmt_pair(pair: SupportPair) -> dict:
    return {"phi": _fmt_abstract_fn(pair.phi), "psi": _fmt_abstract_fn(pair.psi)}


def _fmt_rank_one(r: RankOne) -> dict:
    return {"functional": _fmt_vector(r.functional), "vector": _fmt_vector(r.vector)}


def _fmt_space(space: OperatorSpace) -> dict:
    # each canonical basis row is a row-major n x n matrix
    n = space.ambient_dim
    return {
        "dimension": space.dim,
        "basis": [
            [_fmt_vector(r[i * n:(i + 1) * n]) for i in range(n)]
            for r in space.space.basis.entries
        ],
    }


def _support_table(phi: SupportFn) -> dict:
    return {
        "values": list(phi.values),
        "element_dims": [e.dim for e in phi.nest.elements],
    }


@dataclass
class WorkbenchDoc:
    """Parsed form of one workbench document: every value in it has passed
    its constructor.  The fields are the document's sections."""

    ambient_dim: int | None = None
    nest: Nest | None = None
    operators: dict[str, list[Matrix]] = field(default_factory=dict)
    support_fn: SupportFn | None = None
    rank_one: RankOne | None = None
    chain: AbstractNest | None = None
    abstract_fn: AbstractSupportFn | None = None
    abstract_pair: SupportPair | None = None

    def __post_init__(self):
        # a nest brings its ambient dimension, and a map its chain; the parser
        # fills an empty document, so it never gets here with a section given
        if self.nest is not None:
            self._implied("ambient_dim", self.nest.ambient_dim, "nest")
        if self.abstract_fn is not None:
            self._implied("chain", self.abstract_fn.chain, "abstract_fn")
        if self.abstract_pair is not None:
            self._implied("chain", self.abstract_pair.phi.chain, "abstract_pair")

    def _implied(self, name: str, value: Any, source: str) -> None:
        given = getattr(self, name)
        if given is None:
            setattr(self, name, value)
        elif given != value:
            raise DocumentError(f"disagrees with the {source}", path=name)

    def require(self, section: str) -> Any:
        value = getattr(self, section)
        if value is None:
            if section == "nest" and self.ambient_dim is None:
                raise DocumentError("document has no 'ambient_dim'", path="ambient_dim")
            raise DocumentError(f"document has no {section!r} section", path=section)
        return value

    def matrices(self, role: str) -> list[Matrix]:
        if role not in self.operators:
            raise DocumentError(
                f"document has no operator list named {role!r}", path="operators"
            )
        return self.operators[role]


# the fields a document may carry
DOCUMENT_FIELDS = frozenset(("version", *(f.name for f in fields(WorkbenchDoc))))


def parse_document(text: str) -> WorkbenchDoc:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError(
            "JSON nests deeper than the parser can follow", path="$"
        ) from None
    except ValueError:
        # an integer literal longer than int's string conversion limit
        raise DocumentError(
            "a JSON integer has more digits than the parser converts", path="$"
        ) from None
    if not isinstance(raw, dict):
        raise DocumentError("a document is a JSON object")
    if raw.get("version") != VERSION:
        raise DocumentError(
            f"unsupported document version {raw.get('version')!r}, expected {VERSION!r}",
            path="version",
        )
    for key in raw:
        if key not in DOCUMENT_FIELDS:
            raise DocumentError(f"unknown document field {key!r}", path=key)
    if "nest" in raw and "chain" in raw:
        raise DocumentError(
            "a document carries either a concrete nest or an abstract chain, not both"
        )

    doc = WorkbenchDoc()
    if "ambient_dim" in raw:
        dim = raw["ambient_dim"]
        if type(dim) is not int or dim < 1:
            raise DocumentError("'ambient_dim' must be a positive integer", path="ambient_dim")
        if dim > MAX_AMBIENT_DIM:
            raise DocumentError(f"'ambient_dim' is at most {MAX_AMBIENT_DIM}", path="ambient_dim")
        doc.ambient_dim = dim
    if "nest" in raw:
        if doc.ambient_dim is None:
            raise DocumentError("a nest needs 'ambient_dim'", path="nest")
        if not isinstance(raw["nest"], list):
            raise DocumentError("'nest' must be an array of bases", path="nest")
        subspaces = []
        for i, basis in enumerate(raw["nest"]):
            if not isinstance(basis, list):
                raise DocumentError("each nest element is an array of vectors",
                                    path=f"nest[{i}]")
            subspaces.append(span(
                [_vector(v, f"nest[{i}][{k}]", doc.ambient_dim) for k, v in enumerate(basis)],
                doc.ambient_dim,
            ))
        doc.nest = _checked("nest", validate_nest, subspaces, doc.ambient_dim)
    if "operators" in raw:
        ops = raw["operators"]
        if not isinstance(ops, dict):
            raise DocumentError("'operators' must map role names to matrix lists", path="operators")
        for role, items in ops.items():
            if not isinstance(items, list):
                raise DocumentError("each operator role holds an array of matrices",
                                    path=f"operators.{role}")
            doc.operators[role] = [
                _matrix(m, f"operators.{role}[{i}]", doc.ambient_dim)
                for i, m in enumerate(items)
            ]
    if "support_fn" in raw:
        sv = raw["support_fn"]
        if not isinstance(sv, list) or not all(type(x) is int for x in sv):
            raise DocumentError("'support_fn' is an array of element indices", path="support_fn")
        doc.support_fn = _checked("support_fn", SupportFn, doc.require("nest"), tuple(sv))
    if "rank_one" in raw:
        ro = raw["rank_one"]
        if not isinstance(ro, dict) or "functional" not in ro or "vector" not in ro:
            raise DocumentError("'rank_one' needs 'functional' and 'vector'", path="rank_one")
        functional = _vector(ro["functional"], "rank_one.functional", doc.ambient_dim)
        vector = _vector(ro["vector"], "rank_one.vector", doc.ambient_dim)
        doc.rank_one = _checked("rank_one", RankOne, functional, vector)
    if "chain" in raw:
        doc.chain = _parse_chain(raw["chain"], "chain")
    if "abstract_fn" in raw:
        doc.abstract_fn = _parse_abstract_fn(
            raw["abstract_fn"], doc.require("chain"), "abstract_fn"
        )
    if "abstract_pair" in raw:
        ap = raw["abstract_pair"]
        if not isinstance(ap, dict) or "phi" not in ap or "psi" not in ap:
            raise DocumentError("'abstract_pair' needs 'phi' and 'psi'", path="abstract_pair")
        chain = doc.require("chain")
        doc.abstract_pair = _checked(
            "abstract_pair", SupportPair,
            _parse_abstract_fn(ap["phi"], chain, "abstract_pair.phi"),
            _parse_abstract_fn(ap["psi"], chain, "abstract_pair.psi"),
        )
    return doc


def document_payload(doc: WorkbenchDoc) -> dict:
    """The JSON object for a document, with canonical leaf encodings."""
    out: dict[str, Any] = {"version": VERSION}
    if doc.ambient_dim is not None:
        out["ambient_dim"] = doc.ambient_dim
    if doc.nest is not None:
        # the proper elements, each as its canonical integer rows
        out["nest"] = [[_fmt_vector(r) for r in e.rows] for e in doc.nest.elements[1:-1]]
    if doc.operators:
        out["operators"] = {
            role: [_fmt_matrix(m) for m in items]
            for role, items in doc.operators.items()
        }
    if doc.support_fn is not None:
        out["support_fn"] = list(doc.support_fn.values)
    if doc.rank_one is not None:
        out["rank_one"] = _fmt_rank_one(doc.rank_one)
    if doc.chain is not None:
        out["chain"] = _fmt_chain(doc.chain)
    if doc.abstract_fn is not None:
        out["abstract_fn"] = _fmt_abstract_fn(doc.abstract_fn)
    if doc.abstract_pair is not None:
        out["abstract_pair"] = _fmt_pair(doc.abstract_pair)
    return out


def serialize_document(doc: WorkbenchDoc) -> str:
    return json.dumps(document_payload(doc), sort_keys=True, indent=2) + "\n"
