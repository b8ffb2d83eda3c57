"""Workbench documents: the versioned on-disk format the CLI consumes.

A document is JSON with an explicit ``"version": "nestlab/1"`` field.
Rationals are strings ("p/q" or "p") of at most `MAX_RATIONAL_CHARS`, the
one bound on a rational; matrices are row-major nested arrays, and a
document carries either a concrete nest or an abstract chain, never both.
A document has one construction path: `parse_document` builds each value
once, through its constructor (`_checked` turns a fault one raises into a
DocumentError at the section's path), and then the frozen `WorkbenchDoc`
through its own, as Python code does.  So the `WorkbenchDoc` constructor
states each rule that relates or bounds sections, in the parser's words:
the nest comes from the support table, the dimension from the nest and the
chain from the maps, and a nest beside a chain, a dimension out of bounds, a
matrix or vector of another width, an empty matrix or a value written longer
than the bound is refused, so what a document writes parses back.
`SECTIONS` is the one home of the section list and order: it holds each
section's reader and writer, `parse_document`, `document_payload` and
`DOCUMENT_FIELDS` iterate it, and `WorkbenchDoc.FIELDS` is its section
list, one field per section, which `require(section)` looks up.  The
parser bounds each nest vector's primitive integer row the same way before
it spans any element.  A chain node's two sides are read and written by
the grammar of `chaincalc.SIDES`.
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
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Sequence

from .chaincalc import (
    GAP_SIDE,
    KINDS,
    MARKS,
    SIDES,
    AbstractNest,
    AbstractSupportFn,
    ChainNode,
    SupportPair,
    validate_chain,
)
from .errors import DocumentError, NestlabError
from .nest import Nest, validate_nest
from .opspace import OperatorSpace, RankOne, SupportFn
from .ratlin import Matrix, Vector, _check_length, int_row, span
from .value import Value

__all__ = ["WorkbenchDoc", "document_payload", "parse_document", "serialize_document"]

VERSION = "nestlab/1"
NEST_OR_CHAIN = "a document carries either a concrete nest or an abstract chain, not both"
NO_ROWS = "expected a non-empty array of rows"

# The one bound on a rational: its string has at most this many characters,
# checked before Fraction sees it, so that a short document cannot ask for a
# huge integer.  A decimal exponent ("1e5", "2.5E-3") beyond it is refused
# too, as it writes a longer canonical string, and a document refuses any
# value that it would write longer (`_check_written`).
MAX_RATIONAL_CHARS = 256
# a numerator and denominator of this many bits together write at most
# MAX_RATIONAL_CHARS characters: b bits make at most b*log10(2) + 1 digits,
# and a sign and a slash add two more
_SHORT_BITS = int((MAX_RATIONAL_CHARS - 4) / math.log10(2))
# A concrete nest lives in Q^n with n at most this; operator spaces have
# width n^2 and the exact elimination over them grows faster than that.
MAX_AMBIENT_DIM = 16


def _rational(raw: Any, path: str) -> Fraction:
    if not isinstance(raw, str):
        raise DocumentError(
            f"rationals are strings like '3/4' or '-2', got {raw!r}", path=path
        )
    if len(raw) > MAX_RATIONAL_CHARS:
        raise _too_long(len(raw), path)
    _, e, exponent = raw.lower().partition("e")
    if e:
        try:
            magnitude = abs(int(exponent))
        except ValueError:
            magnitude = 0  # malformed; Fraction rejects it below
        if magnitude > MAX_RATIONAL_CHARS:
            raise DocumentError(
                f"rational exponent {exponent.strip()} is beyond "
                f"+-{MAX_RATIONAL_CHARS}",
                path=path,
            )
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {raw!r}: {exc}", path=path) from None


def _too_long(chars: int, path: str) -> DocumentError:
    return DocumentError(
        f"rational has {chars} characters, more than {MAX_RATIONAL_CHARS}", path=path
    )


def _digits(k: int) -> int:
    """The decimal digits of k != 0, counted without str, which refuses an
    integer beyond int's string conversion limit: with b bits, k has
    floor(b*log10(2)) digits or one more."""
    k = abs(k)
    d = int(k.bit_length() * math.log10(2))
    return d + 1 if k >= 10**d else d


def _check_written(vec: Sequence[Fraction], path: str) -> None:
    """Refuse an entry whose canonical string is longer than the parser reads
    back, at its path and in the parser's words.  Bit lengths come first, so
    a short entry is never written out and a huge one never converted."""
    for j, x in enumerate(vec):
        p, q = x.numerator, x.denominator
        if p.bit_length() + q.bit_length() > _SHORT_BITS:
            chars = (p < 0) + _digits(p) + (1 + _digits(q) if q != 1 else 0)
            if chars > MAX_RATIONAL_CHARS:
                raise _too_long(chars, f"{path}[{j}]")


def _vector(raw: Any, path: str, n: int | None = None) -> Vector:
    """An array of rationals; with n given, it must have n entries."""
    if not isinstance(raw, list):
        raise DocumentError("expected an array of rationals", path=path)
    vec = tuple(_rational(x, f"{path}[{i}]") for i, x in enumerate(raw))
    return _checked(path, _check_length, vec, n)


def _matrix(raw: Any, path: str) -> Matrix:
    """A matrix of rationals, with rows of equal length."""
    if not isinstance(raw, list) or not raw:
        raise DocumentError(NO_ROWS, path=path)
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(raw)]
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise DocumentError("matrix rows have unequal lengths", path=f"{path}[{i}]")
    return Matrix(len(rows), width, tuple(rows))


def _dimension(dim: Any) -> int:
    if type(dim) is not int or dim < 1:
        raise DocumentError("'ambient_dim' must be a positive integer", path="ambient_dim")
    if dim > MAX_AMBIENT_DIM:
        raise DocumentError(f"'ambient_dim' is at most {MAX_AMBIENT_DIM}", path="ambient_dim")
    return dim


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
        fields = [label]
        for side, mark, _ in SIDES:
            raw_side = item.get(side)
            kind = gap = marked = None
            if raw_side is not None:
                if not isinstance(raw_side, dict) or "kind" not in raw_side:
                    raise DocumentError(f"'{side}' needs a 'kind'", path=f"{path}.nodes[{i}]")
                kind = raw_side["kind"]
                if kind not in KINDS:
                    raise _not_one_of(KINDS, f"{path}.nodes[{i}].{side}.kind")
                if side == GAP_SIDE and "gap" in raw_side:
                    gap = raw_side["gap"]
                    if gap == "inf":
                        gap = math.inf
                    elif type(gap) is not int:
                        raise DocumentError(
                            "'gap' is a positive integer or \"inf\"",
                            path=f"{path}.nodes[{i}].{side}.gap",
                        )
                if mark in raw_side:
                    marked = raw_side[mark]
                    if marked not in MARKS:
                        raise _not_one_of(MARKS, f"{path}.nodes[{i}].{side}.{mark}")
            # positional, which costs less than keywords on this per-node path,
            # in the field order that SIDES states for `ChainNode`
            fields += (kind, gap, marked) if side == GAP_SIDE else (kind, marked)
        nodes.append(ChainNode(*fields))
    return _checked(path, validate_chain, nodes)


def _fmt_chain(chain: AbstractNest) -> dict:
    nodes = []
    for node in chain.nodes:
        item: dict[str, Any] = {"label": node.label}
        for side, mark, _ in SIDES:
            kind = getattr(node, side)
            if kind is not None:
                annotation: dict[str, Any] = {"kind": kind}
                if side == GAP_SIDE and node.gap is not None:
                    annotation["gap"] = "inf" if node.gap == math.inf else node.gap
                marked = getattr(node, mark)
                if marked is not None:
                    annotation[mark] = marked
                item[side] = annotation
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


def _require(get: Callable[[str], Any], section: str) -> Any:
    value = get(section)
    if value is None:
        if section == "nest" and get("ambient_dim") is None:
            raise DocumentError("document has no 'ambient_dim'", path="ambient_dim")
        raise DocumentError(f"document has no {section!r} section", path=section)
    return value


def _read_nest(raw: Any, sections: dict[str, Any]) -> Nest:
    n = sections.get("ambient_dim")
    if n is None:
        raise DocumentError("a nest needs 'ambient_dim'", path="nest")
    if not isinstance(raw, list):
        raise DocumentError("'nest' must be an array of bases", path="nest")
    subspaces = []
    for i, basis in enumerate(raw):
        if not isinstance(basis, list):
            raise DocumentError("each nest element is an array of vectors", path=f"nest[{i}]")
        # each vector's primitive integer row is bounded before any
        # element is spanned, so a long row costs no elimination
        rows = []
        for k, v in enumerate(basis):
            row = int_row(_vector(v, f"nest[{i}][{k}]", n))
            if row is not None:
                _check_written(row, f"nest[{i}][{k}]")
                rows.append(row)
        subspaces.append(span(rows, n))
    return _checked("nest", validate_nest, subspaces, n)


def _read_operators(raw: Any, sections: dict[str, Any]) -> dict[str, list[Matrix]]:
    if not isinstance(raw, dict):
        raise DocumentError("'operators' must map role names to matrix lists", path="operators")
    operators = {}
    for role, items in raw.items():
        if not isinstance(items, list):
            raise DocumentError("each operator role holds an array of matrices",
                                path=f"operators.{role}")
        operators[role] = [_matrix(m, f"operators.{role}[{i}]") for i, m in enumerate(items)]
    return operators


def _read_support_fn(raw: Any, sections: dict[str, Any]) -> SupportFn:
    if not isinstance(raw, list) or not all(type(x) is int for x in raw):
        raise DocumentError("'support_fn' is an array of element indices", path="support_fn")
    return _checked("support_fn", SupportFn, _require(sections.get, "nest"), tuple(raw))


def _read_rank_one(raw: Any, sections: dict[str, Any]) -> RankOne:
    if not isinstance(raw, dict) or "functional" not in raw or "vector" not in raw:
        raise DocumentError("'rank_one' needs 'functional' and 'vector'", path="rank_one")
    n = sections.get("ambient_dim")
    functional, vector = (_vector(raw[k], f"rank_one.{k}", n) for k in ("functional", "vector"))
    return _checked("rank_one", RankOne, functional, vector)


def _read_abstract_pair(raw: Any, sections: dict[str, Any]) -> SupportPair:
    if not isinstance(raw, dict) or "phi" not in raw or "psi" not in raw:
        raise DocumentError("'abstract_pair' needs 'phi' and 'psi'", path="abstract_pair")
    chain = _require(sections.get, "chain")
    phi, psi = (_parse_abstract_fn(raw[k], chain, f"abstract_pair.{k}") for k in ("phi", "psi"))
    return _checked("abstract_pair", SupportPair, phi, psi)


# read(raw value, sections read so far) and write(value); the order is the parser's
SECTIONS: dict[str, tuple[Callable[[Any, dict], Any], Callable[[Any], Any]]] = {
    "ambient_dim": (lambda raw, _: _dimension(raw), lambda n: n),
    "nest": (_read_nest,
             lambda nest: [[_fmt_vector(r) for r in e.rows] for e in nest.elements[1:-1]]),
    "operators": (_read_operators,
                  lambda ops: {role: [_fmt_matrix(m) for m in ms] for role, ms in ops.items()}),
    "support_fn": (_read_support_fn, lambda phi: list(phi.values)),
    "rank_one": (_read_rank_one, _fmt_rank_one),
    "chain": (lambda raw, _: _parse_chain(raw, "chain"), _fmt_chain),
    "abstract_fn": (lambda raw, sections: _parse_abstract_fn(
        raw, _require(sections.get, "chain"), "abstract_fn"), _fmt_abstract_fn),
    "abstract_pair": (_read_abstract_pair, _fmt_pair),
}


def _implied(name: str, given: Any, value: Any, source: str) -> Any:
    """The value of section `name` that the section `source` implies."""
    if given is None:
        return value
    if given != value:
        raise DocumentError(f"disagrees with the {source}", path=name)
    return given


class WorkbenchDoc(Value):
    """One workbench document, frozen.  The parser builds it through this
    constructor, as Python code does, so every value in it and the document
    itself have passed their checks, the one rational bound on what it
    writes included: what a document writes parses back.  Its fields are
    the `SECTIONS`, in their order; absent sections are None, except
    `operators`, which is then the empty table."""

    FIELDS = tuple(SECTIONS)
    __slots__ = FIELDS

    def __init__(self, ambient_dim: int | None = None, nest: Nest | None = None,
                 operators: dict[str, list[Matrix]] | None = None,
                 support_fn: SupportFn | None = None, rank_one: RankOne | None = None,
                 chain: AbstractNest | None = None, abstract_fn: AbstractSupportFn | None = None,
                 abstract_pair: SupportPair | None = None):
        # a support table brings its nest, a nest its dimension and a map its
        # chain; what the parser would refuse on reading `document_payload`
        # is refused here, in its words and in the order it reads sections
        if support_fn is not None:
            nest = _implied("nest", nest, support_fn.nest, "support_fn")
        if nest is not None:
            ambient_dim = _implied("ambient_dim", ambient_dim, nest.ambient_dim, "nest")
        if abstract_fn is not None:
            chain = _implied("chain", chain, abstract_fn.chain, "abstract_fn")
        if abstract_pair is not None:
            chain = _implied("chain", chain, abstract_pair.phi.chain, "abstract_pair")
        if nest is not None and chain is not None:
            raise DocumentError(NEST_OR_CHAIN)
        n = ambient_dim
        if n is not None:
            _dimension(n)
        if nest is not None:
            for i, e in enumerate(nest.elements[1:-1]):
                for k, row in enumerate(e.rows):
                    _check_written(row, f"nest[{i}][{k}]")
        operators = {} if operators is None else operators
        for role, items in operators.items():
            for i, m in enumerate(items):
                path = f"operators.{role}[{i}]"
                if not m.rows:
                    raise DocumentError(NO_ROWS, path=path)
                for k, row in enumerate(m.entries):
                    _check_written(row, f"{path}[{k}]")
                if n is not None and (m.rows, m.cols) != (n, n):
                    raise DocumentError(f"matrix is {m.rows}x{m.cols}, expected {n}x{n}",
                                        path=path)
        if rank_one is not None:
            # RankOne gives its vector the functional's length
            _check_written(rank_one.functional, "rank_one.functional")
            _checked("rank_one.functional", _check_length, rank_one.functional, n)
            _check_written(rank_one.vector, "rank_one.vector")
        self._set(ambient_dim, nest, operators, support_fn, rank_one, chain, abstract_fn,
                  abstract_pair)

    def require(self, section: str) -> Any:
        return _require(partial(getattr, self), section)

    def matrices(self, role: str) -> list[Matrix]:
        if role not in self.operators:
            raise DocumentError(
                f"document has no operator list named {role!r}", path="operators"
            )
        return self.operators[role]


DOCUMENT_FIELDS = frozenset(("version", *SECTIONS))


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
        raise DocumentError(NEST_OR_CHAIN)

    sections: dict[str, Any] = {}
    for name, (read, _) in SECTIONS.items():
        if name in raw:
            sections[name] = read(raw[name], sections)
    return WorkbenchDoc(**sections)


def document_payload(doc: WorkbenchDoc) -> dict:
    """The JSON object for a document, with canonical leaf encodings."""
    out: dict[str, Any] = {"version": VERSION}
    for name, (_, write) in SECTIONS.items():
        value = getattr(doc, name)
        if value is not None and value != {}:  # an empty operators table is no section
            out[name] = write(value)
    return out


def serialize_document(doc: WorkbenchDoc) -> str:
    return json.dumps(document_payload(doc), sort_keys=True, indent=2) + "\n"
