"""Symbolic calculus on annotated abstract chains.

A chain is presented by finitely many named nodes, ordered from "0" to "X".
Each node carries how it is approached from below (an attained jump with a
declared dimension, possibly infinite, or a limit with a cofinality mark) and
from above (attained, or a limit with a coinitiality mark), in the words of
`KINDS` and `MARKS`.  `SIDES` is the one home of that two-sided grammar: the
chain constructor checks each side by it, `check_p_property` reads each
side's mark by it, and `documents` reads and writes each side by it.  Maps
between chain nodes carry an explicit left-limit table, the declared join of
the values strictly below each limit node; the table is constrained to stay
between the value at the predecessor and the value at the node itself.  Each constructor derives its chain facts once: an
`AbstractNest` keeps its finite stratum, and a map's table has an entry
exactly at the limits from below, so no check re-reads the annotations.

All predictions about operator spaces attached to such chains are guarded
identities: they verify the hypotheses of the corresponding classification
statement and return the support data the statement prescribes, refusing the
input otherwise.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import (
    ChainError,
    LimitGapError,
    MissingEndpointError,
    NonzeroAtZeroError,
    NotEssentialError,
    PairAdmissibilityError,
    PInfinityError,
    PPropertyError,
)
from .value import Value

__all__ = [
    "ATTAINED",
    "COUNTABLE",
    "INFINITE",
    "LIMIT",
    "UNCOUNTABLE",
    "AbstractNest",
    "AbstractSupportFn",
    "ChainNode",
    "SupportPair",
    "check_essential",
    "check_left_continuous",
    "check_p_infinity",
    "check_p_property",
    "check_pair",
    "lower_regularization",
    "predict_m0",
    "predict_m0_pair",
    "predict_max_pair",
    "predict_me_support",
    "validate_chain",
]

ATTAINED = "attained"
LIMIT = "limit"
COUNTABLE = "countable"
UNCOUNTABLE = "uncountable"
INFINITE = math.inf
# the words a 'kind' and a cofinality or coinitiality mark may take
KINDS = (ATTAINED, LIMIT)
MARKS = (COUNTABLE, UNCOUNTABLE)
# The grammar of a node's two sides, below first: the `ChainNode` field of the
# side's kind, the field of its limit mark, and the end node that takes no
# annotation on that side.  Only the below side carries a jump dimension, its
# `gap`.  `ChainNode` lists its fields in this order, after the label: each
# side's kind, then the gap on the below side, then the side's mark.  The
# chain constructor, the P-property check, and the documents parser and
# writer read it.
SIDES = (("below", "cofinality", "0"), ("above", "coinitiality", "X"))
GAP_SIDE = SIDES[0][0]


class ChainNode(Value):
    """One named chain element with its below/above annotations."""

    FIELDS = ("label", "below", "gap", "cofinality", "above", "coinitiality")
    __slots__ = FIELDS

    def __init__(self, label: str, below: str | None = None, gap: int | float | None = None,
                 cofinality: str | None = None, above: str | None = None,
                 coinitiality: str | None = None):
        self._set(label, below, gap, cofinality, above, coinitiality)


class AbstractNest(Value):
    """A finite presentation of a chain, validated on construction.

    Its one field is `nodes`.  The constructor keeps the label -> index map
    it builds as `label_index`, in chain order: `documents` resolves and
    writes every label through it.  It keeps `finite_stratum`, the indices
    of the attained jumps of finite dimension, for the essential, pair and
    P-infinity checks; where the chain has limits from below, a map's
    left-limit table says.  Both are slots that are not fields, set once by
    the constructor, so `==`, `hash` and `repr` ignore them.
    """

    FIELDS = ("nodes",)
    __slots__ = (*FIELDS, "label_index", "finite_stratum")

    def __init__(self, nodes: tuple[ChainNode, ...]):
        # a tuple, so that a chain built from a list equals and hashes as one
        # built from a tuple
        nodes = tuple(nodes)
        if len(nodes) < 2:
            raise MissingEndpointError("a chain needs at least the nodes 0 and X")
        for i, node in enumerate(nodes):
            if not isinstance(node.label, str):
                raise ChainError(f"node at index {i} needs a string label, not {node.label!r}")
        if nodes[0].label != "0":
            raise MissingEndpointError('the chain must start at a node labelled "0"')
        if nodes[-1].label != "X":
            raise MissingEndpointError('the chain must end at a node labelled "X"')
        index = {}
        for i, node in enumerate(nodes):
            if node.label in index:
                raise ChainError(f"duplicate node label {node.label!r}")
            index[node.label] = i
        for node in nodes:
            label = node.label
            for side, mark, end in SIDES:
                kind, marked = getattr(node, side), getattr(node, mark)
                gap = node.gap if side == GAP_SIDE else None
                if label == end:
                    if kind is not None or marked is not None or gap is not None:
                        raise ChainError(f'node "{end}" takes no {side} annotation')
                elif kind == ATTAINED:
                    if marked is not None:
                        raise ChainError(f"attained node {label!r} takes no {mark} mark")
                    if side == GAP_SIDE and not (
                        gap == INFINITE or (type(gap) is int and gap >= 1)
                    ):
                        raise ChainError(
                            f"node {label!r} needs a positive or infinite jump dimension"
                        )
                elif kind == LIMIT:
                    if gap is not None:
                        raise LimitGapError(
                            f"node {label!r} is a limit from {side} but declares a jump"
                        )
                    if marked not in MARKS:
                        raise ChainError(f"node {label!r} needs a {mark} mark")
                else:
                    article = "an" if side[0] in "aeiou" else "a"
                    raise ChainError(f"node {label!r} needs {article} {side} annotation")
        finite = tuple(
            i for i, node in enumerate(nodes) if node.below == ATTAINED and node.gap != INFINITE
        )
        self._set(nodes, index, finite)

    def __len__(self) -> int:
        return len(self.nodes)


def validate_chain(nodes: Sequence[ChainNode]) -> AbstractNest:
    """Check the chain axioms and return the validated presentation."""
    return AbstractNest(nodes)


class AbstractSupportFn(Value):
    """A monotone node map with a declared left-limit table.

    ``value`` maps node index to node index.  ``left_limit`` has an entry
    exactly at limit-from-below nodes and satisfies
    value(predecessor) <= left_limit(node) <= value(node); the constructor
    enforces both, so readers take the chain's limits from the table.
    """

    FIELDS = ("chain", "value", "left_limit")
    __slots__ = FIELDS

    def __init__(self, chain: AbstractNest, value: tuple[int, ...],
                 left_limit: tuple[int | None, ...]):
        # tuples, so that tables built from lists equal and hash as tuple-built
        # ones
        value = tuple(value)
        left_limit = tuple(left_limit)
        nodes = chain.nodes
        k = len(nodes)
        if len(value) != k or len(left_limit) != k:
            raise ChainError("map tables must cover every node exactly once")
        for v in value:
            if type(v) is not int:
                raise ChainError(f"value index {v!r} is not an integer")
            if not 0 <= v < k:
                raise ChainError(f"value index {v} is out of range")
        for a, b in zip(value, value[1:]):
            if a > b:
                raise ChainError("value table is not monotone")
        for i, (node, ll) in enumerate(zip(nodes, left_limit)):
            if node.below == LIMIT:
                if ll is None:
                    raise ChainError(f"limit node {node.label!r} needs a left limit")
                if type(ll) is not int:
                    raise ChainError(f"left limit index {ll!r} is not an integer")
                if not 0 <= ll < k:
                    raise ChainError(f"left limit index {ll} is out of range")
                if not (value[i - 1] <= ll <= value[i]):
                    raise ChainError(
                        f"left limit at {node.label!r} must sit between "
                        "the value at the predecessor and the value at the node"
                    )
            elif ll is not None:
                raise ChainError(
                    f"node {node.label!r} is attained from below "
                    "and takes no left limit"
                )
        self._set(chain, value, left_limit)


class SupportPair(Value):
    """A pair (phi, psi) with psi below phi, phi left continuous, phi(0) = 0."""

    FIELDS = ("phi", "psi")
    __slots__ = FIELDS

    def __init__(self, phi: AbstractSupportFn, psi: AbstractSupportFn):
        if phi.chain != psi.chain:
            raise PairAdmissibilityError("pair components live on different chains")
        if phi.value[0] != 0:
            raise PairAdmissibilityError("phi must send node 0 to node 0")
        if not check_left_continuous(phi):
            raise PairAdmissibilityError("phi must be left continuous")
        for a, b in zip(psi.value, phi.value):
            if a > b:
                raise PairAdmissibilityError("psi must sit below phi at every node")
        self._set(phi, psi)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_left_continuous(f: AbstractSupportFn) -> bool:
    """True when the declared left limit agrees with the value at every
    limit-from-below node, the nodes where the table has an entry."""
    return all(ll is None or ll == v for ll, v in zip(f.left_limit, f.value))


def lower_regularization(f: AbstractSupportFn) -> AbstractSupportFn:
    """Greatest left-continuous map below f.

    Values at attained nodes (and at node 0) are kept; the value at a limit
    node, where the table has an entry, drops to that entry.  The table is
    also the output's, so the result is left continuous by construction.
    """
    value = tuple(v if ll is None else ll for ll, v in zip(f.left_limit, f.value))
    return AbstractSupportFn(f.chain, value, f.left_limit)


def check_essential(f: AbstractSupportFn) -> bool:
    """The two essential-support axioms.

    Fixed-from-above: a value inside the finite stratum must equal its own
    limit from above: it is the top node (by the empty-meet convention) or
    is marked as a limit from above.  Finite-quotient stability: nodes a
    finite dimension apart must share their value.  A finite quotient is a
    run of attained finite jumps, so stability says that every node in the
    finite stratum keeps its predecessor's value.
    """
    nodes, finite = f.chain.nodes, f.chain.finite_stratum
    stratum = set(finite)
    fixed = all(
        v == len(nodes) - 1 or nodes[v].above == LIMIT for v in f.value if v in stratum
    )
    return fixed and all(f.value[i - 1] == f.value[i] for i in finite)


def check_pair(p: SupportPair) -> bool:
    """Pair admissibility: psi essential, and strictly below phi wherever psi
    lands in the finite stratum."""
    if not check_essential(p.psi):
        return False
    stratum = set(p.psi.chain.finite_stratum)
    return all(v < u for v, u in zip(p.psi.value, p.phi.value) if v in stratum)


def check_p_property(chain: AbstractNest) -> bool:
    """Countable approach on both sides of every limit node, each side's
    mark read by `SIDES`."""
    return all(
        getattr(node, side) != LIMIT or getattr(node, mark) == COUNTABLE
        for node in chain.nodes for side, mark, _ in SIDES
    )


def check_p_infinity(chain: AbstractNest) -> bool:
    """Every attained jump is infinite; equivalently the finite stratum is
    empty (see AbstractNest.finite_stratum)."""
    return not chain.finite_stratum


# ---------------------------------------------------------------------------
# guarded predictions
# ---------------------------------------------------------------------------

def predict_me_support(psi: AbstractSupportFn) -> AbstractSupportFn:
    """Essential support of the largest operator space with essential support
    psi: the map itself, once the hypotheses hold."""
    if not check_p_property(psi.chain):
        raise PPropertyError("a limit node lacks a countable approach mark")
    if not check_essential(psi):
        raise NotEssentialError("the map fails the essential support axioms")
    return psi


def predict_max_pair(p: SupportPair) -> SupportPair:
    """Support pair of the largest operator space attached to an admissible
    pair: the pair itself, once the hypotheses hold."""
    if not check_p_property(p.phi.chain):
        raise PPropertyError("a limit node lacks a countable approach mark")
    if not check_pair(p):
        raise PairAdmissibilityError("the pair fails the admissibility axioms")
    return p


def predict_m0(psi: AbstractSupportFn) -> SupportPair:
    """Support pair of the smallest-type operator space built from psi on a
    chain whose attained jumps are all infinite: both components are the
    lower regularization of psi."""
    if not check_p_infinity(psi.chain):
        raise PInfinityError("the chain has an attained finite jump")
    if psi.value[0] != 0:
        raise NonzeroAtZeroError("the map must send node 0 to node 0")
    reg = lower_regularization(psi)
    return SupportPair(reg, reg)


def predict_m0_pair(p: SupportPair) -> SupportPair:
    """Support pair of the smallest-type operator space attached to a pair on
    a chain whose attained jumps are all infinite: phi survives and psi drops
    to its lower regularization.  No admissibility guard: with the finite
    stratum empty, `check_pair` admits every `SupportPair`."""
    if not check_p_infinity(p.phi.chain):
        raise PInfinityError("the chain has an attained finite jump")
    return SupportPair(p.phi, lower_regularization(p.psi))
