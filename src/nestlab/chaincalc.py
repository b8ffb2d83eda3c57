"""Symbolic calculus on annotated abstract chains.

A chain is presented by finitely many named nodes, ordered from "0" to "X".
Each node carries how it is approached from below (an attained jump with a
declared dimension, possibly infinite, or a limit with a cofinality mark) and
from above (attained, or a limit with a coinitiality mark).  Maps between
chain nodes carry an explicit left-limit table, the declared join of the
values strictly below each limit node; the table is constrained to stay
between the value at the predecessor and the value at the node itself.

All predictions about operator spaces attached to such chains are guarded
identities: they verify the hypotheses of the corresponding classification
statement and return the support data the statement prescribes, refusing the
input otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

ATTAINED = "attained"
LIMIT = "limit"
COUNTABLE = "countable"
UNCOUNTABLE = "uncountable"
INFINITE = math.inf


@dataclass(frozen=True)
class ChainNode:
    """One named chain element with its below/above annotations."""

    label: str
    below: str | None = None
    gap: int | float | None = None
    cofinality: str | None = None
    above: str | None = None
    coinitiality: str | None = None


@dataclass(frozen=True)
class AbstractNest:
    """A finite presentation of a chain, validated on construction.

    The constructor keeps the label -> index map it builds as `label_index`,
    in chain order: `documents` resolves and writes every label through it.
    It is set with `object.__setattr__` rather than cached on first read: a
    `cached_property` write materializes the instance `__dict__`, and every
    later attribute read on the chain gets slower.
    """

    nodes: tuple[ChainNode, ...]

    def __post_init__(self):
        # a tuple, so that a chain built from a list equals and hashes as one
        # built from a tuple
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise MissingEndpointError("a chain needs at least the nodes 0 and X")
        for i, node in enumerate(nodes):
            if not isinstance(node.label, str):
                raise ChainError(f"node at index {i} needs a string label, not {node.label!r}")
        if nodes[0].label != "0":
            raise MissingEndpointError('the chain must start at a node labelled "0"')
        if nodes[-1].label != "X":
            raise MissingEndpointError('the chain must end at a node labelled "X"')
        index = {node.label: i for i, node in enumerate(nodes)}
        object.__setattr__(self, "label_index", index)
        if len(index) != len(nodes):
            seen = set()
            for node in nodes:
                if node.label in seen:
                    raise ChainError(f"duplicate node label {node.label!r}")
                seen.add(node.label)
        for i, node in enumerate(nodes):
            self._check_below(i, node)
            self._check_above(i, node)

    @staticmethod
    def _check_below(i: int, node: ChainNode) -> None:
        if i == 0:
            if node.below is not None or node.gap is not None or node.cofinality is not None:
                raise ChainError('node "0" takes no below annotation')
            return
        if node.below == ATTAINED:
            if node.cofinality is not None:
                raise ChainError(f"attained node {node.label!r} takes no cofinality mark")
            gap = node.gap
            ok = gap == INFINITE or (type(gap) is int and gap >= 1)
            if not ok:
                raise ChainError(
                    f"node {node.label!r} needs a positive or infinite jump dimension"
                )
        elif node.below == LIMIT:
            if node.gap is not None:
                raise LimitGapError(
                    f"node {node.label!r} is a limit from below but declares a jump"
                )
            if node.cofinality not in (COUNTABLE, UNCOUNTABLE):
                raise ChainError(f"node {node.label!r} needs a cofinality mark")
        else:
            raise ChainError(f"node {node.label!r} needs a below annotation")

    @staticmethod
    def _check_above(i: int, node: ChainNode) -> None:
        if node.label == "X":
            if node.above is not None or node.coinitiality is not None:
                raise ChainError('node "X" takes no above annotation')
            return
        if node.above == ATTAINED:
            if node.coinitiality is not None:
                raise ChainError(f"attained node {node.label!r} takes no coinitiality mark")
        elif node.above == LIMIT:
            if node.coinitiality not in (COUNTABLE, UNCOUNTABLE):
                raise ChainError(f"node {node.label!r} needs a coinitiality mark")
        else:
            raise ChainError(f"node {node.label!r} needs an above annotation")

    def __len__(self) -> int:
        return len(self.nodes)

    def limit_below(self, i: int) -> bool:
        return self.nodes[i].below == LIMIT

    def limit_above(self, i: int) -> bool:
        return self.nodes[i].above == LIMIT

    def in_finite_stratum(self, i: int) -> bool:
        """Nodes with an attained jump of finite positive dimension."""
        node = self.nodes[i]
        return node.below == ATTAINED and node.gap != INFINITE

    def finite_stratum(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.nodes)) if self.in_finite_stratum(i))

    def upper_limit_fixed(self, i: int) -> bool:
        """Whether the node equals its own limit from above.

        The top node is fixed by the empty-meet convention; otherwise the node
        must be marked as a limit from above.
        """
        return i == len(self.nodes) - 1 or self.limit_above(i)


def validate_chain(nodes: Sequence[ChainNode]) -> AbstractNest:
    """Check the chain axioms and return the validated presentation."""
    return AbstractNest(nodes)


@dataclass(frozen=True)
class AbstractSupportFn:
    """A monotone node map with a declared left-limit table.

    ``value`` maps node index to node index.  ``left_limit`` has an entry
    exactly at limit-from-below nodes and satisfies
    value(predecessor) <= left_limit(node) <= value(node).
    """

    chain: AbstractNest
    value: tuple[int, ...]
    left_limit: tuple[int | None, ...]

    def __post_init__(self):
        # tuples, so that tables built from lists equal and hash as tuple-built
        # ones
        value = tuple(self.value)
        left_limit = tuple(self.left_limit)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "left_limit", left_limit)
        nodes = self.chain.nodes
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


@dataclass(frozen=True)
class SupportPair:
    """A pair (phi, psi) with psi below phi, phi left continuous, phi(0) = 0."""

    phi: AbstractSupportFn
    psi: AbstractSupportFn

    def __post_init__(self):
        if self.phi.chain != self.psi.chain:
            raise PairAdmissibilityError("pair components live on different chains")
        if self.phi.value[0] != 0:
            raise PairAdmissibilityError("phi must send node 0 to node 0")
        if not check_left_continuous(self.phi):
            raise PairAdmissibilityError("phi must be left continuous")
        for a, b in zip(self.psi.value, self.phi.value):
            if a > b:
                raise PairAdmissibilityError("psi must sit below phi at every node")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_left_continuous(f: AbstractSupportFn) -> bool:
    """True when the declared left limit agrees with the value at every
    limit-from-below node; attained nodes impose nothing."""
    return all(
        ll == v
        for node, ll, v in zip(f.chain.nodes, f.left_limit, f.value)
        if node.below == LIMIT
    )


def lower_regularization(f: AbstractSupportFn) -> AbstractSupportFn:
    """Greatest left-continuous map below f.

    Values at attained nodes (and at node 0) are kept; the value at a limit
    node drops to the declared left limit.  The output's left-limit table then
    repeats its own values, so the result is left continuous by construction.
    """
    k = len(f.chain)
    value = list(f.value)
    for i in range(1, k):
        if f.chain.limit_below(i):
            value[i] = f.left_limit[i]
    left = tuple(
        value[i] if f.chain.limit_below(i) else None for i in range(k)
    )
    return AbstractSupportFn(f.chain, tuple(value), left)


def check_essential(f: AbstractSupportFn) -> bool:
    """The two essential-support axioms.

    Fixed-from-above: a value inside the finite stratum must equal its own
    limit from above.  Finite-quotient stability: nodes a finite dimension
    apart must share their value.  A finite quotient is a run of attained
    finite jumps, so stability says that every node in the finite stratum
    keeps its predecessor's value.
    """
    chain = f.chain
    for i in range(len(chain)):
        v = f.value[i]
        if chain.in_finite_stratum(v) and not chain.upper_limit_fixed(v):
            return False
    return all(f.value[i - 1] == f.value[i] for i in chain.finite_stratum())


def check_pair(p: SupportPair) -> bool:
    """Pair admissibility: psi essential, and strictly below phi wherever psi
    lands in the finite stratum."""
    if not check_essential(p.psi):
        return False
    chain = p.psi.chain
    for i in range(len(chain)):
        v = p.psi.value[i]
        if chain.in_finite_stratum(v) and v >= p.phi.value[i]:
            return False
    return True


def check_p_property(chain: AbstractNest) -> bool:
    """Countable approach on both sides of every limit node."""
    for i in range(len(chain)):
        node = chain.nodes[i]
        if node.below == LIMIT and node.cofinality != COUNTABLE:
            return False
        if node.above == LIMIT and node.coinitiality != COUNTABLE:
            return False
    return True


def check_p_infinity(chain: AbstractNest) -> bool:
    """Every attained jump is infinite; equivalently the finite stratum is
    empty (see AbstractNest.finite_stratum)."""
    return not chain.finite_stratum()


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
