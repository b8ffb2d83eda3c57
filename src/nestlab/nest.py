"""Finite nests: totally ordered chains of subspaces of Q^n.

A nest always contains the zero subspace and the full space; in between the
elements are strictly increasing.

The constructor checks that each element contains the one before it, and
reads the basis adapted to the nest (`Nest.adapted_levels`) off the stored
reduced rows, with no elimination: level j is the rows of E_j at the pivots
that E_(j-1) lacks.  The chain-level walks read it: the hull, rank-one levels
and decompose.
"""

from __future__ import annotations

from typing import Iterable

from .errors import AmbientMismatchError, IncomparableError
from .ratlin import Subspace
from .value import Value

__all__ = ["Nest", "validate_nest"]


class Nest(Value):
    """Strictly increasing chain {0} = E_0 < E_1 < ... < E_k = Q^n.  Only
    its fields count for `==`, `hash` and `repr`, not its derived slots: the
    adapted levels, and the two dicts that `opspace` fills."""

    FIELDS = ("ambient_dim", "elements")
    __slots__ = (*FIELDS, "adapted_levels", "operator_spaces", "annihilators")

    def __init__(self, ambient_dim: int, elements: tuple[Subspace, ...]):
        # a tuple, so that a nest built from a list equals and hashes as one
        # built from a tuple
        elements = tuple(elements)
        for e in elements:
            if e.ambient_dim != ambient_dim:
                raise AmbientMismatchError(
                    f"subspace of Q^{e.ambient_dim} cannot join a nest in Q^{ambient_dim}"
                )
        if not elements:
            raise IncomparableError("a nest needs at least the two trivial elements")
        if elements[0].dim != 0 or elements[-1].dim != ambient_dim:
            raise IncomparableError("nest must run from the zero subspace to the full space")
        # The pivots of a subspace lie among those of any space that holds
        # it, so once E_(j-1) lies in E_j, the rows of E_j at the pivots that
        # E_(j-1) lacks extend a basis of E_(j-1) to one of E_j.  The full
        # space holds every element, so it is not checked.
        levels = [()]
        for a, b in zip(elements, elements[1:]):
            if a.dim > b.dim or a == b:
                raise IncomparableError("nest elements are not strictly increasing")
            if b.dim != ambient_dim and not b.contains(a):
                raise IncomparableError(
                    "subspaces are incomparable: "
                    f"span{[list(map(str, r)) for r in a.basis.entries]} and "
                    f"span{[list(map(str, r)) for r in b.basis.entries]}"
                )
            below = set(a.pivots)
            levels.append(tuple(r for r, p in zip(b.rows, b.pivots) if p not in below))
        # the integer vectors grouped by level (level j holds gap_j vectors,
        # level 0 none); then two dicts that `opspace` fills and owns: m_of
        # of each support function asked for so far, keyed by its values,
        # and annihilator(E_j) keyed by j, for each j that m_of has read
        self._set(ambient_dim, elements, tuple(levels), {}, {})

    def __len__(self) -> int:
        return len(self.elements)


def validate_nest(subspaces: Iterable[Subspace], n: int) -> Nest:
    """Build a nest from arbitrary subspaces of Q^n.

    The input is sorted by dimension, duplicates collapse, and the two trivial
    elements are inserted when absent.  The Nest constructor then checks the
    chain: a subspace of another ambient raises AmbientMismatchError, and any
    pair that fails to nest raises IncomparableError naming both offenders.
    """
    chain: list[Subspace] = []
    for s in sorted(subspaces, key=lambda s: s.dim):
        if not chain or s != chain[-1]:
            chain.append(s)
    if not chain or chain[0].dim != 0:
        chain.insert(0, Subspace.zero(n))
    if chain[-1].dim != n:
        chain.append(Subspace.full(n))
    return Nest(n, tuple(chain))
