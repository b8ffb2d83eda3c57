"""Literal constructions of the operator-space objects, kept as test oracles.

`opspace` computes the nest algebra, m_of, generated bimodules and the
bimodule test from support functions.  The functions here evaluate the
definitions instead: m_of as the nullspace of the constraints f(T b) = 0, the
generated bimodule as a fixed-point closure under the algebra, and the
bimodule test by multiplying against the algebra basis.  They are much slower
and share no logic with `opspace` beyond the linear-algebra kernel, so the
property suites compare the two.  Only `suites` and the tests import this
module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AmbientMismatchError
from .nest import Nest
from .opspace import OperatorSpace, SupportFn
from .ratlin import (
    IntEchelon,
    Matrix,
    Vector,
    _subspace_from_echelon,
    annihilator,
    int_row,
    nullspace_of_rows,
)


def _int_rows(vectors: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for v in vectors:
        w = int_row(tuple(v))
        if w is not None:
            out.append(w)
    return out


def m_of(nest: Nest, phi: SupportFn) -> OperatorSpace:
    """All operators T with T E contained in phi(E) for every nest element E.

    Solved as one homogeneous system over the flattened matrix entries: for a
    basis vector b of E and a functional f killing phi(E), the constraint
    f(T b) = 0 has coefficient grid f_i * b_j.
    """
    if phi.nest != nest:
        raise AmbientMismatchError("support function belongs to a different nest")
    n = nest.ambient_dim
    constraints: list[Vector] = []
    for i, e in enumerate(nest.elements):
        if e.dim == 0:
            continue
        ann_target = annihilator(phi(i))
        if ann_target.dim == 0:
            continue
        for f in ann_target.basis.entries:
            for b in e.basis.entries:
                constraints.append(tuple(fi * bj for fi in f for bj in b))
    return OperatorSpace(n, nullspace_of_rows(constraints, n * n))


def nest_algebra(nest: Nest) -> OperatorSpace:
    """Operators leaving every nest element invariant, from the constraints."""
    return m_of(nest, SupportFn.identity(nest))


def _flat_mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    # product of two row-major flattened n x n integer matrices
    out = [0] * (n * n)
    for i in range(n):
        ib = i * n
        for k in range(n):
            aik = a[ib + k]
            if aik:
                kb = k * n
                for j in range(n):
                    out[ib + j] += aik * b[kb + j]
    return out


def generate_bimodule(nest: Nest, generators: Iterable[Matrix]) -> OperatorSpace:
    """Smallest subspace containing the generators and invariant under left
    and right multiplication by the nest algebra.

    Fixed-point iteration: every basis row that enters the span is multiplied
    on both sides by the algebra basis until no product adds dimension.
    """
    n = nest.ambient_dim
    alg_flats = _int_rows(nest_algebra(nest).space.basis.entries)
    ech = IntEchelon(n * n)
    pending: list[list[int]] = []
    for g in generators:
        if (g.rows, g.cols) != (n, n):
            raise AmbientMismatchError(f"generator is not a {n}x{n} matrix")
        w = int_row(g.flatten())
        if w is not None:
            stored = ech.insert(w)
            if stored is not None:
                pending.append(stored)
    at = 0
    while at < len(pending):
        s = pending[at]
        at += 1
        for a in alg_flats:
            for prod in (_flat_mul(a, s, n), _flat_mul(s, a, n)):
                stored = ech.insert(prod)
                if stored is not None:
                    pending.append(stored)
    return OperatorSpace(n, _subspace_from_echelon(ech, n * n))


def is_bimodule(nest: Nest, s: OperatorSpace) -> bool:
    """Whether A s B stays inside s for all algebra members A and B.

    Checking one-sided products against the basis suffices: the identity lies
    in the algebra, so closure under both one-sided actions is equivalent to
    closure under the two-sided one.
    """
    if s.ambient_dim != nest.ambient_dim:
        raise AmbientMismatchError("operator space and nest ambient dimensions differ")
    n = nest.ambient_dim
    alg_flats = _int_rows(nest_algebra(nest).space.basis.entries)
    s_flats = _int_rows(s.space.basis.entries)
    ech = IntEchelon(n * n)
    for r in s_flats:
        ech.insert(r)
    for t in s_flats:
        for a in alg_flats:
            if not ech.contains(_flat_mul(a, t, n)):
                return False
            if not ech.contains(_flat_mul(t, a, n)):
                return False
    return True
