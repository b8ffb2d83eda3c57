"""Literal constructions, kept as test oracles.

`opspace` computes the nest algebra, m_of, generated bimodules and the
bimodule test from support functions, and rank-one membership from the chain
levels of the vector and the functional; `chaincalc` computes the lower
regularization of a chain map by a closed form.  The functions here evaluate
the definitions instead: m_of as the nullspace of the constraints
f(T b) = 0, and its dimension by the formula sum_i dim(E_i / E_(i-1)) *
dim phi(E_i); the generated bimodule as a fixed-point closure under the
algebra; the bimodule test by multiplying against the algebra basis; the
support of an operator space by applying its basis to each element's basis;
rank-one membership by direct invariance and by the chain-witness criteria,
which read each element's predecessor and successor (`_adjacent`); the
rank-one decomposition by Wedderburn steps over Fraction that rebuild the
range, the smallest nest element meeting it (`_smallest_intersecting`) and
their meet through the lattice operations; and the greatest left-continuous
minorant of a chain map by enumerating every monotone table.  Two identities
that hold for every bimodule and every nest element at finite dimension,
rank-one absorption and the annihilator identity along the chain, are
evaluated here literally as well, and so is the reduced echelon form, by
back-substitution over Fraction.  The functions are much slower and share no
logic with `opspace` or `chaincalc` beyond the linear-algebra kernel, so the
property suites compare the two.  Only `suites` and the tests import this
module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .chaincalc import AbstractSupportFn
from .errors import (
    AmbientMismatchError,
    NotABimoduleError,
    NotAMemberError,
    ZeroVectorError,
)
from .nest import Nest
from .opspace import OperatorSpace, RankOne, SupportFn
from .ratlin import (
    IntEchelon,
    Matrix,
    Subspace,
    Vector,
    _echelon_from_rows,
    _subspace_from_echelon,
    annihilator,
    int_row,
    join,
    meet,
    rank,
    span,
)


def _apply(m: Matrix, v: Vector) -> Vector:
    """The matrix times a column vector, over Fraction."""
    return tuple(sum(a * b for a, b in zip(r, v)) for r in m.entries)


def _outer(vector: Vector, functional: Vector) -> Matrix:
    """The rank-one matrix of x -> functional(x) * vector."""
    return Matrix(len(vector), len(functional), tuple(
        tuple(wi * fj for fj in functional) for wi in vector
    ))


def _maps_into(nest: Nest, t: Matrix, phi: SupportFn) -> bool:
    """Whether T maps every basis vector of every element E_i into phi(E_i)."""
    return all(
        phi(i).contains_vector(_apply(t, b))
        for i, e in enumerate(nest.elements)
        for b in e.basis.entries
    )


def _basis_matrices(j: OperatorSpace) -> list[Matrix]:
    """The canonical basis of j, each row cut into an n x n matrix."""
    n = j.ambient_dim
    return [
        Matrix(n, n, tuple(r[i * n:(i + 1) * n] for i in range(n)))
        for r in j.space.basis.entries
    ]


def fraction_rref(rows: Iterable[Sequence], ncols: int) -> tuple[Vector, ...]:
    """The reduced row-echelon basis of the span of rows: the integer echelon
    with each row divided by its pivot, then back-substitution over Fraction."""
    ech = _echelon_from_rows(rows, ncols)
    frac: list[list[Fraction]] = [
        [Fraction(x, row[p]) for x in row] for row, p in zip(ech.rows, ech.pivots)
    ]
    for i in range(len(frac) - 1, -1, -1):
        p = ech.pivots[i]
        for j in range(i):
            c = frac[j][p]
            if c:
                frac[j] = [a - c * b for a, b in zip(frac[j], frac[i])]
    return tuple(tuple(r) for r in frac)


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
    return OperatorSpace(n, annihilator(span(constraints, n * n)))


def dim_formula(nest: Nest, phi: SupportFn) -> int:
    """dim m_of(phi) by the formula: the sum over the elements E_i of
    dim(E_i / E_(i-1)) * dim phi(E_i)."""
    els = nest.elements
    return sum((els[i].dim - els[i - 1].dim) * phi(i).dim for i in range(1, len(els)))


def nest_algebra(nest: Nest) -> OperatorSpace:
    """Operators leaving every nest element invariant, from the constraints."""
    return m_of(nest, SupportFn.identity(nest))


def support_of(nest: Nest, j: OperatorSpace) -> SupportFn:
    """The map E |-> [J E] evaluated literally: for each nest element E, the
    span of T b over J's basis operators T and E's basis vectors b, then the
    first nest element containing that span.  Defined for any operator
    space, bimodule or not."""
    if j.ambient_dim != nest.ambient_dim:
        raise AmbientMismatchError("operator space and nest ambient dimensions differ")
    n = nest.ambient_dim
    mats = _basis_matrices(j)
    values = []
    for e in nest.elements:
        image = span([_apply(t, b) for t in mats for b in e.basis.entries], n)
        values.append(next(i for i, f in enumerate(nest.elements) if f.contains(image)))
    return SupportFn(nest, tuple(values))


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
    alg_flats = nest_algebra(nest).space.rows
    ech = IntEchelon()
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
    alg_flats = nest_algebra(nest).space.rows
    for t in s.space.rows:
        for a in alg_flats:
            if not s.space.contains_row(_flat_mul(a, t, n)):
                return False
            if not s.space.contains_row(_flat_mul(t, a, n)):
                return False
    return True


# ---------------------------------------------------------------------------
# walks along the chain
# ---------------------------------------------------------------------------

def _adjacent(nest: Nest, i: int) -> tuple[Subspace, Subspace]:
    """The immediate predecessor and successor of the i-th element.

    The bottom is its own predecessor and the top its own successor.
    """
    els = nest.elements
    return els[max(i - 1, 0)], els[min(i + 1, len(els) - 1)]


def _smallest_intersecting(nest: Nest, w: Subspace) -> Subspace:
    """The meet of all nest elements that meet w nontrivially.

    On a chain the elements meeting w form an upper segment, so their meet is
    the first of them: the first E with dim(E join w) < dim E + dim w.
    """
    if w.dim == 0:
        raise ValueError("the zero subspace meets no nest element nontrivially")
    return next(e for e in nest.elements if join(e, w).dim < e.dim + w.dim)


# ---------------------------------------------------------------------------
# rank-one membership
# ---------------------------------------------------------------------------

def _check_rank_one(nest: Nest, r: RankOne) -> None:
    if len(r.vector) != nest.ambient_dim:
        raise AmbientMismatchError("rank-one factor has the wrong length for the nest")
    if r.is_zero():
        raise ZeroVectorError("rank-one membership needs nonzero functional and vector")


def rank_one_in_alg(nest: Nest, r: RankOne) -> tuple[bool, Subspace | None, bool]:
    """The three membership criteria for a rank-one operator in the algebra.

    Returns the direct invariance check, the first element E with the vector
    inside E and the functional killing the predecessor of E (None if there is
    none), and the successor criterion: some element E whose successor holds
    the vector while the functional kills E.
    """
    _check_rank_one(nest, r)
    direct = _maps_into(nest, _outer(r.vector, r.functional), SupportFn.identity(nest))
    witness = None
    for i, e in enumerate(nest.elements):
        below, _ = _adjacent(nest, i)
        if e.contains_vector(r.vector) and annihilator(below).contains_vector(r.functional):
            witness = e
            break
    by_successor = False
    for i, e in enumerate(nest.elements):
        _, above = _adjacent(nest, i)
        if above.contains_vector(r.vector) and annihilator(e).contains_vector(r.functional):
            by_successor = True
            break
    return direct, witness, by_successor


def rank_one_in_m(nest: Nest, phi: SupportFn, r: RankOne) -> tuple[bool, Subspace | None]:
    """The two membership criteria for a rank-one operator in m_of(phi).

    Returns the direct check T E <= phi(E) over every element, and the first
    element E whose annihilator contains the functional while the vector lies
    in the meet of phi over all elements strictly above E (None if there is
    none).
    """
    if phi.nest != nest:
        raise AmbientMismatchError("support function belongs to a different nest")
    _check_rank_one(nest, r)
    n = nest.ambient_dim
    direct = _maps_into(nest, _outer(r.vector, r.functional), phi)
    witness = None
    for i, e in enumerate(nest.elements):
        if not annihilator(e).contains_vector(r.functional):
            continue
        cap = Subspace.full(n)
        for f in range(i + 1, len(nest.elements)):
            cap = meet(cap, phi(f))
        if cap.contains_vector(r.vector):
            witness = e
            break
    return direct, witness


# ---------------------------------------------------------------------------
# finite-rank decomposition
# ---------------------------------------------------------------------------

def decompose(nest: Nest, phi: SupportFn, t: Matrix) -> list[RankOne]:
    """Wedderburn rank-one reduction over Fraction, with the same canonical
    tie-breaking as `opspace.decompose`.

    Membership is checked directly, T E inside phi(E) for every basis vector
    of every element.  Each step rebuilds the range W of the remainder with
    `span`, takes L = `_smallest_intersecting(nest, W)`, the first basis vector
    x of `meet(L, W)` and the remainder's row at the pivot of x, and
    subtracts their outer product.
    """
    n = nest.ambient_dim
    if phi.nest != nest:
        raise AmbientMismatchError("support function belongs to a different nest")
    if (t.rows, t.cols) != (n, n):
        raise AmbientMismatchError(f"operator is not a {n}x{n} matrix")
    if not _maps_into(nest, t, phi):
        raise NotAMemberError(
            "operator does not map every nest element into its support value"
        )

    factors: list[RankOne] = []
    current = t.entries
    for _ in range(rank(t)):
        w = span(zip(*current), n)
        pick = meet(_smallest_intersecting(nest, w), w)
        if pick.dim == 0:
            raise AssertionError("the smallest element meeting the range misses it")
        x = pick.basis.entries[0]
        pivot = next(j for j, c in enumerate(x) if c)
        row = current[pivot]
        factors.append(RankOne(row, x))
        current = [tuple(a - xi * b for a, b in zip(r, row)) for r, xi in zip(current, x)]
    if any(map(any, current)):
        raise AssertionError("a rank-one factor did not lower the rank by one")
    return factors


# ---------------------------------------------------------------------------
# identities that hold at finite dimension
# ---------------------------------------------------------------------------

def absorption_check(nest: Nest, j: OperatorSpace, n_idx: int, l_idx: int) -> bool:
    """Rank-one absorption along a pair of chain elements.

    If some member of j pushes N outside the predecessor of L, then every
    rank-one built from a functional killing the predecessor of N and a vector
    inside L must already lie in j.  Returns the truth of that implication.
    """
    if not is_bimodule(nest, j):
        raise NotABimoduleError("absorption is defined for bimodules only")
    big_n = nest.elements[n_idx]
    big_l = nest.elements[l_idx]
    n_below, _ = _adjacent(nest, n_idx)
    l_below, _ = _adjacent(nest, l_idx)

    mats = _basis_matrices(j)
    escapes = any(
        not l_below.contains_vector(_apply(t, b))
        for t in mats
        for b in big_n.basis.entries
    )
    if not escapes:
        return True
    for f in annihilator(n_below).basis.entries:
        for x in big_l.basis.entries:
            if not j.space.contains_vector(_outer(x, f).flatten()):
                return False
    return True


def perp_span_check(nest: Nest, e: Subspace) -> bool:
    """Annihilator identity along the chain.

    Compares the join of annihilator(N) over all N whose successor strictly
    contains e against annihilator(e).
    """
    n = nest.ambient_dim
    lhs = Subspace.zero(n)
    for k, nel in enumerate(nest.elements):
        _, above = _adjacent(nest, k)
        if above.contains(e) and above.dim > e.dim:
            lhs = join(lhs, annihilator(nel))
    return lhs == annihilator(e)


# ---------------------------------------------------------------------------
# abstract chains
# ---------------------------------------------------------------------------

def greatest_lc_minorant(f: AbstractSupportFn) -> tuple[int, ...]:
    """Brute force over every monotone table: the pointwise maximum of all
    left-continuous tables dominated by f.

    A left-continuous candidate has its value at a limit node equal to its
    declared join there, and domination compares declared joins as well, so a
    candidate is admissible iff its values stay below f's values everywhere
    and below f's declared left limit at limit nodes.
    """
    k = len(f.value)
    # the constant-zero table always qualifies, and values are never negative
    best = (0,) * k
    for values in itertools.combinations_with_replacement(range(k), k):
        if any(values[i] > f.value[i] for i in range(k)):
            continue
        if any(
            f.left_limit[i] is not None and values[i] > f.left_limit[i] for i in range(k)
        ):
            continue
        best = tuple(map(max, best, values))
    return best
