"""Operator spaces over a finite nest: the nest algebra, its bimodules,
support functions, and rank-one factorizations.

Operators on Q^n are n x n rational matrices; a space of operators is stored
as a canonical subspace of Q^(n*n) under row-major flattening.  The central
objects are the two mutually inverse constructions

    support_of : bimodule J  ->  support function  E |-> [J E]
    m_of       : support function Phi  ->  { T : T E <= Phi(E) for all E }

At finite dimension every bimodule of a nest algebra is reflexive,
J = m_of(support_of(J)) (Erdos and Power, J. Operator Theory 7, 1982), so
everything here is computed from support functions, in two closed forms and
without elimination over Q^(n*n):

- m_of(Phi) is the sum of the Phi(E_j) (x) E_(j-1)^perp, and its canonical
  integer RREF is written row by row from the RREFs of the distinct values
  of Phi and of the annihilators of the nest (see `_m_of_rows`);
- the support of J is read off the number of J's pivots in each row block,
  and certified by one comparison of J with m_of of it (see
  `_support_values`), which is also the bimodule test.

Since m_of is a function of the nest and the values of Phi alone, each
space is computed once per nest and kept on it (`Nest.operator_spaces`),
as is each annihilator it reads (`Nest.annihilators`): the algebra, a
generated bimodule and the m_of that certifies its support are then one
computation each, however many callers ask.

A generated bimodule is m_of of the hull of its generators.  Rank-one
questions are answered from the chain levels of the vector and the
functional (Ringrose, Proc. London Math. Soc. 15, 1965).  The literal
constructions and criteria live in `oracles`, which only the property suites
and the tests use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatchError,
    NotABimoduleError,
    NotAMemberError,
    SupportFunctionError,
    ZeroVectorError,
)
from .nest import Nest
from .ratlin import (
    ZERO,
    IntEchelon,
    Matrix,
    Subspace,
    Vector,
    _pivot,
    _primitive,
    annihilator,
    as_vector,
    int_row,
    span,
)
from .value import Value

__all__ = [
    "OperatorSpace",
    "RankOne",
    "SupportFn",
    "decompose",
    "essential_support_of",
    "generate_bimodule",
    "is_bimodule",
    "is_reflexive",
    "m_of",
    "nest_algebra",
    "rank_one_in_alg",
    "rank_one_in_m",
    "span_of_rank_ones",
    "support_of",
]


class OperatorSpace(Value):
    """A linear space of n x n matrices, canonically represented."""

    FIELDS = ("ambient_dim", "space")
    __slots__ = FIELDS

    def __init__(self, ambient_dim: int, space: Subspace):
        if space.ambient_dim != ambient_dim ** 2:
            raise AmbientMismatchError("operator space basis has the wrong width")
        self._set(ambient_dim, space)

    @classmethod
    def from_matrices(cls, n: int, mats: Iterable[Matrix]) -> "OperatorSpace":
        flats = []
        for m in mats:
            if (m.rows, m.cols) != (n, n):
                raise AmbientMismatchError(f"expected {n}x{n} matrices")
            flats.append(m.flatten())
        return cls(n, span(flats, n * n))

    @property
    def dim(self) -> int:
        return self.space.dim


class SupportFn(Value):
    """Order-preserving self-map of a nest, stored as element indices."""

    FIELDS = ("nest", "values")
    __slots__ = FIELDS

    def __init__(self, nest: Nest, values: tuple[int, ...]):
        # a tuple, so that the values can key the operator-space memo
        values = tuple(values)
        k = len(nest.elements)
        if len(values) != k:
            raise SupportFunctionError("support table length does not match the nest")
        for v in values:
            # exactly int: a bool or a float passes the range check below, but
            # a bool serializes as true, and a float cannot index a table
            if type(v) is not int:
                raise SupportFunctionError(f"support value {v!r} is not an integer")
            if not 0 <= v < k:
                raise SupportFunctionError(f"support value {v} is out of range")
        for a, b in zip(values, values[1:]):
            if a > b:
                raise SupportFunctionError("support table is not monotone")
        self._set(nest, values)

    @classmethod
    def identity(cls, nest: Nest) -> "SupportFn":
        return cls(nest, tuple(range(len(nest.elements))))

    def __call__(self, i: int) -> Subspace:
        # every value is an element index: the constructor checked them
        return self.nest.elements[self.values[i]]


class RankOne(Value):
    """The operator x |-> functional(x) * vector."""

    FIELDS = ("functional", "vector")
    __slots__ = FIELDS

    def __init__(self, functional: Vector, vector: Vector):
        if len(functional) != len(vector):
            raise AmbientMismatchError("functional and vector sizes differ")
        self._set(functional, vector)

    @classmethod
    def of(cls, functional: Sequence, vector: Sequence) -> "RankOne":
        return cls(as_vector(functional), as_vector(vector))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.functional) or all(x == 0 for x in self.vector)


# ---------------------------------------------------------------------------
# algebra and bimodules
# ---------------------------------------------------------------------------

def _hull_values(nest: Nest, int_ops: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """For each nest element E, the index of the smallest element containing
    T E for every T in int_ops (row-major integer flats).

    The hull is monotone, so one pointer walks up the chain: element j only
    adds the images of its level vectors, and once the pointer reaches the top
    every later value is the top.
    """
    n = nest.ambient_dim
    # each operator as its n rows, sliced once
    mats = [[t[base:base + n] for base in range(0, n * n, n)] for t in int_ops]
    top = len(nest.elements) - 1
    values = []
    at = 0
    for level in nest.adapted_levels:
        for u in level:
            if at == top:
                break
            for t in mats:
                image = [sum(map(mul, row, u)) for row in t]
                while at < top:
                    if nest.elements[at].contains_row(image):
                        break
                    at += 1
                if at == top:
                    break
        values.append(at)
    return tuple(values)


def m_of(nest: Nest, phi: SupportFn) -> OperatorSpace:
    """All operators T with T E contained in phi(E) for every nest element E,
    as its canonical integer RREF (see `_m_of_rows`).

    The result is shared: it is computed once per nest and support values and
    kept in `nest.operator_spaces`, so every call on the same nest returns
    the same immutable object.
    """
    if phi.nest != nest:
        raise AmbientMismatchError("support function belongs to a different nest")
    space = nest.operator_spaces.get(phi.values)
    if space is None:
        space = nest.operator_spaces[phi.values] = _m_of_rows(nest, phi.values)
    return space


def _m_of_rows(nest: Nest, values: tuple[int, ...]) -> OperatorSpace:
    """m_of of the support function phi with these values, written directly
    as its canonical integer RREF.

    The space is the sum over levels t >= 1 of phi(E_t) (x) E_(t-1)^perp.
    Grouping the levels by distinct nonzero value gives C_1 < ... < C_M and
    D_1 > ... > D_M, with D_m = E_(t_m - 1)^perp for the first level t_m with
    phi(E_(t_m)) = C_m, and the space is the sum of the C_m (x) D_m.  Write
    rho^m_i and sigma^m_c for the RREF rows of C_m and D_m with pivots i and c,
    each divided by its pivot, sigma^m_c = 0 when c is not a pivot of D_m, and
    m(i) for the first m with i a pivot of C_m.  Row-major, the pivots of the
    space are the (i, c) with c a pivot of D_(m(i)), and the reduced row at
    (i, c) is

        sum over m >= m(i) of  rho^m_i (x) (sigma^m_c - sigma^(m+1)_c):

    every term lies in C_m (x) D_m, the differences telescope to 1 at (i, c),
    and at another pivot (i', c') the terms with m >= m(i') vanish by rho
    while those below vanish by sigma.  Each row is made integer over the
    lcm of its denominators and then primitive.  The dimension is
    sum_t gap_t * dim phi(E_t).
    """
    n = nest.ambient_dim
    cs, ds = [], []  # pivot -> row of C_m, and of D_m, for m = 1 .. M
    # D_m = annihilator(E_(t-1)) is kept on the nest once read: each is
    # computed once per nest, only where phi changes, and never for the top
    last = 0
    for t in range(1, len(nest.elements)):
        v = values[t]
        if v != last:
            last = v
            ce, de = nest.elements[v], nest.annihilators.get(t - 1)
            if de is None:
                de = nest.annihilators[t - 1] = annihilator(nest.elements[t - 1])
            cs.append(dict(zip(ce.pivots, ce.rows)))
            ds.append(dict(zip(de.pivots, de.rows)))
    # tails[m][c]: the nonzero sigma^l_c - sigma^(l+1)_c for l >= m, each as
    # (l, integer row, denominator); the last one is the bare row of D_l
    tails: list[dict] = [{}] * len(ds)
    below: dict = {}
    for m in range(len(ds) - 1, -1, -1):
        tail = {}
        for c, s in ds[m].items():
            u = below.get(c)
            if u is None:
                tail[c] = [(m, s, s[c])]
            elif u == s:
                tail[c] = tails[m + 1][c]
            else:
                diff = [u[c] * x - s[c] * y for x, y in zip(s, u)]
                tail[c] = [(m, diff, s[c] * u[c]), *tails[m + 1][c]]
        tails[m], below = tail, ds[m]
    first: dict[int, int] = {}
    for m, crows in enumerate(cs):
        for i in crows:
            first.setdefault(i, m)
    rows = []
    # every rho^m_i is zero before column i and at the other pivots of C_m,
    # so the row blocks there are zero in every term: `_outer` appends this
    # one shared block for them instead of multiplying n entries by 0
    zero = (0,) * n
    # pivots are the keys of C_M and of each tails[m], in increasing order
    for i in cs[-1] if cs else ():
        for c, tail in tails[first[i]].items():
            if len(tail) == 1:
                # a primitive row of C times a primitive row of D is primitive
                rows.append(tuple(_outer(cs[tail[0][0]][i], tail[0][1], zero)))
                continue
            terms = [(cs[m][i], s, cs[m][i][i] * den) for m, s, den in tail]
            scale = lcm(*(den for _, _, den in terms))
            products = []
            for r, s, den in terms:
                if den != scale:
                    s = [scale // den * y for y in s]
                products.append(_outer(r, s, zero))
            rows.append(tuple(_primitive(list(map(sum, zip(*products))))))
    return OperatorSpace(n, Subspace(n * n, tuple(rows)))


def _outer(r: Sequence[int], s: Sequence[int], zero: tuple[int, ...]) -> list[int]:
    """r (x) s row-major, with the shared zero block wherever r is zero."""
    row = []
    for x in r:
        row += [x * y for y in s] if x else zero
    return row


def nest_algebra(nest: Nest) -> OperatorSpace:
    """Operators leaving every nest element invariant: m_of the identity."""
    return m_of(nest, SupportFn.identity(nest))


def span_of_rank_ones(nest: Nest) -> OperatorSpace:
    """Span of all rank-one members of the nest algebra.

    m_of builds its space from rank-one members, so at the identity support
    this is the algebra itself.
    """
    return nest_algebra(nest)


def generate_bimodule(nest: Nest, generators: Iterable[Matrix]) -> OperatorSpace:
    """Smallest subspace containing the generators and invariant under left
    and right multiplication by the nest algebra.

    A G A E = A G E, and A W is the smallest nest element containing W, so
    the bimodule has support E |-> smallest element containing G E; being
    reflexive, it is m_of of that support.
    """
    n = nest.ambient_dim
    ops = []
    for g in generators:
        if (g.rows, g.cols) != (n, n):
            raise AmbientMismatchError(f"generator is not a {n}x{n} matrix")
        w = int_row(g.flatten())
        if w is not None:
            ops.append(w)
    return m_of(nest, SupportFn(nest, _hull_values(nest, ops)))


def _support_values(nest: Nest, j: OperatorSpace) -> tuple[int, ...] | None:
    """The support psi of J, read off J's pivots, or None when J is not a
    bimodule.

    In m_of(psi) the pivots of row block i are (i, c) for the c in the pivot
    set of E_(t_i - 1)^perp, where t_i is the first level whose psi value has
    a pivot at i (see `m_of`).  So the w_i pivots of J in row block i give
    dim E_(t_i - 1) = n - w_i, and psi(E_t) is the element of dimension
    #{i : t_i <= t}, with psi(E_0) = 0.  A bimodule is m_of of its support
    (Erdos and Power), so J is one exactly when m_of(psi) equals J; a
    dimension that names no nest element rules J out at once.  A J that m_of
    returned on this nest is the memoized m_of(psi) itself, and any other J
    is compared row by row.
    """
    if j.ambient_dim != nest.ambient_dim:
        raise AmbientMismatchError("operator space and nest ambient dimensions differ")
    n = nest.ambient_dim
    index = {e.dim: t for t, e in enumerate(nest.elements)}
    width = [0] * n
    for p in j.space.pivots:
        width[p // n] += 1
    # reached[t] counts the row blocks i with t_i = t
    reached = [0] * len(nest.elements)
    for w in width:
        if w:
            if n - w not in index:
                return None
            reached[index[n - w] + 1] += 1
    values = tuple(index.get(d, -1) for d in accumulate(reached))
    if -1 in values or m_of(nest, SupportFn(nest, values)).space != j.space:
        return None
    return values


def _bimodule_support(nest: Nest, j: OperatorSpace, message: str) -> tuple[int, ...]:
    values = _support_values(nest, j)
    if values is None:
        raise NotABimoduleError(message)
    return values


def is_bimodule(nest: Nest, s: OperatorSpace) -> bool:
    """Whether A s B stays inside s for all algebra members A and B,
    decided by comparing s with m_of of the support read off its pivots."""
    return _support_values(nest, s) is not None


def support_of(nest: Nest, j: OperatorSpace) -> SupportFn:
    """The support function E |-> [J E] of a bimodule J."""
    return SupportFn(nest, _bimodule_support(
        nest, j, "operator space is not a bimodule over the nest algebra"))


def is_reflexive(nest: Nest, j: OperatorSpace) -> bool:
    """Whether J equals the full operator space of its own support.

    The bimodule test is J = m_of(psi) for the support psi of J, so every
    bimodule passes.
    """
    _bimodule_support(nest, j, "reflexivity is defined for bimodules only")
    return True


def essential_support_of(nest: Nest, j: OperatorSpace) -> SupportFn:
    """Meet of all nest elements L with dim(T N / L) finite for T in J.

    At finite dimension every quotient is finite, every L qualifies, and the
    meet is the zero subspace at every N.
    """
    _bimodule_support(nest, j, "essential support is defined for bimodules only")
    return SupportFn(nest, (0,) * len(nest.elements))


# ---------------------------------------------------------------------------
# rank-one membership
# ---------------------------------------------------------------------------

def _rank_one_levels(nest: Nest, r: RankOne) -> tuple[int, int]:
    """Chain levels (p, m) of a nonzero rank-one x (x) f: E_p is the smallest
    element containing x, and E_m the largest element that f kills.

    Both properties pass up or down the chain, so each level is the first
    that changes: p is the first element holding x, and m + 1 the first
    level with an adapted vector on which f is nonzero.
    """
    if len(r.vector) != nest.ambient_dim:
        raise AmbientMismatchError("rank-one factor has the wrong length for the nest")
    if r.is_zero():
        raise ZeroVectorError("rank-one membership needs nonzero functional and vector")
    x, f = int_row(r.vector), int_row(r.functional)
    p = next(j for j, e in enumerate(nest.elements) if e.contains_row(x))
    m = next(
        j - 1
        for j, level in enumerate(nest.adapted_levels)
        if any(sum(a * b for a, b in zip(f, u)) for u in level)
    )
    return p, m


def rank_one_in_alg(nest: Nest, r: RankOne) -> tuple[bool, Subspace | None]:
    """Membership of a rank-one operator in the nest algebra.

    x (x) f leaves the nest invariant exactly when some element E holds x
    while f kills the predecessor of E (Ringrose), that is when p <= m + 1;
    the witness is E_p, the first such element.
    """
    p, m = _rank_one_levels(nest, r)
    if p <= m + 1:
        return True, nest.elements[p]
    return False, None


def rank_one_in_m(nest: Nest, phi: SupportFn, r: RankOne) -> tuple[bool, Subspace | None]:
    """Membership of a rank-one operator in the operator space of phi.

    x (x) f maps E_i to zero for i <= m and onto the line of x beyond, so it
    lies in the space exactly when phi(E_(m+1)) contains x.  The witness is
    the first element E_i whose annihilator holds f while x lies in phi of
    every element above E_i; phi is monotone, so that meet is phi(E_(i+1)).
    """
    if phi.nest != nest:
        raise AmbientMismatchError("support function belongs to a different nest")
    p, m = _rank_one_levels(nest, r)
    for j in range(1, m + 2):
        if phi.values[j] >= p:
            return True, nest.elements[j - 1]
    return False, None


# ---------------------------------------------------------------------------
# finite-rank decomposition
# ---------------------------------------------------------------------------

def _first_meet_vector(nest: Nest, r: Sequence[Sequence[int]]) -> list[int]:
    """The first row of the primitive integer RREF of L meet W, where W is the
    nonzero column space of the integer matrix r and L the smallest nest
    element meeting W (the top element meets it, so L exists).

    One Zassenhaus echelon answers both questions.  It holds [w | 0] for an
    echelon basis w of W, then [u | u] for the adapted basis vectors u, level
    by level.  Once the vectors up to level j are in, its rows with a zero
    left half hold E_j meet W in their right halves, so the first level that
    leaves such a row is L.  The basis of W is found at width n: the right
    half of [w | 0] stays zero under elimination, so those rows are the
    n-wide echelon rows of the columns of r, padded with zeros.
    """
    n = nest.ambient_dim
    zeros = [0] * n
    w = IntEchelon()
    for column in zip(*r):
        w.insert(column)
    z = IntEchelon([[*row, *zeros] for row in w.rows], w.pivots)
    for level in nest.adapted_levels:
        for u in level:
            z.insert([*u, *u])
        if z.pivots and z.pivots[-1] >= n:
            break
    cap = [(row[n:], p - n) for row, p in zip(z.rows, z.pivots) if p >= n]
    rows, pivots = zip(*cap)
    return IntEchelon(rows, pivots).reduced().rows[0]


def decompose(nest: Nest, phi: SupportFn, t: Matrix) -> list[RankOne]:
    """Write a member of the operator space of phi as a sum of rank-one
    members, one factor per unit of rank.

    The remainder is held in integers, r / d with one common denominator d.
    Tie-breaking is canonical: the vector is the first reduced echelon basis
    vector x of L meet W (W the range of the remainder, L the smallest nest
    element meeting W; see `_first_meet_vector`), and the functional is the
    row of the remainder at the pivot position p of x.  With c = x_p, a step
    sets r to c r - x (x) r_p and d to c d, then divides both by their gcd.
    Since x lies in the range, each step is a Wedderburn rank-one reduction
    and lowers the rank by exactly one.  The loop runs until the remainder is
    zero, at most n times since rank(t) <= n, and so takes rank(t) steps; a
    faulty step would give a wrong sum, which the independent gates catch,
    not a hang.  A `Fraction` is made only in the returned factors, r_p / d
    and x / c.  `oracles.decompose` is the same reduction over Fraction,
    which finds W, L and L meet W with the lattice operations `span`, `join`
    and `meet`.
    """
    n = nest.ambient_dim
    if phi.nest != nest:
        raise AmbientMismatchError("support function belongs to a different nest")
    if (t.rows, t.cols) != (n, n):
        raise AmbientMismatchError(f"operator is not a {n}x{n} matrix")
    d = lcm(*(x.denominator for row in t.entries for x in row))
    r = [[x.numerator * (d // x.denominator) for x in row] for row in t.entries]
    flat = [x for row in r for x in row]
    hull = _hull_values(nest, [flat])
    if any(h > v for h, v in zip(hull, phi.values)):
        raise NotAMemberError(
            "operator does not map every nest element into its support value"
        )

    factors: list[RankOne] = []
    for _ in range(n):
        if not any(map(any, r)):
            break
        x = _first_meet_vector(nest, r)
        p = _pivot(x)
        c = x[p]
        rp = r[p]
        factors.append(RankOne(
            tuple(Fraction(a, d) if a else ZERO for a in rp),
            tuple(Fraction(a, c) if a else ZERO for a in x),
        ))
        r = [[c * a - xi * b for a, b in zip(row, rp)] for row, xi in zip(r, x)]
        d *= c
        g = gcd(d, *(a for row in r for a in row))
        if g > 1:
            r = [[a // g for a in row] for row in r]
            d //= g
    return factors
