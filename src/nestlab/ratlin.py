"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator, no
rounding anywhere).  Subspaces of Q^n are stored through the unique reduced
row-echelon basis of their span, so two subspaces are equal exactly when their
representations are equal bit for bit.

The kernel is integer from input to output.  A rational row is scaled to a
primitive integer vector (same span) and eliminated by cross-multiplication
(`IntEchelon.insert`).  `IntEchelon.reduced` clears the entries above every
pivot fraction-free, row_j = (b/g) row_j - (a/g) row_i with g = gcd(a, b),
which gives the reduced echelon form with each row scaled to a primitive
integer vector with a positive pivot; that scaling is unique too.
`IntEchelon.canonical` divides each such row by its pivot, the only place a
`Fraction` is made: one per nonzero entry of a returned basis.  Every
`Subspace` keeps the integer form of its basis as `Subspace.echelon`, built
once per object, and the lattice operations read it instead of the
fractional rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import AmbientMismatchError, ContainmentError, DimensionMismatchError

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: int | str | Fraction) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def as_vector(entries: Sequence, n: int | None = None) -> Vector:
    vec = tuple(as_fraction(x) for x in entries)
    if n is not None and len(vec) != n:
        raise DimensionMismatchError(
            f"vector has {len(vec)} entries, expected {n}"
        )
    return vec


# ---------------------------------------------------------------------------
# integer echelon kernel
# ---------------------------------------------------------------------------

def _primitive(row: Sequence[int]) -> list[int] | None:
    """Scale an integer row to gcd 1 with positive leading entry.

    Returns None for the zero row.
    """
    g = 0
    lead = 0
    for x in row:
        if x and not lead:
            lead = x
        g = gcd(g, x)
    if g == 0:
        return None
    if lead < 0:
        g = -g
    return [x // g for x in row]


def int_row(entries: Sequence[Fraction]) -> list[int] | None:
    """Primitive integer row with the same span as a rational row."""
    scale = lcm(*(x.denominator for x in entries)) if entries else 1
    return _primitive([x.numerator * (scale // x.denominator) for x in entries])


class IntEchelon:
    """Row space of integer vectors kept in echelon form, not necessarily
    reduced (`reduced` returns the reduced one).

    Rows are primitive, pivot columns strictly increase, and existing rows are
    never mutated by an insert, so callers may keep references to them.
    """

    __slots__ = ("ncols", "rows", "pivots")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _residue(self, v: Sequence[int]) -> list[int] | None:
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            a = w[p]
            if a:
                b = row[p]
                for i in range(p):
                    w[i] = b * w[i]
                for i in range(p, self.ncols):
                    w[i] = b * w[i] - a * row[i]
        return _primitive(w)

    def contains(self, v: Sequence[int]) -> bool:
        return self._residue(v) is None

    def insert(self, v: Sequence[int]) -> list[int] | None:
        """Add v to the span; returns the new basis row, or None if redundant."""
        w = self._residue(v)
        if w is None:
            return None
        p = next(i for i, x in enumerate(w) if x)
        at = len(self.pivots)
        for k, q in enumerate(self.pivots):
            if q > p:
                at = k
                break
        self.rows.insert(at, w)
        self.pivots.insert(at, p)
        return w

    def copy(self) -> "IntEchelon":
        """An echelon over the same rows that can be extended independently;
        the rows themselves are shared, since an insert never mutates them."""
        out = IntEchelon(self.ncols)
        out.rows = list(self.rows)
        out.pivots = list(self.pivots)
        return out

    def reduced(self) -> "IntEchelon":
        """The same row space with zeros above every pivot, each row primitive
        with a positive pivot: the reduced row-echelon form scaled row by row
        to integers, which is unique.  Fraction-free: a row is cleared at a
        lower pivot by an integer combination of the two rows, then made
        primitive again."""
        rows = list(self.rows)
        for i in range(len(rows) - 1, 0, -1):
            ri = rows[i]
            p = self.pivots[i]
            b = ri[p]
            for j in range(i):
                rj = rows[j]
                a = rj[p]
                if a:
                    g = gcd(a, b)
                    a //= g
                    bg = b // g
                    rows[j] = _primitive([bg * x - a * y for x, y in zip(rj, ri)])
        out = IntEchelon(self.ncols)
        out.rows = rows
        out.pivots = list(self.pivots)
        return out

    def canonical(self) -> tuple[Vector, ...]:
        """The reduced row-echelon basis over Fraction (pivots 1, zeros above)."""
        return _fraction_rows(self.reduced())


def _fraction_rows(red: IntEchelon) -> tuple[Vector, ...]:
    # each row of a reduced echelon divided by its pivot
    return tuple(
        tuple(Fraction(x, row[p]) if x else ZERO for x in row)
        for row, p in zip(red.rows, red.pivots)
    )


def _echelon_from_rows(rows: Iterable[Sequence[Fraction]], ncols: int) -> IntEchelon:
    ech = IntEchelon(ncols)
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatchError(
                f"vector has {len(r)} entries, expected {ncols}"
            )
        w = int_row(tuple(as_fraction(x) for x in r))
        if w is not None:
            ech.insert(w)
    return ech


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over Fraction."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionMismatchError("row count does not match entries")
        for r in self.entries:
            if len(r) != self.cols:
                raise DimensionMismatchError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        entries = tuple(tuple(as_fraction(x) for x in r) for r in rows)
        ncols = len(entries[0]) if entries else 0
        return cls(len(entries), ncols, entries)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(
            tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
        ))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def from_flat(cls, flat: Sequence, rows: int, cols: int) -> "Matrix":
        if len(flat) != rows * cols:
            raise DimensionMismatchError("flat entry count does not match shape")
        it = [as_fraction(x) for x in flat]
        return cls(rows, cols, tuple(
            tuple(it[i * cols + j] for j in range(cols)) for i in range(rows)
        ))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def flatten(self) -> Vector:
        """Row-major flattening, the layout used for operator spaces."""
        return tuple(x for r in self.entries for x in r)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(
            tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)
        ))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix shapes differ")
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(
            tuple(-x for x in r) for r in self.entries
        ))

    def __rmul__(self, scalar) -> "Matrix":
        c = as_fraction(scalar)
        return Matrix(self.rows, self.cols, tuple(
            tuple(c * x for x in r) for r in self.entries
        ))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("inner matrix dimensions differ")
        cols = other.transpose().entries
        return Matrix(self.rows, other.cols, tuple(
            tuple(sum(a * b for a, b in zip(r, c)) for c in cols) for r in self.entries
        ))

    def apply(self, v: Sequence) -> Vector:
        vec = as_vector(v, self.cols)
        return tuple(sum(a * b for a, b in zip(r, vec)) for r in self.entries)


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form of m; zero rows are dropped."""
    ech = _echelon_from_rows(m.entries, m.cols)
    rows = ech.canonical()
    return Matrix(len(rows), m.cols, rows)


def rank(m: Matrix) -> int:
    return rref(m).rows


def outer(vector: Sequence, functional: Sequence) -> Matrix:
    """The rank-one matrix of x -> functional(x) * vector."""
    w = tuple(as_fraction(x) for x in vector)
    f = tuple(as_fraction(x) for x in functional)
    return Matrix(len(w), len(f), tuple(tuple(wi * fj for fj in f) for wi in w))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held by its reduced row-echelon basis.

    The representation is canonical: no zero rows, pivot entries 1, pivot
    columns strictly increasing, zeros above and below every pivot.  Equality
    of subspaces is therefore plain equality of the dataclass fields.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows and self.basis.cols != self.ambient_dim:
            raise AmbientMismatchError("basis width does not match ambient dimension")
        last = -1
        for i, row in enumerate(self.basis.entries):
            p = next((j for j, x in enumerate(row) if x), None)
            if p is None:
                raise DimensionMismatchError("zero row in echelon basis")
            if p <= last or row[p] != 1:
                raise DimensionMismatchError("basis is not in reduced echelon form")
            for k in range(i):
                if self.basis.entries[k][p] != 0:
                    raise DimensionMismatchError("basis is not fully reduced")
            last = p

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, Matrix(0, n, ()))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, Matrix.identity(n))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.basis.entries

    def is_zero(self) -> bool:
        return self.dim == 0

    @cached_property
    def echelon(self) -> IntEchelon:
        """The basis as primitive integer rows with positive pivots, built at
        most once per object.  Read-only: extend a copy, never this object.
        It is not a field, so equality, hashing and repr ignore it."""
        return _echelon_from_rows(self.basis.entries, self.ambient_dim)

    def contains_vector(self, v: Sequence) -> bool:
        vec = as_vector(v, self.ambient_dim)
        w = int_row(vec)
        return w is None or self.echelon.contains(w)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("subspaces live in different ambients")
        if other.dim > self.dim:
            return False
        ech = self.echelon
        return all(ech.contains(r) for r in other.echelon.rows)


def span(vectors: Iterable[Sequence], n: int) -> Subspace:
    """The subspace of Q^n spanned by the given vectors."""
    ech = IntEchelon(n)
    for v in vectors:
        vec = as_vector(v, n)
        w = int_row(vec)
        if w is not None:
            ech.insert(w)
    return _subspace_from_echelon(ech, n)


def _subspace_from_echelon(ech: IntEchelon, n: int) -> Subspace:
    red = ech.reduced()
    rows = _fraction_rows(red)
    s = Subspace(n, Matrix(len(rows), n, rows))
    # red is exactly what Subspace.echelon would rebuild from these rows
    s.__dict__["echelon"] = red
    return s


def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both a and b."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError("join of subspaces in different ambients")
    if b.dim > a.dim:
        a, b = b, a
    ech = a.echelon.copy()
    grew = False
    for r in b.echelon.rows:
        if ech.insert(r) is not None:
            grew = True
    return _subspace_from_echelon(ech, a.ambient_dim) if grew else a


def annihilator(s: Subspace) -> Subspace:
    """Functionals vanishing on s, as row vectors in the dual copy of Q^n.

    The same computation serves as pre-annihilator: row functionals and column
    vectors are both plain coordinate tuples here.
    """
    return _nullspace(s.echelon, s.ambient_dim)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed through annihilator duality."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError("meet of subspaces in different ambients")
    return annihilator(join(annihilator(a), annihilator(b)))


def quotient_dim(a: Subspace, b: Subspace) -> int:
    """dim(b / a) for a contained in b."""
    if not b.contains(a):
        raise ContainmentError("quotient requires the first subspace inside the second")
    return b.dim - a.dim


def nullspace_of_rows(rows: Iterable[Sequence[Fraction]], n: int) -> Subspace:
    """Solutions x of r . x = 0 for every constraint row r."""
    return _nullspace(_echelon_from_rows(rows, n), n)


def _nullspace(ech: IntEchelon, n: int) -> Subspace:
    """One solution per free column f of the reduced rows: x_f = 1 and
    x_p = -r_f / r_p at the pivot p of each row r, scaled by the lcm of the
    pivots r_p involved so that it stays integer."""
    red = ech.reduced()
    pivots = set(red.pivots)
    out = IntEchelon(n)
    for f in range(n):
        if f in pivots:
            continue
        involved = [(r, p) for r, p in zip(red.rows, red.pivots) if r[f]]
        scale = lcm(*(r[p] for r, p in involved))
        v = [0] * n
        v[f] = scale
        for r, p in involved:
            v[p] = -r[f] * (scale // r[p])
        out.insert(v)
    return _subspace_from_echelon(out, n)
