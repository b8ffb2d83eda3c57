"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator, no
rounding anywhere).  A subspace of Q^n is stored as the reduced row-echelon
form of its span with each row scaled to a primitive integer vector with a
positive pivot.  That form is unique, so two subspaces are equal exactly when
their integer rows are equal.

The kernel is integer from input to output.  Every row enters it through
`int_row`, which scales it to a primitive integer vector (same span) with
one `gcd` call (`_primitive`).  A row of ints or of Fractions enters without
a `Fraction` being made; only other entries (decimal strings, bools, mixed
rows) are read by `as_vector` first.  Rows are eliminated by
cross-multiplication (`IntEchelon.insert`).  `IntEchelon.reduced` clears the
entries above every pivot fraction-free, row_j = (b/g) row_j - (a/g) row_i
with g = gcd(a, b), which gives the stored form directly.  A `Subspace` keeps
the pivot columns its constructor finds while checking that form, and
answers membership (`Subspace.contains_row`) by the same reduction,
`_residue`, that an `IntEchelon` runs; a join seeds its echelon with the rows
and pivots of its first side.  A `Fraction` is made only when
`Subspace.basis` is read: each stored row divided by its pivot, one
`Fraction` per nonzero entry.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import AmbientMismatchError, DimensionMismatchError
from .value import Value

__all__ = [
    "Matrix",
    "Subspace",
    "Vector",
    "annihilator",
    "as_fraction",
    "as_vector",
    "join",
    "meet",
    "rank",
    "span",
]

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)

# the entry types of a row that `int_row` reads without `as_vector`
_INT = {int}
_FRACTION = {Fraction}


def as_fraction(value: int | str | Fraction) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def as_vector(entries: Sequence, n: int | None = None) -> Vector:
    return _check_length(tuple(as_fraction(x) for x in entries), n)


def _check_length(entries: Sequence, n: int | None) -> Sequence:
    if n is not None and len(entries) != n:
        raise DimensionMismatchError(
            f"vector has {len(entries)} entries, expected {n}"
        )
    return entries


# ---------------------------------------------------------------------------
# integer echelon kernel
# ---------------------------------------------------------------------------

def _primitive(row: Sequence[int]) -> list[int] | None:
    """Scale an integer row to gcd 1 with positive leading entry, as a new
    list (an `IntEchelon` keeps the rows it is given).

    Returns None for the zero row.
    """
    lead = next(filter(None, row), 0)
    if not lead:
        return None
    g = gcd(*row)
    if g == 1 and lead > 0:
        return list(row)
    if lead < 0:
        g = -g
    return [x // g for x in row]


def _pivot(row: Sequence[int]) -> int | None:
    """Column of the first nonzero entry, or None for the zero row."""
    lead = next(filter(None, row), None)
    # every entry before the first nonzero one is 0, so index finds it there
    return None if lead is None else row.index(lead)


def int_row(entries: Sequence, n: int | None = None) -> list[int] | None:
    """Primitive integer row with the same span as a rational row, checked to
    have n entries when n is given; None for the zero row.

    A tuple or list of exact ints goes straight to `_primitive`, and one of
    Fractions is scaled by the lcm of its denominators: neither makes a
    Fraction.  Any other row (decimal strings, bools, mixed entries) is read
    by `as_vector` first.
    """
    kinds = set(map(type, entries)) if type(entries) in (tuple, list) else None
    if kinds == _INT:
        return _primitive(_check_length(entries, n))
    if kinds == _FRACTION:
        _check_length(entries, n)
    else:
        entries = as_vector(entries, n)
    nums = [x.numerator for x in entries]
    dens = [x.denominator for x in entries]
    scale = lcm(*dens)
    if scale != 1:
        nums = [a * (scale // d) for a, d in zip(nums, dens)]
    return _primitive(nums)


def _residue(rows: Sequence[Sequence[int]], pivots: Sequence[int],
             v: Sequence[int]) -> list[int]:
    """v reduced by every echelon row, up to an integer factor; zero exactly
    when v lies in the span of the rows."""
    w = list(v)
    ncols = len(w)
    for row, p in zip(rows, pivots):
        a = w[p]
        if a:
            b = row[p]
            for i in range(p):
                w[i] = b * w[i]
            for i in range(p, ncols):
                w[i] = b * w[i] - a * row[i]
    return w


class IntEchelon:
    """Row space of integer vectors kept in echelon form, not necessarily
    reduced (`reduced` returns the reduced one).

    Rows are primitive, pivot columns strictly increase, and existing rows are
    never mutated by an insert, so callers may keep references to them.  An
    echelon may start from rows already in that form, with their pivots, such
    as those of a `Subspace`; the lists are copied, the rows shared.  Its
    width is that of its rows, and its size is `len(rows)`.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, rows: Iterable[Sequence[int]] = (), pivots: Iterable[int] = ()):
        self.rows: list[Sequence[int]] = list(rows)
        self.pivots: list[int] = list(pivots)

    def insert(self, v: Sequence[int]) -> list[int] | None:
        """Add v to the span; returns the new basis row, or None if redundant."""
        w = _primitive(_residue(self.rows, self.pivots, v))
        if w is None:
            return None
        p = _pivot(w)
        at = bisect(self.pivots, p)
        self.rows.insert(at, w)
        self.pivots.insert(at, p)
        return w

    def reduced(self) -> "IntEchelon":
        """The same row space with zeros above every pivot, each row primitive
        with a positive pivot: the reduced row-echelon form scaled row by row
        to integers, which is unique.  Fraction-free: a row is cleared at a
        lower pivot by an integer combination of the two rows, then made
        primitive again."""
        out = IntEchelon(self.rows, self.pivots)
        rows = out.rows
        for i in range(len(rows) - 1, 0, -1):
            ri = rows[i]
            p = out.pivots[i]
            b = ri[p]
            for j in range(i):
                rj = rows[j]
                a = rj[p]
                if a:
                    g = gcd(a, b)
                    a //= g
                    bg = b // g
                    rows[j] = _primitive([bg * x - a * y for x, y in zip(rj, ri)])
        return out


def _echelon_from_rows(rows: Iterable[Sequence], ncols: int) -> IntEchelon:
    ech = IntEchelon()
    for r in rows:
        w = int_row(r, ncols)
        if w is not None:
            ech.insert(w)
    return ech


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix(Value):
    """Immutable dense matrix over Fraction: the value in which operators
    enter and leave the package.  Operator arithmetic runs in integers in
    `opspace`, and in the test oracles over Fraction rows."""

    FIELDS = ("rows", "cols", "entries")
    __slots__ = FIELDS

    def __init__(self, rows: int, cols: int, entries: tuple[Vector, ...]):
        if len(entries) != rows:
            raise DimensionMismatchError("row count does not match entries")
        for r in entries:
            if len(r) != cols:
                raise DimensionMismatchError("ragged matrix rows")
        self._set(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        entries = tuple(tuple(as_fraction(x) for x in r) for r in rows)
        ncols = len(entries[0]) if entries else 0
        return cls(len(entries), ncols, entries)

    def flatten(self) -> Vector:
        """Row-major flattening, the layout used for operator spaces."""
        return tuple(x for r in self.entries for x in r)


def rank(m: Matrix) -> int:
    return len(_echelon_from_rows(m.entries, m.cols).rows)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace(Value):
    """A subspace of Q^n held by its reduced row-echelon basis, each row
    scaled to a primitive integer vector with a positive pivot.

    The representation is canonical: no zero rows, pivot columns strictly
    increasing, zeros above and below every pivot, each row of gcd 1 with a
    positive pivot.  Equality of subspaces is therefore plain equality of the
    fields `ambient_dim` and `rows`.  The constructor checks that form and
    keeps the pivot columns it finds as `pivots`, a slot that is not a field,
    so `==`, `hash` and `repr` ignore it.  `contains_row` tests an integer
    vector against the rows and pivots without building an echelon.  The
    Fraction basis is built each time `basis` is read, and not kept.
    """

    FIELDS = ("ambient_dim", "rows")
    __slots__ = (*FIELDS, "pivots")

    def __init__(self, ambient_dim: int, rows: tuple[tuple[int, ...], ...]):
        # tuples, so that rows given as lists compare and hash as one value
        rows = tuple(map(tuple, rows))
        pivots: list[int] = []
        for row in rows:
            if len(row) != ambient_dim:
                raise AmbientMismatchError("basis width does not match ambient dimension")
            p = _pivot(row)
            if p is None:
                raise DimensionMismatchError("zero row in echelon basis")
            if (pivots and p <= pivots[-1]) or row[p] < 0:
                raise DimensionMismatchError("basis is not in reduced echelon form")
            if gcd(*row) != 1:
                raise DimensionMismatchError("basis row is not a primitive integer vector")
            if any(map(itemgetter(p), rows[:len(pivots)])):
                raise DimensionMismatchError("basis is not fully reduced")
            pivots.append(p)
        self._set(ambient_dim, rows, tuple(pivots))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, ())

    @classmethod
    @cache
    def full(cls, n: int) -> "Subspace":
        # built once per n, through the checking constructor: the value is
        # immutable, so every caller shares it
        return cls(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """The reduced row-echelon basis over Fraction (pivots 1), built on
        each read: each row divided by its pivot."""
        entries = [
            tuple(Fraction(x, row[p]) if x else ZERO for x in row)
            for row, p in zip(self.rows, self.pivots)
        ]
        return Matrix(self.dim, self.ambient_dim, tuple(entries))

    def contains_row(self, v: Sequence[int]) -> bool:
        """Whether the integer vector v lies in the subspace."""
        return not any(_residue(self.rows, self.pivots, v))

    def contains_vector(self, v: Sequence) -> bool:
        w = int_row(v, self.ambient_dim)
        return w is None or self.contains_row(w)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("subspaces live in different ambients")
        return all(map(self.contains_row, other.rows))


def span(vectors: Iterable[Sequence], n: int) -> Subspace:
    """The subspace of Q^n spanned by the given vectors."""
    return _subspace_from_echelon(_echelon_from_rows(vectors, n), n)


def _subspace_from_echelon(ech: IntEchelon, n: int) -> Subspace:
    return Subspace(n, tuple(map(tuple, ech.reduced().rows)))


def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both a and b."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError("join of subspaces in different ambients")
    ech = IntEchelon(a.rows, a.pivots)
    for r in b.rows:
        ech.insert(r)
    return _subspace_from_echelon(ech, a.ambient_dim)


def annihilator(s: Subspace) -> Subspace:
    """Functionals vanishing on s, as row vectors in the dual copy of Q^n.

    The same computation serves as pre-annihilator: row functionals and column
    vectors are both plain coordinate tuples here.

    The zero subspace's is the shared full space, `Subspace.full(n)`.  Any
    other has one solution per free column f of the stored rows: x_f = 1 and
    x_p = -r_f / r_p at the pivot p of each row r, scaled by the lcm of the
    pivots r_p involved so that it stays integer.
    """
    n = s.ambient_dim
    if not s.rows:
        return Subspace.full(n)
    pivots = set(s.pivots)
    out = IntEchelon()
    for f in range(n):
        if f in pivots:
            continue
        involved = [(r, p) for r, p in zip(s.rows, s.pivots) if r[f]]
        scale = lcm(*(r[p] for r, p in involved))
        v = [0] * n
        v[f] = scale
        for r, p in involved:
            v[p] = -r[f] * (scale // r[p])
        out.insert(v)
    return _subspace_from_echelon(out, n)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed through annihilator duality."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError("meet of subspaces in different ambients")
    return annihilator(join(annihilator(a), annihilator(b)))
