import copy
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestlab import (
    AmbientMismatchError,
    DimensionMismatchError,
    Matrix,
    Nest,
    Subspace,
    SupportFn,
    annihilator,
    as_vector,
    join,
    m_of,
    meet,
    nest_algebra,
    rank,
    span,
    validate_nest,
)
from nestlab.oracles import _apply, _outer, fraction_rref
from nestlab.ratlin import _pivot, _primitive, int_row

F = Fraction


def mat(rows):
    return Matrix.from_rows([[F(x) for x in r] for r in rows])


# --- frozen examples ---------------------------------------------------------

def test_rref_collapses_dependent_rows():
    assert span([(1, 2), (2, 4)], 2).basis == mat([[1, 2]])


def test_rref_is_fully_reduced():
    m = span([(2, 1, 1), (4, 3, 1)], 3).basis
    assert m == mat([[1, 0, 1], [0, 1, -1]])
    assert rank(mat([[2, 1, 1], [4, 3, 1]])) == 2


def test_matrix_apply():
    a = mat([[1, 2], [3, 4]])
    assert _apply(a, (F(1), F(1))) == (F(3), F(7))


def test_matrix_flatten_round_trip():
    a = mat([[1, 2, 3], [4, 5, 6]])
    flat = a.flatten()
    assert flat == tuple(F(x) for x in range(1, 7))
    assert Matrix(2, 3, (flat[:3], flat[3:])) == a


def test_outer_entries():
    r = _outer((1, 2), (3, 0, 5))
    assert r == mat([[3, 0, 5], [6, 0, 10]])


def test_span_canonical_basis():
    s = span([(2, 4), (1, 2)], 2)
    assert s.basis == mat([[1, 2]])
    assert s.dim == 1


def test_span_of_nothing_is_zero():
    assert span([], 3) == Subspace.zero(3)
    assert span([(0, 0, 0)], 3).dim == 0


def test_join_and_meet_on_lines():
    a = span([(1, 0, 0)], 3)
    b = span([(0, 1, 0)], 3)
    plane = span([(1, 0, 0), (0, 1, 0)], 3)
    assert join(a, b) == plane
    assert meet(plane, span([(1, 1, 1)], 3)).dim == 0
    assert meet(plane, span([(1, 1, 0)], 3)) == span([(1, 1, 0)], 3)


def test_annihilator_of_plane():
    plane = span([(1, 0, 0), (0, 1, 0)], 3)
    assert annihilator(plane) == span([(0, 0, 1)], 3)
    assert annihilator(Subspace.zero(3)) == Subspace.full(3)
    assert annihilator(Subspace.full(3)) == Subspace.zero(3)


def test_full_space_is_one_checked_value_per_n():
    for n in range(1, 7):
        full = Subspace.full(n)
        assert Subspace.full(n) is full
        assert full == Subspace(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
        assert full.pivots == tuple(range(n))
        back = pickle.loads(pickle.dumps(full))
        assert back == full and hash(back) == hash(full)
        # the zero subspace's annihilator is the shared value, not a copy
        assert annihilator(Subspace.zero(n)) is full


def test_contains_vector_handles_fractions():
    s = span([(1, 2)], 2)
    assert s.contains_vector((F(1, 2), F(1)))
    assert not s.contains_vector((1, 0))


def test_mixed_ambient_raises():
    with pytest.raises(AmbientMismatchError):
        join(span([(1, 0)], 2), span([(1, 0, 0)], 3))
    with pytest.raises(AmbientMismatchError):
        meet(Subspace.zero(2), Subspace.zero(3))


def test_as_vector_checks_length():
    from nestlab import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        as_vector((1, 2), 3)


# --- properties --------------------------------------------------------------

entries = st.integers(min_value=-3, max_value=3)


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    def rows():
        k = draw(st.integers(min_value=0, max_value=n))
        return [draw(st.tuples(*[entries] * n)) for _ in range(k)]
    return span(rows(), n), span(rows(), n)


@given(subspace_pairs())
@settings(max_examples=150)
def test_annihilator_is_involutive(pair):
    s, _ = pair
    assert annihilator(annihilator(s)) == s
    assert s.dim + annihilator(s).dim == s.ambient_dim


@given(subspace_pairs())
@settings(max_examples=150)
def test_meet_join_bounds(pair):
    a, b = pair
    assert join(a, b).contains(a) and join(a, b).contains(b)
    assert a.contains(meet(a, b)) and b.contains(meet(a, b))


@given(subspace_pairs())
@settings(max_examples=150)
def test_modular_dimension_count(pair):
    a, b = pair
    assert a.dim + b.dim == join(a, b).dim + meet(a, b).dim


@given(subspace_pairs())
@settings(max_examples=150)
def test_annihilator_reverses_inclusion(pair):
    a, b = pair
    big = join(a, b)
    assert annihilator(a).contains(annihilator(big))


@given(subspace_pairs(), st.sampled_from([1, 2, 3, -1, -2]))
@settings(max_examples=150)
def test_span_ignores_row_scaling(pair, c):
    s, _ = pair
    scaled = [tuple(c * x for x in r) for r in s.basis.entries]
    assert span(scaled, s.ambient_dim) == s


@given(subspace_pairs())
@settings(max_examples=150)
def test_span_contains_generators(pair):
    s, _ = pair
    for r in s.basis.entries:
        assert s.contains_vector(r)


# --- integer kernel against the Fraction back-substitution -------------------

def _random_rows(rng, n):
    """Rows of width n spanned by fewer independent rows than there are rows
    (so rank-deficient), mixing entries up to 2**64 with small ones and zeros;
    every third width gets rational entries."""
    big = 2 ** 64
    base = [
        [rng.choice((0, rng.randint(-big, big), rng.randint(-3, 3))) for _ in range(n)]
        for _ in range(rng.randint(1, min(n, 5)))
    ]
    rows = [
        [sum(rng.randint(-2, 2) * b[c] for b in base) for c in range(n)]
        for _ in range(rng.randint(1, min(n + 1, 6)))
    ]
    if n % 3 == 0:
        rows = [[Fraction(x, rng.randint(1, 9)) for x in r] for r in rows]
    return rows


def test_canonical_matches_the_fraction_oracle():
    rng = random.Random(0)
    for n in range(1, 145):
        rows = _random_rows(rng, n)
        got = span(rows, n).basis.entries
        want = fraction_rref(rows, n)
        assert got == want and repr(got) == repr(want), n


def test_stored_pivots_are_invisible():
    s = span([(2, 4, 0, 1), (0, 3, 3, 0), (1, 2, 0, 1)], 4)
    s.basis
    fresh = Subspace(s.ambient_dim, s.rows)
    assert Subspace.FIELDS == ("ambient_dim", "rows")
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert "pivots" not in repr(s)
    assert s.pivots == fresh.pivots == tuple(_pivot(r) for r in s.rows) == (0, 1, 3)
    for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert back == s == fresh and back.pivots == s.pivots
        assert back.basis == fresh.basis == s.basis


def test_subspace_and_nest_from_lists_equal_the_tuple_built_values():
    line = span([(1, 0, 0)], 3)
    listed = Subspace(3, [[1, 0, 0]])
    assert listed == line and hash(listed) == hash(line)
    assert listed.rows == ((1, 0, 0),) and listed.pivots == (0,)
    assert validate_nest([listed], 3).elements.index(line) == 1
    assert validate_nest([line], 3).elements.index(listed) == 1
    nest = validate_nest([line, span([(1, 0, 0), (0, 1, 1)], 3)], 3)
    rebuilt = Nest(3, list(nest.elements))
    assert rebuilt == nest and hash(rebuilt) == hash(nest)
    assert rebuilt.elements.index(listed) == 1
    assert m_of(nest, SupportFn.identity(rebuilt)) == nest_algebra(nest)


@pytest.mark.parametrize("ambient, rows, error", [
    (3, ((1, 0, 0), (0, 0, 0)), DimensionMismatchError),
    (3, ((2, 0, 4),), DimensionMismatchError),
    (3, ((-1, 0, 2),), DimensionMismatchError),
    (3, ((1, 2, 0), (0, 1, 3)), DimensionMismatchError),
    (3, ((0, 1, 0), (1, 0, 0)), DimensionMismatchError),
    (3, ((1, 0, 0), (0, 1, 0), (0, 1, 1)), DimensionMismatchError),
    (3, ((1, 0),), AmbientMismatchError),
    (2, ((1, 0), (0, 1, 0)), AmbientMismatchError),
], ids=[
    "zero-row", "non-primitive", "negative-pivot", "entry-above-pivot",
    "pivots-out-of-order", "repeated-pivot", "short-row", "long-row",
])
def test_subspace_rejects_non_canonical_rows(ambient, rows, error):
    with pytest.raises(error):
        Subspace(ambient, rows)


def test_subspace_accepts_its_canonical_rows():
    s = Subspace(3, ((2, 0, 1), (0, 1, -3)))
    assert s == span([(4, 0, 2), (2, 1, -2)], 3)
    assert s.basis == mat([[1, 0, F(1, 2)], [0, 1, -3]])


def test_lattice_operations_leave_cached_rows_unchanged():
    a = span([(1, 2, 0, 0), (0, 0, 1, 3)], 4)
    b = span([(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)], 4)
    before = [copy.deepcopy((s.rows, s.pivots)) for s in (a, b)]
    join(a, b)
    join(b, a)
    meet(a, b)
    a.contains(b)
    b.contains(a)
    assert [(s.rows, s.pivots) for s in (a, b)] == before


def test_no_fraction_is_made_until_a_basis_is_read(fractions_made):
    vecs = [(1, 2, 0, 3), (0, 1, 1, 1), (2, 0, 1, 0), (1, 1, 1, 1)]
    nest = validate_nest([span(vecs[:1], 4), span(vecs[:3], 4)], 4)
    k = len(nest.elements)
    phi = SupportFn(nest, tuple(min(i + 1, k - 1) for i in range(k)))
    a, b = span(vecs[:2], 4), span(vecs[2:], 4)

    def lattice_and_operator_spaces():
        span(vecs, 4)
        join(a, b)
        meet(a, b)
        annihilator(a)
        a.contains(b)
        b.contains_vector(vecs[0])
        nest_algebra(nest)
        m_of(nest, phi)

    assert fractions_made(lattice_and_operator_spaces) == 0
    fresh = span(vecs[:2], 4)
    assert fractions_made(lambda: fresh.basis) > 0


def test_int_and_fraction_rows_enter_the_kernel_without_a_fraction(fractions_made):
    ints = [(2, 4, 0, 6), (0, -3, 3, 0), (1, 2, 1, 3)]
    fractions = [tuple(F(x, 3) for x in row) for row in ints]

    def int_rows():
        line = span(ints[:1], 4)
        nest = validate_nest([line, span(ints[:2], 4), span(ints, 4)], 4)
        line.contains_vector(ints[1])
        nest.elements[2].contains_vector(list(ints[2]))

    def fraction_rows():
        span(fractions, 4).contains_vector(fractions[0])

    assert fractions_made(int_rows) == 0
    assert fractions_made(fraction_rows) == 0
    # a decimal string still enters through as_vector
    assert fractions_made(lambda: span([("1", "2.5", "0", "0")], 4)) > 0


# --- the kernel's entry against the Fraction route ---------------------------

def _per_entry_primitive(row):
    """_primitive as a loop: the gcd taken one entry at a time, the sign that
    of the first nonzero entry."""
    g = lead = 0
    for x in row:
        if x and not lead:
            lead = x
        g = gcd(g, x)
    if g == 0:
        return None
    if lead < 0:
        g = -g
    return [x // g for x in row]


def _fraction_route(row, n):
    """int_row through Fraction: every entry made a Fraction, the row scaled
    by the lcm of the denominators, then made primitive entry by entry."""
    vec = as_vector(row, n)
    scale = lcm(*(x.denominator for x in vec))
    return _per_entry_primitive([int(x * scale) for x in vec])


def _kernel_row(rng, n):
    """A row of one entry kind, or of mixed kinds, that is zero a tenth of
    the time and otherwise scaled by a factor that may be negative or share
    a divisor with every entry; half the rows are lists."""
    ints = [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)))
            for _ in range(n)]
    if rng.random() < 0.1:
        ints = [0] * n
    factor = rng.choice((1, 1, -1, 2, -6, 12))
    kind = rng.choice(("int", "fraction", "str", "bool", "mixed"))
    row = []
    for x in ints:
        x *= factor
        pick = rng.choice(("int", "fraction", "str", "bool")) if kind == "mixed" else kind
        den = rng.choice((1, 1, 2, 3, 10))
        if pick == "fraction":
            row.append(F(x, den))
        elif pick == "str":
            row.append(rng.choice((str(x), f"{x}/{den}", f"{x}.{rng.randint(0, 99)}")))
        elif pick == "bool":
            row.append(x % 2 == 1)
        else:
            row.append(x)
    return row if rng.random() < 0.5 else tuple(row)


def test_int_row_equals_the_fraction_route():
    rng = random.Random(19)
    for case in range(2000):
        n = rng.randint(0, 7)
        row = _kernel_row(rng, n)
        got = int_row(row, n)
        assert got == _fraction_route(row, n) == int_row(row), (case, row)
        assert got is None or {type(x) for x in got} == {int}
        assert got is not row


def test_primitive_equals_the_per_entry_loop():
    rng = random.Random(19)
    for case in range(2000):
        n = rng.randint(0, 7)
        factor = rng.choice((1, -1, 2, -3, 2 ** 65))
        row = [factor * rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)))
               for _ in range(n)]
        for given in (row, tuple(row)):
            got = _primitive(given)
            assert got == _per_entry_primitive(given), (case, given)
            assert got is not given
