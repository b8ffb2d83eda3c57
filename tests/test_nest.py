import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestlab import (
    AmbientMismatchError,
    IncomparableError,
    Nest,
    Subspace,
    SupportFn,
    annihilator,
    m_of,
    meet,
    nest_algebra,
    span,
    span_of_rank_ones,
    validate_nest,
)
from nestlab.documents import parse_document
from nestlab.oracles import _adjacent, _smallest_intersecting, fraction_rref, perp_span_check
from nestlab.ratlin import IntEchelon
from nestlab.sampling import random_flag

FIXTURES = Path(__file__).parent / "fixtures"


def triangular():
    # {0} < span{e1} < span{e1,e2} < Q^3
    return validate_nest(
        [span([(1, 0, 0)], 3), span([(1, 0, 0), (0, 1, 0)], 3)], 3
    )


def test_validate_inserts_endpoints():
    nest = triangular()
    assert len(nest) == 4
    assert nest.elements[0] == Subspace.zero(3)
    assert nest.elements[-1] == Subspace.full(3)
    assert [e.dim for e in nest.elements] == [0, 1, 2, 3]


def test_validate_collapses_duplicates():
    line = span([(1, 0)], 2)
    nest = validate_nest([line, span([(2, 0)], 2)], 2)
    assert len(nest) == 3


def test_validate_rejects_incomparable():
    with pytest.raises(IncomparableError):
        validate_nest([span([(1, 0)], 2), span([(0, 1)], 2)], 2)


def test_validate_rejects_mixed_ambient():
    with pytest.raises(AmbientMismatchError):
        validate_nest([span([(1, 0)], 2), span([(1, 0, 0)], 3)], 2)


def test_nest_constructor_requires_trivial_endpoints():
    with pytest.raises(IncomparableError):
        Nest(2, (span([(1, 0)], 2), Subspace.full(2)))


def test_nest_constructor_names_an_incomparable_pair():
    zero, x, y = Subspace.zero(2), span([(1, 0)], 2), span([(0, 1)], 2)
    with pytest.raises(IncomparableError, match=r"^subspaces are incomparable: "
                       r"span\[\['1', '0'\]\] and span\[\['0', '1'\]\]$"):
        Nest(2, (zero, x, y, Subspace.full(2)))
    with pytest.raises(IncomparableError, match="^nest elements are not strictly increasing$"):
        Nest(2, (zero, x, x, Subspace.full(2)))
    # the pivots {0} of span(e1 + e2) lie among the pivots {0, 2} of
    # span(e1, e3), but the line does not lie in the plane
    line, plane = span([(1, 1, 0)], 3), span([(1, 0, 0), (0, 0, 1)], 3)
    with pytest.raises(IncomparableError, match=r"^subspaces are incomparable: "
                       r"span\[\['1', '1', '0'\]\] and "
                       r"span\[\['1', '0', '0'\], \['0', '0', '1'\]\]$"):
        Nest(3, (Subspace.zero(3), line, plane, Subspace.full(3)))


def test_nest_constructor_rejects_elements_of_another_ambient():
    # the dimensions alone would pass: 0 at the bottom and 3 at the top
    plane = Subspace(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    with pytest.raises(AmbientMismatchError):
        Nest(3, (Subspace.zero(4), plane))
    with pytest.raises(AmbientMismatchError):
        Nest(3, (Subspace.zero(3), span([(1, 0, 0)], 3), Subspace.full(4)))


def test_element_lookup():
    nest = triangular()
    assert nest.elements[1] == span([(1, 0, 0)], 3)
    # elements are canonical, so a subspace spanned another way finds its index
    assert nest.elements.index(span([(1, 1, 0), (0, 2, 0)], 3)) == 2
    assert span([(0, 1, 0)], 3) not in nest.elements


def test_adjacent_conventions():
    nest = triangular()
    bottom, e1, e2, top = nest.elements
    assert _adjacent(nest, 0) == (bottom, e1)
    assert _adjacent(nest, 2) == (e1, top)
    assert _adjacent(nest, 3) == (e2, top)


def test_smallest_intersecting_example():
    nest = triangular()
    w = span([(0, 1, 1)], 3)
    assert _smallest_intersecting(nest, w) == nest.elements[-1]
    assert _smallest_intersecting(nest, span([(1, 0, 0)], 3)) == nest.elements[1]
    with pytest.raises(ValueError, match="^the zero subspace meets no nest element"):
        _smallest_intersecting(nest, Subspace.zero(3))


def test_perp_span_check_on_triangular():
    nest = triangular()
    assert all(perp_span_check(nest, e) for e in nest.elements)


# --- properties --------------------------------------------------------------

entries = st.integers(min_value=-2, max_value=2)


@st.composite
def nest_and_vector(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=0, max_value=n))
    rows = [draw(st.tuples(*[entries] * n)) for _ in range(k)]
    chain = []
    for i in range(len(rows)):
        chain.append(span(rows[: i + 1], n))
    nest = validate_nest(chain, n)
    v = draw(st.tuples(*[entries] * n))
    return nest, v


@given(nest_and_vector())
@settings(max_examples=100)
def test_smallest_intersecting_is_minimal(case):
    nest, v = case
    w = span([v], nest.ambient_dim)
    if w.dim == 0:
        return
    hit = _smallest_intersecting(nest, w)
    assert meet(hit, w).dim > 0
    for e in nest.elements:
        if e.dim < hit.dim:
            assert meet(e, w).dim == 0


@given(nest_and_vector())
@settings(max_examples=100)
def test_perp_span_identity_holds(case):
    nest, _ = case
    for e in nest.elements:
        assert perp_span_check(nest, e)


def test_adapted_basis_is_cached_and_invisible():
    nest = validate_nest([span([(1, 2, 0)], 3), span([(1, 2, 0), (0, 1, 1)], 3)], 3)
    fresh = Nest(nest.ambient_dim, nest.elements)
    levels = nest.adapted_levels
    assert Nest.FIELDS == ("ambient_dim", "elements")
    assert Nest.__slots__ == (*Nest.FIELDS, "adapted_levels", "operator_spaces", "annihilators")
    assert not any(isinstance(member, property) for member in vars(Nest).values())
    # the constructor builds the levels; the annihilators wait for m_of
    assert nest.annihilators == fresh.annihilators == {}
    assert nest == fresh and hash(nest) == hash(fresh) and repr(nest) == repr(fresh)
    assert nest.adapted_levels is levels
    back = pickle.loads(pickle.dumps(nest))
    assert back == nest == fresh
    assert back.adapted_levels == fresh.adapted_levels == levels
    assert back.annihilators == {}

    # level j extends a basis of E_(j-1) to one of E_j
    dims = [e.dim for e in nest.elements]
    assert [len(level) for level in levels] == [0] + [b - a for a, b in zip(dims, dims[1:])]
    vectors = []
    for e, level in zip(nest.elements, levels):
        vectors.extend(level)
        assert span(vectors, 3) == e

    # the algebra's phi changes at every level, so m_of reads and keeps the
    # annihilator of each element but the top: the largest space of
    # functionals killing E_j
    nest_algebra(nest)
    assert sorted(nest.annihilators) == list(range(len(nest) - 1))
    for j, perp in nest.annihilators.items():
        e = nest.elements[j]
        assert perp == annihilator(e)
        assert perp.dim == 3 - e.dim
        for f in perp.rows:
            assert not any(sum(x * y for x, y in zip(f, u)) for u in e.rows)
    # the kept annihilators are invisible, and a pickled copy starts empty
    assert nest == fresh and hash(nest) == hash(fresh) and repr(nest) == repr(fresh)
    assert pickle.loads(pickle.dumps(nest)).annihilators == {}


def _level_test_nests():
    """Every fixture's nest, and seeded complete flags, random subsets of
    them and two-block nests for n up to 16."""
    for path in sorted(FIXTURES.glob("*.json")):
        nest = parse_document(path.read_text()).nest
        if nest is not None:
            yield nest
    rng = random.Random(0)
    for n in range(1, 17):
        flag = random_flag(rng, n)
        yield validate_nest(flag, n)
        yield validate_nest(rng.sample(flag, rng.randint(0, n - 1)), n)
        yield validate_nest([flag[n // 2 - 1]] if n > 1 else [], n)


def test_levels_extend_each_element_to_the_next():
    # checked with the Fraction back-substitution of the oracles, apart from
    # the reads of the stored rows that build the levels
    for nest in _level_test_nests():
        n, levels = nest.ambient_dim, nest.adapted_levels
        assert len(levels) == len(nest) and levels[0] == ()
        for a, b, level in zip(nest.elements, nest.elements[1:], levels[1:]):
            assert len(level) == b.dim - a.dim
            assert all(row in b.rows for row in level)
            assert fraction_rref([*a.rows, *level], n) == fraction_rref(b.rows, n)


def test_building_a_nest_eliminates_nothing(monkeypatch):
    nests = list(_level_test_nests())
    inserts = []
    real = IntEchelon.insert
    monkeypatch.setattr(IntEchelon, "insert", lambda self, v: inserts.append(v) or real(self, v))
    for nest in nests:
        assert Nest(nest.ambient_dim, nest.elements) == nest
        assert validate_nest(nest.elements[1:-1], nest.ambient_dim) == nest
    assert inserts == []


def test_operator_spaces_are_memoized_and_invisible():
    nest = validate_nest([span([(1, 2, 0)], 3), span([(1, 2, 0), (0, 1, 1)], 3)], 3)
    phi = SupportFn(nest, (0, 2, 2, 3))
    space, alg = m_of(nest, phi), nest_algebra(nest)
    assert set(nest.operator_spaces) == {phi.values, tuple(range(len(nest)))}
    fresh = Nest(nest.ambient_dim, nest.elements)
    assert nest == fresh and hash(nest) == hash(fresh) and repr(nest) == repr(fresh)

    # repeated calls share one object; on an equal nest the memo is its own
    assert m_of(nest, phi) is space and m_of(nest, SupportFn(nest, (0, 2, 2, 3))) is space
    assert span_of_rank_ones(nest) is alg is nest_algebra(nest)
    assert m_of(fresh, SupportFn(fresh, phi.values)) == space
    assert nest_algebra(fresh) == alg
    assert m_of(fresh, SupportFn(fresh, phi.values)) is not space

    # pickle rebuilds the nest through its constructor, memo empty
    back = pickle.loads(pickle.dumps(nest))
    assert back == nest == fresh and hash(back) == hash(nest)
    assert back.operator_spaces == {}
    assert m_of(back, SupportFn(back, phi.values)) == space
    assert nest_algebra(back) == alg
