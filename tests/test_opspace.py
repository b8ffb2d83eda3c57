import itertools
import random
from fractions import Fraction

import pytest

from nestlab import (
    AmbientMismatchError,
    Matrix,
    NotABimoduleError,
    NotAMemberError,
    Nest,
    OperatorSpace,
    RankOne,
    SupportFn,
    SupportFunctionError,
    ZeroVectorError,
    annihilator,
    decompose,
    essential_support_of,
    generate_bimodule,
    is_bimodule,
    is_reflexive,
    m_of,
    nest_algebra,
    rank,
    rank_one_in_alg,
    rank_one_in_m,
    span,
    span_of_rank_ones,
    support_of,
    validate_nest,
)
from nestlab import opspace, oracles, sampling
from nestlab.oracles import _apply, _basis_matrices, _outer
from nestlab.suites import generator_samples, monotone_tables

F = Fraction


def mat(rows):
    return Matrix.from_rows([[F(x) for x in r] for r in rows])


def unit(n, i, j):
    # matrix unit e_ij: 1 in row i, column j
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return mat(rows)


def identity(n):
    return mat([[int(i == j) for j in range(n)] for i in range(n)])


def zero(n):
    return mat([[0] * n for _ in range(n)])


def holds(space, t):
    # membership of the operator t in the operator space
    return space.space.contains_vector(t.flatten())


def sum_of(factors, n):
    # the n x n operator sum of rank-one factors, entry by entry
    return Matrix.from_rows([
        [sum(f.vector[i] * f.functional[j] for f in factors) for j in range(n)]
        for i in range(n)
    ])


def triangular():
    return validate_nest(
        [span([(1, 0, 0)], 3), span([(1, 0, 0), (0, 1, 0)], 3)], 3
    )


# --- algebra dimensions ------------------------------------------------------

def test_algebra_of_full_flag_is_upper_triangular():
    alg = nest_algebra(triangular())
    assert alg.dim == 6
    for i in range(3):
        for j in range(3):
            assert holds(alg, unit(3, i, j)) == (i <= j)


def test_algebra_of_trivial_nest_is_everything():
    nest = validate_nest([], 3)
    assert nest_algebra(nest).dim == 9


def test_algebra_of_one_proper_element():
    nest = validate_nest([span([(1, 0, 0, 0), (0, 1, 0, 0)], 4)], 4)
    assert nest_algebra(nest).dim == 12


def test_support_fn_rejects_bad_tables():
    nest = triangular()
    with pytest.raises(SupportFunctionError):
        SupportFn(nest, (0, 2, 1, 3))
    with pytest.raises(SupportFunctionError):
        SupportFn(nest, (0, 1, 2))
    with pytest.raises(SupportFunctionError):
        SupportFn(nest, (0, 1, 2, 9))
    # a float value would fail in m_of, and a bool would not serialize
    for value in (True, 1.0):
        with pytest.raises(SupportFunctionError, match=f"^support value {value!r} is not"):
            SupportFn(nest, (0, value, 2, 3))


def test_m_of_dimension_formula():
    nest = triangular()
    phi = SupportFn(nest, (0, 2, 2, 3))
    space = m_of(nest, phi)
    assert space.dim == 7
    els = nest.elements
    assert space.dim == sum(
        (els[i].dim - els[i - 1].dim) * phi(i).dim for i in range(1, len(els))
    )


def test_m_of_identity_is_the_algebra():
    nest = triangular()
    assert m_of(nest, SupportFn.identity(nest)) == nest_algebra(nest)


# --- bimodule generation and support -----------------------------------------

def test_generate_from_corner_unit():
    nest = triangular()
    j = generate_bimodule(nest, [unit(3, 0, 2)])
    assert j.dim == 1
    assert holds(j, unit(3, 0, 2))


def test_generate_from_lower_corner_fills_up():
    nest = triangular()
    assert generate_bimodule(nest, [unit(3, 2, 0)]).dim == 9


def test_generate_nothing():
    nest = triangular()
    assert generate_bimodule(nest, []).dim == 0


def test_is_bimodule():
    nest = triangular()
    assert is_bimodule(nest, generate_bimodule(nest, [unit(3, 0, 2)]))
    assert not is_bimodule(nest, OperatorSpace.from_matrices(3, [unit(3, 2, 0)]))


def test_support_of_corner_unit():
    nest = triangular()
    j = generate_bimodule(nest, [unit(3, 0, 2)])
    assert support_of(nest, j).values == (0, 0, 0, 1)


def test_support_rejects_non_bimodule():
    nest = triangular()
    with pytest.raises(NotABimoduleError):
        support_of(nest, OperatorSpace.from_matrices(3, [unit(3, 2, 0)]))


def test_reflexivity_of_generated_bimodule():
    nest = triangular()
    j = generate_bimodule(nest, [unit(3, 0, 2)])
    assert is_reflexive(nest, j)
    assert m_of(nest, support_of(nest, j)) == j


def test_essential_support_vanishes():
    nest = triangular()
    j = generate_bimodule(nest, [unit(3, 0, 2)])
    assert essential_support_of(nest, j).values == (0, 0, 0, 0)


@pytest.mark.parametrize("guarded", [support_of, essential_support_of, is_reflexive])
def test_bimodule_guards_reject_non_bimodules(guarded):
    nest = triangular()
    with pytest.raises(NotABimoduleError):
        guarded(nest, OperatorSpace.from_matrices(3, [unit(3, 2, 0)]))


@pytest.mark.parametrize("check", [support_of, is_bimodule])
def test_mismatched_ambient_is_rejected(check):
    with pytest.raises(AmbientMismatchError):
        check(triangular(), OperatorSpace.from_matrices(2, [unit(2, 0, 1)]))


# --- closed forms against the literal oracles ----------------------------------

def test_generate_matches_closure_on_unit_pairs():
    nest = triangular()
    units = [unit(3, i, j) for i in range(3) for j in range(3)]
    for pair in itertools.combinations_with_replacement(units, 2):
        assert generate_bimodule(nest, pair) == oracles.generate_bimodule(nest, pair)


def conjugated_nest(rng, n, dims, bound):
    # the nest of spans of the first d columns of a random invertible integer
    # matrix with entries up to bound, for each d in dims
    while True:
        cols = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if span(cols, n).dim == n:
            return validate_nest([span(cols[:d], n) for d in dims], n)


def assert_same_space(got, want):
    assert got == want and repr(got) == repr(want)


def test_m_of_matches_constraints_on_every_table():
    # every monotone table on every nest shape at n = 1..4, each nest
    # conjugated by a random integer matrix, and on the triangular nest
    rng = random.Random(4)
    nests = [triangular()] + [
        conjugated_nest(rng, n, dims, 3)
        for n in range(1, 5)
        for r in range(n)
        for dims in itertools.combinations(range(1, n), r)
    ]
    for nest in nests:
        for values in monotone_tables(len(nest)):
            phi = SupportFn(nest, values)
            assert_same_space(m_of(nest, phi), oracles.m_of(nest, phi))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_m_of_matches_constraints_on_nests_with_huge_entries(n):
    # entries up to 10^6 give long rows in C_m and D_m, and so rows of m_of
    # summed over several levels and scaled by an lcm of large pivots
    rng = random.Random(n)
    for _ in range(3):
        dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        nest = conjugated_nest(rng, n, dims, 10 ** 6)
        for _ in range(3):
            phi = sampling.random_support(rng, nest)
            assert_same_space(m_of(nest, phi), oracles.m_of(nest, phi))


def test_m_of_and_support_of_make_no_fractions(fractions_made):
    rng = random.Random(6)
    for _ in range(20):
        nest = sampling.random_nest(rng)
        phi = sampling.random_support(rng, nest)
        space = m_of(nest, phi)
        fresh = validate_nest(nest.elements[1:-1], nest.ambient_dim)
        assert fractions_made(lambda: m_of(fresh, SupportFn(fresh, phi.values))) == 0
        assert fractions_made(lambda: support_of(nest, space)) == 0


def test_is_bimodule_rejects_a_bimodule_missing_a_row():
    # the other matrix units still map the first nest element onto Q^3, so
    # the hull is unchanged and only the dimension tells
    nest = triangular()
    j = generate_bimodule(nest, [unit(3, 2, 0)])
    dropped = OperatorSpace.from_matrices(3, _basis_matrices(j)[1:])
    assert j.dim == 9 and support_of(nest, j).values == (0, 3, 3, 3)
    assert not is_bimodule(nest, dropped)
    assert not oracles.is_bimodule(nest, dropped)


def test_is_bimodule_agrees_with_products_on_random_spans():
    rng = random.Random(5)
    for _ in range(40):
        nest = sampling.random_nest(rng)
        n = nest.ambient_dim
        mats = [sampling.random_matrix(rng, n) for _ in range(rng.randint(0, 3))]
        pick = rng.randrange(3)
        if mats and pick:
            # the generated bimodule itself, or with one basis row dropped
            basis = _basis_matrices(generate_bimodule(nest, mats))
            mats = basis if pick == 1 else basis[1:]
        s = OperatorSpace.from_matrices(n, mats)
        assert is_bimodule(nest, s) == oracles.is_bimodule(nest, s)


def test_bimodule_case_computes_two_operator_spaces(monkeypatch):
    # the call sequence of one bimodule benchmark case: the hull's space and
    # the algebra are computed once each, every other call is a lookup
    computed, compute = [], opspace._m_of_rows

    def counting(nest, values):
        computed.append(values)
        return compute(nest, values)

    monkeypatch.setattr(opspace, "_m_of_rows", counting)
    nest = triangular()
    j = generate_bimodule(nest, [unit(3, 0, 2)])
    phi = support_of(nest, j)
    m = m_of(nest, phi)
    ess = essential_support_of(nest, j)
    alg = nest_algebra(nest)
    ones = span_of_rank_ones(nest)
    assert computed == [(0, 0, 0, 1), (0, 1, 2, 3)]
    assert m is j and ones is alg and ess.values == (0, 0, 0, 0)
    assert m == oracles.m_of(nest, phi) and alg == oracles.m_of(nest, SupportFn.identity(nest))
    # values given as a list key the same entry
    assert m_of(nest, SupportFn(nest, [0, 0, 0, 1])) is j and len(computed) == 2


def test_a_memoized_space_does_not_pass_for_an_impostor():
    # with m_of(psi) in the memo, a space with the same pivots but other rows,
    # and m_of(psi) with a row dropped, are still not bimodules
    nest = triangular()
    j = generate_bimodule(nest, [unit(3, 1, 2)])
    warm = m_of(nest, support_of(nest, j))
    n, rows, pivots = 3, [list(r) for r in warm.space.rows], warm.space.pivots
    # raise an entry of the first row in a later column that is no pivot
    free = next(c for c in range(pivots[0] + 1, n * n) if c not in pivots)
    rows[0][free] += 1
    foreign = OperatorSpace(n, span(rows, n * n))
    dropped = OperatorSpace.from_matrices(n, _basis_matrices(warm)[1:])
    assert foreign.space.pivots == pivots and foreign != warm
    for impostor in (foreign, dropped):
        assert not oracles.is_bimodule(nest, impostor)
        assert not is_bimodule(nest, impostor)
        for guarded in (support_of, essential_support_of, is_reflexive):
            with pytest.raises(NotABimoduleError):
                guarded(nest, impostor)
    assert m_of(nest, support_of(nest, j)) is warm


def test_each_annihilator_is_computed_once_and_never_for_the_top(monkeypatch):
    computed = []
    real = opspace.annihilator
    monkeypatch.setattr(opspace, "annihilator", lambda e: computed.append(e) or real(e))
    e1 = span([(1, 2, 0, 1)], 4)
    e2 = span([(1, 2, 0, 1), (0, 1, 1, 0)], 4)
    e3 = span([(1, 2, 0, 1), (0, 1, 1, 0), (1, 0, 0, 3)], 4)
    nest = validate_nest([e1, e2, e3], 4)
    k = len(nest)
    # the bimodule workload's sequence on one nest: generators x (x) f with
    # x in E_1 or E_2 and f killing E_2 or E_1
    gens = [_outer((1, 2, 0, 1), annihilator(e2).rows[0]),
            _outer((0, 1, 1, 0), annihilator(e1).rows[1])]
    j = generate_bimodule(nest, gens)
    assert m_of(nest, support_of(nest, j)) is j
    essential_support_of(nest, j)
    nest_algebra(nest)
    span_of_rank_ones(nest)
    indices = [nest.elements.index(e) for e in computed]
    # the algebra reads every level, so each index below the top, once
    assert sorted(indices) == list(range(k - 1))

    # on a new nest, m_of computes the annihilator of E_(t-1) exactly at the
    # levels t >= 1 where phi changes, phi(E_0) counting as {0}
    for values in monotone_tables(k):
        fresh = Nest(nest.ambient_dim, nest.elements)
        computed.clear()
        m_of(fresh, SupportFn(fresh, values))
        previous = (0, *values[1:])
        changes = [t - 1 for t in range(1, k) if values[t] != previous[t - 1]]
        assert [fresh.elements.index(e) for e in computed] == changes
        assert sorted(fresh.annihilators) == changes


def random_operator(rng, nest):
    # a random matrix, or a rank-one x (x) f with x in a random element and f
    # killing a random element, so that generated bimodules vary in support
    n = nest.ambient_dim
    if rng.random() < 0.25:
        return sampling.random_matrix(rng, n)
    k = len(nest.elements)
    xs = nest.elements[rng.randrange(1, k)].rows
    fs = annihilator(nest.elements[rng.randrange(0, k - 1)]).rows
    x = [sum(rng.randint(-2, 2) * r[a] for r in xs) for a in range(n)]
    f = [sum(rng.randint(-2, 2) * r[a] for r in fs) for a in range(n)]
    return Matrix.from_rows([[xa * fb for fb in f] for xa in x])


def test_support_and_bimodule_test_match_the_literal_oracles():
    # 520 seeded operator spaces at n = 2..4, of four kinds in turn:
    # generated bimodules, generated bimodules with one basis row dropped,
    # random spans, and sums of two generated bimodules
    rng = random.Random(9)
    non_bimodules = 0
    for case in range(520):
        nest = sampling.random_nest(rng, rng.randint(2, 4))
        n = nest.ambient_dim
        gens = [random_operator(rng, nest) for _ in range(rng.randint(1, 3))]
        kind = case % 4
        if kind == 0:
            s = generate_bimodule(nest, gens)
        elif kind == 1:
            basis = _basis_matrices(generate_bimodule(nest, gens))
            if basis:
                del basis[rng.randrange(len(basis))]
            s = OperatorSpace.from_matrices(n, basis)
        elif kind == 2:
            s = OperatorSpace.from_matrices(n, gens)
        else:
            other = [random_operator(rng, nest) for _ in range(rng.randint(1, 2))]
            s = OperatorSpace.from_matrices(n, [
                *_basis_matrices(generate_bimodule(nest, gens)),
                *_basis_matrices(generate_bimodule(nest, other)),
            ])
        bimodule = oracles.is_bimodule(nest, s)
        assert is_bimodule(nest, s) == bimodule
        if bimodule:
            assert support_of(nest, s) == oracles.support_of(nest, s)
        else:
            non_bimodules += 1
            with pytest.raises(NotABimoduleError):
                support_of(nest, s)
    assert non_bimodules >= 100


# --- rank ones ----------------------------------------------------------------

def test_rank_one_density():
    nest = triangular()
    assert span_of_rank_ones(nest) == nest_algebra(nest)


def test_rank_one_membership_with_witness():
    nest = triangular()
    member, witness = rank_one_in_alg(nest, RankOne.of((0, 0, 1), (1, 0, 0)))
    assert member
    assert witness is not None
    assert witness.contains_vector((1, 0, 0))


def test_rank_one_rejected():
    nest = triangular()
    member, witness = rank_one_in_alg(nest, RankOne.of((1, 0, 0), (0, 0, 1)))
    assert not member and witness is None


def test_rank_one_zero_factor_raises():
    nest = triangular()
    with pytest.raises(ZeroVectorError):
        rank_one_in_alg(nest, RankOne.of((0, 0, 0), (1, 0, 0)))


def test_rank_one_in_m_agrees_with_containment():
    nest = triangular()
    phi = SupportFn(nest, (0, 2, 2, 3))
    space = m_of(nest, phi)
    r = RankOne.of((0, 0, 1), (1, 0, 0))
    member, witness = rank_one_in_m(nest, phi, r)
    assert member == holds(space, _outer(r.vector, r.functional))
    assert member and witness is not None


def test_rank_one_in_m_witness_sits_below_the_kernel_level():
    # f kills E_2, but phi already sends E_1 into E_2, which holds x, so the
    # first witness is E_0, two levels below the largest element f kills
    nest = triangular()
    phi = SupportFn(nest, (0, 2, 2, 3))
    r = RankOne.of((0, 0, 1), (1, 0, 0))
    assert annihilator(nest.elements[2]).contains_vector(r.functional)
    assert not annihilator(nest.elements[3]).contains_vector(r.functional)
    assert rank_one_in_m(nest, phi, r) == (True, nest.elements[0])
    assert oracles.rank_one_in_m(nest, phi, r) == (True, nest.elements[0])


def test_rank_one_verdicts_match_the_oracles_on_random_factors():
    def check(nest, phi, r):
        direct, witness, _ = oracles.rank_one_in_alg(nest, r)
        assert rank_one_in_alg(nest, r) == (direct, witness)
        assert rank_one_in_m(nest, phi, r) == oracles.rank_one_in_m(nest, phi, r)

    def combination(rows, n):
        # nonzero coefficients on independent rows give a nonzero vector
        cs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in rows]
        return [sum(c * row[col] for c, row in zip(cs, rows)) for col in range(n)]

    rng = random.Random(17)
    for _ in range(60):
        nest = sampling.random_nest(rng)
        phi = sampling.random_support(rng, nest)
        n = nest.ambient_dim
        f = [sampling.random_entry(rng) for _ in range(n)]
        x = [sampling.random_entry(rng) for _ in range(n)]
        if not any(f) or not any(x):
            continue
        check(nest, phi, RankOne.of(f, x))
    # generic f and x put almost every case above at p = top and m = 0; with x
    # from E_j and f from annihilator(E_i) for every pair (i, j), on nests with
    # entries up to 10^6, the levels (p, m) run over every pair
    seen, wanted = set(), set()
    for n in range(2, 7):
        dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        nest = conjugated_nest(rng, n, dims, 10 ** 6)
        k = len(nest.elements)
        wanted |= {(p, m) for p in range(1, k) for m in range(k - 1)}
        for i, j in itertools.product(range(k - 1), range(1, k)):
            x = combination(nest.elements[j].rows, n)
            f = combination(annihilator(nest.elements[i]).rows, n)
            r = RankOne.of(f, x)
            seen.add(opspace._rank_one_levels(nest, r))
            check(nest, sampling.random_support(rng, nest), r)
    assert seen == wanted


# --- decomposition ------------------------------------------------------------

def test_decompose_frozen_factors():
    nest = triangular()
    phi = SupportFn.identity(nest)
    t = mat([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
    factors = decompose(nest, phi, t)
    assert [(f.functional, f.vector) for f in factors] == [
        ((F(1), F(1), F(0)), (F(1), F(0), F(0))),
        ((F(0), F(1), F(0)), (F(0), F(1), F(0))),
    ]
    assert sum_of(factors, 3) == t


def test_decompose_with_support_above_the_identity():
    # phi pushes every element one step up, so the range of T need not meet
    # the first element; the factors are frozen and each is a member by the
    # literal criteria
    nest = triangular()
    phi = SupportFn(nest, (1, 2, 3, 3))
    t = mat([[1, 1, 0], [1, 2, 1], [0, 1, 1]])
    assert holds(oracles.m_of(nest, phi), t)
    factors = decompose(nest, phi, t)
    assert [(f.functional, f.vector) for f in factors] == [
        ((F(1), F(1), F(0)), (F(1), F(1), F(0))),
        ((F(0), F(1), F(1)), (F(0), F(1), F(1))),
    ]
    for f, level in zip(factors, (0, 1)):
        assert oracles.rank_one_in_m(nest, phi, f) == (True, nest.elements[level])
        assert rank_one_in_m(nest, phi, f) == (True, nest.elements[level])
    assert sum_of(factors, 3) == t


def test_decompose_rejects_outsiders():
    nest = triangular()
    with pytest.raises(NotAMemberError):
        decompose(nest, SupportFn.identity(nest), unit(3, 2, 0))


def test_decompose_zero_operator():
    nest = triangular()
    assert decompose(nest, SupportFn.identity(nest), zero(3)) == []


def test_decompose_factor_count_is_rank():
    nest = triangular()
    phi = SupportFn(nest, (0, 2, 2, 3))
    t = mat([[1, 1, 2], [0, 3, 4], [0, 0, 5]])
    factors = decompose(nest, phi, t)
    assert len(factors) == rank(t) == 3
    for f in factors:
        member, _ = oracles.rank_one_in_m(nest, phi, f)
        assert member


def test_a_faulty_step_ends_the_decomposition_after_n_steps(monkeypatch):
    # the vector e2 lies outside the range of T = e11 and T's row 2 is zero,
    # so every step leaves the remainder as it was
    nest = triangular()
    monkeypatch.setattr(opspace, "_first_meet_vector", lambda nest, r: [0, 1, 0])
    t = unit(3, 0, 0)
    factors = decompose(nest, SupportFn.identity(nest), t)
    assert len(factors) == 3
    assert sum_of(factors, 3) != t


def _combination(rng, rows):
    weights = [rng.randint(-3, 3) for _ in rows]
    return [sum(w * x for w, x in zip(weights, column)) for column in zip(*rows)]


def _member_of_rank_at_most(rng, nest, phi, count, big):
    """A sum of count rank-ones c x (x) f of m_of(phi): f kills E_(j-1) and x
    lies in phi(E_j), for a random level j with phi(E_j) nonzero; c is a
    rational with a denominator up to 10**12 when big, else 1."""
    n = nest.ambient_dim
    levels = [j for j in range(1, len(nest)) if phi.values[j] > 0]
    entries = [[F(0)] * n for _ in range(n)]
    for _ in range(count):
        j = rng.choice(levels)
        x = _combination(rng, phi(j).rows)
        f = _combination(rng, annihilator(nest.elements[j - 1]).rows)
        c = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**12)) if big else 1
        for a in range(n):
            for b in range(n):
                entries[a][b] += c * x[a] * f[b]
    return Matrix.from_rows(entries)


def _random_members(seed, n, big):
    """Members for three random (nest, phi) pairs, each at every count 1..n."""
    rng = random.Random(f"decompose:{seed}:{n}:{big}")
    out = []
    while len(out) < 3 * n:
        nest = sampling.random_nest(rng, n)
        phi = sampling.random_support(rng, nest)
        if phi.values[-1] == 0:
            continue
        for count in range(1, n + 1):
            out.append((nest, phi, _member_of_rank_at_most(rng, nest, phi, count, big)))
    return out


def _assert_matches_oracle(nest, phi, t):
    fast = decompose(nest, phi, t)
    slow = oracles.decompose(nest, phi, t)
    assert fast == slow and repr(fast) == repr(slow)
    return fast


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("big", [False, True], ids=["small", "large-denominators"])
def test_decompose_matches_the_fraction_oracle(n, big):
    ranks = set()
    for nest, phi, t in _random_members(0, n, big):
        ranks.add(len(_assert_matches_oracle(nest, phi, t)))
    assert len(ranks) > 1


@pytest.mark.parametrize("n", [2, 5, 9])
def test_decompose_of_full_rank_operators_matches_the_oracle(n):
    rng = random.Random(f"full-rank:{n}")
    nest = sampling.random_nest(rng, n)
    top = len(nest) - 1
    everything = SupportFn(nest, (top,) * len(nest))
    t = Matrix.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 9)) for _ in range(n)]
                          for _ in range(n)])
    while rank(t) < n:
        t = Matrix.from_rows([[x + (i == j) for j, x in enumerate(row)]
                              for i, row in enumerate(t.entries)])
    assert len(_assert_matches_oracle(nest, everything, t)) == n
    assert len(_assert_matches_oracle(nest, SupportFn.identity(nest), identity(n))) == n


def test_decompose_of_zero_matches_the_oracle():
    for n in (1, 4):
        nest = validate_nest([], n)
        phi = SupportFn.identity(nest)
        assert _assert_matches_oracle(nest, phi, zero(n)) == []


def test_decompose_makes_fractions_only_in_its_factors(fractions_made):
    for nest, phi, t in _random_members(1, 7, True)[:7:3]:
        n, r = nest.ambient_dim, rank(t)
        made = fractions_made(lambda: decompose(nest, phi, t))
        assert 0 < made <= 2 * n * r


# --- absorption ----------------------------------------------------------------

def test_absorption_on_corner_bimodule():
    nest = triangular()
    j = generate_bimodule(nest, [unit(3, 0, 2)])
    assert oracles.absorption_check(nest, j, 3, 1)
    assert oracles.absorption_check(nest, j, 1, 1)


def test_absorption_holds_on_every_sampled_pair():
    for nest, gens in generator_samples(3, 20):
        j = generate_bimodule(nest, gens)
        for n_idx, l_idx in itertools.product(range(len(nest)), repeat=2):
            assert oracles.absorption_check(nest, j, n_idx, l_idx)


def test_absorption_needs_a_bimodule():
    nest = triangular()
    with pytest.raises(NotABimoduleError):
        oracles.absorption_check(
            nest, OperatorSpace.from_matrices(3, [unit(3, 2, 0)]), 1, 1
        )


def test_annihilator_matches_operator_constraints():
    # the algebra of the triangular nest kills nothing below the diagonal
    nest = triangular()
    alg = nest_algebra(nest)
    e1 = nest.elements[1]
    for t in _basis_matrices(alg):
        assert e1.contains_vector(_apply(t, (F(1), F(0), F(0))))
    assert annihilator(e1).dim == 2
