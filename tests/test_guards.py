"""Guards of the production layers that no document or property suite
reaches: shape checks, operands from another nest or ambient, and a case
count that is no integer.  Each must raise its own error type with its
message."""

import argparse
from fractions import Fraction

import pytest

from nestlab import (
    AmbientMismatchError,
    DimensionMismatchError,
    IncomparableError,
    Matrix,
    Nest,
    OperatorSpace,
    RankOne,
    Subspace,
    SupportFn,
    decompose,
    generate_bimodule,
    m_of,
    rank_one_in_alg,
    rank_one_in_m,
    span,
    validate_nest,
)
from nestlab.cli import _case_count


def triangular():
    return validate_nest([span([(1, 0, 0)], 3), span([(1, 0, 0), (0, 1, 0)], 3)], 3)


def foreign_support():
    # a support function of another nest in the same ambient
    return SupportFn.identity(validate_nest([span([(0, 0, 1)], 3)], 3))


ONE = Fraction(1)
SQUARE_2 = Matrix.from_rows([[1, 0], [0, 1]])
RANK_ONE = RankOne.of([0, 0, 1], [1, 0, 0])
DIFFERENT_NEST = "support function belongs to a different nest"

GUARDS = {
    "operator space of the wrong width": (
        lambda: OperatorSpace(2, Subspace.zero(3)),
        AmbientMismatchError, "operator space basis has the wrong width"),
    "operator space from a non-square matrix": (
        lambda: OperatorSpace.from_matrices(2, [Matrix.from_rows([[1, 2, 3]])]),
        AmbientMismatchError, "expected 2x2 matrices"),
    "rank-one of unequal sizes": (
        lambda: RankOne((ONE,), (ONE, ONE)),
        AmbientMismatchError, "functional and vector sizes differ"),
    "m_of with another nest's support": (
        lambda: m_of(triangular(), foreign_support()),
        AmbientMismatchError, DIFFERENT_NEST),
    "generator of the wrong size": (
        lambda: generate_bimodule(triangular(), [SQUARE_2]),
        AmbientMismatchError, "generator is not a 3x3 matrix"),
    "rank-one of the wrong length": (
        lambda: rank_one_in_alg(triangular(), RankOne.of([1, 0], [0, 1])),
        AmbientMismatchError, "rank-one factor has the wrong length for the nest"),
    "rank-one membership with another nest's support": (
        lambda: rank_one_in_m(triangular(), foreign_support(), RANK_ONE),
        AmbientMismatchError, DIFFERENT_NEST),
    "decompose with another nest's support": (
        lambda: decompose(triangular(), foreign_support(), SQUARE_2),
        AmbientMismatchError, DIFFERENT_NEST),
    "decompose an operator of the wrong size": (
        lambda: decompose(triangular(), SupportFn.identity(triangular()), SQUARE_2),
        AmbientMismatchError, "operator is not a 3x3 matrix"),
    "matrix with a missing row": (
        lambda: Matrix(2, 2, ((ONE, ONE),)),
        DimensionMismatchError, "row count does not match entries"),
    "matrix with a short row": (
        lambda: Matrix(2, 2, ((ONE, ONE), (ONE,))),
        DimensionMismatchError, "ragged matrix rows"),
    "containment across ambients": (
        lambda: Subspace.full(2).contains(Subspace.full(3)),
        AmbientMismatchError, "subspaces live in different ambients"),
    "nest without elements": (
        lambda: Nest(3, ()),
        IncomparableError, "a nest needs at least the two trivial elements"),
    **{
        f"{kind} row of the wrong length into {into}": (
            lambda call=call, row=row: call(row),
            DimensionMismatchError, "vector has 2 entries, expected 3")
        for into, call in (
            ("span", lambda row: span([row], 3)),
            ("Subspace.contains_vector", Subspace.full(3).contains_vector),
        )
        for kind, row in (("int", (1, 2)), ("Fraction", (ONE, ONE / 2)), ("str", ("1", "2.5")))
    },
    "case count that is no integer": (
        lambda: _case_count("x"),
        argparse.ArgumentTypeError, "invalid int value: 'x'"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_guard_raises_its_error_with_its_message(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
