"""Seeded random generators for the property-test harness.

The sampling scheme is pinned so that a seed fully determines every input:
nests are random subsets of a random complete flag in dimension 2..5 built
from vectors with entries in -2..2, bimodules come from at most three random
generator matrices with the same entry range, and support functions are
uniform monotone tables.
"""

from __future__ import annotations

import random

from .nest import Nest, validate_nest
from .opspace import OperatorSpace, SupportFn, m_of
from .ratlin import ZERO, IntEchelon, Matrix, Subspace, span

ENTRY_RANGE = (-2, 2)
DIM_RANGE = (2, 5)
MAX_PROPER = 4
MAX_GENERATORS = 3


def random_entry(rng: random.Random) -> int:
    return rng.randint(*ENTRY_RANGE)


def random_matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix.from_rows(
        [[random_entry(rng) for _ in range(n)] for _ in range(n)]
    )


def random_flag(rng: random.Random, n: int) -> list[Subspace]:
    """A complete flag F_1 < ... < F_n assembled from random vectors."""
    ech = IntEchelon()
    accepted: list[list[int]] = []
    flag: list[Subspace] = []
    while len(flag) < n:
        v = [random_entry(rng) for _ in range(n)]
        if ech.insert(v) is not None:
            accepted.append(v)
            flag.append(span(accepted, n))
    return flag


def random_nest(rng: random.Random, n: int | None = None) -> Nest:
    if n is None:
        n = rng.randint(*DIM_RANGE)
    flag = random_flag(rng, n)
    count = rng.randint(0, min(MAX_PROPER, n - 1))
    dims = sorted(rng.sample(range(1, n), count))
    return validate_nest([flag[d - 1] for d in dims], n)


def random_support(rng: random.Random, nest: Nest, fix_zero: bool = False) -> SupportFn:
    k = len(nest.elements)
    values = sorted(rng.randrange(k) for _ in range(k))
    if fix_zero:
        values[0] = 0
    return SupportFn(nest, tuple(values))


def random_generators(rng: random.Random, n: int) -> list[Matrix]:
    """Up to MAX_GENERATORS random n x n matrices, to generate a bimodule."""
    count = rng.randint(0, MAX_GENERATORS)
    return [random_matrix(rng, n) for _ in range(count)]


def random_member(rng: random.Random, space: OperatorSpace) -> Matrix:
    """A random rational combination of the basis with small integer weights."""
    n = space.ambient_dim
    flat = [ZERO] * (n * n)
    for b in space.space.basis.entries:
        c = random_entry(rng)
        if c:
            flat = [a + c * x for a, x in zip(flat, b)]
    return Matrix(n, n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))


def random_support_with_space(rng: random.Random):
    """(nest, phi, M(phi)) with a nonzero operator space, for decomposition.

    M(phi) is zero only when phi is zero at every element, which a uniform
    monotone table on k >= 2 elements is with probability (1/k)^k <= 1/4,
    so the draws repeat until the space is nonzero.
    """
    while True:
        nest = random_nest(rng)
        phi = random_support(rng, nest)
        space = m_of(nest, phi)
        if space.dim > 0:
            return nest, phi, space
