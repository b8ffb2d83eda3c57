"""Independent reference arithmetic for the benchmark's checks.

Nothing here calls nestlab.  Every concrete input is built in adapted
coordinates (the nest is the standard flag of coordinate blocks) and then
conjugated by a unimodular integer matrix S, so each answer the workbench
gives can be predicted from the block structure alone: no linear system has
to be solved to check it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

Grid = list[list[int]]


def unimodular(rng: random.Random, n: int) -> tuple[Grid, Grid]:
    """A seeded integer matrix with determinant 1, and its integer inverse.

    S = L U with unit lower / unit upper triangular factors whose
    off-diagonal entries lie in -1..1, so entries stay small.
    """
    lower = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(n)]
             for i in range(n)]
    s = matmul(lower, upper)
    inv = inverse(s)
    return s, [[int(x) for x in row] for row in inv]


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def inverse(m: Sequence[Sequence]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over Fraction; m must be invertible."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Fraction by plain elimination."""
    work = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def outer(vector: Sequence, functional: Sequence) -> list[list]:
    return [[v * f for f in functional] for v in vector]


def sum_outer(pairs, n: int) -> list[list[Fraction]]:
    """Sum of the n x n rank-one matrices x (x) f over (x, f) pairs."""
    total = [[Fraction(0)] * n for _ in range(n)]
    for x, f in pairs:
        for r, xr in enumerate(x):
            row = total[r]
            for c, fc in enumerate(f):
                row[c] += xr * fc
    return total


def apply(m: Sequence[Sequence], v: Sequence) -> list:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def row_times(f: Sequence, m: Sequence[Sequence]) -> list:
    return [sum(a * row[j] for a, row in zip(f, m)) for j in range(len(m[0]))]


class Adapted:
    """A nest {0} < E_1 < ... < E_m = Q^n, E_k spanned by the first d_k
    columns of S, seen in the coordinates where E_k is the first d_k
    coordinate axes."""

    def __init__(self, s: Grid, s_inv: Grid, dims: Sequence[int]):
        self.s = s
        self.s_inv = s_inv
        self.dims = (0, *dims)  # d_0 = 0 < d_1 < ... < d_m = n
        self.n = len(s)

    def block(self, a: int) -> int:
        """Index k of the smallest nest element containing coordinate a."""
        return next(k for k, d in enumerate(self.dims) if a < d)

    def vector_level(self, x: Sequence) -> int:
        """Index of the smallest nest element containing the vector x."""
        xa = apply(self.s_inv, x)
        last = max((i for i, c in enumerate(xa) if c), default=-1)
        return 0 if last < 0 else self.block(last)

    def functional_level(self, f: Sequence) -> int:
        """Largest k with the functional f vanishing on E_k."""
        fa = row_times(f, self.s)
        first = next((i for i, c in enumerate(fa) if c), self.n)
        return max(k for k, d in enumerate(self.dims) if d <= first)

    def rank_one_in_m(self, phi: Sequence[int], f: Sequence, x: Sequence) -> bool:
        """x (x) f maps every E_i into phi(E_i): f kills E_i or x lies in phi(E_i)."""
        kill = self.functional_level(f)
        level = self.vector_level(x)
        return all(i <= kill or level <= phi[i] for i in range(len(self.dims)))

    def dim_formula(self, phi: Sequence[int]) -> int:
        """dim m_of(phi) = sum over k of gap_k * dim phi(E_k)."""
        d = self.dims
        return sum((d[k] - d[k - 1]) * d[phi[k]] for k in range(1, len(d)))


# --- abstract chains --------------------------------------------------------
#
# A chain is a list of (below, gap, cofinality, above, coinitiality) tuples
# with the same vocabulary as the documents: below/above are "attained" or
# "limit", gaps are 1 or "inf", marks are "countable" or "uncountable".

def finite_stratum(chain: Sequence[tuple]) -> list[int]:
    return [i for i, node in enumerate(chain) if node[0] == "attained" and node[1] != "inf"]


def p_property(chain: Sequence[tuple]) -> bool:
    return all(
        (node[0] != "limit" or node[2] == "countable")
        and (node[3] != "limit" or node[4] == "countable")
        for node in chain
    )


def p_infinity(chain: Sequence[tuple]) -> bool:
    return not finite_stratum(chain)


def left_continuous(chain: Sequence[tuple], value: Sequence[int], left: Sequence) -> bool:
    return all(left[i] == value[i] for i, node in enumerate(chain) if node[0] == "limit")


def essential(chain: Sequence[tuple], value: Sequence[int]) -> bool:
    """A value in the finite stratum is fixed from above, and each attained
    finite jump keeps the value of its predecessor (finite quotients are
    unions of such jumps)."""
    finite = set(finite_stratum(chain))
    top = len(chain) - 1
    for v in value:
        if v in finite and v != top and chain[v][3] != "limit":
            return False
    return all(value[i] == value[i - 1] for i in finite)


def pair_admissible(chain: Sequence[tuple], phi: Sequence[int], psi: Sequence[int]) -> bool:
    finite = set(finite_stratum(chain))
    return essential(chain, psi) and all(
        not (v in finite and v >= phi[i]) for i, v in enumerate(psi)
    )
