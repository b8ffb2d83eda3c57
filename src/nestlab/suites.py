"""Property suites behind the proptest harness.

Each suite turns a family of algebraic laws into executable checks over
seeded random samples (see sampling) or exhaustive enumerations.  Where
several laws are checked on the same inputs, each property is a predicate
over one shared sample stream, which it draws afresh.  A suite reports one
outcome per property with the number of cases run and, on failure, the
smallest failing input encountered, described only once, after the run: as
the nestlab/1 document and CLI command that replay it, or as a plain dict
for subspace pairs and guard cases, which no command takes.

A property compares two independent computations: the closed forms of
`opspace` and `chaincalc` against each other, against an identity, or against
a literal construction.  Every literal construction lives in `oracles`; this
module builds only samples and properties.

The chain sweep is exhaustive over a pinned annotation alphabet: jumps are
drawn from {1, inf} and limits on either side carry either cardinality mark.
The full space of chains is infinite, so the alphabet is the smallest one
that still exercises every branch of the calculus.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

from . import oracles, sampling
from .chaincalc import (
    ATTAINED,
    COUNTABLE,
    INFINITE,
    LIMIT,
    UNCOUNTABLE,
    AbstractNest,
    AbstractSupportFn,
    ChainNode,
    SupportPair,
    check_left_continuous,
    check_p_infinity,
    check_pair,
    lower_regularization,
    predict_m0,
    predict_m0_pair,
    predict_max_pair,
    predict_me_support,
    validate_chain,
)
from .documents import WorkbenchDoc, _fmt_matrix, document_payload
from .errors import (
    NonzeroAtZeroError,
    NotEssentialError,
    PairAdmissibilityError,
    PInfinityError,
    PPropertyError,
    UnknownSuiteError,
)
from .nest import validate_nest
from .opspace import (
    RankOne,
    SupportFn,
    decompose,
    essential_support_of,
    generate_bimodule,
    m_of,
    rank_one_in_alg,
    rank_one_in_m,
    span_of_rank_ones,
    support_of,
)
# the benchmark's cli workload reads the minorant oracle under this name
from .oracles import greatest_lc_minorant as oracle_greatest_lc_minorant
from .ratlin import (
    annihilator,
    join,
    meet,
    rank,
    span,
)


@dataclass
class PropertyOutcome:
    name: str
    cases: int
    failures: int
    minimal_failure: dict | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


# (passed, complexity, describer): only the minimal failure's describer is
# called, so its arguments are bound with partial, never read from loop variables
Case = tuple[bool, tuple, Callable[[], dict]]


def _holds(predicate: Callable[..., bool], samples: Iterable[tuple]) -> Iterator[Case]:
    """The cases of a predicate over a sample stream, whose draws are
    (predicate arguments, complexity, describer)."""
    for args, complexity, describer in samples:
        yield predicate(*args), complexity, describer


def _run(name: str, cases: Iterable[Case]) -> PropertyOutcome:
    """Tally a property's cases.  A case that raises is one failure and ends
    the property: the generator cannot resume.  It is the minimal failure
    unless a false case came first."""
    total = 0
    failures = 0
    minimal: tuple | None = None
    describe: Callable[[], dict] | None = None
    try:
        for ok, complexity, describer in cases:
            total += 1
            if not ok:
                failures += 1
                if minimal is None or complexity < minimal:
                    minimal = complexity
                    describe = describer
    except Exception as exc:
        total += 1
        failures += 1
        if describe is None:
            describe = partial(dict, error={"type": type(exc).__name__, "message": str(exc)})
    return PropertyOutcome(name, total, failures, describe and describe())


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _replay(command: str, nest=None, **fields) -> dict:
    """An input, given as WorkbenchDoc fields, as the document that
    `nestlab <command> --doc` replays; `WorkbenchDoc` takes the ambient
    dimension from the nest and the chain from the map."""
    return {"command": command, "document": document_payload(WorkbenchDoc(nest=nest, **fields))}


def _subspaces(n: int, **spaces) -> dict:
    return {"ambient": n, **{k: _fmt_matrix(s.basis) for k, s in spaces.items()}}


# ---------------------------------------------------------------------------
# lattice suite
# ---------------------------------------------------------------------------

def _random_subspace(rng: random.Random, n: int):
    count = rng.randint(0, n)
    return span(
        [[sampling.random_entry(rng) for _ in range(n)] for _ in range(count)], n
    )


def suite_lattice(seed: int, cases: int) -> list[PropertyOutcome]:
    def samples(tag: str) -> Iterator[tuple]:
        rng = _rng(seed, tag)
        for _ in range(cases):
            n = rng.randint(*sampling.DIM_RANGE)
            yield n, _random_subspace(rng, n), _random_subspace(rng, n), rng

    def modular() -> Iterator[Case]:
        for n, a, b, _ in samples("modular"):
            ok = meet(a, b).dim + join(a, b).dim == a.dim + b.dim
            yield ok, (n, a.dim + b.dim), partial(_subspaces, n, a=a, b=b)

    def involution() -> Iterator[Case]:
        for n, a, _, _ in samples("involution"):
            ok = annihilator(annihilator(a)) == a and annihilator(a).dim == n - a.dim
            yield ok, (n, a.dim), partial(_subspaces, n, a=a)

    def order_reversal() -> Iterator[Case]:
        for n, a, b, _ in samples("order"):
            big = join(a, b)
            ok = annihilator(a).contains(annihilator(big)) and annihilator(b).contains(
                annihilator(big)
            )
            yield ok, (n, big.dim), partial(_subspaces, n, a=a, b=b)

    def canonical() -> Iterator[Case]:
        for n, a, _, rng in samples("canonical"):
            rows = list(a.basis.entries)
            rng.shuffle(rows)
            if len(rows) >= 2:
                c = rng.randint(1, 2)
                rows[0] = tuple(x + c * y for x, y in zip(rows[0], rows[1]))
            scaled = []
            for r in rows:
                c = rng.choice((1, 2, 3, -1))
                scaled.append(tuple(c * x for x in r))
            ok = span(scaled, n) == a
            yield ok, (n, a.dim), partial(_subspaces, n, a=a)

    return [
        _run("meet/join dimensions are modular", modular()),
        _run("annihilator is an involutive complement", involution()),
        _run("annihilator reverses inclusion", order_reversal()),
        _run("span canonicalizes any spanning set", canonical()),
    ]


# ---------------------------------------------------------------------------
# correspondence suite
# ---------------------------------------------------------------------------

def canonical_triangular_nest():
    """{0} < span(e1) < span(e1,e2) < Q^3, the workhorse fixture."""
    return validate_nest(
        [span([[1, 0, 0]], 3), span([[1, 0, 0], [0, 1, 0]], 3)], 3
    )


def monotone_tables(k: int) -> Iterator[tuple[int, ...]]:
    yield from itertools.combinations_with_replacement(range(k), k)


def zero_fixing_supports(nest) -> Iterator[SupportFn]:
    k = len(nest.elements)
    for tail in itertools.combinations_with_replacement(range(k), k - 1):
        yield SupportFn(nest, (0,) + tail)


def _matches_constraints(nest, phi: SupportFn) -> bool:
    """m_of(phi) equals the constraint-system oracle, whose dimension is the
    formula's."""
    literal = oracles.m_of(nest, phi)
    return m_of(nest, phi) == literal and literal.dim == oracles.dim_formula(nest, phi)


def suite_correspondence(seed: int, cases: int) -> list[PropertyOutcome]:
    nest = canonical_triangular_nest()

    def exhaustive() -> Iterator[tuple]:
        for phi in zero_fixing_supports(nest):
            yield (nest, phi), (phi.values,), partial(
                _replay, "m-of-phi", nest, support_fn=phi
            )

    def random_supports(tag: str, fix_zero: bool = False) -> Iterator[tuple]:
        rng = _rng(seed, tag)
        for _ in range(cases):
            rnest = sampling.random_nest(rng)
            phi = sampling.random_support(rng, rnest, fix_zero=fix_zero)
            yield (rnest, phi), (rnest.ambient_dim, len(rnest)), partial(
                _replay, "m-of-phi", rnest, support_fn=phi
            )

    def galois(nest, phi: SupportFn) -> bool:
        return support_of(nest, m_of(nest, phi)) == phi

    seen: set = set()

    def injective(nest, phi: SupportFn) -> bool:
        key = m_of(nest, phi).space
        ok = key not in seen
        seen.add(key)
        return ok

    return [
        _run("support of m_of(phi) returns phi (exhaustive)", _holds(galois, exhaustive())),
        _run("m_of is injective on zero-fixing supports (exhaustive)",
             _holds(injective, exhaustive())),
        _run("dimension formula (exhaustive)", _holds(_matches_constraints, exhaustive())),
        _run("support of m_of(phi) returns phi (random)",
             _holds(galois, random_supports("galois", fix_zero=True))),
        _run("dimension formula (random)",
             _holds(_matches_constraints, random_supports("dimformula"))),
    ]


# ---------------------------------------------------------------------------
# closedcar suite
# ---------------------------------------------------------------------------

def generator_samples(seed: int, cases: int) -> Iterator[tuple]:
    rng = _rng(seed, "closedcar")
    for _ in range(cases):
        nest = sampling.random_nest(rng)
        yield nest, sampling.random_generators(rng, nest.ambient_dim)


def suite_closedcar(seed: int, cases: int) -> list[PropertyOutcome]:
    # each sample carries its generators, closed-form bimodule and fixed-point closure
    samples = [
        (nest, gens, generate_bimodule(nest, gens), oracles.generate_bimodule(nest, gens))
        for nest, gens in generator_samples(seed, cases)
    ]

    def reflexive() -> Iterator[Case]:
        for nest, gens, j, closure in samples:
            ok = j == closure and oracles.m_of(nest, support_of(nest, j)) == closure
            yield ok, (nest.ambient_dim, j.dim), partial(
                _replay, "gen-bimodule", nest, operators={"generators": gens}
            )

    def essential_zero() -> Iterator[Case]:
        for nest, gens, j, closure in samples:
            ess = essential_support_of(nest, closure)
            ok = oracles.is_bimodule(nest, closure) and all(v == 0 for v in ess.values)
            yield ok, (nest.ambient_dim, j.dim), partial(
                _replay, "ess-support", nest, operators={"generators": gens}
            )

    return [
        _run("generated bimodules are reflexive", reflexive()),
        _run("essential support collapses to zero", essential_zero()),
    ]


# ---------------------------------------------------------------------------
# decompose suite
# ---------------------------------------------------------------------------

def suite_decompose(seed: int, cases: int) -> list[PropertyOutcome]:
    def sound() -> Iterator[Case]:
        rng = _rng(seed, "decompose")
        for _ in range(cases):
            nest, phi, space = sampling.random_support_with_space(rng)
            t = sampling.random_member(rng, space)
            factors = decompose(nest, phi, t)
            ok = len(factors) == rank(t)
            for f in factors:
                member, _ = oracles.rank_one_in_m(nest, phi, f)
                ok = ok and member
            n = nest.ambient_dim
            total = tuple(
                tuple(sum(f.vector[i] * f.functional[j] for f in factors) for j in range(n))
                for i in range(n)
            )
            ok = ok and total == t.entries
            yield ok, (nest.ambient_dim, rank(t)), partial(
                _replay, "decompose", nest, support_fn=phi, operators={"target": [t]}
            )

    return [_run("decomposition is exact, rank-counted, and memberwise", sound())]


# ---------------------------------------------------------------------------
# rank-one suite
# ---------------------------------------------------------------------------

def suite_rankone(seed: int, cases: int) -> list[PropertyOutcome]:
    nest = canonical_triangular_nest()

    def grid() -> Iterator[Case]:
        vals = (-1, 0, 1)
        for f in itertools.product(vals, repeat=3):
            if not any(f):
                continue
            for w in itertools.product(vals, repeat=3):
                if not any(w):
                    continue
                r = RankOne.of(f, w)
                direct, witness, by_successor = oracles.rank_one_in_alg(nest, r)
                ok = (
                    direct == (witness is not None) == by_successor
                    and rank_one_in_alg(nest, r) == (direct, witness)
                )
                yield ok, (f, w), partial(_replay, "rank-one-check", nest, rank_one=r)

    def density() -> Iterator[Case]:
        rng = _rng(seed, "density")
        yield (
            span_of_rank_ones(nest) == oracles.nest_algebra(nest),
            (3,),
            partial(_replay, "alg", nest),
        )
        for _ in range(cases):
            rnest = sampling.random_nest(rng)
            ok = span_of_rank_ones(rnest) == oracles.nest_algebra(rnest)
            yield ok, (rnest.ambient_dim, len(rnest)), partial(_replay, "alg", rnest)

    def random_m() -> Iterator[Case]:
        rng = _rng(seed, "rankone-m")
        for _ in range(cases):
            rnest = sampling.random_nest(rng)
            phi = sampling.random_support(rng, rnest)
            n = rnest.ambient_dim
            f = [sampling.random_entry(rng) for _ in range(n)]
            w = [sampling.random_entry(rng) for _ in range(n)]
            if not any(f) or not any(w):
                continue
            r = RankOne.of(f, w)
            direct, witness = oracles.rank_one_in_m(rnest, phi, r)
            ok = (
                direct == (witness is not None)
                and rank_one_in_m(rnest, phi, r) == (direct, witness)
            )
            yield ok, (n,), partial(
                _replay, "rank-one-check", rnest, support_fn=phi, rank_one=r
            )

    return [
        _run("rank-one membership criteria agree on the grid", grid()),
        _run("rank-ones span the whole algebra", density()),
        _run("rank-one membership criteria agree in m_of spaces", random_m()),
    ]


# ---------------------------------------------------------------------------
# chaincalc suite
# ---------------------------------------------------------------------------

BELOW_OPTIONS = (
    (ATTAINED, 1, None),
    (ATTAINED, INFINITE, None),
    (LIMIT, None, COUNTABLE),
    (LIMIT, None, UNCOUNTABLE),
)
ABOVE_OPTIONS = (
    (ATTAINED, None),
    (LIMIT, COUNTABLE),
    (LIMIT, UNCOUNTABLE),
)


def sweep_chains(max_nodes: int = 4) -> Iterator[AbstractNest]:
    """Every chain with 2..max_nodes nodes over the pinned alphabet."""
    for k in range(2, max_nodes + 1):
        labels = ["0"] + [f"N{i}" for i in range(1, k - 1)] + ["X"]
        for belows in itertools.product(BELOW_OPTIONS, repeat=k - 1):
            for aboves in itertools.product(ABOVE_OPTIONS, repeat=k - 1):
                nodes = []
                for i in range(k):
                    below = belows[i - 1] if i > 0 else (None, None, None)
                    above = aboves[i] if i < k - 1 else (None, None)
                    nodes.append(ChainNode(
                        labels[i],
                        below=below[0], gap=below[1], cofinality=below[2],
                        above=above[0], coinitiality=above[1],
                    ))
                yield validate_chain(nodes)


def left_limit_tables(chain: AbstractNest, values: tuple[int, ...]) -> Iterator[tuple]:
    choices = []
    for i in range(len(chain)):
        if chain.limit_below(i):
            choices.append(range(values[i - 1], values[i] + 1))
        else:
            choices.append((None,))
    yield from itertools.product(*choices)


def sweep_maps(chain: AbstractNest) -> Iterator[AbstractSupportFn]:
    for values in monotone_tables(len(chain)):
        for lls in left_limit_tables(chain, values):
            yield AbstractSupportFn(chain, values, lls)


def suite_chaincalc(seed: int, cases: int) -> list[PropertyOutcome]:
    sweep = [(chain, f) for chain in sweep_chains() for f in sweep_maps(chain)]
    oracle_cache: dict = {}

    def oracle_for(f: AbstractSupportFn) -> tuple[int, ...]:
        key = (
            tuple(f.chain.limit_below(i) for i in range(len(f.chain))),
            f.value,
            f.left_limit,
        )
        if key not in oracle_cache:
            oracle_cache[key] = oracle_greatest_lc_minorant(f)
        return oracle_cache[key]

    def maps() -> Iterator[tuple]:
        for chain, f in sweep:
            yield (f,), (len(chain), f.value), partial(_replay, "chain-regularize", abstract_fn=f)

    def matches_oracle(f: AbstractSupportFn) -> bool:
        return lower_regularization(f).value == oracle_for(f)

    def idempotent_dominated(f: AbstractSupportFn) -> bool:
        reg = lower_regularization(f)
        return (
            lower_regularization(reg) == reg
            and all(r <= v for r, v in zip(reg.value, f.value))
            and check_left_continuous(reg)
        )

    def fixes_lc(f: AbstractSupportFn) -> bool:
        return (lower_regularization(f) == f) == check_left_continuous(f)

    def guards() -> Iterator[Case]:
        for ok, name in _guard_cases():
            yield ok, (name,), partial(dict, case=name)

    def predictions_validate() -> Iterator[Case]:
        for chain, f in sweep:
            if not check_p_infinity(chain) or f.value[0] != 0:
                continue
            pair = predict_m0(f)
            ok = (
                check_left_continuous(pair.phi)
                and pair.psi == pair.phi
                and check_pair(pair)
            )
            yield ok, (len(chain), f.value), partial(_replay, "chain-predict m0", abstract_fn=f)

    return [
        _run("regularization equals the enumerated greatest minorant",
             _holds(matches_oracle, maps())),
        _run("regularization is idempotent, dominated, left continuous",
             _holds(idempotent_dominated, maps())),
        _run("regularization fixes exactly the left-continuous maps", _holds(fixes_lc, maps())),
        _run("prediction guards reject violated hypotheses", guards()),
        _run("predicted pairs pass their own validators", predictions_validate()),
    ]


def _guard_cases() -> list[tuple[bool, str]]:
    """Each guarded prediction on hand-built inputs, as (ok, name): a case
    naming an error passes when the prediction raises exactly that, one
    naming None when it returns.  Each rejected input violates exactly one
    hypothesis."""
    uncountable = validate_chain([
        ChainNode("0", above=ATTAINED),
        ChainNode("M", below=LIMIT, cofinality=UNCOUNTABLE, above=ATTAINED),
        ChainNode("X", below=ATTAINED, gap=INFINITE),
    ])
    finite_gap = validate_chain([
        ChainNode("0", above=ATTAINED),
        ChainNode("A", below=ATTAINED, gap=1, above=LIMIT, coinitiality=COUNTABLE),
        ChainNode("X", below=LIMIT, cofinality=COUNTABLE),
    ])
    # constant at X: essential, left continuous
    psi_fin = AbstractSupportFn(finite_gap, (2, 2, 2), (None, None, 2))
    pcal = validate_chain([
        ChainNode("0", above=LIMIT, coinitiality=COUNTABLE),
        ChainNode("M", below=LIMIT, cofinality=COUNTABLE, above=ATTAINED),
        ChainNode("A", below=ATTAINED, gap=1, above=LIMIT, coinitiality=COUNTABLE),
        ChainNode("X", below=LIMIT, cofinality=COUNTABLE),
    ])
    # psi_flat sends everything at or above M to A, which sits in the finite
    # stratum; as its own phi the pair is not strict there
    psi_flat = AbstractSupportFn(pcal, (0, 2, 2, 2), (None, 2, None, 2))
    good_pair = SupportPair(AbstractSupportFn(pcal, (0, 3, 3, 3), (None, 3, None, 3)), psi_flat)
    pinf = validate_chain([
        ChainNode("0", above=ATTAINED),
        ChainNode("M", below=ATTAINED, gap=INFINITE, above=ATTAINED),
        ChainNode("X", below=ATTAINED, gap=INFINITE),
    ])

    def on_pinf(*values: int) -> AbstractSupportFn:
        return AbstractSupportFn(pinf, values, (None, None, None))

    cases = [
        ("me rejects uncountable marks", PPropertyError, predict_me_support,
         AbstractSupportFn(uncountable, (0, 1, 2), (None, 1, None))),
        ("me rejects non-essential maps", NotEssentialError, predict_me_support,
         AbstractSupportFn(finite_gap, (0, 1, 1), (None, None, 1))),
        ("me accepts an essential map on a countable chain", None, predict_me_support,
         psi_fin),
        ("max-pair rejects non-strict pairs", PairAdmissibilityError, predict_max_pair,
         SupportPair(psi_flat, psi_flat)),
        ("max-pair accepts an admissible pair", None, predict_max_pair, good_pair),
        ("m0 rejects attained finite jumps", PInfinityError, predict_m0, psi_fin),
        ("m0 rejects maps that move node 0", NonzeroAtZeroError, predict_m0,
         on_pinf(1, 1, 2)),
        ("m0 accepts a zero-fixing map on an all-infinite chain", None, predict_m0,
         on_pinf(0, 1, 2)),
        ("m0-pair rejects attained finite jumps", PInfinityError, predict_m0_pair,
         good_pair),
        ("m0-pair accepts a pair on an all-infinite chain", None, predict_m0_pair,
         SupportPair(on_pinf(0, 2, 2), on_pinf(0, 1, 1))),
    ]
    out: list[tuple[bool, str]] = []
    for name, error, predict, arg in cases:
        try:
            predict(arg)
        except Exception as exc:
            ok = error is not None and isinstance(exc, error)
        else:
            ok = error is None
        out.append((ok, name))
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[[int, int], list[PropertyOutcome]]] = {
    "lattice": suite_lattice,
    "correspondence": suite_correspondence,
    "closedcar": suite_closedcar,
    "decompose": suite_decompose,
    "rankone": suite_rankone,
    "chaincalc": suite_chaincalc,
}


def run_suite(suite: str, seed: int, cases: int) -> list[PropertyOutcome]:
    if suite == "all":
        out: list[PropertyOutcome] = []
        for name in SUITES:
            out.extend(SUITES[name](seed, cases))
        return out
    if suite not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; pick one of {', '.join([*SUITES, 'all'])}"
        )
    return SUITES[suite](seed, cases)
