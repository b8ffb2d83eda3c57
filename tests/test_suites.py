"""The seeded harness itself: every suite runs green at small case counts,
and a failing case is reported as a document that the CLI replays."""

import contextlib
import io
import json
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

from nestlab import (
    RankOne,
    chaincalc,
    check_left_continuous,
    cli,
    generate_bimodule,
    nest_algebra,
    opspace,
    span,
    suites,
)
from nestlab.documents import SECTIONS, parse_document
from nestlab.ratlin import meet
from nestlab.suites import SUITES, generator_samples, run_suite


def test_every_suite_passes_at_small_scale(chaincalc_outcomes):
    for name in SUITES:
        if name == "chaincalc":
            # the exhaustive sweep ignores seed and case count; run once per session
            outcomes, _ = chaincalc_outcomes
        else:
            outcomes = run_suite(name, 3, 15)
        for outcome in outcomes:
            assert outcome["passed"], (name, outcome["name"], outcome["minimal_failure"])


def test_all_concatenates_every_suite(monkeypatch):
    def stub(name, count):
        def suite(seed, cases):
            return [
                {"name": f"{name}-{k}", "cases": cases, "failures": seed} for k in range(count)
            ]
        return suite

    stubs = {"first": stub("first", 2), "second": stub("second", 1), "third": stub("third", 3)}
    monkeypatch.setattr(suites, "SUITES", stubs)
    outcomes = run_suite("all", 5, 7)
    expected = [o for suite in stubs.values() for o in suite(5, 7)]
    assert outcomes == expected
    assert [o["name"] for o in outcomes] == [
        "first-0", "first-1", "second-0", "third-0", "third-1", "third-2",
    ]


def test_a_lattice_failure_is_described_by_its_canonical_subspaces(monkeypatch):
    # with meet answering the zero subspace, modularity fails exactly on the
    # pairs whose true meet is nonzero
    pairs = []

    def zero_meet(a, b):
        pairs.append((a, b))
        return span([], a.ambient_dim)

    monkeypatch.setattr(suites, "meet", zero_meet)
    modular = run_suite("lattice", 0, 20)[0]
    failing = [(a, b) for a, b in pairs if meet(a, b).dim > 0]
    assert modular["failures"] == len(failing) > 0
    # the first failure of least (ambient, dim a + dim b)
    a, b = min(failing, key=lambda ab: (ab[0].ambient_dim, ab[0].dim + ab[1].dim))
    described = modular["minimal_failure"]
    assert list(described) == ["ambient", "a", "b"]
    assert described["ambient"] == a.ambient_dim
    for name, space in (("a", a), ("b", b)):
        rows = [[Fraction(x) for x in row] for row in described[name]]
        assert span(rows, a.ambient_dim) == space
        # canonical rows: reduced echelon form with unit pivots
        assert rows == [list(row) for row in space.basis.entries]


def test_a_table_replay_document_prints_its_sections_in_table_order(monkeypatch, capsys):
    monkeypatch.setattr(suites, "decompose", lambda nest, phi, t: [])
    assert cli.main(["--format", "table", "proptest", "decompose", "--seed", "0",
                     "--cases", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "document:")
    indent = len(lines[start]) - len(lines[start].lstrip()) + len(cli.TABLE_INDENT)
    keys = [line.strip().split(":")[0] for line in lines[start + 1:]
            if len(line) - len(line.lstrip()) == indent]
    assert keys == ["version", "ambient_dim", "nest", "operators", "support_fn"]
    assert keys[1:] == [name for name in SECTIONS if name in keys]


def bimodule_samples(seed, cases):
    """(nest elements, bimodule) for the generator samples of a seed."""
    return [
        (nest.elements, generate_bimodule(nest, gens).space)
        for nest, gens in generator_samples(seed, cases)
    ]


def test_samples_are_reproducible():
    assert bimodule_samples(11, 8) == bimodule_samples(11, 8)


def test_different_seeds_differ():
    assert bimodule_samples(1, 8) != bimodule_samples(2, 8)


# Ways to corrupt a decomposition.  The last three each leave two of the
# property's three checks (factor count, membership, exact sum) satisfied, so
# each check is shown to catch a corruption that the other two miss.

def _drop_last(factors):
    return factors[:-1]


def _perturb_one_entry(factors):
    # doubles the first nonzero entry of the first functional
    if not factors:
        return factors
    f, *rest = factors
    p = next(k for k, x in enumerate(f.functional) if x)
    functional = (*f.functional[:p], 2 * f.functional[p], *f.functional[p + 1:])
    return [RankOne(functional, f.vector), *rest]


def _double_first_factor(factors):
    # a multiple of a member is a member: only the sum is off
    if not factors:
        return factors
    f, *rest = factors
    return [RankOne(tuple(2 * x for x in f.functional), f.vector), *rest]


def _split_first_factor(factors):
    # two halves of a member: only the count is off
    if not factors:
        return factors
    f, *rest = factors
    half = RankOne(tuple(x / 2 for x in f.functional), f.vector)
    return [half, half, *rest]


def _mix_first_two(factors):
    # x1 f1 + x2 f2 = (x1 + x2) f1 + x2 (f2 - f1): count and sum hold, but
    # x1 + x2 need not lie where f1 allows
    if len(factors) < 2 or factors[0].functional == factors[1].functional:
        return factors
    a, b, *rest = factors
    return [
        RankOne(a.functional, tuple(x + y for x, y in zip(a.vector, b.vector))),
        RankOne(tuple(y - x for x, y in zip(a.functional, b.functional)), b.vector),
        *rest,
    ]


@pytest.mark.parametrize("corrupt", [
    _drop_last, _perturb_one_entry, _double_first_factor, _split_first_factor, _mix_first_two,
])
def test_decompose_property_catches_wrong_factors(monkeypatch, corrupt):
    real = suites.decompose
    monkeypatch.setattr(suites, "decompose", lambda nest, phi, t: corrupt(real(nest, phi, t)))
    (outcome,) = run_suite("decompose", 0, 10)
    assert outcome["failures"] > 0 and outcome["minimal_failure"] is not None


def test_decompose_property_reports_a_faulty_step_as_a_false_case(monkeypatch):
    real = opspace._first_meet_vector

    def outside_the_range(nest, r):
        # a unit vector e_j outside the range of r whose row r_j is nonzero,
        # so that each factor stays nonzero; the true vector when none is
        n = nest.ambient_dim
        w = span([list(column) for column in zip(*r)], n)
        for j in range(n):
            e = [int(i == j) for i in range(n)]
            if any(r[j]) and not w.contains_row(e):
                return e
        return real(nest, r)

    monkeypatch.setattr(opspace, "_first_meet_vector", outside_the_range)
    (outcome,) = run_suite("decompose", 0, 10)
    assert outcome["failures"] > 0
    assert outcome["minimal_failure"]["command"] == "decompose"


def test_only_the_minimal_failure_is_described():
    described = []

    def case(ok, complexity):
        return ok, complexity, lambda: described.append(complexity) or {"at": complexity}

    outcome = suites._run("p", [case(True, (0,)), case(False, (3,)), case(False, (1,)),
                                case(False, (2,)), case(True, (0,))])
    assert outcome == {"name": "p", "cases": 5, "failures": 3, "passed": False,
                       "minimal_failure": {"at": (1,)}}
    # the order in which proptest prints an outcome, in either format
    assert list(outcome) == ["name", "cases", "failures", "passed", "minimal_failure"]
    assert described == [(1,)]
    assert suites._run("q", [case(True, (0,))])["minimal_failure"] is None
    assert described == [(1,)]


# Each document suite, with one of its fast functions corrupted, reports
# minimal failures whose documents the CLI replays and the parser reads back
# into the failing input.

def replayed(outcomes, tmp_path) -> list:
    """Every failing outcome's document, run through the CLI and parsed."""
    docs = []
    for outcome in outcomes:
        if outcome["passed"]:
            continue
        failure = outcome["minimal_failure"]
        path = tmp_path / f"failure{len(docs)}.json"
        path.write_text(json.dumps(failure["document"]), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([*failure["command"].split(), "--doc", str(path)])
        assert code in (0, 1) and not stderr.getvalue(), (outcome["name"], failure)
        docs.append(parse_document(path.read_text(encoding="utf-8")))
    assert docs
    return docs


def test_correspondence_failures_replay(monkeypatch, tmp_path):
    seen = []
    real_m_of = suites.m_of

    def m_of(nest, phi):
        seen.append((nest, phi.values))
        return real_m_of(nest, phi)

    def matches_constraints(nest, phi):
        seen.append((nest, phi.values))
        return False

    monkeypatch.setattr(suites, "m_of", m_of)
    monkeypatch.setattr(suites, "support_of", lambda nest, space: None)
    monkeypatch.setattr(suites, "_matches_constraints", matches_constraints)
    outcomes = run_suite("correspondence", 0, 4)
    assert sum(not o["passed"] for o in outcomes) == 4
    for doc in replayed(outcomes, tmp_path):
        assert (doc.nest, doc.support_fn.values) in seen


def test_closedcar_failures_replay(monkeypatch, tmp_path):
    samples = list(suites.generator_samples(0, 4))
    monkeypatch.setattr(suites, "generate_bimodule", lambda nest, gens: nest_algebra(nest))
    monkeypatch.setattr(suites, "essential_support_of", suites.support_of)
    outcomes = run_suite("closedcar", 0, 4)
    for doc in replayed(outcomes, tmp_path):
        assert (doc.require("nest"), doc.matrices("generators")) in samples
    assert not any(o["passed"] for o in outcomes)


def test_decompose_failures_replay(monkeypatch, tmp_path):
    seen = []
    real = suites.decompose

    def decompose(nest, phi, t):
        seen.append((nest, phi.values, t))
        return _drop_last(real(nest, phi, t))

    monkeypatch.setattr(suites, "decompose", decompose)
    (doc,) = replayed(run_suite("decompose", 0, 4), tmp_path)
    assert (doc.nest, doc.support_fn.values, *doc.matrices("target")) in seen


def test_rankone_failures_replay(monkeypatch, tmp_path):
    seen = []

    def record(*args):
        seen.append(args)
        return None, None

    monkeypatch.setattr(suites, "rank_one_in_alg", record)
    monkeypatch.setattr(suites, "rank_one_in_m", lambda nest, phi, r: record(nest, phi.values, r))
    monkeypatch.setattr(suites, "span_of_rank_ones", record)
    outcomes = run_suite("rankone", 0, 4)
    grid, density, random_m = replayed(outcomes, tmp_path)
    assert (grid.require("nest"), grid.rank_one) in seen
    assert (density.require("nest"),) in seen
    assert (random_m.nest, random_m.support_fn.values, random_m.rank_one) in seen


def test_chaincalc_failures_replay(monkeypatch, tmp_path):
    real_sweep = suites.sweep_chains
    maps = {f for chain in real_sweep(3) for f in suites.sweep_maps(chain)}
    monkeypatch.setattr(suites, "sweep_chains", lambda: real_sweep(3))
    monkeypatch.setattr(suites, "lower_regularization", lambda f: f)
    real_predict = suites.predict_m0
    # keeps the guards, which the guard cases check, and loses psi
    monkeypatch.setattr(
        suites, "predict_m0", lambda f: SimpleNamespace(phi=real_predict(f).phi, psi=None)
    )
    outcomes = run_suite("chaincalc", 0, 1)
    docs = replayed(outcomes, tmp_path)
    assert len(docs) == 4  # every property but the guards
    for doc in docs:
        assert doc.require("abstract_fn") in maps
    for doc in docs[:3]:  # the three regularization properties
        assert not check_left_continuous(doc.abstract_fn)


def test_a_property_that_raises_fails_alone(monkeypatch):
    real_sweep = suites.sweep_chains
    monkeypatch.setattr(suites, "sweep_chains", lambda: real_sweep(3))
    # predict_m0 then pairs a map that is not left continuous with itself
    monkeypatch.setattr(chaincalc, "lower_regularization", lambda f: f)
    outcomes = run_suite("chaincalc", 0, 1)
    assert len(outcomes) == 5
    *rest, predictions = outcomes
    assert all(o["passed"] for o in rest)
    assert predictions["failures"] == 1
    assert predictions["minimal_failure"] == {"error": {
        "type": "PairAdmissibilityError", "message": "phi must be left continuous",
    }}


def test_the_prediction_property_compares_against_the_enumerated_minorant(monkeypatch):
    # the constant-zero pair is left continuous, equal in its components and
    # admissible on a chain without finite jumps: only the oracle rejects it
    real_sweep = suites.sweep_chains
    monkeypatch.setattr(suites, "sweep_chains", lambda: real_sweep(3))
    real_predict = suites.predict_m0

    def zero_pair(f):
        real_predict(f)  # keeps the guards, which the guard cases check
        zero = chaincalc.AbstractSupportFn(
            f.chain, (0,) * len(f.value), tuple(ll if ll is None else 0 for ll in f.left_limit)
        )
        return chaincalc.SupportPair(zero, zero)

    monkeypatch.setattr(suites, "predict_m0", zero_pair)
    *rest, predictions = run_suite("chaincalc", 0, 1)
    assert all(o["passed"] for o in rest)
    assert predictions["name"] == "predicted pairs pass their own validators"
    assert predictions["failures"] > 0


def test_each_regularization_property_draws_its_own_stream(monkeypatch):
    real_sweep = suites.sweep_chains
    monkeypatch.setattr(suites, "sweep_chains", lambda: real_sweep(3))
    calls = []

    def broken(f):
        calls.append(f)
        raise RuntimeError(f"call {len(calls)}")

    monkeypatch.setattr(suites, "lower_regularization", broken)
    *regularization, guards, predictions = run_suite("chaincalc", 0, 1)
    assert [(o["cases"], o["failures"], o["minimal_failure"]) for o in regularization] == [
        (1, 1, {"error": {"type": "RuntimeError", "message": f"call {k}"}}) for k in (1, 2, 3)
    ]
    first = next(suites.sweep_maps(next(real_sweep(2))))
    assert calls == [first] * 3
    assert guards["passed"] and predictions["passed"]


def test_a_raising_case_keeps_the_smaller_false_case_before_it():
    def cases():
        yield True, (0,), dict
        yield False, (2,), partial(dict, case="false")
        raise RuntimeError("boom")

    outcome = suites._run("p", cases())
    assert (outcome["cases"], outcome["failures"]) == (3, 2)
    assert outcome["minimal_failure"] == {"case": "false"}


GUARDED = {
    "predict_me_support": (
        ["me rejects uncountable marks", "me rejects non-essential maps"],
        ["me accepts an essential map on a countable chain"],
    ),
    "predict_max_pair": (
        ["max-pair rejects non-strict pairs"],
        ["max-pair accepts an admissible pair"],
    ),
    "predict_m0": (
        ["m0 rejects attained finite jumps", "m0 rejects maps that move node 0"],
        ["m0 accepts a zero-fixing map on an all-infinite chain"],
    ),
    "predict_m0_pair": (
        ["m0-pair rejects attained finite jumps"],
        ["m0-pair accepts a pair on an all-infinite chain"],
    ),
}


def _stops_raising(real):
    def fake(x):
        try:
            return real(x)
        except chaincalc.ChainError:
            return x
    return fake


def _raises_the_base_error(real):
    def fake(x):
        try:
            return real(x)
        except chaincalc.ChainError as exc:
            raise chaincalc.ChainError(str(exc)) from None
    return fake


def _raises_on_acceptance(real):
    def fake(x):
        real(x)
        raise chaincalc.PairAdmissibilityError("refused")
    return fake


@pytest.mark.parametrize("prediction", sorted(GUARDED))
@pytest.mark.parametrize("fault, broken", [
    (_stops_raising, 0), (_raises_the_base_error, 0), (_raises_on_acceptance, 1),
])
def test_guard_cases_report_a_faulty_prediction(monkeypatch, prediction, fault, broken):
    assert all(ok for ok, _ in suites._guard_cases())
    monkeypatch.setattr(suites, prediction, fault(getattr(suites, prediction)))
    cases = suites._guard_cases()
    assert [name for _, name in cases] == [
        name for rejects, accepts in GUARDED.values() for name in (*rejects, *accepts)
    ]
    assert {name for ok, name in cases if not ok} == set(GUARDED[prediction][broken])
