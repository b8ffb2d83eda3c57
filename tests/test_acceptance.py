"""Acceptance gate: nine exact checks, printed one verdict line each.

Every check is exact rational arithmetic; there is no tolerance anywhere.
Run with ``pytest -v tests/test_acceptance.py`` (one PASSED/FAILED line per
criterion) or add ``-s`` to see the verdict lines with elapsed times.
"""

import time

import pytest

from nestlab import (
    check_essential,
    check_left_continuous,
    lower_regularization,
    parse_document,
    predict_m0,
)
from nestlab.documents import _fmt_abstract_fn
from nestlab.suites import run_suite

SEED = 7


def report(number, ok, elapsed, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} {verdict} ({elapsed:.2f}s): {detail}")
    assert ok, detail


def outcome_detail(outcome):
    return f"{outcome.name} [{outcome.cases} cases, {outcome.failures} failures]"


def timed_suite(name, cases):
    start = time.perf_counter()
    outcomes = run_suite(name, SEED, cases)
    return outcomes, time.perf_counter() - start


@pytest.fixture(scope="module")
def closedcar():
    return timed_suite("closedcar", 200)


@pytest.fixture(scope="module")
def correspondence():
    return timed_suite("correspondence", 100)


def test_c1_generated_bimodules_are_reflexive(closedcar):
    outcomes, elapsed = closedcar
    reflexive = outcomes[0]
    assert reflexive.cases == 200
    report(1, reflexive.passed, elapsed, outcome_detail(reflexive))


def test_c2_support_determines_the_operator_space(correspondence):
    outcomes, elapsed = correspondence
    galois, injective = outcomes[0], outcomes[1]
    ok = galois.passed and injective.passed
    report(2, ok, elapsed, f"{outcome_detail(galois)}; {outcome_detail(injective)}")


def test_c3_dimension_formula_is_exact(correspondence):
    outcomes, elapsed = correspondence
    exhaustive, random_pairs = outcomes[2], outcomes[4]
    ok = exhaustive.passed and random_pairs.passed
    report(
        3, ok, elapsed, f"{outcome_detail(exhaustive)}; {outcome_detail(random_pairs)}"
    )


def test_c4_decomposition_is_rank_counted_and_exact():
    outcomes, elapsed = timed_suite("decompose", 100)
    sound = outcomes[0]
    assert sound.cases == 100
    report(4, sound.passed, elapsed, outcome_detail(sound))


def test_c5_rank_one_membership_criteria_cohere():
    outcomes, elapsed = timed_suite("rankone", 50)
    grid, density = outcomes[0], outcomes[1]
    ok = grid.passed and density.passed
    report(5, ok, elapsed, f"{outcome_detail(grid)}; {outcome_detail(density)}")


def test_c6_essential_support_vanishes_on_every_sample(closedcar):
    outcomes, elapsed = closedcar
    essential = outcomes[1]
    assert essential.cases == 200
    report(6, essential.passed, elapsed, outcome_detail(essential))


def test_c7_dense_chain_fixture_tables(fixture_dir):
    start = time.perf_counter()
    phi = parse_document((fixture_dir / "chain-continuous.json").read_text())
    step_doc = parse_document((fixture_dir / "chain-step.json").read_text())
    f = phi.require("abstract_fn")
    step = step_doc.require("abstract_fn")

    reg = lower_regularization(f)
    ok = (
        _fmt_abstract_fn(reg) == {
            "value": {"0": "0", "A": "A", "B": "B", "C": "X", "X": "X"},
            "left_limit": {"A": "A", "B": "B", "C": "X", "X": "X"},
        }
        and not check_left_continuous(f)
        and check_left_continuous(reg)
        and check_essential(step)
        and predict_m0(step).phi == step
        and predict_m0(step).psi == step
    )
    elapsed = time.perf_counter() - start
    report(7, ok, elapsed, "dense-chain fixture tables reproduce exactly")


def test_c8_regularization_matches_enumerated_minorant(chaincalc_outcomes):
    outcomes, elapsed = chaincalc_outcomes
    oracle, laws = outcomes[0], outcomes[1]
    ok = oracle.passed and laws.passed
    report(8, ok, elapsed, f"{outcome_detail(oracle)}; {outcome_detail(laws)}")


def test_c9_prediction_guards_reject_bad_hypotheses(chaincalc_outcomes):
    outcomes, elapsed = chaincalc_outcomes
    guards = outcomes[3]
    report(9, guards.passed, elapsed, outcome_detail(guards))


@pytest.fixture(scope="module")
def fixture_dir():
    from pathlib import Path

    return Path(__file__).parent / "fixtures"
