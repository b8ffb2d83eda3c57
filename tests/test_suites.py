"""The seeded harness itself: every suite runs green at small case counts."""

import pytest

from nestlab import RankOne, suites
from nestlab.suites import SUITES, PropertyOutcome, bimodule_samples, run_suite


def test_every_suite_passes_at_small_scale(chaincalc_outcomes):
    for name in SUITES:
        if name == "chaincalc":
            # the exhaustive sweep ignores seed and case count; run once per session
            outcomes, _ = chaincalc_outcomes
        else:
            outcomes = run_suite(name, 3, 15)
        for outcome in outcomes:
            assert outcome.passed, (name, outcome.name, outcome.minimal_failure)


def test_all_concatenates_every_suite(monkeypatch):
    def stub(name, count):
        def suite(seed, cases):
            return [
                PropertyOutcome(f"{name}-{k}", cases, seed, None) for k in range(count)
            ]
        return suite

    stubs = {"first": stub("first", 2), "second": stub("second", 1), "third": stub("third", 3)}
    monkeypatch.setattr(suites, "SUITES", stubs)
    outcomes = run_suite("all", 5, 7)
    expected = [o for suite in stubs.values() for o in suite(5, 7)]
    assert outcomes == expected
    assert [o.name for o in outcomes] == [
        "first-0", "first-1", "second-0", "third-0", "third-1", "third-2",
    ]


def test_samples_are_reproducible():
    first = [
        (nest.elements, j.space) for nest, j in bimodule_samples(11, 8)
    ]
    second = [
        (nest.elements, j.space) for nest, j in bimodule_samples(11, 8)
    ]
    assert first == second


def test_different_seeds_differ():
    a = [(nest.elements, j.space) for nest, j in bimodule_samples(1, 8)]
    b = [(nest.elements, j.space) for nest, j in bimodule_samples(2, 8)]
    assert a != b


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
    assert outcome.failures > 0 and outcome.minimal_failure is not None
