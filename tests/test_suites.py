"""The seeded harness itself: every suite runs green at small case counts."""

from nestlab import suites
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
