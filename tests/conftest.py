"""Shared fixtures.

The chaincalc suite is an exhaustive sweep over 126,438 chain instances that
ignores its seed and case count, so its outcomes are computed once per
session and shared by the harness test and the acceptance criteria 8 and 9.
"""

import sys
import time
from fractions import Fraction

import pytest

from nestlab.suites import run_suite


@pytest.fixture(scope="session")
def chaincalc_outcomes():
    """(outcomes, elapsed seconds) of one run of the chaincalc suite."""
    start = time.perf_counter()
    outcomes = run_suite("chaincalc", 7, 100)
    return outcomes, time.perf_counter() - start


@pytest.fixture
def fractions_made():
    """A function that runs work() and returns how many Fraction objects it
    constructed, counted with a profile hook on Fraction.__new__."""
    new = Fraction.__new__.__code__

    def count_in(work):
        made = 0

        def count(frame, event, arg):
            nonlocal made
            if event == "call" and frame.f_code is new:
                made += 1

        sys.setprofile(count)
        try:
            work()
        finally:
            sys.setprofile(None)
        return made

    return count_in
