"""The suite's contract over a sweep of seeds, at the benchmark's 20 trials over n = 1, 2, 3.

A clean run passes every check, and the negative control (fault 1e-3) fails at
least one check under each of the ten battery prefixes.  The benchmark checks
exactly this for every op of its suite pools, so a seed-to-inputs mapping under
which some seed breaks it shows here first.
"""
import pytest

from nordenhyp.suite import BATTERIES, run_suite

SEEDS = range(1, 21)


@pytest.mark.parametrize("seed", SEEDS)
def test_clean_suite_passes(seed):
    report = run_suite(seed, trials=20)
    assert report.passed, [c.name for c in report.checks if not c.passed]


@pytest.mark.parametrize("seed", SEEDS)
def test_faulted_suite_fails_every_battery(seed):
    report = run_suite(seed, trials=20, fault=1e-3)
    failing = {c.name.split(".", 1)[0] for c in report.checks if not c.passed}
    assert failing == set(BATTERIES)
