"""Each mutant of `tests/mutants.py` fails exactly its checks, with a finite residual, at seed 7 and
20 trials; only the batteries its checks belong to run."""
import math

import pytest

from nordenhyp import suite

from mutants import MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_fails_exactly_its_checks(monkeypatch, mutant):
    monkeypatch.setattr(suite, mutant.target, mutant.wrap(getattr(suite, mutant.target)))
    batteries = sorted({name.split(".", 1)[0] for name in mutant.fails})
    checks = [c for b in batteries for c in suite.BATTERIES[b](7, 20, (1, 2, 3))]
    assert mutant.fails <= {c.name for c in checks}
    assert sorted(c.name for c in checks if not c.passed) == sorted(mutant.fails)
    assert all(math.isfinite(c.residual) for c in checks)
