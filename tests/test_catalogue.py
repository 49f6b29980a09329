"""The check catalogue: the suite batteries and the CLI kinds report under one threshold table.

Every check of a seeded suite run (clean and faulted) and of each CLI kind
built from the check families carries the threshold `THRESHOLD` gives the
last part of its name, and every table entry is used by one of those reports.
"""
import json

import pytest

from nordenhyp import cli
from nordenhyp.contact_norden import ContactNordenPoint, validate_contact_axioms
from nordenhyp.suite import THRESHOLD, run_suite

HYPER = {"n": 2, "class": "F4+F5", "nu": 1.5, "nu_tilde": -0.5,
         "scalars": {"t": 0.4, "theta_xi": 1.0, "theta_star_xi": 0.7, "dt_xi": 0.2}}
SCENARIOS = {
    "curvature": {"kind": "curvature", **HYPER},
    "canonical": {"kind": "canonical", **HYPER},
    "solve": {"kind": "solve", "n": 1, "t": 0.3, "nu": 1.0, "nu_tilde": 0.4},
    "unsolvable": {"kind": "solve", "n": 1, "t": 0.0, "nu": -1.0, "nu_tilde": 0.0},
    "theorem31": {"kind": "theorem31", "n": 2, "theta_xi": 1.0, "theta_star_xi": 0.5, "t": 0.2},
    "induce": {"kind": "induce", "ambient": {"n_prime": 2}, "N": [0.0, 0.0, 1.0, 0.0]},
}
# the contact axioms of `induce` come from the layer validator, under its own tolerance
VALIDATOR = {c.name for c in validate_contact_axioms(ContactNordenPoint.standard(1)).checks}


def _cli_checks(tmp_path, capsys, scenario) -> list[dict]:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    cli.main([str(path), "--json"])
    return json.loads(capsys.readouterr().out)["checks"]


@pytest.fixture(scope="module")
def suite_checks() -> list[dict]:
    reports = [run_suite(7, 5), run_suite(7, 5, fault=1e-3)]
    return [c for r in reports for c in r.to_dict()["checks"]]


@pytest.fixture
def cli_checks(tmp_path, capsys) -> dict[str, list[dict]]:
    checks = {kind: _cli_checks(tmp_path, capsys, s) for kind, s in SCENARIOS.items()}
    checks["induce"] = [c for c in checks["induce"] if c["name"] not in VALIDATOR]
    return checks


def test_every_check_takes_its_threshold_from_the_table(suite_checks, cli_checks):
    every = suite_checks + [c for checks in cli_checks.values() for c in checks]
    wrong = [(c["name"], c["threshold"]) for c in every if c["threshold"] != THRESHOLD[c["name"].rsplit(".", 1)[-1]]]
    assert wrong == []


def test_every_table_entry_is_used(suite_checks, cli_checks):
    every = suite_checks + [c for checks in cli_checks.values() for c in checks]
    assert set(THRESHOLD) == {c["name"].rsplit(".", 1)[-1] for c in every}


def test_cli_check_names(cli_checks):
    names = {kind: sorted(c["name"] for c in checks) for kind, checks in cli_checks.items()}
    assert names["curvature"] == ["curvature_symmetries", "tau", "tau_twisted"]
    assert names["canonical"] == ["kaehlerian", "routes_agree", "tau", "tau_twisted"]
    assert names["theorem31"] == ["flat_canonical_curvature", "tau", "tau_twisted"]
    assert names["solve"] == ["roundtrip_nu", "roundtrip_nu_twisted"]
    assert names["unsolvable"] == ["solvable"]
    assert names["induce"] == ["pullback_identities"]
