import json
import math
import time

import numpy as np
import pytest

from nordenhyp import cli
from nordenhyp.multilinear import MAX_DIM
from nordenhyp.suite import MAX_N, MAX_TRIALS


def run(tmp_path, capsys, scenario, *flags):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = cli.main([str(path), "--json", *flags])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_validate_standard_passes(tmp_path, capsys):
    code, doc = run(tmp_path, capsys, {"kind": "validate", "n": 2})
    assert code == 0
    assert doc["passed"] is True
    assert doc["kind"] == "validate"


def test_validate_riemannian_metric_fails(tmp_path, capsys):
    scenario = {
        "kind": "validate",
        "n": 1,
        "g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "phi": [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
        "xi": [0, 0, 1],
        "eta": [0, 0, 1],
    }
    code, doc = run(tmp_path, capsys, scenario)
    assert code == 1
    assert doc["passed"] is False


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main([str(path), "--json"]) == 2
    assert capsys.readouterr().err.startswith("error: Expecting property name")


def test_unknown_kind_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, capsys, {"kind": "frobnicate"})
    assert code == 2


def test_missing_field_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, capsys, {"kind": "solve", "n": 1})
    assert code == 2


def test_solve_anchor(tmp_path, capsys):
    scenario = {"kind": "solve", "n": 1, "t": 0.0, "nu": 1.0, "nu_tilde": 0.0}
    code, doc = run(tmp_path, capsys, scenario)
    assert code == 0
    assert doc["results"]["theta_xi"] == pytest.approx(2.0)
    assert doc["results"]["theta_star_xi"] == pytest.approx(0.0)


def test_solve_flat_resolution(tmp_path, capsys):
    scenario = {"kind": "solve", "n": 1, "t": 0.0, "nu": 0.0, "nu_tilde": 0.0}
    code, doc = run(tmp_path, capsys, scenario)
    assert code == 0
    assert doc["results"]["theta_xi"] == 0.0


def test_classify_results(tmp_path, capsys):
    scenario = {
        "kind": "classify",
        "n": 2,
        "x": [1, 0, 0, 0, 0],
        "y": [0, 1, 0, 0, 0],
    }
    code, doc = run(tmp_path, capsys, scenario)
    assert code == 0
    assert doc["results"]["section"] == "totally_real"


def test_curvature_scenario(tmp_path, capsys):
    scenario = {
        "kind": "curvature",
        "n": 2,
        "class": "F4+F5",
        "nu": 1.5,
        "nu_tilde": -0.5,
        "scalars": {"t": 0.4, "theta_xi": 1.0, "theta_star_xi": 0.7, "dt_xi": 0.2},
    }
    code, doc = run(tmp_path, capsys, scenario)
    assert code == 0
    assert {"tau", "tau_twisted"} <= set(doc["results"])


def test_theorem31_scenario(tmp_path, capsys):
    scenario = {"kind": "theorem31", "n": 1, "theta_xi": 2.0, "theta_star_xi": 2.0}
    code, doc = run(tmp_path, capsys, scenario)
    assert code == 0
    assert doc["results"]["tau_twisted"] == pytest.approx(4.0)


def test_suite_deterministic(tmp_path, capsys):
    scenario = {"kind": "suite", "trials": 3, "seed": 7}
    code, doc1 = run(tmp_path, capsys, scenario)
    assert code == 0
    _, doc2 = run(tmp_path, capsys, scenario)
    assert doc1 == doc2
    _, doc3 = run(tmp_path, capsys, {**scenario, "seed": 8})
    assert doc3 != doc1


def test_suite_fault_injection_fails(tmp_path, capsys):
    scenario = {"kind": "suite", "trials": 2, "seed": 3, "fault": 1e-3}
    code, doc = run(tmp_path, capsys, scenario)
    assert code == 1
    assert doc["passed"] is False


@pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_bad_tolerance_exit_2(tmp_path, capsys, flag, value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "validate", "n": 1}))
    assert cli.main([str(path), "--json", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# (scenario, the field the error names); every size is past the largest that fits
# MAX_DIM: n = 4 (d = 9), and n_prime = 5, the ambient of n = 4
OVERSIZE_CASES = [
    ({"kind": "validate", "n": 5}, "n"),
    ({"kind": "validate", "n_prime": 6}, "n_prime"),
    ({"kind": "classify", "n": 5, "x": [1.0] + [0.0] * 10, "y": [0.0, 1.0] + [0.0] * 9}, "n"),
    ({"kind": "theorem31", "n": 100000, "theta_xi": 1.0, "theta_star_xi": 0.5}, "n"),
    ({"kind": "solve", "n": 100000, "t": 0.0, "nu": 1.0, "nu_tilde": 0.0}, "n"),
    ({"kind": "curvature", "n": 100000, "nu": 1.0, "nu_tilde": 0.0, "scalars": {"t": 0.1}}, "n"),
    ({"kind": "induce", "ambient": {"n_prime": 100000}, "N": [0.0, 1.0]}, "n_prime"),
    # induce's pullback check builds the ambient pi' family, so its n_prime stops at MAX_DIM // 2
    ({"kind": "induce", "ambient": {"n_prime": 5}, "N": [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]}, "ambient n_prime"),
    ({"kind": "suite", "trials": 1, "n_values": [1, 100000]}, "n_values entry"),
    # the suite stops at n = 3: two batteries build the pi' family of the ambient n' = n + 1
    ({"kind": "suite", "trials": 1, "n_values": [4]}, "n_values entry"),
]
OVERSIZE_IDS = [f"{c[0]['kind']}-{c[1]}" for c in OVERSIZE_CASES[:-1]] + ["suite-n_values entry-4"]


@pytest.mark.parametrize("scenario, field", OVERSIZE_CASES, ids=OVERSIZE_IDS)
def test_oversize_exit_2_before_building(tmp_path, capsys, monkeypatch, scenario, field):
    """Sizes past MAX_DIM are rejected at the boundary: no point is built and the suite never starts."""
    from nordenhyp.complex_norden import ComplexNordenPoint
    from nordenhyp.contact_norden import ContactNordenPoint

    def refuse(*args, **kwargs):
        raise AssertionError("built a point or started the suite for an oversize input")

    for cls in (ContactNordenPoint, ComplexNordenPoint):
        monkeypatch.setattr(cls, "standard", classmethod(refuse))
        monkeypatch.setattr(cls, "__post_init__", refuse)
    monkeypatch.setattr(cli, "run_suite", refuse)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main([str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bound = MAX_N if scenario["kind"] == "suite" else cli.MAX_SIZE.get(field, 4)
    assert captured.err.startswith(f"error: {field} must be at most {bound}")


@pytest.mark.parametrize(
    "kind, size, value", [("validate", "n", 4), ("validate", "n_prime", 5), ("theorem31", "n", 4), ("solve", "n", 4)]
)
def test_largest_size_is_accepted(tmp_path, capsys, kind, size, value):
    scenario = {
        "validate": {"kind": "validate"},
        "theorem31": {"kind": "theorem31", "theta_xi": 1.0, "theta_star_xi": 0.5},
        "solve": {"kind": "solve", "t": 0.0, "nu": 1.0, "nu_tilde": 0.0},
    }[kind]
    code, _ = run(tmp_path, capsys, {**scenario, size: value})
    assert code == 0


@pytest.mark.parametrize("kind", ["induce", "curvature", "canonical", "classify"])
def test_largest_ambient_is_accepted(tmp_path, capsys, kind):
    """An n_prime = 5 ambient (d' = 10) works wherever no pi' family is built on it; induce, whose
    pullback check builds one, takes n_prime = 4."""
    n_prime = 4 if kind == "induce" else 5
    frame = {"ambient": {"n_prime": n_prime}, "N": [0.0] * n_prime + [1.0] + [0.0] * (n_prime - 1)}
    scenario = {
        "induce": {"kind": "induce", **frame},
        "curvature": {"kind": "curvature", "nu": 1.0, "nu_tilde": 0.0, **frame},
        "canonical": {"kind": "canonical", "class": "F4+F5", "nu": 1.0, "nu_tilde": 0.0,
                      "scalars": {"theta_xi": 1.0}, **frame},
        "classify": {"kind": "classify", "n_prime": 5, "x": [1.0] + [0.0] * 9, "y": [0.0, 1.0] + [0.0] * 8},
    }[kind]
    code, doc = run(tmp_path, capsys, scenario)
    assert code == 0 and doc["passed"]


def test_run_suite_rejects_sizes_outside_one_to_three():
    from nordenhyp.suite import run_suite

    for n_values in ((0,), (1, -1), (), (4,), (5,), (1, 4)):
        with pytest.raises(ValueError):
            run_suite(seed=1, trials=1, n_values=n_values)


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"n_values": []}, "n_values"),
        ({"n_values": 0}, "n_values"),
        ({"seed": -1}, "seed"),
    ],
    ids=["n-values-empty", "n-values-zero", "seed-negative"],
)
def test_suite_fields_exit_2_before_running(tmp_path, capsys, monkeypatch, fields, field):
    """A bad suite field is named in the error and the suite never starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("started the suite for a malformed scenario")

    monkeypatch.setattr(cli, "run_suite", refuse)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "suite", "trials": 1, "n_values": [1], **fields}))
    assert cli.main([str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be")


def test_run_suite_rejects_a_bad_seed_or_fault_before_any_battery(monkeypatch):
    from nordenhyp import suite

    def refuse(*args, **kwargs):
        raise AssertionError("ran a battery")

    monkeypatch.setattr(suite, "BATTERIES", dict.fromkeys(suite.BATTERIES, refuse))
    # a seed that is not a non-negative integer, or a fault that is not finite
    for seed in (-1, -1100, 1.0, True):
        with pytest.raises(ValueError, match="seed"):
            suite.run_suite(seed=seed, trials=2)
    for fault in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="fault"):
            suite.run_suite(seed=1, trials=2, fault=fault)


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"n_values": (1.5,)}, "n_values"),
        ({"n_values": (True,)}, "n_values"),
        ({"n_values": "12"}, "n_values"),
        ({"n_values": 5}, "n_values"),
        ({"fault": "x"}, "fault"),
        ({"fault": True}, "fault"),
    ],
    ids=["trials-float", "trials-bool", "n-values-float", "n-values-bool", "n-values-str", "n-values-int",
         "fault-str", "fault-bool"],
)
def test_run_suite_rejects_mistyped_fields_before_any_battery(monkeypatch, fields, field):
    from nordenhyp import suite

    def refuse(*args, **kwargs):
        raise AssertionError("ran a battery")

    monkeypatch.setattr(suite, "BATTERIES", dict.fromkeys(suite.BATTERIES, refuse))
    with pytest.raises(ValueError, match=f"^{field} must be"):
        suite.run_suite(**{"seed": 1, "trials": 2, **fields})


@pytest.mark.parametrize("trials", [10**20, 10**400], ids=["1e20", "401-digit"])
def test_huge_trials_exit_2_at_once(tmp_path, capsys, monkeypatch, trials):
    """A trials past MAX_TRIALS, which would run for years, exits 2 naming trials before any battery runs."""
    from nordenhyp import suite

    def refuse(*args, **kwargs):
        raise AssertionError("ran a battery")

    monkeypatch.setattr(suite, "BATTERIES", dict.fromkeys(suite.BATTERIES, refuse))
    start = time.perf_counter()
    line = _exit_2_one_line(tmp_path, capsys, json.dumps({"kind": "suite", "trials": trials}))
    assert time.perf_counter() - start < 1.0
    assert line.startswith(f"error: trials must be at most {MAX_TRIALS}, got ")


def test_run_suite_bounds_trials_before_any_battery(monkeypatch):
    from nordenhyp import suite

    def refuse(*args, **kwargs):
        raise AssertionError("ran a battery")

    monkeypatch.setattr(suite, "BATTERIES", dict.fromkeys(suite.BATTERIES, refuse))
    with pytest.raises(ValueError, match=f"^trials must be an integer in 1..{MAX_TRIALS}"):
        suite.run_suite(1, MAX_TRIALS + 1)
    monkeypatch.setattr(suite, "BATTERIES", dict.fromkeys(suite.BATTERIES, lambda *a, **k: []))
    assert suite.run_suite(1, MAX_TRIALS).checks == ()


def test_run_suite_accepts_numpy_numbers(monkeypatch):
    from nordenhyp import suite

    monkeypatch.setattr(suite, "BATTERIES", dict.fromkeys(suite.BATTERIES, lambda *a, **k: []))
    report = suite.run_suite(np.int64(1), np.int32(2), (np.int64(1), np.uint8(2)), fault=np.float32(1e-3))
    assert report.checks == ()


_POINT = {"n": 1, "nu": 1.0, "nu_tilde": 0.0}
_FRAME = {"nu": 1.0, "nu_tilde": 0.0, "N": [0.0, 0.0, 1.0, 0.0]}

# id -> (scenario, extra flags, the names the error gives): a field that no reader of the kind takes,
# at the top level or inside scalars or ambient, and each suite flag that the payload replaced
UNKNOWN_CASES = {
    "validate": ({"kind": "validate", "n": 1, "N": [0.0, 1.0]}, [], ["N"]),
    "induce": ({"kind": "induce", "ambient": {"n_prime": 2}, "N": [0.0, 0.0, 1.0, 0.0], "n": 1}, [], ["n"]),
    "classify": ({"kind": "classify", "n": 1, "x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]}, [], ["z"]),
    "curvature": ({"kind": "curvature", **_POINT, "scalars": {"t": 0.1}, "theta_xi": 2.0}, [], ["theta_xi"]),
    "canonical": ({"kind": "canonical", **_POINT, "scalars": {"t": 0.1}, "clas": "F4"}, [], ["clas"]),
    "solve": ({"kind": "solve", "n": 1, "t": 0.0, "nu": 1.0, "nu_tilde": 0.0, "branch": -1}, [], ["branch"]),
    "theorem31": ({"kind": "theorem31", "n": 1, "theta_xi": 1.0, "theta_star_xi": 0.5, "theta": 2.0}, [], ["theta"]),
    "suite": ({"kind": "suite", "trials": 1, "n_values": [1], "cor32_reading": "literal", "bogus_key": 3}, [],
              ["bogus_key", "cor32_reading"]),
    "curvature-scalars": ({"kind": "curvature", **_POINT, "scalars": {"t": 0.1, "theta": 2.0}}, [], ["theta"]),
    "canonical-scalars": ({"kind": "canonical", **_POINT, "scalars": {"t": 0.1, "omega": [0, 0, 1]}}, [], ["omega"]),
    "induce-ambient": ({"kind": "induce", "ambient": {"n_prime": 2, "n": 1}, "N": _FRAME["N"]}, [], ["n"]),
    "curvature-ambient": ({"kind": "curvature", **_FRAME, "ambient": {"n_prime": 2, "phi": 1}}, [], ["phi"]),
    **{f"flag{flag[0]}": ({"kind": "validate", "n": 1}, flag, [flag[0]])
       for flag in (["--seed", "7"], ["--trials", "5"], ["--n", "1"], ["--fault-inject"])},
}


@pytest.mark.parametrize("scenario, flags, names", UNKNOWN_CASES.values(), ids=UNKNOWN_CASES)
def test_unknown_field_or_flag_exits_2_naming_it(tmp_path, capsys, monkeypatch, scenario, flags, names):
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: pytest.fail("started the suite"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    try:
        code = cli.main([str(path), "--json", *flags])
    except SystemExit as exc:  # argparse exits on an argument it does not know
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = captured.err.splitlines()[-1]
    assert "error: " in error and all(name in error for name in names)


def test_induce_degenerate_tangent_metric_exit_2(tmp_path, capsys):
    scenario = {"kind": "induce", "ambient": {"n_prime": 2}, "N": [math.sinh(12), 0.0, math.cosh(12), 0.0]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main([str(path), "--json", "--rel-tol", "1e-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: induced metric is degenerate on the tangent space\n"


def test_stdin_scenario(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"kind": "validate", "n": 1})))
    assert cli.main(["-", "--json"]) == 0


def _contact_fields(n=1):
    from nordenhyp.contact_norden import ContactNordenPoint

    p = ContactNordenPoint.standard(n)
    return {"n": n, "g": p.g.tolist(), "phi": p.phi.tolist(), "xi": p.xi.tolist(), "eta": p.eta.tolist()}


def _ambient_fields():
    from nordenhyp.complex_norden import ComplexNordenPoint

    amb = ComplexNordenPoint.standard(2)
    # N = e_3 has g'(N, N) = -1 in the standard neutral metric
    return {"ambient": {"n_prime": 2, "g": amb.g.tolist(), "J": amb.J.tolist()}, "N": [0.0, 0.0, 1.0, 0.0]}


def _base_scenario(kind, ambient=False):
    hyper = {"class": "F4+F5", "nu": 1.5, "nu_tilde": -0.5}
    scalars = {"theta_xi": 1.0, "theta_star_xi": 0.7, "dt_xi": 0.2}
    if kind == "validate":
        return {"kind": kind, **_contact_fields()}
    if kind == "classify":
        return {"kind": kind, **_contact_fields(), "x": [1, 0, 0], "y": [0, 1, 0]}
    if kind == "induce":
        return {"kind": kind, **_ambient_fields()}
    if ambient:
        return {"kind": kind, **hyper, **_ambient_fields(), "scalars": scalars}
    return {"kind": kind, **hyper, **_contact_fields(), "scalars": {"t": 0.3, **scalars}}


# (kind, uses the ambient form, path of the poisoned entry)
NONFINITE_CASES = [
    ("validate", False, ("g", 0, 0)),
    ("validate", False, ("phi", 1, 0)),
    ("classify", False, ("g", 1, 1)),
    ("classify", False, ("phi", 0, 1)),
    ("induce", False, ("ambient", "g", 0, 0)),
    ("induce", False, ("N", 2)),
    ("curvature", False, ("g", 0, 0)),
    ("curvature", False, ("phi", 1, 0)),
    ("curvature", False, ("nu",)),
    ("curvature", False, ("scalars", "theta_xi")),
    ("curvature", False, ("scalars", "t")),
    ("curvature", True, ("N", 2)),
    ("curvature", True, ("ambient", "g", 0, 0)),
    ("curvature", True, ("scalars", "dt_xi")),
    ("canonical", False, ("g", 2, 2)),
    ("canonical", False, ("phi", 0, 1)),
    ("canonical", False, ("nu",)),
    ("canonical", False, ("scalars", "theta_star_xi")),
]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "kind, ambient, path",
    NONFINITE_CASES,
    ids=[f"{k}{'-ambient' if a else ''}-{'.'.join(map(str, p))}" for k, a, p in NONFINITE_CASES],
)
def test_nonfinite_input_exit_2(tmp_path, capsys, kind, ambient, path, bad):
    scenario = _base_scenario(kind, ambient)
    code, _ = run(tmp_path, capsys, scenario)
    assert code in (0, 1)
    target = scenario
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    path_file = tmp_path / "poisoned.json"
    path_file.write_text(json.dumps(scenario))
    assert cli.main([str(path_file), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "scenario",
    [
        {"kind": "validate", "n": None},
        {"kind": "validate", "n": True},
        {"kind": "solve", "n": 0, "t": 0.1, "nu": 1, "nu_tilde": 0.5},
        {"kind": "solve", "n": 1, "t": 0.1, "nu": 1, "nu_tilde": 0.5, "epsilon": 1.0},
        {"kind": "solve", "n": 1, "t": None, "nu": 1, "nu_tilde": 0.5},
        {"kind": "theorem31", "n": 0, "theta_xi": 1.0, "theta_star_xi": 0.5},
        {"kind": "theorem31", "n": 1.5, "theta_xi": 1.0, "theta_star_xi": 0.5},
        {"kind": "suite", "trials": 1, "n_values": [0]},
    ],
    ids=[
        "validate-n-null",
        "validate-n-bool",
        "solve-n-zero",
        "solve-epsilon-float",
        "solve-t-null",
        "theorem31-n-zero",
        "theorem31-n-float",
        "suite-n-zero",
    ],
)
def test_bad_field_type_exit_2(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main([str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# (scenario, field named in the error, what the field holds instead)
CONTAINER_CASES = [
    ({**_base_scenario("curvature"), "scalars": {"t": 0.1, "Omega": {"a": 1}}}, "Omega", "object"),
    ({**_base_scenario("curvature"), "scalars": {"t": 0.1, "Omega": 5}}, "Omega", "number"),
    ({**_base_scenario("curvature"), "scalars": [0.1]}, "scalars", "array"),
    ({**_base_scenario("curvature", ambient=True), "ambient": 5}, "ambient", "number"),
    ({**_base_scenario("curvature", ambient=True), "N": {"a": 1}}, "N", "object"),
    ({**_base_scenario("induce"), "ambient": [1, 2]}, "ambient", "array"),
    ({**_base_scenario("induce"), "N": 3}, "N", "number"),
    ({**_base_scenario("classify"), "x": {"a": 1}}, "x", "object"),
    ({**_base_scenario("classify"), "y": 1.0}, "y", "number"),
    ({**_base_scenario("classify"), "x": [[1, 0, 0]]}, "x", "matrix"),
    ({**_base_scenario("validate"), "g": 5}, "g", "number"),
    ({**_base_scenario("validate"), "phi": {"a": 1}}, "phi", "object"),
    ({**_base_scenario("validate"), "xi": [[0, 0, 1]]}, "xi", "matrix"),
    ({**_base_scenario("validate"), "eta": [0, [0], 1]}, "eta", "ragged"),
    ({**_base_scenario("validate"), "g": [[1, 0, 0], [0, "a", 0], [0, 0, 1]]}, "g", "string-entry"),
    ({**_base_scenario("induce"), "ambient": {**_ambient_fields()["ambient"], "J": {"a": 1}}}, "J", "object"),
    ({**_base_scenario("induce"), "ambient": {**_ambient_fields()["ambient"], "g": [1, 2]}}, "g", "vector"),
    ({**_base_scenario("classify"), "x": [True, False, False]}, "x", "booleans"),
    ({**_base_scenario("classify"), "y": [0, 1, True]}, "y", "boolean"),
    ({**_base_scenario("validate"), "g": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}, "g", "boolean"),
    ({**_base_scenario("induce"), "N": [0.0, 0.0, True, 0.0]}, "N", "boolean"),
    ({**_base_scenario("curvature"), "scalars": {"t": 0.1, "Omega": [0, False, 0]}}, "Omega", "boolean"),
    ({**_base_scenario("classify"), "x": ["1", "0", "0"]}, "x", "numeric-strings"),
    ({**_base_scenario("validate"), "eta": [0, None, 1]}, "eta", "null-entry"),
]


@pytest.mark.parametrize(
    "scenario, field, wrong",
    CONTAINER_CASES,
    ids=[f"{s['kind']}-{f}-{w}" for s, f, w in CONTAINER_CASES],
)
def test_bad_container_type_exit_2(tmp_path, capsys, scenario, field, wrong):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main([str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["x", "y"])
@pytest.mark.parametrize(
    "point",
    [{"n": 1, "x": [1, 0, 0], "y": [0, 1, 0]}, {"n_prime": 1, "x": [1, 0], "y": [0, 1]}],
    ids=["contact", "complex"],
)
def test_classify_nonfinite_vector_names_field(tmp_path, capsys, point, field, bad):
    scenario = {"kind": "classify", **point}
    scenario[field] = [bad] + scenario[field][1:]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main([str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} must be finite\n"


def _exit_2_one_line(tmp_path, capsys, text: str) -> str:
    """Run the CLI on raw scenario text; assert exit 2, no report and one error line, and return that line."""
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert cli.main([str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


# an integer literal past the double range, in a number field and in array fields
HUGE = 10**400
HUGE_CASES = {
    "solve-nu": ({"kind": "solve", "n": 1, "t": 0.1, "nu": HUGE, "nu_tilde": 0}, "nu"),
    "classify-x": ({"kind": "classify", "n": 1, "x": [HUGE, 0, 0], "y": [0, 0, 1]}, "x"),
    "validate-g": ({**_base_scenario("validate"), "g": [[HUGE, 0, 0], [0, -1, 0], [0, 0, 1]]}, "g"),
}


@pytest.mark.parametrize("scenario, field", HUGE_CASES.values(), ids=HUGE_CASES)
def test_integer_past_double_range_exit_2_naming_field(tmp_path, capsys, scenario, field):
    assert _exit_2_one_line(tmp_path, capsys, json.dumps(scenario)).startswith(f"error: {field} must be ")


@pytest.mark.parametrize("n, angle", [(2, 1e160), (1, 1e200)])
def test_theorem31_overflowing_angles_exit_2(tmp_path, capsys, n, angle):
    """Finite angles whose squares leave the double range are bad input, not a crash."""
    scenario = {"kind": "theorem31", "n": n, "theta_xi": angle, "theta_star_xi": angle, "t": 0.1}
    assert "theorem31" in _exit_2_one_line(tmp_path, capsys, json.dumps(scenario))


# an integer literal of 5,001 digits, past the 4,300 that int() converts by default since Python 3.11:
# read as an infinity of its sign, it meets the check of the field it sits in
LONG = "1" + "0" * 5000
LONG_CASES = {
    "suite-trials": ('{"kind": "suite", "trials": %s}', "trials"),
    "solve-nu": ('{"kind": "solve", "n": 1, "t": 0.1, "nu": %s, "nu_tilde": 0}', "nu"),
    "solve-nu-negative": ('{"kind": "solve", "n": 1, "t": 0.1, "nu": -%s, "nu_tilde": 0}', "nu"),
    "induce-N-entry": ('{"kind": "induce", "ambient": {"n_prime": 2}, "N": [0, 0, %s, 0]}', "N"),
}


@pytest.mark.parametrize("template, field", LONG_CASES.values(), ids=LONG_CASES)
def test_integer_past_the_digit_limit_exit_2_naming_field(tmp_path, capsys, template, field):
    assert _exit_2_one_line(tmp_path, capsys, template % LONG).startswith(f"error: {field} must be ")


# one valid payload of each kind per form it takes (a bare point, each point type, an embedding),
# which the walk below sends with each bounded integer field one past its bound
FRAME = {"ambient": {"n_prime": 2}, "N": [0.75, 0.0, 1.25, 0.0]}
HYPER = {"nu": 1.0, "nu_tilde": 0.0}
WALK = {
    "validate": [{"n": 1}, {"n_prime": 1}],
    "induce": [FRAME],
    "classify": [{"n": 1, "x": [1, 0, 0], "y": [0, 0, 1]}, {"n_prime": 1, "x": [1, 0], "y": [0, 1]}],
    "curvature": [{"n": 1, **HYPER, "scalars": {"t": 0.1}}, {**FRAME, **HYPER}],
    "canonical": [{"n": 1, **HYPER, "scalars": {"t": 0.1}}, {**FRAME, **HYPER}],
    "solve": [{"n": 1, "t": 0.0, **HYPER}],
    "theorem31": [{"n": 1}],
    "suite": [{"trials": 1, "n_values": [1]}],
}
BOUNDED = ("n", "n_prime", "ambient", "trials", "n_values")  # the fields that hold or nest a bounded integer


def _bounded_fields(kind: str, payload: dict):
    """(path, bound, the name its error gives) of each bounded integer field of payload."""
    for key, bound in (("n", cli.MAX_SIZE["n"]), ("n_prime", cli.MAX_SIZE["n_prime"]), ("trials", MAX_TRIALS)):
        if key in payload:
            yield (key,), bound, key
    if "n_values" in payload:
        yield ("n_values", 0), MAX_N, "n_values entry"
    if "ambient" in payload:  # induce's pullback check builds the ambient pi' family, of dimension 2 n_prime
        yield ("ambient", "n_prime"), *((MAX_DIM // 2, "ambient n_prime") if kind == "induce"
                                        else (cli.MAX_SIZE["n_prime"], "n_prime"))


def test_every_bounded_integer_field_exits_2_one_past_its_bound(tmp_path, capsys, monkeypatch):
    """Each kind, in each form, takes its payload; one past the bound of any of its integer fields
    exits 2 naming the field, before a point is built or the suite starts, in under 1 s for all."""
    assert set(WALK) == set(cli._KINDS)
    for kind, (_, fields) in cli._KINDS.items():
        assert {key for key in BOUNDED if key in fields} == {key for p in WALK[kind] for key in p if key in BOUNDED}
        for payload in WALK[kind]:
            assert run(tmp_path, capsys, {"kind": kind, **payload})[0] == 0
    from nordenhyp.complex_norden import ComplexNordenPoint
    from nordenhyp.contact_norden import ContactNordenPoint

    def refuse(*args, **kwargs):
        raise AssertionError("built a point or started the suite for an input past its bound")

    for cls in (ContactNordenPoint, ComplexNordenPoint):
        monkeypatch.setattr(cls, "standard", classmethod(refuse))
        monkeypatch.setattr(cls, "__post_init__", refuse)
    monkeypatch.setattr(cli, "run_suite", refuse)
    start, sent = time.perf_counter(), 0
    for kind, payloads in WALK.items():
        for payload in payloads:
            for path, bound, name in _bounded_fields(kind, payload):
                scenario = json.loads(json.dumps({"kind": kind, **payload}))
                target = scenario
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = bound + 1
                line = _exit_2_one_line(tmp_path, capsys, json.dumps(scenario))
                assert line.startswith(f"error: {name} must be at most {bound}, got {bound + 1}"), (kind, path)
                sent += 1
    assert time.perf_counter() - start < 1.0
    assert sent == 13


def test_deeply_nested_payload_is_a_parse_error(tmp_path, capsys):
    # json.dumps cannot build this text, so it is written raw
    assert "recursion" in _exit_2_one_line(tmp_path, capsys, "[" * 5000 + "]" * 5000)


# (scenario, field, expected length): vectors of the wrong length for the point or ambient they meet
LENGTH_CASES = {
    "curvature-Omega": (
        {"kind": "curvature", "n": 2, "class": "F11", "nu": 1.0, "nu_tilde": 0.0, "scalars": {"t": 0.1, "Omega": [1, 0]}},
        "Omega", 5,
    ),
    "classify-x": ({"kind": "classify", "n": 1, "x": [1, 0], "y": [0, 0, 1]}, "x", 3),
    "classify-y": ({"kind": "classify", "n": 1, "x": [1, 0, 0], "y": [0, 1]}, "y", 3),
    "classify-both": ({"kind": "classify", "n": 1, "x": [1, 0], "y": [0, 1]}, "x", 3),
    "classify-complex-x": ({"kind": "classify", "n_prime": 2, "x": [1, 0, 0], "y": [0, 1, 0, 0]}, "x", 4),
    "induce-N": ({"kind": "induce", "ambient": {"n_prime": 3}, "N": [0.75, 0, 0, 1.25, 0]}, "N", 6),
    "curvature-ambient-N": (
        {"kind": "curvature", "ambient": {"n_prime": 3}, "N": [0.75, 0, 0, 1.25, 0], "nu": 1.0, "nu_tilde": 0.0},
        "N", 6,
    ),
}


@pytest.mark.parametrize("scenario, field, d", LENGTH_CASES.values(), ids=LENGTH_CASES)
def test_vector_of_wrong_length_exit_2_naming_field(tmp_path, capsys, scenario, field, d):
    err = _exit_2_one_line(tmp_path, capsys, json.dumps(scenario))
    assert err.startswith(f"error: {field} must have length {d}, got shape ")


def _random_hyper_scenario(gen, kind, tag, n, ambient):
    """A curvature or canonical scenario on a congruence-randomized point or ambient."""
    from nordenhyp.sampling import random_contact_point, random_timelike_frame
    from samplers import congruent_ambient, random_congruence

    keys = ("dt_xi", "theta_xi", "theta_star_xi", "xi_theta_xi", "xi_theta_star_xi")
    scalars = {k: float(gen.uniform(-2, 2)) for k in keys}
    if tag == "F11":
        scalars["Omega"] = gen.uniform(-1, 1, size=2 * n + 1).tolist()
    nu, nu_tilde = gen.uniform(-2, 2, size=2).tolist()
    scenario = {"kind": kind, "class": tag, "nu": nu, "nu_tilde": nu_tilde, "scalars": scalars}
    if ambient:
        frame = random_timelike_frame(gen, n + 1)
        S = random_congruence(gen, 2 * n + 2)
        amb = congruent_ambient(frame.ambient, S)
        scenario["ambient"] = {"n_prime": n + 1, "g": amb.g.tolist(), "J": amb.J.tolist()}
        scenario["N"] = np.linalg.solve(S, frame.N).tolist()
    else:
        p = random_contact_point(gen, n)
        scenario.update(n=n, g=p.g.tolist(), phi=p.phi.tolist(), xi=p.xi.tolist(), eta=p.eta.tolist())
        scalars["t"] = float(gen.uniform(-1.2, 1.2))
    return scenario


HYPER_SIZES = [(n, False) for n in (1, 2, 3, 4)] + [(n, True) for n in (1, 2, 3)]
HYPER_IDS = [f"n{n}{'-ambient' if a else ''}" for n, a in HYPER_SIZES]


@pytest.mark.parametrize("tag", ["F0", "F4", "F5", "F11", "F4+F5"])
@pytest.mark.parametrize("n, ambient", HYPER_SIZES, ids=HYPER_IDS)
@pytest.mark.parametrize("kind", ["curvature", "canonical"])
def test_hyper_scenarios_pass_on_random_points(tmp_path, capsys, gen, kind, n, ambient, tag):
    code, doc = run(tmp_path, capsys, _random_hyper_scenario(gen, kind, tag, n, ambient))
    assert code == 0
    assert doc["passed"] is True
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_faulted_suite_output_is_strict_json(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "suite", "trials": 1, "fault": 1e-3}))
    for flags in (["--json"], []):
        assert cli.main([str(path), *flags]) == 1
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        nulls = [c for c in doc["checks"] if c["residual"] is None]
        assert nulls
        assert not any(c["passed"] for c in nulls)
        assert doc["passed"] is False


def test_nonfinite_values_encode_as_null(tmp_path, capsys, monkeypatch):
    from nordenhyp.report import Check, ValidationReport

    def handler(payload, args):
        checks = (Check("nan", float("nan"), 1.0), Check("inf", float("inf"), 1.0), Check("ok", 0.5, 1.0))
        return ValidationReport(checks), {"a": float("-inf"), "b": 2.0, "c": "text"}

    monkeypatch.setitem(cli._KINDS, "validate", (handler, cli._KINDS["validate"][1]))
    code, doc = run(tmp_path, capsys, {"kind": "validate"})
    assert code == 1
    assert doc["results"] == {"a": None, "b": 2.0, "c": "text"}
    assert [(c["name"], c["residual"], c["passed"]) for c in doc["checks"]] == [
        ("inf", None, False),
        ("nan", None, False),
        ("ok", 0.5, True),
    ]


def test_parser_is_shared_without_leaking_state(tmp_path, capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "suite", "trials": 1, "n_values": [1]}))
    # the suite fails only when both tolerances are far below rounding, so a flag that leaked into
    # the next call, which tightens only the other one, would fail that call too
    tight = "1e-30"
    argvs = ([str(path), "--json", "--abs-tol", tight, "--rel-tol", tight], [str(path), "--json", "--abs-tol", tight],
             [str(path), "--json", "--rel-tol", tight])

    def outputs():
        return [(cli.main(argv), capsys.readouterr().out) for argv in argvs]

    shared = outputs()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser for every call
    assert shared == outputs()
    assert [code for code, _ in shared] == [1, 0, 0]
