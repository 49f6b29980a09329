import json
import math

import numpy as np
import pytest

from nordenhyp import cli
from nordenhyp.suite import MAX_N


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
    scenario = {"kind": "suite", "trials": 3}
    code, doc1 = run(tmp_path, capsys, scenario, "--seed", "7")
    assert code == 0
    _, doc2 = run(tmp_path, capsys, scenario, "--seed", "7")
    assert doc1 == doc2
    _, doc3 = run(tmp_path, capsys, scenario, "--seed", "8")
    assert doc3 != doc1


def test_suite_fault_injection_fails(tmp_path, capsys):
    scenario = {"kind": "suite", "trials": 2}
    code, doc = run(tmp_path, capsys, scenario, "--seed", "3", "--fault-inject")
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


# (scenario, extra flags, the field the error names); every size is past the largest that fits
# MAX_DIM: n = 4 (d = 9), and n_prime = 5, the ambient of n = 4
OVERSIZE_CASES = [
    ({"kind": "validate", "n": 5}, [], "n"),
    ({"kind": "validate", "n_prime": 6}, [], "n_prime"),
    ({"kind": "classify", "n": 5, "x": [1.0] + [0.0] * 10, "y": [0.0, 1.0] + [0.0] * 9}, [], "n"),
    ({"kind": "theorem31", "n": 100000, "theta_xi": 1.0, "theta_star_xi": 0.5}, [], "n"),
    ({"kind": "solve", "n": 100000, "t": 0.0, "nu": 1.0, "nu_tilde": 0.0}, [], "n"),
    ({"kind": "curvature", "n": 100000, "nu": 1.0, "nu_tilde": 0.0, "scalars": {"t": 0.1}}, [], "n"),
    ({"kind": "induce", "ambient": {"n_prime": 100000}, "N": [0.0, 1.0]}, [], "n_prime"),
    # induce's pullback check builds the ambient pi' family, so its n_prime stops at MAX_DIM // 2
    ({"kind": "induce", "ambient": {"n_prime": 5}, "N": [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]}, [], "ambient n_prime"),
    ({"kind": "suite", "trials": 1, "n_values": [1, 100000]}, [], "n_values entry"),
    ({"kind": "suite", "trials": 1}, ["--n", "1", "--n", "100000"], "--n"),
    # the suite stops at n = 3: two batteries build the pi' family of the ambient n' = n + 1
    ({"kind": "suite", "trials": 1, "n_values": [4]}, [], "n_values entry"),
    ({"kind": "suite", "trials": 1}, ["--n", "4"], "--n"),
]
OVERSIZE_IDS = [f"{c[0]['kind']}-{c[2]}" for c in OVERSIZE_CASES[:-2]] + ["suite-n_values entry-4", "suite---n-4"]


@pytest.mark.parametrize("scenario, flags, field", OVERSIZE_CASES, ids=OVERSIZE_IDS)
def test_oversize_exit_2_before_building(tmp_path, capsys, monkeypatch, scenario, flags, field):
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
    assert cli.main([str(path), "--json", *flags]) == 2
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
        ({"cor32_reading": []}, "cor32_reading"),
        ({"cor32_reading": "bogus"}, "cor32_reading"),
        ({"cor32_reading": 3}, "cor32_reading"),
        ({"n_values": []}, "n_values"),
        ({"n_values": 0}, "n_values"),
        ({"seed": -1}, "seed"),
    ],
    ids=["reading-list", "reading-unknown", "reading-number", "n-values-empty", "n-values-zero", "seed-negative"],
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


def test_suite_reading_null_is_the_default(tmp_path, capsys):
    base = {"kind": "suite", "trials": 1, "n_values": [1]}
    assert run(tmp_path, capsys, {**base, "cor32_reading": None}) == run(tmp_path, capsys, base)


def test_run_suite_rejects_unknown_reading_before_any_battery(monkeypatch):
    from nordenhyp import suite

    def refuse(*args, **kwargs):
        raise AssertionError("ran a battery")

    monkeypatch.setattr(suite, "BATTERIES", dict.fromkeys(suite.BATTERIES, refuse))
    for reading in ("bogus", []):
        with pytest.raises(ValueError, match="cor32_reading"):
            suite.run_suite(seed=1, trials=1, cor32_reading=reading)
    # and a seed that is not a non-negative integer, or a fault that is not finite
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


def test_run_suite_accepts_numpy_numbers(monkeypatch):
    from nordenhyp import suite

    monkeypatch.setattr(suite, "BATTERIES", dict.fromkeys(suite.BATTERIES, lambda *a, **k: []))
    report = suite.run_suite(np.int64(1), np.int32(2), (np.int64(1), np.uint8(2)), fault=np.float32(1e-3))
    assert report.checks == ()


def test_suite_seed_flag_below_zero_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: pytest.fail("started the suite"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "suite", "trials": 1}))
    assert cli.main([str(path), "--json", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: --seed must be at least 0")


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


def _random_hyper_scenario(gen, kind, tag, n, ambient):
    """A curvature or canonical scenario on a congruence-randomized point or ambient."""
    from nordenhyp.sampling import random_contact_point, random_timelike_frame
    from samplers import random_congruence

    keys = ("dt_xi", "theta_xi", "theta_star_xi", "xi_theta_xi", "xi_theta_star_xi")
    scalars = {k: float(gen.uniform(-2, 2)) for k in keys}
    if tag == "F11":
        scalars["Omega"] = gen.uniform(-1, 1, size=2 * n + 1).tolist()
    nu, nu_tilde = gen.uniform(-2, 2, size=2).tolist()
    scenario = {"kind": kind, "class": tag, "nu": nu, "nu_tilde": nu_tilde, "scalars": scalars}
    if ambient:
        frame = random_timelike_frame(gen, n + 1)
        S = random_congruence(gen, 2 * n + 2)
        amb = frame.ambient.congruence(S)
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
    path.write_text(json.dumps({"kind": "suite", "trials": 1}))
    for flags in (["--json"], []):
        assert cli.main([str(path), *flags, "--fault-inject"]) == 1
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

    monkeypatch.setitem(cli._HANDLERS, "validate", handler)
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
    path.write_text(json.dumps({"kind": "suite", "trials": 1}))
    argvs = ([str(path), "--json", "--n", "1", "--n", "2", "--seed", "3"], [str(path), "--json"])

    def outputs():
        return [(cli.main(argv), capsys.readouterr().out) for argv in argvs]

    shared = outputs()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser for every call
    assert shared == outputs()
    assert json.loads(shared[0][1])["results"] == {"n_values": [1, 2], "seed": 3, "trials": 1}
    assert json.loads(shared[1][1])["results"] == {"n_values": [1, 2, 3], "seed": 0, "trials": 1}
