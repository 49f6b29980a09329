"""Command-line front end.

One self-describing JSON scenario per invocation, read from a file or from
standard input via "-".  The machine-readable report always goes to standard
output; a human rendering goes to standard error under --verbose.  Exit codes:
0 all checks passed, 1 at least one check failed, 2 bad input or usage.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .complex_norden import (
    ComplexNordenPoint,
    classify_section_prime,
    validate_complex_norden,
)
from .contact_norden import CONSTRUCTIVE_TAGS, ContactNordenPoint, classify_section, validate_contact_axioms
from .errors import DegenerateFlat, GeometryError
from .hypersurface import HyperScalars, TimelikeNormalFrame, induce, pi_relations_residual, shape_from_class
from .main_class import (
    COR32_READINGS,
    SolverBranch,
    nu_from_scalars,
    solve_theta,
    theorem31,
)
from .multilinear import DEFAULT_TOL, MAX_DIM, Tolerance
from .report import ValidationReport, finite_or_none
from .suite import (
    MAX_N, canonical_checks, check, curvature_checks, family_report, roundtrip_checks, run_suite, theorem31_checks,
)


class ParseError(Exception):
    pass


class SchemaError(Exception):
    pass


def _need(payload: dict, *keys):
    missing = [k for k in keys if k not in payload]
    if missing:
        raise SchemaError(f"missing fields: {', '.join(missing)}")
    return [payload[k] for k in keys]


def _as_int(value, key: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """An integer field; booleans, floats and null are schema errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{key} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SchemaError(f"{key} must be at most {maximum}, got {value}")
    return value


def _as_real(value, key: str) -> float:
    """A finite number field; booleans, null and NaN or infinities are schema errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise SchemaError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _as_object(value, key: str) -> dict:
    """A JSON-object field such as ambient or scalars."""
    if not isinstance(value, dict):
        raise SchemaError(f"{key} must be a JSON object, got {value!r}")
    return value


def _as_array(value, key: str, ndim: int) -> np.ndarray:
    """A numeric field given as nested JSON arrays of rank ndim (1 vector, 2 matrix)."""
    if not isinstance(value, list):
        raise SchemaError(f"{key} must be an array, got {value!r}")
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{key} must be a numeric array: {exc}") from None
    if arr.ndim != ndim:
        raise SchemaError(f"{key} must be an array of rank {ndim}, got shape {arr.shape}")
    # rank ndim came from ndim levels of nested lists, so one C-level pass reaches every entry
    leaves = value if ndim == 1 else itertools.chain.from_iterable(value)
    if not set(map(type, leaves)) <= {int, float}:
        raise SchemaError(f"{key} must hold JSON numbers only, not booleans, strings or null")
    return arr


def _reals(payload: dict, *keys: str) -> list[float]:
    return [_as_real(v, k) for v, k in zip(_need(payload, *keys), keys)]


# The largest sizes whose hypersurface fits MAX_DIM: d = 2n + 1 <= MAX_DIM for n, and for
# n_prime the ambient of such a hypersurface, 2n' - 1 <= MAX_DIM.  Checked before anything is
# built, so a large size costs no memory.
MAX_SIZE = {"n": (MAX_DIM - 1) // 2, "n_prime": (MAX_DIM + 1) // 2}


def _size(payload: dict, key: str) -> int:
    """A required size field, n or n_prime: an integer from 1 to MAX_SIZE[key]."""
    (value,) = _need(payload, key)
    return _as_int(value, key, minimum=1, maximum=MAX_SIZE[key])


def _contact_point(payload: dict) -> ContactNordenPoint:
    n = _size(payload, "n")
    if "g" not in payload:
        return ContactNordenPoint.standard(n)
    g, phi, xi, eta = _need(payload, "g", "phi", "xi", "eta")
    return ContactNordenPoint(
        n,
        _as_array(g, "g", 2),
        _as_array(phi, "phi", 2),
        _as_array(xi, "xi", 1),
        _as_array(eta, "eta", 1),
    )


def _complex_point(payload: dict) -> ComplexNordenPoint:
    n_prime = _size(payload, "n_prime")
    if "g" not in payload:
        return ComplexNordenPoint.standard(n_prime)
    g, J = _need(payload, "g", "J")
    return ComplexNordenPoint(n_prime, _as_array(g, "g", 2), _as_array(J, "J", 2))


def _normal_frame(payload: dict) -> TimelikeNormalFrame:
    """The ambient point and the time-like normal N of an embedding."""
    ambient, N = _need(payload, "ambient", "N")
    return TimelikeNormalFrame(
        ambient=_complex_point(_as_object(ambient, "ambient")), N=_as_array(N, "N", 1)
    )


_SCALAR_KEYS = ("dt_xi", "theta_xi", "theta_star_xi", "xi_theta_xi", "xi_theta_star_xi")


def _scalars(payload, t: float | None = None) -> HyperScalars:
    payload = _as_object(payload, "scalars")
    if t is None:
        if "t" not in payload:
            raise SchemaError("scalars need a t value")
        t = _as_real(payload["t"], "t")
    elif "t" in payload and not abs(_as_real(payload["t"], "t") - t) <= 1e-9:
        raise SchemaError(
            f"scalars give t = {payload['t']} but the embedding forces t = {t}"
        )
    values = {k: _as_real(payload.get(k, 0.0), k) for k in _SCALAR_KEYS}
    Omega = payload.get("Omega")
    if Omega is not None:
        Omega = _as_array(Omega, "Omega", 1)
    return HyperScalars(t=t, Omega=Omega, **values)


def _hyper_inputs(payload: dict, tol: Tolerance):
    """(point, A, scalars, nu, nu_tilde) from an embedding or a bare point."""
    tag = payload.get("class", "F0")
    if tag not in CONSTRUCTIVE_TAGS:
        raise SchemaError(f"class must be one of {CONSTRUCTIVE_TAGS}")
    nu, nut = _reals(payload, "nu", "nu_tilde")
    if "ambient" in payload:
        structure = induce(_normal_frame(payload), tol)
        point = structure.point
        scalars = _scalars(payload.get("scalars", {}), t=structure.t)
    else:
        point = _contact_point(payload)
        scalars = _scalars(payload.get("scalars", {}))
    return point, shape_from_class(point, tag, scalars, tol), scalars, nu, nut


def _run_validate(payload: dict, args) -> tuple[ValidationReport, dict]:
    if "n_prime" in payload:
        return validate_complex_norden(_complex_point(payload), args.tol), {}
    return validate_contact_axioms(_contact_point(payload), args.tol), {}


def _run_induce(payload: dict, args) -> tuple[ValidationReport, dict]:
    # the pullback check builds the ambient pi' family, of dimension d' = 2 n_prime <= MAX_DIM
    ambient, _ = _need(payload, "ambient", "N")
    n_prime = _size(_as_object(ambient, "ambient"), "n_prime")
    _as_int(n_prime, "ambient n_prime", minimum=1, maximum=MAX_DIM // 2)
    structure = induce(_normal_frame(payload), args.tol)
    checks = (*validate_contact_axioms(structure.point, args.tol).checks,
              check("pullback_identities", pi_relations_residual(structure)))
    return ValidationReport(checks), {"t": structure.t}


def _run_classify(payload: dict, args) -> tuple[ValidationReport, dict]:
    x, y = _need(payload, "x", "y")
    x, y = _as_array(x, "x", 1), _as_array(y, "y", 1)
    if "n_prime" in payload:
        kind = classify_section_prime(_complex_point(payload), x, y, args.tol)
    else:
        kind = classify_section(_contact_point(payload), x, y, args.tol)
    return ValidationReport(()), {"section": kind.value}


def _run_curvature(payload: dict, args) -> tuple[ValidationReport, dict]:
    _, got, residuals = curvature_checks(*_hyper_inputs(payload, args.tol))
    return family_report(residuals), {"tau": got.tau, "tau_twisted": got.tau_tilde}


def _run_canonical(payload: dict, args) -> tuple[ValidationReport, dict]:
    tau_K, tau_K_t, residuals = canonical_checks(*_hyper_inputs(payload, args.tol))
    return family_report(residuals), {"tau": tau_K, "tau_twisted": tau_K_t}


def _run_solve(payload: dict, args) -> tuple[ValidationReport, dict]:
    n = _size(payload, "n")
    t, nu, nut = _reals(payload, "t", "nu", "nu_tilde")
    branch = SolverBranch(_as_int(payload.get("epsilon", 1), "epsilon"))
    try:
        th, ths = solve_theta(nu, nut, t, branch, n, args.tol)
    except DegenerateFlat as exc:
        resolution = getattr(exc, "resolution", None)
        if resolution is None:
            return family_report({"solvable": math.inf}), {"error": str(exc)}
        th, ths = resolution
    scalars = HyperScalars(t=t, theta_xi=th, theta_star_xi=ths)
    back = nu_from_scalars(ContactNordenPoint.standard(n), scalars)
    return family_report(roundtrip_checks(back, nu, nut)), {"theta_xi": th, "theta_star_xi": ths}


def _run_theorem31(payload: dict, args) -> tuple[ValidationReport, dict]:
    n = _size(payload, "n")
    th, ths, t = (_as_real(payload.get(k, 0.0), k) for k in ("theta_xi", "theta_star_xi", "t"))
    point = ContactNordenPoint.standard(n)
    res = theorem31(point, th, ths, t=t, tol=args.tol)
    results = {
        "tau": res.tau,
        "tau_twisted": res.tau_tilde,
        "k_phi_holomorphic": res.k_phi_holomorphic,
        "k_totally_real": res.k_totally_real,
    }
    return family_report(theorem31_checks(point, res, th, ths)), results


def _run_suite(payload: dict, args) -> tuple[ValidationReport, dict]:
    seed = (_as_int(args.seed, "--seed", minimum=0) if args.seed is not None
            else _as_int(payload.get("seed", 0), "seed", minimum=0))
    trials = args.trials if args.trials is not None else _as_int(payload.get("trials", 20), "trials")
    n_values = args.n or payload.get("n_values")
    if n_values is None:
        n_values = [1, 2, 3]
    if not isinstance(n_values, list) or not n_values:
        raise SchemaError(f"n_values must be a non-empty list, got {n_values!r}")
    key = "--n" if args.n else "n_values entry"
    n_values = [_as_int(v, key, minimum=1, maximum=MAX_N) for v in n_values]  # the suite's own cap
    fault = args.fault_inject if args.fault_inject is not None else _as_real(payload.get("fault", 0.0), "fault")
    reading = args.cor32_reading or payload.get("cor32_reading")
    if reading is not None and reading not in COR32_READINGS:
        raise SchemaError(f"cor32_reading must be null or one of {COR32_READINGS}, got {reading!r}")
    report = run_suite(seed=seed, trials=trials, n_values=n_values, fault=fault, cor32_reading=reading, tol=args.tol)
    return report, {"seed": seed, "trials": trials, "n_values": n_values}


_HANDLERS = {
    "validate": _run_validate,
    "induce": _run_induce,
    "classify": _run_classify,
    "curvature": _run_curvature,
    "canonical": _run_canonical,
    "solve": _run_solve,
    "theorem31": _run_theorem31,
    "suite": _run_suite,
}


def _load_scenario(path: str) -> dict:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object")
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nordenhyp",
        description="Pointwise checks and solvers for contact-type Norden structures "
        "on time-like hypersurfaces.",
    )
    parser.add_argument("scenario", help="path to a JSON scenario, or - for stdin")
    parser.add_argument("--seed", type=int, default=None, help="suite RNG seed (PCG64)")
    parser.add_argument("--trials", type=int, default=None, help="suite datasets per battery")
    parser.add_argument(
        "--n", type=int, action="append", default=None, help="contact size n; repeatable"
    )
    parser.add_argument("--abs-tol", type=float, default=DEFAULT_TOL.abs_tol)
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_TOL.rel_tol)
    parser.add_argument(
        "--json", action="store_true", help="compact single-line JSON instead of indented"
    )
    parser.add_argument(
        "--fault-inject",
        type=float,
        nargs="?",
        const=1e-3,
        default=None,
        help="perturb one structure tensor per dataset (negative control)",
    )
    parser.add_argument("--cor32-reading", choices=COR32_READINGS, default=None)
    parser.add_argument("-v", "--verbose", action="store_true", help="human text to stderr")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.tol = Tolerance(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
        scenario = _load_scenario(args.scenario)
        kind = scenario.get("kind")
        if not isinstance(kind, str) or kind not in _HANDLERS:
            raise SchemaError(f"kind must be one of {sorted(_HANDLERS)}, got {kind!r}")
        report, results = _HANDLERS[kind](scenario, args)
    except (ParseError, SchemaError, GeometryError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = {k: finite_or_none(v) for k, v in results.items()}
    doc = {"kind": kind, **report.to_dict(), "results": results}
    print(json.dumps(doc, indent=None if args.json else 2, sort_keys=True, allow_nan=False))
    if args.verbose:
        print(report.render_text(), file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
