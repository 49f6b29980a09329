"""The one-shot CLI cases in one table, and the checker its runners share.

A `Case` is one scenario for `python -m nordenhyp.cli - --json`: an id, the payload as raw text, the
flags, the exit code and at most one predicate: `error` (the error line starts with it), `words`
(stderr holds each), `names` (the check names, exactly), `results` (fields with exact values) or
`every_battery_fails` (each of the suite's ten batteries fails a check).  `problems` also holds every
case to the output contract: on exit 0 or 1, stdout is one strict-JSON report of the payload's kind
whose `passed` agrees with the exit code; on exit 2, stdout is empty and stderr one `error:` line of
at most 300 bytes.  `python tests/cli_cases.py` runs each case in a fresh interpreter and exits 1 on
any problem; `tests/test_cli.py` and the runtime-coverage probe run each in process.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from typing import NamedTuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TIMEOUT = 60  # seconds for one case in a fresh interpreter

# spelled out rather than read from suite.BATTERIES, so a battery that drops out of the suite still fails
BATTERIES = ("axiom_induction", "kaehlerity", "model_curvature", "scalar_calibration", "induced_curvature",
             "canonical_curvature", "main_class", "canonical_connection", "solver_theorem", "expanded_coefficients")


class Case(NamedTuple):
    id: str
    payload: str
    code: int
    flags: tuple[str, ...] = ()
    error: str | None = None
    words: tuple[str, ...] = ()
    names: tuple[str, ...] | None = None
    results: dict | None = None
    every_battery_fails: bool = False


BIG = "1" + "0" * 400  # an integer literal past the double range
LONG = "1" + "0" * 5000  # past the 4,300 digits int() converts by default since Python 3.11
FRAME2 = '"ambient":{"n_prime":2},"N":[0.75,0.0,1.25,0.0]'
FRAME3 = '"ambient":{"n_prime":3},"N":[0.75,0,0,1.25,0,0]'
HYPER = '"class":"F4+F5","nu":1.5,"nu_tilde":-0.5,"scalars":{"t":0.3,"theta_xi":1.0,"theta_star_xi":0.7,"dt_xi":0.2}'
CANONICAL = ("kaehlerian", "routes_agree", "tau", "tau_twisted")
INDUCE = ("eta_after_phi", "eta_is_g_xi", "eta_xi", "g_phi_symmetric", "metric_symmetric", "norden_compatibility",
          "phi_squared", "phi_xi", "pullback_identities", "signature")


CASES = [
    # validate: both point types, standard and given fields, up to the largest n
    Case("validate-n1", '{"kind":"validate","n":1}', 0),
    Case("validate-n2", '{"kind":"validate","n":2}', 0),
    Case("validate-n2-verbose", '{"kind":"validate","n":2}', 0, ("-v",)),
    Case("validate-n4", '{"kind":"validate","n":4}', 0),
    Case("validate-n_prime-1", '{"kind":"validate","n_prime":1}', 0),
    Case("validate-n_prime-3", '{"kind":"validate","n_prime":3}', 0),
    Case("validate-contact-fields", '{"kind":"validate","n":1,"g":[[1,0,0],[0,-1,0],[0,0,1]],'
         '"phi":[[0,-1,0],[1,0,0],[0,0,0]],"xi":[0,0,1],"eta":[0,0,1]}', 0),
    Case("validate-complex-fields", '{"kind":"validate","n_prime":1,"g":[[1,0],[0,-1]],"J":[[0,-1],[1,0]]}', 0),
    # a long value or field name is echoed cut short
    Case("validate-n-long-string", '{"kind":"validate","n":"' + "a" * 3000 + '"}', 2,
         error="error: n must be an integer, got 'aaa"),
    Case("validate-long-field", '{"kind":"validate","n":1,"' + "z" * 3000 + '":1}', 2,
         error="error: unknown fields in a validate scenario: zzz"),
    # induce: the induced structure's nine contact axioms and the pullback check; its pi' family caps n_prime at 4
    Case("induce-n_prime-2", '{"kind":"induce",' + FRAME2 + "}", 0),
    Case("induce-n_prime-3", '{"kind":"induce",' + FRAME3 + "}", 0, names=INDUCE),
    Case("induce-n_prime-5", '{"kind":"induce","ambient":{"n_prime":5},"N":[0,0,0,0,0,1,0,0,0,0]}', 2,
         words=("n_prime",)),
    # N = (sinh 12, 0, cosh 12, 0) is nearly null: a loose --rel-tol lets it through to the tangent metric
    Case("induce-degenerate", '{"kind":"induce","ambient":{"n_prime":2},"N":[81377.39570642984,0,81377.39571257407,0]}',
         2, ("--rel-tol", "1e-3"), error="error: induced metric is degenerate on the tangent space\n"),
    # classify
    Case("classify-xi-section", '{"kind":"classify","n":1,"x":[1,0,0],"y":[0,0,1]}', 0,
         results={"section": "xi_section"}),
    Case("classify-totally-real", '{"kind":"classify","n":2,"x":[1,0,0,0,0],"y":[0,1,0,0,0]}', 0,
         results={"section": "totally_real"}),
    Case("classify-n_prime-2", '{"kind":"classify","n_prime":2,"x":[1,0,0,0],"y":[0,1,0,0]}', 0),
    # curvature and canonical, on a bare point and through an embedding, where t comes from induce
    Case("curvature-F11", '{"kind":"curvature","n":1,"class":"F11","nu":1.0,"nu_tilde":0.5,'
         '"scalars":{"t":0.2,"dt_xi":0.3,"Omega":[0.5,-0.2,0.0]}}', 0),
    Case("curvature-n_prime-2", '{"kind":"curvature","nu":1.0,"nu_tilde":0.0,' + FRAME2 + "}", 0),
    Case("curvature-n_prime-3", '{"kind":"curvature",' + FRAME3 + ',"nu":1.0,"nu_tilde":0.0}', 0),
    Case("canonical-n2", '{"kind":"canonical","n":2,' + HYPER + "}", 0),
    Case("canonical-n4", '{"kind":"canonical","n":4,' + HYPER + "}", 0, names=CANONICAL),
    Case("canonical-n_prime-3", '{"kind":"canonical",' + FRAME3 + ',"class":"F4+F5","nu":1.0,"nu_tilde":-0.5,'
         '"scalars":{"theta_xi":0.5,"theta_star_xi":-0.3,"dt_xi":0.2}}', 0, names=CANONICAL),
    # solve: the anchor, the exactly flat resolution theta(xi) = theta*(xi) = 0, and no stable branch
    Case("solve-anchor", '{"kind":"solve","n":1,"t":0.0,"nu":1.0,"nu_tilde":0.0}', 0,
         results={"theta_xi": 2.0, "theta_star_xi": 0.0}),
    Case("solve-flat-n1", '{"kind":"solve","n":1,"t":0.0,"nu":0.0,"nu_tilde":0.0}', 0, results={"theta_xi": 0.0}),
    Case("solve-flat-n2", '{"kind":"solve","n":2,"t":0.3,"nu":0.0,"nu_tilde":0.0}', 0,
         results={"theta_xi": 0, "theta_star_xi": 0}),
    Case("solve-no-stable-branch", '{"kind":"solve","n":1,"t":0.0,"nu":-1.0,"nu_tilde":0.0}', 1),
    Case("solve-nu-past-double", '{"kind":"solve","n":1,"t":0.1,"nu":' + BIG + ',"nu_tilde":0}', 2,
         error="error: nu must be "),
    # theorem31; angles whose squares overflow are bad input
    Case("theorem31-n2", '{"kind":"theorem31","n":2,"theta_xi":1.0,"theta_star_xi":0.5}', 0),
    Case("theorem31-n-100000", '{"kind":"theorem31","n":100000,"theta_xi":1.0,"theta_star_xi":0.5}', 2),
    Case("theorem31-overflow", '{"kind":"theorem31","n":2,"theta_xi":1e160,"theta_star_xi":1e160,"t":0.1}', 2),
    # suite: clean at 20 and at 150 trials (several blocks per size), faulted (the negative control: each
    # battery fails, also where a decided battery stops early), a tolerance far below rounding, bad fields
    Case("suite-1-trial", '{"kind":"suite","trials":1,"n_values":[1]}', 0),
    Case("suite-20", '{"kind":"suite","trials":20,"seed":7}', 0),
    Case("suite-150", '{"kind":"suite","trials":150,"seed":7}', 0),
    Case("suite-tight-tolerance", '{"kind":"suite","trials":5,"seed":7}', 1,
         ("--abs-tol", "1e-30", "--rel-tol", "1e-30")),
    Case("suite-fault", '{"kind":"suite","trials":1,"fault":0.001}', 1),
    Case("suite-fault-20", '{"kind":"suite","trials":20,"seed":7,"fault":0.001}', 1, every_battery_fails=True),
    Case("suite-fault-150", '{"kind":"suite","trials":150,"seed":7,"fault":0.001}', 1, every_battery_fails=True),
    Case("suite-trials-bool", '{"kind":"suite","trials":true}', 2),
    Case("suite-n_values-4", '{"kind":"suite","trials":1,"n_values":[4]}', 2, words=("n_values",)),
    Case("suite-seed-negative", '{"kind":"suite","trials":1,"seed":-1}', 2, words=("seed",)),
    Case("suite-stale-field", '{"kind":"suite","trials":1,"n_values":[1],"cor32_reading":"literal","bogus_key":3}', 2,
         words=("cor32_reading",)),
    Case("suite-trials-1e20", '{"kind":"suite","trials":100000000000000000000}', 2, words=("trials",)),
    Case("suite-trials-401-digits", '{"kind":"suite","trials":' + BIG + "}", 2, words=("trials",)),
    Case("suite-trials-4001-digits", '{"kind":"suite","trials":1' + "0" * 4000 + "}", 2,
         error="error: trials must be at most 10000, got 1000"),
    Case("suite-trials-5001-digits", '{"kind":"suite","trials":' + LONG + "}", 2, error="error: trials must be "),
    # the scenario itself
    Case("unknown-kind", '{"kind":"frobnicate"}', 2),
    Case("unknown-kind-long", '{"kind":"' + "k" * 3000 + '"}', 2, error="error: kind must be one of "),
    Case("nested-5000", "[" * 5000 + "]" * 5000, 2, words=("recursion",)),
]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def problems(case: Case, code, out: str, err: str) -> list[str]:
    """What the exit code, stdout and stderr of one run break of case and of the output contract."""
    found = [] if code == case.code else [f"exit code {code}, expected {case.code}"]
    doc = {}
    if code in (0, 1):
        try:
            doc = json.loads(out, parse_constant=_reject_constant)
            if (doc["kind"], doc["passed"]) != (json.loads(case.payload)["kind"], code == 0):
                found.append(f"a {doc['kind']} report with passed {doc['passed']} on exit {code}")
        except (ValueError, TypeError, KeyError) as exc:
            found.append(f"stdout is not one strict-JSON report: {exc!r}")
            doc = {}
    elif code == 2 and (out or not err.startswith("error: ") or "\n" in err[:-1] or not err.endswith("\n")
                        or len(err.encode()) > 300):
        found.append(f"stdout {out[:60]!r} and {len(err.encode())} bytes of stderr {err[:60]!r}, expected no report "
                     "and one error line of at most 300 bytes")
    if case.error is not None and not err.startswith(case.error):
        found.append(f"error line {err[:120]!r} does not start with {case.error!r}")
    missing = [word for word in case.words if word not in err]
    if missing:
        found.append(f"stderr {err[:120]!r} lacks {missing}")
    checks = doc.get("checks", [])
    if case.names is not None and tuple(c["name"] for c in checks) != case.names:
        found.append(f"check names {[c['name'] for c in checks]}, expected {list(case.names)}")
    results = doc.get("results", {})
    if case.results is not None and any(k not in results or results[k] != v for k, v in case.results.items()):
        found.append(f"results {results}, expected {case.results}")
    if case.every_battery_fails:
        passing = set(BATTERIES) - {c["name"].split(".")[0] for c in checks if not c["passed"]}
        found += [f"batteries with no failing check: {sorted(passing)}"] if passing else []
    return found


def run_in_process(case: Case):
    """(exit code, stdout, stderr) of `cli.main` on case; argparse's SystemExit counts as its exit code."""
    from nordenhyp import cli

    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(case.payload)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["-", "--json", *case.flags])
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def run_fresh(case: Case):
    """(exit code, stdout, stderr) of `python -m nordenhyp.cli - --json` on case, in a fresh interpreter."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "nordenhyp.cli", "-", "--json", *case.flags], input=case.payload,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=TIMEOUT)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    failed = 0
    for case in CASES:
        try:
            found = problems(case, *run_fresh(case))
        except subprocess.TimeoutExpired:
            found = [f"no exit within {TIMEOUT} s"]
        for problem in found:
            print(f"{case.id}: {problem}")
        failed += bool(found)
    print(f"{len(CASES) - failed} of {len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
