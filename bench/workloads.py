"""Workload inputs, the operation each workload runs, and its output checks.

Inputs are a pure function of the workload seed.  The `scenarios` points are
built here with numpy (standard model plus a congruence), independently of
`nordenhyp.sampling`; the suite workloads only pick `run_suite` seeds.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("suite", "scenarios", "suite_fault")

# The ten battery names of `nordenhyp.suite.BATTERIES`; the negative control
# requires a failing check under each prefix.
BATTERIES = (
    "axiom_induction",
    "kaehlerity",
    "model_curvature",
    "scalar_calibration",
    "induced_curvature",
    "canonical_curvature",
    "main_class",
    "canonical_connection",
    "solver_theorem",
    "expanded_coefficients",
)

SCENARIO_KINDS = ("curvature", "canonical", "theorem31", "solve", "validate", "classify", "malformed")
_KIND_WEIGHTS = (0.30, 0.15, 0.10, 0.15, 0.10, 0.15, 0.05)
CLASSES = ("F0", "F4", "F5", "F11", "F4+F5")

SUITE_TRIALS = 20
SUITE_N_VALUES = (1, 2, 3)
FAULT = 1e-3
# Distinct inputs per run, each cycled several times within a window.  A
# suite op takes 1.5-2 s and a faulted one ~0.2 s, so the faulted pool can
# be larger; a larger pool keeps the median from sitting between the costs
# of a few particular inputs.
POOL_SIZE = {"suite": 10, "suite_fault": 24, "scenarios": 1000}

# The pullback check of `axiom_induction` costs ~0.2 s per n' = 4 draw and
# almost nothing at n' = 2, 3, so the number of n' = 4 draws alone moves an
# op between 1.1 s and 3.2 s.  Suite seeds are kept only when their
# axiom_induction draws are the expected mix for 20 trials over n' = 2, 3, 4,
# which fixes the work per op at its typical value instead of letting the
# seed decide it.
_AXIOM_MIX = {2: 7, 3: 6, 4: 7}


@dataclass(frozen=True)
class Op:
    """One operation: a `run_suite` seed, or one CLI scenario."""

    kind: str  # "suite" or a scenario kind
    seed: int = 0
    text: str = ""  # the scenario JSON read by the CLI
    expect_exit: int = 0
    expect_section: str | None = None


@dataclass(frozen=True)
class Outcome:
    digest: str
    ok: bool
    why: str = ""


def make_pool(workload: str, seed: int) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = POOL_SIZE[workload]
    if workload == "scenarios":
        gen = np.random.Generator(np.random.PCG64(seed))
        return [_scenario(gen) for _ in range(size)]
    return [Op(kind="suite", seed=s) for s in suite_seeds(seed, size)]


def first_op(workload: str, seed: int) -> Op:
    """The first op of `make_pool(workload, seed)`, without building the rest."""
    if workload == "scenarios":
        return _scenario(np.random.Generator(np.random.PCG64(seed)))
    return Op(kind="suite", seed=suite_seeds(seed, 1)[0])


def suite_seeds(seed: int, count: int) -> list[int]:
    """`count` run_suite seeds drawn from the workload seed, typical mix only."""
    from nordenhyp.sampling import random_timelike_frame, rng

    offset = sum(ord(c) for c in "axiom_induction")
    gen = np.random.Generator(np.random.PCG64(seed))
    chosen: list[int] = []
    while len(chosen) < count:
        s = int(gen.integers(0, 2**31))
        draws = rng(s + offset)
        mix = {2: 0, 3: 0, 4: 0}
        for _ in range(SUITE_TRIALS):
            n_prime = int(draws.choice([n + 1 for n in SUITE_N_VALUES]))
            random_timelike_frame(draws, n_prime)
            mix[n_prime] += 1
        if mix == _AXIOM_MIX:
            chosen.append(s)
    return chosen


# --- scenario generation --------------------------------------------------


def _congruence(gen: np.random.Generator, d: int) -> np.ndarray:
    return np.eye(d) + 0.3 * gen.uniform(-1.0, 1.0, size=(d, d))


def _contact_point(gen: np.random.Generator, n: int) -> dict:
    d = 2 * n + 1
    g = np.diag(np.concatenate([np.ones(n), -np.ones(n), [1.0]]))
    phi = np.zeros((d, d))
    for i in range(n):
        phi[n + i, i] = 1.0
        phi[i, n + i] = -1.0
    xi = np.zeros(d)
    xi[-1] = 1.0
    S = _congruence(gen, d)
    S_inv = np.linalg.inv(S)
    return {
        "n": n,
        "g": (S.T @ g @ S).tolist(),
        "phi": (S_inv @ phi @ S).tolist(),
        "xi": (S_inv @ xi).tolist(),
        "eta": (S.T @ xi).tolist(),
    }


def _ambient_with_normal(gen: np.random.Generator, n_prime: int) -> tuple[dict, list]:
    """Congruence-randomized ambient point and a unit time-like normal in its basis."""
    d = 2 * n_prime
    g = np.diag(np.concatenate([np.ones(n_prime), -np.ones(n_prime)]))
    J = np.zeros((d, d))
    for i in range(n_prime):
        J[n_prime + i, i] = 1.0
        J[i, n_prime + i] = -1.0
    while True:
        i = int(gen.integers(0, n_prime))
        s = gen.uniform(-1.2, 1.2)
        v = np.zeros(d)
        v[i], v[n_prime + i] = np.sinh(s), np.cosh(s)
        v = v + 0.3 * gen.uniform(-1.0, 1.0, size=d)
        sq = float(v @ g @ v)
        if sq < -0.1:
            break
    S = _congruence(gen, d)
    S_inv = np.linalg.inv(S)
    ambient = {"n_prime": n_prime, "g": (S.T @ g @ S).tolist(), "J": (S_inv @ J @ S).tolist()}
    return ambient, (S_inv @ (v / np.sqrt(-sq))).tolist()


def _u(gen: np.random.Generator, lo: float = -2.0, hi: float = 2.0) -> float:
    return float(gen.uniform(lo, hi))


def _hyper(gen: np.random.Generator, kind: str, n: int) -> dict:
    """curvature/canonical payload: explicit point, or ambient plus normal at n <= 3."""
    tag = CLASSES[int(gen.integers(0, len(CLASSES)))]
    scalars = {"dt_xi": _u(gen), "theta_xi": _u(gen), "theta_star_xi": _u(gen)}
    if tag == "F11":
        scalars["Omega"] = gen.uniform(-1.0, 1.0, size=2 * n + 1).tolist()
    doc = {"kind": kind, "class": tag, "nu": _u(gen), "nu_tilde": _u(gen), "scalars": scalars}
    if kind == "curvature" and n <= 3 and gen.uniform() < 1 / 3:
        doc["ambient"], doc["N"] = _ambient_with_normal(gen, n + 1)
    else:
        doc.update(_contact_point(gen, n))
        scalars["t"] = _u(gen, -1.2, 1.2)
    return doc


def _classify(gen: np.random.Generator, n: int) -> tuple[dict, str]:
    doc = {"kind": "classify", **_contact_point(gen, n)}
    phi, xi, g = np.array(doc["phi"]), np.array(doc["xi"]), np.array(doc["g"])
    x = gen.uniform(-1.0, 1.0, size=2 * n + 1)
    section = ("xi_section", "phi_holomorphic", "generic")[int(gen.integers(0, 3))]
    if section == "xi_section":
        y = xi
    elif section == "phi_holomorphic":
        x = phi @ x
        y = phi @ x
    else:
        # keep the area factor clear of the degenerate band; a random plane
        # is special in any other way with probability zero
        while True:
            y = gen.uniform(-1.0, 1.0, size=2 * n + 1)
            area = (y @ g @ y) * (x @ g @ x) - (x @ g @ y) ** 2
            if abs(area) > 1e-3:
                break
    doc["x"], doc["y"] = x.tolist(), y.tolist()
    return doc, section


def _malformed(gen: np.random.Generator, n: int) -> dict:
    """Inputs the CLI rejects with exit code 2 and a typed error."""
    which = int(gen.integers(0, 8))
    if which == 0:
        return {"kind": "frobnicate"}
    if which == 1:
        return {**_hyper(gen, "curvature", n), "class": "F6"}
    if which == 2:
        doc = _hyper(gen, "curvature", n)
        del doc["nu_tilde"]
        return doc
    if which == 3:
        doc = {"kind": "classify", **_contact_point(gen, n)}
        x = gen.uniform(-1.0, 1.0, size=2 * n + 1)
        doc["x"], doc["y"] = x.tolist(), (2.0 * x).tolist()
        return doc
    if which == 4:
        return {"kind": "solve", "n": n, "t": 0.1, "nu": 1.0, "nu_tilde": 0.5, "epsilon": 2}
    if which == 5:
        return {"kind": "theorem31", "n": n, "theta_xi": 1.0, "theta_star_xi": 0.5, "t": 2.0}
    if which == 6:
        doc = {"kind": "validate", **_contact_point(gen, n)}
        del doc["phi"]
        return doc
    # space-like normal: g'(N, N) = +1
    ambient, _ = _ambient_with_normal(gen, n + 1)
    g = np.array(ambient["g"])
    v = gen.uniform(-1.0, 1.0, size=2 * n + 2)
    while float(v @ g @ v) < 0.1:
        v = gen.uniform(-1.0, 1.0, size=2 * n + 2)
    doc = _hyper(gen, "curvature", n)
    for key in ("n", "g", "phi", "xi", "eta"):
        doc.pop(key, None)
    doc["scalars"].pop("t", None)
    doc["ambient"], doc["N"] = ambient, (v / np.sqrt(float(v @ g @ v))).tolist()
    return doc


def _scenario(gen: np.random.Generator) -> Op:
    kind = SCENARIO_KINDS[int(gen.choice(len(SCENARIO_KINDS), p=_KIND_WEIGHTS))]
    n = int(gen.integers(1, 5))
    section = None
    expect_exit = 0
    if kind in ("curvature", "canonical"):
        doc = _hyper(gen, kind, n)
    elif kind == "theorem31":
        doc = {"kind": kind, "n": n, "theta_xi": _u(gen), "theta_star_xi": _u(gen), "t": _u(gen, -1.2, 1.2)}
    elif kind == "solve":
        while True:
            nu, nut, t = _u(gen), _u(gen), _u(gen, -1.2, 1.2)
            # stay clear of the solver's degenerate radicand
            if nu * np.cos(t) - nut * np.sin(t) + np.hypot(nu, nut) >= 0.01:
                break
        doc = {"kind": kind, "n": n, "t": t, "nu": nu, "nu_tilde": nut, "epsilon": int(gen.choice([1, -1]))}
    elif kind == "validate":
        if gen.uniform() < 0.5:
            doc = {"kind": kind, **_contact_point(gen, n)}
        else:
            ambient, _ = _ambient_with_normal(gen, n + 1)
            doc = {"kind": kind, **ambient}
    elif kind == "classify":
        doc, section = _classify(gen, n)
    else:
        doc = _malformed(gen, n)
        expect_exit = 2
    return Op(kind=kind, text=json.dumps(doc), expect_exit=expect_exit, expect_section=section)


# --- running one op ---------------------------------------------------------


class Runner:
    """Runs one workload's ops; the program is imported on construction."""

    def __init__(self, workload: str):
        self.fault = FAULT if workload == "suite_fault" else 0.0
        if workload == "scenarios":
            from nordenhyp.cli import main

            self._main = main
        else:
            from nordenhyp.suite import run_suite

            self._run_suite = run_suite

    def call(self, op: Op):
        """The timed part: one program call, returning its raw result."""
        if op.kind == "suite":
            return self._run_suite(
                seed=op.seed, trials=SUITE_TRIALS, n_values=SUITE_N_VALUES, fault=self.fault
            )
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(op.text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._main(["-", "--json"])
        finally:
            sys.stdin = stdin
        return code, out.getvalue()

    def check(self, op: Op, result) -> Outcome:
        """Untimed: digest of the output and whether it is the expected one."""
        if op.kind == "suite":
            text = json.dumps(result.to_dict(), sort_keys=True)
            if self.fault:
                failing = {c.name.split(".", 1)[0] for c in result.checks if not c.passed}
                missing = [b for b in BATTERIES if b not in failing]
                return Outcome(_digest(text), not missing, f"batteries without a failing check: {missing}")
            return Outcome(_digest(text), bool(result.passed), "suite report did not pass")
        code, text = result
        if code != op.expect_exit:
            return Outcome(_digest(text), False, f"exit {code}, expected {op.expect_exit}: {op.text[:120]}")
        if op.expect_section is not None:
            got = json.loads(text)["results"]["section"]
            if got != op.expect_section:
                return Outcome(_digest(text), False, f"section {got}, expected {op.expect_section}")
        return Outcome(_digest(text), True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
