"""Seeded property batteries: every cross-module invariant as a named check.

Each battery draws its own data, evaluates one family of invariants over
`trials` datasets and reports the worst residual per check name, so reports
stay small and byte-identical for a fixed seed.  A nonzero `fault` perturbs
one structure tensor per dataset, and every battery must then fail a check.
A geometry error raised mid-check is an infinite residual under every name
of the guard group that raised; any other exception is a bug and propagates.

The batteries are data: `TABLE` gives each its check names, stream key,
loops (`Loop`: row layout, batch builder, guard groups and the evaluation
of a built run for one group) and an optional finishing step, and one
driver (`_drive`) runs any of them.  Loop l of a battery reads its own
keyed stream, PCG64([seed, key, l]) (`_stream`).

A trial is one row of uniform doubles (`_Row`): the fields the battery
reads, each sized for the largest n, a smaller n using a prefix.  A loop
draws its sizes in turn, the trials split over them (`_Row.counts`), or all
of them at each size for a layout drawn at every n, so the work of a suite
op does not depend on its seed.  A size's rows are drawn `CHUNK` at a time,
and each block is built as one run, evaluated in one batch through the
layers' batch axis, so memory stays flat in `trials`; a run that raises
counts for all its trials.  PCG64 turns one output into one double, so
trial j of size i is row sum(counts[:i]) + j of the stream, and a fresh
generator advanced by that many rows draws it first.  The fault entry's
slots are there at any fault, so a faulted run perturbs the points a clean
run draws.  The driver skips a decided group (every name holds infinity,
so no run can change it) and stops a loop once all its groups are decided,
drawing no further block.  A clean run decides nothing.

Each identity has one check family, shared with the CLI kinds, from one
point's (or one batch's) inputs to `{name: residual}`: `scalar_checks`
serves `curvature_checks` (the Gauss route), `canonical_checks` (both
canonical routes) and `theorem31_checks` (the t-const regime);
`section_checks` compares special sectional curvatures and
`roundtrip_checks` the solver's nu pair.  `THRESHOLD` holds each check's
threshold, keyed by the last part of its name; the tolerance given to
`run_suite` reaches the layers' input checks.
"""
from __future__ import annotations

import contextlib
import functools
import math
import numbers
from collections import namedtuple
from typing import Callable, Iterable

import numpy as np

from .complex_norden import (
    ComplexNordenPoint,
    associated_curvature,
    model_curvature,
    sectional_curvature_prime,
    validate_complex_norden,
)
from .contact_norden import (
    ContactSectionKind,
    F11,
    F4_F5,
    PI_KAEHLER,
    PI_TWISTED,
    canonical_difference,
    is_curvature_like,
    kaehler_residual,
    sectional_curvature,
    validate_contact_axioms,
)
from .errors import GeometryError
from .hypersurface import (
    HyperScalars,
    ScalarCurvatures,
    TimelikeNormalFrame,
    canonical_K_from_R,
    canonical_K_model,
    closed_form_scalars,
    gauss_induced_R,
    induce,
    pi_relations_residual,
    scalar_curvatures,
    shape_from_class,
    special_sectional,
)
from .main_class import (
    COR32_READINGS,
    K_F45_0,
    K_cor32,
    SolverBranch,
    Theorem31Result,
    curvature_F45,
    canonical_difference_F45,
    main_class_form,
    nu_from_scalars,
    shape_F45,
    solve_theta,
    theorem31,
)
from .multilinear import (
    DEFAULT_TOL, MAX_DIM, MultilinearForm, Tolerance, apply, bilinear, trace_compose, trace_endo,
)
from .report import Check, ValidationReport
from .sampling import (
    NORMAL_CANDIDATES,
    PAIR_CANDIDATES,
    RADICAND_CANDIDATES,
    PointDraw,
    contact_point,
    hyper_scalars,
    solver_angles,
    timelike_normals,
    totally_real_pairs,
)

# What a battery's guard catches: a geometry error is a verdict, anything else a bug.
EXPECTED = (GeometryError, np.linalg.LinAlgError)

# The most trials evaluated as one batch: a batch holds (trials, d^4) forms, so
# larger groups are split into runs of this size.
CHUNK = 64

# The largest n the suite draws: axiom_induction and model_curvature build the pi' family
# of the ambient n' = n + 1, of dimension d' = 2n + 2 <= MAX_DIM.
MAX_N = MAX_DIM // 2 - 1


# Every check's threshold, keyed by the last part of its name.
THRESHOLD = {
    # closed forms and round trips
    **dict.fromkeys(("tau", "tau_twisted", "xi_section", "phi_holomorphic", "totally_real", "routes_agree",
                     "R_routes_agree", "roundtrip_nu", "roundtrip_nu_twisted", "flat_canonical_curvature",
                     "reading_literal", "reading_squared"), 1e-8),
    # symmetries and axioms, and the model's totally real sections
    **dict.fromkeys(("axioms", "pullback_identities", "ambient_axioms", "curvature_symmetries", "kaehlerian",
                     "totally_real_k", "totally_real_k_assoc"), 1e-9),
    # exact identities
    **dict.fromkeys(("pi1_minus_pi2_minus_pi4", "pi3_plus_pi5", "holomorphic_k", "trace_A", "trace_A_phi",
                     "difference_tensor"), 1e-10),
    "exactly_one_reading_matches": 0.5,  # residual 0 or 1
    "solvable": 1.0,  # residual infinite when the solver has no stable branch
}


def check(name: str, residual) -> Check:
    """A check under the threshold of its name's last part."""
    return Check(name, residual, THRESHOLD[name.rsplit(".", 1)[-1]])


def family_report(residuals: dict) -> ValidationReport:
    """One point's family residuals as a report."""
    return ValidationReport(tuple(check(k, r) for k, r in residuals.items()))


class _Worst:
    """The worst residual seen under each check name a battery declares (a name derived after the
    last run is added undeclared).  A residual may be one number or an array, one per batch entry;
    NaN counts as infinity."""

    def __init__(self, battery: str, names: Iterable[str]):
        self.battery = battery
        self.names = tuple(names)
        self.residuals: dict[str, float] = {}

    def add(self, name: str, residual) -> None:
        r = abs(residual) if isinstance(residual, float) else float(np.max(np.abs(residual)))
        self.residuals[name] = max(self.residuals.get(name, 0.0), r if r == r else math.inf)

    def update(self, residuals: dict) -> None:
        for name, r in residuals.items():
            self.add(name, r)

    @contextlib.contextmanager
    def guard(self, prefix: str = ""):
        """On a geometry error in the block, infinity under every declared name starting with prefix."""
        try:
            yield
        except EXPECTED:
            for name in self.names:
                if name.startswith(prefix):
                    self.add(name, math.inf)

    def decided(self, prefix: str = "") -> bool:
        """Every declared name starting with prefix holds infinity, so no later residual can change them."""
        return all(self.residuals.get(name) == math.inf for name in self.names if name.startswith(prefix))

    def checks(self) -> list[Check]:
        return [check(f"{self.battery}.{k}", self.residuals[k]) for k in sorted(self.residuals)]


def _rel(got, want):
    return abs(got - want) / (1.0 + abs(want))


TAG_GROUPS = (f"{F4_F5}.", f"{F11}.")  # the guard groups of the two closed-form classes


def _per_tag(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(group + k for group in TAG_GROUPS for k in names)


def scalar_checks(got: ScalarCurvatures, tau, tau_tilde) -> dict:
    """A contraction's scalar curvatures vs their expected values."""
    return {"tau": _rel(got.tau, tau), "tau_twisted": _rel(got.tau_tilde, tau_tilde)}


def curvature_checks(p, A, sc: HyperScalars, nu, nut) -> tuple[MultilinearForm, ScalarCurvatures, dict]:
    """The Gauss route's curvature R, its contraction and checks: its symmetries and scalar closed forms."""
    R = gauss_induced_R(p, A, sc, nu, nut)
    got = scalar_curvatures(R, p)
    want = closed_form_scalars(A, sc, nu, nut, p)
    return R, got, {"curvature_symmetries": is_curvature_like(R), **scalar_checks(got, want.tau, want.tau_tilde)}


def canonical_checks(p, A, sc: HyperScalars, nu, nut) -> tuple[float, float, dict]:
    """The canonical curvature's closed-form tau and tau~, and checks: both routes
    to it agree, it is Kaehlerian, and its contraction meets the closed forms."""
    R = gauss_induced_R(p, A, sc, nu, nut)
    K1 = canonical_K_from_R(p, R, A, sc)
    K2, tau_K, tau_K_t = canonical_K_model(p, A, sc, nu, nut)
    return tau_K, tau_K_t, {
        "routes_agree": (K1 - K2).max_norm / (1.0 + K2.max_norm),
        "kaehlerian": kaehler_residual(K2, p),
        **scalar_checks(scalar_curvatures(K2, p), tau_K, tau_K_t),
    }


def section_checks(R: MultilinearForm, p, x, k_xi, k_phi_holomorphic, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Closed-form sectional curvatures of the sections (xi, x) and (phi x, phi^2 x) vs R's."""
    px = apply(p.phi, x)
    return {
        "xi_section": _rel(k_xi, sectional_curvature(R, p, p.xi, x, tol)),
        "phi_holomorphic": _rel(k_phi_holomorphic, sectional_curvature(R, p, px, apply(p.phi, px), tol)),
    }


def roundtrip_checks(back: tuple, nu, nut) -> dict:
    """The nu pair (nu, nu~) the solved angles force vs the one solved for."""
    return {"roundtrip_nu": _rel(back[0], nu), "roundtrip_nu_twisted": _rel(back[1], nut)}


def theorem31_checks(p, res: Theorem31Result, th, ths) -> dict:
    """The t-const regime: K = 0, scaled by the angles' size, and the closed-form scalars of its R."""
    return {
        "flat_canonical_curvature": res.K_residual / (1.0 + np.maximum(abs(th), abs(ths)) ** 2),
        **scalar_checks(scalar_curvatures(res.R, p), res.tau, res.tau_tilde),
    }


class _Row:
    """The layout of one trial's row of uniform doubles: the sizes a loop draws, then named fields in
    order, each sized for the largest n, so the width is fixed; a smaller n uses a prefix of a field.
    A field is (name, shape) or (name, shape, low, high) for values in [low, high): `values` maps a
    block of rows to them in place, as `Generator.uniform` maps its draws, and leaves the other slots
    in [0, 1).  The trials are split over the sizes, or drawn in full at each size if every_n."""

    def __init__(self, sizes: Iterable[int], *fields, every_n: bool = False):
        self.sizes, self.every_n = tuple(sizes), every_n
        self.fields: dict[str, tuple[slice, tuple]] = {}
        low, scale, end = [], [], 0
        for name, shape, *bounds in fields:
            shape = shape if isinstance(shape, tuple) else (shape,)
            width = math.prod(shape)
            self.fields[name] = slice(end, end + width), shape
            lo, hi = bounds or (0.0, 1.0)
            low.append(np.full(width, lo))
            scale.append(np.full(width, hi - lo))
            end += width
        self.width = end
        self.low, self.scale = np.concatenate(low), np.concatenate(scale)

    def counts(self, trials: int) -> list[int]:
        """The rows each size draws, in turn: trials at each if every_n, else trials split over the k
        sizes, the first trials % k taking one more."""
        k = len(self.sizes)
        return [trials if self.every_n else trials // k + (i < trials % k) for i in range(k)]

    def values(self, block: np.ndarray) -> np.ndarray:
        block *= self.scale
        block += self.low
        return block

    def slots(self, rows: np.ndarray, name: str) -> np.ndarray:
        """A field of a block of rows, shaped (B, *its shape)."""
        where, shape = self.fields[name]
        return rows[:, where].reshape(len(rows), *shape)


# --- the row layouts and builders: a block of rows of one n to the batch its groups read
T = ("t", (), -1.2, 1.2)
SCALARS = ("scalars", 5, -2.0, 2.0)  # the five derivative scalars
SCALARS_NU = ("scalars", 7, -2.0, 2.0)  # and the nu pair


def _vectors(name: str, n_values, *count: int) -> tuple:
    """A field of count vectors (one if no count is given) of the largest d, in [-1, 1)."""
    return name, (*count, 2 * max(n_values) + 1), -1.0, 1.0


def _point(n_values) -> tuple:
    """A contact point's fields: the congruence block U of the largest d, flat, and the fault entry."""
    m = 2 * max(n_values) + 1
    return ("U", m * m, -1.0, 1.0), ("entry", 2)


def _point_draw(row: _Row, rows: np.ndarray, n: int, fault: float) -> PointDraw:
    """A contact point's draws: the block U from the first d^2 slots of "U", and (if fault) the phi
    entry a fault perturbs, floor(u d) of each of the two "entry" slots.  A layout without U draws
    the standard point, a fault at phi[0, 0]."""
    d = 2 * n + 1
    if "U" not in row.fields:
        return PointDraw(np.zeros((len(rows), d, d)), np.zeros((len(rows), 2), dtype=np.intp) if fault else None)
    U = row.slots(rows, "U")[:, :d * d].reshape(-1, d, d)
    return PointDraw(U, (row.slots(rows, "entry") * d).astype(np.intp) if fault else None)


def _contact(row: _Row, n: int, rows: np.ndarray, fault: float) -> tuple:
    """A block of contact trials as one batch: (point, scalars, nu pair as two (B,) arrays, vectors
    as one (k, B, d) array), None for what the layout lacks."""
    d = 2 * n + 1
    p = contact_point(n, _point_draw(row, rows, n, fault), fault)
    if "t" not in row.fields:
        return p, None, None, None
    scalars = row.slots(rows, "scalars").T
    Omega = row.slots(rows, "Omega")[:, :d] if "Omega" in row.fields else None
    xs = row.slots(rows, "x")[..., :d].swapaxes(0, 1) if "x" in row.fields else None
    return p, hyper_scalars(row.slots(rows, "t"), scalars[:5], Omega, p), scalars[5:], xs


def _ambient(row: _Row, n_prime: int, rows: np.ndarray, fault: float) -> tuple:
    """The standard ambient of the block's size, J[0, 0] perturbed under fault, the totally real
    pairs and the section vectors."""
    amb = ComplexNordenPoint.standard(n_prime)
    if fault:
        J = amb.J.copy()
        J[0, 0] += fault
        amb = ComplexNordenPoint(n_prime, amb.g, J)
    return amb, *totally_real_pairs(row.slots(rows, "pair"), n_prime), row.slots(rows, "v")[:, :2 * n_prime]


SOLVER_BRANCHES = (1, -1)  # the solver's sign epsilon, in the order of a trial's x vectors


def _solver_run(row: _Row, n: int, rows: np.ndarray, fault: float) -> tuple:
    """Both branches of a block as one batch of twice its size, branch +1 first: the point, each
    entry's (eps, nu, nu~, t) and its section vector."""
    draw = PointDraw(*(a if a is None else np.concatenate([a] * len(SOLVER_BRANCHES))
                       for a in _point_draw(row, rows, n, fault)))
    nus = solver_angles(row.slots(rows, "radicand")).tolist()
    entries = [(eps, *trial) for eps in SOLVER_BRANCHES for trial in nus]
    xs = row.slots(rows, "x")[..., :2 * n + 1].swapaxes(0, 1)
    return contact_point(n, draw, fault), entries, xs.reshape(len(entries), 2 * n + 1)


# --- the evaluations: a built run and one guard group to {name: residual}
def _axioms(run, group, tol):
    n_prime, normals = run
    structure = induce(TimelikeNormalFrame(ComplexNordenPoint.standard(n_prime), normals), tol)
    return {"axioms": validate_contact_axioms(structure.point, tol).max_residual,
            "pullback_identities": pi_relations_residual(structure)}


def _kaehlerity(run, group, tol):
    p = run[0]
    return {"pi1_minus_pi2_minus_pi4": kaehler_residual(p.pi_combination(PI_KAEHLER), p),
            "pi3_plus_pi5": kaehler_residual(p.pi_combination(PI_TWISTED), p)}


def _model(run, group, tol):
    amb, x, y, v = run
    nu, nut = 3.0, -1.0
    out = {"ambient_axioms": validate_complex_norden(amb, tol).max_residual}
    R = model_curvature(amb, nu, nut)
    Rt = associated_curvature(R, amb.J)
    out["totally_real_k"] = sectional_curvature_prime(R, amb.g, x, y, tol) - nu
    out["totally_real_k_assoc"] = sectional_curvature_prime(Rt, amb.g, x, y, tol) - nut
    # planes too close to degenerate are skipped before the call, so none can raise
    v = v[np.abs(bilinear(amb.g, v, v) ** 2 + bilinear(amb.gJ, v, v) ** 2) >= 0.05]
    if len(v):
        out["holomorphic_k"] = sectional_curvature_prime(R, amb.g, v, apply(amb.J, v), tol)
    return out


def _calibration(run, group, tol):
    p, sc, (nu, nut), _ = run
    A = shape_from_class(p, "F0", sc, tol)
    R = gauss_induced_R(p, A, sc, nu, nut)
    want = closed_form_scalars(A, sc, nu, nut, p)
    return scalar_checks(scalar_curvatures(R, p), want.tau, want.tau_tilde)


def _induced(run, group, tol):
    p, sc, (nu, nut), xs = run
    x = xs[TAG_GROUPS.index(group)]
    A = shape_from_class(p, group[:-1], sc, tol)
    R, _, residuals = curvature_checks(p, A, sc, nu, nut)
    k_xi = special_sectional(p, A, sc, nu, nut, ContactSectionKind.XI_SECTION, x, tol=tol)
    k_hol = special_sectional(p, A, sc, nu, nut, ContactSectionKind.PHI_HOLOMORPHIC, x, tol=tol)
    return {group + k: r for k, r in {**residuals, **section_checks(R, p, x, k_xi, k_hol, tol)}.items()}


def _totally_real(run, group, tol):
    # totally real sections need pairings to vanish exactly: the standard
    # model itself (identity congruence), its phi[0, 0] perturbed under fault
    p, sc, (nu, nut), _ = run
    x, y = np.zeros((2,) + p.xi.shape)
    x[..., 0], y[..., 1] = 1.0, 1.0
    A = shape_from_class(p, F4_F5, sc, tol)
    R = gauss_induced_R(p, A, sc, nu, nut)
    k_tr = special_sectional(p, A, sc, nu, nut, ContactSectionKind.TOTALLY_REAL, x, y, tol)
    return {"totally_real": _rel(k_tr, sectional_curvature(R, p, x, y, tol))}


def _canonical(run, group, tol):
    p, sc, (nu, nut), _ = run
    *_, residuals = canonical_checks(p, shape_from_class(p, group[:-1], sc, tol), sc, nu, nut)
    return {group + k: r for k, r in residuals.items()}


def _main_class(run, group, tol):
    p, sc, (nu, nut), _ = run
    A = shape_F45(p, sc, tol)
    c, s = sc.cos_t, sc.sin_t
    traces = {"trace_A": trace_endo(A) - (-sc.dt_xi / (2 * c) - sc.theta_xi * c - sc.theta_star_xi * s),
              "trace_A_phi": trace_compose(A, p.phi) - (sc.theta_xi * s - sc.theta_star_xi * c)}
    cur = curvature_F45(p, sc, nu, nut)
    Rg = gauss_induced_R(p, A, sc, nu, nut)
    return {**traces, "R_routes_agree": (cur.R - Rg).max_norm / (1.0 + Rg.max_norm),
            **scalar_checks(scalar_curvatures(cur.R, p), cur.scalars.tau, cur.scalars.tau_tilde)}


def _connection(run, group, tol):
    p, sc, _, _ = run
    return {"difference_tensor": canonical_difference(main_class_form(p, sc), p, tol) - canonical_difference_F45(p, sc)}


def _solver(run, group, tol):
    p, entries, x = run
    th, ths = np.array([solve_theta(a, b, t, SolverBranch(e), p.n, tol) for e, a, b, t in entries]).T
    _, nu, nut, t = np.array(entries).T
    res = theorem31(p, th, ths, t=t, tol=tol)
    return {**roundtrip_checks((res.nu, res.nu_tilde), nu, nut), **theorem31_checks(p, res, th, ths),
            **section_checks(res.R, p, x, res.k_xi(x), res.k_phi_holomorphic, tol)}


def _readings(run, group, tol):
    p, sc, _, _ = run
    nu, nut = nu_from_scalars(p, sc)
    K_ref = K_F45_0(p, sc, curvature_F45(p, sc, nu, nut).R)
    scale = 1.0 + K_ref.max_norm
    out = {f"reading_{r}": (K_cor32(p, sc, nu, nut, reading=r) - K_ref).max_norm / scale for r in COR32_READINGS}
    # the reading comparison is a pure coefficient identity, so it
    # survives a perturbed structure; this one does not
    try:
        out["kaehlerian"] = kaehler_residual(K_ref, p)
    except EXPECTED:
        out["kaehlerian"] = math.inf
    return out


def _one_reading(w: _Worst, reading: str | None) -> None:
    """Whether exactly one reading matches; then only the squared reading and the one asked for stay."""
    matching = [r for r in COR32_READINGS if w.residuals[f"reading_{r}"] <= THRESHOLD[f"reading_{r}"]]
    w.add("exactly_one_reading_matches", 0.0 if len(matching) == 1 else 1.0)
    for r in COR32_READINGS:
        if r not in ("squared", reading):
            del w.residuals[f"reading_{r}"]


# --- the table and its driver

# One stream of a battery's trials: layout(n_values) is the row layout, build(row, n, rows, fault) maps
# a block of rows of one n to the batch its groups read, and evaluate(run, group, tol) that batch to
# {name: residual} for one guard group (the prefix of the names it marks on a geometry error, "" for
# every name).
Loop = namedtuple("Loop", "layout evaluate groups build", defaults=(("",), _contact))

# A battery: its declared check names, its stream key (the sum of the ord() of its name's
# characters), its loops, loop l on the stream PCG64([seed, key, l]), and a step finish(w, reading)
# on the residuals at the end.
Battery = namedtuple("Battery", "names key loops finish", defaults=(None,))


TABLE: dict[str, Battery] = {
    # induced structures satisfy the contact axioms and the pullback identities
    "axiom_induction": Battery(("axioms", "pullback_identities"), 1610, (Loop(
        lambda ns: _Row([n + 1 for n in ns], ("normal", (NORMAL_CANDIDATES, 4 + 2 * max(ns)))), _axioms,
        build=lambda row, n_prime, rows, fault: (
            n_prime, timelike_normals(row.slots(rows, "normal"), n_prime, fault))),)),
    # the two generator combinations every canonical curvature is built from
    "kaehlerity": Battery(("pi1_minus_pi2_minus_pi4", "pi3_plus_pi5"), 1074, (Loop(
        lambda ns: _Row(ns, *_point(ns), every_n=True), _kaehlerity),)),
    # constant-curvature model: section values on special planes
    "model_curvature": Battery(("ambient_axioms", "totally_real_k", "totally_real_k_assoc", "holomorphic_k"), 1617, (
        Loop(lambda ns: _Row([n + 1 for n in ns], ("v", 2 * max(ns) + 2, -1.0, 1.0),
                             ("pair", (PAIR_CANDIDATES, 2 * max(ns) + 2)), every_n=True),
             _model, build=_ambient),)),
    # double contraction of the induced curvature vs the trace closed forms, on the rank-one class
    "scalar_calibration": Battery(("tau", "tau_twisted"), 1885, (Loop(
        lambda ns: _Row(ns, *_point(ns), T, SCALARS_NU), _calibration),)),
    # scalar and special sectional curvatures of the two closed-form classes
    "induced_curvature": Battery(
        (*_per_tag(("tau", "tau_twisted", "curvature_symmetries", "xi_section", "phi_holomorphic")), "totally_real"),
        1820,
        (Loop(lambda ns: _Row(ns, *_point(ns), T, _vectors("Omega", ns), SCALARS_NU, _vectors("x", ns, 2)),
              _induced, TAG_GROUPS),
         Loop(lambda ns: _Row([n for n in ns if n >= 2], T, SCALARS_NU), _totally_real, ("totally_real",))),
    ),
    # the two routes to the canonical curvature and its trace closed forms
    "canonical_curvature": Battery(_per_tag(("routes_agree", "kaehlerian", "tau", "tau_twisted")), 2024, (Loop(
        lambda ns: _Row(ns, *_point(ns), T, _vectors("Omega", ns), SCALARS_NU), _canonical, TAG_GROUPS),)),
    # main-class closed forms vs the generic induced-curvature route
    "main_class": Battery(("trace_A", "trace_A_phi", "R_routes_agree", "tau", "tau_twisted"), 1050, (Loop(
        lambda ns: _Row(ns, *_point(ns), T, SCALARS_NU), _main_class),)),
    # difference tensor: generic reconstruction vs the main-class display
    "canonical_connection": Battery(("difference_tensor",), 2103, (Loop(
        lambda ns: _Row(ns, *_point(ns), T, SCALARS, every_n=True), _connection),)),
    # round trip of the angle solver and the flat-regime closed forms
    "solver_theorem": Battery(
        ("roundtrip_nu", "roundtrip_nu_twisted", "flat_canonical_curvature", "tau", "tau_twisted", "xi_section",
         "phi_holomorphic"),
        1518,
        (Loop(lambda ns: _Row(ns, *_point(ns), _vectors("x", ns, len(SOLVER_BRANCHES)),
                              ("radicand", (RADICAND_CANDIDATES, 3))),
              _solver, build=_solver_run),),
    ),
    # exactly one coefficient reading of the expanded canonical curvature is consistent with the
    # compositional route; the report records which
    "expanded_coefficients": Battery(
        ("kaehlerian", *(f"reading_{r}" for r in COR32_READINGS)), 2202,
        (Loop(lambda ns: _Row(ns, *_point(ns), T, SCALARS), _readings),), finish=_one_reading,
    ),
}


def _stream(seed: int, key: int, l: int, row: _Row, trials: int):
    """Loop l's blocks (n, rows) in draw order: its generator PCG64([seed, key, l]) draws the rows of
    each size in turn (`_Row.counts`), CHUNK rows per call."""
    gen = np.random.Generator(np.random.PCG64([seed, key, l]))
    for n, count in zip(row.sizes, row.counts(trials)):
        for start in range(0, count, CHUNK):
            yield n, row.values(gen.random((min(CHUNK, count - start), row.width)))


def _drive(name: str, seed: int, trials: int, n_values: Iterable[int], fault: float = 0.0,
           reading: str | None = None, tol: Tolerance = DEFAULT_TOL) -> list[Check]:
    """Runs the battery TABLE[name]: each block of each loop's stream is built as one run and each
    undecided group evaluated under its guard, until all the loop's groups are decided; then the
    finishing step."""
    battery, n_values = TABLE[name], tuple(n_values)
    w = _Worst(name, battery.names)
    for l, loop in enumerate(battery.loops):
        row = loop.layout(n_values)
        for n, rows in _stream(seed, battery.key, l, row, trials):
            run = loop.build(row, n, rows, fault)
            for group in loop.groups:
                if not w.decided(group):
                    with w.guard(group):
                        w.update(loop.evaluate(run, group, tol))
            if all(w.decided(group) for group in loop.groups):
                break
    if battery.finish:
        battery.finish(w, reading)
    return w.checks()


BATTERIES: dict[str, Callable[..., list[Check]]] = {name: functools.partial(_drive, name) for name in TABLE}


def _integer(value) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def run_suite(
    seed: int,
    trials: int,
    n_values: Iterable[int] = (1, 2, 3),
    fault: float = 0.0,
    cor32_reading: str | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> ValidationReport:
    """Run every battery from one seed; identical inputs give identical reports."""
    if not (_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not (_integer(trials) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if isinstance(fault, bool) or not isinstance(fault, numbers.Real) or not math.isfinite(fault):
        raise ValueError(f"fault must be a finite number, got {fault!r}")
    if not (isinstance(n_values, Iterable) and (n_values := tuple(n_values))
            and all(_integer(n) and 1 <= n <= MAX_N for n in n_values)):
        raise ValueError(f"n_values must be integers in 1..{MAX_N}, got {n_values}")
    if cor32_reading is not None and cor32_reading not in COR32_READINGS:
        raise ValueError(f"cor32_reading must be one of {COR32_READINGS}, got {cor32_reading!r}")
    checks: list[Check] = []
    for battery in BATTERIES.values():
        checks.extend(battery(seed, trials, n_values, fault=fault, reading=cor32_reading, tol=tol))
    return ValidationReport(tuple(checks))
