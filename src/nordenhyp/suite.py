"""Seeded property batteries: every cross-module invariant as a named check.

Each battery draws its own data from the generator, evaluates one family of
invariants over `trials` datasets and reports the worst residual per check
name, so reports stay small and byte-identical for a fixed seed.  A nonzero
`fault` perturbs one structure tensor per dataset by that amount; the
negative-control contract is that every battery then fails at least one
check.  Geometry errors raised mid-check (degenerate metrics, non-tangent
tensors) count as infinite residuals, under every check name the battery
or tag group declares, rather than aborting the run; any other exception
is a bug and propagates.

Every battery reads trial j from row j of its own stream of uniform doubles:
the battery's generator cut into rows of a fixed width w (`_Row`), drawn
`CHUNK` rows per generator call (`_blocks`).  A row holds, in order, the size
draw, the congruence block U, the fault entry, t, Omega, the scalars and the
section vectors, then a fixed number of candidate slots for each rejection
sampler, which takes its first acceptable candidate (`sampling`); each field
is sized for the largest n, and a smaller n uses a prefix of it.  The fault
entry's slots are there at any fault, so a faulted run perturbs the very
points a clean run of the same seed draws.  PCG64 turns
one output into one double, so row j does not depend on CHUNK or on where a
run ends, and a fresh generator advanced by j w draws it first.  A block's
rows of one n are decoded together and join that n's buffer (`_trials`);
each size n's trials are evaluated in consecutive runs of `CHUNK` (the last
one shorter) as one batch through the layers' leading batch axis, and a run
that raises counts for all its trials.  A run is evaluated as soon as it is
full (`_runs`), so one block and at most one partial run per n are held and
memory stays flat in `trials`.  Evaluation draws nothing, and the worst
residual does not depend on the order of the runs, so the report is that of
drawing every trial first.

A battery stops once its report is decided: when every name it declares
already holds infinity, no later run can change a byte of the report, so
it pulls no further run and draws no further block.  Each battery draws
from its own generator, and `induced_curvature`'s totally real loop from a
stream of its own (`jumped()`), so stopping one loop leaves every other
loop's inputs unchanged.  A clean run decides no battery and evaluates every
trial.  Under fault, the first run still goes through every battery's error
path, but a non-geometry exception that a skipped run would have raised is
not raised.

Each identity has one check family, shared with the CLI kinds: a function
from one point's (or one batch's) inputs to `{name: residual}`.
`scalar_checks` (tau, tau_twisted) serves `curvature_checks` (the Gauss
route), `canonical_checks` (both canonical routes) and `theorem31_checks`
(the t-const regime); `section_checks` compares special sectional
curvatures and `roundtrip_checks` the solver's nu pair.  `THRESHOLD` holds
every check's threshold, keyed by the last part of its name.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable

import numpy as np

from .complex_norden import (
    AmbientModel,
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
    MainClassData,
    NuPair,
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
from .multilinear import DEFAULT_TOL, MultilinearForm, Tolerance, apply, bilinear, trace_compose, trace_endo
from .report import Check, ValidationReport
from .sampling import (
    NORMAL_CANDIDATES,
    PAIR_CANDIDATES,
    RADICAND_CANDIDATES,
    PointDraw,
    contact_point,
    hyper_scalars,
    rng,
    solver_angles,
    timelike_normals,
    totally_real_pairs,
)

# What a battery's except clause catches: a geometry error is a verdict, anything else a bug.
EXPECTED = (GeometryError, np.linalg.LinAlgError)

# The most trials evaluated as one batch: a batch holds (trials, d^4) forms, so
# larger groups are split into runs of this size.
CHUNK = 64


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
    """Accumulates the worst residual seen under each declared check name.

    A battery declares up front the names its runs report; a name derived
    after the last run is added undeclared.  A residual may be one number or
    an array, one per batch entry; NaN counts as infinity.  Once every
    declared name holds infinity the battery is decided (`decided`), and
    `until_decided` stops its stream of runs.
    """

    def __init__(self, battery: str, names: Iterable[str]):
        self.battery = battery
        self.names = tuple(names)
        self.residuals: dict[str, float] = {}

    def add(self, name: str, residual) -> None:
        r = abs(residual) if isinstance(residual, float) else float(np.max(np.abs(residual)))
        self.residuals[name] = max(self.residuals.get(name, 0.0), r if r == r else math.inf)

    def update(self, residuals: dict, prefix: str = "") -> None:
        """Adds a family's residuals, each name after prefix."""
        for name, r in residuals.items():
            self.add(prefix + name, r)

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

    def until_decided(self, runs: Iterable, *prefixes: str):
        """The runs, each pulled after the last one is evaluated, up to the one that decides every
        prefix (every declared name if none is given)."""
        for run in runs:
            yield run
            if all(self.decided(prefix) for prefix in prefixes or ("",)):
                return

    def checks(self) -> list[Check]:
        return [check(f"{self.battery}.{k}", self.residuals[k]) for k in sorted(self.residuals)]


def _rel(got, want):
    return abs(got - want) / (1.0 + abs(want))


def _per_tag(names: Iterable[str]) -> list[str]:
    return [f"{tag}.{k}" for tag in (F4_F5, F11) for k in names]


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
    K1 = canonical_K_from_R(p, R, A, sc.t)
    K2, tau_K, tau_K_t = canonical_K_model(p, A, sc, nu, nut)
    return tau_K, tau_K_t, {
        "routes_agree": (K1 - K2).max_norm / (1.0 + K2.max_norm),
        "kaehlerian": kaehler_residual(K2, p),
        **scalar_checks(scalar_curvatures(K2, p), tau_K, tau_K_t),
    }


def section_checks(R: MultilinearForm, p, x, k_xi, k_phi_holomorphic) -> dict:
    """Closed-form sectional curvatures of the sections (xi, x) and (phi x, phi^2 x) vs R's."""
    px = apply(p.phi, x)
    return {
        "xi_section": _rel(k_xi, sectional_curvature(R, p, p.xi, x)),
        "phi_holomorphic": _rel(k_phi_holomorphic, sectional_curvature(R, p, px, apply(p.phi, px))),
    }


def roundtrip_checks(back: NuPair, nu, nut) -> dict:
    """The nu pair the solved angles force vs the one solved for."""
    return {"roundtrip_nu": _rel(back.nu, nu), "roundtrip_nu_twisted": _rel(back.nu_tilde, nut)}


def theorem31_checks(p, res: Theorem31Result, th, ths) -> dict:
    """The t-const regime: K = 0, scaled by the angles' size, and the closed-form scalars of its R."""
    return {
        "flat_canonical_curvature": res.K_residual / (1.0 + np.maximum(abs(th), abs(ths)) ** 2),
        **scalar_checks(scalar_curvatures(res.R, p), res.tau, res.tau_tilde),
    }


class _Row:
    """The layout of one trial's row of uniform doubles: named fields in order, each sized for
    the largest n of the battery, so its width is fixed; a smaller n uses a prefix of a field.
    A field is a width, or (width, low, high) for values in [low, high): `values` maps a block
    of rows to them in place, as `Generator.uniform` maps its draws, and leaves the other
    slots in [0, 1)."""

    def __init__(self, **fields):
        widths, low, high = zip(*(f if isinstance(f, tuple) else (f, 0.0, 1.0) for f in fields.values()))
        ends = np.cumsum(widths).tolist()
        self.fields = {name: slice(end - width, end) for name, width, end in zip(fields, widths, ends)}
        self.width = ends[-1]
        self.low, self.scale = np.repeat(low, widths), np.repeat(np.subtract(high, low), widths)

    def values(self, block: np.ndarray) -> np.ndarray:
        block *= self.scale
        block += self.low
        return block

    def slots(self, rows: np.ndarray, name: str) -> np.ndarray:
        return rows[:, self.fields[name]]

    def candidates(self, rows: np.ndarray, name: str, count: int) -> np.ndarray:
        """A field of count candidate slots as (B, count, slots per candidate)."""
        return self.slots(rows, name).reshape(len(rows), count, -1)


def _blocks(gen: np.random.Generator, count: int, width: int):
    """count rows of width uniform doubles as (index of the first row, block), CHUNK rows per
    generator call.  PCG64 turns one output into one double, in order, so row j holds doubles
    j*width to (j + 1)*width - 1 of the stream whatever the block it falls in, and a fresh
    generator advanced by j*width draws it first."""
    for start in range(0, count, CHUNK):
        yield start, gen.random((min(CHUNK, count - start), width))


def _runs(pieces: Iterable[tuple]):
    """Pieces (n, *columns) in draw order, grouped by n into runs of at most CHUNK trials.

    A piece joins n's buffer, and a run is yielded as (n, columns) once the buffer holds CHUNK
    trials, then the partial buffers at the end, in first-seen order; so the runs are each n's
    trials in consecutive slices of CHUNK, and one buffer per n is held.  A column holds a
    field's values over the trials along a leading axis (None for a field that is None, never
    the first).
    """
    buffers: dict[int, list] = {}

    def cut(columns, start, stop=None):
        return [None if c is None else c[start:stop] for c in columns]

    for n, *columns in pieces:
        if buffers.get(n):
            columns = [None if c is None else np.concatenate([h, c]) for h, c in zip(buffers[n], columns)]
        if len(columns[0]) >= CHUNK:
            yield n, cut(columns, 0, CHUNK)
            columns = cut(columns, CHUNK)
        buffers[n] = columns if len(columns[0]) else None
    for n, columns in buffers.items():
        if columns:
            yield n, columns


def _trials(gen: np.random.Generator, count: int, row: _Row, values, decode: Callable, cyclic: bool = False):
    """Runs (n, columns) of count trials, trial j being row j of the stream (`_blocks`).  A row's n
    is values[floor(u len(values))] of its "size" slot, or values in turn over the row index if
    cyclic; a block's rows of one n are decoded together, decode(n, rows) giving a column per field."""
    values = tuple(values)

    def pieces():
        for start, block in _blocks(gen, count, row.width):
            rows = row.values(block)
            if cyclic:
                index = (start + np.arange(len(rows))) % len(values)
            else:
                index = (row.slots(rows, "size")[:, 0] * len(values)).astype(np.intp)
            for k, n in enumerate(values):
                mine = index == k
                if mine.any():
                    yield (n, *decode(n, rows[mine]))

    return _runs(pieces())


def _point_fields(row: _Row, rows: np.ndarray, n: int, fault: float) -> tuple:
    """A contact point's draws: the block U from the first d^2 slots of "U", and (if fault) the
    phi entry a fault perturbs, floor(u d) of each of the two "entry" slots."""
    d = 2 * n + 1
    U = row.slots(rows, "U")[:, :d * d].reshape(-1, d, d)
    return U, (row.slots(rows, "entry") * d).astype(np.intp) if fault else None


def _contact_draws(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float, every_n: bool = False,
    omega: bool = False, nu: bool = False, vectors: int = 0, standard: bool = False, point_only: bool = False,
):
    """Runs (n, columns) of contact trials of an n drawn from n_values (or each in turn if every_n,
    a row per n).  A row holds the size draw (not if every_n), U and the fault entry (not if
    standard: the standard point, fault at phi[0, 0]), then, unless point_only, t, Omega (if omega),
    the five derivative scalars and the nu pair (if nu), and `vectors` section vectors."""
    n_values = tuple(n_values)
    m = 2 * max(n_values) + 1
    drawn, rest = (0 if standard else 1), (0 if point_only else 1)
    row = _Row(size=0 if every_n else 1, U=(drawn * m * m, -1.0, 1.0), entry=drawn * 2, t=(rest, -1.2, 1.2),
               Omega=(rest * m if omega else 0, -1.0, 1.0), scalars=(rest * (7 if nu else 5), -2.0, 2.0),
               x=(rest * vectors * m, -1.0, 1.0))

    def decode(n, rows):
        d, b = 2 * n + 1, len(rows)
        if standard:
            point = np.zeros((b, d, d)), np.zeros((b, 2), dtype=np.intp) if fault else None
        else:
            point = _point_fields(row, rows, n, fault)
        if point_only:
            return (*point, None, None, None, None)
        return (
            *point,
            row.slots(rows, "t")[:, 0],
            row.slots(rows, "Omega")[:, :d] if omega else None,
            row.slots(rows, "scalars"),
            row.candidates(rows, "x", vectors)[..., :d] if vectors else None,
        )

    return _trials(gen, trials * len(n_values) if every_n else trials, row, n_values, decode, cyclic=every_n)


def _contact_runs(gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float, **draws):
    """The runs of `_contact_draws`, each built as one batch: (point, scalars, nu pair, vectors), the
    nu pair as two (B,) arrays (none if not drawn) and the vectors as one (k, B, d) array."""
    for n, (U, entry, t, Omega, scalars, xs) in _contact_draws(gen, trials, n_values, fault, **draws):
        p = contact_point(n, PointDraw(U, entry), fault)
        scalars = scalars.T
        yield p, hyper_scalars(t, scalars[:5], Omega, p), scalars[5:], None if xs is None else xs.swapaxes(0, 1)


def battery_axiom_induction(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Induced structures satisfy the contact axioms and the pullback identities."""
    w = _Worst("axiom_induction", ["axioms", "pullback_identities"])
    sizes = [n + 1 for n in n_values]
    row = _Row(size=1, normal=NORMAL_CANDIDATES * (2 + 2 * max(sizes)))

    def decode(n_prime, rows):
        return (timelike_normals(row.candidates(rows, "normal", NORMAL_CANDIDATES), n_prime, fault),)

    for n_prime, (normals,) in w.until_decided(_trials(gen, trials, row, sizes, decode)):
        with w.guard():
            structure = induce(TimelikeNormalFrame(ComplexNordenPoint.standard(n_prime), normals))
            w.add("axioms", validate_contact_axioms(structure.point).max_residual)
            w.add("pullback_identities", pi_relations_residual(structure))
    return w.checks()


def battery_kaehlerity(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """The two generator combinations every canonical curvature is built from."""
    w = _Worst("kaehlerity", ["pi1_minus_pi2_minus_pi4", "pi3_plus_pi5"])
    points = _contact_draws(gen, trials, n_values, fault, every_n=True, point_only=True)
    for n, (U, entry, *_) in w.until_decided(points):
        p = contact_point(n, PointDraw(U, entry), fault)
        w.add("pi1_minus_pi2_minus_pi4", kaehler_residual(p.pi_combination(PI_KAEHLER), p))
        w.add("pi3_plus_pi5", kaehler_residual(p.pi_combination(PI_TWISTED), p))
    return w.checks()


def battery_model_curvature(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Constant-curvature model: section values on special planes."""
    w = _Worst("model_curvature", ["ambient_axioms", "totally_real_k", "totally_real_k_assoc", "holomorphic_k"])
    nu, nut = 3.0, -1.0
    sizes = [n + 1 for n in n_values]
    m = 2 * max(sizes)
    row = _Row(v=(m, -1.0, 1.0), pair=PAIR_CANDIDATES * m)  # a row per size in turn

    def decode(n_prime, rows):
        x, y = totally_real_pairs(row.candidates(rows, "pair", PAIR_CANDIDATES), n_prime)
        return x, y, row.slots(rows, "v")[:, :2 * n_prime]

    for n_prime, (x, y, v) in w.until_decided(_trials(gen, trials * len(sizes), row, sizes, decode, cyclic=True)):
        with w.guard():
            amb = ComplexNordenPoint.standard(n_prime)
            if fault:
                J = amb.J.copy()
                J[0, 0] += fault
                amb = ComplexNordenPoint(n_prime, amb.g, J)
            w.add("ambient_axioms", validate_complex_norden(amb).max_residual)
            R = model_curvature(AmbientModel(point=amb, nu_prime=nu, nu_tilde_prime=nut))
            Rt = associated_curvature(R, amb.J)
            w.add("totally_real_k", sectional_curvature_prime(R, amb.g, x, y) - nu)
            w.add("totally_real_k_assoc", sectional_curvature_prime(Rt, amb.g, x, y) - nut)
            # planes too close to degenerate are skipped before the call, so none can raise
            v = v[np.abs(bilinear(amb.g, v, v) ** 2 + bilinear(amb.gJ, v, v) ** 2) >= 0.05]
            if len(v):
                w.add("holomorphic_k", sectional_curvature_prime(R, amb.g, v, apply(amb.J, v)))
    return w.checks()


def battery_scalar_calibration(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Double contraction of the induced curvature vs the trace closed forms,
    on the class with the rank-one shape operator."""
    w = _Worst("scalar_calibration", ["tau", "tau_twisted"])
    for p, sc, (nu, nut), _ in w.until_decided(_contact_runs(gen, trials, n_values, fault, nu=True)):
        with w.guard():
            A = shape_from_class(p, "F0", sc)
            R = gauss_induced_R(p, A, sc, nu, nut)
            want = closed_form_scalars(A, sc, nu, nut, p)
            w.update(scalar_checks(scalar_curvatures(R, p), want.tau, want.tau_tilde))
    return w.checks()


def battery_induced_curvature(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Scalar and special sectional curvatures of the two closed-form classes."""
    names = ("tau", "tau_twisted", "curvature_symmetries", "xi_section", "phi_holomorphic")
    w = _Worst("induced_curvature", [*_per_tag(names), "totally_real"])
    tags = (F4_F5, F11)
    # the totally real loop draws from its own stream, so this one stops once both tag groups are decided
    wide_gen = np.random.Generator(gen.bit_generator.jumped())
    draws = _contact_runs(gen, trials, n_values, fault, omega=True, nu=True, vectors=2)
    for p, sc, (nu, nut), xs in w.until_decided(draws, *(f"{tag}." for tag in tags)):
        for tag, x in zip(tags, xs):
            if w.decided(f"{tag}."):
                continue
            with w.guard(f"{tag}."):
                A = shape_from_class(p, tag, sc)
                R, _, residuals = curvature_checks(p, A, sc, nu, nut)
                w.update(residuals, f"{tag}.")
                k_xi = special_sectional(p, A, sc, nu, nut, ContactSectionKind.XI_SECTION, x)
                k_hol = special_sectional(p, A, sc, nu, nut, ContactSectionKind.PHI_HOLOMORPHIC, x)
                w.update(section_checks(R, p, x, k_xi, k_hol), f"{tag}.")
    # totally real sections need pairings to vanish exactly: the standard
    # model itself (identity congruence), its phi[0, 0] perturbed under fault
    wide = [n for n in n_values if n >= 2]
    draws = _contact_runs(wide_gen, trials, wide, fault, nu=True, standard=True) if wide else ()
    for p, sc, (nu, nut), _ in w.until_decided(draws, "totally_real"):
        x, y = np.zeros((2,) + p.xi.shape)
        x[..., 0], y[..., 1] = 1.0, 1.0
        with w.guard("totally_real"):
            A = shape_from_class(p, F4_F5, sc)
            R = gauss_induced_R(p, A, sc, nu, nut)
            k_tr = special_sectional(p, A, sc, nu, nut, ContactSectionKind.TOTALLY_REAL, x, y)
            w.add("totally_real", _rel(k_tr, sectional_curvature(R, p, x, y)))
    return w.checks()


def battery_canonical_curvature(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """The two routes to the canonical curvature and its trace closed forms."""
    w = _Worst("canonical_curvature", _per_tag(["routes_agree", "kaehlerian", "tau", "tau_twisted"]))
    for p, sc, (nu, nut), _ in w.until_decided(_contact_runs(gen, trials, n_values, fault, omega=True, nu=True)):
        for tag in (F4_F5, F11):
            with w.guard(f"{tag}."):
                *_, residuals = canonical_checks(p, shape_from_class(p, tag, sc), sc, nu, nut)
                w.update(residuals, f"{tag}.")
    return w.checks()


def battery_main_class(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Main-class closed forms vs the generic induced-curvature route."""
    w = _Worst("main_class", ["trace_A", "trace_A_phi", "R_routes_agree", "tau", "tau_twisted"])
    for p, sc, (nu, nut), _ in w.until_decided(_contact_runs(gen, trials, n_values, fault, nu=True)):
        with w.guard():
            d = MainClassData(point=p, scalars=sc)
            A = shape_F45(d)
            c, s = sc.cos_t, sc.sin_t
            w.add("trace_A", trace_endo(A) - (-sc.dt_xi / (2 * c) - sc.theta_xi * c - sc.theta_star_xi * s))
            w.add("trace_A_phi", trace_compose(A, p.phi) - (sc.theta_xi * s - sc.theta_star_xi * c))
            cur = curvature_F45(d, NuPair(nu, nut))
            Rg = gauss_induced_R(p, A, sc, nu, nut)
            w.add("R_routes_agree", (cur.R - Rg).max_norm / (1.0 + Rg.max_norm))
            w.update(scalar_checks(scalar_curvatures(cur.R, p), cur.scalars.tau, cur.scalars.tau_tilde))
    return w.checks()


def battery_canonical_connection(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Difference tensor: generic reconstruction vs the main-class display."""
    w = _Worst("canonical_connection", ["difference_tensor"])
    for p, sc, *_ in w.until_decided(_contact_runs(gen, trials, n_values, fault, every_n=True)):
        with w.guard():
            d = MainClassData(point=p, scalars=sc)
            w.add("difference_tensor", canonical_difference(main_class_form(d), p) - canonical_difference_F45(d))
    return w.checks()


SOLVER_BRANCHES = (1, -1)  # the solver's sign epsilon, in the order of a trial's x vectors


def battery_solver_theorem(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Round trip of the angle solver and the flat-regime closed forms.

    Both branches of a group run as one batch of twice its size, branch +1 first.
    """
    w = _Worst("solver_theorem", ["roundtrip_nu", "roundtrip_nu_twisted", "flat_canonical_curvature", "tau",
                                  "tau_twisted", "xi_section", "phi_holomorphic"])
    m = 2 * max(n_values) + 1
    row = _Row(size=1, U=(m * m, -1.0, 1.0), entry=2, x=(len(SOLVER_BRANCHES) * m, -1.0, 1.0),
               radicand=RADICAND_CANDIDATES * 3)

    def decode(n, rows):
        nus = solver_angles(row.candidates(rows, "radicand", RADICAND_CANDIDATES))
        xs = row.candidates(rows, "x", len(SOLVER_BRANCHES))[..., :2 * n + 1]
        return (*_point_fields(row, rows, n, fault), nus, xs)

    for n, (U, entry, nus, xs) in w.until_decided(_trials(gen, trials, row, n_values, decode)):
        runs = [(eps, *trial) for eps in SOLVER_BRANCHES for trial in nus.tolist()]  # (eps, nu, nu~, t) per entry
        x = xs.swapaxes(0, 1).reshape(len(runs), 2 * n + 1)
        with w.guard():
            draw = PointDraw(*(a if a is None else np.concatenate([a] * len(SOLVER_BRANCHES)) for a in (U, entry)))
            p = contact_point(n, draw, fault)
            th, ths = np.array([solve_theta(NuPair(a, b), t, SolverBranch(e), n) for e, a, b, t in runs]).T
            _, nu, nut, t = np.array(runs).T
            res = theorem31(p, th, ths, t=t)
            w.update(roundtrip_checks(res.nupair, nu, nut))
            w.update(theorem31_checks(p, res, th, ths))
            w.update(section_checks(res.R, p, x, res.k_xi(x), res.k_phi_holomorphic))
    return w.checks()


def battery_expanded_coefficients(
    gen: np.random.Generator,
    trials: int,
    n_values: Iterable[int],
    fault: float = 0.0,
    reading: str | None = None,
) -> list[Check]:
    """Exactly one coefficient reading of the expanded canonical curvature is
    consistent with the compositional route; the report records which."""
    readings = {r: f"reading_{r}" for r in COR32_READINGS}
    w = _Worst("expanded_coefficients", ["kaehlerian", *readings.values()])
    for p, sc, *_ in w.until_decided(_contact_runs(gen, trials, n_values, fault)):
        d = MainClassData(point=p, scalars=sc)
        with w.guard():
            nupair = nu_from_scalars(d)
            K_ref = K_F45_0(d, curvature_F45(d, nupair).R)
            scale = 1.0 + K_ref.max_norm
            for r, name in readings.items():
                w.add(name, (K_cor32(d, nupair, reading=r) - K_ref).max_norm / scale)
            # the reading comparison is a pure coefficient identity, so it
            # survives a perturbed structure; this one does not
            with w.guard("kaehlerian"):
                w.add("kaehlerian", kaehler_residual(K_ref, d.point))
    matching = [r for r, name in readings.items() if w.residuals[name] <= THRESHOLD[name]]
    w.add("exactly_one_reading_matches", 0.0 if len(matching) == 1 else 1.0)
    for r in COR32_READINGS:
        if r not in ("squared", reading):  # only the squared reading and the one asked for are reported
            del w.residuals[readings[r]]
    return w.checks()


BATTERIES: dict[str, Callable[..., list[Check]]] = {
    "axiom_induction": battery_axiom_induction,
    "kaehlerity": battery_kaehlerity,
    "model_curvature": battery_model_curvature,
    "scalar_calibration": battery_scalar_calibration,
    "induced_curvature": battery_induced_curvature,
    "canonical_curvature": battery_canonical_curvature,
    "main_class": battery_main_class,
    "canonical_connection": battery_canonical_connection,
    "solver_theorem": battery_solver_theorem,
    "expanded_coefficients": battery_expanded_coefficients,
}


def run_suite(
    seed: int,
    trials: int,
    n_values: Iterable[int] = (1, 2, 3),
    fault: float = 0.0,
    cor32_reading: str | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> ValidationReport:
    """Run every battery from one seed; identical inputs give identical reports."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_values = tuple(n_values)
    if not n_values or min(n_values) < 1:
        raise ValueError(f"n values must be >= 1, got {n_values}")
    if cor32_reading is not None and cor32_reading not in COR32_READINGS:
        raise ValueError(f"cor32_reading must be one of {COR32_READINGS}, got {cor32_reading!r}")
    checks: list[Check] = []
    for name, battery in BATTERIES.items():
        gen = rng(seed + sum(ord(c) for c in name))
        if name == "expanded_coefficients":
            checks.extend(battery(gen, trials, n_values, fault=fault, reading=cor32_reading))
        else:
            checks.extend(battery(gen, trials, n_values, fault=fault))
    return ValidationReport(tuple(checks))
