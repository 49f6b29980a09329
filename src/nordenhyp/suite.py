"""Seeded property batteries: every cross-module invariant as a named check.

Each battery draws its own data from the generator, evaluates one family of
invariants over `trials` datasets and reports the worst residual per check
name, so reports stay small and byte-identical for a fixed seed.  A nonzero
`fault` perturbs one structure tensor per dataset by that amount; the
negative-control contract is that every battery then fails at least one
check.  Exceptions raised mid-check (degenerate metrics, non-tangent
tensors) count as infinite residuals rather than aborting the run.
"""
from __future__ import annotations

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
    ContactNordenPoint,
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
from .hypersurface import (
    HyperScalars,
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
    curvature_F45,
    canonical_difference_F45,
    main_class_form,
    nu_from_scalars,
    shape_F45,
    solve_theta,
    theorem31,
)
from .multilinear import DEFAULT_TOL, Tolerance
from .report import Check, ValidationReport
from .sampling import (
    random_contact_point,
    random_hyper_scalars,
    random_main_class_data,
    random_nu_pair,
    random_timelike_frame,
    random_totally_real_pair,
    rng,
)


class _Worst:
    """Accumulates the worst residual seen under each check name."""

    def __init__(self, battery: str):
        self.battery = battery
        self.residuals: dict[str, float] = {}
        self.thresholds: dict[str, float] = {}

    def add(self, name: str, residual: float, threshold: float) -> None:
        key = f"{self.battery}.{name}"
        if not math.isfinite(residual):
            residual = float("inf")
        self.residuals[key] = max(self.residuals.get(key, 0.0), abs(residual))
        self.thresholds[key] = threshold

    def guarded(self, name: str, threshold: float, fn: Callable[[], float]) -> None:
        try:
            self.add(name, fn(), threshold)
        except Exception:
            self.add(name, float("inf"), threshold)

    def checks(self) -> list[Check]:
        return [Check(k, self.residuals[k], self.thresholds[k]) for k in sorted(self.residuals)]


def _rel(got: float, want: float) -> float:
    return abs(got - want) / (1.0 + abs(want))


def battery_axiom_induction(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Induced structures satisfy the contact axioms and the pullback identities."""
    w = _Worst("axiom_induction")
    ambient_sizes = [n + 1 for n in n_values]
    for _ in range(trials):
        n_prime = int(gen.choice(ambient_sizes))
        try:
            frame = random_timelike_frame(gen, n_prime, fault=fault)
            structure = induce(frame)
            w.add("axioms", validate_contact_axioms(structure.point).max_residual, 1e-9)
            w.add("pullback_identities", pi_relations_residual(structure), 1e-9)
        except Exception:
            w.add("axioms", float("inf"), 1e-9)
            w.add("pullback_identities", float("inf"), 1e-9)
    return w.checks()


def battery_kaehlerity(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """The two generator combinations every canonical curvature is built from."""
    w = _Worst("kaehlerity")
    for _ in range(trials):
        for n in n_values:
            p = random_contact_point(gen, n, fault=fault)
            w.add("pi1_minus_pi2_minus_pi4", kaehler_residual(p.pi_combination(PI_KAEHLER), p), 1e-10)
            w.add("pi3_plus_pi5", kaehler_residual(p.pi_combination(PI_TWISTED), p), 1e-10)
    return w.checks()


def battery_model_curvature(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Constant-curvature model: section values on special planes."""
    w = _Worst("model_curvature")
    nu, nut = 3.0, -1.0
    for n in n_values:
        n_prime = n + 1
        amb = ComplexNordenPoint.standard(n_prime)
        if fault:
            J = amb.J.copy()
            J[0, 0] += fault
            amb = ComplexNordenPoint(n_prime, amb.g, J)
        w.add("ambient_axioms", validate_complex_norden(amb).max_residual, 1e-9)
        R = model_curvature(AmbientModel(point=amb, nu_prime=nu, nu_tilde_prime=nut))
        Rt = associated_curvature(R, amb.J)
        for _ in range(trials):
            x, y = random_totally_real_pair(gen, n_prime)
            w.guarded(
                "totally_real_k", 1e-9, lambda: abs(sectional_curvature_prime(R, amb.g, x, y) - nu)
            )
            w.guarded(
                "totally_real_k_assoc",
                1e-9,
                lambda: abs(sectional_curvature_prime(Rt, amb.g, x, y) - nut),
            )
            v = gen.uniform(-1.0, 1.0, size=amb.dim)
            if abs((v @ amb.g @ v) ** 2 + (v @ amb.gJ @ v) ** 2) < 0.05:
                continue
            w.guarded(
                "holomorphic_k",
                1e-10,
                lambda: abs(sectional_curvature_prime(R, amb.g, v, amb.J @ v)),
            )
    return w.checks()


def battery_scalar_calibration(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Double contraction of the induced curvature vs the trace closed forms,
    on the class with the rank-one shape operator."""
    w = _Worst("scalar_calibration")
    for _ in range(trials):
        n = int(gen.choice(list(n_values)))
        p = random_contact_point(gen, n, fault=fault)
        sc = random_hyper_scalars(gen, p)
        nu, nut = random_nu_pair(gen)

        def run() -> tuple[float, float]:
            A = shape_from_class(p, "F0", sc)
            R = gauss_induced_R(p, A, sc, nu, nut)
            got = scalar_curvatures(R, p)
            want = closed_form_scalars(A, sc, nu, nut, p)
            return _rel(got.tau, want.tau), _rel(got.tau_tilde, want.tau_tilde)

        try:
            r_tau, r_taut = run()
        except Exception:
            r_tau = r_taut = float("inf")
        w.add("tau", r_tau, 1e-8)
        w.add("tau_twisted", r_taut, 1e-8)
    return w.checks()


def battery_induced_curvature(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Scalar and special sectional curvatures of the two closed-form classes."""
    w = _Worst("induced_curvature")
    for _ in range(trials):
        n = int(gen.choice(list(n_values)))
        p = random_contact_point(gen, n, fault=fault)
        sc = random_hyper_scalars(gen, p, with_omega=True)
        nu, nut = random_nu_pair(gen)
        for tag in (F4_F5, F11):
            try:
                A = shape_from_class(p, tag, sc)
                R = gauss_induced_R(p, A, sc, nu, nut)
                got = scalar_curvatures(R, p)
                want = closed_form_scalars(A, sc, nu, nut, p)
                w.add(f"{tag}.tau", _rel(got.tau, want.tau), 1e-8)
                w.add(f"{tag}.tau_twisted", _rel(got.tau_tilde, want.tau_tilde), 1e-8)
                w.add(f"{tag}.curvature_symmetries", is_curvature_like(R), 1e-9)
                x = gen.uniform(-1.0, 1.0, size=p.dim)
                k_xi = special_sectional(p, A, sc, nu, nut, ContactSectionKind.XI_SECTION, x)
                w.add(
                    f"{tag}.xi_section",
                    _rel(k_xi, sectional_curvature(R, p, p.xi, x)),
                    1e-8,
                )
                k_hol = special_sectional(
                    p, A, sc, nu, nut, ContactSectionKind.PHI_HOLOMORPHIC, x
                )
                px = p.phi @ x
                w.add(
                    f"{tag}.phi_holomorphic",
                    _rel(k_hol, sectional_curvature(R, p, px, p.phi @ px)),
                    1e-8,
                )
            except Exception:
                w.add(f"{tag}.tau", float("inf"), 1e-8)
    # totally real sections need pairings to vanish exactly: standard model
    wide = [n for n in n_values if n >= 2]
    for _ in range(trials if wide else 0):
        n = int(gen.choice(wide))
        p = ContactNordenPoint.standard(n)
        if fault:
            phi = p.phi.copy()
            phi[0, 0] += fault
            p = ContactNordenPoint(n, p.g, phi, p.xi, p.eta)
        sc = random_hyper_scalars(gen, p)
        nu, nut = random_nu_pair(gen)
        x = np.zeros(p.dim)
        y = np.zeros(p.dim)
        x[0], y[1] = 1.0, 1.0
        try:
            A = shape_from_class(p, F4_F5, sc)
            R = gauss_induced_R(p, A, sc, nu, nut)
            k_tr = special_sectional(p, A, sc, nu, nut, ContactSectionKind.TOTALLY_REAL, x, y)
            w.add("totally_real", _rel(k_tr, sectional_curvature(R, p, x, y)), 1e-8)
        except Exception:
            w.add("totally_real", float("inf"), 1e-8)
    return w.checks()


def battery_canonical_curvature(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """The two routes to the canonical curvature and its trace closed forms."""
    w = _Worst("canonical_curvature")
    for _ in range(trials):
        n = int(gen.choice(list(n_values)))
        p = random_contact_point(gen, n, fault=fault)
        sc = random_hyper_scalars(gen, p, with_omega=True)
        nu, nut = random_nu_pair(gen)
        for tag in (F4_F5, F11):
            try:
                A = shape_from_class(p, tag, sc)
                R = gauss_induced_R(p, A, sc, nu, nut)
                K1 = canonical_K_from_R(p, R, A, sc.t)
                K2, tau_K, tau_K_t = canonical_K_model(p, A, sc, nu, nut)
                scale = 1.0 + K2.max_norm
                w.add(f"{tag}.routes_agree", (K1 - K2).max_norm / scale, 1e-8)
                w.add(f"{tag}.kaehlerian", kaehler_residual(K2, p), 1e-9)
                got = scalar_curvatures(K2, p)
                w.add(f"{tag}.tau", _rel(got.tau, tau_K), 1e-8)
                w.add(f"{tag}.tau_twisted", _rel(got.tau_tilde, tau_K_t), 1e-8)
            except Exception:
                w.add(f"{tag}.routes_agree", float("inf"), 1e-8)
    return w.checks()


def battery_main_class(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Main-class closed forms vs the generic induced-curvature route."""
    w = _Worst("main_class")
    for _ in range(trials):
        n = int(gen.choice(list(n_values)))
        d = random_main_class_data(gen, n, fault=fault)
        nu, nut = random_nu_pair(gen)
        try:
            A = shape_F45(d)
            sc = d.scalars
            w.add(
                "trace_A",
                abs(
                    np.trace(A)
                    - (-sc.dt_xi / (2 * sc.cos_t) - sc.theta_xi * sc.cos_t - sc.theta_star_xi * sc.sin_t)
                ),
                1e-10,
            )
            w.add(
                "trace_A_phi",
                abs(np.trace(A @ d.point.phi) - (sc.theta_xi * sc.sin_t - sc.theta_star_xi * sc.cos_t)),
                1e-10,
            )
            cur = curvature_F45(d, NuPair(nu, nut))
            Rg = gauss_induced_R(d.point, A, sc, nu, nut)
            w.add("R_routes_agree", (cur.R - Rg).max_norm / (1.0 + Rg.max_norm), 1e-8)
            got = scalar_curvatures(cur.R, d.point)
            w.add("tau", _rel(got.tau, cur.scalars.tau), 1e-8)
            w.add("tau_twisted", _rel(got.tau_tilde, cur.scalars.tau_tilde), 1e-8)
        except Exception:
            w.add("R_routes_agree", float("inf"), 1e-8)
    return w.checks()


def battery_canonical_connection(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Difference tensor: generic reconstruction vs the main-class display."""
    w = _Worst("canonical_connection")
    for _ in range(trials):
        for n in n_values:
            d = random_main_class_data(gen, n, fault=fault)
            try:
                F = main_class_form(d)
                T1 = canonical_difference(F, d.point)
                T2 = canonical_difference_F45(d)
                w.add("difference_tensor", float(np.max(np.abs(T1 - T2))), 1e-10)
            except Exception:
                w.add("difference_tensor", float("inf"), 1e-10)
    return w.checks()


def battery_solver_theorem(
    gen: np.random.Generator, trials: int, n_values: Iterable[int], fault: float = 0.0
) -> list[Check]:
    """Round trip of the angle solver and the flat-regime closed forms."""
    w = _Worst("solver_theorem")
    done = 0
    while done < trials:
        nu, nut = random_nu_pair(gen)
        t = float(gen.uniform(-1.2, 1.2))
        if nu * math.cos(t) - nut * math.sin(t) + math.hypot(nu, nut) < 0.01:
            continue
        done += 1
        n = int(gen.choice(list(n_values)))
        p = random_contact_point(gen, n, fault=fault)
        for eps in (1, -1):
            try:
                th, ths = solve_theta(NuPair(nu, nut), t, SolverBranch(eps), n)
                data = MainClassData(
                    point=p, scalars=HyperScalars(t=t, theta_xi=th, theta_star_xi=ths)
                )
                back = nu_from_scalars(data)
                w.add("roundtrip_nu", _rel(back.nu, nu), 1e-8)
                w.add("roundtrip_nu_twisted", _rel(back.nu_tilde, nut), 1e-8)
                res = theorem31(p, th, ths, t=t)
                scale = 1.0 + max(abs(th), abs(ths)) ** 2
                w.add("flat_canonical_curvature", res.K_residual / scale, 1e-8)
                got = scalar_curvatures(res.R, p)
                w.add("tau", _rel(got.tau, res.tau), 1e-8)
                w.add("tau_twisted", _rel(got.tau_tilde, res.tau_tilde), 1e-8)
                x = gen.uniform(-1.0, 1.0, size=p.dim)
                w.add(
                    "xi_section",
                    _rel(res.k_xi(x), sectional_curvature(res.R, p, p.xi, x)),
                    1e-8,
                )
                px = p.phi @ x
                w.add(
                    "phi_holomorphic",
                    _rel(
                        res.k_phi_holomorphic,
                        sectional_curvature(res.R, p, px, p.phi @ px),
                    ),
                    1e-8,
                )
            except Exception:
                w.add("roundtrip_nu", float("inf"), 1e-8)
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
    w = _Worst("expanded_coefficients")
    residual = {r: 0.0 for r in COR32_READINGS}
    for _ in range(trials):
        n = int(gen.choice(list(n_values)))
        d = random_main_class_data(gen, n, fault=fault)
        try:
            nupair = nu_from_scalars(d)
            K_ref = K_F45_0(d, curvature_F45(d, nupair).R)
            scale = 1.0 + K_ref.max_norm
            for r in COR32_READINGS:
                residual[r] = max(residual[r], (K_cor32(d, nupair, reading=r) - K_ref).max_norm / scale)
            # the reading comparison is a pure coefficient identity, so it
            # survives a perturbed structure; this one does not
            w.guarded("kaehlerian", 1e-9, lambda: kaehler_residual(K_ref, d.point))
        except Exception:
            for r in COR32_READINGS:
                residual[r] = float("inf")
    matching = [r for r in COR32_READINGS if residual[r] <= 1e-8]
    w.add("exactly_one_reading_matches", 0.0 if len(matching) == 1 else 1.0, 0.5)
    w.add("reading_squared", residual["squared"], 1e-8)
    if reading is not None and reading != "squared":
        w.add(f"reading_{reading}", residual[reading], 1e-8)
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
    checks: list[Check] = []
    for name, battery in BATTERIES.items():
        gen = rng(seed + sum(ord(c) for c in name))
        if name == "expanded_coefficients":
            checks.extend(battery(gen, trials, n_values, fault=fault, reading=cor32_reading))
        else:
            checks.extend(battery(gen, trials, n_values, fault=fault))
    return ValidationReport(tuple(checks))
