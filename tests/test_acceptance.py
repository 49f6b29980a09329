"""Acceptance gate: one numbered criterion per test, one printed verdict line each.

Every criterion is checked at its stated tolerance against independent
oracles (loop-level contractions, generic-route tensors, hand anchors).
A failing criterion reports the worst offending quantity.
"""
import numpy as np
import pytest

from nordenhyp.complex_norden import model_curvature
from nordenhyp.contact_norden import (
    ContactNordenPoint,
    ContactSectionKind,
    F11,
    F4_F5,
    PI_UNITS,
    canonical_difference,
    class_form,
    kaehler_residual,
    pi,
    sectional_curvature,
    validate_contact_axioms,
)
from nordenhyp.errors import DegenerateFlat, DegenerateSection
from nordenhyp.hypersurface import (
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
from nordenhyp.main_class import (
    SolverBranch,
    K_F45_0,
    K_cor32,
    canonical_difference_F45,
    curvature_F45,
    nu_from_scalars,
    shape_F45,
    solve_theta,
    theorem31,
)
from nordenhyp.multilinear import twist_last
from nordenhyp.sampling import (
    random_contact_point,
    random_hyper_scalars,
    random_main_class_data,
    random_timelike_frame,
    rng,
)
from nordenhyp.suite import run_suite

from samplers import random_nu_pair, random_totally_real_pair

SEED = 74250


def rel(got: float, want: float) -> float:
    return abs(got - want) / (1.0 + abs(want))


def verdict(capsys, num: int, label: str, failures: list):
    with capsys.disabled():
        mark = "PASS" if not failures else "FAIL"
        print(f"[{mark}] criterion {num}: {label}")
    assert not failures, failures[:5]


def loop_generators(g, phi, eta) -> list:
    """pi_1..pi_5 as nested lists, entry [x][y][z][u] from the defining formulas.

    g~(x, y) = g(x, phi y); nothing here goes through the library's generators.
    """
    r = range(len(g))
    gt = [[sum(g[a][c] * phi[c][b] for c in r) for b in r] for a in r]
    ee = [[eta[a] * eta[b] for b in r] for a in r]
    formulas = (
        lambda x, y, z, u: g[y][z] * g[x][u] - g[x][z] * g[y][u],
        lambda x, y, z, u: gt[y][z] * gt[x][u] - gt[x][z] * gt[y][u],
        lambda x, y, z, u: (
            -g[y][z] * gt[x][u] + g[x][z] * gt[y][u] - gt[y][z] * g[x][u] + gt[x][z] * g[y][u]
        ),
        lambda x, y, z, u: (
            g[y][z] * ee[x][u] - g[x][z] * ee[y][u] + ee[y][z] * g[x][u] - ee[x][z] * g[y][u]
        ),
        lambda x, y, z, u: (
            gt[y][z] * ee[x][u] - gt[x][z] * ee[y][u] + ee[y][z] * gt[x][u] - ee[x][z] * gt[y][u]
        ),
    )
    return [[[[[f(x, y, z, u) for u in r] for z in r] for y in r] for x in r] for f in formulas]


def loop_twisted_trace(T, g, phi) -> float:
    """g^{il} g^{jk} T(e_i, e_j, e_k, phi e_l) by plain loops over nested lists.

    phi e_l is column l of phi, so T(e_i, e_j, e_k, phi e_l) = sum_a phi[a][l] T[i][j][k][a].
    """
    d = len(g)
    g_inv = np.linalg.inv(g).tolist()
    total = 0.0
    for i in range(d):
        for a in range(d):
            s = 0.0
            for j in range(d):
                for k in range(d):
                    s += g_inv[j][k] * T[i][j][k][a]
            for l in range(d):
                total += g_inv[i][l] * phi[a][l] * s
    return total


def test_criterion_01_axiom_induction(capsys):
    gen = rng(SEED + 1)
    failures = []
    for i in range(100):
        frame = random_timelike_frame(gen, 2 + i % 3)
        st = induce(frame)
        rep = validate_contact_axioms(st.point)
        if rep.max_residual > 1e-9:
            failures.append(("axioms", i, rep.max_residual))
        res = pi_relations_residual(st)
        if res > 1e-9:
            failures.append(("pullback", i, res))
    verdict(capsys, 1, "induced structures satisfy the contact axioms and pullback identities", failures)


def test_criterion_02_kaehlerity(capsys):
    gen = rng(SEED + 2)
    failures = []
    for n in (1, 2, 3):
        for i in range(100):
            p = random_contact_point(gen, n)
            pis = [pi(k, p) for k in range(1, 6)]
            r1 = kaehler_residual(pis[0] - pis[1] - pis[3], p)
            r2 = kaehler_residual(pis[2] + pis[4], p)
            if r1 > 1e-10 or r2 > 1e-10:
                failures.append((n, i, r1, r2))
    verdict(capsys, 2, "the two generator combinations are Kaehlerian", failures)


def test_criterion_03_model_curvature(capsys):
    gen = rng(SEED + 3)
    failures = []
    from nordenhyp.complex_norden import ComplexNordenPoint

    for n_prime in (2, 3, 4):
        point = ComplexNordenPoint.standard(n_prime)
        R = model_curvature(point, 3.0, -1.0)
        Rt = twist_last(R, point.J)
        for i in range(40):
            x, y = random_totally_real_pair(gen, n_prime)
            k = sectional_curvature(R, point, x, y)
            kt = sectional_curvature(Rt, point, x, y)
            if abs(k - 3.0) > 1e-9 or abs(kt + 1.0) > 1e-9:
                failures.append(("totally_real", n_prime, i, k, kt))
        hits = 0
        while hits < 40:
            v = gen.uniform(-1, 1, size=point.dim)
            try:
                k = sectional_curvature(R, point, v, point.J @ v)
            except DegenerateSection:
                continue
            hits += 1
            if abs(k) > 1e-10:
                failures.append(("holomorphic", n_prime, k))
    verdict(capsys, 3, "constant-curvature model sections hit their anchors", failures)


def test_criterion_04_scalar_calibration(capsys):
    # the rank-one shape data fixes the contraction convention: on F0 data
    # A = c xi (x) eta, the shape term drops out and
    # R = nu (pi1 - pi2 - tan t pi5) + nu~ (pi3 - tan t pi4), so the twisted
    # scalar is the twisted generator traces t1..t5 weighted by those
    # coefficients; a loop-level oracle pins t1..t5 on every sampled point
    gen = rng(SEED + 4)
    failures = []
    for i in range(50):
        n = 1 + i % 3
        p = random_contact_point(gen, n)
        sc = random_hyper_scalars(gen, p)
        nu, nut = random_nu_pair(gen)
        A = shape_from_class(p, "F0", sc)
        R = gauss_induced_R(p, A, sc, nu, nut)
        got = scalar_curvatures(R, p)
        g, phi = p.g.tolist(), p.phi.tolist()
        want_traces = (0, 0, 2 * n * (2 * n - 1), 0, -2 * n)
        for k, T in enumerate(loop_generators(g, phi, p.eta.tolist())):
            tr = loop_twisted_trace(T, g, phi)
            if rel(tr, want_traces[k]) > 1e-8:
                failures.append((f"pi{k + 1}_twisted_trace", i, tr, want_traces[k]))
        want_tau = 4 * n**2 * nu - 4 * n * nut * sc.tan_t
        # -nu tan t * t5 = +2n nu tan t; the source displays
        # -2n nu tan t + 2n(2n-1) nu~ here, a sign no contraction convention gives
        want_tau_tilde = 2 * n * nu * sc.tan_t + 2 * n * (2 * n - 1) * nut
        if rel(got.tau, want_tau) > 1e-8:
            failures.append(("tau", i, got.tau, want_tau))
        if rel(got.tau_tilde, want_tau_tilde) > 1e-8:
            failures.append(("tau_twisted", i, got.tau_tilde, want_tau_tilde))
        loop_tau_tilde = loop_twisted_trace(R.entries.tolist(), g, phi)
        if rel(loop_tau_tilde, want_tau_tilde) > 1e-8:
            failures.append(("tau_twisted_loop", i, loop_tau_tilde, want_tau_tilde))
    verdict(capsys, 4, "rank-one scalar calibration matches the contraction-pinned closed forms", failures)


def test_criterion_05_closed_form_scalars_and_sections(capsys):
    gen = rng(SEED + 5)
    failures = []
    for tag in (F4_F5, F11):
        for i in range(100):
            n = 1 + i % 3
            p = random_contact_point(gen, n)
            sc = random_hyper_scalars(gen, p, with_omega=True)
            nu, nut = random_nu_pair(gen)
            A = shape_from_class(p, tag, sc)
            R = gauss_induced_R(p, A, sc, nu, nut)
            got = scalar_curvatures(R, p)
            want = closed_form_scalars(A, sc, nu, nut, p)
            if rel(got.tau, want.tau) > 1e-8 or rel(got.tau_tilde, want.tau_tilde) > 1e-8:
                failures.append(("scalars", tag, i))
    # sectional comparison on the standard point, where special planes are easy
    for i in range(100):
        n = 1 + i % 3
        p = ContactNordenPoint.standard(n)
        sc = random_hyper_scalars(gen, p)
        nu, nut = random_nu_pair(gen)
        A = shape_from_class(p, F4_F5, sc)
        R = gauss_induced_R(p, A, sc, nu, nut)
        x = gen.uniform(-1, 1, size=p.dim)
        k = special_sectional(p, A, sc, nu, nut, ContactSectionKind.XI_SECTION, x)
        if rel(k, sectional_curvature(R, p, p.xi, x)) > 1e-8:
            failures.append(("xi_section", i))
        px = p.phi @ x
        k = special_sectional(p, A, sc, nu, nut, ContactSectionKind.PHI_HOLOMORPHIC, x)
        if rel(k, sectional_curvature(R, p, px, p.phi @ px)) > 1e-8:
            failures.append(("phi_holomorphic", i))
        if n >= 2:
            u = np.zeros(p.dim)
            v = np.zeros(p.dim)
            u[0], v[1] = 1.0, 1.0
            k = special_sectional(p, A, sc, nu, nut, ContactSectionKind.TOTALLY_REAL, u, v)
            if rel(k, sectional_curvature(R, p, u, v)) > 1e-8:
                failures.append(("totally_real", i))
    verdict(capsys, 5, "induced-curvature closed forms match the contraction and sectional oracles", failures)


def test_criterion_06_canonical_curvature(capsys):
    gen = rng(SEED + 6)
    failures = []
    for tag in (F4_F5, F11):
        for i in range(50):
            n = 1 + i % 3
            p = random_contact_point(gen, n)
            sc = random_hyper_scalars(gen, p, with_omega=True)
            nu, nut = random_nu_pair(gen)
            A = shape_from_class(p, tag, sc)
            R = gauss_induced_R(p, A, sc, nu, nut)
            K1 = canonical_K_from_R(p, R, A, sc)
            K2, tau_K, tau_K_t = canonical_K_model(p, A, sc, nu, nut)
            scale = 1.0 + K2.max_norm
            if (K1 - K2).max_norm / scale > 1e-8:
                failures.append(("routes", tag, i))
            if kaehler_residual(K2, p) > 1e-9:
                failures.append(("kaehlerian", tag, i))
            got = scalar_curvatures(K2, p)
            if rel(got.tau, tau_K) > 1e-8 or rel(got.tau_tilde, tau_K_t) > 1e-8:
                failures.append(("scalars", tag, i))
    verdict(capsys, 6, "the two canonical-curvature routes agree and the result is Kaehlerian", failures)


def test_criterion_07_main_class_routes(capsys):
    gen = rng(SEED + 7)
    failures = []
    for i in range(100):
        n = 1 + i % 3
        p, sc = random_main_class_data(gen, n)
        nu, nut = random_nu_pair(gen)
        A = shape_F45(p, sc)
        R_gauss = gauss_induced_R(p, A, sc, nu, nut)
        got = curvature_F45(p, sc, nu, nut)
        if (got.R - R_gauss).max_norm / (1.0 + R_gauss.max_norm) > 1e-8:
            failures.append(("tensor", i))
        tr_A_want = -sc.dt_xi / (2 * sc.cos_t) - sc.theta_xi * sc.cos_t - sc.theta_star_xi * sc.sin_t
        tr_Aphi_want = sc.theta_xi * sc.sin_t - sc.theta_star_xi * sc.cos_t
        if abs(np.trace(A) - tr_A_want) > 1e-10 * (1 + abs(tr_A_want)):
            failures.append(("trace", i))
        if abs(np.trace(A @ p.phi) - tr_Aphi_want) > 1e-10 * (1 + abs(tr_Aphi_want)):
            failures.append(("twisted_trace", i))
    verdict(capsys, 7, "main-class curvature closed form equals the generic route; shape traces exact", failures)


def test_criterion_08_canonical_connection(capsys):
    gen = rng(SEED + 8)
    failures = []
    for n in (1, 2, 3):
        for i in range(20):
            p, sc = random_main_class_data(gen, n)
            T_explicit = canonical_difference_F45(p, sc)
            T_generic = canonical_difference(class_form(F4_F5, p, sc.theta_xi, sc.theta_star_xi), p)
            if np.max(np.abs(T_explicit - T_generic)) > 1e-10:
                failures.append((n, i, float(np.max(np.abs(T_explicit - T_generic)))))
    verdict(capsys, 8, "canonical-connection difference tensor matches its explicit display", failures)


def test_criterion_09_solver_and_flat_regime(capsys):
    # the second hand anchor checks the twisted scalar of the flat regime
    # against the loop-level contraction as well as the closed form
    gen = rng(SEED + 9)
    failures = []
    import math

    done = 0
    while done < 100:
        n = int(gen.integers(1, 4))
        t = float(gen.uniform(-1.0, 1.0))
        nu, nut = random_nu_pair(gen)
        radicand = nu * math.cos(t) - nut * math.sin(t) + math.hypot(nu, nut)
        if radicand <= 0.01:
            continue
        done += 1
        for eps in (1, -1):
            th, ths = solve_theta(nu, nut, t, SolverBranch(eps), n)
            p = ContactNordenPoint.standard(n)
            sc = HyperScalars(t=t, theta_xi=th, theta_star_xi=ths)
            back_nu, back_nut = nu_from_scalars(p, sc)
            if rel(back_nu, nu) > 1e-8 or rel(back_nut, nut) > 1e-8:
                failures.append(("roundtrip", done, eps))
                continue
            res = theorem31(p, th, ths, t=t)
            scale = 1.0 + max(abs(th), abs(ths)) ** 2
            if res.K_residual > 1e-8 * scale:
                failures.append(("flat_K", done, eps))
            A = shape_F45(p, sc)
            R_oracle = gauss_induced_R(p, A, sc, nu, nut)
            if (res.R - R_oracle).max_norm / (1.0 + R_oracle.max_norm) > 1e-8:
                failures.append(("R", done, eps))
            got = scalar_curvatures(res.R, p)
            if rel(got.tau, res.tau) > 1e-8 or rel(got.tau_tilde, res.tau_tilde) > 1e-8:
                failures.append(("scalars", done, eps))
            x = gen.uniform(-1, 1, size=p.dim)
            px = p.phi @ x
            try:
                if rel(res.k_xi(x), sectional_curvature(res.R, p, p.xi, x)) > 1e-8:
                    failures.append(("k_xi", done, eps))
                k_hol = sectional_curvature(res.R, p, px, p.phi @ px)
                if rel(res.k_phi_holomorphic, k_hol) > 1e-8:
                    failures.append(("k_hol", done, eps))
            except DegenerateSection:
                pass
            if n >= 2:
                u = np.zeros(p.dim)
                v = np.zeros(p.dim)
                u[0], v[1] = 1.0, 1.0
                if rel(res.k_totally_real, sectional_curvature(res.R, p, u, v)) > 1e-8:
                    failures.append(("k_tr", done, eps))

    # hand anchors
    th, ths = solve_theta(1.0, 0.0, 0.0, SolverBranch(1), 1)
    if abs(th - 2.0) > 1e-10 or abs(ths) > 1e-10:
        failures.append(("anchor1_theta", th, ths))
    res1 = theorem31(ContactNordenPoint.standard(1), 2.0, 0.0)
    if abs(res1.tau - 2.0) > 1e-10:
        failures.append(("anchor1_tau", res1.tau))
    if abs(res1.k_phi_holomorphic + 1.0) > 1e-10:
        failures.append(("anchor1_k_hol", res1.k_phi_holomorphic))
    th, ths = solve_theta(0.0, 2.0, 0.0, SolverBranch(1), 1)
    if abs(th - 2.0) > 1e-10 or abs(ths - 2.0) > 1e-10:
        failures.append(("anchor2_theta", th, ths))
    p = ContactNordenPoint.standard(1)
    res2 = theorem31(p, 2.0, 2.0)
    # only (theta theta* / 4n^2)(pi3 - pi5) has a twisted trace, and
    # t3 - t5 = 4n^2 cancels its prefactor: tau~ = theta theta* = 4 (the
    # source displays theta theta* / (2n) = 2)
    if abs(res2.tau_tilde - 4.0) > 1e-10:
        failures.append(("anchor2_tau_twisted", res2.tau_tilde))
    loop_tau_tilde = loop_twisted_trace(res2.R.entries.tolist(), p.g.tolist(), p.phi.tolist())
    if abs(loop_tau_tilde - 4.0) > 1e-10:
        failures.append(("anchor2_tau_twisted_loop", loop_tau_tilde))
    verdict(capsys, 9, "solver round trip, flat canonical curvature and hand anchors", failures)


def test_criterion_10_reading_resolution(capsys):
    # the library keeps the squared reading of the Corollary 3.2 display; the
    # literal one, a bare theta*(xi) in the (pi1 - pi2) coefficient, is built
    # here from it as the witness that the source's display is off
    gen = rng(SEED + 10)
    failures = []
    matched = {"literal": True, "squared": True}
    for i in range(50):
        n = 1 + i % 3
        p, sc = random_main_class_data(gen, n)
        nu, nut = nu_from_scalars(p, sc)
        want = K_F45_0(p, sc, curvature_F45(p, sc, nu, nut).R)
        scale = 1.0 + want.max_norm
        ths = sc.theta_star_xi
        squared = K_cor32(p, sc, nu, nut)
        literal = squared + p.pi_combination(((ths - ths**2) / (4 * n**2)) * (PI_UNITS[0] - PI_UNITS[1]))
        for reading, K in (("literal", literal), ("squared", squared)):
            if (K - want).max_norm / scale > 1e-8:
                matched[reading] = False
    winners = [r for r, ok in matched.items() if ok]
    if len(winners) != 1:
        failures.append(("ambiguous", winners))
    elif winners != ["squared"]:
        failures.append(("unexpected_winner", winners))
    with capsys.disabled():
        print(f"       resolved coefficient reading: {winners}")
    verdict(capsys, 10, "exactly one coefficient reading is consistent across routes", failures)


def test_criterion_11_negative_controls(capsys):
    failures = []
    clean = run_suite(seed=SEED, trials=4)
    if not clean.passed:
        failures.append(("clean_run_failed", [c.name for c in clean.checks if not c.passed]))
    faulted = run_suite(seed=SEED, trials=4, fault=1e-3)
    batteries = {c.name.split(".")[0] for c in faulted.checks}
    for battery in sorted(batteries):
        if all(c.passed for c in faulted.checks if c.name.startswith(battery + ".")):
            failures.append(("battery_survived_fault", battery))
    verdict(capsys, 11, "structure-tensor fault injection breaks every battery", failures)
