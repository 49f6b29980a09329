import itertools

import numpy as np
import pytest

from nordenhyp.contact_norden import (
    ALL_TAGS,
    ContactNordenPoint,
    ContactSectionKind,
    F0,
    F4,
    F5,
    F6,
    F11,
    F4_F5,
    canonical_difference,
    class_form,
    class_residual,
    classify_section,
    is_curvature_like,
    kaehler_residual,
    one_forms,
    pi,
    validate_contact_axioms,
)
from nordenhyp.errors import BadIndex, DependentVectors, NonFiniteInput, NotConstructive
from nordenhyp.multilinear import kulkarni_nomizu_sum, substitute_endo_first_two, substitute_endo_last_two
from nordenhyp.sampling import random_contact_point

from samplers import random_congruence


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_point_valid(n):
    rep = validate_contact_axioms(ContactNordenPoint.standard(n))
    assert rep.passed, rep.render_text()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_point_explicit(n):
    """g = diag(1^n, -1^n, 1), phi e_i = e_{n+i}, phi e_{n+i} = -e_i, phi xi = 0 and xi = eta = e_{2n+1},
    exactly: the ambient model of size n plus the xi direction."""
    p, I, d = ContactNordenPoint.standard(n), np.eye(n), 2 * n + 1
    phi = np.zeros((d, d))
    phi[n:2 * n, :n], phi[:n, n:2 * n] = I, -I
    assert np.array_equal(p.g, np.diag([1.0] * n + [-1.0] * n + [1.0]))
    assert np.array_equal(p.phi, phi)
    assert np.array_equal(p.xi, np.eye(d)[-1])
    assert np.array_equal(p.eta, np.eye(d)[-1])


def test_congruence_preserves_axioms(gen):
    for n in (1, 2, 3):
        assert validate_contact_axioms(random_contact_point(gen, n)).passed


def test_perturbed_phi_fails(gen):
    assert not validate_contact_axioms(random_contact_point(gen, 2, fault=1e-3)).passed


def test_signature_check_catches_wrong_metric():
    p = ContactNordenPoint.standard(1)
    g = np.diag([1.0, 1.0, 1.0])
    bad = ContactNordenPoint(1, g, p.phi, p.xi, p.eta)
    checks = {c.name: c for c in validate_contact_axioms(bad).checks}
    assert not checks["norden_compatibility"].passed or not checks["signature"].passed


class TestPiFamily:
    def test_index_guard(self, gen):
        with pytest.raises(BadIndex):
            pi(6, random_contact_point(gen, 1))

    def test_curvature_like(self, gen):
        p = random_contact_point(gen, 2)
        for i in range(1, 6):
            assert is_curvature_like(pi(i, p)) < 1e-12

    def test_pi1_evaluates_to_area_form(self, gen):
        p = random_contact_point(gen, 2)
        x, y = (gen.uniform(-1, 1, size=p.dim) for _ in range(2))
        g = p.g
        want = float((y @ g @ y) * (x @ g @ x) - (x @ g @ y) ** 2)
        assert pi(1, p)(x, y, y, x) == pytest.approx(want)

    def test_kaehlerian_combinations(self, gen):
        for n in (1, 2, 3):
            p = random_contact_point(gen, n)
            pis = [pi(i, p) for i in range(1, 6)]
            assert kaehler_residual(pis[0] - pis[1] - pis[3], p) < 1e-12
            assert kaehler_residual(pis[2] + pis[4], p) < 1e-12

    def test_matches_defining_formulas(self, gen):
        p = random_contact_point(gen, 2)
        x, y, z, u = (gen.uniform(-1, 1, size=p.dim) for _ in range(4))

        def g(a, b):
            return float(a @ p.g @ b)

        def gp(a, b):
            return float(a @ p.g_phi @ b)

        def eta(a):
            return float(p.eta @ a)

        def wedge(h, k):
            return h(y, z) * k(x, u) - h(x, z) * k(y, u)

        def with_eta(h):
            return (
                eta(y) * eta(z) * h(x, u)
                - eta(x) * eta(z) * h(y, u)
                + eta(x) * eta(u) * h(y, z)
                - eta(y) * eta(u) * h(x, z)
            )

        want = [wedge(g, g), wedge(gp, gp), -wedge(g, gp) - wedge(gp, g), with_eta(g), with_eta(gp)]
        for i, w in enumerate(want, start=1):
            assert pi(i, p)(x, y, z, u) == pytest.approx(w, abs=1e-12)

    def test_equal_points_equal_generators(self, gen):
        p = random_contact_point(gen, 2)
        q = ContactNordenPoint(p.n, p.g.copy(), p.phi.copy(), p.xi.copy(), p.eta.copy())
        for i in range(1, 6):
            assert np.array_equal(pi(i, p).entries, pi(i, q).entries)


def loop_pi_combination(point, c):
    """sum_m c_m pi_m, entry by entry from the defining formulas of pi_1..pi_5."""
    d = point.dim
    g, gp, eta = point.g.tolist(), point.g_phi.tolist(), point.eta.tolist()
    out = np.zeros((d, d, d, d))
    for i, j, k, l in itertools.product(range(d), repeat=4):
        def wedge(h, q):  # h(y, z) q(x, u) - h(x, z) q(y, u)
            return h[j][k] * q[i][l] - h[i][k] * q[j][l]

        def with_eta(h):
            return (
                eta[j] * eta[k] * h[i][l]
                - eta[i] * eta[k] * h[j][l]
                + eta[i] * eta[l] * h[j][k]
                - eta[j] * eta[l] * h[i][k]
            )

        pis = (wedge(g, g), wedge(gp, gp), -wedge(g, gp) - wedge(gp, g), with_eta(g), with_eta(gp))
        out[i, j, k, l] = sum(cm * v for cm, v in zip(c, pis))
    return out


class TestPiStack:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_combination_matches_defining_formulas(self, gen, n):
        p = random_contact_point(gen, n)
        c = gen.uniform(-2, 2, size=5)
        got = p.pi_combination(c).entries
        assert np.allclose(got, loop_pi_combination(p, c), rtol=0, atol=1e-12)
        for i, e in enumerate(np.eye(5), 1):
            assert np.array_equal(p.pi_combination(e).entries, pi(i, p).entries)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_substitution_moves_the_factors(self, gen, n):
        p = random_contact_point(gen, n)
        A, B = gen.uniform(-1, 1, size=(2, p.dim, p.dim))  # not symmetric, not g-self-adjoint
        c = gen.uniform(-2, 2, size=5)
        h, k = p.pi_factors
        got = kulkarni_nomizu_sum(A.T @ h @ B, A.T @ k @ B, c).entries
        want = substitute_endo_last_two(substitute_endo_first_two(p.pi_combination(c), A), B).entries
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_nonfinite_coefficient_rejected(self, gen):
        p = random_contact_point(gen, 1)
        with pytest.raises(NonFiniteInput):
            p.pi_combination([1.0, 0.0, np.nan, 0.0, 0.0])

    def test_standard_point_shared(self):
        assert ContactNordenPoint.standard(2) is ContactNordenPoint.standard(2)
        assert ContactNordenPoint.standard(2) is not ContactNordenPoint.standard(3)


@pytest.mark.parametrize("field", ["g", "phi", "xi", "eta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_field_rejected(field, bad):
    p = ContactNordenPoint.standard(1)
    fields = {"g": p.g.copy(), "phi": p.phi.copy(), "xi": p.xi.copy(), "eta": p.eta.copy()}
    fields[field].flat[0] = bad
    with pytest.raises(NonFiniteInput):
        ContactNordenPoint(1, **fields)


def test_point_fields_are_read_only_copies():
    p = ContactNordenPoint.standard(1)
    phi = p.phi.copy()
    q = ContactNordenPoint(1, p.g, phi, p.xi, p.eta)
    phi[0, 0] = 5.0
    assert q.phi[0, 0] == 0.0
    for arr in (q.g, q.phi, q.xi, q.eta, q.g_inv, q.g_phi):
        with pytest.raises(ValueError):
            arr[0, ...] = 1.0


class TestClassForms:
    def test_f6_not_constructive(self, gen):
        p = random_contact_point(gen, 1)
        with pytest.raises(NotConstructive):
            class_form(F6, p, 0.0, 0.0)

    def test_unknown_tag(self, gen):
        with pytest.raises(BadIndex):
            class_form("F7", random_contact_point(gen, 1), 0.0, 0.0)

    @pytest.mark.parametrize("tag", [F4, F5, F11, F4_F5])
    def test_round_trip_and_residual(self, gen, tag):
        p = random_contact_point(gen, 2)
        Omega = gen.uniform(-1, 1, size=p.dim)
        Omega -= float(p.eta @ Omega) * p.xi
        F = class_form(tag, p, 1.3, -0.8, p.g @ Omega)
        assert np.max(np.abs(F.entries - F.entries.transpose(0, 2, 1))) < 1e-12  # symmetric in the last two slots
        assert class_residual(F, p, tag) < 1e-10
        theta_xi, theta_star_xi, _ = one_forms(F, p)
        if tag in (F4, F4_F5):
            assert theta_xi == pytest.approx(1.3)
        if tag in (F5, F4_F5):
            assert theta_star_xi == pytest.approx(-0.8)

    def test_pure_f5_one_forms(self, gen):
        # a pure second-family form shows no first-family trace
        p = random_contact_point(gen, 2)
        F = class_form(F5, p, 0.0, 2.5)
        theta_xi, theta_star_xi, _ = one_forms(F, p)
        assert abs(theta_xi) < 1e-10
        assert theta_star_xi == pytest.approx(2.5)

    def test_cross_class_residual_nonzero(self, gen):
        p = random_contact_point(gen, 2)
        F = class_form(F4, p, 2.0, 0.0)
        assert class_residual(F, p, F11) > 1e-3

    def test_f0_is_zero_form(self, gen):
        p = random_contact_point(gen, 2)
        F = class_form(F0, p, 9.9, 9.9)
        assert F.max_norm == 0.0

    def test_f6_residual_on_members(self, gen):
        # the zero tensor satisfies all four conditions
        p = random_contact_point(gen, 2)
        zero = class_form(F0, p, 0.0, 0.0)
        assert class_residual(zero, p, F6) < 1e-12
        # a pure F4 tensor with nonzero trace violates them
        F = class_form(F4, p, 2.0, 0.0)
        assert class_residual(F, p, F6) > 1e-3

    def test_all_tags_cover_closed_forms(self):
        assert set(ALL_TAGS) == {F0, F4, F5, F6, F11, F4_F5}


class TestSections:
    def setup_method(self):
        self.p = ContactNordenPoint.standard(2)

    def test_xi_section(self, gen):
        x = gen.uniform(-1, 1, size=5)
        assert classify_section(self.p, self.p.xi, x) == ContactSectionKind.XI_SECTION

    def test_phi_holomorphic(self, gen):
        x = gen.uniform(-1, 1, size=5)
        px = self.p.phi @ x
        kind = classify_section(self.p, px, self.p.phi @ px)
        assert kind == ContactSectionKind.PHI_HOLOMORPHIC

    def test_totally_real(self):
        x = np.array([1.0, 0, 0, 0, 0])
        y = np.array([0, 1.0, 0, 0, 0])
        assert classify_section(self.p, x, y) == ContactSectionKind.TOTALLY_REAL

    def test_dependent(self):
        x = np.array([1.0, 0, 0, 0, 0])
        with pytest.raises(DependentVectors):
            classify_section(self.p, x, -3.0 * x)


def test_canonical_difference_vanishes_for_zero_form(gen):
    p = random_contact_point(gen, 2)
    zero = class_form(F0, p, 0.0, 0.0)
    T = canonical_difference(zero, p)
    assert np.max(np.abs(T)) < 1e-12


def test_canonical_difference_congruence_equivariant(gen):
    # T transforms as a (1,2)-tensor under a change of basis
    p = ContactNordenPoint.standard(2)
    F = class_form(F4_F5, p, 1.1, 0.6)
    T = canonical_difference(F, p)

    S = random_congruence(gen, p.dim)
    q = ContactNordenPoint(p.n, *p.congruent_fields(S))
    Fq = np.einsum("abc,ai,bj,ck->ijk", F.entries, S, S, S)
    Tq = canonical_difference(type(F)(Fq), q)
    S_inv = np.linalg.inv(S)
    pulled = np.einsum("pa,abc,bi,cj->pij", S_inv, T, S, S)
    assert np.allclose(Tq, pulled, atol=1e-10)
