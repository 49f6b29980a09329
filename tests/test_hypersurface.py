import math

import numpy as np
import pytest

from nordenhyp.complex_norden import ComplexNordenPoint
from nordenhyp.contact_norden import (
    PI_KAEHLER,
    PI_TWISTED,
    PI_UNITS,
    ContactNordenPoint,
    ContactSectionKind,
    F0,
    F4,
    F5,
    F6,
    F11,
    F4_F5,
    class_residual,
    is_curvature_like,
    kaehler_residual,
    one_forms,
    pi,
    sectional_curvature,
    validate_contact_axioms,
)
from nordenhyp.errors import (
    DegenerateSection,
    DegenerateTangentMetric,
    NonFiniteInput,
    NotConstructive,
    NotTimelike,
    WrongSectionKind,
)
from nordenhyp.hypersurface import (
    F_from_A,
    HyperScalars,
    TimelikeNormalFrame,
    canonical_K_from_R,
    canonical_K_model,
    closed_form_scalars,
    gauss_identities_residual,
    gauss_induced_R,
    induce,
    pi_relations_residual,
    scalar_curvatures,
    shape_from_class,
    special_sectional,
    validate_F6_shape,
)
from nordenhyp.multilinear import Tolerance, substitute_endo_first_two, substitute_endo_last_two
from nordenhyp.sampling import (
    draw_normal,
    random_contact_point,
    random_hyper_scalars,
    random_timelike_frame,
)

from samplers import random_nu_pair


class TestInduce:
    def test_axioms_and_pullback(self, gen):
        for _ in range(8):
            frame = random_timelike_frame(gen, int(gen.integers(2, 5)))
            st = induce(frame)
            assert validate_contact_axioms(st.point).passed
            assert pi_relations_residual(st) < 1e-10

    @pytest.mark.parametrize("n_prime", [2, 3, 4])
    def test_pullback_round_off(self, gen, n_prime):
        for _ in range(3):
            assert pi_relations_residual(induce(random_timelike_frame(gen, n_prime))) < 1e-12

    def test_angle_matches_normal_pairing(self, gen):
        frame = random_timelike_frame(gen, 3)
        st = induce(frame)
        amb = frame.ambient
        want = math.atan(float(frame.N @ amb.g @ (amb.J @ frame.N)))
        assert st.t == pytest.approx(want)

    def test_non_unit_normal_rejected(self, gen):
        frame = random_timelike_frame(gen, 2)
        bad = TimelikeNormalFrame(ambient=frame.ambient, N=1.1 * frame.N)
        with pytest.raises(NotTimelike):
            induce(bad)

    def test_nearly_null_normal(self):
        """N = (sinh 12, 0, cosh 12, 0) is unit only to ~1e-7 and nearly null: a loose relative
        tolerance lets it through the unit check, and its tangent space is then degenerate."""
        frame = TimelikeNormalFrame(ComplexNordenPoint.standard(2), np.array([math.sinh(12), 0, math.cosh(12), 0]))
        with pytest.raises(DegenerateTangentMetric):
            induce(frame, Tolerance(1e-10, 1e-3))
        with pytest.raises(NotTimelike):
            induce(frame)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_normal_rejected(self, gen, bad):
        frame = random_timelike_frame(gen, 2)
        N = frame.N.copy()
        N[1] = bad
        with pytest.raises(NonFiniteInput):
            TimelikeNormalFrame(ambient=frame.ambient, N=N)

    def test_tangent_basis_is_tangent(self, gen):
        frame = random_timelike_frame(gen, 3)
        st = induce(frame)
        pairings = frame.N @ frame.ambient.g @ st.tangent_basis
        assert np.max(np.abs(pairings)) < 1e-10


def four_term(h, k):
    """(h o k)(x, y, z, u) = h(x, u) k(y, z) + h(y, z) k(x, u) - h(x, z) k(y, u) - h(y, u) k(x, z)."""
    return (
        np.einsum("...xu,...yz->...xyzu", h, k)
        + np.einsum("...yz,...xu->...xyzu", h, k)
        - np.einsum("...xz,...yu->...xyzu", h, k)
        - np.einsum("...yu,...xz->...xyzu", h, k)
    )


def pullback_oracle(st) -> np.ndarray:
    """pi_relations_residual rebuilt apart from the library's builder and substitutions: the
    generators from their factor matrices by `four_term`, the pullback by einsum."""
    amb, B, p = st.frame.ambient, st.tangent_basis, st.point
    tan_t = np.asarray(np.tan(st.t))[..., None, None]
    t4 = tan_t[..., None, None]
    g, gJ = amb.g, amb.g @ amb.J
    gt = 0.5 * (gJ + gJ.T)
    G, Gp, ee = p.g, p.g_phi, np.einsum("...i,...j->...ij", p.eta, p.eta)
    pis = [four_term(G, G) / 2, four_term(Gp, Gp) / 2, -four_term(G, Gp), four_term(G, ee), four_term(Gp, ee)]
    pi_primes = [four_term(g, g) / 2, four_term(gt, gt) / 2, -four_term(g, gt)]

    def gap(i: int, want: np.ndarray) -> np.ndarray:  # pi'_i(Bx, By, Bz, Bu) - want, one slot at a time
        pulled = np.einsum("abcd,...dl->...abcl", pi_primes[i - 1], B)
        pulled = np.einsum("...abcl,...ck->...abkl", pulled, B)
        pulled = np.einsum("...abkl,...bj->...ajkl", pulled, B)
        pulled = np.einsum("...ajkl,...ai->...ijkl", pulled, B)
        return np.abs(pulled - want).max(axis=(-4, -3, -2, -1))

    metric = np.einsum("...ai,ab,...bj->...ij", B, gJ, B) - (Gp + tan_t * ee)
    return np.maximum.reduce([
        np.abs(metric).max(axis=(-2, -1)),
        gap(1, pis[0]),
        gap(2, pis[1] + t4 * pis[4]),
        gap(3, pis[2] - t4 * pis[3]),
    ])


@pytest.mark.parametrize("batch", [None, 7], ids=["unbatched", "batched"])
@pytest.mark.parametrize("n_prime", [2, 3, 4])
def test_pullback_matches_independent_oracle(gen, n_prime, batch):
    """The pullback check against the identities rebuilt with none of its kernels."""
    normals = np.array([draw_normal(gen, n_prime) for _ in range(batch or 1)])
    st = induce(TimelikeNormalFrame(ComplexNordenPoint.standard(n_prime), normals if batch else normals[0]))
    want = pullback_oracle(st)
    assert np.max(want) < 1e-12
    np.testing.assert_allclose(pi_relations_residual(st), want, rtol=0, atol=1e-13)


class TestHyperScalars:
    def test_angle_domain(self):
        with pytest.raises(ValueError):
            HyperScalars(t=math.pi / 2)
        HyperScalars(t=1.5)

    @pytest.mark.parametrize(
        "field", ["t", "dt_xi", "theta_xi", "theta_star_xi", "xi_theta_xi", "xi_theta_star_xi"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_scalar_rejected(self, field, bad):
        values = {"t": 0.2, field: bad}
        with pytest.raises(NonFiniteInput):
            HyperScalars(**values)

    def test_nonfinite_omega_rejected(self):
        with pytest.raises(NonFiniteInput):
            HyperScalars(t=0.2, Omega=[0.0, np.nan, 1.0])

    def test_trig_properties(self):
        sc = HyperScalars(t=0.4)
        assert sc.tan_t == pytest.approx(math.tan(0.4))


class TestShapeFromClass:
    def test_f6_not_constructive(self, gen):
        p = random_contact_point(gen, 1)
        with pytest.raises(NotConstructive):
            shape_from_class(p, F6, HyperScalars(t=0.0))

    @pytest.mark.parametrize("tag", [F0, F4, F5, F11, F4_F5])
    def test_self_adjoint(self, gen, tag):
        p = random_contact_point(gen, 2)
        sc = random_hyper_scalars(gen, p, with_omega=True)
        A = shape_from_class(p, tag, sc)
        assert np.max(np.abs(p.g @ A - A.T @ p.g)) < 1e-10

    def test_f0_shape_is_rank_one(self, gen):
        p = random_contact_point(gen, 2)
        sc = random_hyper_scalars(gen, p)
        A = shape_from_class(p, F0, sc)
        want = -(sc.dt_xi / (2 * sc.cos_t)) * np.outer(p.xi, p.eta)
        assert np.allclose(A, want)

    def test_f6_validator_flags_f4(self, gen):
        p = random_contact_point(gen, 2)
        sc = random_hyper_scalars(gen, p)
        # the F0 shape induces F = 0, which lies in every class, F6 among them
        A0 = shape_from_class(p, F0, sc)
        assert class_residual(F_from_A(p, A0, sc.t), p, F6) < 1e-10
        assert validate_F6_shape(p, A0, sc) < 1e-10
        A4 = shape_from_class(p, F4, sc)
        if abs(sc.theta_xi) > 0.1:
            assert validate_F6_shape(p, A4, sc) > 1e-3

    def test_f6_validator_needs_self_adjoint(self, gen):
        """A rotation of each half of the block commutes with phi and meets the three trace
        conditions, so only g-self-adjointness rejects the F0 shape plus it."""
        p = ContactNordenPoint.standard(2)
        sc = random_hyper_scalars(gen, p)
        B = np.zeros((5, 5))
        B[:2, :2] = B[2:4, 2:4] = [[0.0, 1.0], [-1.0, 0.0]]
        assert validate_F6_shape(p, shape_from_class(p, F0, sc) + B, sc) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_f6_validator_batch(self, gen, n):
        """A stack of points and shapes gives each entry's unbatched residual."""
        singles = []
        for tag in (F0, F4, F0, F11):
            p = random_contact_point(gen, n)
            sc = random_hyper_scalars(gen, p, with_omega=True)
            singles.append((p, shape_from_class(p, tag, sc), sc))
        want = [validate_F6_shape(*s) for s in singles]
        p = ContactNordenPoint(n, *(np.stack([getattr(s[0], f) for s in singles]) for f in ("g", "phi", "xi", "eta")))
        fields = ("t", "dt_xi", "theta_xi", "theta_star_xi", "xi_theta_xi", "xi_theta_star_xi")
        sc = HyperScalars(**{f: np.array([getattr(s[2], f) for s in singles]) for f in fields})
        got = validate_F6_shape(p, np.stack([s[1] for s in singles]), sc)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
        assert got[0] < 1e-10 and got[2] < 1e-10


class TestStructureTensorFromShape:
    @pytest.mark.parametrize("tag,attr", [(F4, "theta_xi"), (F5, "theta_star_xi")])
    def test_class_membership_and_parameter(self, gen, tag, attr):
        p = random_contact_point(gen, 2)
        base = random_hyper_scalars(gen, p)
        sc = HyperScalars(
            t=base.t,
            theta_xi=base.theta_xi if tag == F4 else 0.0,
            theta_star_xi=base.theta_star_xi if tag == F5 else 0.0,
        )
        A = shape_from_class(p, tag, sc)
        F = F_from_A(p, A, sc.t)
        assert class_residual(F, p, tag) < 1e-10
        assert getattr(one_forms(F, p), attr) == pytest.approx(getattr(sc, attr))


class TestScalarCurvatures:
    def test_f0_calibration_tau(self, gen):
        # the trace terms cancel for the rank-one shape operator
        for _ in range(10):
            n = int(gen.integers(1, 4))
            p = random_contact_point(gen, n)
            sc = random_hyper_scalars(gen, p)
            nu, nut = random_nu_pair(gen)
            A = shape_from_class(p, F0, sc)
            R = gauss_induced_R(p, A, sc, nu, nut)
            got = scalar_curvatures(R, p)
            assert got.tau == pytest.approx(4 * n**2 * nu - 4 * n * nut * sc.tan_t)
            assert got.tau_tilde == pytest.approx(
                2 * n * nu * sc.tan_t + 2 * n * (2 * n - 1) * nut
            )

    @pytest.mark.parametrize("tag", [F4_F5, F11])
    def test_closed_forms_match_contraction(self, gen, tag):
        for _ in range(5):
            n = int(gen.integers(1, 4))
            p = random_contact_point(gen, n)
            sc = random_hyper_scalars(gen, p, with_omega=True)
            nu, nut = random_nu_pair(gen)
            A = shape_from_class(p, tag, sc)
            R = gauss_induced_R(p, A, sc, nu, nut)
            got = scalar_curvatures(R, p)
            want = closed_form_scalars(A, sc, nu, nut, p)
            assert got.tau == pytest.approx(want.tau, abs=1e-9)
            assert got.tau_tilde == pytest.approx(want.tau_tilde, abs=1e-9)

    def test_induced_R_is_curvature_like(self, gen):
        p = random_contact_point(gen, 2)
        sc = random_hyper_scalars(gen, p)
        nu, nut = random_nu_pair(gen)
        A = shape_from_class(p, F4_F5, sc)
        R = gauss_induced_R(p, A, sc, nu, nut)
        assert is_curvature_like(R) < 1e-12

    def test_gauss_identities(self, gen):
        p = random_contact_point(gen, 2)
        sc = random_hyper_scalars(gen, p)
        nu, nut = random_nu_pair(gen)
        A = shape_from_class(p, F4_F5, sc)
        R = gauss_induced_R(p, A, sc, nu, nut)
        assert gauss_identities_residual(p, R, A, sc, nu, nut) < 1e-10


class TestSpecialSectional:
    def setup_method(self):
        self.p = ContactNordenPoint.standard(2)

    def _data(self, gen):
        sc = random_hyper_scalars(gen, self.p)
        nu, nut = random_nu_pair(gen)
        A = shape_from_class(self.p, F4_F5, sc)
        R = gauss_induced_R(self.p, A, sc, nu, nut)
        return sc, nu, nut, A, R

    def test_xi_section(self, gen):
        sc, nu, nut, A, R = self._data(gen)
        x = gen.uniform(-1, 1, size=5)
        k = special_sectional(self.p, A, sc, nu, nut, ContactSectionKind.XI_SECTION, x)
        assert k == pytest.approx(sectional_curvature(R, self.p, self.p.xi, x))

    def test_phi_holomorphic(self, gen):
        sc, nu, nut, A, R = self._data(gen)
        x = gen.uniform(-1, 1, size=5)
        k = special_sectional(self.p, A, sc, nu, nut, ContactSectionKind.PHI_HOLOMORPHIC, x)
        px = self.p.phi @ x
        assert k == pytest.approx(sectional_curvature(R, self.p, px, self.p.phi @ px))

    def test_totally_real(self, gen):
        sc, nu, nut, A, R = self._data(gen)
        x = np.array([1.0, 0, 0, 0, 0])
        y = np.array([0, 1.0, 0, 0, 0])
        k = special_sectional(self.p, A, sc, nu, nut, ContactSectionKind.TOTALLY_REAL, x, y)
        assert k == pytest.approx(sectional_curvature(R, self.p, x, y))

    def test_totally_real_needs_two_vectors(self, gen):
        sc, nu, nut, A, _ = self._data(gen)
        with pytest.raises(WrongSectionKind):
            special_sectional(
                self.p, A, sc, nu, nut, ContactSectionKind.TOTALLY_REAL, np.ones(5)
            )

    def test_wrong_plane_rejected(self, gen):
        sc, nu, nut, A, _ = self._data(gen)
        x = np.array([1.0, 0, 0, 0, 0])
        with pytest.raises(WrongSectionKind):
            special_sectional(
                self.p, A, sc, nu, nut, ContactSectionKind.TOTALLY_REAL, x, self.p.phi @ x
            )

    def test_degenerate_guard(self, gen):
        sc, nu, nut, A, _ = self._data(gen)
        x = np.array([1.0, 0, -1.0, 0, 0])  # null, orthogonal to xi
        with pytest.raises(DegenerateSection):
            special_sectional(self.p, A, sc, nu, nut, ContactSectionKind.XI_SECTION, x)


class TestCanonicalCurvature:
    @pytest.mark.parametrize("tag", [F4_F5, F11])
    def test_routes_agree_and_kaehlerian(self, gen, tag):
        p = random_contact_point(gen, 2)
        sc = random_hyper_scalars(gen, p, with_omega=True)
        nu, nut = random_nu_pair(gen)
        A = shape_from_class(p, tag, sc)
        R = gauss_induced_R(p, A, sc, nu, nut)
        K1 = canonical_K_from_R(p, R, A, sc)
        K2, tau_K, tau_K_t = canonical_K_model(p, A, sc, nu, nut)
        assert (K1 - K2).max_norm < 1e-9 * (1 + K2.max_norm)
        assert kaehler_residual(K2, p) < 1e-10
        got = scalar_curvatures(K2, p)
        assert got.tau == pytest.approx(tau_K)
        assert got.tau_tilde == pytest.approx(tau_K_t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factored_routes_match_dense_substitutions(gen, n):
    """The three factored curvature routes against their displays, substituted on the d^4 tensors."""
    p = random_contact_point(gen, n)
    sc = random_hyper_scalars(gen, p)
    nu, nut = random_nu_pair(gen)
    A = gen.uniform(-1, 1, size=(p.dim, p.dim))  # any endomorphism, not only a shape operator
    P1, P2, P3, P4, P5 = PI_UNITS
    c, s, tan_t = sc.cos_t, sc.sin_t, sc.tan_t
    pi1_A = substitute_endo_first_two(pi(1, p), A)
    R = p.pi_combination(nu * (P1 - P2 - tan_t * P5) + nut * (P3 - tan_t * P4)) - pi1_A
    K_from_R = substitute_endo_last_two(R, p.phi @ p.phi) + substitute_endo_last_two(pi1_A, p.phi)
    K_from_R += substitute_endo_first_two(p.pi_combination(s * (s * PI_KAEHLER - c * PI_TWISTED)), A)
    K_model = p.pi_combination(nu * PI_KAEHLER + nut * PI_TWISTED)
    K_model -= substitute_endo_first_two(p.pi_combination(c * (c * PI_KAEHLER + s * PI_TWISTED)), A)
    got_R = gauss_induced_R(p, A, sc, nu, nut)
    for got, want in (
        (got_R, R),
        (canonical_K_from_R(p, got_R, A, sc), K_from_R),
        (canonical_K_model(p, A, sc, nu, nut)[0], K_model),
    ):
        assert (got - want).max_norm <= 1e-12 * (1 + want.max_norm)
