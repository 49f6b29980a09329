import numpy as np
import pytest

from nordenhyp.contact_norden import (
    ContactNordenPoint,
    F4_F5,
    PI_UNITS,
    canonical_difference,
    class_form,
    class_residual,
    kaehler_residual,
    sectional_curvature,
)
from nordenhyp.errors import DegenerateFlat, InconsistentStructure
from nordenhyp.hypersurface import (
    HyperScalars,
    canonical_K_from_R,
    gauss_induced_R,
    scalar_curvatures,
    shape_from_class,
)
from nordenhyp.main_class import (
    SolverBranch,
    K_F45_0,
    K_cor32,
    R_lambda_mu,
    canonical_difference_F45,
    curvature_F45,
    lambda_mu,
    nu_from_scalars,
    shape_F45,
    solve_theta,
    theorem31,
)
from nordenhyp.sampling import random_main_class_data

from samplers import random_nu_pair


class TestShapeAndForm:
    def test_shape_matches_generic_route(self, gen):
        p, sc = random_main_class_data(gen, 2)
        A = shape_F45(p, sc)
        assert np.allclose(A, shape_from_class(p, F4_F5, sc))

    def test_faulted_phi_raises_typed_error(self, gen):
        p, sc = random_main_class_data(gen, 2)
        phi = p.phi.copy()
        phi[0, 0] += 1e-3
        faulted = ContactNordenPoint(p.n, p.g, phi, p.xi, p.eta)
        with pytest.raises(InconsistentStructure):
            shape_F45(faulted, sc)

    def test_form_in_class(self, gen):
        p, sc = random_main_class_data(gen, 2)
        F = class_form(F4_F5, p, sc.theta_xi, sc.theta_star_xi)
        assert class_residual(F, p, F4_F5) < 1e-10

    def test_canonical_difference_matches_generic(self, gen):
        p, sc = random_main_class_data(gen, 2)
        T = canonical_difference_F45(p, sc)
        T_generic = canonical_difference(class_form(F4_F5, p, sc.theta_xi, sc.theta_star_xi), p)
        assert np.allclose(T, T_generic, atol=1e-10)


class TestCurvatureF45:
    def test_matches_gauss_route(self, gen):
        for n in (1, 2, 3):
            p, sc = random_main_class_data(gen, n)
            nu, nut = random_nu_pair(gen)
            A = shape_F45(p, sc)
            R_gauss = gauss_induced_R(p, A, sc, nu, nut)
            got = curvature_F45(p, sc, nu, nut)
            assert (got.R - R_gauss).max_norm < 1e-9 * (1 + R_gauss.max_norm)
            contracted = scalar_curvatures(R_gauss, p)
            assert got.scalars.tau == pytest.approx(contracted.tau, abs=1e-8)
            assert got.scalars.tau_tilde == pytest.approx(contracted.tau_tilde, abs=1e-8)

    def test_special_sections(self, gen):
        p = ContactNordenPoint.standard(2)
        sc = HyperScalars(
            t=0.3, dt_xi=0.7, theta_xi=1.1, theta_star_xi=-0.4,
            xi_theta_xi=0.2, xi_theta_star_xi=-0.9,
        )
        nu, nut = 1.3, -0.6
        got = curvature_F45(p, sc, nu, nut)
        x = np.array([1.0, 0.2, 0.1, -0.3, 0.0])
        px = p.phi @ x
        k_hol = sectional_curvature(got.R, p, px, p.phi @ px)
        assert k_hol == pytest.approx(got.k_phi_holomorphic)
        e1 = np.array([1.0, 0, 0, 0, 0])
        e2 = np.array([0, 1.0, 0, 0, 0])
        assert sectional_curvature(got.R, p, e1, e2) == pytest.approx(got.k_totally_real)


class TestCanonicalRoutes:
    def test_K_F45_0_matches_generic(self, gen):
        # closed-1-forms regime: the two K routes and the Kaehler property
        p, sc = random_main_class_data(gen, 2)
        nu, nut = nu_from_scalars(p, sc)
        A = shape_F45(p, sc)
        R = gauss_induced_R(p, A, sc, nu, nut)
        K_generic = canonical_K_from_R(p, R, A, sc)
        K_closed = K_F45_0(p, sc, R)
        assert (K_closed - K_generic).max_norm < 1e-9 * (1 + K_generic.max_norm)
        assert kaehler_residual(K_closed, p) < 1e-9

    def test_K_cor32_readings(self, gen):
        p, sc = random_main_class_data(gen, 2)
        nu, nut = nu_from_scalars(p, sc)
        R = curvature_F45(p, sc, nu, nut).R
        want = K_F45_0(p, sc, R)
        K_sq = K_cor32(p, sc, nu, nut)
        assert (K_sq - want).max_norm < 1e-9 * (1 + want.max_norm)
        # the source's literal reading: a bare theta*(xi) in place of its square
        ths = sc.theta_star_xi
        K_lit = K_sq + p.pi_combination(((ths - ths**2) / (4 * p.n**2)) * (PI_UNITS[0] - PI_UNITS[1]))
        if abs(ths * (1 - ths)) > 0.05:
            assert (K_lit - want).max_norm > 1e-4


class TestNuRelations:
    def test_curvature_determined_by_scalars(self, gen):
        # with the forced nu-pair, R depends only on the scalar data
        p, sc = random_main_class_data(gen, 2)
        R_closed = curvature_F45(p, sc, *nu_from_scalars(p, sc)).R
        R_lm = R_lambda_mu(p, sc)
        assert (R_closed - R_lm).max_norm < 1e-9 * (1 + R_lm.max_norm)

    def test_lambda_mu_vanish_without_derivatives(self, gen):
        lam, mu = lambda_mu(*random_main_class_data(gen, 2, derivative_free=True))
        assert abs(lam) < 1e-12
        assert abs(mu) < 1e-12


class TestSolveTheta:
    def test_anchor_nu_one(self):
        th, ths = solve_theta(1.0, 0.0, 0.0, SolverBranch(+1), 1)
        assert th == pytest.approx(2.0)
        assert ths == pytest.approx(0.0)

    def test_anchor_nut_two(self):
        th, ths = solve_theta(0.0, 2.0, 0.0, SolverBranch(+1), 1)
        assert th == pytest.approx(2.0)
        assert ths == pytest.approx(2.0)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_round_trip(self, gen, eps):
        for _ in range(15):
            n = int(gen.integers(1, 4))
            t = float(gen.uniform(-1.0, 1.0))
            nu, nut = random_nu_pair(gen)
            try:
                th, ths = solve_theta(nu, nut, t, SolverBranch(eps), n)
            except DegenerateFlat:
                continue
            sc = HyperScalars(t=t, theta_xi=th, theta_star_xi=ths)
            back_nu, back_nut = nu_from_scalars(ContactNordenPoint.standard(n), sc)
            assert back_nu == pytest.approx(nu, abs=1e-9)
            assert back_nut == pytest.approx(nut, abs=1e-9)

    def test_flat_input_returns_trivial_resolution(self):
        assert solve_theta(0.0, 0.0, 0.0, SolverBranch(+1), 1) == (0.0, 0.0)
        # nearly flat, the radicand 1e-9 nonzero: no stable branch
        with pytest.raises(DegenerateFlat):
            solve_theta(0.0, 1e-9, 0.0, SolverBranch(+1), 1)

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            SolverBranch(2)


class TestTheorem31:
    def setup_method(self):
        self.p = ContactNordenPoint.standard(1)
        self.res = theorem31(self.p, 2.0, 2.0)

    def test_canonical_curvature_vanishes(self):
        assert self.res.K_residual < 1e-10

    def test_scalars_match_contraction(self):
        got = scalar_curvatures(self.res.R, self.p)
        assert got.tau == pytest.approx(self.res.tau)
        assert got.tau_tilde == pytest.approx(self.res.tau_tilde)
        assert self.res.tau_tilde == pytest.approx(4.0)

    def test_special_sections(self, gen):
        x = np.array([1.0, 0.3, 0.0])
        px = self.p.phi @ x
        k_hol = sectional_curvature(self.res.R, self.p, px, self.p.phi @ px)
        assert k_hol == pytest.approx(self.res.k_phi_holomorphic)
        k_xi = sectional_curvature(self.res.R, self.p, self.p.xi, x)
        assert k_xi == pytest.approx(self.res.k_xi(x))

    def test_nontrivial_parameters(self, gen):
        for _ in range(5):
            th, ths = (float(gen.uniform(-2.0, 2.0)) for _ in range(2))
            n = int(gen.integers(1, 4))
            res = theorem31(ContactNordenPoint.standard(n), th, ths)
            assert res.K_residual < 1e-10
            got = scalar_curvatures(res.R, ContactNordenPoint.standard(n))
            assert got.tau == pytest.approx(res.tau, abs=1e-9)
            assert got.tau_tilde == pytest.approx(res.tau_tilde, abs=1e-9)
