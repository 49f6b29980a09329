"""Pinned verdicts of the seeded suite.

A change of summation order moves residuals at round-off level; it must not
move a check name, a threshold or a verdict.  The expected lists below were
recorded from `run_suite(seed=7, trials=5)` before the 4-slot substitutions
became matrix products.  Residuals are deliberately not pinned.  FAULTED
names every CLEAN check: a battery whose trials raise reports an infinite
residual under every name it (or the tag group) declares.

Both lists lost `expanded_coefficients.exactly_one_reading_matches` when the
library kept only the squared reading of the Corollary 3.2 display:
acceptance criterion 10 asserts what that check said, that exactly one
reading agrees with the compositional route.

Both lists gained the checks of the closed forms that had run on no battery:
the Gauss companion identities (`induced_curvature.F4+F5.gauss_identities`),
the main class's special sections (`main_class.phi_holomorphic` and
`totally_real`), the flat regime's totally real section
(`solver_theorem.totally_real`) and the lambda/mu form of the main-class
curvature (`expanded_coefficients.R_lambda_mu`, a coefficient identity, so
it passes under fault); every earlier entry is unchanged.

Both lists gained the checks of the shape-to-class map: the structure tensor
each closed-form shape operator induces lies in its class with the drawn
parameters (`induced_curvature.F4+F5.class_map` and `F11.class_map`), and
the rank-one F0 shape operator meets the F6 conditions
(`scalar_calibration.F0_in_F6`); every earlier entry is unchanged.
"""
import pytest

from nordenhyp.suite import run_suite

CLEAN = [
    ('axiom_induction.axioms', 1e-09, True),
    ('axiom_induction.pullback_identities', 1e-09, True),
    ('kaehlerity.pi1_minus_pi2_minus_pi4', 1e-10, True),
    ('kaehlerity.pi3_plus_pi5', 1e-10, True),
    ('model_curvature.ambient_axioms', 1e-09, True),
    ('model_curvature.holomorphic_k', 1e-10, True),
    ('model_curvature.totally_real_k', 1e-09, True),
    ('model_curvature.totally_real_k_assoc', 1e-09, True),
    ('scalar_calibration.F0_in_F6', 1e-09, True),
    ('scalar_calibration.tau', 1e-08, True),
    ('scalar_calibration.tau_twisted', 1e-08, True),
    ('induced_curvature.F11.class_map', 1e-10, True),
    ('induced_curvature.F11.curvature_symmetries', 1e-09, True),
    ('induced_curvature.F11.phi_holomorphic', 1e-08, True),
    ('induced_curvature.F11.tau', 1e-08, True),
    ('induced_curvature.F11.tau_twisted', 1e-08, True),
    ('induced_curvature.F11.xi_section', 1e-08, True),
    ('induced_curvature.F4+F5.class_map', 1e-10, True),
    ('induced_curvature.F4+F5.curvature_symmetries', 1e-09, True),
    ('induced_curvature.F4+F5.gauss_identities', 1e-09, True),
    ('induced_curvature.F4+F5.phi_holomorphic', 1e-08, True),
    ('induced_curvature.F4+F5.tau', 1e-08, True),
    ('induced_curvature.F4+F5.tau_twisted', 1e-08, True),
    ('induced_curvature.F4+F5.xi_section', 1e-08, True),
    ('induced_curvature.totally_real', 1e-08, True),
    ('canonical_curvature.F11.kaehlerian', 1e-09, True),
    ('canonical_curvature.F11.routes_agree', 1e-08, True),
    ('canonical_curvature.F11.tau', 1e-08, True),
    ('canonical_curvature.F11.tau_twisted', 1e-08, True),
    ('canonical_curvature.F4+F5.kaehlerian', 1e-09, True),
    ('canonical_curvature.F4+F5.routes_agree', 1e-08, True),
    ('canonical_curvature.F4+F5.tau', 1e-08, True),
    ('canonical_curvature.F4+F5.tau_twisted', 1e-08, True),
    ('main_class.R_routes_agree', 1e-08, True),
    ('main_class.phi_holomorphic', 1e-08, True),
    ('main_class.tau', 1e-08, True),
    ('main_class.tau_twisted', 1e-08, True),
    ('main_class.totally_real', 1e-08, True),
    ('main_class.trace_A', 1e-10, True),
    ('main_class.trace_A_phi', 1e-10, True),
    ('canonical_connection.difference_tensor', 1e-10, True),
    ('solver_theorem.flat_canonical_curvature', 1e-08, True),
    ('solver_theorem.phi_holomorphic', 1e-08, True),
    ('solver_theorem.roundtrip_nu', 1e-08, True),
    ('solver_theorem.roundtrip_nu_twisted', 1e-08, True),
    ('solver_theorem.tau', 1e-08, True),
    ('solver_theorem.tau_twisted', 1e-08, True),
    ('solver_theorem.totally_real', 1e-08, True),
    ('solver_theorem.xi_section', 1e-08, True),
    ('expanded_coefficients.R_lambda_mu', 1e-08, True),
    ('expanded_coefficients.kaehlerian', 1e-09, True),
    ('expanded_coefficients.reading_squared', 1e-08, True),
]

FAULTED = [
    ('axiom_induction.axioms', 1e-09, False),
    ('axiom_induction.pullback_identities', 1e-09, False),
    ('kaehlerity.pi1_minus_pi2_minus_pi4', 1e-10, False),
    ('kaehlerity.pi3_plus_pi5', 1e-10, False),
    ('model_curvature.ambient_axioms', 1e-09, False),
    ('model_curvature.holomorphic_k', 1e-10, False),
    ('model_curvature.totally_real_k', 1e-09, False),
    ('model_curvature.totally_real_k_assoc', 1e-09, False),
    ('scalar_calibration.F0_in_F6', 1e-09, False),
    ('scalar_calibration.tau', 1e-08, False),
    ('scalar_calibration.tau_twisted', 1e-08, False),
    ('induced_curvature.F11.class_map', 1e-10, False),
    ('induced_curvature.F11.curvature_symmetries', 1e-09, False),
    ('induced_curvature.F11.phi_holomorphic', 1e-08, False),
    ('induced_curvature.F11.tau', 1e-08, False),
    ('induced_curvature.F11.tau_twisted', 1e-08, False),
    ('induced_curvature.F11.xi_section', 1e-08, False),
    ('induced_curvature.F4+F5.class_map', 1e-10, False),
    ('induced_curvature.F4+F5.curvature_symmetries', 1e-09, False),
    ('induced_curvature.F4+F5.gauss_identities', 1e-09, False),
    ('induced_curvature.F4+F5.phi_holomorphic', 1e-08, False),
    ('induced_curvature.F4+F5.tau', 1e-08, False),
    ('induced_curvature.F4+F5.tau_twisted', 1e-08, False),
    ('induced_curvature.F4+F5.xi_section', 1e-08, False),
    ('induced_curvature.totally_real', 1e-08, False),
    ('canonical_curvature.F11.kaehlerian', 1e-09, False),
    ('canonical_curvature.F11.routes_agree', 1e-08, False),
    ('canonical_curvature.F11.tau', 1e-08, False),
    ('canonical_curvature.F11.tau_twisted', 1e-08, False),
    ('canonical_curvature.F4+F5.kaehlerian', 1e-09, False),
    ('canonical_curvature.F4+F5.routes_agree', 1e-08, False),
    ('canonical_curvature.F4+F5.tau', 1e-08, False),
    ('canonical_curvature.F4+F5.tau_twisted', 1e-08, False),
    ('main_class.R_routes_agree', 1e-08, False),
    ('main_class.phi_holomorphic', 1e-08, False),
    ('main_class.tau', 1e-08, False),
    ('main_class.tau_twisted', 1e-08, False),
    ('main_class.totally_real', 1e-08, False),
    ('main_class.trace_A', 1e-10, False),
    ('main_class.trace_A_phi', 1e-10, False),
    ('canonical_connection.difference_tensor', 1e-10, False),
    ('solver_theorem.flat_canonical_curvature', 1e-08, True),
    ('solver_theorem.phi_holomorphic', 1e-08, False),
    ('solver_theorem.roundtrip_nu', 1e-08, True),
    ('solver_theorem.roundtrip_nu_twisted', 1e-08, True),
    ('solver_theorem.tau', 1e-08, False),
    ('solver_theorem.tau_twisted', 1e-08, False),
    ('solver_theorem.totally_real', 1e-08, False),
    ('solver_theorem.xi_section', 1e-08, False),
    ('expanded_coefficients.R_lambda_mu', 1e-08, True),
    ('expanded_coefficients.kaehlerian', 1e-09, False),
    ('expanded_coefficients.reading_squared', 1e-08, True),
]


@pytest.mark.parametrize("fault, expected", [(0.0, CLEAN), (1e-3, FAULTED)], ids=["clean", "fault"])
def test_suite_verdicts_pinned(fault, expected):
    report = run_suite(seed=7, trials=5, fault=fault)
    got = [(c.name, c.threshold, bool(c.passed)) for c in report.checks]
    assert got == expected
