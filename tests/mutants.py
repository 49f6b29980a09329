"""Mutants of the suite's layers, for negative controls that reach each residual.

Each mutant patches one function in `nordenhyp.suite`'s namespace, where the batteries look their
layers up at call time, and perturbs what it returns by a relative 1e-6 (1e-6 Id for the main-class
shape operator).  `fails` names the checks that must then fail with a finite residual; every other check
of their batteries must pass (`tests/test_mutants.py`).
"""
import dataclasses
from collections import namedtuple

import numpy as np

from nordenhyp.multilinear import MultilinearForm

EPS = 1e-6

Mutant = namedtuple("Mutant", "name target wrap fails")


def scaled_field(field: str):
    """A wrapper that scales one field of the layer's dataclass result by 1 + EPS."""
    def wrap(real):
        def mutated(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, **{field: getattr(result, field) * (1 + EPS)})
        return mutated
    return wrap


def scaled_form(real):
    """The layer's form, every entry scaled by 1 + EPS."""
    def mutated(*args, **kwargs):
        form = real(*args, **kwargs)
        return MultilinearForm(form.entries * (1 + EPS), form.batch)
    return mutated


def scaled_shape(real):
    """The shape operator scaled by 1 + EPS."""
    return lambda *args, **kwargs: real(*args, **kwargs) * (1 + EPS)


def shifted_shape(real):
    """The shape operator plus EPS times the identity, which stays g-self-adjoint."""
    return lambda *args, **kwargs: (A := real(*args, **kwargs)) + EPS * np.eye(A.shape[-1])


def scaled_theta(real):
    """The solver's theta(xi) scaled by 1 + EPS, theta*(xi) kept."""
    def mutated(*args, **kwargs):
        theta, theta_star = real(*args, **kwargs)
        return theta * (1 + EPS), theta_star
    return mutated


def scaled_companion_model(real):
    """The Gauss companion identities with nu scaled by 1 + EPS in their model term alone."""
    return lambda point, R, A, scalars, nu, nu_tilde: real(point, R, A, scalars, nu * (1 + EPS), nu_tilde)


MUTANTS = [
    Mutant("k_phi_holomorphic", "curvature_F45", scaled_field("k_phi_holomorphic"), {"main_class.phi_holomorphic"}),
    Mutant("k_totally_real", "curvature_F45", scaled_field("k_totally_real"), {"main_class.totally_real"}),
    Mutant("R_lambda_mu", "R_lambda_mu", scaled_form, {"expanded_coefficients.R_lambda_mu"}),
    Mutant("gauss_companion_model", "gauss_identities_residual", scaled_companion_model,
           {"induced_curvature.F4+F5.gauss_identities"}),
    Mutant("theorem31_k_totally_real", "theorem31", scaled_field("k_totally_real"), {"solver_theorem.totally_real"}),
    Mutant("closed_form_tau", "closed_form_scalars", scaled_field("tau"),
           {"scalar_calibration.tau", "induced_curvature.F4+F5.tau", "induced_curvature.F11.tau"}),
    Mutant("shape_F45_identity", "shape_F45", shifted_shape, {"main_class.trace_A", "main_class.R_routes_agree"}),
    # eta(A xi) = -dt(xi) / (2 cos t) breaks; the tau checks read the one scaled A on both routes
    Mutant("shape_from_class", "shape_from_class", scaled_shape, {"scalar_calibration.F0_in_F6"}),
    # a scaled F stays in its class, but its one-forms miss the drawn parameters
    Mutant("F_from_A", "F_from_A", scaled_form,
           {"induced_curvature.F4+F5.class_map", "induced_curvature.F11.class_map"}),
    Mutant("solve_theta", "solve_theta", scaled_theta,
           {"solver_theorem.roundtrip_nu", "solver_theorem.roundtrip_nu_twisted"}),
]
