"""The two-parameter main class: closed-form shape operator, curvature data,
canonical connection and curvature, the nu-relations, the theta-solver and
the flat-canonical-curvature verification harness.

The "t = const" regime is encoded by zeroing the derivative scalars
dt(xi), xi.theta(xi), xi.theta*(xi); every formula degenerates smoothly,
so there is one code path rather than a separate type.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contact_norden import (
    F4_F5,
    PI_KAEHLER,
    PI_TWISTED,
    PI_UNITS,
    ContactNordenPoint,
)
from .errors import DegenerateFlat, DegenerateSection
from .hypersurface import HyperScalars, ScalarCurvatures, shape_from_class
from .multilinear import (
    DEFAULT_TOL, MultilinearForm, Tolerance, any_entry, apply, bilinear, per_entry, transpose,
)

# Every curvature below is a combination of pi_1..pi_5, written as a
# coefficient vector in the shape of its display and built in one product
# by `ContactNordenPoint.pi_combination`.  For a batch the scalars are
# lifted by `per_entry(., 1)` first, so each display gives a (B, 5) array.
P1, P2, P3, P4, P5 = PI_UNITS


@dataclass(frozen=True)
class SolverBranch:
    epsilon: int = 1

    def __post_init__(self):
        if self.epsilon not in (-1, 1):
            raise ValueError("epsilon must be +1 or -1")


@dataclass(frozen=True)
class CurvatureF45:
    R: MultilinearForm
    scalars: ScalarCurvatures
    k_phi_holomorphic: float
    k_totally_real: float


@dataclass(frozen=True)
class Theorem31Result:
    nu: float
    nu_tilde: float
    K_residual: float
    R: MultilinearForm
    tau: float
    tau_tilde: float
    k_xi: Callable[[np.ndarray], float]
    k_phi_holomorphic: float
    k_totally_real: float


def shape_F45(point: ContactNordenPoint, scalars: HyperScalars, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Main-class shape operator, the F4 + F5 closed form of `shape_from_class`."""
    return shape_from_class(point, F4_F5, scalars, tol)


def curvature_F45(point: ContactNordenPoint, scalars: HyperScalars, nu: float, nu_tilde: float) -> CurvatureF45:
    """Curvature data of a main-class hypersurface, by the closed forms."""
    n = point.n
    c, s, tan_t = scalars.cos_t, scalars.sin_t, scalars.tan_t
    th, ths = scalars.theta_xi, scalars.theta_star_xi
    dt = scalars.dt_xi
    proj = th * c + ths * s
    twist = th * s - ths * c

    tau = (
        4 * n * (n * nu - nu_tilde * tan_t)
        - dt * th
        - dt * ths * tan_t
        - ((n - 1) / n) * proj**2
        - (th**2 + ths**2) / (2 * n)
    )
    # nu_tilde coefficient 2n(2n-1) per the twisted generator traces; see
    # closed_form_scalars
    tau_tilde = (
        2 * n * (2 * n - 1) * nu_tilde
        + 2 * n * nu * tan_t
        + (dt * th / 2) * tan_t
        - dt * ths / 2
        + ((n - 1) / n) * twist * proj
    )
    k_hol = -(th**2 + ths**2) / (4 * n**2)
    k_tr = nu - proj**2 / (4 * n**2)

    nu, nu_tilde, c, s, tan_t, th, ths, dt, proj, twist = (
        per_entry(v, 1) for v in (nu, nu_tilde, c, s, tan_t, th, ths, dt, proj, twist)
    )
    coef = nu * (P1 - P2 - tan_t * P5) + nu_tilde * (P3 - tan_t * P4)
    coef -= (dt / (4 * n * c)) * (th * (s * P5 + c * P4) + ths * (s * P4 - c * P5))
    coef -= ((th**2 + ths**2) / (4 * n**2)) * P2
    coef -= (proj**2 / (4 * n**2)) * PI_KAEHLER
    coef += ((proj * twist) / (4 * n**2)) * PI_TWISTED
    return CurvatureF45(
        R=point.pi_combination(coef),
        scalars=ScalarCurvatures(tau=tau, tau_tilde=tau_tilde),
        k_phi_holomorphic=k_hol,
        k_totally_real=k_tr,
    )


def canonical_difference_F45(point: ContactNordenPoint, scalars: HyperScalars) -> np.ndarray:
    """Explicit difference tensor of the canonical connection for the main class.

    Returned as T[:, i, j] = components of T(e_i, e_j); must agree with the
    generic reconstruction applied to the main-class structure tensor.
    """
    two_n = 2 * point.n
    th, ths = per_entry(scalars.theta_xi, 3), per_entry(scalars.theta_star_xi, 3)
    gp = point.g_phi  # g(x, phi y)
    B = transpose(point.phi) @ point.g @ point.phi  # g(phi x, phi y)
    phi2 = point.phi @ point.phi
    T = (th / two_n) * (
        np.einsum("...ij,...a->...aij", gp, point.xi) - np.einsum("...j,...ai->...aij", point.eta, point.phi)
    )
    T -= (ths / two_n) * (
        np.einsum("...ij,...a->...aij", B, point.xi) - np.einsum("...j,...ai->...aij", point.eta, phi2)
    )
    return T


def K_F45_0(point: ContactNordenPoint, scalars: HyperScalars, R: MultilinearForm) -> MultilinearForm:
    """Canonical curvature of the closed-1-forms regime, from R and the scalars."""
    n = point.n
    th, ths, xth, xths = (
        per_entry(v, 1)
        for v in (scalars.theta_xi, scalars.theta_star_xi, scalars.xi_theta_xi, scalars.xi_theta_star_xi)
    )
    coef = (xth / (2 * n)) * P5 + (xths / (2 * n)) * P4
    coef += (th**2 / (4 * n**2)) * (P2 - P4) + (ths**2 / (4 * n**2)) * P1
    coef -= ((th * ths) / (4 * n**2)) * (P3 - P5)
    return R + point.pi_combination(coef)


def K_cor32(point: ContactNordenPoint, scalars: HyperScalars, nu: float, nu_tilde: float) -> MultilinearForm:
    """Canonical curvature through the fully expanded coefficient display.

    The source display's first coefficient is dimensionally off: it reads a
    bare theta*(xi) term where every sibling display carries its square.
    The square is the reading used here; the cross-route comparison against
    K_F45_0(curvature_F45(...)) singles it out as the consistent one.
    """
    n = point.n
    nu, nu_tilde, c, s, tan_t, th, ths, dt, xth, xths = (
        per_entry(v, 1)
        for v in (nu, nu_tilde, scalars.cos_t, scalars.sin_t, scalars.tan_t, scalars.theta_xi,
                  scalars.theta_star_xi, scalars.dt_xi, scalars.xi_theta_xi, scalars.xi_theta_star_xi)
    )
    proj = th * c + ths * s
    twist = th * s - ths * c
    four_n2 = 4 * n**2

    coef = (nu + ths**2 / four_n2) * (P1 - P2)
    coef += (nu_tilde - th * ths / four_n2) * P3
    coef -= (
        nu_tilde * tan_t
        + dt * th / (4 * n)
        + (dt * ths / (4 * n)) * tan_t
        - xths / (2 * n)
        + th**2 / four_n2
    ) * P4
    coef -= (
        nu * tan_t
        + (dt * th / (4 * n)) * tan_t
        - dt * ths / (4 * n)
        - xth / (2 * n)
        - th * ths / four_n2
    ) * P5
    coef -= (proj**2 / four_n2) * PI_KAEHLER
    coef += ((twist * proj) / four_n2) * PI_TWISTED
    return point.pi_combination(coef)


def nu_from_scalars(point: ContactNordenPoint, scalars: HyperScalars) -> tuple:
    """The ambient curvature constants (nu, nu~) forced by the main-class scalar data."""
    n = point.n
    c, s = scalars.cos_t, scalars.sin_t
    th, ths = scalars.theta_xi, scalars.theta_star_xi
    dt, xth, xths = scalars.dt_xi, scalars.xi_theta_xi, scalars.xi_theta_star_xi
    nu = (
        -dt * th / (4 * n)
        + (c / (2 * n)) * (xth * s - xths * c)
        + (c**2 / (4 * n**2)) * (th**2 - ths**2)
        + (s * c / (2 * n**2)) * th * ths
        + (dt / (2 * n)) * c * (th * c + ths * s)
    )
    nu_tilde = (
        -dt * ths / (4 * n)
        + (c / (2 * n)) * (xth * c + xths * s)
        + (s * c / (4 * n**2)) * (ths**2 - th**2)
        + (c**2 / (2 * n**2)) * th * ths
        - (dt / (2 * n)) * c * (th * s - ths * c)
    )
    return nu, nu_tilde


def lambda_mu(point: ContactNordenPoint, scalars: HyperScalars) -> tuple:
    """Coefficients (lambda, mu) of the canonical curvature in the Kaehlerian tensor pair.

    Both vanish whenever the derivative scalars do.
    """
    n = point.n
    c, s = scalars.cos_t, scalars.sin_t
    th, ths = scalars.theta_xi, scalars.theta_star_xi
    dt, xth, xths = scalars.dt_xi, scalars.xi_theta_xi, scalars.xi_theta_star_xi
    lam = (
        -dt * th / (4 * n)
        + (dt / (2 * n)) * c * (th * c + ths * s)
        + (c / (2 * n)) * (xth * s - xths * c)
    )
    mu = (
        -dt * ths / (4 * n)
        - (dt / (2 * n)) * c * (th * s - ths * c)
        + (c / (2 * n)) * (xth * c + xths * s)
    )
    return lam, mu


def R_lambda_mu(point: ContactNordenPoint, scalars: HyperScalars) -> MultilinearForm:
    """Curvature in lambda/mu form; equals the curvature_F45 route with the nu pair of `nu_from_scalars`."""
    n = point.n
    lam, mu, th, ths, xth, xths = (
        per_entry(v, 1)
        for v in (*lambda_mu(point, scalars), scalars.theta_xi, scalars.theta_star_xi,
                  scalars.xi_theta_xi, scalars.xi_theta_star_xi)
    )
    coef = lam * PI_KAEHLER + mu * PI_TWISTED
    coef -= (xths / (2 * n)) * P4 + (xth / (2 * n)) * P5
    coef -= (ths**2 / (4 * n**2)) * P1 + (th**2 / (4 * n**2)) * (P2 - P4)
    coef += ((th * ths) / (4 * n**2)) * (P3 - P5)
    return point.pi_combination(coef)


def solve_theta(
    nu: float,
    nu_tilde: float,
    t: float,
    branch: SolverBranch,
    n: int,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[float, float]:
    """Invert the nu-relations for theta(xi), theta*(xi) in the t-const regime.

    The radicand nu cos t - nu~ sin t + sqrt(nu^2 + nu~^2) is nonnegative;
    near-degenerate values are rejected rather than producing huge
    theta*(xi), since its formula divides by the radicand's square root.
    The exactly-flat input has the trivial resolution (0, 0).
    """
    cos_t = math.cos(t)
    if cos_t <= 0:
        raise ValueError("cos t must be positive")
    radicand = nu * cos_t - nu_tilde * math.sin(t) + math.hypot(nu, nu_tilde)
    if radicand <= 100 * tol.abs_tol:
        if abs(nu) <= tol.abs_tol and abs(nu_tilde) <= tol.abs_tol:
            return 0.0, 0.0
        raise DegenerateFlat(f"radicand {radicand:.3e} too small for a stable branch")
    eps = branch.epsilon
    theta = 2 * eps * n * math.sqrt(radicand / (2 * cos_t))
    theta_star = (
        2 * eps * n * math.sqrt(cos_t) * (nu * math.tan(t) + nu_tilde) / math.sqrt(2 * radicand)
    )
    return theta, theta_star


def theorem31(
    point: ContactNordenPoint,
    theta_xi: float,
    theta_star_xi: float,
    t: float = 0.0,
    tol: Tolerance = DEFAULT_TOL,
) -> Theorem31Result:
    """Closed-form curvature data of the t-const regime, plus the K = 0 residual.

    K_residual is the max norm of the expanded canonical curvature built
    with the nu pair the scalars force (`nu`, `nu_tilde`); the regime's claim is
    that it vanishes.  A batched point takes (B,) arrays theta_xi, theta_star_xi
    and t, and k_xi then takes (B, d) vectors.
    """
    n = point.n
    th, ths = theta_xi, theta_star_xi
    scalars = HyperScalars(t=t, theta_xi=th, theta_star_xi=ths)
    nu, nu_tilde = nu_from_scalars(point, scalars)
    K = K_cor32(point, scalars, nu, nu_tilde)
    four_n2 = 4 * n**2
    R = R_lambda_mu(point, scalars)  # lambda = mu = 0, as the derivative scalars vanish
    tau = th**2 / (2 * n) - (2 * n + 1) * ths**2 / (2 * n)
    # twisted traces give (p3 - p5) -> 4n^2, so the 1/(4n^2) prefactor cancels
    tau_tilde = th * ths

    def k_xi(x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        px = apply(point.phi, x)
        denom = bilinear(point.g, px, px)
        if any_entry(np.abs(denom) <= tol.abs_tol):
            raise DegenerateSection("g(phi x, phi x) within tolerance of zero")
        return (th**2 - ths**2) / four_n2 + (2 * th * ths / four_n2) * (bilinear(point.g_phi, x, x) / denom)

    return Theorem31Result(
        nu=nu,
        nu_tilde=nu_tilde,
        K_residual=K.max_norm,
        R=R,
        tau=tau,
        tau_tilde=tau_tilde,
        k_xi=k_xi,
        k_phi_holomorphic=-(th**2 + ths**2) / four_n2,
        k_totally_real=-(ths**2) / four_n2,
    )
