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
    OneForms,
    class_form,
)
from .errors import DegenerateFlat, DegenerateSection, InconsistentStructure
from .hypersurface import HyperScalars, ScalarCurvatures, shape_from_class
from .multilinear import (
    DEFAULT_TOL, MultilinearForm, Tolerance, any_entry, apply, bilinear, per_entry, trace_compose, trace_endo,
    transpose,
)

COR32_READINGS = ("literal", "squared")

# Every curvature below is a combination of pi_1..pi_5, written as a
# coefficient vector in the shape of its display and built in one product
# by `ContactNordenPoint.pi_combination`.  For a batch the scalars are
# lifted by `per_entry(., 1)` first, so each display gives a (B, 5) array.
P1, P2, P3, P4, P5 = PI_UNITS


@dataclass(frozen=True)
class MainClassData:
    point: ContactNordenPoint
    scalars: HyperScalars


@dataclass(frozen=True)
class NuPair:
    nu: float
    nu_tilde: float


@dataclass(frozen=True)
class LambdaMu:
    lam: float
    mu: float


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
    nupair: NuPair
    K_residual: float
    R: MultilinearForm
    tau: float
    tau_tilde: float
    k_xi: Callable[[np.ndarray], float]
    k_phi_holomorphic: float
    k_totally_real: float


def shape_F45(data: MainClassData) -> np.ndarray:
    """Main-class shape operator; its two trace closed forms are re-verified per entry."""
    p, sc = data.point, data.scalars
    cos_t, sin_t = sc.cos_t, sc.sin_t
    th, ths = sc.theta_xi, sc.theta_star_xi
    A = shape_from_class(p, F4_F5, sc)

    tr_A = trace_endo(A)
    tr_A_target = -sc.dt_xi / (2 * cos_t) - th * cos_t - ths * sin_t
    tr_Aphi = trace_compose(A, p.phi)
    tr_Aphi_target = th * sin_t - ths * cos_t
    for name, got, want in (("tr A", tr_A, tr_A_target), ("tr A phi", tr_Aphi, tr_Aphi_target)):
        if any_entry(np.logical_not(abs(got - want) < 1e-9 * (1 + abs(want)))):
            raise InconsistentStructure(f"{name} = {got!r} misses its closed form {want!r}")
    return A


def curvature_F45(data: MainClassData, nupair: NuPair) -> CurvatureF45:
    """Curvature data of a main-class hypersurface, by the closed forms."""
    p, sc = data.point, data.scalars
    n = p.n
    nu, nut = nupair.nu, nupair.nu_tilde
    c, s, tan_t = sc.cos_t, sc.sin_t, sc.tan_t
    th, ths = sc.theta_xi, sc.theta_star_xi
    dt = sc.dt_xi
    proj = th * c + ths * s
    twist = th * s - ths * c

    tau = (
        4 * n * (n * nu - nut * tan_t)
        - dt * th
        - dt * ths * tan_t
        - ((n - 1) / n) * proj**2
        - (th**2 + ths**2) / (2 * n)
    )
    # nut coefficient 2n(2n-1) per the twisted generator traces; see
    # closed_form_scalars
    tau_tilde = (
        2 * n * (2 * n - 1) * nut
        + 2 * n * nu * tan_t
        + (dt * th / 2) * tan_t
        - dt * ths / 2
        + ((n - 1) / n) * twist * proj
    )
    k_hol = -(th**2 + ths**2) / (4 * n**2)
    k_tr = nu - proj**2 / (4 * n**2)

    nu, nut, c, s, tan_t, th, ths, dt, proj, twist = (
        per_entry(v, 1) for v in (nu, nut, c, s, tan_t, th, ths, dt, proj, twist)
    )
    coef = nu * (P1 - P2 - tan_t * P5) + nut * (P3 - tan_t * P4)
    coef -= (dt / (4 * n * c)) * (th * (s * P5 + c * P4) + ths * (s * P4 - c * P5))
    coef -= ((th**2 + ths**2) / (4 * n**2)) * P2
    coef -= (proj**2 / (4 * n**2)) * PI_KAEHLER
    coef += ((proj * twist) / (4 * n**2)) * PI_TWISTED
    return CurvatureF45(
        R=p.pi_combination(coef),
        scalars=ScalarCurvatures(tau=tau, tau_tilde=tau_tilde),
        k_phi_holomorphic=k_hol,
        k_totally_real=k_tr,
    )


def canonical_difference_F45(data: MainClassData) -> np.ndarray:
    """Explicit difference tensor of the canonical connection for the main class.

    Returned as T[:, i, j] = components of T(e_i, e_j); must agree with the
    generic reconstruction applied to the main-class structure tensor.
    """
    p, sc = data.point, data.scalars
    two_n = 2 * p.n
    th, ths = per_entry(sc.theta_xi, 3), per_entry(sc.theta_star_xi, 3)
    gp = p.g_phi  # g(x, phi y)
    B = transpose(p.phi) @ p.g @ p.phi  # g(phi x, phi y)
    phi2 = p.phi @ p.phi
    T = (th / two_n) * (
        np.einsum("...ij,...a->...aij", gp, p.xi) - np.einsum("...j,...ai->...aij", p.eta, p.phi)
    )
    T -= (ths / two_n) * (
        np.einsum("...ij,...a->...aij", B, p.xi) - np.einsum("...j,...ai->...aij", p.eta, phi2)
    )
    return T


def main_class_form(data: MainClassData) -> MultilinearForm:
    """The rank-3 structure tensor of the main class for these scalars."""
    p = data.point
    th, ths = data.scalars.theta_xi, data.scalars.theta_star_xi
    params = OneForms(
        theta=per_entry(th, 1) * p.eta,
        theta_star=per_entry(ths, 1) * p.eta,
        omega=np.zeros_like(p.eta),
        theta_xi=th,
        theta_star_xi=ths,
    )
    return class_form(F4_F5, p, params)


def K_F45_0(data: MainClassData, R: MultilinearForm) -> MultilinearForm:
    """Canonical curvature of the closed-1-forms regime, from R and the scalars."""
    p, sc = data.point, data.scalars
    n = p.n
    th, ths, xth, xths = (
        per_entry(v, 1) for v in (sc.theta_xi, sc.theta_star_xi, sc.xi_theta_xi, sc.xi_theta_star_xi)
    )
    coef = (xth / (2 * n)) * P5 + (xths / (2 * n)) * P4
    coef += (th**2 / (4 * n**2)) * (P2 - P4) + (ths**2 / (4 * n**2)) * P1
    coef -= ((th * ths) / (4 * n**2)) * (P3 - P5)
    return R + p.pi_combination(coef)


def K_cor32(data: MainClassData, nupair: NuPair, reading: str = "squared") -> MultilinearForm:
    """Canonical curvature through the fully expanded coefficient display.

    The source display's first coefficient is dimensionally off: it reads a
    bare theta*(xi) term where every sibling display carries its square.
    Both readings are exposed; the cross-route comparison against
    K_F45_0(curvature_F45(...)) singles out "squared" as the consistent one.
    """
    if reading not in COR32_READINGS:
        raise ValueError(f"reading must be one of {COR32_READINGS}")
    p, sc = data.point, data.scalars
    n = p.n
    nu, nut, c, s, tan_t, th, ths, dt, xth, xths = (
        per_entry(v, 1)
        for v in (nupair.nu, nupair.nu_tilde, sc.cos_t, sc.sin_t, sc.tan_t, sc.theta_xi, sc.theta_star_xi,
                  sc.dt_xi, sc.xi_theta_xi, sc.xi_theta_star_xi)
    )
    proj = th * c + ths * s
    twist = th * s - ths * c
    four_n2 = 4 * n**2

    first = ths / four_n2 if reading == "literal" else ths**2 / four_n2
    coef = (nu + first) * (P1 - P2)
    coef += (nut - th * ths / four_n2) * P3
    coef -= (
        nut * tan_t
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
    return p.pi_combination(coef)


def nu_from_scalars(data: MainClassData) -> NuPair:
    """The ambient curvature constants forced by the main-class scalar data."""
    sc = data.scalars
    n = data.point.n
    c, s = sc.cos_t, sc.sin_t
    th, ths = sc.theta_xi, sc.theta_star_xi
    dt, xth, xths = sc.dt_xi, sc.xi_theta_xi, sc.xi_theta_star_xi
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
    return NuPair(nu=nu, nu_tilde=nu_tilde)


def lambda_mu(data: MainClassData) -> LambdaMu:
    """Coefficients of the canonical curvature in the Kaehlerian tensor pair.

    Both vanish whenever the derivative scalars do.
    """
    sc = data.scalars
    n = data.point.n
    c, s = sc.cos_t, sc.sin_t
    th, ths = sc.theta_xi, sc.theta_star_xi
    dt, xth, xths = sc.dt_xi, sc.xi_theta_xi, sc.xi_theta_star_xi
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
    return LambdaMu(lam=lam, mu=mu)


def R_lambda_mu(data: MainClassData) -> MultilinearForm:
    """Curvature in lambda/mu form; equals the curvature_F45 route."""
    p, sc = data.point, data.scalars
    n = p.n
    th, ths = sc.theta_xi, sc.theta_star_xi
    lm = lambda_mu(data)
    coef = lm.lam * PI_KAEHLER + lm.mu * PI_TWISTED
    coef -= (sc.xi_theta_star_xi / (2 * n)) * P4 + (sc.xi_theta_xi / (2 * n)) * P5
    coef -= (ths**2 / (4 * n**2)) * P1 + (th**2 / (4 * n**2)) * (P2 - P4)
    coef += ((th * ths) / (4 * n**2)) * (P3 - P5)
    return p.pi_combination(coef)


def solve_theta(
    nupair: NuPair,
    t: float,
    branch: SolverBranch,
    n: int,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[float, float]:
    """Invert the nu-relations for theta(xi), theta*(xi) in the t-const regime.

    The radicand nu cos t - nu~ sin t + sqrt(nu^2 + nu~^2) is nonnegative;
    near-degenerate values are rejected rather than producing huge
    theta*(xi), since its formula divides by the radicand's square root.
    The exactly-flat input carries the trivial resolution (0, 0) on the
    raised error.
    """
    cos_t = math.cos(t)
    if cos_t <= 0:
        raise ValueError("cos t must be positive")
    nu, nut = nupair.nu, nupair.nu_tilde
    radicand = nu * cos_t - nut * math.sin(t) + math.hypot(nu, nut)
    if radicand <= 100 * tol.abs_tol:
        if abs(nu) <= tol.abs_tol and abs(nut) <= tol.abs_tol:
            err = DegenerateFlat("flat ambient: trivial resolution theta = theta* = 0")
            err.resolution = (0.0, 0.0)
            raise err
        raise DegenerateFlat(f"radicand {radicand:.3e} too small for a stable branch")
    eps = branch.epsilon
    theta = 2 * eps * n * math.sqrt(radicand / (2 * cos_t))
    theta_star = (
        2 * eps * n * math.sqrt(cos_t) * (nu * math.tan(t) + nut) / math.sqrt(2 * radicand)
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
    with the nu-pair the scalars force (`nupair`); the regime's claim is
    that it vanishes.  A batched point takes (B,) arrays theta_xi, theta_star_xi
    and t, and k_xi then takes (B, d) vectors.
    """
    n = point.n
    th, ths = theta_xi, theta_star_xi
    scalars = HyperScalars(t=t, theta_xi=th, theta_star_xi=ths)
    data = MainClassData(point=point, scalars=scalars)
    nupair = nu_from_scalars(data)
    K = K_cor32(data, nupair, reading="squared")
    four_n2 = 4 * n**2
    th1, ths1 = per_entry(th, 1), per_entry(ths, 1)
    R = point.pi_combination(
        -(th1**2 / four_n2) * (P2 - P4)
        - (ths1**2 / four_n2) * P1
        + ((th1 * ths1) / four_n2) * (P3 - P5)
    )
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
        nupair=nupair,
        K_residual=K.max_norm,
        R=R,
        tau=tau,
        tau_tilde=tau_tilde,
        k_xi=k_xi,
        k_phi_holomorphic=-(th**2 + ths**2) / four_n2,
        k_totally_real=-(ths**2) / four_n2,
    )
