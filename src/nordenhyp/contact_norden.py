"""Odd-dimensional contact-type structures over an indefinite metric.

Houses the structure axioms, the pi_1..pi_5 tensor family, the rank-3
structure tensor F with its class forms and class residuals, the
associated 1-forms, curvature-symmetry validators, sectional curvatures,
section classification, and the difference tensor of the canonical
connection reconstructed from F.

F is pointwise input data here: every class condition is algebraic in
(g, phi, xi, eta), so no differentiation machinery appears anywhere.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .complex_norden import ComplexNordenPoint, axiom_report, section_tests
from .errors import BadIndex, DegenerateSection, InconsistentStructure, NotConstructive
from .multilinear import (
    DEFAULT_TOL,
    MultilinearForm,
    Tolerance,
    any_entry,
    apply,
    area_factor,
    dot,
    generator_factors,
    invert_metric,
    kulkarni_nomizu_sum,
    matrix_max,
    per_entry,
    read_only,
    require_finite,
    substitute_endo_last_two,
    transpose,
)
from .report import ValidationReport

# Class tags. F4_F5 is the two-parameter sum class; F6 is a condition set
# with no closed-form representative.
F0, F4, F5, F6, F11, F4_F5 = "F0", "F4", "F5", "F6", "F11", "F4+F5"
CONSTRUCTIVE_TAGS = (F0, F4, F5, F11, F4_F5)
ALL_TAGS = CONSTRUCTIVE_TAGS + (F6,)

# Coefficient vectors over (pi_1, ..., pi_5), for `pi_combination`: the
# unit vectors, one per generator, and the two Kaehlerian combinations every
# canonical curvature is built from, pi_1 - pi_2 - pi_4 and pi_3 + pi_5.
PI_UNITS = read_only(np.eye(5))
PI_KAEHLER = read_only([1.0, -1.0, 0.0, -1.0, 0.0])
PI_TWISTED = read_only([0.0, 0.0, 1.0, 0.0, 1.0])


class ContactSectionKind(enum.Enum):
    XI_SECTION = "xi_section"
    PHI_HOLOMORPHIC = "phi_holomorphic"
    TOTALLY_REAL = "totally_real"
    GENERIC = "generic"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ContactNordenPoint:
    """Tangent-space data (g, phi, xi, eta) of dimension 2n + 1.

    The structure satisfies phi^2 = -Id + xi (x) eta, eta(xi) = 1 and the
    anti-compatibility g(phi x, phi y) = -g(x, y) + eta(x) eta(y), which
    forces signature (n + 1 positive, n negative): eta(xi) = 1 pins
    g(xi, xi) = 1, so the extra direction is positive.  The source
    convention writes the pair as (n, n+1) without fixing the order.

    The fields are stored as read-only float copies, so the values derived
    from them and cached on the point (g_inv, g_phi, the pi factors) cannot
    go stale.  Non-finite entries are rejected here, once, so nothing
    derived from the point is rescanned.

    A batch of points of one size n has fields (B, d, d) and (B, d); every
    cached value then carries the same leading axis.
    """

    n: int
    g: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        d = 2 * self.n + 1
        g, phi, xi, eta = (read_only(a) for a in (self.g, self.phi, self.xi, self.eta))
        batch = g.shape[:-2]
        if g.shape != (*batch, d, d) or phi.shape != g.shape or xi.shape != (*batch, d) or eta.shape != xi.shape:
            raise ValueError(f"fields must have dimension d = {d} and one batch shape")
        for name, arr in (("g", g), ("phi", phi), ("xi", xi), ("eta", eta)):
            require_finite(arr, name)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def batch(self) -> tuple[int, ...]:
        """The batch shape: () for a single point, (B,) for a batch."""
        return self.g.shape[:-2]

    @cached_property
    def g_inv(self) -> np.ndarray:
        return read_only(invert_metric(self.g))

    @cached_property
    def g_phi(self) -> np.ndarray:
        """Matrix of g(x, phi y); symmetric for a valid point."""
        m = self.g @ self.phi
        return read_only(0.5 * (m + transpose(m)))

    @cached_property
    def pi_factors(self) -> np.ndarray:
        """The h_i and the k_i of pi_i = h_i o k_i, as one read-only (2, ..., 5, d, d) array; see `pi`."""
        g, gp, ee = self.g, self.g_phi, self.eta[..., :, None] * self.eta[..., None, :]
        return generator_factors((g, gp, g, g, gp), (g, gp, gp, ee, ee), (0.5, 0.5, -1.0, 1.0, 1.0))

    def pi_combination(self, c) -> MultilinearForm:
        """c_1 pi_1 + ... + c_5 pi_5 for a coefficient vector c, built from the factor pairs."""
        return kulkarni_nomizu_sum(*self.pi_factors, c)

    @classmethod
    @lru_cache(maxsize=8)
    def standard(cls, n: int) -> "ContactNordenPoint":
        """Canonical model: the flat ambient model of size n, (g, J) = `ComplexNordenPoint.standard(n)`,
        plus the direction xi = eta = e_{2n+1} with g(xi, xi) = 1 and phi xi = 0.

        Basis {e_1..e_n, phi e_1..phi e_n, xi}, so g = diag(1..1, -1..-1, 1), phi e_i = e_{n+i}
        and phi e_{n+i} = -e_i.  Points are immutable, so one instance per size is shared, with
        its cached generator factors.
        """
        ambient = ComplexNordenPoint.standard(n)
        g, phi = np.pad(ambient.g, (0, 1)), np.pad(ambient.J, (0, 1))
        g[-1, -1] = 1.0
        xi = np.eye(2 * n + 1)[-1]
        return cls(n, g, phi, xi, xi)

    def congruent_fields(self, S: np.ndarray) -> tuple[np.ndarray, ...]:
        """The fields (g, phi, xi, eta) in the basis of S's columns, as new writable arrays; S may be (B, d, d)."""
        S = np.asarray(S, dtype=float)
        S_inv, S_T = np.linalg.inv(S), transpose(S)
        return S_T @ self.g @ S, S_inv @ self.phi @ S, S_inv @ self.xi, S_T @ self.eta


def validate_contact_axioms(point: ContactNordenPoint, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Residual per structure axiom, including the four derived identities.

    For a batched point each residual is the maximum over the batch, and the
    signature check fails if any entry has the wrong signature.
    """
    d = point.dim
    g, phi, xi, eta = point.g, point.phi, point.xi, point.eta
    phiT = transpose(phi)
    residuals = {
        "phi_squared": phi @ phi - (-np.eye(d) + xi[..., :, None] * eta[..., None, :]),
        "eta_xi": dot(eta, xi) - 1.0,
        "norden_compatibility": phiT @ g @ phi + g - eta[..., :, None] * eta[..., None, :],
        # Derived corollaries of the axioms, checked independently.
        "eta_after_phi": apply(phiT, eta),
        "phi_xi": apply(phi, xi),
        "eta_is_g_xi": apply(g, xi) - eta,
        "g_phi_symmetric": g @ phi - phiT @ g,
        "metric_symmetric": g - transpose(g),
    }
    return axiom_report(residuals, g, (point.n + 1, point.n), "signature", tol)


def pi(i: int, point: ContactNordenPoint) -> MultilinearForm:
    """The five curvature-like building blocks over (g, phi, xi, eta).

    With g~ = g(., phi .) and the Kulkarni-Nomizu product o:
    pi_1 = g o g / 2, pi_2 = g~ o g~ / 2, pi_3 = -g o g~,
    pi_4 = g o (eta (x) eta), pi_5 = g~ o (eta (x) eta).
    pi_i is built from the point's factor pairs on each call, as the combination
    of a unit vector; build any other combination with `ContactNordenPoint.pi_combination`.
    """
    if i not in (1, 2, 3, 4, 5):
        raise BadIndex(f"pi index must be 1..5, got {i}")
    return point.pi_combination(PI_UNITS[i - 1])


def one_forms(F: MultilinearForm, point: ContactNordenPoint) -> tuple:
    """(theta(xi), theta*(xi), omega) contracted out of a rank-3 structure tensor: (B,), (B,), (B, d) for a batch."""
    if F.rank != 3:
        raise BadIndex(f"F must have rank 3, got {F.rank}")
    F_xi = np.einsum("...ijk,...k->...ij", F.entries, point.xi)  # F(x, y, xi)
    theta = np.einsum("...ij,...ij->...", point.g_inv, F_xi)
    theta_star = np.einsum("...ij,...ij->...", point.g_inv, F_xi @ point.phi)
    omega = np.einsum("...abk,...a,...b->...k", F.entries, point.xi, point.xi)
    return theta[()], theta_star[()], omega


def _eta_sym(M: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """M(x, y) eta(z) + M(x, z) eta(y), the form every class tensor is built from."""
    return np.einsum("...ij,...k->...ijk", M, eta) + np.einsum("...ik,...j->...ijk", M, eta)


def class_form(
    tag: str, point: ContactNordenPoint, theta_xi: float, theta_star_xi: float, omega: np.ndarray | None = None
) -> MultilinearForm:
    """The closed-form structure tensor of a constructive class.

    theta(xi) and theta*(xi) fix F4, F5 and F4 + F5; the covector omega fixes F11 and is read
    for it alone, where None stands for the zero covector.
    """
    if tag == F6:
        raise NotConstructive("F6 is a condition set, not a closed form")
    if tag not in CONSTRUCTIVE_TAGS:
        raise BadIndex(f"unknown class tag {tag!r}")
    d = point.dim
    eta = point.eta
    ent = np.zeros(point.batch + (d, d, d))
    if tag in (F4, F4_F5):
        # g(phi x, phi y) as a matrix
        ent += per_entry(-theta_xi / (2 * point.n), 3) * _eta_sym(transpose(point.phi) @ point.g @ point.phi, eta)
    if tag in (F5, F4_F5):
        ent += per_entry(-theta_star_xi / (2 * point.n), 3) * _eta_sym(point.g_phi, eta)
    if tag == F11 and omega is not None:
        ent += _eta_sym(eta[..., :, None] * np.asarray(omega, dtype=float)[..., None, :], eta)
    return MultilinearForm(ent, len(point.batch))


def class_residual(F: MultilinearForm, point: ContactNordenPoint, tag: str) -> float | np.ndarray:
    """Max-norm distance from F to its best representative in the class; one per entry of a batch.

    The class forms are linear in theta(xi), theta*(xi) and omega, and the
    1-form contraction is exactly the projection onto those parameters, so
    "contract, rebuild, subtract" is the right fit rather than a
    least-squares solve.  F6 is validated against its four conditions.
    """
    theta_xi, theta_star_xi, omega = one_forms(F, point)
    if tag != F6:
        return (F - class_form(tag, point, theta_xi, theta_star_xi, omega)).max_norm
    F_xy_xi, F_x_xi_z = (np.einsum(s, F.entries, point.xi) for s in ("...ijk,...k->...ij", "...iak,...a->...ik"))
    rebuilt = np.einsum("...ij,...k->...ijk", F_xy_xi, point.eta) + np.einsum("...ik,...j->...ijk", F_x_xi_z, point.eta)
    return np.maximum.reduce([np.abs(theta_xi), np.abs(theta_star_xi), matrix_max(F_xy_xi - transpose(F_xy_xi)),
                              matrix_max(transpose(point.phi) @ F_xy_xi @ point.phi + F_xy_xi),
                              np.abs(F.entries - rebuilt).max(axis=(-3, -2, -1))])


def is_curvature_like(L: MultilinearForm) -> float:
    """Max residual over the four curvature symmetry families.

    Antisymmetry in (1,2) and (3,4), symmetry under pair swap, and the
    first Bianchi identity, all on basis tuples.
    """
    T, b = L.entries, L.batch

    def perm(*axes: int) -> np.ndarray:
        return T.transpose(*range(b), *(b + a for a in axes))

    res = [T + perm(1, 0, 2, 3), T + perm(0, 1, 3, 2), T - perm(2, 3, 0, 1), T + perm(1, 2, 0, 3) + perm(2, 0, 1, 3)]
    return np.maximum.reduce([np.abs(r).max(axis=(-4, -3, -2, -1)) for r in res])


def kaehler_residual(L: MultilinearForm, point: ContactNordenPoint) -> float:
    """Max over basis tuples of |L(x, y, z, u) + L(x, y, phi z, phi u)|."""
    return (L + substitute_endo_last_two(L, point.phi)).max_norm


def sectional_curvature(L: MultilinearForm, point, x, y, tol: Tolerance = DEFAULT_TOL) -> float | np.ndarray:
    """L(x, y, y, x) normalized by the plane's metric area factor.

    Only `point.g` is read, so a contact point and a Kaehler-Norden ambient point serve alike.
    Batched L, point, x and y give one value per entry; any degenerate entry raises.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = area_factor(point.g, x, y, y, x)
    if any_entry(np.abs(denom) <= tol.abs_tol):
        raise DegenerateSection(f"area factor {denom!r} within tolerance of zero")
    return L.evaluate(x, y, y, x) / denom


def classify_section(
    point: ContactNordenPoint, x, y, tol: Tolerance = DEFAULT_TOL
) -> ContactSectionKind:
    """Classify span{x, y}; precedence Degenerate > Xi > PhiHolomorphic > TotallyReal.

    Batched x and y (with a batched point) give an array of kinds; see `section_tests`.
    """
    tests = section_tests(point.g, point.phi, point.g_phi, x, y, tol, spans=(point.xi,))
    K = ContactSectionKind
    return np.select(tests, (K.DEGENERATE, K.XI_SECTION, K.PHI_HOLOMORPHIC, K.TOTALLY_REAL), K.GENERIC)[()]


def nabla_phi_from_F(F: MultilinearForm, point: ContactNordenPoint) -> np.ndarray:
    """Reconstruct the (1,2)-map behind F by raising the last slot.

    Returns P with P[:, i, j] the vector applying the map for direction
    e_i to e_j, so that g(P[:, i, j], e_k) = F(e_i, e_j, e_k).
    """
    return np.einsum("...ab,...ijb->...aij", point.g_inv, F.entries)


def nabla_xi_from_F(
    F: MultilinearForm, point: ContactNordenPoint, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Per-direction derivative of xi recovered from F.

    Column i solves {eta(v) = 0, g(v, phi e_k) = -F(e_i, xi, e_k)}: the
    metric pairing against phi determines v up to the xi-direction, which
    the eta constraint removes.  A large least-squares residual means F
    violates the structure identities.  A batch is solved as one stack of
    pseudo-inverses (the minimum-norm least-squares solution, as lstsq gives)
    and raises if any entry's residual is large.
    """
    # g(v, phi e_k) = (phi^T g v)_k
    M = np.concatenate([transpose(point.phi) @ point.g, point.eta[..., None, :]], axis=-2)
    rhs = -np.einsum("...iak,...a->...ki", F.entries, point.xi)
    rhs = np.concatenate([rhs, np.zeros_like(rhs[..., :1, :])], axis=-2)
    sol = np.linalg.pinv(M) @ rhs
    resid = matrix_max(M @ sol - rhs)
    if not tol.ok(resid, np.maximum(1.0, F.max_norm)).all():
        raise InconsistentStructure(f"xi-derivative system residual {np.max(resid):.3e}")
    return sol


def canonical_difference(
    F: MultilinearForm, point: ContactNordenPoint, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Difference tensor between the canonical connection and the metric one.

    T(x, y) = 1/2 {(nabla_x phi) phi y + (nabla_x eta)(y) xi} - eta(y) nabla_x xi,
    assembled from the reconstructions above.  Returned as T[:, i, j] =
    components of T(e_i, e_j).
    """
    P = nabla_phi_from_F(F, point)  # P[:, i, j] = (nabla_{e_i} phi) e_j
    nxi = nabla_xi_from_F(F, point, tol)  # columns nabla_{e_i} xi
    phi, g, eta, xi = point.phi, point.g, point.eta, point.xi
    # (nabla_x phi)(phi y): substitute phi into the second argument slot.
    P_phi = np.einsum("...aib,...bj->...aij", P, phi)
    # (nabla_x eta)(y) = g(nabla_x xi, y)
    nabla_eta = np.einsum("...ai,...ab->...ib", nxi, g)  # [i, j] = (nabla_{e_i} eta)(e_j)
    T = 0.5 * (P_phi + np.einsum("...ij,...a->...aij", nabla_eta, xi))
    T -= np.einsum("...j,...ai->...aij", eta, nxi)
    return T
