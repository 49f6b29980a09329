"""Even-dimensional ambient structures: an anti-compatible complex structure J
over an indefinite metric, the pi'-tensor family, the constant-curvature
model and its sectional curvatures.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadIndex, DegenerateSection, DependentVectors, GeometryError
from .multilinear import (
    DEFAULT_TOL,
    MultilinearForm,
    Tolerance,
    any_entry,
    apply,
    area_factor,
    generator_factors,
    invert_metric,
    kulkarni_nomizu_sum,
    pairings,
    read_only,
    require_finite,
    rows,
    signature,
    transpose,
    twist_last,
)
from .report import Check, ValidationReport


def section_tests(g, E, gE, x, y, tol: Tolerance, spans=()) -> list:
    """The plane tests of both section classifiers, in order of precedence, per batch entry.

    For span{x, y}, E = J or phi and gE = g(., E .): degenerate area factor; contains each
    vector of `spans`; E-invariant; every gE pairing zero.  Absolute thresholds, so a nearly
    special plane is never promoted.  One SVD gives the rank test and the plane's projector.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    require_finite(x, "x")
    require_finite(y, "y")
    basis = transpose(rows(x, y))
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    if any_entry(s[..., -1] <= 1e-12):  # rank < 2, as matrix_rank(basis, tol=1e-12)
        raise DependentVectors("section basis is linearly dependent")
    scale = np.maximum(1.0, np.abs(basis).max(axis=(-2, -1)))

    def in_span(*vs) -> np.ndarray:
        V = transpose(rows(*vs))
        return np.abs(u @ (transpose(u) @ V) - V).max(axis=(-2, -1)) <= tol.abs_tol * scale

    return [
        np.abs(area_factor(g, x, y, y, x)) <= tol.abs_tol,
        *(in_span(v) for v in spans),
        in_span(apply(E, x), apply(E, y)),
        np.abs(pairings(gE, x, y, x, y)).max(axis=(-2, -1)) <= tol.abs_tol * scale * scale,
    ]


class SectionKind(enum.Enum):
    HOLOMORPHIC = "holomorphic"
    TOTALLY_REAL = "totally_real"
    GENERIC = "generic"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ComplexNordenPoint:
    """Tangent-space data (g, J) of dimension 2 * n_prime.

    g is anti-compatible with J: g(Jx, Jy) = -g(x, y), which forces the
    neutral signature (n_prime, n_prime).

    g and J are stored as read-only float copies, so the values cached on
    the point (g_inv, gJ, the pi' factors) cannot go stale.  Non-finite
    entries are rejected here, once.
    """

    n_prime: int
    g: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        d = 2 * self.n_prime
        g, J = read_only(self.g), read_only(self.J)
        if g.shape != (d, d) or J.shape != (d, d):
            raise ValueError(f"g and J must be {d}x{d}")
        require_finite(g, "g")
        require_finite(J, "J")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "J", J)

    @property
    def dim(self) -> int:
        return 2 * self.n_prime

    @cached_property
    def g_inv(self) -> np.ndarray:
        return read_only(invert_metric(self.g))

    @cached_property
    def gJ(self) -> np.ndarray:
        """Matrix of g(x, Jy); symmetric for a valid point."""
        return read_only(self.g @ self.J)

    @cached_property
    def pi_prime_factors(self) -> np.ndarray:
        """The h_i and the k_i of pi'_i = h_i o k_i, as one read-only (2, 3, d, d) array."""
        g, gJ = self.g, associated_metric_prime(self)
        return generator_factors((g, gJ, g), (g, gJ, gJ), (0.5, 0.5, -1.0))

    def pi_prime_combination(self, c) -> MultilinearForm:
        """c_1 pi'_1 + c_2 pi'_2 + c_3 pi'_3 for a coefficient vector c, built from the factor pairs."""
        return kulkarni_nomizu_sum(*self.pi_prime_factors, c)

    @classmethod
    @lru_cache(maxsize=8)
    def standard(cls, n_prime: int) -> "ComplexNordenPoint":
        """Flat model: basis {a_1..a_n', Ja_1..Ja_n'}, diagonal metric.

        Points are immutable, so one instance per size is shared, with its
        cached generator factors.
        """
        d = 2 * n_prime
        g = np.diag(np.concatenate([np.ones(n_prime), -np.ones(n_prime)]))
        J = np.zeros((d, d))
        for i in range(n_prime):
            J[n_prime + i, i] = 1.0
            J[i, n_prime + i] = -1.0
        return cls(n_prime, g, J)

    def congruence(self, S: np.ndarray) -> "ComplexNordenPoint":
        """Re-express the structure in the basis whose vectors are the columns of S."""
        S = np.asarray(S, dtype=float)
        S_inv = np.linalg.inv(S)
        return ComplexNordenPoint(self.n_prime, S.T @ self.g @ S, S_inv @ self.J @ S)


def validate_complex_norden(point: ComplexNordenPoint, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Axiom residuals: J^2 = -Id, anti-compatibility, symmetry, signature."""
    d = point.dim
    g, J = point.g, point.J
    checks = [
        Check("J_squared", float(np.max(np.abs(J @ J + np.eye(d)))), tol.abs_tol),
        Check("norden_compatibility", float(np.max(np.abs(J.T @ g @ J + g))), tol.abs_tol),
        Check("metric_symmetric", float(np.max(np.abs(g - g.T))), tol.abs_tol),
    ]
    try:
        p, q = signature(g, tol)
        sig_res = 0.0 if (p, q) == (point.n_prime, point.n_prime) else 1.0
    except (GeometryError, np.linalg.LinAlgError):
        sig_res = 1.0
    checks.append(Check("signature_neutral", sig_res, 0.5))
    return ValidationReport(tuple(checks))


def associated_metric_prime(point: ComplexNordenPoint) -> np.ndarray:
    """The twin metric g~'(x, y) = g'(x, Jy)."""
    m = point.gJ
    return 0.5 * (m + m.T)


def pi_prime(i: int, point: ComplexNordenPoint) -> MultilinearForm:
    """The three curvature-like building blocks over (g', J).

    With g~' = g'(., J .) and the Kulkarni-Nomizu product o:
    pi'_1 = g' o g' / 2, pi'_2 = g~' o g~' / 2, pi'_3 = -g' o g~'.
    pi'_i is built from the point's factor pairs on each call, as the combination
    of a unit vector; see `ComplexNordenPoint.pi_prime_combination`.
    """
    if i not in (1, 2, 3):
        raise BadIndex(f"pi_prime index must be 1..3, got {i}")
    return point.pi_prime_combination(np.eye(3)[i - 1])


def model_curvature(point: ComplexNordenPoint, nu: float, nu_tilde: float) -> MultilinearForm:
    """Curvature of the model whose totally real sections have the constant curvatures nu and nu~."""
    return point.pi_prime_combination((nu, -nu, nu_tilde))


def associated_curvature(R: MultilinearForm, J: np.ndarray) -> MultilinearForm:
    """R~(x, y, z, u) = R(x, y, z, Ju)."""
    return twist_last(R, J)


def sectional_curvature_prime(
    R: MultilinearForm, g: np.ndarray, x, y, tol: Tolerance = DEFAULT_TOL
) -> float | np.ndarray:
    """R(x, y, y, x) normalized by the plane's metric area factor.

    Batched R, g, x and y give one value per entry; any degenerate entry raises.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = area_factor(g, x, y, y, x)
    if any_entry(np.abs(denom) <= tol.abs_tol):
        raise DegenerateSection(f"area factor {denom!r} within tolerance of zero")
    return R.evaluate(x, y, y, x) / denom


def classify_section_prime(
    point: ComplexNordenPoint, x, y, tol: Tolerance = DEFAULT_TOL
) -> SectionKind:
    """Classify the plane span{x, y} relative to J; see `section_tests`.

    Boundary cases resolve to GENERIC.  Batched x and y give an array of kinds.
    """
    tests = section_tests(point.g, point.J, point.gJ, x, y, tol)
    kinds = (SectionKind.DEGENERATE, SectionKind.HOLOMORPHIC, SectionKind.TOTALLY_REAL)
    return np.select(tests, kinds, SectionKind.GENERIC)[()]
