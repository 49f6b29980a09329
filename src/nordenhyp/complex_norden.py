"""Even-dimensional ambient structures: an anti-compatible complex structure J
over an indefinite metric, the pi'-tensor family and the constant-curvature
model, with the section tests and the axiom report that the odd-dimensional
contact structures share.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadIndex, DependentVectors, GeometryError
from .multilinear import (
    DEFAULT_TOL,
    MultilinearForm,
    Tolerance,
    any_entry,
    apply,
    area_factor,
    generator_factors,
    kulkarni_nomizu_sum,
    pairings,
    read_only,
    require_finite,
    require_length,
    rows,
    signature,
    transpose,
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
    for v, name in ((x, "x"), (y, "y")):
        require_finite(v, name)
        require_length(v, g.shape[-1], name)
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


def axiom_report(residuals: dict, g, counts: tuple, name: str, tol: Tolerance) -> ValidationReport:
    """Both validators' report: each residual array's largest entry against tol.abs_tol, in order,
    then the signature check `name`, 1 unless every entry of g has the (positive, negative) counts."""
    checks = [Check(k, float(np.max(np.abs(r))), tol.abs_tol) for k, r in residuals.items()]
    try:
        p, q = signature(g, tol)
        sig_res = 0.0 if np.all(p == counts[0]) and np.all(q == counts[1]) else 1.0
    except (GeometryError, np.linalg.LinAlgError):
        sig_res = 1.0
    checks.append(Check(name, sig_res, 0.5))
    return ValidationReport(tuple(checks))


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
    the point (gJ, the pi' factors) cannot go stale.  Non-finite
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
    def gJ(self) -> np.ndarray:
        """The twin metric g~'(x, y) = g(x, Jy), symmetrized; g J is symmetric for a valid point."""
        m = self.g @ self.J
        return read_only(0.5 * (m + transpose(m)))

    @cached_property
    def pi_prime_factors(self) -> np.ndarray:
        """The h_i and the k_i of pi'_i = h_i o k_i, as one read-only (2, 3, d, d) array."""
        g, gJ = self.g, self.gJ
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


def validate_complex_norden(point: ComplexNordenPoint, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Axiom residuals: J^2 = -Id, anti-compatibility, symmetry, signature."""
    g, J = point.g, point.J
    residuals = {
        "J_squared": J @ J + np.eye(point.dim),
        "norden_compatibility": J.T @ g @ J + g,
        "metric_symmetric": g - g.T,
    }
    return axiom_report(residuals, g, (point.n_prime, point.n_prime), "signature_neutral", tol)


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


def classify_section_prime(
    point: ComplexNordenPoint, x, y, tol: Tolerance = DEFAULT_TOL
) -> SectionKind:
    """Classify the plane span{x, y} relative to J; see `section_tests`.

    Boundary cases resolve to GENERIC.  Batched x and y give an array of kinds.
    """
    tests = section_tests(point.g, point.J, point.gJ, x, y, tol)
    kinds = (SectionKind.DEGENERATE, SectionKind.HOLOMORPHIC, SectionKind.TOTALLY_REAL)
    return np.select(tests, kinds, SectionKind.GENERIC)[()]
