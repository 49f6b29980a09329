"""Time-like hypersurface construction and its curvature apparatus.

The ambient data is an even-dimensional point with a time-like unit
normal; the induced odd-dimensional structure, the class forms of the
second fundamental tensor, the induced curvature tensor with its scalar
and special sectional curvatures, and the two routes to the canonical
curvature tensor all live here.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .complex_norden import ComplexNordenPoint
from .contact_norden import (
    CONSTRUCTIVE_TAGS,
    PI_KAEHLER,
    PI_TWISTED,
    PI_UNITS,
    ContactNordenPoint,
    ContactSectionKind,
    F4,
    F5,
    F6,
    F11,
    F4_F5,
    _eta_sym,
    classify_section,
)
from .errors import (
    BadIndex,
    DegenerateSection,
    DegenerateTangentMetric,
    InconsistentStructure,
    NotConstructive,
    NotTimelike,
    WrongSectionKind,
)
from .multilinear import (
    DEFAULT_TOL,
    MultilinearForm,
    Tolerance,
    any_entry,
    apply,
    area_factor,
    bilinear,
    dot,
    kulkarni_nomizu_sum,
    matrix_max,
    per_entry,
    require_finite,
    require_length,
    ricci_contract,
    scalar_contract,
    substitute_endo_first_two,
    substitute_endo_last_two,
    substitute_pairs,
    trace_compose,
    trace_endo,
    transpose,
    twist_last,
)

P1, P2, P3, P4, P5 = PI_UNITS  # coefficient vectors of the generators pi_1..pi_5


@dataclass(frozen=True)
class TimelikeNormalFrame:
    """Ambient point plus a unit time-like normal, g'(N, N) = -1.

    A (B, d') stack of normals over the one ambient point is a batch of B frames.
    """

    ambient: ComplexNordenPoint
    N: np.ndarray

    def __post_init__(self):
        N = np.asarray(self.N, dtype=float)
        require_finite(N, "N")
        require_length(N, self.ambient.dim, "N")
        object.__setattr__(self, "N", N)


@dataclass(frozen=True)
class InducedStructure:
    """The induced contact structure, with the embedding that produced it.

    tangent_basis has the 2n' - 1 tangent vectors as columns in ambient
    coordinates; point carries the structure tensors expressed in that
    basis.  A batch of frames gives a (B,) array t, a (B, 2n', 2n' - 1)
    basis and a batched point.
    """

    t: float | np.ndarray
    tangent_basis: np.ndarray
    point: ContactNordenPoint
    frame: TimelikeNormalFrame


@dataclass(frozen=True)
class HyperScalars:
    """Pointwise scalar data entering the class forms and curvature formulas.

    Omega is the rank-11 covector parameter as a vector, omega(.) = g(., Omega);
    it is projected onto ker eta where consumed, since the class form only
    ever sees that component.  Every scalar and Omega must be finite.

    For a batch, a scalar is a (B,) array or a float that stands for every
    entry (such as a zero default), and Omega is (B, d); every element is
    validated.  cos_t, sin_t and tan_t are computed here, once: floats for
    one point, read-only (B,) arrays for a batch.
    """

    t: float
    dt_xi: float = 0.0
    theta_xi: float = 0.0
    theta_star_xi: float = 0.0
    xi_theta_xi: float = 0.0
    xi_theta_star_xi: float = 0.0
    Omega: np.ndarray | None = field(default=None)

    def __post_init__(self):
        fields = _scalar_fields(self)
        try:  # one (6,) or (6, B) array
            values = np.array(fields, dtype=float)
        except ValueError:  # floats among (B,) arrays; incompatible shapes still raise ValueError
            values = np.array(np.broadcast_arrays(*fields), dtype=float)
        # one pass for both checks; NaN fails it
        if np.count_nonzero(np.abs(values).T < _SCALAR_BOUNDS) != values.size:
            require_finite(values, "scalars")
            raise ValueError(f"t = {self.t} outside (-pi/2, pi/2)")
        t = values[:1]
        values = np.concatenate([values, np.cos(t), np.sin(t), np.tan(t)])
        values.setflags(write=False)
        vars(self).update(zip(_SCALAR_NAMES, values.tolist() if values.ndim == 1 else values))
        if self.Omega is not None:
            Omega = np.asarray(self.Omega, dtype=float)
            require_finite(Omega, "Omega")
            object.__setattr__(self, "Omega", Omega)


_SCALAR_FIELDS = ("t", "dt_xi", "theta_xi", "theta_star_xi", "xi_theta_xi", "xi_theta_star_xi")
_SCALAR_NAMES = _SCALAR_FIELDS + ("cos_t", "sin_t", "tan_t")
_scalar_fields = operator.attrgetter(*_SCALAR_FIELDS)
_SCALAR_BOUNDS = np.array([math.pi / 2] + [math.inf] * 5)  # |t| < pi/2, the rest finite


@dataclass(frozen=True)
class ScalarCurvatures:
    tau: float | np.ndarray
    tau_tilde: float | np.ndarray


def induce(frame: TimelikeNormalFrame, tol: Tolerance = DEFAULT_TOL) -> InducedStructure:
    """Build the induced contact structure from a time-like normal.

    The tangent basis is a Euclidean-orthonormal basis of the g'-orthogonal
    complement of N (the nullspace of (G N)^T, via SVD).  Orthonormalizing
    with respect to g' itself would be fragile near null vectors; the
    Euclidean basis keeps the induced Gram matrix well conditioned and
    nothing downstream needs g-orthonormality.  A batch of frames raises if
    any entry fails a check.
    """
    amb = frame.ambient
    G, J, N = amb.g, amb.J, frame.N
    nsq = bilinear(G, N, N)
    if not tol.ok(nsq + 1.0).all():
        raise NotTimelike(f"g'(N, N) = {nsq}, expected -1")
    JN = apply(J, N)
    t = np.arctan(bilinear(G, N, JN))
    cos_t, sin_t = per_entry(np.cos(t), 1), per_entry(np.sin(t), 1)
    d = amb.dim - 1

    # Tangent space = nullspace of (G N)^T; the right-singular vectors past
    # the single nonzero singular value span it orthonormally.
    _, _, vt = np.linalg.svd(apply(G, N)[..., None, :])
    B = transpose(vt[..., 1:, :])
    BT = transpose(B)
    g_hyp = BT @ G @ B
    if any_entry(np.min(np.abs(np.linalg.eigvalsh(g_hyp)), axis=-1) <= tol.abs_tol):
        raise DegenerateTangentMetric("induced metric is degenerate on the tangent space")

    eta_hyp = cos_t * apply(BT, apply(G, JN))
    correction = cos_t * N - sin_t * JN
    phi_ambient = J @ B + correction[..., :, None] * eta_hyp[..., None, :]
    xi_ambient = sin_t * N + cos_t * JN

    # B has orthonormal columns, so B^T X is the least-squares solution of B C = X
    X = np.concatenate([phi_ambient, xi_ambient[..., None]], axis=-1)
    coords = BT @ X
    resid = matrix_max(B @ coords - X)
    if not tol.ok(resid, np.maximum(1.0, matrix_max(B))).all():
        raise InconsistentStructure(f"induced tensors are not tangent, residual {np.max(resid):.3e}")
    point = ContactNordenPoint((d - 1) // 2, g_hyp, coords[..., :d], coords[..., d], eta_hyp)
    return InducedStructure(t=t, tangent_basis=B, point=point, frame=frame)


def pi_relations_residual(structure: InducedStructure) -> float | np.ndarray:
    """Residual of the ambient/hypersurface tensor identities.

    Checks g'(y, Jz) = g(y, phi z) + tan t eta(y) eta(z) together with
    pi'_1 = pi_1, pi'_2 = pi_2 + tan t pi_5 and pi'_3 = pi_3 - tan t pi_4,
    comparing pulled-back ambient tensors with the induced ones, on the
    dense d^4 generators: each family is one build of its unit vectors, with
    the generator axis in front of the batch.  A batched structure gives one
    residual per entry.
    """
    amb = structure.frame.ambient
    B = structure.tangent_basis
    p = structure.point
    tan_t = np.tan(structure.t)
    t2, t4 = per_entry(tan_t, 2), per_entry(tan_t, 4)

    metric_rel = transpose(B) @ amb.gJ @ B
    res = [matrix_max(metric_rel - (p.g_phi + t2 * p.eta[..., :, None] * p.eta[..., None, :]))]

    pis = p.pi_combination(PI_UNITS.reshape((5,) + (1,) * len(p.batch) + (5,))).entries
    pi_primes = amb.pi_prime_combination(np.eye(3)).entries

    def gap(i: int, want: np.ndarray) -> np.ndarray:
        pulled = substitute_pairs(pi_primes[i - 1], B, B)
        return np.abs(pulled - want).max(axis=(-4, -3, -2, -1))

    res.append(gap(1, pis[0]))
    res.append(gap(2, pis[1] + t4 * pis[4]))
    res.append(gap(3, pis[2] - t4 * pis[3]))
    return np.maximum.reduce(res)


def shape_from_class(
    point: ContactNordenPoint,
    tag: str,
    scalars: HyperScalars,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Second fundamental tensor of a constructive class, as a matrix.

    The g-self-adjointness of the result is re-verified as a postcondition,
    for every entry of a batch.
    """
    if tag == F6:
        raise NotConstructive("F6 constrains A but has no closed form; see validate_F6_shape")
    if tag not in CONSTRUCTIVE_TAGS:
        raise BadIndex(f"unknown class tag {tag!r}")
    cos_t, sin_t = per_entry(scalars.cos_t, 2), per_entry(scalars.sin_t, 2)
    phi, phi2 = point.phi, point.phi @ point.phi
    two_n = 2 * point.n

    def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a[..., :, None] * b[..., None, :]

    A = -(per_entry(scalars.dt_xi, 2) / (2 * cos_t)) * outer(point.xi, point.eta)
    if tag in (F4, F4_F5):
        A -= (per_entry(scalars.theta_xi, 2) / two_n) * (sin_t * phi - cos_t * phi2)
    if tag in (F5, F4_F5):
        A += (per_entry(scalars.theta_star_xi, 2) / two_n) * (cos_t * phi + sin_t * phi2)
    if tag == F11:
        Omega = scalars.Omega if scalars.Omega is not None else np.zeros(point.dim)
        require_length(Omega, point.dim, "Omega")
        # only the ker-eta component of Omega enters the class form
        Omega = Omega - per_entry(dot(point.eta, Omega), 1) * point.xi
        omega_cov = apply(point.g, Omega)
        A -= cos_t * (outer(Omega, point.eta) + outer(point.xi, omega_cov))
        A -= sin_t * (outer(apply(phi, Omega), point.eta) + outer(point.xi, apply(transpose(phi), omega_cov)))

    sym_res = matrix_max(point.g @ A - transpose(A) @ point.g)
    if not tol.ok(sym_res, np.maximum(1.0, matrix_max(A))).all():
        raise InconsistentStructure(f"shape operator not g-self-adjoint, residual {np.max(sym_res):.3e}")
    return A


def validate_F6_shape(
    point: ContactNordenPoint, A: np.ndarray, scalars: HyperScalars
) -> float | np.ndarray:
    """Max residual of the five conditions under which A induces an F in F6: A is
    g-self-adjoint, [A, phi] = 0, eta(A xi) = -dt(xi) / (2 cos t), tr A = eta(A xi) and
    tr(A phi) = 0; one residual per entry of a batch."""
    phi = point.phi
    eta_A_xi = dot(point.eta, apply(A, point.xi))
    return np.maximum.reduce([
        matrix_max(point.g @ A - transpose(A) @ point.g),
        matrix_max(A @ phi - phi @ A),
        np.abs(eta_A_xi + scalars.dt_xi / (2 * scalars.cos_t)),
        np.abs(trace_endo(A) - eta_A_xi),
        np.abs(trace_compose(A, phi)),
    ])


def F_from_A(point: ContactNordenPoint, A: np.ndarray, scalars: HyperScalars) -> MultilinearForm:
    """Structure tensor induced by the shape operator at the angle t of the scalars, one per batch entry:
    F(x, y, z) = S(x, y) eta(z) + S(x, z) eta(y), S = sin t g(Ax, phi y) - cos t (g(Ax, y) - eta(Ax) eta(y))."""
    cos_t, sin_t = per_entry(scalars.cos_t, 2), per_entry(scalars.sin_t, 2)
    AT, eta = transpose(A), point.eta
    S = sin_t * (AT @ point.g @ point.phi) - cos_t * (AT @ point.g - apply(AT, eta)[..., :, None] * eta[..., None, :])
    return MultilinearForm(_eta_sym(S, point.eta), len(point.batch))


def _pi_sum(point: ContactNordenPoint, *terms) -> MultilinearForm:
    """Sum over terms (c, A, B) of (c @ pi)(Ax, Ay, Bz, Bu), in one build from the factor pairs.

    (h o k)(Ax, Ay, Bz, Bu) = (A^T h B) o (A^T k B), so a substitution moves the
    (..., 5, d, d) factors instead of a d^4 tensor; None stands for the identity.
    """
    parts = []
    for _, A, B in terms:
        hk = point.pi_factors if A is None else A.swapaxes(-1, -2)[..., None, :, :] @ point.pi_factors
        parts.append(hk if B is None else hk @ B[..., None, :, :])
    h, k = np.concatenate(parts, axis=-3)
    shape = point.batch + (5,)  # a constant coefficient vector is broadcast to the batch
    c = [c if c.shape == shape else np.broadcast_to(c, shape) for c, _, _ in terms]
    return kulkarni_nomizu_sum(h, k, np.concatenate(c, axis=-1))


def gauss_induced_R(
    point: ContactNordenPoint,
    A: np.ndarray,
    scalars: HyperScalars,
    nu: float,
    nu_tilde: float,
) -> MultilinearForm:
    """Induced curvature of a hypersurface of the constant-curvature model."""
    nu, nu_tilde, tan_t = (per_entry(v, 1) for v in (nu, nu_tilde, scalars.tan_t))
    model = nu * (P1 - P2 - tan_t * P5) + nu_tilde * (P3 - tan_t * P4)
    return _pi_sum(point, (model, None, None), (-P1, A, None))


def gauss_identities_residual(
    point: ContactNordenPoint,
    R: MultilinearForm,
    A: np.ndarray,
    scalars: HyperScalars,
    nu: float,
    nu_tilde: float,
) -> float | np.ndarray:
    """Residual of the two companion curvature identities of the construction, for the model term M:
    R(x, y, phi z, phi u) = M - R - (pi_1 + pi_2)(Ax, Ay, z, u) and, raised in its free slot,
    R(x, y, xi, .) = (M - pi_1(Ax, Ay, ., .))(x, y, xi, .); one residual per entry of a batch."""
    nu, nu_tilde, tan_t = (per_entry(v, 1) for v in (nu, nu_tilde, scalars.tan_t))
    # M, pi_1 + pi_2 and pi_1 in one build, then A in the first two slots of all three
    c = np.broadcast_arrays(nu * (P4 - tan_t * P5) - nu_tilde * (P5 + tan_t * P4), P1 + P2, P1)
    forms = point.pi_combination(np.stack(c))
    model, (_, sub12, sub1) = forms.entries[0], substitute_endo_first_two(forms, A).entries
    res1 = np.abs(substitute_endo_last_two(R, point.phi).entries - model + R.entries + sub12)
    w = np.einsum("...ijal,...a->...ijl", R.entries - model + sub1, point.xi)
    res2 = np.abs(np.einsum("...ml,...ijl->...ijm", point.g_inv, w))
    return np.maximum(res1.max(axis=(-4, -3, -2, -1)), res2.max(axis=(-3, -2, -1)))


def scalar_curvatures(R: MultilinearForm, point: ContactNordenPoint) -> ScalarCurvatures:
    """tau and its twisted companion by double contraction."""
    g_inv = point.g_inv
    tau = scalar_contract(ricci_contract(R, g_inv), g_inv)
    R_twist = twist_last(R, point.phi)
    tau_tilde = scalar_contract(ricci_contract(R_twist, g_inv), g_inv)
    return ScalarCurvatures(tau=tau, tau_tilde=tau_tilde)


def closed_form_scalars(
    A: np.ndarray,
    scalars: HyperScalars,
    nu: float,
    nu_tilde: float,
    point: ContactNordenPoint,
) -> ScalarCurvatures:
    """tau and tau~ through the trace closed forms."""
    n = point.n
    tan_t = scalars.tan_t
    phi = point.phi
    tr_A = trace_endo(A)
    tr_A2 = trace_compose(A, A)
    tr_Aphi = trace_compose(A, phi)
    tr_A2phi = trace_compose(A @ A, phi)
    tau = 4 * n**2 * nu - 4 * n * nu_tilde * tan_t - tr_A**2 + tr_A2
    # sign of the nu tan t term is pinned by the contraction: the twisted
    # traces of the five generator tensors are (0, 0, 2n(2n-1), 0, -2n)
    tau_tilde = (
        2 * n * nu * tan_t + 2 * n * (2 * n - 1) * nu_tilde - tr_A * tr_Aphi + tr_A2phi
    )
    return ScalarCurvatures(tau=tau, tau_tilde=tau_tilde)


def special_sectional(
    point: ContactNordenPoint,
    A: np.ndarray,
    scalars: HyperScalars,
    nu: float,
    nu_tilde: float,
    kind: ContactSectionKind,
    x,
    y=None,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Closed-form sectional curvature for the three special section kinds.

    For XI_SECTION the plane is {xi, x}; for PHI_HOLOMORPHIC it is
    {phi x, phi^2 x} built from x; for TOTALLY_REAL both x and y are
    required and must span a totally real plane in ker eta; in a batch, any
    entry of the wrong kind raises.
    """
    g, phi, xi = point.g, point.phi, point.xi
    x = np.asarray(x, dtype=float)
    tan_t = scalars.tan_t

    def nondegenerate(denom, what: str):
        if any_entry(np.abs(denom) <= tol.abs_tol):
            raise DegenerateSection(f"{what} within tolerance of zero")
        return denom

    if kind == ContactSectionKind.XI_SECTION:
        denom = nondegenerate(bilinear(g, x, x) - dot(point.eta, x) ** 2, "g(x, x) - eta(x)^2")
        return (
            nu
            - nu_tilde * tan_t
            - (nu * tan_t + nu_tilde) * bilinear(point.g_phi, x, x) / denom
            - area_factor(g, apply(A, xi), apply(A, x), x, xi) / denom
        )
    if kind == ContactSectionKind.PHI_HOLOMORPHIC:
        px = apply(phi, x)
        p2x = apply(phi, px)
        denom = nondegenerate(area_factor(g, px, p2x, p2x, px), "phi-holomorphic area factor")
        return -area_factor(g, apply(A, px), apply(A, p2x), p2x, px) / denom
    if kind == ContactSectionKind.TOTALLY_REAL:
        if y is None:
            raise WrongSectionKind("totally real sections need both x and y")
        y = np.asarray(y, dtype=float)
        if any_entry(classify_section(point, x, y, tol) != ContactSectionKind.TOTALLY_REAL):
            raise WrongSectionKind("{x, y} is not a totally real section")
        if np.max(np.abs([dot(point.eta, x), dot(point.eta, y)])) > tol.abs_tol:
            raise WrongSectionKind("totally real section must lie in ker eta")
        denom = nondegenerate(area_factor(g, x, y, y, x), "totally real area factor")
        return nu - area_factor(g, apply(A, x), apply(A, y), y, x) / denom
    raise WrongSectionKind(f"no closed form for section kind {kind}")


def canonical_K_from_R(
    point: ContactNordenPoint, R: MultilinearForm, A: np.ndarray, scalars: HyperScalars
) -> MultilinearForm:
    """Canonical curvature assembled from R, A and the angle t of the scalars."""
    cos_t, sin_t = per_entry(scalars.cos_t, 1), per_entry(scalars.sin_t, 1)
    phi = point.phi
    mix = sin_t * (sin_t * PI_KAEHLER - cos_t * PI_TWISTED)
    return substitute_endo_last_two(R, phi @ phi) + _pi_sum(point, (P1, A, phi), (mix, A, None))


def canonical_K_model(
    point: ContactNordenPoint,
    A: np.ndarray,
    scalars: HyperScalars,
    nu: float,
    nu_tilde: float,
) -> tuple[MultilinearForm, float, float]:
    """Canonical curvature and its scalars through the model closed forms."""
    n = point.n
    cos_t, sin_t = scalars.cos_t, scalars.sin_t
    phi, xi, eta, g = point.phi, point.xi, point.eta, point.g
    c, s = per_entry(cos_t, 1), per_entry(sin_t, 1)
    model = per_entry(nu, 1) * PI_KAEHLER + per_entry(nu_tilde, 1) * PI_TWISTED
    shape_part = -c * (c * PI_KAEHLER + s * PI_TWISTED)
    K = _pi_sum(point, (model, None, None), (shape_part, A, None))

    tr_A = trace_endo(A)
    tr_A2 = trace_compose(A, A)
    tr_Aphi = trace_compose(A, phi)
    tr_Aphi2 = trace_compose(A @ phi, A @ phi)
    tr_A2phi = trace_compose(A @ A, phi)
    Axi = apply(A, xi)
    eta_Axi = dot(eta, Axi)
    a = (
        tr_A**2
        - tr_A2
        - tr_Aphi**2
        + tr_Aphi2
        - 2 * eta_Axi * tr_A
        + 2 * bilinear(g, Axi, Axi)
    )
    b = tr_A2phi - tr_A * tr_Aphi + eta_Axi * tr_Aphi - bilinear(g, apply(phi, Axi), Axi)
    tau_K = 4 * n * (n - 1) * nu - cos_t * (a * cos_t + 2 * b * sin_t)
    tau_K_tilde = 4 * n * (n - 1) * nu_tilde - cos_t * (a * sin_t - 2 * b * cos_t)
    return K, tau_K, tau_K_tilde
