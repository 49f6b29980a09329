"""Seeded random instances for the property batteries.

All randomness flows through numpy's PCG64 generator so identical seeds
reproduce identical reports across platforms.  Valid structures are built
by congruence from the standard models rather than rejection sampling:
the axioms are basis-independent, so a well-conditioned change of basis
keeps them exact.

A contact point and a time-like normal are drawn (`draw_point`,
`draw_normal`) apart from being built (`contact_point`, `hyper_scalars`, a
frame over the standard ambient), so a battery can draw its trials in
order and build each run of trials of one size as one batch: a stack of
draws builds a batched point.

Consecutive `uniform` calls with the same bounds are drawn as one call of
their total size; PCG64 turns each value into one 64-bit output in order,
so the values and the generator state are those of the separate calls.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .complex_norden import ComplexNordenPoint
from .contact_norden import ContactNordenPoint
from .hypersurface import HyperScalars, TimelikeNormalFrame
from .main_class import MainClassData
from .multilinear import dot, per_entry


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_congruence(gen: np.random.Generator, d: int, scale: float = 0.3) -> np.ndarray:
    """Well-conditioned random basis change: identity plus a small perturbation."""
    return np.eye(d) + scale * gen.uniform(-1.0, 1.0, size=(d, d))


# The draws behind one random contact point: the raw congruence block U of
# S = I + 0.3 U, and the phi entry a fault perturbs (None unfaulted).
PointDraw = namedtuple("PointDraw", "U entry")


def draw_point(gen: np.random.Generator, n: int, fault: float = 0.0) -> PointDraw:
    """The raw block U, then (if fault) the entry as two scalar draws: the stream of one size-2 call,
    since the bit generator keeps the unused half of a 64-bit output for the next 32-bit draw."""
    d = 2 * n + 1
    U = gen.uniform(-1.0, 1.0, size=(d, d))
    return PointDraw(U, np.array((gen.integers(d), gen.integers(d))) if fault else None)


def contact_point(n: int, draw: PointDraw, fault: float = 0.0) -> ContactNordenPoint:
    """standard(n) in the basis S = I + 0.3 draw.U, with fault added to phi at draw.entry, built once;
    a stacked draw gives a batch.  S is formed elementwise, so a stack gives each trial's S bit for bit."""
    g, phi, xi, eta = ContactNordenPoint.standard(n).congruent_fields(np.eye(2 * n + 1) + 0.3 * draw.U)
    if draw.entry is not None:
        phi[(*np.indices(phi.shape[:-2], sparse=True), draw.entry[..., 0], draw.entry[..., 1])] += fault
    return ContactNordenPoint(n, g, phi, xi, eta)


def random_contact_point(
    gen: np.random.Generator, n: int, fault: float = 0.0
) -> ContactNordenPoint:
    """Congruence-randomized standard contact point; fault perturbs phi."""
    return contact_point(n, draw_point(gen, n, fault), fault)


def random_complex_point(
    gen: np.random.Generator, n_prime: int, fault: float = 0.0
) -> ComplexNordenPoint:
    point = ComplexNordenPoint.standard(n_prime).congruence(
        random_congruence(gen, 2 * n_prime)
    )
    if fault:
        J = point.J.copy()
        i, j = gen.integers(0, point.dim, size=2)
        J[i, j] += fault
        point = ComplexNordenPoint(point.n_prime, point.g, J)
    return point


def draw_normal(gen: np.random.Generator, n_prime: int, fault: float = 0.0) -> np.ndarray:
    """A random time-like unit normal of the standard flat ambient, plus fault in every entry.

    Mixes a sinh-parameterized {a_i, Ja_i}-plane normal with a small
    random tangential component, then renormalizes; resamples until the
    square is safely negative.  The plane part is added at its two entries:
    each sum has the same two terms as adding the full vectors.
    """
    g = ComplexNordenPoint.standard(n_prime).g
    while True:
        i = int(gen.integers(0, n_prime))
        s = gen.uniform(-1.2, 1.2)
        v = 0.3 * gen.uniform(-1.0, 1.0, size=2 * n_prime)
        v[i] += np.sinh(s)
        v[n_prime + i] += np.cosh(s)
        sq = float(v @ g @ v)
        if sq < -0.1:
            break
    N = v / np.sqrt(-sq)
    if fault:
        N = N + fault
    return N


def random_timelike_frame(
    gen: np.random.Generator, n_prime: int, fault: float = 0.0
) -> TimelikeNormalFrame:
    """Standard flat ambient with a random time-like unit normal (`draw_normal`)."""
    return TimelikeNormalFrame(ambient=ComplexNordenPoint.standard(n_prime), N=draw_normal(gen, n_prime, fault))


def hyper_scalars(t, derivatives, Omega=None, point: ContactNordenPoint | None = None) -> HyperScalars:
    """HyperScalars from t, the five derivative scalars (dt, theta, theta*, xi.theta, xi.theta* of xi)
    and Omega, projected onto ker eta of the point; a (B,) t with (5, B) derivatives gives a batch."""
    if Omega is not None:
        Omega = Omega - per_entry(dot(point.eta, Omega), 1) * point.xi
    return HyperScalars(t, *derivatives, Omega=Omega)


def random_hyper_scalars(
    gen: np.random.Generator,
    point: ContactNordenPoint | None = None,
    with_omega: bool = False,
    derivative_free: bool = False,
) -> HyperScalars:
    """t, Omega (if asked and a point is given), then the derivatives (only theta, theta* if derivative_free)."""
    t = gen.uniform(-1.2, 1.2)
    Omega = gen.uniform(-1.0, 1.0, size=point.dim) if with_omega and point is not None else None
    if derivative_free:
        return hyper_scalars(t, (0.0, *gen.uniform(-2.0, 2.0, size=2).tolist(), 0.0, 0.0), Omega, point)
    return hyper_scalars(t, gen.uniform(-2.0, 2.0, size=5).tolist(), Omega, point)


def random_main_class_data(
    gen: np.random.Generator, n: int, fault: float = 0.0, derivative_free: bool = False
) -> MainClassData:
    point = random_contact_point(gen, n, fault=fault)
    scalars = random_hyper_scalars(gen, point, derivative_free=derivative_free)
    return MainClassData(point=point, scalars=scalars)


def random_nu_pair(gen: np.random.Generator) -> tuple[float, float]:
    return tuple(gen.uniform(-2.0, 2.0, size=2).tolist())


def random_totally_real_pair(
    gen: np.random.Generator, n_prime: int
) -> tuple[np.ndarray, np.ndarray]:
    """A random totally real plane of the standard flat ambient model.

    Drawn from the span of the "real" half-basis, where every J-pairing
    vanishes identically and the metric is +1, so the rejection test, which
    keeps the plane nondegenerate, needs only the n' x 2 coefficient block.
    """
    while True:
        coeffs = gen.uniform(-1.0, 1.0, size=(n_prime, 2))
        (xx, xy), (_, yy) = coeffs.T @ coeffs
        if abs(yy * xx - xy**2) > 0.05:
            break
    x, y = np.zeros((2, 2 * n_prime))
    x[:n_prime], y[:n_prime] = coeffs.T
    return x, y
