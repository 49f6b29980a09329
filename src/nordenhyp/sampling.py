"""Seeded random instances for the property batteries.

All randomness flows through numpy's PCG64 generator so identical seeds
reproduce identical reports across platforms.  Valid structures are built
by congruence from the standard models rather than rejection sampling:
the axioms are basis-independent, so a well-conditioned change of basis
keeps them exact.

A contact point, its scalars and a time-like normal are drawn
(`draw_point`, `draw_scalars`, `draw_normal`) apart from being built
(`contact_point`, `hyper_scalars`, a frame over the standard ambient), so a
battery can draw every trial in order first and then build each group of
trials as one batch: `stack` turns per-trial draws into one batched draw.
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


# The draws behind one random contact point: the congruence S, and the phi
# entry a fault perturbs (None unfaulted); behind one HyperScalars, its fields
# in order, with Omega not yet projected onto ker eta.
PointDraw = namedtuple("PointDraw", "S entry")
ScalarDraw = namedtuple("ScalarDraw", "t dt_xi theta_xi theta_star_xi xi_theta_xi xi_theta_star_xi Omega")


def stack(draws):
    """Per-trial draws of one kind, stacked field by field along a new leading batch axis."""
    return type(draws[0])(*(None if col[0] is None else np.array(col) for col in zip(*draws)))


def draw_point(gen: np.random.Generator, n: int, fault: float = 0.0) -> PointDraw:
    d = 2 * n + 1
    S = random_congruence(gen, d)
    return PointDraw(S, gen.integers(0, d, size=2) if fault else None)


def contact_point(n: int, draw: PointDraw, fault: float = 0.0) -> ContactNordenPoint:
    """standard(n) in the basis draw.S, with fault added to phi at draw.entry; a stacked draw gives a batch."""
    point = ContactNordenPoint.standard(n).congruence(draw.S)
    if draw.entry is None:
        return point
    phi = np.array(point.phi)
    phi[(*np.indices(point.batch, sparse=True), draw.entry[..., 0], draw.entry[..., 1])] += fault
    return ContactNordenPoint(n, point.g, phi, point.xi, point.eta)


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
    square is safely negative.
    """
    ambient = ComplexNordenPoint.standard(n_prime)
    g = ambient.g
    while True:
        i = int(gen.integers(0, n_prime))
        s = gen.uniform(-1.2, 1.2)
        v = np.zeros(ambient.dim)
        v[i] = np.sinh(s)
        v[n_prime + i] = np.cosh(s)
        v = v + 0.3 * gen.uniform(-1.0, 1.0, size=ambient.dim)
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


def draw_scalars(
    gen: np.random.Generator, omega_dim: int | None = None, derivative_free: bool = False
) -> ScalarDraw:
    """t, an Omega of omega_dim entries (if given), then dt, theta, theta*, xi.theta, xi.theta*
    (0.0 and not drawn for the derivatives if derivative_free); one call of k values draws as k calls."""
    t = float(gen.uniform(-1.2, 1.2))
    Omega = None if omega_dim is None else gen.uniform(-1.0, 1.0, size=omega_dim)
    if derivative_free:
        return ScalarDraw(t, 0.0, *gen.uniform(-2.0, 2.0, size=2).tolist(), 0.0, 0.0, Omega)
    return ScalarDraw(t, *gen.uniform(-2.0, 2.0, size=5).tolist(), Omega)


def hyper_scalars(draw: ScalarDraw, point: ContactNordenPoint | None = None) -> HyperScalars:
    """The scalars of a draw, with Omega projected onto ker eta of the point; a stacked draw gives a batch."""
    Omega = draw.Omega
    if Omega is not None:
        Omega = Omega - per_entry(dot(point.eta, Omega), 1) * point.xi
    return HyperScalars(*draw[:-1], Omega=Omega)


def random_hyper_scalars(
    gen: np.random.Generator,
    point: ContactNordenPoint | None = None,
    with_omega: bool = False,
    derivative_free: bool = False,
) -> HyperScalars:
    omega_dim = point.dim if with_omega and point is not None else None
    return hyper_scalars(draw_scalars(gen, omega_dim, derivative_free), point)


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
    vanishes identically; rejection keeps the plane nondegenerate.
    """
    ambient = ComplexNordenPoint.standard(n_prime)
    g = ambient.g
    while True:
        coeffs = gen.uniform(-1.0, 1.0, size=(n_prime, 2))
        x = np.zeros(ambient.dim)
        y = np.zeros(ambient.dim)
        x[:n_prime] = coeffs[:, 0]
        y[:n_prime] = coeffs[:, 1]
        area = (y @ g @ y) * (x @ g @ x) - (x @ g @ y) ** 2
        if abs(area) > 0.05:
            return x, y
