"""Seeded random instances for the property batteries.

All randomness flows through numpy's PCG64 generator so identical seeds
reproduce identical reports across platforms.  Valid structures are built
by congruence from the standard models rather than rejection sampling:
the axioms are basis-independent, so a well-conditioned change of basis
keeps them exact.

The per-call samplers (`random_contact_point`, `random_timelike_frame`,
`random_hyper_scalars`, `random_main_class_data`) draw one instance per
call, for tests and the benchmark.  The suite reads each trial from one
row of uniform doubles (`suite._Row`): a value in [low, high) is
`uniform(u, low, high)`, the map `Generator.uniform` applies, and an index
below k (the fault entry, a normal's plane) is floor(u k); a row's size is
not drawn, as each suite loop takes its sizes in turn.  Each rejection
test is written once, in a row form that takes a fixed number of
candidate slots per row and keeps the first acceptable one
(`timelike_normals`, `totally_real_pairs`, `solver_angles`;
`random_timelike_frame` makes a one-row call); the counts are set from
the measured rejection rates so that a row with none is rarer than 1e-15,
and such a row raises `NoAcceptableCandidate` instead of drawing again.

A contact point is drawn (`PointDraw`) apart from being built
(`contact_point`, `hyper_scalars`, a frame over the standard ambient), so a
stack of draws builds a batched point.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .complex_norden import ComplexNordenPoint
from .contact_norden import ContactNordenPoint
from .errors import NoAcceptableCandidate
from .hypersurface import HyperScalars, TimelikeNormalFrame
from .multilinear import dot, per_entry


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def uniform(u, low: float, high: float):
    """Doubles u in [0, 1) mapped to [low, high), as `Generator.uniform` maps its draws."""
    return low + (high - low) * u


# Candidate slots per row for each rejection sampler: the least K with r**K < 1e-15 for
# the largest rejection rate r measured at the sizes the suite draws (4e6 tries each).
PAIR_CANDIDATES = 37  # totally real pair: r = 0.387 at n' = 2, 0.079 at 3, 0.011 at 4
NORMAL_CANDIDATES = 11  # time-like normal: r = 0.040 to 0.041 at n' = 2..5
RADICAND_CANDIDATES = 11  # solver radicand: r = 0.042


def _first_accepted(ok: np.ndarray, what: str) -> np.ndarray:
    """The index of each row's first True in ok (B, K): its first acceptable candidate."""
    k = ok.argmax(axis=1)
    if not ok[np.arange(len(ok)), k].all():
        raise NoAcceptableCandidate(f"no acceptable {what} among {ok.shape[1]} candidates")
    return k


# The draws behind one random contact point: the raw congruence block U of
# S = I + 0.3 U, and the phi entry a fault perturbs (None unfaulted).
PointDraw = namedtuple("PointDraw", "U entry")


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
    """Congruence-randomized standard contact point; fault perturbs phi.  Draws the raw block U,
    then (if fault) the entry."""
    d = 2 * n + 1
    U = gen.uniform(-1.0, 1.0, size=(d, d))
    return contact_point(n, PointDraw(U, gen.integers(0, d, size=2) if fault else None), fault)


def random_timelike_frame(
    gen: np.random.Generator, n_prime: int, fault: float = 0.0
) -> TimelikeNormalFrame:
    """Standard flat ambient with a random time-like unit normal, plus fault in every entry: the
    `timelike_normals` normal of one row of NORMAL_CANDIDATES candidates."""
    N = timelike_normals(gen.random((1, NORMAL_CANDIDATES, 2 + 2 * n_prime)), n_prime, fault)[0]
    return TimelikeNormalFrame(ambient=ComplexNordenPoint.standard(n_prime), N=N)


def timelike_normals(u: np.ndarray, n_prime: int, fault: float = 0.0) -> np.ndarray:
    """(B, 2n') time-like unit normals from candidate slots u (B, K, 2 + 2m), m >= n': per candidate
    the index i = floor(u n'), s, and 2n' entries of a small tangential part added to the sinh-
    parameterized {a_i, Ja_i}-plane normal; the first candidate whose square is below -0.1 is
    normalized.  The square is summed entry by entry in order, as a loop over one vector sums it."""
    i = (u[..., 0] * n_prime).astype(np.intp)
    s = uniform(u[..., 1], -1.2, 1.2)
    v = 0.3 * uniform(u[..., 2:2 + 2 * n_prime], -1.0, 1.0)
    at = (*np.indices(i.shape, sparse=True), i)
    v[at] += np.sinh(s)
    v[at[:-1] + (i + n_prime,)] += np.cosh(s)
    sq = sum(g * v[..., j] * v[..., j] for j, g in enumerate(np.diag(ComplexNordenPoint.standard(n_prime).g)))
    k = _first_accepted(sq < -0.1, "time-like normal")
    rows = np.arange(len(u))
    N = v[rows, k] / np.sqrt(-sq[rows, k])[:, None]
    return N + fault if fault else N


def totally_real_pairs(u: np.ndarray, n_prime: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, 2n') totally real pairs x, y from candidate slots u (B, K, 2m), m >= n': per candidate an
    n' x 2 coefficient block over the "real" half-basis, where every J-pairing vanishes and the
    metric is +1, so the block decides nondegeneracy; the first nondegenerate one wins."""
    c = uniform(u[..., :2 * n_prime], -1.0, 1.0).reshape(*u.shape[:2], n_prime, 2)
    a, b = np.moveaxis(c, -1, 0)
    xx, xy, yy = (np.einsum("...i,...i->...", p, q) for p, q in ((a, a), (a, b), (b, b)))  # the Gram block
    k = _first_accepted(np.abs(yy * xx - xy**2) > 0.05, "totally real pair")
    x, y = np.zeros((2, len(u), 2 * n_prime))
    x[:, :n_prime], y[:, :n_prime] = np.moveaxis(c[np.arange(len(u)), k], -1, 0)
    return x, y


def solver_angles(u: np.ndarray) -> np.ndarray:
    """(B, 3) rows (nu, nu~, t) from candidate slots u (B, K, 3): the first candidate whose
    solver radicand nu cos t - nu~ sin t + |(nu, nu~)| is safely positive."""
    nu, nut, t = uniform(u[..., 0], -2.0, 2.0), uniform(u[..., 1], -2.0, 2.0), uniform(u[..., 2], -1.2, 1.2)
    k = _first_accepted(nu * np.cos(t) - nut * np.sin(t) + np.hypot(nu, nut) >= 0.01, "solver radicand")
    rows = np.arange(len(u))
    return np.stack([nu[rows, k], nut[rows, k], t[rows, k]], axis=-1)


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
) -> tuple[ContactNordenPoint, HyperScalars]:
    """A main-class input (point, scalars): a random contact point, then its scalars."""
    point = random_contact_point(gen, n, fault=fault)
    return point, random_hyper_scalars(gen, point, derivative_free=derivative_free)
