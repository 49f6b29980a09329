"""Per-call samplers that only the tests draw from: one random instance per call, from a numpy
generator, on top of the library's own samplers in `nordenhyp.sampling`."""
from __future__ import annotations

import numpy as np

from nordenhyp.complex_norden import ComplexNordenPoint
from nordenhyp.sampling import PAIR_CANDIDATES, totally_real_pairs


def random_congruence(gen: np.random.Generator, d: int, scale: float = 0.3) -> np.ndarray:
    """Well-conditioned random basis change: identity plus a small perturbation."""
    return np.eye(d) + scale * gen.uniform(-1.0, 1.0, size=(d, d))


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


def random_nu_pair(gen: np.random.Generator) -> tuple[float, float]:
    return tuple(gen.uniform(-2.0, 2.0, size=2).tolist())


def random_totally_real_pair(
    gen: np.random.Generator, n_prime: int
) -> tuple[np.ndarray, np.ndarray]:
    """A random totally real plane of the standard flat ambient model: the `totally_real_pairs`
    pair of one row of PAIR_CANDIDATES candidates."""
    x, y = totally_real_pairs(gen.random((1, PAIR_CANDIDATES, 2 * n_prime)), n_prime)
    return x[0], y[0]
