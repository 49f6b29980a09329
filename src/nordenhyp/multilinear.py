"""Dense multilinear algebra over a fixed basis with an indefinite metric.

Covariant tensors of rank 1..4 are stored as dense numpy arrays indexed
against a fixed basis.  Dimensions stay small (d <= 9), so nothing here
tries to be clever about memory or sparsity.  The one contraction order
that matters is in the substitutions: every 4-slot substitution runs as at
most two (d^2 x d^2) matrix products instead of one unordered einsum.

Generator families are kept as Kulkarni-Nomizu factor pairs (h_i, k_i), and
`kulkarni_nomizu_sum` is the one place a product is formed: a combination
sum_i c_i h_i o k_i is one build from the pairs, a single generator is the build
of a unit vector, and a substitution moves the factors,
(h o k)(Ax, Ay, Bz, Bu) = (A^T h B) o (A^T k B).

Finiteness is checked where data enters: the public `MultilinearForm`
constructor, a coefficient vector, and the point and
scalar types built on this module.  Forms derived from checked forms by
arithmetic or by the kernels below are not rescanned.

Batch axis: a form, a matrix or a vector may carry leading batch axes, one
independent tangent space per entry, and every kernel below broadcasts over
them; the unbatched call is the same code with no batch axis.  Reductions
that give one number per tangent space return an array when batched and a
float (numpy float64) when not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, DegenerateMetric, DimensionMismatch, NonFiniteInput

MAX_DIM = 9


@dataclass(frozen=True)
class Tolerance:
    """Mixed absolute/relative thresholds: a residual r at scale s is negligible when
    |r| <= abs_tol + rel_tol * |s| (`ok`).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")

    def ok(self, residual, scale=1.0) -> np.bool_ | np.ndarray:
        """Whether a residual is negligible at the given scale, per entry of an array; NaN is not."""
        return np.abs(residual) <= self.abs_tol + self.rel_tol * np.abs(scale)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class MultilinearForm:
    """Dense covariant tensor of rank 1..4 over a fixed basis.

    The first `batch` axes of entries are batch axes, one form per entry;
    rank, dim and max_norm refer to the remaining axes.
    """

    entries: np.ndarray
    batch: int = 0

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        shape = arr.shape[self.batch:]
        if not 1 <= len(shape) <= 4:
            raise ArityMismatch(f"rank must be 1..4, got {len(shape)}")
        if len(set(shape)) != 1:
            raise DimensionMismatch(f"all axes must agree, got shape {shape}")
        if shape[0] > MAX_DIM:
            raise DimensionMismatch(f"dimension {shape[0]} exceeds the supported {MAX_DIM}")
        require_finite(arr, "entries")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _trusted(cls, entries: np.ndarray, batch: int = 0) -> "MultilinearForm":
        """Wrap a float array derived from checked forms, skipping the entry checks."""
        form = object.__new__(cls)
        object.__setattr__(form, "entries", entries)
        object.__setattr__(form, "batch", batch)
        return form

    @property
    def rank(self) -> int:
        return self.entries.ndim - self.batch

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    @property
    def max_norm(self) -> float | np.ndarray:
        return np.abs(self.entries).max(axis=tuple(range(self.batch, self.entries.ndim)) if self.batch else None)

    def evaluate(self, *args) -> float | np.ndarray:
        """Evaluate on rank-many vectors; batch axes of the form and of the (..., d) vectors broadcast."""
        if len(args) != self.rank:
            raise ArityMismatch(f"expected {self.rank} vectors, got {len(args)}")
        d = self.dim
        vectors = [np.asarray(v, dtype=float) for v in args]
        try:
            np.broadcast_shapes(self.entries.shape[: self.batch], *(v.shape[:-1] for v in vectors))
        except ValueError:
            raise DimensionMismatch(f"vector batch shapes {[v.shape for v in vectors]} against the form's") from None
        for v in vectors:
            if v.shape[-1:] != (d,):
                raise DimensionMismatch(f"vector of shape {v.shape} against dimension {d}")
        out = self.entries.reshape(*self.entries.shape[: self.batch], -1)
        for v in reversed(vectors):  # the last slot first: (..., m, d) @ (..., d, 1), slots in front flattened
            out = (out.reshape(*out.shape[:-1], -1, d) @ v[..., None])[..., 0]
        return out[..., 0][()]

    __call__ = evaluate

    def _wrap(self, entries: np.ndarray, rank: int | None = None) -> "MultilinearForm":
        """A form of this rank (or the given one) whose leading axes, whatever broadcasting left, are batch axes."""
        return MultilinearForm._trusted(entries, entries.ndim - (rank or self.rank))

    def __add__(self, other: "MultilinearForm") -> "MultilinearForm":
        return self._wrap(self.entries + other.entries)

    def __sub__(self, other: "MultilinearForm") -> "MultilinearForm":
        return self._wrap(self.entries - other.entries)


def require_finite(a, name: str) -> None:
    """Raise NonFiniteInput unless every entry of a is finite."""
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} must be finite")


def require_length(v: np.ndarray, d: int, name: str) -> None:
    """Raise DimensionMismatch unless v is a vector, or a stack of vectors, of length d."""
    if v.shape[-1:] != (d,):
        raise DimensionMismatch(f"{name} must have length {d}, got shape {v.shape}")


def read_only(a) -> np.ndarray:
    """A float copy of a that refuses writes."""
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _as_square(m, name: str = "matrix") -> np.ndarray:
    """m as a float (..., d, d) array: a square matrix, or a stack of them."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def per_entry(c, ndim: int):
    """One scalar per batch entry, shaped to broadcast over ndim trailing axes; a plain scalar stays as it is."""
    return c.reshape(c.shape + (1,) * ndim) if isinstance(c, np.ndarray) else c


def any_entry(mask) -> bool:
    """Whether a boolean scalar, or any entry of a boolean batch, is true (cheap on numpy scalars)."""
    return np.count_nonzero(mask) > 0


def transpose(m: np.ndarray) -> np.ndarray:
    """The transpose of each matrix in a (..., p, q) stack."""
    return m.swapaxes(-1, -2)


def matrix_max(m) -> float | np.ndarray:
    """Max-norm of each matrix in a (..., p, q) stack."""
    return np.abs(m).max(axis=(-2, -1))


def _metric_eigenvalues(g, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """A validated metric candidate and the eigenvalues of its symmetric part, per batch entry."""
    g = _as_square(g, "metric")
    if not tol.ok(matrix_max(g - transpose(g)), matrix_max(g)).all():
        raise DegenerateMetric("metric is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (g + transpose(g)))
    if np.min(np.abs(eig)) <= tol.abs_tol:
        raise DegenerateMetric("metric has an eigenvalue inside the zero band")
    return g, eig


def invert_metric(g, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a symmetric nondegenerate bilinear form, checked as such first."""
    g, _ = _metric_eigenvalues(g, tol)
    g_inv = np.linalg.inv(g)
    return 0.5 * (g_inv + transpose(g_inv))


def signature(g, tol: Tolerance = DEFAULT_TOL):
    """Counts (positive, negative) of eigenvalues, per batch entry; errors if any entry meets the zero band."""
    _, eig = _metric_eigenvalues(g, tol)
    return np.count_nonzero(eig > 0, axis=-1), np.count_nonzero(eig < 0, axis=-1)


def ricci_contract(T: MultilinearForm, g_inv) -> MultilinearForm:
    """rho(y, z) = g^{ij} T(e_i, y, z, e_j)."""
    if T.rank != 4:
        raise ArityMismatch(f"ricci_contract needs rank 4, got {T.rank}")
    g_inv = _as_square(g_inv, "inverse metric")
    return T._wrap(np.einsum("...il,...ijkl->...jk", g_inv, T.entries), rank=2)


def scalar_contract(rho: MultilinearForm, g_inv) -> float | np.ndarray:
    """Full trace g^{ij} rho(e_i, e_j) of a rank-2 form."""
    if rho.rank != 2:
        raise ArityMismatch(f"scalar_contract needs rank 2, got {rho.rank}")
    g_inv = _as_square(g_inv, "inverse metric")
    return (g_inv * rho.entries).sum(axis=(-2, -1))


def trace_endo(A) -> float | np.ndarray:
    return _as_square(A, "endomorphism").diagonal(0, -2, -1).sum(-1)


def trace_compose(A, B) -> float | np.ndarray:
    """trace(A o B) for endomorphisms as matrices."""
    A = _as_square(A, "endomorphism")
    B = _as_square(B, "endomorphism")
    if A.shape[-1] != B.shape[-1]:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    return np.einsum("...ij,...ji->...", A, B)


def dot(x, y) -> float | np.ndarray:
    """x . y for (..., d) vectors."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def apply(M, v) -> np.ndarray:
    """M v for a (..., p, q) matrix and (..., q) vectors."""
    return (M @ v[..., None])[..., 0]


def bilinear(g, x, y) -> float | np.ndarray:
    """g(x, y) for a (..., d, d) matrix and (..., d) vectors."""
    return (x[..., None, :] @ g @ y[..., :, None])[..., 0, 0]


def rows(*vectors) -> np.ndarray:
    """k (..., d) vectors as the rows of one (..., k, d) array."""
    return np.array(vectors, dtype=float).swapaxes(0, -2)


def pairings(g, x, y, z, u) -> np.ndarray:
    """[[g(x, z), g(x, u)], [g(y, z), g(y, u)]] as one (2, d) @ g @ (d, 2) product per batch entry."""
    V = rows(x, y, z, u)
    return V[..., :2, :] @ g @ transpose(V[..., 2:, :])


def area_factor(g, x, y, z, u) -> float | np.ndarray:
    """g(y, z) g(x, u) - g(x, z) g(y, u), the pi_1 value; (x, y, y, x) gives a plane's area factor."""
    M = pairings(g, x, y, z, u)
    return M[..., 1, 0] * M[..., 0, 1] - M[..., 0, 0] * M[..., 1, 1]


def kulkarni_nomizu_sum(h: np.ndarray, k: np.ndarray, c) -> MultilinearForm:
    """sum_i c_i (h_i o k_i) for (..., m, d, d) factor stacks, as one rank-4 form.

    (h o k)(x, y, z, u) = h(x, u) k(y, z) + h(y, z) k(x, u) - h(x, z) k(y, u) - h(y, u) k(x, z),
    taken as written, so the factors need not be symmetric.  One (d^2, m) @ (m, d^2)
    product per batch entry, then one permutation step.  The (..., m) coefficients
    broadcast against the batch, so c of shape (r, 1, ..., 1, m) builds r forms per
    batch entry on a new leading axis; unit vectors give the single generators.
    """
    c = np.asarray(c, dtype=float)
    *batch, m, d, _ = h.shape
    if c.shape[-1:] != (m,) or d > MAX_DIM:
        raise DimensionMismatch(f"{m} pairs of dimension {d} (at most {MAX_DIM}), coefficients {c.shape}")
    require_finite(c, "coefficients")
    P = (h.reshape(*batch, m, d * d).swapaxes(-1, -2) * c[..., None, :]) @ k.reshape(*batch, m, d * d)
    # the permutation step: X - X(x, y, u, z) for X(x, y, z, u) = P[(x, u), (y, z)] + P[(y, z), (x, u)]
    b = P.ndim - 2
    P = P + P.swapaxes(-1, -2)
    X = P.reshape(*P.shape[:-2], d, d, d, d).transpose(*range(b), b, b + 2, b + 3, b + 1)
    return MultilinearForm._trusted(X - X.swapaxes(-1, -2), b)


def generator_factors(h, k, scale) -> np.ndarray:
    """Factor pairs of the generators scale_i * (h_i o k_i), as one read-only (2, ..., m, d, d) array.

    h and k are sequences of m (..., d, d) matrices.  Row 0 holds the h_i with
    the scales folded in, since (s h) o k = s (h o k), and row 1 the k_i.  The
    pairs are checked for finiteness once, here.
    """
    hk = np.array([h, k], dtype=float)  # (2, m, ..., d, d)
    hk[0] *= np.reshape(scale, (-1,) + (1,) * (hk.ndim - 2))
    hk = np.ascontiguousarray(np.moveaxis(hk, 1, -3)) if hk.ndim > 4 else hk
    require_finite(hk, "generator factors")
    hk.setflags(write=False)
    return hk


def pair_matrix(M) -> np.ndarray:
    """M (x) M as a (..., p^2, q^2) matrix: entry [(i, j), (a, b)] = M[i, a] M[j, b]."""
    *batch, p, q = M.shape
    return (M[..., :, None, :, None] * M[..., None, :, None, :]).reshape(*batch, p * p, q * q)


def substitute_pairs(T: np.ndarray, M, N) -> np.ndarray:
    """T(Mx, My, Nz, Nu) for a (..., p, p, p, p) array T and (..., p, q), (..., p, r) matrices M, N.

    The first slot pair and the last slot pair are each one matrix product,
    so the cost is O(p^4 (q^2 + r^2)) rather than a single O(p^4 q^2 r^2) loop.
    When N is M, M (x) M is built once.
    """
    q, r = np.shape(M)[-1], np.shape(N)[-1]
    M_pairs = pair_matrix(np.asarray(M, dtype=float))
    N_pairs = M_pairs if N is M else pair_matrix(np.asarray(N, dtype=float))
    p2 = M_pairs.shape[-2]
    flat = transpose(M_pairs) @ T.reshape(*T.shape[:-4], p2, p2) @ N_pairs
    return flat.reshape(*flat.shape[:-2], q, q, r, r)


def substitute_endo_first_two(T: MultilinearForm, A) -> MultilinearForm:
    """T(Ax, Ay, z, u) as a rank-4 form: one (d^2 x d^2) matrix product."""
    d2 = T.dim**2
    flat = transpose(pair_matrix(_as_square(A))) @ T.entries.reshape(*T.entries.shape[:-4], d2, d2)
    return T._wrap(flat.reshape(flat.shape[:-2] + T.entries.shape[-4:]))


def substitute_endo_last_two(T: MultilinearForm, B) -> MultilinearForm:
    """T(x, y, Bz, Bu) as a rank-4 form: one (d^2 x d^2) matrix product."""
    d2 = T.dim**2
    flat = T.entries.reshape(*T.entries.shape[:-4], d2, d2) @ pair_matrix(_as_square(B))
    return T._wrap(flat.reshape(flat.shape[:-2] + T.entries.shape[-4:]))


def twist_last(T: MultilinearForm, B) -> MultilinearForm:
    """T(x, y, z, Bu) as a rank-4 form."""
    B = _as_square(B)
    return T._wrap(T.entries @ B[..., None, None, :, :])
