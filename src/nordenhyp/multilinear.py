"""Dense multilinear algebra over a fixed basis with an indefinite metric.

Covariant tensors of rank 1..4 are stored as dense numpy arrays indexed
against a fixed basis.  Dimensions stay small (d <= 9), so nothing here
tries to be clever about memory or sparsity.  The one contraction order
that matters is in the substitutions: every 4-slot substitution runs as at
most two (d^2 x d^2) matrix products instead of one unordered einsum.

Generator families are kept as Kulkarni-Nomizu factor pairs (h_i, k_i): a
combination sum_i c_i h_i o k_i is one build from them (`kulkarni_nomizu_sum`),
and a substitution moves the factors, (h o k)(Ax, Ay, Bz, Bu) = (A^T h B) o (A^T k B).

Finiteness is checked where data enters: the public `MultilinearForm`
constructor, a scalar factor, a coefficient vector, and the point and
scalar types built on this module.  Forms derived from checked forms by
arithmetic or by the kernels below are not rescanned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, DegenerateMetric, DimensionMismatch, NonFiniteInput

MAX_DIM = 9


@dataclass(frozen=True)
class Tolerance:
    """Mixed absolute/relative comparison thresholds.

    Equality is |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")

    def close(self, a, b) -> bool:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        bound = self.abs_tol + self.rel_tol * np.maximum(np.abs(a), np.abs(b))
        return bool(np.all(np.abs(a - b) <= bound))

    def ok(self, residual: float, scale: float = 1.0) -> bool:
        """Whether a residual is negligible at the given scale."""
        return abs(residual) <= self.abs_tol + self.rel_tol * abs(scale)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class MultilinearForm:
    """Dense covariant tensor of rank 1..4 over a fixed basis."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim < 1 or arr.ndim > 4:
            raise ArityMismatch(f"rank must be 1..4, got {arr.ndim}")
        if len(set(arr.shape)) != 1:
            raise DimensionMismatch(f"all axes must agree, got shape {arr.shape}")
        if arr.shape[0] > MAX_DIM:
            raise DimensionMismatch(f"dimension {arr.shape[0]} exceeds the supported {MAX_DIM}")
        require_finite(arr, "entries")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "MultilinearForm":
        """Wrap a float array derived from checked forms, skipping the entry checks."""
        form = object.__new__(cls)
        object.__setattr__(form, "entries", entries)
        return form

    @property
    def rank(self) -> int:
        return self.entries.ndim

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def evaluate(self, *args) -> float:
        """Evaluate on rank-many vectors, contracting the last slot first."""
        if len(args) != self.rank:
            raise ArityMismatch(f"expected {self.rank} vectors, got {len(args)}")
        vectors = [np.asarray(v, dtype=float) for v in args]
        for v in vectors:
            if v.shape != (self.dim,):
                raise DimensionMismatch(f"vector of length {v.shape} against dimension {self.dim}")
        out = self.entries
        for v in reversed(vectors):
            out = out @ v
        return float(out)

    __call__ = evaluate

    def __add__(self, other: "MultilinearForm") -> "MultilinearForm":
        return MultilinearForm._trusted(self.entries + other.entries)

    def __sub__(self, other: "MultilinearForm") -> "MultilinearForm":
        return MultilinearForm._trusted(self.entries - other.entries)

    def __neg__(self) -> "MultilinearForm":
        return MultilinearForm._trusted(-self.entries)

    def __mul__(self, c: float) -> "MultilinearForm":
        c = float(c)
        if not math.isfinite(c):
            raise NonFiniteInput(f"factor {c} is not finite")
        return MultilinearForm._trusted(self.entries * c)

    __rmul__ = __mul__


def require_finite(a, name: str) -> None:
    """Raise NonFiniteInput unless every entry of a is finite."""
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} must be finite")


def read_only(a) -> np.ndarray:
    """A float copy of a that refuses writes."""
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _as_square(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def _metric_eigenvalues(g, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """A validated metric candidate and the eigenvalues of its symmetric part."""
    g = _as_square(g, "metric")
    if np.max(np.abs(g - g.T)) > tol.abs_tol + tol.rel_tol * np.max(np.abs(g)):
        raise DegenerateMetric("metric is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (g + g.T))
    if np.min(np.abs(eig)) <= tol.abs_tol:
        raise DegenerateMetric("metric has an eigenvalue inside the zero band")
    return g, eig


def check_metric(g, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Validate symmetry and nondegeneracy of a metric candidate."""
    return _metric_eigenvalues(g, tol)[0]


def invert_metric(g, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a symmetric nondegenerate bilinear form."""
    g = check_metric(g, tol)
    g_inv = np.linalg.inv(g)
    return 0.5 * (g_inv + g_inv.T)


def signature(g, tol: Tolerance = DEFAULT_TOL) -> tuple[int, int]:
    """Counts (positive, negative) of eigenvalues; errors on the zero band."""
    _, eig = _metric_eigenvalues(g, tol)
    return int(np.sum(eig > 0)), int(np.sum(eig < 0))


def ricci_contract(T: MultilinearForm, g_inv) -> MultilinearForm:
    """rho(y, z) = g^{ij} T(e_i, y, z, e_j)."""
    if T.rank != 4:
        raise ArityMismatch(f"ricci_contract needs rank 4, got {T.rank}")
    g_inv = _as_square(g_inv, "inverse metric")
    return MultilinearForm._trusted(np.einsum("il,ijkl->jk", g_inv, T.entries))


def scalar_contract(rho: MultilinearForm, g_inv) -> float:
    """Full trace g^{ij} rho(e_i, e_j) of a rank-2 form."""
    if rho.rank != 2:
        raise ArityMismatch(f"scalar_contract needs rank 2, got {rho.rank}")
    g_inv = _as_square(g_inv, "inverse metric")
    return float(np.einsum("ij,ij->", g_inv, rho.entries))


def trace_endo(A) -> float:
    return float(np.trace(_as_square(A, "endomorphism")))


def trace_compose(A, B) -> float:
    """trace(A o B) for endomorphisms as matrices."""
    A = _as_square(A, "endomorphism")
    B = _as_square(B, "endomorphism")
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    return float(np.trace(A @ B))


def _kn_permute(P: np.ndarray, batch, d: int) -> np.ndarray:
    """X - X(x, y, u, z) for X(x, y, z, u) = P[(x, u), (y, z)] + P[(y, z), (x, u)]."""
    b = len(batch)
    P = P + P.swapaxes(-1, -2)
    X = P.reshape(*batch, d, d, d, d).transpose(*range(b), b, b + 2, b + 3, b + 1)
    return X - X.swapaxes(-1, -2)


def kulkarni_nomizu(h, k) -> np.ndarray:
    """Kulkarni-Nomizu product of bilinear forms, as a rank-4 array.

    (h o k)(x, y, z, u) = h(x, u) k(y, z) + h(y, z) k(x, u) - h(x, z) k(y, u) - h(y, u) k(x, z).
    h and k may carry matching leading batch axes, (..., d, d); the result
    is then (..., d, d, d, d), one product per batch entry.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    *batch, d, _ = h.shape
    return _kn_permute(h.reshape(*batch, d * d, 1) * k.reshape(*batch, 1, d * d), batch, d)


def kulkarni_nomizu_sum(h: np.ndarray, k: np.ndarray, c) -> MultilinearForm:
    """sum_i c_i (h_i o k_i) for (m, d, d) factor stacks, as one rank-4 form.

    One (d^2, m) @ (m, d^2) product, then the permutation step of `kulkarni_nomizu`;
    the four-term formula is taken as written, so the factors need not be symmetric.
    """
    c = np.asarray(c, dtype=float)
    m, d, _ = h.shape
    if c.shape != (m,) or d > MAX_DIM:
        raise DimensionMismatch(f"{m} pairs of dimension {d} (at most {MAX_DIM}), coefficients {c.shape}")
    require_finite(c, "coefficients")
    P = (h.reshape(m, d * d).T * c) @ k.reshape(m, d * d)
    return MultilinearForm._trusted(_kn_permute(P, (), d))


def generator_factors(h, k, scale) -> np.ndarray:
    """Factor pairs of the generators scale_i * (h_i o k_i), as one read-only (2, m, d, d) array.

    Row 0 holds the h_i with the scales folded in, since (s h) o k = s (h o k),
    and row 1 the k_i.  The pairs are checked for finiteness once, here.
    """
    hk = np.stack([np.asarray(h, dtype=float) * np.asarray(scale, dtype=float)[:, None, None], k])
    require_finite(hk, "generator factors")
    hk.setflags(write=False)
    return hk


def generator_stack(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Rows h_i o k_i of (m, d, d) factor pairs, flattened, as one read-only (m, d^4) array."""
    m, d, _ = h.shape
    if d > MAX_DIM:
        raise DimensionMismatch(f"dimension {d} exceeds the supported {MAX_DIM}")
    stack = kulkarni_nomizu(h, k).reshape(m, d**4)
    stack.setflags(write=False)
    return stack


def stack_rows(stack: np.ndarray) -> tuple[MultilinearForm, ...]:
    """The rows of a generator stack as rank-4 forms; read-only views, no copies."""
    d = math.isqrt(math.isqrt(stack.shape[1]))
    return tuple(MultilinearForm._trusted(row.reshape(d, d, d, d)) for row in stack)


def pair_matrix(M) -> np.ndarray:
    """M (x) M as a (p^2, q^2) matrix: entry [(i, j), (a, b)] = M[i, a] M[j, b]."""
    p, q = M.shape
    return np.multiply.outer(M, M).transpose(0, 2, 1, 3).reshape(p * p, q * q)


def substitute_pairs(T: np.ndarray, M, N) -> np.ndarray:
    """T(Mx, My, Nz, Nu) for a rank-4 array T and (p, q), (p, r) matrices M, N.

    The first slot pair and the last slot pair are each one matrix product,
    so the cost is O(p^4 (q^2 + r^2)) rather than a single O(p^4 q^2 r^2) loop.
    """
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    p, q = M.shape
    r = N.shape[1]
    flat = pair_matrix(M).T @ T.reshape(p * p, p * p) @ pair_matrix(N)
    return flat.reshape(q, q, r, r)


def substitute_endo_first_two(T: MultilinearForm, A) -> MultilinearForm:
    """T(Ax, Ay, z, u) as a rank-4 form: one (d^2 x d^2) matrix product."""
    d2 = T.dim**2
    flat = pair_matrix(_as_square(A)).T @ T.entries.reshape(d2, d2)
    return MultilinearForm._trusted(flat.reshape(T.entries.shape))


def substitute_endo_last_two(T: MultilinearForm, B) -> MultilinearForm:
    """T(x, y, Bz, Bu) as a rank-4 form: one (d^2 x d^2) matrix product."""
    d2 = T.dim**2
    flat = T.entries.reshape(d2, d2) @ pair_matrix(_as_square(B))
    return MultilinearForm._trusted(flat.reshape(T.entries.shape))


def twist_last(T: MultilinearForm, B) -> MultilinearForm:
    """T(x, y, z, Bu) as a rank-4 form."""
    B = _as_square(B)
    return MultilinearForm._trusted(T.entries @ B)
