import itertools

import numpy as np
import pytest

from nordenhyp.errors import ArityMismatch, DegenerateMetric, DimensionMismatch, NonFiniteInput
from nordenhyp.multilinear import (
    MAX_DIM,
    MultilinearForm,
    Tolerance,
    generator_factors,
    invert_metric,
    kulkarni_nomizu_sum,
    ricci_contract,
    scalar_contract,
    signature,
    substitute_endo_first_two,
    substitute_endo_last_two,
    substitute_pairs,
    trace_compose,
    trace_endo,
    twist_last,
)


def brute_ricci(T, g_inv):
    """Loop-level oracle for the double-index contraction."""
    d = T.shape[0]
    out = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            out[j, k] = sum(g_inv[i, l] * T[i, j, k, l] for i in range(d) for l in range(d))
    return out


def brute_substitute_entry(T, M, N, a, b, c, e):
    """Loop-level oracle for one entry: sum T[i, j, k, l] M[i, a] M[j, b] N[k, c] N[l, e]."""
    p = T.shape[0]
    return sum(
        T[i, j, k, l] * M[i, a] * M[j, b] * N[k, c] * N[l, e]
        for i, j, k, l in itertools.product(range(p), repeat=4)
    )


def assert_matches_oracle(got, T, M, N, indices):
    for idx in indices:
        assert got[idx] == pytest.approx(brute_substitute_entry(T, M, N, *idx), rel=0, abs=1e-12)


class TestMultilinearForm:
    def test_rank_and_dim(self, gen):
        ent = gen.uniform(-1, 1, size=(4, 4, 4))
        f = MultilinearForm(ent)
        assert f.rank == 3
        assert f.dim == 4
        assert f.max_norm == np.max(np.abs(ent))

    def test_rank_bounds(self):
        with pytest.raises(ArityMismatch):
            MultilinearForm(np.zeros((2, 2, 2, 2, 2)))
        with pytest.raises(ArityMismatch):
            MultilinearForm(np.array(3.0))

    def test_ragged_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            MultilinearForm(np.zeros((3, 4)))

    def test_max_dim(self):
        MultilinearForm(np.zeros(MAX_DIM))
        with pytest.raises(DimensionMismatch):
            MultilinearForm(np.zeros(MAX_DIM + 1))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MultilinearForm(np.array([1.0, np.inf]))

    def test_evaluate_multilinearity(self, gen):
        f = MultilinearForm(gen.uniform(-1, 1, size=(3, 3)))
        x, y, z = (gen.uniform(-1, 1, size=3) for _ in range(3))
        a, b = 0.7, -2.1
        lhs = f.evaluate(a * x + b * y, z)
        assert lhs == pytest.approx(a * f(x, z) + b * f(y, z), abs=1e-12)

    def test_evaluate_arity_guard(self):
        f = MultilinearForm(np.zeros((3, 3)))
        with pytest.raises(ArityMismatch):
            f.evaluate(np.zeros(3))
        with pytest.raises(DimensionMismatch):
            f.evaluate(np.zeros(3), np.zeros(4))

    def test_vector_space_ops(self, gen):
        a = MultilinearForm(gen.uniform(-1, 1, size=(3, 3)))
        b = MultilinearForm(gen.uniform(-1, 1, size=(3, 3)))
        assert np.allclose((a + b).entries, a.entries + b.entries)
        assert np.allclose((a - b).entries, a.entries - b.entries)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_evaluate_matches_loop_contraction(self, gen, rank):
        d = 4
        T = gen.uniform(-1, 1, size=(d,) * rank)
        vs = [gen.uniform(-1, 1, size=d) for _ in range(rank)]
        want = 0.0
        for idx in itertools.product(range(d), repeat=rank):
            term = T[idx]
            for v, i in zip(vs, idx):
                term *= v[i]
            want += term
        assert MultilinearForm(T).evaluate(*vs) == pytest.approx(want, rel=0, abs=1e-12)


class TestTolerance:
    def test_close_mixed(self):
        tol = Tolerance(abs_tol=1e-10, rel_tol=1e-9)
        assert tol.ok(1e-10)
        assert not tol.ok(1e-6)
        assert tol.ok(1e-4, scale=1e6)
        assert not tol.ok(1e-2, scale=1e6)
        assert not tol.ok(np.nan)
        np.testing.assert_array_equal(tol.ok(np.array([1e-10, -1e-6, np.nan]), np.array([1.0, 1e6, 1.0])),
                                      [True, True, False])

    def test_positive_required(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_required(self, bad):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=bad)
        with pytest.raises(ValueError):
            Tolerance(rel_tol=bad)


class TestMetricOps:
    def test_invert_round_trip(self, gen):
        g = np.diag([1.0, -1.0, 1.0, -2.0])
        assert np.allclose(invert_metric(g) @ g, np.eye(4))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMetric):
            invert_metric(np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(DegenerateMetric):
            invert_metric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_signature(self):
        assert signature(np.diag([1.0, 1.0, -1.0])) == (2, 1)
        assert signature(np.diag([-1.0, -1.0])) == (0, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signature_of_standard_points(self, n):
        from nordenhyp.complex_norden import ComplexNordenPoint
        from nordenhyp.contact_norden import ContactNordenPoint

        assert signature(ContactNordenPoint.standard(n).g) == (n + 1, n)
        assert signature(ComplexNordenPoint.standard(n).g) == (n, n)

    def test_signature_rejects_zero_band(self):
        with pytest.raises(DegenerateMetric):
            signature(np.diag([1.0, 0.0, -1.0]))
        with pytest.raises(DegenerateMetric):
            signature(np.diag([1.0, 1e-12, -1.0]))


class TestContractions:
    def test_ricci_against_bruteforce(self, gen):
        T = gen.uniform(-1, 1, size=(3, 3, 3, 3))
        g = np.diag([1.0, -1.0, 1.0])
        g_inv = invert_metric(g)
        got = ricci_contract(MultilinearForm(T), g_inv)
        assert np.allclose(got.entries, brute_ricci(T, g_inv))

    def test_scalar_against_bruteforce(self, gen):
        rho = gen.uniform(-1, 1, size=(3, 3))
        g_inv = invert_metric(np.diag([1.0, -1.0, 2.0]))
        want = sum(g_inv[i, j] * rho[i, j] for i in range(3) for j in range(3))
        assert scalar_contract(MultilinearForm(rho), g_inv) == pytest.approx(want)

    def test_rank_guards(self):
        with pytest.raises(ArityMismatch):
            ricci_contract(MultilinearForm(np.zeros((2, 2))), np.eye(2))
        with pytest.raises(ArityMismatch):
            scalar_contract(MultilinearForm(np.zeros((2, 2, 2))), np.eye(2))

    def test_traces(self, gen):
        A = gen.uniform(-1, 1, size=(4, 4))
        B = gen.uniform(-1, 1, size=(4, 4))
        assert trace_endo(A) == pytest.approx(np.trace(A))
        assert trace_compose(A, B) == pytest.approx(np.trace(A @ B))
        with pytest.raises(DimensionMismatch):
            trace_compose(A, np.eye(3))

    def test_substitutions_pointwise(self, gen):
        T = MultilinearForm(gen.uniform(-1, 1, size=(3, 3, 3, 3)))
        A = gen.uniform(-1, 1, size=(3, 3))
        x, y, z, u = (gen.uniform(-1, 1, size=3) for _ in range(4))
        first = substitute_endo_first_two(T, A)
        assert first(x, y, z, u) == pytest.approx(T(A @ x, A @ y, z, u))
        last = substitute_endo_last_two(T, A)
        assert last(x, y, z, u) == pytest.approx(T(x, y, A @ z, A @ u))
        tw = twist_last(T, A)
        assert tw(x, y, z, u) == pytest.approx(T(x, y, z, A @ u))


class TestSubstitutePairs:
    @pytest.mark.parametrize("n_prime", [2, 3])
    def test_rectangular_pullback(self, gen, n_prime):
        p, q = 2 * n_prime, 2 * n_prime - 1
        T = gen.uniform(-1, 1, size=(p, p, p, p))
        B = gen.uniform(-1, 1, size=(p, q))
        got = substitute_pairs(T, B, B)
        assert got.shape == (q, q, q, q)
        # one B (x) B serves both slot pairs when N is M: the same bits as two builds
        np.testing.assert_array_equal(got, substitute_pairs(T, B, B.copy()))
        indices = list(itertools.product(range(q), repeat=4))
        if n_prime == 3:  # 625 entries of 1296 terms each: check a sample
            indices = [tuple(gen.integers(0, q, size=4)) for _ in range(40)]
        assert_matches_oracle(got, T, B, B, indices)

    @pytest.mark.parametrize("d", [3, 9])
    def test_square_maps(self, gen, d):
        T = gen.uniform(-1, 1, size=(d, d, d, d))
        A = gen.uniform(-1, 1, size=(d, d))
        eye = np.eye(d)
        first = substitute_endo_first_two(MultilinearForm(T), A).entries
        last = substitute_endo_last_two(MultilinearForm(T), A).entries
        if d == 3:
            indices = list(itertools.product(range(d), repeat=4))
        else:  # d^8 terms in all: check a sample of entries
            indices = [tuple(gen.integers(0, d, size=4)) for _ in range(10)]
        assert_matches_oracle(first, T, A, eye, indices)
        assert_matches_oracle(last, T, eye, A, indices)


def loop_kulkarni_nomizu(h, k):
    """(h o k)(x, y, z, u) = h(x, u) k(y, z) + h(y, z) k(x, u) - h(x, z) k(y, u) - h(y, u) k(x, z)."""
    d = h.shape[0]
    out = np.zeros((d, d, d, d))
    for i, j, k_, l in itertools.product(range(d), repeat=4):
        out[i, j, k_, l] = (
            h[i, l] * k[j, k_] + h[j, k_] * k[i, l] - h[i, k_] * k[j, l] - h[j, l] * k[i, k_]
        )
    return out


def broadcast_kulkarni_nomizu(h, k):
    """The product as four broadcast terms in the (x, y, z, u) layout, batch axes leading."""
    X = h[..., :, None, None, :] * k[..., None, :, :, None]
    X += k[..., :, None, None, :] * h[..., None, :, :, None]
    return X - X.swapaxes(-1, -2)


def random_symmetric(gen, *shape):
    a = gen.uniform(-1, 1, size=shape)
    return a + np.swapaxes(a, -1, -2)


def single_kulkarni_nomizu(h, k):
    """h o k for (..., d, d) factors, as the build of one pair with coefficient 1."""
    return kulkarni_nomizu_sum(h[..., None, :, :], k[..., None, :, :], (1.0,)).entries


class TestGeneratorStack:
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_batched_kn_equals_per_pair(self, gen, d):
        """The unit vectors of a family give its pairs' products, one per row, as the single builds."""
        h, k = random_symmetric(gen, 4, d, d), random_symmetric(gen, 4, d, d)
        rows = kulkarni_nomizu_sum(h, k, np.eye(4)).entries
        assert rows.shape == (4, d, d, d, d)
        for m in range(4):
            single = single_kulkarni_nomizu(h[m], k[m])
            assert np.array_equal(rows[m], single)
            assert np.allclose(single, loop_kulkarni_nomizu(h[m], k[m]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("batch", [(4,), (2, 3)], ids=["one-axis", "two-axis"])
    @pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
    def test_multi_batched_kn_equals_per_pair(self, gen, d, batch):
        h, k = random_symmetric(gen, *batch, d, d), random_symmetric(gen, *batch, d, d)
        batched = single_kulkarni_nomizu(h, k)
        assert batched.shape == (*batch, d, d, d, d)
        for m in np.ndindex(*batch):
            single = single_kulkarni_nomizu(h[m], k[m])
            assert np.array_equal(batched[m], single)
            assert np.allclose(single, loop_kulkarni_nomizu(h[m], k[m]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("batch", [(), (5,), (2, 3)], ids=["unbatched", "one-axis", "two-axis"])
    @pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
    def test_kn_bitwise_equals_broadcast_formula(self, gen, d, batch):
        h, k = random_symmetric(gen, *batch, d, d), random_symmetric(gen, *batch, d, d)
        assert np.array_equal(single_kulkarni_nomizu(h, k), broadcast_kulkarni_nomizu(h, k))

    def test_stack_rows_and_combination(self, gen):
        d = 3
        h, k = random_symmetric(gen, 3, d, d), random_symmetric(gen, 3, d, d)
        scale = (0.5, -1.0, 2.0)
        hs, ks = generator_factors(h, k, scale)
        assert hs.shape == ks.shape == (3, d, d)
        assert not hs.flags.writeable and not ks.flags.writeable
        for m, row in enumerate(kulkarni_nomizu_sum(hs, ks, np.eye(3)).entries):
            assert np.allclose(row, scale[m] * loop_kulkarni_nomizu(h[m], k[m]), rtol=0, atol=1e-13)
        c = gen.uniform(-2, 2, size=3)
        want = sum(c[m] * scale[m] * loop_kulkarni_nomizu(h[m], k[m]) for m in range(3))
        got = kulkarni_nomizu_sum(hs, ks, c)
        assert got.entries.shape == (d, d, d, d)
        assert np.allclose(got.entries, want, rtol=0, atol=1e-13)
        # a batch of families: unit rows shaped (3, 1, 3) put the generator axis in front of the batch
        hb, kb = generator_factors(random_symmetric(gen, 3, 2, d, d), random_symmetric(gen, 3, 2, d, d), scale)
        rows = kulkarni_nomizu_sum(hb, kb, np.eye(3).reshape(3, 1, 3))
        assert rows.batch == 2 and rows.entries.shape == (3, 2, d, d, d, d)
        for m, b in np.ndindex(3, 2):
            assert np.array_equal(rows.entries[m, b], kulkarni_nomizu_sum(hb[b], kb[b], np.eye(3)[m]).entries)

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("d", [1, 3, 5, 9])
    def test_kn_sum_matches_loop_for_nonsymmetric_factors(self, gen, d, m):
        h, k = gen.uniform(-1, 1, size=(m, d, d)), gen.uniform(-1, 1, size=(m, d, d))
        c = gen.uniform(-2, 2, size=m)
        got = kulkarni_nomizu_sum(h, k, c).entries
        if d == 9:  # a Python loop over 9^4 entries per pair is slow; the broadcast four-term formula
            want = sum(c[i] * broadcast_kulkarni_nomizu(h[i], k[i]) for i in range(m))
        else:
            want = sum(c[i] * loop_kulkarni_nomizu(h[i], k[i]) for i in range(m))
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_combination_guards(self, gen):
        h, k = generator_factors(random_symmetric(gen, 2, 3, 3), random_symmetric(gen, 2, 3, 3), (1, 1))
        with pytest.raises(DimensionMismatch):
            kulkarni_nomizu_sum(h, k, [1.0, 2.0, 3.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteInput):
                kulkarni_nomizu_sum(h, k, [1.0, bad])
        with pytest.raises(NonFiniteInput), np.errstate(over="ignore"):  # the scale overflows
            generator_factors(np.full((1, 3, 3), 1e308), np.eye(3)[None], (10.0,))

    def test_stack_dimension_bound(self):
        d = MAX_DIM + 1
        h, k = generator_factors(np.eye(d)[None], np.eye(d)[None], (1.0,))
        with pytest.raises(DimensionMismatch):
            kulkarni_nomizu_sum(h, k, (1.0,))
