import itertools

import numpy as np
import pytest

from nordenhyp.complex_norden import (
    ComplexNordenPoint,
    SectionKind,
    classify_section_prime,
    model_curvature,
    pi_prime,
    validate_complex_norden,
)
from nordenhyp.contact_norden import is_curvature_like, sectional_curvature
from nordenhyp.errors import BadIndex, DegenerateSection, DependentVectors, NonFiniteInput
from nordenhyp.multilinear import kulkarni_nomizu_sum, substitute_endo_first_two, substitute_endo_last_two, twist_last

from samplers import random_complex_point, random_totally_real_pair


@pytest.mark.parametrize("n_prime", [1, 2, 3, 4])
def test_standard_point_valid(n_prime):
    rep = validate_complex_norden(ComplexNordenPoint.standard(n_prime))
    assert rep.passed, rep.render_text()
    assert ComplexNordenPoint.standard(n_prime) is ComplexNordenPoint.standard(n_prime)


@pytest.mark.parametrize("n_prime", [1, 2, 3, 4])
def test_standard_point_explicit(n_prime):
    """g = diag(1^n', -1^n'), J e_i = e_{n'+i} and J e_{n'+i} = -e_i, exactly."""
    p, I = ComplexNordenPoint.standard(n_prime), np.eye(n_prime)
    J = np.zeros((2 * n_prime, 2 * n_prime))
    J[n_prime:, :n_prime], J[:n_prime, n_prime:] = I, -I
    assert np.array_equal(p.g, np.diag([1.0] * n_prime + [-1.0] * n_prime))
    assert np.array_equal(p.J, J)


def test_congruence_preserves_axioms(gen):
    for n_prime in (2, 3):
        p = random_complex_point(gen, n_prime)
        assert validate_complex_norden(p).passed


def test_perturbed_J_fails(gen):
    p = random_complex_point(gen, 2, fault=1e-3)
    rep = validate_complex_norden(p)
    assert not rep.passed
    checks = {c.name: c for c in rep.checks}
    assert checks["J_squared"].residual > 1e-4 or checks["norden_compatibility"].residual > 1e-4


def test_associated_metric_symmetric(gen):
    p = random_complex_point(gen, 3)
    m = p.gJ
    assert np.allclose(m, m.T)
    x, y = (gen.uniform(-1, 1, size=p.dim) for _ in range(2))
    assert x @ m @ y == pytest.approx(float(x @ p.g @ (p.J @ y)))


def test_pi_prime_index_guard(gen):
    with pytest.raises(BadIndex):
        pi_prime(4, random_complex_point(gen, 2))


def test_pi_prime_curvature_like(gen):
    p = random_complex_point(gen, 2)
    for i in (1, 2, 3):
        assert is_curvature_like(pi_prime(i, p)) < 1e-12


def loop_pi_prime_combination(point, c):
    """c_1 pi'_1 + c_2 pi'_2 + c_3 pi'_3, entry by entry from the defining formulas."""
    d = point.dim
    g, gJ = point.g.tolist(), point.gJ.tolist()
    out = np.zeros((d, d, d, d))
    for i, j, k, l in itertools.product(range(d), repeat=4):
        def wedge(h, q):  # h(y, z) q(x, u) - h(x, z) q(y, u)
            return h[j][k] * q[i][l] - h[i][k] * q[j][l]

        pis = (wedge(g, g), wedge(gJ, gJ), -wedge(g, gJ) - wedge(gJ, g))
        out[i, j, k, l] = sum(cm * v for cm, v in zip(c, pis))
    return out


@pytest.mark.parametrize("n_prime", [1, 2, 3, 4])
def test_pi_prime_combination_matches_defining_formulas(gen, n_prime):
    p = random_complex_point(gen, n_prime)
    c = gen.uniform(-2, 2, size=3)
    got = p.pi_prime_combination(c).entries
    assert np.allclose(got, loop_pi_prime_combination(p, c), rtol=0, atol=1e-12)
    with pytest.raises(NonFiniteInput):
        p.pi_prime_combination([1.0, np.inf, 0.0])
    q = ComplexNordenPoint(p.n_prime, p.g.copy(), p.J.copy())
    for i in (1, 2, 3):
        assert np.array_equal(pi_prime(i, p).entries, pi_prime(i, q).entries)


@pytest.mark.parametrize("n_prime", [1, 2, 3, 4])
def test_pi_prime_substitution_moves_the_factors(gen, n_prime):
    p = random_complex_point(gen, n_prime)
    A, B = gen.uniform(-1, 1, size=(2, p.dim, p.dim))  # not symmetric
    c = gen.uniform(-2, 2, size=3)
    h, k = p.pi_prime_factors
    got = kulkarni_nomizu_sum(A.T @ h @ B, A.T @ k @ B, c).entries
    want = substitute_endo_last_two(substitute_endo_first_two(p.pi_prime_combination(c), A), B).entries
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    for i, e in enumerate(np.eye(3), 1):
        assert np.array_equal(p.pi_prime_combination(e).entries, pi_prime(i, p).entries)


@pytest.mark.parametrize("field", ["g", "J"])
def test_nonfinite_field_rejected(field):
    p = ComplexNordenPoint.standard(1)
    fields = {"g": p.g.copy(), "J": p.J.copy()}
    fields[field][0, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        ComplexNordenPoint(1, **fields)


class TestModelCurvature:
    def setup_method(self):
        self.p = ComplexNordenPoint.standard(3)
        self.R = model_curvature(self.p, 3.0, -1.0)
        self.Rt = twist_last(self.R, self.p.J)

    def test_totally_real_sections(self, gen):
        for _ in range(25):
            x, y = random_totally_real_pair(gen, 3)
            assert sectional_curvature(self.R, self.p, x, y) == pytest.approx(3.0)
            assert sectional_curvature(self.Rt, self.p, x, y) == pytest.approx(-1.0)

    def test_holomorphic_sections_flat(self, gen):
        hits = 0
        for _ in range(25):
            v = gen.uniform(-1, 1, size=self.p.dim)
            try:
                k = sectional_curvature(self.R, self.p, v, self.p.J @ v)
            except DegenerateSection:
                continue
            hits += 1
            assert abs(k) < 1e-10
        assert hits > 0

    def test_degenerate_section_raises(self):
        x = np.zeros(6)
        x[0], x[3] = 1.0, 1.0  # null vector of the standard metric
        y = np.zeros(6)
        y[1] = 1.0  # orthogonal to x, so the area factor vanishes
        with pytest.raises(DegenerateSection):
            sectional_curvature(self.R, self.p, x, y)


class TestClassify:
    def setup_method(self):
        self.p = ComplexNordenPoint.standard(2)

    def test_holomorphic(self, gen):
        v = gen.uniform(-1, 1, size=4)
        assert classify_section_prime(self.p, v, self.p.J @ v) == SectionKind.HOLOMORPHIC

    def test_totally_real(self):
        x = np.array([1.0, 0, 0, 0])
        y = np.array([0, 1.0, 0, 0])
        assert classify_section_prime(self.p, x, y) == SectionKind.TOTALLY_REAL

    def test_generic(self):
        x = np.array([1.0, 0, 0, 0])
        y = np.array([0, 1.0, 0.5, 0])
        assert classify_section_prime(self.p, x, y) == SectionKind.GENERIC

    def test_degenerate_precedes(self):
        # two orthogonal null vectors: the area factor vanishes
        x = np.array([1.0, 0, 1.0, 0])
        y = np.array([0, 1.0, 0, 1.0])
        assert classify_section_prime(self.p, x, y) == SectionKind.DEGENERATE

    def test_dependent_vectors(self):
        x = np.array([1.0, 0, 0, 0])
        with pytest.raises(DependentVectors):
            classify_section_prime(self.p, x, 2.0 * x)
