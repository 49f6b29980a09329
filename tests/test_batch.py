"""The leading batch axis: a stack of B inputs through a layer equals B unbatched calls.

Each batch-capable layer is called once on a stack of B random tangent
spaces (n = 1..4, with a random non-symmetric A wherever a layer takes a
shape operator) and compared with B separate unbatched calls, at 1e-13
relative to the size of the values.  The suite's draw step is checked against
the per-trial samplers, and a group holding one faulted entry must raise as
a whole and report every declared check name.
"""
import dataclasses

import numpy as np
import pytest

from nordenhyp import suite
from nordenhyp.contact_norden import (
    CONSTRUCTIVE_TAGS,
    F4_F5,
    ContactNordenPoint,
    ContactSectionKind,
    canonical_difference,
    classify_section,
    is_curvature_like,
    kaehler_residual,
    nabla_xi_from_F,
    sectional_curvature,
)
from nordenhyp.errors import InconsistentStructure
from nordenhyp.hypersurface import (
    HyperScalars,
    canonical_K_from_R,
    canonical_K_model,
    closed_form_scalars,
    gauss_induced_R,
    scalar_curvatures,
    shape_from_class,
    special_sectional,
)
from nordenhyp.main_class import (
    K_F45_0,
    K_cor32,
    MainClassData,
    NuPair,
    canonical_difference_F45,
    curvature_F45,
    main_class_form,
    nu_from_scalars,
    shape_F45,
)
from nordenhyp.multilinear import (
    MultilinearForm,
    area_factor,
    ricci_contract,
    scalar_contract,
    substitute_endo_first_two,
    substitute_endo_last_two,
    twist_last,
)
from nordenhyp.sampling import random_contact_point, random_hyper_scalars, random_nu_pair, rng

SIZES = [(n, B) for n in (1, 2, 3, 4) for B in (1, 3, 7)]


@dataclasses.dataclass
class Inputs:
    p: ContactNordenPoint
    sc: HyperScalars
    A: np.ndarray  # random, not symmetric
    nu: object
    nut: object
    x: np.ndarray
    y: np.ndarray
    c: np.ndarray  # a coefficient vector over pi_1..pi_5

    @property
    def data(self) -> MainClassData:
        return MainClassData(point=self.p, scalars=self.sc)

    @property
    def R(self) -> MultilinearForm:
        return gauss_induced_R(self.p, self.A, self.sc, self.nu, self.nut)


def _singles(gen, n, B) -> list[Inputs]:
    out = []
    for _ in range(B):
        p = random_contact_point(gen, n)
        sc = random_hyper_scalars(gen, p, with_omega=True)
        nu, nut = random_nu_pair(gen)
        A, x, y = gen.uniform(-1.0, 1.0, size=(p.dim, p.dim)), *gen.uniform(-1.0, 1.0, size=(2, p.dim))
        out.append(Inputs(p, sc, A, nu, nut, x, y, gen.uniform(-2.0, 2.0, size=5)))
    return out


def _stacked(singles: list[Inputs]) -> Inputs:
    ps, scs = [s.p for s in singles], [s.sc for s in singles]
    p = ContactNordenPoint(
        ps[0].n, *(np.stack([getattr(q, f) for q in ps]) for f in ("g", "phi", "xi", "eta"))
    )
    fields = ("t", "dt_xi", "theta_xi", "theta_star_xi", "xi_theta_xi", "xi_theta_star_xi")
    fields += ("Omega",) if scs[0].Omega is not None else ()
    sc = HyperScalars(**{f: np.stack([getattr(s, f) for s in scs]) for f in fields})
    return Inputs(p, sc, *(np.stack([getattr(s, f) for s in singles]) for f in ("A", "nu", "nut", "x", "y", "c")))


def _arrays(value) -> list[np.ndarray]:
    """A layer's result as a list of arrays: forms, dataclasses and tuples unpacked."""
    if isinstance(value, MultilinearForm):
        return [value.entries]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _arrays(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    return [np.asarray(value, dtype=float)]


CASES = {
    "g_inv, g_phi": lambda i: (i.p.g_inv, i.p.g_phi),
    "pi_factors": lambda i: tuple(i.p.pi_factors),
    "pi_combination": lambda i: i.p.pi_combination(i.c),
    **{f"shape_from_class {tag}": (lambda i, tag=tag: shape_from_class(i.p, tag, i.sc)) for tag in CONSTRUCTIVE_TAGS},
    "gauss_induced_R": lambda i: i.R,
    "canonical_K_from_R": lambda i: canonical_K_from_R(i.p, i.R, i.A, i.sc.t),
    "canonical_K_model": lambda i: canonical_K_model(i.p, i.A, i.sc, i.nu, i.nut),
    "scalar_curvatures": lambda i: scalar_curvatures(i.R, i.p),
    "closed_form_scalars": lambda i: closed_form_scalars(i.A, i.sc, i.nu, i.nut, i.p),
    "contractions": lambda i: scalar_contract(ricci_contract(twist_last(i.R, i.A), i.p.g_inv), i.p.g_inv),
    "substitutions": lambda i: substitute_endo_last_two(substitute_endo_first_two(i.R, i.A), i.p.phi),
    "kaehler_residual": lambda i: kaehler_residual(i.R, i.p),
    "is_curvature_like": lambda i: is_curvature_like(i.R),
    "max_norm": lambda i: i.R.max_norm,
    "area_factor": lambda i: (area_factor(i.p.g, i.x, i.y, i.y, i.x), area_factor(i.A, i.x, i.y, i.p.xi, i.x)),
    "sectional_curvature": lambda i: sectional_curvature(i.R, i.p, i.x, i.y),
    "special_sectional xi": lambda i: special_sectional(
        i.p, i.A, i.sc, i.nu, i.nut, ContactSectionKind.XI_SECTION, i.x
    ),
    "special_sectional phi": lambda i: special_sectional(
        i.p, i.A, i.sc, i.nu, i.nut, ContactSectionKind.PHI_HOLOMORPHIC, i.x
    ),
    "main_class_form": lambda i: main_class_form(i.data),
    "nabla_xi_from_F": lambda i: nabla_xi_from_F(main_class_form(i.data), i.p),
    "canonical_difference": lambda i: canonical_difference(main_class_form(i.data), i.p),
    "canonical_difference_F45": lambda i: canonical_difference_F45(i.data),
    "shape_F45": lambda i: shape_F45(i.data),
    "curvature_F45": lambda i: curvature_F45(i.data, NuPair(i.nu, i.nut)),
    "K_F45_0": lambda i: K_F45_0(i.data, curvature_F45(i.data, NuPair(i.nu, i.nut)).R),
    "K_cor32": lambda i: tuple(K_cor32(i.data, NuPair(i.nu, i.nut), reading=r) for r in ("literal", "squared")),
    "nu_from_scalars": lambda i: nu_from_scalars(i.data),
}


def _assert_batch_matches(fn, singles: list[Inputs], batched: Inputs) -> None:
    want = [_arrays(fn(s)) for s in singles]
    got = _arrays(fn(batched))
    assert len(got) == len(want[0])
    for k, g in enumerate(got):
        w = np.stack([parts[k] for parts in want])
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-13 * max(1.0, float(np.max(np.abs(w)))))


@pytest.mark.parametrize("case", sorted(CASES))
def test_stack_equals_unbatched_calls(case):
    gen = rng(sum(map(ord, case)))
    for n, B in SIZES:
        singles = _singles(gen, n, B)
        _assert_batch_matches(CASES[case], singles, _stacked(singles))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_totally_real_sections_batch(n):
    """Totally real planes on a stack of standard points, as the suite's second induced loop draws them."""
    gen = rng(n)
    standard = ContactNordenPoint.standard(n)
    singles = []
    for _ in range(5):
        sc = random_hyper_scalars(gen, standard)
        nu, nut = random_nu_pair(gen)
        x, y = np.eye(standard.dim)[:2]
        singles.append(Inputs(standard, sc, shape_from_class(standard, F4_F5, sc), nu, nut, x, y, np.zeros(5)))

    def fn(i):
        k = special_sectional(i.p, i.A, i.sc, i.nu, i.nut, ContactSectionKind.TOTALLY_REAL, i.x, i.y)
        return k, sectional_curvature(i.R, i.p, i.x, i.y)

    _assert_batch_matches(fn, singles, _stacked(singles))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_section_batch(n):
    """A batch is classified entry by entry, with the unbatched precedence."""
    gen = rng(100 + n)
    singles = _singles(gen, n, 6)
    for k, s in enumerate(singles):  # two xi sections, two phi-holomorphic planes, two generic ones
        if k < 2:
            s.y = s.p.xi
        elif k < 4:
            s.x = s.p.phi @ s.x
            s.y = s.p.phi @ s.x
    batched = _stacked(singles)
    want = [classify_section(s.p, s.x, s.y) for s in singles]
    assert list(classify_section(batched.p, batched.x, batched.y)) == want
    K = ContactSectionKind
    assert want[:4] == [K.XI_SECTION, K.XI_SECTION, K.PHI_HOLOMORPHIC, K.PHI_HOLOMORPHIC]


def _reference_trial(gen, n, fault, omega, nu, vectors):
    """One trial's raw draws, one generator call per value, in the order of the per-trial samplers."""
    d = 2 * n + 1
    S = np.eye(d) + 0.3 * gen.uniform(-1.0, 1.0, size=(d, d))
    entry = gen.integers(0, d, size=2) if fault else None
    t = float(gen.uniform(-1.2, 1.2))
    Omega = gen.uniform(-1.0, 1.0, size=d) if omega else None
    dt, th, ths, xth, xths = (float(gen.uniform(-2.0, 2.0)) for _ in range(5))
    nus = (float(gen.uniform(-2.0, 2.0)), float(gen.uniform(-2.0, 2.0))) if nu else (0.0, 0.0)
    xs = [gen.uniform(-1.0, 1.0, size=d) for _ in range(vectors)]
    return n, S, entry, (t, dt, th, ths, xth, xths), Omega, nus, xs


@pytest.mark.parametrize("fault", [0.0, 1e-3])
@pytest.mark.parametrize(
    "options", [{"omega": True, "nu": True, "vectors": 2}, {"nu": True}, {"every_n": True}], ids=str
)
def test_predrawn_inputs_match_per_trial_draws(fault, options):
    """A battery's draws are the per-trial draws, bit for bit and in the same generator order."""
    n_values = (1, 2, 3)
    drawing, gen = rng(11), rng(11)
    drawn = suite._draw(drawing, 7, n_values, fault, **options)
    reference = []
    for _ in range(7):
        for n in n_values if options.get("every_n") else [int(gen.choice(list(n_values)))]:
            reference.append(_reference_trial(
                gen, n, fault, options.get("omega", False), options.get("nu", False), options.get("vectors", 0)
            ))
    assert drawing.bit_generator.state == gen.bit_generator.state
    assert len(drawn) == len(reference)
    for (n, point_draw, scalar_draw, nus, xs), (m, S, entry, scalars, Omega, want_nus, want_xs) in zip(
        drawn, reference
    ):
        assert (n, tuple(scalar_draw[:-1]), nus) == (m, scalars, want_nus)
        np.testing.assert_array_equal(point_draw.S, S)
        np.testing.assert_array_equal(point_draw.entry, entry)
        np.testing.assert_array_equal(scalar_draw.Omega, Omega)
        np.testing.assert_array_equal(np.reshape(xs, (-1,)), np.reshape(want_xs, (-1,)))


@pytest.mark.parametrize("fault", [0.0, 1e-3])
def test_groups_stack_the_per_trial_points(fault):
    """Each group's batched point and scalars equal the per-trial samplers' output for its trials."""
    drawn = suite._draw(rng(12), 9, (1, 2, 3), fault, omega=True, nu=True)
    gen = rng(12)
    singles = []
    for _ in range(9):
        n = int(gen.choice([1, 2, 3]))
        p = random_contact_point(gen, n, fault=fault)
        singles.append((n, p, random_hyper_scalars(gen, p, with_omega=True), random_nu_pair(gen)))
    for point, scalars, nu, nut, _ in suite._groups(drawn, fault):
        members = [s for s in singles if s[0] == point.n]
        for f in ("g", "phi", "xi", "eta"):
            np.testing.assert_array_equal(getattr(point, f), np.stack([getattr(s[1], f) for s in members]))
        for f in dataclasses.fields(scalars):
            np.testing.assert_array_equal(getattr(scalars, f.name), np.stack([getattr(s[2], f.name) for s in members]))
        np.testing.assert_array_equal(np.stack([nu, nut], axis=-1), [s[3] for s in members])


def _one_faulted_entry(real):
    """contact_point with phi[0, 0] of the first entry of every batch perturbed."""

    def build(n, draw, fault=0.0):
        p = real(n, draw, fault)
        phi = np.array(p.phi)
        phi[(0,) * phi.ndim] += 1e-3
        return ContactNordenPoint(n, p.g, phi, p.xi, p.eta)

    return build


def test_group_with_one_faulted_entry_raises():
    gen = rng(5)
    singles = _singles(gen, 2, 3)
    batched = _stacked(singles)
    shape_from_class(batched.p, F4_F5, batched.sc)  # clean group passes
    phi = np.array(batched.p.phi)
    phi[1, 0, 0] += 1e-3
    p = ContactNordenPoint(2, batched.p.g, phi, batched.p.xi, batched.p.eta)
    with pytest.raises(InconsistentStructure):
        shape_from_class(p, F4_F5, batched.sc)
    with pytest.raises(InconsistentStructure):
        canonical_difference(main_class_form(MainClassData(p, batched.sc)), p)


@pytest.mark.parametrize(
    "battery", ["induced_curvature", "canonical_curvature", "main_class", "canonical_connection"]
)
def test_faulted_group_reports_every_declared_name(monkeypatch, battery):
    """One faulted entry per group: each group raises, so every declared name reads infinity."""
    clean = {c.name for c in suite.BATTERIES[battery](rng(3), 6, (1, 2, 3))}
    monkeypatch.setattr(suite, "contact_point", _one_faulted_entry(suite.contact_point))
    faulted = suite.BATTERIES[battery](rng(3), 6, (1, 2, 3))
    assert {c.name for c in faulted} == clean
    assert all(c.residual == np.inf and not c.passed for c in faulted)


def test_guard_marks_only_its_tag_group():
    w = suite._Worst("b", {"F11.tau": 1e-8, "F11.xi": 1e-8, "F4+F5.tau": 1e-8})
    w.add("F4+F5.tau", np.array([1e-12, 2e-12]))
    with w.guard("F11."):
        raise InconsistentStructure("planted")
    assert w.residuals == {"F4+F5.tau": 2e-12, "F11.tau": np.inf, "F11.xi": np.inf}


@pytest.mark.parametrize(
    "layer", ["shape_from_class", "kaehler_residual", "induce", "sectional_curvature_prime", "canonical_difference"]
)
def test_unexpected_exception_propagates_out_of_run_suite(monkeypatch, layer):
    """Only geometry errors become infinite residuals; a bug in a layer is raised, not reported."""

    def broken(*args, **kwargs):
        raise TypeError("planted")

    monkeypatch.setattr(suite, layer, broken)
    with pytest.raises(TypeError, match="planted"):
        suite.run_suite(seed=1, trials=2)
