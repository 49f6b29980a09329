"""The leading batch axis: a stack of B inputs through a layer equals B unbatched calls.

Each batch-capable layer is called once on a stack of B random tangent
spaces (n = 1..4, with a random non-symmetric A wherever a layer takes a
shape operator) and compared with B separate unbatched calls, at 1e-13
relative to the size of the values.  Each run the suite builds is checked
against its trials' rows of uniform doubles, decoded by hand and built one by
one, and a group holding one faulted entry must raise as a whole and report
every declared check name.
"""
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from nordenhyp import suite
from nordenhyp.complex_norden import ComplexNordenPoint, model_curvature
from nordenhyp.contact_norden import (
    ALL_TAGS,
    CONSTRUCTIVE_TAGS,
    F4_F5,
    ContactNordenPoint,
    ContactSectionKind,
    canonical_difference,
    class_form,
    class_residual,
    classify_section,
    is_curvature_like,
    kaehler_residual,
    nabla_xi_from_F,
    one_forms,
    pi,
    sectional_curvature,
    validate_contact_axioms,
)
from nordenhyp.errors import GeometryError, InconsistentStructure, NoAcceptableCandidate, NotTimelike
from nordenhyp.hypersurface import (
    F_from_A,
    HyperScalars,
    TimelikeNormalFrame,
    canonical_K_from_R,
    canonical_K_model,
    closed_form_scalars,
    gauss_identities_residual,
    gauss_induced_R,
    induce,
    pi_relations_residual,
    scalar_curvatures,
    shape_from_class,
    special_sectional,
)
from nordenhyp.main_class import (
    K_F45_0,
    K_cor32,
    SolverBranch,
    R_lambda_mu,
    canonical_difference_F45,
    curvature_F45,
    lambda_mu,
    nu_from_scalars,
    shape_F45,
    solve_theta,
    theorem31,
)
from nordenhyp.multilinear import (
    MultilinearForm,
    Tolerance,
    area_factor,
    ricci_contract,
    scalar_contract,
    substitute_endo_first_two,
    substitute_endo_last_two,
    twist_last,
)
from nordenhyp.sampling import (
    NORMAL_CANDIDATES,
    PAIR_CANDIDATES,
    RADICAND_CANDIDATES,
    PointDraw,
    contact_point,
    hyper_scalars,
    random_contact_point,
    random_hyper_scalars,
    random_timelike_frame,
    rng,
    solver_angles,
    timelike_normals,
    totally_real_pairs,
)

from samplers import random_nu_pair, random_totally_real_pair

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


def _main_class_form(i: Inputs) -> MultilinearForm:
    return class_form(F4_F5, i.p, i.sc.theta_xi, i.sc.theta_star_xi)


CASES = {
    "g_inv, g_phi": lambda i: (i.p.g_inv, i.p.g_phi),
    "pi_factors": lambda i: tuple(i.p.pi_factors),
    "pi_combination": lambda i: i.p.pi_combination(i.c),
    "pi rows": lambda i: tuple(pi(k, i.p) for k in range(1, 6)),
    **{f"shape_from_class {tag}": (lambda i, tag=tag: shape_from_class(i.p, tag, i.sc)) for tag in CONSTRUCTIVE_TAGS},
    "gauss_induced_R": lambda i: i.R,
    "canonical_K_from_R": lambda i: canonical_K_from_R(i.p, i.R, i.A, i.sc),
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
    "class_form F4+F5": _main_class_form,
    "F_from_A": lambda i: F_from_A(i.p, i.A, i.sc),
    "one_forms": lambda i: one_forms(F_from_A(i.p, i.A, i.sc), i.p),
    "class_residual": lambda i: tuple(class_residual(F_from_A(i.p, i.A, i.sc), i.p, tag) for tag in ALL_TAGS),
    "nabla_xi_from_F": lambda i: nabla_xi_from_F(_main_class_form(i), i.p),
    "canonical_difference": lambda i: canonical_difference(_main_class_form(i), i.p),
    "canonical_difference_F45": lambda i: canonical_difference_F45(i.p, i.sc),
    "shape_F45": lambda i: shape_F45(i.p, i.sc),
    "curvature_F45": lambda i: curvature_F45(i.p, i.sc, i.nu, i.nut),
    "K_F45_0": lambda i: K_F45_0(i.p, i.sc, curvature_F45(i.p, i.sc, i.nu, i.nut).R),
    "K_cor32": lambda i: K_cor32(i.p, i.sc, i.nu, i.nut),
    "nu_from_scalars": lambda i: nu_from_scalars(i.p, i.sc),
    "lambda_mu": lambda i: lambda_mu(i.p, i.sc),
    "R_lambda_mu": lambda i: R_lambda_mu(i.p, i.sc),
    "gauss_identities_residual": lambda i: gauss_identities_residual(i.p, i.R, i.A, i.sc, i.nu, i.nut),
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


def _generator(battery: str, seed: int, loop: int = 0) -> np.random.Generator:
    """A fresh generator on a loop's stream of a battery, PCG64([seed, key, loop])."""
    return np.random.Generator(np.random.PCG64([seed, sum(map(ord, battery)), loop]))


def _sizes(trials: int, n_values, every_n: bool = False) -> list[int]:
    """Each row's size, derived by hand: the sizes in turn, each taking trials rows if every_n, else
    the trials dealt out one per size in turn, so that the first trials % k sizes take one more."""
    k = len(n_values)
    return [n for i, n in enumerate(n_values) for _ in range(trials if every_n else len(range(i, trials, k)))]


def _dealt(blocks: list[tuple[int, int]], trials: list, complete: bool = True) -> list[list]:
    """The reference trials of each block, given as (n, its row count).

    Checks first that the blocks hold the trials in draw order, each size's in consecutive slices
    of CHUNK (the last one shorter), and, if complete, leave none out.
    """
    want = []
    for n in dict.fromkeys(trial[0] for trial in trials):
        count = sum(trial[0] == n for trial in trials)
        want += [(n, min(suite.CHUNK, count - start)) for start in range(0, count, suite.CHUNK)]
    assert blocks == (want if complete else want[:len(blocks)])
    ends = np.cumsum([size for _, size in blocks]).tolist()
    return [trials[start:end] for start, end in zip([0, *ends], ends)]


def _recording(monkeypatch, battery: str) -> list:
    """Has each loop of a battery append (loop index, n, rows, built run) to the returned list as
    the driver builds a run."""
    runs, spec = [], suite.TABLE[battery]

    def recorded(l, build):
        def built(row, n, rows, fault):
            run = build(row, n, rows, fault)
            runs.append((l, n, rows.copy(), run))
            return run

        return built

    loops = tuple(loop._replace(build=recorded(l, loop.build)) for l, loop in enumerate(spec.loops))
    monkeypatch.setitem(suite.TABLE, battery, spec._replace(loops=loops))
    return runs


def _recording_blocks(monkeypatch) -> list:
    """Has suite._stream append every block (n, rows) it draws to the returned list."""
    blocks, real = [], suite._stream

    def recorded(*args):
        for block in real(*args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(suite, "_stream", recorded)
    return blocks


def _contact_oracle(battery, seed, trials, n_values, fault, omega=False, nu=False, vectors=0, every_n=False,
                    point_only=False):
    """Each contact trial of a battery's first loop decoded by hand, slot by slot, from its row of the
    loop's stream (`_generator`), the rows in the order of `_sizes`: (n, U, entry, (t, five derivative
    scalars), Omega, nu pair, section vectors).

    A row holds the block U (m^2 slots for m = 2 max(n) + 1, the first d^2 used), the two entry slots,
    then, unless point_only (no scalars, Omega, nu pair or vectors), t, Omega (m slots, if omega), the
    five derivative scalars and the nu pair (if nu), and `vectors` section vectors of m slots each.
    """
    m = 2 * max(n_values) + 1
    w = m * m + 2
    if not point_only:
        w += 1 + (m if omega else 0) + (7 if nu else 5) + vectors * m
    sizes = _sizes(trials, n_values, every_n)
    drawn = []
    for n, row in zip(sizes, _generator(battery, seed).random((len(sizes), w)).tolist()):
        slots = iter(row)
        d = 2 * n + 1
        U = [-1.0 + 2.0 * next(slots) for _ in range(m * m)][:d * d]
        entry = [int(next(slots) * d) for _ in range(2)]
        if point_only:
            assert next(slots, None) is None
            drawn.append((n, np.reshape(U, (d, d)), entry if fault else None, None, None, None, []))
            continue
        t = -1.2 + 2.4 * next(slots)
        Omega = [-1.0 + 2.0 * next(slots) for _ in range(m)][:d] if omega else None
        scalars = [-2.0 + 4.0 * next(slots) for _ in range(7 if nu else 5)]
        xs = [[-1.0 + 2.0 * next(slots) for _ in range(m)][:d] for _ in range(vectors)]
        assert next(slots, None) is None
        U = np.reshape(U, (d, d))
        drawn.append((n, U, entry if fault else None, (t, *scalars[:5]), Omega, tuple(scalars[5:]), xs))
    return drawn


def _assert_contact_run(run, n: int, trials: list, fault: float) -> None:
    """A built contact run is its trials built one by one from their hand-decoded draws, bit for bit:
    the point, the scalars, the nu pair and the section vectors."""
    p, sc, nus, xs = run
    singles = [contact_point(n, PointDraw(U, None if entry is None else np.array(entry)), fault)
               for _, U, entry, *_ in trials]
    for f in ("g", "phi", "xi", "eta"):
        np.testing.assert_array_equal(getattr(p, f), np.stack([getattr(q, f) for q in singles]))
    if trials[0][3] is None:  # a point-only layout
        assert sc is None and nus is None and xs is None
        return
    scalars = [hyper_scalars(s[0], s[1:], None if Omega is None else np.array(Omega), q)
               for q, (*_, s, Omega, _, _) in zip(singles, trials)]
    for f in dataclasses.fields(sc):
        got, want = getattr(sc, f.name), [getattr(s, f.name) for s in scalars]
        if got is None:
            assert all(w is None for w in want)
        else:
            np.testing.assert_array_equal(got, np.stack(want))
    assert nus.T.tolist() == [list(pair) for *_, pair, _ in trials]
    assert (xs is None) == (not trials[0][6])
    if xs is not None:
        np.testing.assert_array_equal(xs.swapaxes(0, 1), [x for *_, x in trials])


# A battery whose (first) loop draws contact trials, with the oracle's description of its rows.
CONTACT_LAYOUTS = [
    ("induced_curvature", {"omega": True, "nu": True, "vectors": 2}),
    ("scalar_calibration", {"nu": True}),
    ("canonical_connection", {"every_n": True}),
    ("kaehlerity", {"every_n": True, "point_only": True}),
    ("canonical_curvature", {"omega": True, "nu": True}),
    ("expanded_coefficients", {}),
]


@pytest.mark.parametrize("fault", [0.0, 1e-3])
@pytest.mark.parametrize("options", [options for _, options in CONTACT_LAYOUTS], ids=str)
def test_predrawn_inputs_match_per_trial_draws(monkeypatch, fault, options):
    """Each run the table's contact layout builds is its rows decoded by hand and built trial by
    trial, bit for bit, and the blocks hold exactly those rows; with CHUNK at 3, each size's rows
    are drawn in blocks of 3."""
    monkeypatch.setattr(suite, "CHUNK", 3)
    n_values = (1, 2, 3)
    battery = next(b for b, o in CONTACT_LAYOUTS if o == options)
    loop = suite.TABLE[battery].loops[0]
    row = loop.layout(n_values)
    blocks = list(suite._stream(11, battery, 0, row, 7))
    reference = _contact_oracle(battery, 11, 7, n_values, fault, **options)
    for (n, rows), trials in zip(blocks, _dealt([(n, len(rows)) for n, rows in blocks], reference), strict=True):
        _assert_contact_run(loop.build(row, n, rows, fault), n, trials, fault)


def test_sizes_take_their_rows_in_turn():
    """A loop draws its sizes in turn: of k sizes, size i takes trials // k rows, one more if
    i < trials % k (trials rows at each size for a layout drawn at every n), the next rows of the
    loop's stream, CHUNK at a time; at 150 trials a size's rows span three blocks.  A loop with no
    sizes draws nothing."""
    assert suite._Row((1, 2, 3), ("rest", 2)).counts(20) == [7, 7, 6]
    assert suite._Row((2, 3), ("rest", 2)).counts(20) == [10, 10]
    assert suite._Row((1, 2, 3), ("rest", 2), every_n=True).counts(20) == [20, 20, 20]
    assert list(suite._stream(1, "b", 0, suite._Row((), ("rest", 2)), 20)) == []
    for values in [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (2, 3), (2, 3, 4)]:
        for seed in range(20):
            for every_n in (False, True):
                for trials in (1, 20, 150):
                    blocks = list(suite._stream(seed, "b", 0, suite._Row(values, ("rest", 2), every_n=every_n), trials))
                    sizes = _sizes(trials, values, every_n)
                    assert all(type(n) is int for n, _ in blocks)
                    _dealt([(n, len(rows)) for n, rows in blocks], [(n,) for n in sizes])
                    rows = np.random.Generator(np.random.PCG64([seed, ord("b"), 0])).random((len(sizes), 2))
                    np.testing.assert_array_equal(np.concatenate([rows for _, rows in blocks]), rows)


def test_fault_entry_is_the_size_two_stream():
    """The phi entry a fault perturbs is floor(u d) of each of its two slots, in range even for the
    largest double below 1, and unfaulted it is None.  The stream does not depend on fault, so a
    clean and a faulted run of one seed draw the same trials otherwise."""
    top = np.nextafter(1.0, 0.0)
    row = suite._Row((4,), ("U", 81), ("entry", 2))
    for n in (1, 2, 3, 4):
        rows = np.zeros((3, 83))
        rows[:, 81:] = [[0.0, top], [top, 0.5], [0.5, 0.0]]
        assert suite._point_draw(row, rows, n, 1e-3).entry.tolist() == [[0, 2 * n], [2 * n, n], [n, 0]]
        assert suite._point_draw(row, rows, n, 0.0).entry is None
    battery = suite.TABLE["scalar_calibration"]
    row = battery.loops[0].layout((1, 2, 3))
    for seed in range(20):
        for n, rows in suite._stream(seed, "scalar_calibration", 0, row, 30):
            (U, entry), (U_f, entry_f) = (suite._point_draw(row, rows, n, f) for f in (0.0, 1e-3))
            assert entry is None and entry_f.shape == (len(rows), 2)
            assert entry_f.min() >= 0 and entry_f.max() <= 2 * n
            np.testing.assert_array_equal(U, U_f)
            (_, sc, nus, _), (_, sc_f, nus_f, _) = (battery.loops[0].build(row, n, rows, f) for f in (0.0, 1e-3))
            for f in ("t", "dt_xi", "theta_xi", "theta_star_xi", "xi_theta_xi", "xi_theta_star_xi"):
                np.testing.assert_array_equal(getattr(sc, f), getattr(sc_f, f))
            np.testing.assert_array_equal(nus, nus_f)


def test_advanced_generator_reproduces_each_row():
    """Row r of a loop's stream is the first w doubles of a fresh generator advanced by r w, whatever
    the block and the size it was drawn in: the replay of one trial is one advance."""
    row = suite._Row((1, 2, 3), ("rest", 51))
    for seed in (3, 21):
        rows = np.concatenate([rows for _, rows in suite._stream(seed, "induced_curvature", 1, row, 450)])
        assert len(rows) == 450
        for r in (0, 1, suite.CHUNK - 1, suite.CHUNK, 2 * suite.CHUNK + 5, 149, 150, 151, 449):
            replay = np.random.Generator(np.random.PCG64([seed, sum(map(ord, "induced_curvature")), 1]))
            replay.bit_generator.advance(r * row.width)
            np.testing.assert_array_equal(replay.random(row.width), rows[r])


def _replayed_row(battery, l, seed, i, j, trials, n_values):
    """Trial j at size i of loop l of a battery, from the table alone: row sum(counts[:i]) + j of the
    loop's stream, the counts derived by hand (`_sizes`), which a fresh PCG64([seed, key, l])
    advanced by that many rows draws first."""
    spec = suite.TABLE[battery]
    row = spec.loops[l].layout(n_values)
    sizes = _sizes(trials, row.sizes, row.every_n)
    bits = np.random.PCG64([seed, sum(map(ord, battery)), l])
    bits.advance((sizes.index(row.sizes[i]) + j) * row.width)
    return row.values(np.random.Generator(bits).random((1, row.width)))[0]


@pytest.mark.parametrize("battery", list(suite.TABLE))
def test_table_replays_each_trial(monkeypatch, battery):
    """Trial j at size i of every loop of every battery, replayed from the table alone, is the row
    its run was built from: the first, second and last trial of each size, and trials 63 and 64 (the
    last of one block and the first of the next) where the size has that many."""
    seed, trials, n_values = 7, 150, (1, 2, 3)
    runs = _recording(monkeypatch, battery)
    suite.BATTERIES[battery](seed, trials, n_values)
    for l, loop in enumerate(suite.TABLE[battery].loops):
        row = loop.layout(n_values)
        assert row.sizes
        for i, n in enumerate(row.sizes):
            rows = np.concatenate([rows for k, m, rows, _ in runs if (k, m) == (l, n)])
            assert len(rows) == _sizes(trials, row.sizes, row.every_n).count(n)
            for j in sorted({0, 1, len(rows) - 1} | ({63, 64} & set(range(len(rows))))):
                np.testing.assert_array_equal(rows[j], _replayed_row(battery, l, seed, i, j, trials, n_values))


def test_loop_streams_are_distinct():
    """The table's keys are distinct, and for seeds 0 to 999 no two (seed, battery, loop) streams start
    from the same PCG64 state."""
    keys = {name: sum(map(ord, name)) for name in suite.TABLE}
    assert len(set(keys.values())) == len(keys)
    states = set()
    for seed in range(1000):
        for name, spec in suite.TABLE.items():
            for l in range(len(spec.loops)):
                state = np.random.PCG64([seed, keys[name], l]).state["state"]
                states.add((state["state"], state["inc"]))
    assert len(states) == 1000 * sum(len(spec.loops) for spec in suite.TABLE.values())


SPLIT = [(1, 7), (2, 7), (3, 6)]  # 20 trials dealt over n = 1, 2, 3
EVERY_N = [(1, 20), (2, 20), (3, 20)]

# The (n, trials) each loop evaluates at 20 trials over n = 1, 2, 3, size by size.
WORK = {
    "axiom_induction": [[(2, 7), (3, 7), (4, 6)]],
    "kaehlerity": [EVERY_N],
    "model_curvature": [[(2, 20), (3, 20), (4, 20)]],
    "scalar_calibration": [SPLIT],
    "induced_curvature": [SPLIT, [(2, 10), (3, 10)]],
    "canonical_curvature": [SPLIT],
    "main_class": [SPLIT],
    "canonical_connection": [EVERY_N],
    "solver_theorem": [SPLIT],
    "expanded_coefficients": [SPLIT],
}


@pytest.mark.parametrize("seed", range(1, 6))
def test_work_per_op_is_fixed(monkeypatch, seed):
    """Every seed evaluates the same trials at each size: the work of a suite op does not depend on
    its seed."""
    runs = {battery: _recording(monkeypatch, battery) for battery in WORK}
    assert list(WORK) == list(suite.TABLE)
    assert suite.run_suite(seed, 20).passed
    for battery, loops in WORK.items():
        assert len(suite.TABLE[battery].loops) == len(loops)
        got = [[(n, len(rows)) for k, n, rows, _ in runs[battery] if k == l] for l in range(len(loops))]
        assert got == loops, battery


def test_first_acceptable_candidate_wins():
    """Each rejection sampler takes a row's first acceptable candidate, not a later one; a row
    whose candidates are all rejected raises NoAcceptableCandidate, a GeometryError."""
    top = np.nextafter(1.0, 0.0)
    # time-like normal, n' = 2: index 0 and s = 1.2 with the tangential entries +0.3 at e_1
    # and -0.3 at J e_1 give a space-like square (rejected); s = 0 gives -1 (accepted)
    space_like = [0.0, top, top, 0.5, 0.0, 0.5]
    time_like, other = [0.0, 0.5, 0.5, 0.5, 0.5, 0.5], [0.6, 0.5, 0.5, 0.5, 0.5, 0.5]
    N = timelike_normals(np.array([[space_like, time_like, other], [time_like, other, space_like]]), 2)
    np.testing.assert_array_equal(N, [[0.0, 0.0, 1.0, 0.0]] * 2)
    # totally real pair, n' = 2: a zero block is degenerate, the identity block is not
    zero, unit, scaled = [0.5] * 4, [top, 0.5, 0.5, top], [0.75, 0.5, 0.5, 0.75]
    x, y = totally_real_pairs(np.array([[zero, zero, unit, scaled]]), 2)
    np.testing.assert_allclose([x[0], y[0]], [[1, 0, 0, 0], [0, 1, 0, 0]], rtol=0, atol=1e-15)
    # solver radicand: nu = -2, nu~ = 0, t = 0 gives a zero radicand (rejected), nu = 1 gives 2
    rejected, accepted, later = [0.0, 0.5, 0.5], [0.75, 0.5, 0.5], [top, 0.5, 0.5]
    np.testing.assert_array_equal(solver_angles(np.array([[rejected, accepted, later]])), [[1.0, 0.0, 0.0]])
    for call in (
        lambda: timelike_normals(np.array([[time_like], [space_like]]), 2),
        lambda: totally_real_pairs(np.array([[unit, zero], [zero, zero]]), 2),
        lambda: solver_angles(np.array([[rejected, rejected]])),
    ):
        with pytest.raises(NoAcceptableCandidate):
            call()
    assert issubclass(NoAcceptableCandidate, GeometryError)


def _drained_peak(trials: int) -> int:
    """tracemalloc's peak while one battery's loop is drawn and built for `trials` trials."""
    spec = suite.TABLE["induced_curvature"]
    row = spec.loops[0].layout((1, 2, 3))
    tracemalloc.start()
    try:
        for n, rows in suite._stream(4, "induced_curvature", 0, row, trials):
            spec.loops[0].build(row, n, rows, 1e-3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_drawer_memory_is_flat_in_trials():
    """One block and its run are held at a time: 3,200 trials peak where 200 do.

    The peaks (about 0.17 MB) differ by under 10 kB; holding every row of 3,200 trials would
    add about 1.3 MB.
    """
    small, large = _drained_peak(200), _drained_peak(3200)
    assert large <= small + 128 * 1024, (small, large)


@pytest.mark.parametrize("fault", [0.0, 1e-3])
def test_groups_stack_the_per_trial_points(monkeypatch, fault):
    """Each run the driver builds holds its trials' points and scalars, decoded by hand and built one
    by one; faulted, the first run decides both tag groups, and it is the only one built."""
    runs = _recording(monkeypatch, "canonical_curvature")
    suite.BATTERIES["canonical_curvature"](12, 9, (1, 2, 3), fault)
    reference = _contact_oracle("canonical_curvature", 12, 9, (1, 2, 3), fault, omega=True, nu=True)
    dealt = _dealt([(n, len(rows)) for _, n, rows, _ in runs], reference, complete=not fault)
    assert len(runs) == (1 if fault else 3)
    for (_, n, _, run), trials in zip(runs, dealt, strict=True):
        _assert_contact_run(run, n, trials, fault)


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
        canonical_difference(class_form(F4_F5, p, batched.sc.theta_xi, batched.sc.theta_star_xi), p)


@pytest.mark.parametrize(
    "battery", ["induced_curvature", "canonical_curvature", "main_class", "canonical_connection"]
)
def test_faulted_group_reports_every_declared_name(monkeypatch, battery):
    """One faulted entry per group: each group raises, so every declared name reads infinity."""
    clean = {c.name for c in suite.BATTERIES[battery](3, 6, (1, 2, 3))}
    monkeypatch.setattr(suite, "contact_point", _one_faulted_entry(suite.contact_point))
    faulted = suite.BATTERIES[battery](3, 6, (1, 2, 3))
    assert {c.name for c in faulted} == clean
    assert all(c.residual == np.inf and not c.passed for c in faulted)


def test_guard_marks_only_its_tag_group():
    w = suite._Worst("b", ["F11.tau", "F11.xi", "F4+F5.tau"])
    w.add("F4+F5.tau", np.array([1e-12, 2e-12]))
    with w.guard("F11."):
        raise InconsistentStructure("planted")
    assert w.residuals == {"F4+F5.tau": 2e-12, "F11.tau": np.inf, "F11.xi": np.inf}


def test_decided_needs_infinity_under_every_name_of_its_prefix():
    w = suite._Worst("b", ["F11.tau", "F11.xi", "F4+F5.tau"])
    assert not w.decided() and not w.decided("F11.")  # no name added yet
    w.add("F11.tau", math.inf)
    assert not w.decided("F11.")  # F11.xi never added
    w.add("F11.xi", np.array([0.0, np.nan]))  # NaN counts as infinity
    assert w.decided("F11.") and not w.decided("F4+F5.") and not w.decided()
    w.add("F4+F5.tau", float("nan"))
    assert w.decided("F4+F5.") and w.decided()


@pytest.mark.parametrize(
    "layer", ["shape_from_class", "kaehler_residual", "induce", "sectional_curvature", "canonical_difference"]
)
def test_unexpected_exception_propagates_out_of_run_suite(monkeypatch, layer):
    """Only geometry errors become infinite residuals; a bug in a layer is raised, not reported."""

    def broken(*args, **kwargs):
        raise TypeError("planted")

    monkeypatch.setattr(suite, layer, broken)
    with pytest.raises(TypeError, match="planted"):
        suite.run_suite(seed=1, trials=2)


def _assert_close(got, want) -> None:
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, float(np.max(np.abs(want)))))


@pytest.mark.parametrize("n_prime", [2, 3, 4])
def test_induce_and_pullback_batch(n_prime):
    """induce, the pullback check and the contact axioms on a stack of normals over one ambient."""
    gen = rng(200 + n_prime)
    ambient = ComplexNordenPoint.standard(n_prime)
    for B in (1, 3, 7):
        normals = [random_timelike_frame(gen, n_prime).N for _ in range(B)]
        singles = [induce(TimelikeNormalFrame(ambient, N)) for N in normals]
        batched = induce(TimelikeNormalFrame(ambient, np.array(normals)))
        assert batched.point.batch == (B,)
        _assert_close(batched.t, [s.t for s in singles])
        _assert_close(batched.tangent_basis, [s.tangent_basis for s in singles])
        for f in ("g", "phi", "xi", "eta"):
            _assert_close(getattr(batched.point, f), [getattr(s.point, f) for s in singles])
        _assert_close(pi_relations_residual(batched), [pi_relations_residual(s) for s in singles])
        reports = [{c.name: c for c in validate_contact_axioms(s.point).checks} for s in singles]
        for check in validate_contact_axioms(batched.point).checks:
            _assert_close(check.residual, max(r[check.name].residual for r in reports))


def test_induce_batch_raises_for_one_bad_normal():
    gen = rng(3)
    normals = np.array([random_timelike_frame(gen, 2).N for _ in range(3)])
    normals[1] *= 1.1
    with pytest.raises(NotTimelike):
        induce(TimelikeNormalFrame(ComplexNordenPoint.standard(2), normals))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_validate_contact_axioms_batch(n):
    """Each residual of a batch is the maximum over its entries; one wrong entry fails the signature."""
    gen = rng(300 + n)
    for B in (1, 3, 7):
        singles = _singles(gen, n, B)
        phi = np.stack([s.p.phi for s in singles])
        phi[-1, 0, 0] += 1e-3
        g = np.stack([s.p.g for s in singles])
        g[0] = -g[0]  # wrong signature, and breaks eta = g(xi, .)
        points = [ContactNordenPoint(n, g[k], phi[k], s.p.xi, s.p.eta) for k, s in enumerate(singles)]
        batched = ContactNordenPoint(n, g, phi, *(np.stack([getattr(s.p, f) for s in singles]) for f in ("xi", "eta")))
        reports = [{c.name: c for c in validate_contact_axioms(p).checks} for p in points]
        got = validate_contact_axioms(batched)
        assert [c.name for c in got.checks] == list(reports[0])
        for check in got.checks:
            _assert_close(check.residual, max(r[check.name].residual for r in reports))
        assert {c.name: c for c in got.checks}["signature"].residual == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theorem31_batch(n):
    """theorem31 on a batched point with (B,) theta, theta* and t, and its k_xi on (B, d) vectors."""
    gen = rng(400 + n)
    for B in (1, 3, 7):
        singles = _singles(gen, n, B)
        th, ths = gen.uniform(-2.0, 2.0, size=(2, B))
        t = gen.uniform(-1.2, 1.2, size=B)
        want = [theorem31(s.p, th[k], ths[k], t=t[k]) for k, s in enumerate(singles)]
        batched = _stacked(singles)
        got = theorem31(batched.p, th, ths, t=t)
        for f in ("K_residual", "tau", "tau_tilde", "k_phi_holomorphic", "k_totally_real"):
            _assert_close(getattr(got, f), [getattr(r, f) for r in want])
        _assert_close(got.R.entries, [r.R.entries for r in want])
        _assert_close(got.k_xi(batched.x), [r.k_xi(s.x) for r, s in zip(want, singles)])


@pytest.mark.parametrize("n_prime", [1, 2, 3, 4])
def test_sectional_curvature_prime_unbatched_form(n_prime):
    """The ambient's (primed) sectional curvature: one unbatched form and point against (B, d) section vectors."""
    gen = rng(500 + n_prime)
    amb = ComplexNordenPoint.standard(n_prime)
    R = model_curvature(amb, 3.0, -1.0)
    for B in (1, 3, 7):
        x, y = gen.uniform(-1.0, 1.0, size=(2, B, amb.dim))
        _assert_close(sectional_curvature(R, amb, x, y), [sectional_curvature(R, amb, *v) for v in zip(x, y)])


def test_hyper_scalars_broadcast_float_fields():
    """Float fields, such as the zero defaults, stand for every entry of (B,) array fields."""
    t, th = np.array([0.1, -0.4, 1.1]), np.array([1.0, 2.0, -0.5])
    mixed = HyperScalars(t=t, theta_xi=th, theta_star_xi=0.25)
    full = HyperScalars(t=t, theta_xi=th, theta_star_xi=np.full(3, 0.25), **dict.fromkeys(
        ("dt_xi", "xi_theta_xi", "xi_theta_star_xi"), np.zeros(3)
    ))
    for f in ("t", "dt_xi", "theta_xi", "theta_star_xi", "xi_theta_xi", "xi_theta_star_xi", "cos_t", "sin_t", "tan_t"):
        np.testing.assert_array_equal(getattr(mixed, f), getattr(full, f))
    with pytest.raises(ValueError):
        HyperScalars(t=t, theta_xi=np.ones(2))


# The rows of the three batteries that draw no contact trials, decoded by hand.


def _reference_normals(seed, trials, n_values, fault):
    """A row: NORMAL_CANDIDATES candidates of 2 + 2 max(n') slots each, an index slot, s and the 2n'
    tangential entries; the first time-like candidate is normalized."""
    sizes = _sizes(trials, [n + 1 for n in n_values])
    c = 2 + 2 * max(sizes)
    rows = _generator("axiom_induction", seed).random((trials, NORMAL_CANDIDATES * c)).tolist()
    drawn = []
    for n_prime, row in zip(sizes, rows):
        g = [1.0] * n_prime + [-1.0] * n_prime
        for k in range(NORMAL_CANDIDATES):
            slots = row[k * c:(k + 1) * c]
            i, s = int(slots[0] * n_prime), -1.2 + 2.4 * slots[1]
            v = np.array([0.3 * (-1.0 + 2.0 * u) for u in slots[2:2 + 2 * n_prime]])
            v[i] += np.sinh(s)
            v[n_prime + i] += np.cosh(s)
            sq = sum(sign * x * x for sign, x in zip(g, v.tolist()))
            if sq < -0.1:
                break
        else:
            raise AssertionError("no time-like candidate")
        N = v / np.sqrt(-sq)
        drawn.append((n_prime, N + fault if fault else N))
    return drawn


def _reference_pair(candidates, n_prime):
    """The first candidate (a list of slots, the first 2n' an n' x 2 coefficient block) whose plane
    passes the nondegeneracy test on the full ambient metric."""
    g = np.diag(np.concatenate([np.ones(n_prime), -np.ones(n_prime)]))
    for slots in candidates:
        coeffs = [-1.0 + 2.0 * u for u in slots[:2 * n_prime]]
        x, y = np.zeros(2 * n_prime), np.zeros(2 * n_prime)
        x[:n_prime], y[:n_prime] = coeffs[0::2], coeffs[1::2]
        if abs((y @ g @ y) * (x @ g @ x) - (x @ g @ y) ** 2) > 0.05:
            return x, y
    raise AssertionError("no nondegenerate candidate")


def _reference_sections(seed, trials, n_values, fault):
    """A row per trial at every size n' in turn: a section vector v of m = 2 max(n') slots, then
    PAIR_CANDIDATES candidates of m slots, the first 2n' an n' x 2 coefficient block; the first
    nondegenerate wins."""
    sizes = _sizes(trials, [n + 1 for n in n_values], every_n=True)
    m = 2 * max(sizes)
    rows = _generator("model_curvature", seed).random((len(sizes), m + PAIR_CANDIDATES * m)).tolist()
    drawn = []
    for n_prime, row in zip(sizes, rows):
        x, y = _reference_pair([row[m + k * m:m + (k + 1) * m] for k in range(PAIR_CANDIDATES)], n_prime)
        drawn.append((n_prime, x, y, np.array([-1.0 + 2.0 * u for u in row[:2 * n_prime]])))
    return drawn


@pytest.mark.parametrize("n_prime", [2, 3, 4])
def test_totally_real_pair_matches_the_full_metric_test(n_prime):
    """A per-call pair reads one row of PAIR_CANDIDATES candidates of 2n' slots, and the rejection test
    on the coefficient block accepts the candidate the full-vector test does."""
    for seed in range(200):
        got, want = rng(seed), rng(seed)
        for _ in range(5):
            x, y = random_totally_real_pair(got, n_prime)
            want_x, want_y = _reference_pair(want.random((PAIR_CANDIDATES, 2 * n_prime)).tolist(), n_prime)
            np.testing.assert_array_equal(x, want_x)
            np.testing.assert_array_equal(y, want_y)
        assert got.bit_generator.state == want.bit_generator.state


def _reference_solver(seed, trials, n_values, fault):
    """A row: U (m^2 slots), the two entry slots, the x vectors of branches +1 and -1 (m slots each),
    then RADICAND_CANDIDATES candidates (nu, nu~, t); the first with a safely positive radicand
    wins."""
    m = 2 * max(n_values) + 1
    rows = _generator("solver_theorem", seed).random((trials, m * m + 2 + 2 * m + 3 * RADICAND_CANDIDATES)).tolist()
    drawn = []
    for n, row in zip(_sizes(trials, n_values), rows):
        d = 2 * n + 1
        U = np.array([-1.0 + 2.0 * u for u in row[:d * d]]).reshape(d, d)  # the congruence S = I + 0.3 U
        at = m * m
        entry = np.array([int(row[at] * d), int(row[at + 1] * d)]) if fault else None
        at += 2
        x_plus, x_minus = (np.array([-1.0 + 2.0 * u for u in row[at + b * m:at + b * m + d]]) for b in (0, 1))
        at += 2 * m
        for k in range(RADICAND_CANDIDATES):
            u_nu, u_nut, u_t = row[at + 3 * k:at + 3 * k + 3]
            nu, nut, t = -2.0 + 4.0 * u_nu, -2.0 + 4.0 * u_nut, -1.2 + 2.4 * u_t
            if nu * math.cos(t) - nut * math.sin(t) + math.hypot(nu, nut) >= 0.01:
                break
        else:
            raise AssertionError("no stable candidate")
        drawn.append((n, U, entry, (nu, nut, t), (x_plus, x_minus)))
    return drawn


def _stacked_points(n, draws, fault) -> ContactNordenPoint:
    """The points of (U, entry) draws, each built alone, stacked into one batch."""
    points = [contact_point(n, PointDraw(U, entry), fault) for U, entry in draws]
    return ContactNordenPoint(n, *(np.stack([getattr(q, f) for q in points]) for f in ("g", "phi", "xi", "eta")))


def _literal_ambient(n_prime, trials, fault):
    """The standard ambient with J[0, 0] perturbed by fault, and the stacked (x, y, v) of the trials."""
    amb = ComplexNordenPoint.standard(n_prime)
    J = amb.J.copy()
    J[0, 0] += fault
    return ComplexNordenPoint(n_prime, amb.g, J), *(np.stack(c) for c in zip(*(trial[1:] for trial in trials)))


def _literal_solver(n, trials, fault):
    """Each trial on branch +1, then each on branch -1: the stacked points, (eps, nu, nu~, t), x vectors
    and the plane (S^-1 e_1, S^-1 e_2) of each point's congruence S = I + 0.3 U."""
    draws = [(U, entry) for _, U, entry, *_ in trials] * len(suite.SOLVER_BRANCHES)
    entries = [(eps, *angles) for eps in suite.SOLVER_BRANCHES for _, _, _, angles, _ in trials]
    xs = np.stack([pair[b] for b in range(len(suite.SOLVER_BRANCHES)) for *_, pair in trials])
    planes = np.stack([np.linalg.inv(np.eye(2 * n + 1) + 0.3 * U)[:, :2].T for U, _ in draws], axis=1)
    return _stacked_points(n, draws, fault), entries, xs, planes


# Each battery's literal rows, and the run its trials build, made trial by trial.
LITERAL_DRAWS = {
    "axiom_induction": (_reference_normals, lambda n, trials, fault: (n, np.stack([N for _, N in trials]))),
    "model_curvature": (_reference_sections, _literal_ambient),
    "solver_theorem": (_reference_solver, _literal_solver),
}


def _assert_run(got, want) -> None:
    """Two built runs are equal leaf by leaf, bit for bit: a dataclass field by field, a tuple or a
    list entry by entry."""
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            _assert_run(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_run(a, b)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("fault", [0.0, 1e-3])
@pytest.mark.parametrize("battery", sorted(LITERAL_DRAWS))
def test_predrawn_inputs_match_literal_per_trial_draws(monkeypatch, battery, fault):
    """The runs a battery evaluates are its rows decoded by hand and built trial by trial, bit for
    bit, and its blocks hold exactly those rows.

    Faulted, `axiom_induction` is decided by its first run (every faulted normal is off the
    hyperboloid, so `induce` raises NotTimelike): it builds only the run of its first size and
    draws no further block.
    """
    runs = _recording(monkeypatch, battery)
    blocks = _recording_blocks(monkeypatch)
    report = suite.BATTERIES[battery](21, 9, (1, 2, 3), fault)
    reference, literal = LITERAL_DRAWS[battery]
    want = reference(21, 9, (1, 2, 3), fault)
    decided = bool(fault) and battery == "axiom_induction"
    dealt = _dealt([(n, len(rows)) for _, n, rows, _ in runs], want, complete=not decided)
    assert [(n, len(rows)) for n, rows in blocks] == [(n, len(rows)) for _, n, rows, _ in runs]
    if decided:
        assert len(runs) == 1
        assert all(c.residual == math.inf for c in report)
    for (_, n, _, run), trials in zip(runs, dealt, strict=True):
        _assert_run(run, literal(n, trials, fault))


def test_decided_battery_stops_drawing(monkeypatch):
    """Faulted, `axiom_induction` is decided by its first run of CHUNK trials: it evaluates that run
    alone and draws no further block, so of 150 trials at n = 1 only the first CHUNK rows are drawn."""
    runs = _recording(monkeypatch, "axiom_induction")
    blocks = _recording_blocks(monkeypatch)
    report = suite.BATTERIES["axiom_induction"](21, 150, (1,), fault=1e-3)
    want = _reference_normals(21, suite.CHUNK, (1,), 1e-3)
    assert [(n, len(rows)) for n, rows in blocks] == [(2, suite.CHUNK)]
    assert len(runs) == 1
    np.testing.assert_array_equal(runs[0][3][1], [normal for _, normal in want])
    assert report and all(c.residual == math.inf for c in report)


def _recording_calls(monkeypatch, names) -> dict[str, list]:
    """Has each named suite function append its (args, kwargs) to a list before it runs."""
    calls = {name: [] for name in names}
    for name in names:
        def recorded(*args, real=getattr(suite, name), seen=calls[name], **kwargs):
            seen.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(suite, name, recorded)
    return calls


def test_decided_tag_groups_build_no_more_runs(monkeypatch):
    """Faulted at n = 2, `induced_curvature`'s first run decides both tag groups, and the totally real
    loop's first run decides it: each loop builds one run and draws one block of CHUNK rows, of its
    50-slot and 8-slot layouts.  Evaluating every run gives the same report, builds every run and
    reads all 150 rows of each loop."""
    calls = _recording_calls(monkeypatch, ["contact_point"])
    blocks = _recording_blocks(monkeypatch)
    report = suite.BATTERIES["induced_curvature"](7, 150, (2,), fault=1e-3)
    assert len(calls["contact_point"]) == 2
    # U (25), entry (2), t, Omega (5), 7 scalars, 2 x vectors (5); then t and 7 scalars
    assert [rows.shape for _, rows in blocks] == [(suite.CHUNK, 50), (suite.CHUNK, 8)]
    monkeypatch.setattr(suite._Worst, "decided", lambda self, prefix="": False)
    blocks.clear()
    assert suite.BATTERIES["induced_curvature"](7, 150, (2,), fault=1e-3) == report
    assert len(calls["contact_point"]) == 2 + 2 * 3
    assert [len(rows) for _, rows in blocks] == [64, 64, 22] * 2


@pytest.mark.parametrize("fault", [0.0, 1e-3])
def test_solver_pairs_each_point_with_its_trial_and_branch(monkeypatch, fault):
    """Every batch entry theorem31 and section_checks receive is one literal trial's point, angles and
    section vector, on one branch: each n's trials in row order, branch +1 first."""
    calls = _recording_calls(monkeypatch, ["theorem31", "section_checks"])
    suite.BATTERIES["solver_theorem"](21, 9, (1, 2, 3), fault)
    want = _reference_solver(21, 9, (1, 2, 3), fault)
    sizes = sorted({n for n, *_ in want})  # one run per n, in n_values order: 9 trials are one block a size
    assert len(calls["theorem31"]) == len(calls["section_checks"]) == len(sizes)
    for n, ((p, th, ths), kw), ((_, p_sec, x, *_), _) in zip(sizes, calls["theorem31"], calls["section_checks"]):
        entries = [(eps, trial) for eps in suite.SOLVER_BRANCHES for trial in want if trial[0] == n]
        assert len(th) == len(x) == len(entries)
        for j, (eps, (_, U, entry, (nu, nut, t), (x_plus, x_minus))) in enumerate(entries):
            point = contact_point(n, PointDraw(U, entry), fault)
            for f in ("g", "phi", "xi", "eta"):
                np.testing.assert_array_equal(getattr(p, f)[j], getattr(point, f))
                np.testing.assert_array_equal(getattr(p_sec, f)[j], getattr(point, f))
            assert (th[j], ths[j], kw["t"][j]) == (*solve_theta(nu, nut, t, SolverBranch(eps), n), t)
            np.testing.assert_array_equal(x[j], x_plus if eps == 1 else x_minus)


@pytest.mark.parametrize("battery", ["main_class", "solver_theorem"])
def test_real_pair_is_a_totally_real_plane_of_each_point(battery):
    """The plane a run carries last is the standard point's {e_1, e_2} moved by each point's congruence
    S = I + 0.3 U: S maps it back to e_1 and e_2, and at n >= 2 each point classifies it totally real."""
    loop = suite.TABLE[battery].loops[0]
    row = loop.layout((1, 2, 3))
    for n, rows in suite._stream(5, battery, 0, row, 12):
        run = loop.build(row, n, rows, 0.0)
        p, pair = run[0], run[-1]
        U = np.concatenate([suite._point_draw(row, rows, n, 0.0).U] * (len(p.g) // len(rows)))
        np.testing.assert_allclose((np.eye(2 * n + 1) + 0.3 * U) @ pair.transpose(1, 2, 0),
                                   np.broadcast_to(np.eye(2 * n + 1)[:, :2], (len(U), 2 * n + 1, 2)), atol=1e-13)
        kinds = classify_section(p, *pair)
        assert all(k == (ContactSectionKind.TOTALLY_REAL if n >= 2 else ContactSectionKind.PHI_HOLOMORPHIC)
                   for k in kinds)


def _first_trial_of_each_size(monkeypatch, battery, corrupt):
    """Has the battery's loop build its first run of every size n through corrupt, which corrupts
    the run's first trial."""
    spec, seen = suite.TABLE[battery], set()
    (loop,) = spec.loops

    def build(row, n, rows, fault):
        run = loop.build(row, n, rows, fault)
        if n in seen:
            return run
        seen.add(n)
        return corrupt(run)

    monkeypatch.setitem(suite.TABLE, battery, spec._replace(loops=(loop._replace(build=build),)))


def _first(column, value):
    """column with its first entry replaced by value."""
    return np.concatenate([value[None], column[1:]])


CORRUPT = {
    # a normal off the unit hyperboloid: induce raises NotTimelike
    "axiom_induction": lambda run: (run[0], _first(run[1], run[1][0] * 1.1)),
    # a plane spanned by one vector: its area factor vanishes, DegenerateSection
    "model_curvature": lambda run: (run[0], run[1], _first(run[2], run[1][0]), run[3]),
    # a zero section vector: k_xi's denominator vanishes, DegenerateSection
    "solver_theorem": lambda run: (*run[:2], _first(run[2], np.zeros_like(run[2][0])), run[3]),
}


@pytest.mark.parametrize("battery", sorted(CORRUPT))
def test_faulted_entry_fails_its_group_in_new_batteries(monkeypatch, battery):
    """One faulted trial per size: its group raises as a whole, so every declared name reads infinity."""
    clean = {c.name for c in suite.BATTERIES[battery](3, 6, (1, 2, 3))}
    _first_trial_of_each_size(monkeypatch, battery, CORRUPT[battery])
    faulted = suite.BATTERIES[battery](3, 6, (1, 2, 3))
    assert {c.name for c in faulted} == clean
    assert all(c.residual == np.inf and not c.passed for c in faulted)


def test_chunked_groups_give_the_same_report(monkeypatch):
    """Groups split into runs of CHUNK trials report what the whole groups report."""
    for fault in (0.0, 1e-3):
        whole = suite.run_suite(seed=7, trials=9, fault=fault).checks
        monkeypatch.setattr(suite, "CHUNK", 2)
        chunked = suite.run_suite(seed=7, trials=9, fault=fault).checks
        monkeypatch.undo()
        assert [(c.name, c.threshold, c.passed) for c in chunked] == [(c.name, c.threshold, c.passed) for c in whole]
        if not fault:
            np.testing.assert_allclose([c.residual for c in chunked], [c.residual for c in whole], rtol=0, atol=1e-13)


def test_run_suite_applies_its_tolerance():
    """The tolerance reaches the layers' input checks: at 1e-30 they reject the suite's own data."""
    assert suite.run_suite(7, 5).passed
    report = suite.run_suite(7, 5, tol=Tolerance(1e-30, 1e-30))
    assert not report.passed
    main_class = [c for c in report.checks if c.name.startswith("main_class.")]
    assert len(main_class) == len(suite.TABLE["main_class"].names)
    assert not any(c.passed for c in main_class)


def _report(report) -> tuple:
    return json.dumps(report.to_dict(), sort_keys=True), [(c.name, float(c.residual)) for c in report.checks]


@pytest.mark.parametrize("seed", [1, 7, 123])
def test_stopping_decided_batteries_leaves_every_report_unchanged(monkeypatch, seed):
    """With `decided` never true every battery evaluates every trial, and the reports are the same.

    A clean run whose `decided` never answers true already takes that path, so it is proved by
    recording the answers of the real `decided`; each faulted run is compared with its unstopped run.
    """
    real, answers = suite._Worst.decided, []

    def recorded(self, prefix=""):
        answers.append(real(self, prefix))
        return answers[-1]

    monkeypatch.setattr(suite._Worst, "decided", recorded)
    for trials in (1, 20, 150):
        suite.run_suite(seed, trials)
    assert answers and not any(answers)
    configs = [(trials, fault) for trials in (1, 20, 150) for fault in (1e-3, 1e-6)]
    stopped = [_report(suite.run_suite(seed, t, fault=f)) for t, f in configs]
    monkeypatch.setattr(suite._Worst, "decided", lambda self, prefix="": False)
    assert [_report(suite.run_suite(seed, t, fault=f)) for t, f in configs] == stopped


def test_nan_reading_residual_is_infinite(monkeypatch):
    """A NaN in the expanded display's curvature is an infinite residual, as everywhere else in the suite."""
    real = suite.K_cor32

    def nan_squared(p, sc, nu, nut):
        K = real(p, sc, nu, nut)
        entries = np.array(K.entries)
        entries.flat[0] = np.nan
        return MultilinearForm._trusted(entries, K.batch)

    monkeypatch.setattr(suite, "K_cor32", nan_squared)
    checks = {c.name: c for c in suite.BATTERIES["expanded_coefficients"](3, 6, (1, 2, 3))}
    assert checks["expanded_coefficients.reading_squared"].residual == math.inf
    assert not checks["expanded_coefficients.reading_squared"].passed
