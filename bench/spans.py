"""Span tracing of the program's layers, installed from outside the program.

`Tracer.installed()` rebinds each traced function in every `nordenhyp.*`
namespace that holds it (a module that did `from .x import f` has its own
binding), wraps `MultilinearForm.__post_init__` and the entries of
`suite.BATTERIES`, and restores all of them on exit.  Spans stay in memory
(name, start, end, parent span, op id) until `write` is called.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import json
import sys
import time
from array import array

from workloads import BATTERIES, SCENARIO_KINDS

# layer module -> traced public functions
TRACED = {
    "sampling": ("random_contact_point", "random_timelike_frame", "random_main_class_data"),
    "multilinear": ("substitute_endo_first_two", "ricci_contract"),
    "complex_norden": ("pi_prime",),
    "contact_norden": ("pi", "kaehler_residual", "canonical_difference", "sectional_curvature"),
    "hypersurface": (
        "induce",
        "pi_relations_residual",
        "shape_from_class",
        "gauss_induced_R",
        "scalar_curvatures",
        "canonical_K_from_R",
        "canonical_K_model",
    ),
    "main_class": ("shape_F45", "curvature_F45", "K_cor32", "theorem31", "solve_theta"),
}
CONSTRUCTION = "multilinear.MultilinearForm"
FUNCTIONS = (
    "sampling.random_contact_point",
    "sampling.random_timelike_frame",
    "sampling.random_main_class_data",
    CONSTRUCTION,
    *(f"{m}.{f}" for m, fs in TRACED.items() if m != "sampling" for f in fs),
)
RAISING = (
    "hypersurface.induce",
    "hypersurface.shape_from_class",
    "main_class.shape_F45",
    "contact_norden.canonical_difference",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _n_of_point_arg(index):
    return lambda args, kwargs: _arg(args, kwargs, index, "point").n


# functions broken down by contact size n: name -> (extractor, n values).
# pi_prime rejects the n' = 5 ambient of n = 4 (dimension 10 > MAX_DIM = 9),
# so the pullback check exists only up to n = 3.
PER_N = {
    "contact_norden.pi": (_n_of_point_arg(1), (1, 2, 3, 4)),
    "hypersurface.gauss_induced_R": (_n_of_point_arg(0), (1, 2, 3, 4)),
    "hypersurface.canonical_K_from_R": (_n_of_point_arg(0), (1, 2, 3, 4)),
    "hypersurface.pi_relations_residual": (
        lambda args, kwargs: _arg(args, kwargs, 0, "structure").point.n,
        (1, 2, 3),
    ),
}


def _contact_key(args, kwargs) -> bytes:
    i, p = _arg(args, kwargs, 0, "i"), _arg(args, kwargs, 1, "point")
    return hashlib.blake2b(
        bytes([i]) + p.g.tobytes() + p.phi.tobytes() + p.xi.tobytes() + p.eta.tobytes()
    ).digest()


def _complex_key(args, kwargs) -> bytes:
    i, p = _arg(args, kwargs, 0, "i"), _arg(args, kwargs, 1, "point")
    return hashlib.blake2b(bytes([i]) + p.g.tobytes() + p.J.tobytes()).digest()


# generator builds whose useful-work ratio is recorded: distinct
# (point, index) builds within an op, over calls
DISTINCT = {"contact_norden.pi": _contact_key, "complex_norden.pi_prime": _complex_key}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for f in FUNCTIONS:
        names += [(f"{f}.calls_per_op", "count"), (f"{f}.self_ms_per_op", "ms")]
    names += [(f"suite.{b}.ms_per_op", "ms") for b in BATTERIES]
    names += [(f"cli.main.{k}.ms", "ms") for k in SCENARIO_KINDS]
    names += [(f"{f}.distinct_ratio", "ratio") for f in DISTINCT]
    names += [(f"{f}.raised_per_op", "count") for f in RAISING]
    names += [(f"{f}.ms_per_call.n{n}", "ms") for f, (_, ns) in PER_N.items() for n in ns]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.raised = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._op = -1
        self.ops = 0
        self.stats: dict[str, _Stat] = {}
        self.per_n: dict[tuple[str, int], list] = {}  # (name, n) -> [calls, seconds]
        self.distinct_builds: dict[str, int] = {f: 0 for f in DISTINCT}
        self._keys: dict[str, set] = {f: set() for f in DISTINCT}

    # --- recording ----------------------------------------------------------

    def _enter(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        frame = [len(self.start), 0.0]
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(frame)
        self.start.append(time.perf_counter())
        return frame

    def _exit(self, name: str, frame: list, raised: bool) -> float:
        t1 = time.perf_counter()
        idx = frame[0]
        self.end[idx] = t1
        self._stack.pop()
        dur = t1 - self.start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        st.calls += 1
        st.self_s += dur - frame[1]
        st.incl_s += dur
        st.raised += raised
        return dur

    def span(self, name: str, fn, args, kwargs):
        per_n = PER_N.get(name)
        key_of = DISTINCT.get(name)
        if key_of is not None:
            self._keys[name].add(key_of(args, kwargs))
        frame = self._enter(name)
        raised = True
        try:
            out = fn(*args, **kwargs)
            raised = False
            return out
        finally:
            dur = self._exit(name, frame, raised)
            if per_n is not None:
                acc = self.per_n.setdefault((name, per_n[0](args, kwargs)), [0, 0.0])
                acc[0] += 1
                acc[1] += dur

    @contextlib.contextmanager
    def op(self, root: str):
        """One operation: the root span that every layer span of the op descends from."""
        self._op = self.ops
        frame = self._enter(root)
        raised = True
        try:
            yield
            raised = False
        finally:
            self._exit(root, frame, raised)
            for f, keys in self._keys.items():
                self.distinct_builds[f] += len(keys)
                keys.clear()
            self.ops += 1
            self._op = -1

    # --- installing ---------------------------------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        from nordenhyp import multilinear, suite  # suite imports every other layer

        wrappers = {}
        for module, fns in TRACED.items():
            mod = sys.modules[f"nordenhyp.{module}"]
            for f in fns:
                original = getattr(mod, f)
                wrappers[id(original)] = self._wrapper(f"{module}.{f}", original)
        restore = []
        for modname, mod in list(sys.modules.items()):
            if not (modname == "nordenhyp" or modname.startswith("nordenhyp.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        post_init = multilinear.MultilinearForm.__post_init__
        multilinear.MultilinearForm.__post_init__ = self._wrapper(CONSTRUCTION, post_init)
        batteries = dict(suite.BATTERIES)
        for b, fn in batteries.items():
            suite.BATTERIES[b] = self._wrapper(f"suite.{b}", fn)
        try:
            yield self
        finally:
            suite.BATTERIES.update(batteries)
            multilinear.MultilinearForm.__post_init__ = post_init
            for mod, attr, value in restore:
                setattr(mod, attr, value)

    # --- reporting ----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-op figures over every traced op; 0 where a function never ran."""
        ops = max(self.ops, 1)
        empty = _Stat()
        out: dict[str, float] = {}
        for f in FUNCTIONS:
            st = self.stats.get(f, empty)
            out[f"{f}.calls_per_op"] = st.calls / ops
            out[f"{f}.self_ms_per_op"] = 1e3 * st.self_s / ops
        for b in BATTERIES:
            out[f"suite.{b}.ms_per_op"] = 1e3 * self.stats.get(f"suite.{b}", empty).incl_s / ops
        for k in SCENARIO_KINDS:
            st = self.stats.get(f"cli.main.{k}", empty)
            out[f"cli.main.{k}.ms"] = 1e3 * st.incl_s / st.calls if st.calls else 0.0
        for f in DISTINCT:
            calls = self.stats.get(f, empty).calls
            out[f"{f}.distinct_ratio"] = self.distinct_builds[f] / calls if calls else 0.0
        for f in RAISING:
            out[f"{f}.raised_per_op"] = self.stats.get(f, empty).raised / ops
        for f, (_, ns) in PER_N.items():
            for n in ns:
                calls, secs = self.per_n.get((f, n), (0, 0.0))
                out[f"{f}.ms_per_call.n{n}"] = 1e3 * secs / calls if calls else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path) -> None:
        """Spans as gzip JSON lines: [name, start_s, end_s, parent_span, op]."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"columns": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name[i]],
                            round(self.start[i] - t0, 7),
                            round(self.end[i] - t0, 7),
                            self.parent[i],
                            self.op_id[i],
                        ]
                    )
                    + "\n"
                )
