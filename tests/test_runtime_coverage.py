"""Every function in `src/nordenhyp/` runs under the suite or the CLI, or has a named reason not to.

A fresh interpreter installs a profile hook before `import nordenhyp`, so import-time code counts,
runs `run_suite(7, 3, tol=Tolerance())` clean and at fault 1e-3, then `cli.main` on each scenario of
`SCENARIOS` (read from standard input, its report and errors captured), and reports the (file, first
line) of every code object that was called.  Every function, method and nested function of the
package must be among them, unless `ALLOWED` names it; README gives each allowed name its reason
("Functions without a caller in the library").  A function is keyed on its file and the line of its
first decorator, or of its `def` if it has none: that is the `co_firstlineno` of its code object, on
every Python this package supports.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nordenhyp"

ALLOWED = {
    # imported or traced by the benchmark
    "sampling.rng", "sampling.random_contact_point", "sampling.random_timelike_frame",
    "sampling.random_hyper_scalars", "sampling.random_main_class_data", "contact_norden.pi",
    "complex_norden.pi_prime",
}

# The CLI scenarios the probe runs, each as (exit code, flags, payload): every kind, both point types,
# bare points and embeddings, a solver input with no stable branch, an overflowing theorem31, an
# unknown kind, and one report rendered as text.
FRAME = {"ambient": {"n_prime": 2}, "N": [0.75, 0.0, 1.25, 0.0]}
SCENARIOS = [
    (0, (), {"kind": "validate", "n": 1}),
    (0, (), {"kind": "validate", "n_prime": 1}),
    (0, (), {"kind": "validate", "n": 1, "g": [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
             "phi": [[0, -1, 0], [1, 0, 0], [0, 0, 0]], "xi": [0, 0, 1], "eta": [0, 0, 1]}),
    (0, (), {"kind": "validate", "n_prime": 1, "g": [[1, 0], [0, -1]], "J": [[0, -1], [1, 0]]}),
    (0, (), {"kind": "induce", **FRAME}),
    (0, (), {"kind": "classify", "n": 1, "x": [1, 0, 0], "y": [0, 0, 1]}),
    (0, (), {"kind": "classify", "n_prime": 2, "x": [1, 0, 0, 0], "y": [0, 1, 0, 0]}),
    (0, (), {"kind": "curvature", "n": 1, "class": "F11", "nu": 1.0, "nu_tilde": 0.5,
             "scalars": {"t": 0.2, "dt_xi": 0.3, "Omega": [0.5, -0.2, 0.0]}}),
    (0, (), {"kind": "curvature", "nu": 1.0, "nu_tilde": 0.0, **FRAME}),
    (0, (), {"kind": "canonical", "n": 2, "class": "F4+F5", "nu": 1.5, "nu_tilde": -0.5,
             "scalars": {"t": 0.3, "theta_xi": 1.0, "theta_star_xi": 0.7, "dt_xi": 0.2}}),
    (0, (), {"kind": "solve", "n": 1, "t": 0.0, "nu": 1.0, "nu_tilde": 0.0}),
    (1, (), {"kind": "solve", "n": 1, "t": 0.0, "nu": -1.0, "nu_tilde": 0.0}),
    (0, (), {"kind": "theorem31", "n": 2, "theta_xi": 1.0, "theta_star_xi": 0.5}),
    (2, (), {"kind": "theorem31", "n": 2, "theta_xi": 1e160, "theta_star_xi": 1e160, "t": 0.1}),
    (0, (), {"kind": "suite", "trials": 1, "n_values": [1]}),
    (2, (), {"kind": "frobnicate"}),
    (0, ("-v",), {"kind": "validate", "n": 2}),
]

PROBE = """
import contextlib, io, json, sys
import numpy  # before the hook, which would slow its import; nordenhyp's own import runs under it
called = set()

def record(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(record)
import nordenhyp
from nordenhyp.multilinear import Tolerance
from nordenhyp.suite import run_suite
run_suite(7, 3, tol=Tolerance())
run_suite(7, 3, fault=1e-3, tol=Tolerance())
from nordenhyp import cli
codes, sink = [], io.StringIO()
for _, flags, payload in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(json.dumps(payload))
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes.append(cli.main(["-", "--json", *flags]))
sys.setprofile(None)
json.dump({"package": nordenhyp.__file__, "called": sorted(called), "codes": codes}, sys.stdout)
"""


def functions(tree: ast.Module, module: str) -> list[tuple[str, int]]:
    """(qualified name, first line) of every function, method and nested function in tree, the first
    line that of its first decorator if it has one."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                found.append((name, min([child.lineno] + [d.lineno for d in child.decorator_list])))
                visit(child, name)
            else:
                visit(child, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix)

    visit(tree, module)
    return found


@pytest.fixture(scope="module")
def not_run() -> set[str]:
    """The functions of `src/nordenhyp/` that the probe's two suite runs and CLI scenarios never call."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(SCENARIOS)], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    doc = json.loads(out.stdout)
    assert pathlib.Path(doc["package"]).resolve().parent == SRC
    assert doc["codes"] == [code for code, _, _ in SCENARIOS]
    called = {(str(pathlib.Path(f).resolve()), line) for f, line in doc["called"]}
    return {name for path in sorted(SRC.glob("*.py"))
            for name, line in functions(ast.parse(path.read_text()), path.stem)
            if (str(path.resolve()), line) not in called}


def test_every_function_runs_under_the_suite_or_is_allowed(not_run):
    assert sorted(not_run - ALLOWED) == []


def test_allow_list_holds_only_functions_that_do_not_run(not_run):
    assert sorted(ALLOWED - not_run) == []


def test_readme_names_every_allowed_function():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("Functions without a caller in the library"):]
    assert sorted(name for name in ALLOWED if f"`{name.rsplit('.', 1)[-1]}`" not in section) == []


def test_key_is_the_first_decorator_line():
    """The ast side of the key meets the code-object side: methods, nested and decorated functions."""
    source = """
import functools
class Point:
    @property
    @functools.cache
    def value(self):
        def inner():
            return 1
        return inner
def plain():
    pass
"""
    codes, stack = {}, [compile(source, "probe", "exec")]
    while stack:
        code = stack.pop()
        codes[code.co_name] = code.co_firstlineno
        stack.extend(c for c in code.co_consts if hasattr(c, "co_firstlineno"))
    found = functions(ast.parse(source), "probe")
    assert found == [("probe.Point.value", 4), ("probe.Point.value.inner", 7), ("probe.plain", 10)]
    assert [line for _, line in found] == [codes["value"], codes["inner"], codes["plain"]]
