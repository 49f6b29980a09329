"""Every function in `src/nordenhyp/` runs under the suite, or has a named reason not to.

A fresh interpreter installs a profile hook before `import nordenhyp`, so import-time code counts,
runs `run_suite(7, 3, tol=Tolerance())` clean and at fault 1e-3, and reports the (file, first line)
of every code object that was called.  Every function, method and nested function outside `cli.py`
and `report.py` must be among them, unless `ALLOWED` names it; README gives each allowed name its
reason ("Functions without a caller in the library").  A function is keyed on its file and the line
of its first decorator, or of its `def` if it has none: that is the `co_firstlineno` of its code
object, on every Python this package supports.
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
SKIPPED = {"cli.py", "report.py"}  # the CLI front end and the report types, which the suite does not drive

ALLOWED = {
    # only the CLI calls them
    "suite.family_report", "complex_norden.classify_section_prime",
    # imported or traced by the benchmark
    "sampling.rng", "sampling.random_contact_point", "sampling.random_timelike_frame",
    "sampling.random_hyper_scalars", "sampling.random_main_class_data", "contact_norden.pi",
    "complex_norden.pi_prime",
    # the shape-to-class map, still to be put on a battery
    "contact_norden.one_forms", "contact_norden.class_residual", "hypersurface.F_from_A",
    "hypersurface.validate_F6_shape",
}

PROBE = """
import json, sys
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
sys.setprofile(None)
json.dump({"package": nordenhyp.__file__, "called": sorted(called)}, sys.stdout)
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
    """The functions of `src/nordenhyp/` outside SKIPPED that the probe's two suite runs never call."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=120)
    doc = json.loads(out.stdout)
    assert pathlib.Path(doc["package"]).resolve().parent == SRC
    called = {(str(pathlib.Path(f).resolve()), line) for f, line in doc["called"]}
    return {name for path in sorted(SRC.glob("*.py")) if path.name not in SKIPPED
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
