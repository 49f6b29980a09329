"""Every library name the benchmark reaches for still exists.

`bench/spans.py` rebinds the traced functions by name and `bench/workloads.py` imports its entry
points, so a rename in `src/` would otherwise surface only when the benchmark runs.  Both files are
read with `ast`, not imported.
"""
import ast
import functools
import importlib
import pathlib

import pytest

from nordenhyp import suite

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SPANS, WORKLOADS = (ast.parse((BENCH / name).read_text()) for name in ("spans.py", "workloads.py"))


def _assigned(tree: ast.Module, name: str):
    """The literal value of the module-level assignment to name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


def _imported(tree: ast.AST) -> dict[str, str]:
    """Each name imported from nordenhyp in tree -> its dotted path."""
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    return {alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in imports if (node.module or "").startswith("nordenhyp") for alias in node.names}


def _attribute_chains(tree: ast.AST, roots: dict[str, str]) -> set[str]:
    """Each dotted path read as an attribute of a name in roots, such as `suite.BATTERIES`."""
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in roots:
            chains.add(".".join([roots[node.id], *attrs]))
    return chains


def _resolve(path: str):
    """The object at a dotted path `nordenhyp.<module>[.<attribute>...]`."""
    package, module, *attrs = path.split(".")
    return functools.reduce(getattr, attrs, importlib.import_module(f"{package}.{module}"))


TRACED = sorted(f"nordenhyp.{module}.{f}" for module, fs in _assigned(SPANS, "TRACED").items() for f in fs)
IMPORTED = sorted({*_imported(SPANS).values(), *_imported(WORKLOADS).values()})
CHAINS = sorted(_attribute_chains(SPANS, _imported(SPANS)))


@pytest.mark.parametrize("path", TRACED + IMPORTED + CHAINS)
def test_bench_name_resolves(path):
    assert _resolve(path) is not None


def test_bench_reaches_the_names_it_is_known_to_need():
    assert "nordenhyp.contact_norden.sectional_curvature" in TRACED
    assert {"nordenhyp.multilinear.MultilinearForm.__post_init__", "nordenhyp.suite.BATTERIES"} <= set(CHAINS)
    assert {"nordenhyp.sampling.rng", "nordenhyp.sampling.random_timelike_frame", "nordenhyp.cli.main",
            "nordenhyp.suite.run_suite"} <= set(IMPORTED)


def test_bench_battery_names_are_the_suites():
    assert _assigned(WORKLOADS, "BATTERIES") == tuple(suite.BATTERIES)
