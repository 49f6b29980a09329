"""The library keeps no dead code: every public module-level function in `src/`, and every public
method or property of a `src/` class, has a caller there.

A caller is any load of the name, or any attribute of that name, in `src/` outside the definition's
own body.  `ALLOWED` holds the functions that stay without one, and README names each with its
reason ("Functions without a caller in the library").
"""
import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "nordenhyp").glob("*.py"))]

ALLOWED = {
    # imported or traced by the benchmark
    "rng", "random_timelike_frame", "random_main_class_data", "pi_prime",
    # checks that the shape-to-class map is still to be run on
    "class_residual", "F_from_A", "validate_F6_shape",
}


def references(tree: ast.AST) -> collections.Counter:
    """How often each name is loaded, or read as an attribute, in tree."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    )


def definitions(tree: ast.Module) -> list[ast.FunctionDef]:
    """The public module-level functions of tree, and the public methods and properties of its classes."""
    nodes = [n for node in tree.body for n in (node.body if isinstance(node, ast.ClassDef) else [node])]
    return [n for n in nodes if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]


def uncalled(trees: list[ast.Module] = TREES) -> set[str]:
    """The definitions in trees that nothing in trees outside their own body refers to."""
    everywhere = sum(map(references, trees), collections.Counter())
    public = [node for tree in trees for node in definitions(tree)]
    return {node.name for node in public if everywhere[node.name] == references(node)[node.name]}


def test_every_public_function_has_a_caller_or_is_allowed():
    assert sorted(uncalled() - ALLOWED) == []


def test_rule_sees_methods_and_properties():
    source = """
class Point:
    @property
    def used(self): return self.unused_property
    @property
    def unused_property(self): return 1
    def unused_method(self): return self.unused_method()
    def _private(self): return 0
def caller(p): return p.used
"""
    assert uncalled([ast.parse(source)]) == {"caller", "unused_method"}


def test_allow_list_holds_only_uncalled_functions():
    assert sorted(ALLOWED - uncalled()) == []


def test_readme_names_every_allowed_function():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("Functions without a caller in the library"):]
    assert sorted(name for name in ALLOWED if f"`{name}`" not in section) == []
