"""The library keeps no dead code: every public module-level function in `src/` has a caller there.

A caller is any load of the function's name, or any attribute of that name, in `src/` outside the
function's own body.  `ALLOWED` holds the functions that stay without one, and README names each
with its reason ("Functions without a caller in the library").
"""
import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "nordenhyp").glob("*.py"))]

ALLOWED = {
    # imported or traced by the benchmark
    "rng", "random_timelike_frame", "random_main_class_data", "pi_prime",
    # checks that the shape-to-class map and the Gauss identities are still to be run on
    "class_residual", "F_from_A", "validate_F6_shape", "gauss_identities_residual", "R_lambda_mu",
    # test-input samplers, to move under tests/ with the other per-call samplers
    "random_complex_point", "random_nu_pair", "random_totally_real_pair",
}


def references(tree: ast.AST) -> collections.Counter:
    """How often each name is loaded, or read as an attribute, in tree."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    )


def uncalled() -> set[str]:
    """The public module-level functions of src/ that nothing in src/ outside their own body refers to."""
    everywhere = sum(map(references, TREES), collections.Counter())
    public = [node for tree in TREES for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    return {node.name for node in public if everywhere[node.name] == references(node)[node.name]}


def test_every_public_function_has_a_caller_or_is_allowed():
    assert sorted(uncalled() - ALLOWED) == []


def test_allow_list_holds_only_uncalled_functions():
    assert sorted(ALLOWED - uncalled()) == []


def test_readme_names_every_allowed_function():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("Functions without a caller in the library"):]
    assert sorted(name for name in ALLOWED if f"`{name}`" not in section) == []
