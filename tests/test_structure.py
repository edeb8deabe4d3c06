"""The package's module graph: every import at module level, no cycle, one
owner per kernel, so private names cross modules only out of lattice, and no
module importing the stdlib packages that cost a fresh process its start-up."""

import ast
import collections
import graphlib
import pathlib
import subprocess
import sys

import pytest

import kpoly

SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(pathlib.Path(kpoly.__file__).parent.glob("*.py"))}


def _package_imports(tree):
    """(module, names) for each import of a kpoly module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [a.name for a in node.names]
            if node.module:
                yield node.module, names
            else:
                yield from ((name, []) for name in names)


def test_every_import_is_at_module_level():
    nested = [
        f"{name}.py:{node.lineno}"
        for name, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert not nested, nested


def test_module_graph_is_acyclic():
    graph = {name: {module for module, _ in _package_imports(tree)} for name, tree in SOURCES.items()}
    assert set().union(*graph.values()) <= set(SOURCES)
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_private_names_cross_modules_only_out_of_lattice():
    crossing = [
        (name, module, imported)
        for name, tree in SOURCES.items()
        for module, names in _package_imports(tree)
        for imported in names
        if imported.startswith("_") and module != "lattice"
    ]
    assert not crossing, crossing


# stdlib packages no kpoly module needs: multiprocessing brings pickle and
# socket, dataclasses brings inspect (with ast, dis and tokenize), and the two
# would take about two thirds of the time of `import kpoly.cli`
UNLOADED = ("multiprocessing", "dataclasses", "inspect", "pickle", "socket")


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_import_loads_neither_multiprocessing_nor_dataclasses(name):
    module = "kpoly" if name == "__init__" else f"kpoly.{name}"
    src = str(pathlib.Path(kpoly.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            "print(*sorted(set(sys.argv[1:]) & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code, *UNLOADED],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


def test_acceptance_batteries_load_no_test_runner():
    # the CI steps import test_acceptance in a fresh process for its check_*
    # batteries; it and the oracles it reads import no pytest
    paths = [str(pathlib.Path(kpoly.__file__).parent.parent), str(pathlib.Path(__file__).parent)]
    code = f"import sys; sys.path[:0] = {paths!r}; import test_acceptance; print('pytest' in sys.modules)"
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False"]


# public functions, classes and methods that nothing in src/kpoly calls, each
# with why it stays
KEPT_PUBLIC = {
    "lattice.point_set": "the user-facing constructor of a point set from any points",
    "polymatroid.base_polymatroid": "the checked constructor of a base polymatroid from a user's rank table",
    "mobius.contraction": "the user-facing matroid contraction of the mu theorem's statement (c)",
    "schubert.rothe_diagram": "the Schubitope route of ROADMAP direction 1 is to call it",
    "monomial.subset_cap": "perfbench/layers.py reads it",
    "polymatroid.integer_points": "perfbench/layers.py wraps it",
    "stalactite.stalactite_union": "perfbench/layers.py wraps it",
    "subspaces.rank_table": "perfbench/layers.py wraps it",
    "mobius.matroids_on_ground": "perfbench/workloads.py builds its matroid inputs with it",
    "mobius.matroid_to_json": "perfbench/workloads.py writes its matroid inputs with it",
    "schubert.zero_one_permutations": "perfbench/workloads.py draws its permutations from it",
    "stalactite.collapse_fixed_components": "perfbench/workloads.py builds its cave inputs with it",
}


def _references(node, modules=()):
    """Every name but those in modules, attribute and string constant under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id not in modules:
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _unreferenced_functions():
    """module.name of each top-level function and public class of src/kpoly,
    and module.Class.name of each public method of those classes, that no
    module but __init__ names outside the def itself: as a name, an attribute
    or a string constant, not counting the names that `from . import` binds
    to kpoly modules."""
    counts, defs = collections.Counter(), {}
    for name, tree in SOURCES.items():
        if name == "__init__":
            continue
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level and not node.module for alias in node.names}
        counts.update(_references(tree, modules))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{name}.{node.name}"] = node
                defs.update((f"{name}.{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
    return {qualified for qualified, node in defs.items()
            if ("._" not in qualified or qualified.count(".") == 1 and isinstance(node, ast.FunctionDef))
            and counts[node.name] == list(_references(node)).count(node.name)}


def test_every_public_function_has_a_caller_or_a_declared_reason():
    # a function or method that only the tests call lives in the tests, beside the
    # route it checks, private top-level functions included; a kept name that
    # gains a caller leaves the list
    assert _unreferenced_functions() == set(KEPT_PUBLIC)
