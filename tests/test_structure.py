"""The package's module graph: every import at module level, no cycle, one
owner per kernel, so private names cross modules only out of lattice, and no
module importing the stdlib packages that cost a fresh process its start-up."""

import ast
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
