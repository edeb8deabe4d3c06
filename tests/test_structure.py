"""The package's module graph: every import at module level, no cycle, and
one owner per kernel, so private names cross modules only out of lattice."""

import ast
import graphlib
import pathlib

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
