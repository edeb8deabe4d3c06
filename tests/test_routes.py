"""Route independence: any two routes of an object, the rows of cli.ROUTES
and the routes of tests/oracles.py, reach in common no kpoly function but the
value types' primitives and the names that both routes declare they share."""

import functools
import importlib
import inspect
import itertools
import pkgutil
import sys

import pytest

import kpoly
from kpoly import cli, schubert
from oracles import INPUTS, ORACLES

# the raw constructor and container protocol of the value types
SHARED_PRIMITIVES = frozenset((
    "kpoly.lattice.IntPolynomial._raw",
    "kpoly.lattice.PointSet.__bool__",
    "kpoly.lattice.PointSet.__iter__",
    "kpoly.lattice.PointSet.__len__",
))

# object -> {route: (call, inputs, shares)}
ROUTES = {obj: {route: (call, INPUTS[obj], shares) for route, (call, _, shares) in routes.items()}
          for obj, routes in cli.ROUTES.items()}
for obj, route, *row in ORACLES:
    ROUTES.setdefault(obj, {})[route] = tuple(row)


@functools.cache
def _kpoly_functions() -> dict:
    """{id of its code object: function} for every function and method a kpoly
    module defines, through caches, properties and class or static methods."""
    index = {}
    for info in pkgutil.iter_modules(kpoly.__path__):
        module = importlib.import_module(f"kpoly.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for f in [obj, *vars(obj).values()] if isinstance(obj, type) else [obj]:
                f = getattr(f, "__func__", f)
                f = inspect.unwrap(getattr(f, "fget", f))
                if inspect.isfunction(f):
                    index[id(f.__code__)] = f
    return index


def _reached(route, inputs) -> set[str]:
    """Qualified names of the kpoly functions that route calls on inputs."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(id(frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for x in inputs:
            route(x)
    finally:
        sys.setprofile(previous)
    index = _kpoly_functions()
    return {f"{f.__module__}.{f.__qualname__}" for f in map(index.get, codes) if f is not None}


def _record(obj: str, route: str) -> set[str]:
    """What route reaches on its inputs, built afresh, so no point set holds a
    stored base check, with the Grothendieck memos cleared after the build."""
    call, inputs, _ = ROUTES[obj][route]
    inputs = inputs()
    schubert._grothendieck_codes.cache_clear()
    schubert._perm_coding.cache_clear()
    return _reached(lambda args: call(*args), inputs)


_recorded = functools.cache(_record)


def _declared(obj: str, route: str) -> set[str]:
    return {f"kpoly.{name}" for name in ROUTES[obj][route][2].split()}


PAIRS = [(obj, one, other) for obj, routes in ROUTES.items() for one, other in itertools.combinations(routes, 2)]


@pytest.mark.parametrize("obj, one, other", PAIRS, ids=[" ".join(pair) for pair in PAIRS])
def test_routes_share_only_declared_names(obj, one, other):
    shared = _recorded(obj, one) & _recorded(obj, other)
    assert shared <= SHARED_PRIMITIVES | (_declared(obj, one) & _declared(obj, other)), sorted(shared)


@pytest.mark.parametrize("obj", ROUTES)
def test_every_declared_share_is_shared(obj):
    # a declared name that no two routes both declare and reach is stale
    stale = {(route, name) for route in ROUTES[obj] for name in _declared(obj, route)
             if not any(name in _declared(obj, other) and name in _recorded(obj, route) & _recorded(obj, other)
                        for other in ROUTES[obj] if other != route)}
    assert not stale, sorted(stale)


def test_recording_clears_the_grothendieck_memos():
    # divided differences fill _grothendieck_codes; the stalactite route,
    # recorded next, still reaches the memoized chain
    for route in ("divided-diff", "stalactites"):
        assert "kpoly.schubert._grothendieck_codes" in _record("grothendieck", route)
