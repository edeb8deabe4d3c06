"""Per-layer spans and work counters, recorded from outside the library.

The layers are kpoly's modules.  ``Recorder.install`` replaces each public
function in ``LAYERS`` with a wrapper that records a span (name, start, end,
parent span, op id).  The wrapper is bound wherever the original function
object is bound in a loaded ``kpoly`` module: as the module attribute, which
catches ``module.func(...)`` calls, same-module global calls and the
function-local ``from .x import f`` imports, and under every
``from .x import f`` alias taken at import time.  References captured before
``install`` runs, inside containers or closures, are not caught.

Work counts come from the arguments (and, for ``stalactite_union``, the
result) of the wrapped calls and are computed after the pass, so they cost
nothing inside any span.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import sys
import time

LAYERS = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("lattice", "point_set_from_json"),
    ("schubert", "count_zero_one"),
    ("schubert", "grothendieck"),
    ("schubert", "grothendieck_via_stalactites"),
    ("schubert", "grothendieck_via_mobius"),
    ("schubert", "is_zero_one"),
    ("mobius", "mobius_to_top"),
    ("mobius", "mu_support"),
    ("mobius", "verify_matroid_mu_theorem"),
    ("monomial", "hilbert_poly_ie"),
    ("polymatroid", "is_g_polymatroid"),
    ("polymatroid", "is_base_polymatroid"),
    ("polymatroid", "is_cave"),
    ("polymatroid", "integer_points"),
    ("stalactite", "hsupp_from_msupp"),
    ("stalactite", "stalactite_union"),
    ("stalactite", "verify_shelling"),
    ("subspaces", "rank_table"),
    ("subspaces", "linear_polymatroid"),
)

# layers whose .calls count is reported next to their busy time
CALL_COUNTS = (
    "cli.main",
    "lattice.point_set_from_json",
    "mobius.mobius_to_top",
    "monomial.hilbert_poly_ie",
    "polymatroid.is_g_polymatroid",
)

# layers whose calls carry work counts (see _work)
COUNTED = frozenset((
    "schubert.count_zero_one", "mobius.mobius_to_top", "monomial.hilbert_poly_ie",
    "polymatroid.is_g_polymatroid", "polymatroid.is_cave", "polymatroid.integer_points",
    "stalactite.stalactite_union", "subspaces.rank_table",
))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _downset_cells(P) -> int:
    cells = set()
    for v in P:
        cells.update(itertools.product(*(range(c + 1) for c in v)))
    return len(cells)


def _box_cells(bounds) -> int:
    if any(b < 0 for b in bounds):
        return 0
    return math.prod(b + 1 for b in bounds)


def _work(name, args, kwargs, result, subset_cap):
    """Work counts of one wrapped call, as {counter: amount}."""
    if name == "schubert.count_zero_one":
        return {"schubert.perms": math.factorial(_arg(args, kwargs, 0, "p"))}
    if name == "mobius.mobius_to_top":
        if _arg(args, kwargs, 1, "method", "closed") != "closed":
            return {}
        P = _arg(args, kwargs, 0, "P")
        cells = _downset_cells(P)
        return {"mobius.downset_cells": cells, "mobius.mask_probes": cells << P.ambient_p}
    if name == "monomial.hilbert_poly_ie":
        k = len(_arg(args, kwargs, 0, "J").primes)
        auto = _arg(args, kwargs, 1, "method", "auto") == "auto"
        lattice = auto and k > subset_cap(_arg(args, kwargs, 2, "cap"))
        return {"monomial.ie_primes": k, "monomial.ie_subsets": (1 << k) - 1,
                "monomial.ie_auto_lattice": int(lattice)}
    if name == "polymatroid.is_g_polymatroid":
        if _arg(args, kwargs, 1, "method", "axioms") != "axioms":
            return {}
        n = len(_arg(args, kwargs, 0, "G"))
        return {"polymatroid.axiom_pairs": n * (n - 1)}
    if name == "polymatroid.is_cave":
        C = _arg(args, kwargs, 0, "C")
        maxes = [max(q[i] for q in C) for i in range(C.ambient_p)] if len(C) else [-1]
        return {"polymatroid.cave_cells": _box_cells(maxes)}
    if name == "polymatroid.integer_points":
        s = _arg(args, kwargs, 0, "sys_")
        bounds = [s.upper[frozenset({i})] for i in range(1, s.ambient_p + 1)]
        return {"polymatroid.integer_box_cells": _box_cells(bounds)}
    if name == "stalactite.stalactite_union":
        return {"stalactite.stalactite_points": sum(len(st) for _, st in result)}
    if name == "subspaces.rank_table":
        return {"subspaces.rank_calls": (1 << _arg(args, kwargs, 0, "config").p) - 1}
    return {}


# (rate name, counter, factor to the rate's unit): time of the calls that did
# the counted work, per unit of that work
RATES = (
    ("schubert.ns_per_perm", "schubert.perms", 1e9),
    ("mobius.ns_per_mask_probe", "mobius.mask_probes", 1e9),
    ("monomial.ns_per_ie_subset", "monomial.ie_subsets", 1e9),
    ("polymatroid.ns_per_axiom_pair", "polymatroid.axiom_pairs", 1e9),
    ("polymatroid.ns_per_cave_cell", "polymatroid.cave_cells", 1e9),
    ("polymatroid.ns_per_integer_box_cell", "polymatroid.integer_box_cells", 1e9),
    ("stalactite.ns_per_stalactite_point", "stalactite.stalactite_points", 1e9),
    ("subspaces.us_per_rank_call", "subspaces.rank_calls", 1e6),
)
COUNTERS = (
    "schubert.perms", "mobius.downset_cells", "mobius.mask_probes", "monomial.ie_primes",
    "monomial.ie_subsets", "monomial.ie_auto_lattice", "polymatroid.axiom_pairs",
    "polymatroid.cave_cells", "polymatroid.integer_box_cells",
    "stalactite.stalactite_points", "subspaces.rank_calls",
)


class Recorder:
    """In-memory span store for one worker process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.kept = []   # (span index, name, args, kwargs, result) of counted calls
        self.stack = []
        self.op_id = -1
        self.originals = {}

    def _wrap(self, name, fn):
        spans, stack, kept = self.spans, self.stack, self.kept
        counted = name in COUNTED

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if counted:
                kept.append((index, name, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, fn_name in LAYERS:
            module = importlib.import_module(f"kpoly.{mod_name}")
            original = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "kpoly":
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)

    def layer_metrics(self, paused) -> dict:
        """Busy time and calls per layer, cli self time, counters and rates.
        paused(start, end) is the time within a span spent outside the
        library (the calibration chunks), which no span is charged for."""
        dur = [end - start - paused(start, end) for _, start, end, _, _ in self.spans]
        busy = {f"{m}.{f}": 0.0 for m, f in LAYERS}
        calls = dict.fromkeys(busy, 0)
        child_lib = {}
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            calls[name] += 1
            # inclusive time: skip spans nested in a span of the same name
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += dur[i]
            if parent >= 0 and not name.startswith("cli."):
                child_lib[parent] = child_lib.get(parent, 0.0) + dur[i]
        cli_self = sum(
            dur[i] - child_lib.get(i, 0.0)
            for i, span in enumerate(self.spans)
            if span[0] == "cli.main"
        )
        from kpoly.monomial import subset_cap

        counts = dict.fromkeys(COUNTERS, 0)
        rate_time = {}
        for index, name, args, kwargs, result in self.kept:
            for counter, amount in _work(name, args, kwargs, result, subset_cap).items():
                counts[counter] += amount
                rate_time[counter] = rate_time.get(counter, 0.0) + dur[index]
        out = {f"{name}.s": t for name, t in busy.items()}
        out.update({f"{name}.calls": calls[name] for name in CALL_COUNTS})
        out["cli.self_s"] = cli_self
        out.update(counts)
        for rate, counter, factor in RATES:
            n = counts[counter]
            out[rate] = rate_time[counter] / n * factor if n else 0.0
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the header and one JSON line per span, times relative to
        the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "run": op_id}) + "\n")
