"""Linear polymatroids from exact rational subspace configurations.

Only the rank-function side is built: the rank table extends echelon bases
subset by subset in exact integer arithmetic (fraction-exact elimination per
subset, `rank_of`, is the tests' oracle), and the polymatroid is the set of
lattice points of the base polytope cut out by the rank inequalities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .lattice import GRID_CAP, CapExceeded, PointSet, check_index_subset, json_key, json_value
from .polymatroid import is_base_polymatroid


@dataclass(frozen=True)
class SubspaceConfig:
    """For each i in [p], a tuple of generator vectors in Q^q (tuples of Fractions)."""

    q: int
    subspaces: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("ambient dimension must be positive")
        for gens in self.subspaces:
            for g in gens:
                if len(g) != self.q:
                    raise ValueError(f"generator {g} does not have length {self.q}")
        if not any(x for gens in self.subspaces for g in gens for x in g):
            raise ValueError("at least one subspace must be nonzero")

    @property
    def p(self) -> int:
        return len(self.subspaces)


def matrix_rank(rows) -> int:
    """Rank over Q by fraction-exact row elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_cols = len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / pv
            if f:
                for c in range(col, n_cols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
        if rank == len(m):
            break
    return rank


def rank_of(config: SubspaceConfig, J) -> int:
    """dim of the sum of the subspaces indexed by J (1-based); rank of the
    empty set is 0."""
    J = set(J)
    if not J:
        return 0
    return matrix_rank([g for j in check_index_subset(J, config.p) for g in config.subspaces[j - 1]])


def _integer_row(g) -> list[int]:
    """g scaled by the lcm of its denominators."""
    d = math.lcm(*(x.denominator for x in g))
    return [x.numerator * (d // x.denominator) for x in g]


def rank_table(config: SubspaceConfig) -> dict[frozenset, int]:
    """rank(J) for every J of [p] (1-based), in one pass over bitmasks, so the
    subsets come in bitmask order (bit j - 1 stands for index j).  The
    echelon basis of J is that of J - {max J}, extended by the generators of
    subspace max J reduced against it: cross-multiplied at each pivot, then
    divided by their gcd.  Raises CapExceeded before any work when 2^p
    exceeds GRID_CAP."""
    p, q = config.p, config.q
    if 1 << p > GRID_CAP:
        raise CapExceeded(f"rank table has {1 << p} subsets (cap {GRID_CAP})")
    rows = [[_integer_row(g) for g in gens] for gens in config.subspaces]
    bases, subsets = [[]], [frozenset()]
    table = {frozenset(): 0}
    for mask in range(1, 1 << p):
        hi = mask.bit_length() - 1
        parent = mask ^ (1 << hi)
        basis = bases[parent]  # (pivot, row) pairs; shared, never mutated
        for v in rows[hi]:
            if len(basis) == q:
                break
            for c, b in basis:
                if v[c]:
                    s, t = b[c], v[c]
                    v = [s * x - t * y for x, y in zip(v, b)]
            pivot = next((c for c, x in enumerate(v) if x), None)
            if pivot is not None:
                g = math.gcd(*v)
                basis = basis + [(pivot, [x // g for x in v])]
        bases.append(basis)
        J = subsets[parent] | {hi + 1}
        subsets.append(J)
        table[J] = len(basis)
    return table


def _base_candidates(total: int, caps) -> list[tuple[int, ...]]:
    """Tuples y with 0 <= y_i <= caps[i] and sum(y) == total, in lex order."""
    points = [()]
    for i, cap in enumerate(caps):
        rest = sum(caps[i + 1:])
        points = [
            y + (a,)
            for y in points
            for a in range(max(0, total - sum(y) - rest), min(cap, total - sum(y)) + 1)
        ]
    return points


def linear_polymatroid(config: SubspaceConfig) -> PointSet:
    """Lattice points y >= 0 with sum_J y <= rank(J) for every J and total
    sum equal to rank([p]).  Rank is monotone, so only the bounds for J inside
    the support of y can bind.  Rank functions are submodular, so the output
    is asserted to pass the base-polymatroid exchange."""
    p = config.p
    ranks = list(rank_table(config).values())  # indexed by bitmask
    total = ranks[-1]
    points = []
    for y in _base_candidates(total, [min(ranks[1 << i], total) for i in range(p)]):
        sums, masks = [0], [0]  # y(J) and J over the subsets J of supp y
        for i, v in enumerate(y):
            if v:
                sums += [s + v for s in sums]
                masks += [m | 1 << i for m in masks]
        if all(s <= ranks[m] for s, m in zip(sums, masks)):
            points.append(y)
    out = PointSet._raw(p, points)
    chk = is_base_polymatroid(out)
    if not chk:
        raise RuntimeError(f"rank-function bug: output fails exchange: {chk.witness}")
    return out


def random_config(p: int, q: int, rng: random.Random, entry_bound: int = 3) -> SubspaceConfig:
    """Seeded random configuration with small integer entries.  Draws are
    resampled until some subspace is nonzero, which needs p, q and
    entry_bound of at least 1; anything smaller is refused up front."""
    if min(p, q, entry_bound) < 1:
        raise ValueError(f"random config needs p, q and entry bound >= 1, got {p}, {q}, {entry_bound}")
    while True:
        spans = []
        for _ in range(p):
            gens = tuple(
                tuple(Fraction(rng.randint(-entry_bound, entry_bound)) for _ in range(q))
                for _ in range(rng.randint(1, q))
            )
            spans.append(gens)
        try:
            return SubspaceConfig(q, tuple(spans))
        except ValueError:
            continue  # everything came out zero; resample


def config_to_json(config: SubspaceConfig) -> dict:
    return {
        "q": config.q,
        "subspaces": [
            [[[x.numerator, x.denominator] for x in g] for g in gens]
            for gens in config.subspaces
        ],
    }


def config_from_json(data) -> SubspaceConfig:
    """SubspaceConfig from JSON {"q": q, "subspaces": [[[[num, den], ...], ...], ...]};
    every error names the JSON path of the bad element."""
    json_value(data, dict, "$", 'an object {"q": int, "subspaces": [...]}')
    q = json_value(json_key(data, "q", "$"), int, "$.q", "a positive int", minimum=1)
    spans = json_value(json_key(data, "subspaces", "$"), list, "$.subspaces", "an array of subspaces")
    for i, gens in enumerate(spans):
        for k, g in enumerate(json_value(gens, list, f"$.subspaces[{i}]", "an array of generators")):
            path = f"$.subspaces[{i}][{k}]"
            for j, x in enumerate(json_value(g, list, path, f"a generator of {q} entries", q)):
                num, den = json_value(x, list, f"{path}[{j}]", "a [numerator, denominator] pair", 2)
                json_value(num, int, f"{path}[{j}][0]", "an int")
                if not json_value(den, int, f"{path}[{j}][1]", "a nonzero int"):
                    raise ValueError(f"{path}[{j}][1] must be a nonzero int, got 0")
    return SubspaceConfig(q, tuple(tuple(tuple(Fraction(*x) for x in g) for g in gens) for gens in spans))
