"""Linear polymatroids from exact rational subspace configurations.

Only the rank-function side is built: ranks come from fraction-exact
Gaussian elimination, and the polymatroid is the set of lattice points of
the base polytope cut out by the rank inequalities.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .lattice import PointSet, check_index_subset
from .polymatroid import is_base_polymatroid


@dataclass(frozen=True)
class SubspaceConfig:
    """For each i in [p], a list of generator vectors in Q^q."""

    q: int
    subspaces: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("ambient dimension must be positive")
        spans = []
        for gens in self.subspaces:
            fixed = []
            for g in gens:
                if len(g) != self.q:
                    raise ValueError(f"generator {g} does not have length {self.q}")
                fixed.append(tuple(Fraction(x) for x in g))
            spans.append(tuple(fixed))
        if not any(any(any(x for x in g) for g in gens) for gens in spans):
            raise ValueError("at least one subspace must be nonzero")
        object.__setattr__(self, "subspaces", tuple(spans))

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
    J = sorted(set(J))
    if not J:
        return 0
    check_index_subset(J, config.p)
    rows = [g for j in J for g in config.subspaces[j - 1]]
    return matrix_rank(rows)


def rank_table(config: SubspaceConfig) -> dict[frozenset, int]:
    table = {frozenset(): 0}
    for r in range(1, config.p + 1):
        for J in itertools.combinations(range(1, config.p + 1), r):
            table[frozenset(J)] = rank_of(config, J)
    return table


def linear_polymatroid(config: SubspaceConfig) -> PointSet:
    """Lattice points y >= 0 with sum_J y <= rank(J) for every J and
    total sum equal to rank([p]).  Rank functions are submodular, so the
    output is asserted to pass the base-polymatroid exchange."""
    p = config.p
    table = rank_table(config)
    total = table[frozenset(range(1, p + 1))]
    singles = [table[frozenset({i})] for i in range(1, p + 1)]
    constraints = [
        (tuple(j - 1 for j in sorted(J)), r)
        for J, r in table.items()
        if J and len(J) < p
    ]
    points = []
    for y in itertools.product(*(range(min(s, total) + 1) for s in singles)):
        if sum(y) != total:
            continue
        if all(sum(y[i] for i in idx) <= r for idx, r in constraints):
            points.append(y)
    out = PointSet(p, points)
    chk = is_base_polymatroid(out)
    if not chk:
        raise RuntimeError(f"rank-function bug: output fails exchange: {chk.witness}")
    return out


def random_config(p: int, q: int, rng: random.Random, entry_bound: int = 3) -> SubspaceConfig:
    """Seeded random configuration with small integer entries."""
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
    try:
        q = int(data["q"])
        spans = tuple(
            tuple(tuple(Fraction(num, den) for num, den in g) for g in gens)
            for gens in data["subspaces"]
        )
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed subspace config: {exc}") from exc
    return SubspaceConfig(q, spans)
