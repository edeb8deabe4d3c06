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

from .lattice import GRID_CAP, CapExceeded, PointSet, check_index_subset
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


def _integer_row(g) -> list[int]:
    """g scaled by the lcm of its denominators."""
    d = math.lcm(*(x.denominator for x in g))
    return [x.numerator * (d // x.denominator) for x in g]


def rank_table(config: SubspaceConfig) -> dict[frozenset, int]:
    """rank(J) for every J of [p] (1-based), in one pass over bitmasks.  The
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
    for y in _base_candidates(total, [min(s, total) for s in singles]):
        if all(sum(y[i] for i in idx) <= r for idx, r in constraints):
            points.append(y)
    out = PointSet(p, points)
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


def _json_int(x, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"subspace config: {what} must be an int, got {x!r}")
    return x


def _json_fraction(x) -> Fraction:
    if not isinstance(x, list) or len(x) != 2:
        raise ValueError(f"subspace config: entry {x!r} is not a [numerator, denominator] pair")
    return Fraction(*(_json_int(v, "numerator or denominator") for v in x))


def config_from_json(data) -> SubspaceConfig:
    if not isinstance(data, dict):
        raise ValueError("subspace config JSON must be an object with keys 'q' and 'subspaces'")
    try:
        q = _json_int(data["q"], "q")
        spans = tuple(
            tuple(tuple(_json_fraction(x) for x in g) for g in gens)
            for gens in data["subspaces"]
        )
    except KeyError as exc:
        raise ValueError(f"subspace config is missing the key {exc}") from exc
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed subspace config: {exc}") from exc
    return SubspaceConfig(q, spans)
