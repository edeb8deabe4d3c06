"""Linear polymatroids from exact rational subspace configurations.

Only the rank-function side is built: the rank table extends echelon bases
subset by subset in exact integer arithmetic (fraction-exact elimination per
subset, `rank_of`, is the tests' oracle) and lists the ranks by bitmask, the
one encoding of set functions on [p] (lattice.members decodes a mask); the
polymatroid is polymatroid.trusted_base_polymatroid of that table, submodular
and monotone by construction: the integer points of the base polytope walked
coordinate by coordinate, without base_polymatroid's scans of the table.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .lattice import GRID_CAP, CapExceeded, PointSet, Record, check_index_subset, check_subset_table, json_key, json_value
from .polymatroid import check_base_candidates, trusted_base_polymatroid


class SubspaceConfig(Record):
    """For each i in [p], a tuple of generator vectors in Q^q (tuples of Fractions)."""

    __slots__ = ("q", "subspaces")

    def __init__(self, q: int, subspaces: tuple[tuple[tuple[Fraction, ...], ...], ...]):
        if q <= 0:
            raise ValueError("ambient dimension must be positive")
        for gens in subspaces:
            for g in gens:
                if len(g) != q:
                    raise ValueError(f"generator {g} does not have length {q}")
        if not any(x for gens in subspaces for g in gens for x in g):
            raise ValueError("at least one subspace must be nonzero")
        super().__init__(q, subspaces)

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


def _echelon_extend(basis: list, rows, q: int) -> list:
    """basis ((pivot, row) pairs, never mutated) extended by rows, each reduced against it
    (cross-multiplied at each pivot, then divided by its gcd) and kept unless zero."""
    for v in rows:
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
    return basis


def rank_table(config: SubspaceConfig) -> list[int]:
    """rank(X) for every subset X of [p], as a list indexed by bitmask (bit
    j - 1 stands for index j; entry 0 is the empty set).  The echelon basis
    of X is that of X - {max X}, extended by the generators of subspace
    max X.  Raises CapExceeded before any echelon basis when 2^p exceeds
    GRID_CAP."""
    return _rank_table([[_integer_row(g) for g in gens] for gens in config.subspaces], config.q)


def _rank_table(rows: list, q: int) -> list[int]:
    """rank_table on the integer rows of each subspace."""
    check_subset_table(len(rows), "rank table has", GRID_CAP)
    bases = [[]]  # (pivot, row) pairs, each basis shared with its supersets
    for mask in range(1, 1 << len(rows)):
        hi = mask.bit_length() - 1
        bases.append(_echelon_extend(bases[mask ^ (1 << hi)], rows[hi], q))
    return list(map(len, bases))


def linear_polymatroid(config: SubspaceConfig) -> PointSet:
    """The base polymatroid of the rank function of config, a rank table
    submodular and monotone by construction; the candidate cap sees rank([p])
    first, from one echelon pass over the integer rows that the rank table reuses."""
    rows = [[_integer_row(g) for g in gens] for gens in config.subspaces]
    check_base_candidates(len(_echelon_extend([], itertools.chain(*rows), config.q)), config.p)
    return trusted_base_polymatroid(_rank_table(rows, config.q))


# entries random_config may draw, p subspaces of up to q generators of q
# entries; the largest config the tests and the benchmark draw has 125
RANDOM_ENTRY_CAP = 100_000


def random_config(p: int, q: int, rng: random.Random, entry_bound: int = 3) -> SubspaceConfig:
    """Seeded random configuration with small integer entries.  Draws are
    resampled until some subspace is nonzero, which needs p, q and
    entry_bound of at least 1; anything smaller is refused up front.  So, with
    CapExceeded, is one that could draw more than RANDOM_ENTRY_CAP entries or
    whose rank table exceeds GRID_CAP."""
    if min(p, q, entry_bound) < 1:
        raise ValueError(f"random config needs p, q and entry bound >= 1, got {p}, {q}, {entry_bound}")
    if p * q * q > RANDOM_ENTRY_CAP:
        raise CapExceeded(f"random config draws up to {p * q * q} entries (cap {RANDOM_ENTRY_CAP})")
    check_subset_table(p, "rank table has", GRID_CAP)
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
    every error names the JSON path of the bad element.  Paths are built
    only once the plain check of the whole config fails."""
    if not (type(data) is dict and type(q := data.get("q")) is int and q > 0
            and type(spans := data.get("subspaces")) is list
            and all(type(gens) is list and all(type(g) is list and len(g) == q and all(
                type(x) is list and len(x) == 2 and type(x[0]) is int and type(x[1]) is int and x[1]
                for x in g) for g in gens) for gens in spans)):
        q, spans = _checked_config(data)
    return SubspaceConfig(q, tuple(tuple(tuple(Fraction(*x) for x in g) for g in gens) for gens in spans))


def _checked_config(data) -> tuple[int, list]:
    """(q, subspaces) of a JSON config; a ValueError names the path of its first bad element."""
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
    return q, spans
