"""The literal oracles of the tests, by their definitions, and the inputs of
every route: the library runs none of these functions.  The module imports
no pytest, so the acceptance batteries that read it load no test runner.

ORACLES lists each literal oracle as a route of the object it checks, beside
cli.ROUTES; tests/test_routes.py records what every pair of routes of an
object reaches in common on the object's INPUTS.
"""

import itertools
import math
import random

from kpoly import polymatroid, subspaces
from kpoly.lattice import (
    CapExceeded,
    Check,
    EmptySetError,
    IntPolynomial,
    Point,
    PointSet,
    as_point,
    axis_values,
    class_floors,
    dominates,
    downset,
    members,
    point_set,
    top,
    truncation_masks,
)
from kpoly.monomial import SquareFreeIdeal, _ie_coefficients_subsets, msupp_to_ideal
from kpoly.schubert import grothendieck, msupp_of_matrix_schubert, zero_one_permutations
from kpoly.subspaces import SubspaceConfig
from running_example import AMBIENT_M3, MSUPP_3

# points and permutations


def unit_shift(u: Point, minus: int | None = None, plus: int | None = None) -> Point:
    """u - e_minus + e_plus with 0-based indices; either side optional."""
    w = list(u)
    if minus is not None:
        w[minus] -= 1
    if plus is not None:
        w[plus] += 1
    return tuple(w)


def truncate(A: PointSet, b) -> PointSet:
    """Points of A that dominate b componentwise (the b-truncation)."""
    return PointSet._raw(A.ambient_p, (q for q in A if dominates(q, b)))


def check_index_subset(J, p: int) -> tuple[int, ...]:
    """Validate a nonempty subset of 1..p; return it sorted."""
    idx = sorted(set(J))
    if not idx:
        raise ValueError("index subset must be nonempty")
    if idx[0] < 1 or idx[-1] > p:
        raise ValueError(f"index subset {idx} not inside 1..{p}")
    return tuple(idx)


def inversions(w) -> int:
    return sum(a > b for a, b in itertools.combinations(w, 2))


# the Hilbert function by counting monomials

# monomials hilbert_function_bruteforce may enumerate
BRUTEFORCE_CAP = 2_000_000


def _compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` nonnegative ints."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def count_monomials(v: Point, m: Point) -> int:
    return math.prod(math.comb(vi + mi, mi) for vi, mi in zip(v, m))


def hilbert_function_bruteforce(J: SquareFreeIdeal, v) -> int:
    """Number of multidegree-v monomials outside J, by direct enumeration of
    all monomials of multidegree v: a monomial survives iff its variables
    avoid some minimal prime entirely.  The tests' oracle for the Hilbert
    polynomials: it runs neither the inclusion-exclusion nor the stalactite
    route.  CapExceeded above BRUTEFORCE_CAP monomials, before the
    enumeration.
    """
    v = as_point(v, J.ambient_p)
    n_monomials = count_monomials(v, J.m)
    if n_monomials > BRUTEFORCE_CAP:
        raise CapExceeded(f"{n_monomials} monomials exceed the enumeration cap {BRUTEFORCE_CAP}")

    # A monomial avoids p_a iff, in every component i, it only uses variables
    # x_{i,j} with j >= a_i; only the smallest used index per component matters.
    per_component = []
    for vi, mi in zip(v, J.m):
        mins = []
        for comp in _compositions(vi, mi + 1):
            first = next((j for j, e in enumerate(comp) if e), None)
            mins.append(first)  # None when vi == 0: no constraint
        per_component.append(mins)

    coverage: dict[tuple, bool] = {}

    def covered(s: tuple) -> bool:
        hit = coverage.get(s)
        if hit is None:
            hit = any(
                all(si is None or si >= ai for si, ai in zip(s, a)) for a in J.primes
            )
            coverage[s] = hit
        return hit

    return sum(1 for s in itertools.product(*per_component) if covered(s))


# the paper's checks on a signed Hilbert support


def increasing_path_check(H: IntPolynomial) -> Check:
    """Every support point must reach a top point by +e_i steps inside the support."""
    if not H:
        return Check(True)
    supp = set(H.terms)
    mx = max(sum(q) for q in supp)
    reachable = {q for q in supp if sum(q) == mx}
    for s in range(mx - 1, -1, -1):
        for q in supp:
            if sum(q) != s:
                continue
            if any(unit_shift(q, None, i) in reachable for i in range(len(q))):
                reachable.add(q)
    stuck = sorted(supp - reachable)
    if stuck:
        return Check(False, {"condition": "increasing-path", "stuck": [list(q) for q in stuck]})
    return Check(True)


def dominance_cells(H: IntPolynomial):
    """(n, mask, S(n)) for each class floor n (lattice.class_floors) of the
    support's values, in natural lex order: mask the bits of the points w >= n
    of list(H.terms) (lattice.truncation_masks) and S(n) = sum_{w >= n} H(w),
    summed per coefficient value.  S is constant on each class, and the
    classes tile the box from the origin to the support's maximum."""
    if not H:
        raise EmptySetError("empty support")
    carriers = {}  # coefficient -> the bits of the points that carry it
    for k, c in enumerate(H.terms.values()):
        carriers[c] = carriers.get(c, 0) | 1 << k
    floors = itertools.product(*class_floors(axis_values(H.terms)))
    for n, mask in zip(floors, truncation_masks(list(H.terms))):
        yield n, mask, sum(c * (mask & bits).bit_count() for c, bits in carriers.items())


def dominance_sums(H: IntPolynomial) -> dict[Point, int]:
    """S(n) = sum_{w >= n} H(w), keyed by class floors (dominance_cells)."""
    return {n: s for n, _, s in dominance_cells(H)}


def verify_mobius_sums(H: IntPolynomial) -> Check:
    """Check sum_{w >= n} H(w) = 1 for every n dominated by some top point:
    the classes whose mask holds a top point.  A failure names the first
    such n in natural lex order, its class floor."""
    tops = top(H.support())._set
    hits = sum(1 << k for k, q in enumerate(H.terms) if q in tops)
    for n, mask, s in dominance_cells(H):
        if mask & hits and s != 1:
            return Check(False, {"condition": "dominance-sum", "n": list(n), "sum": s})
    return Check(True)


# the Mobius function by its recursion

# downset elements the recursive oracle, quadratic in them, may walk
RECURSIVE_CAP = 10_000


def _mobius_recursive(P: PointSet) -> IntPolynomial:
    """The tests' oracle for mobius_to_top on a base polymatroid P: the
    generic first-argument recursion mu(u) = -(1 + sum_{w>u} mu(w)) over the
    literal lattice.downset of at most RECURSIVE_CAP elements, sharing no
    code with mobius_to_top."""
    ds = downset(P)
    if len(ds) > RECURSIVE_CAP:
        raise CapExceeded(f"downset has {len(ds)} elements (recursive cap {RECURSIVE_CAP})")
    mu: dict[Point, int] = {}
    for u in sorted(ds, key=lambda q: (-sum(q), q)):
        mu[u] = -(1 + sum(mu[w] for w in mu if w != u and dominates(w, u)))
    return IntPolynomial._raw(P.ambient_p, {u: c for u, c in mu.items() if c})


# the base polymatroid of a rank table by filtering every candidate


def base_candidates(total, caps):
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


def candidate_filter(ranks):
    """The base polymatroid of a rank table by the literal route, in lex
    order: every stars-and-bars candidate inside the singleton ranks, kept
    when it meets the rank bound of every subset of its support (rank is
    monotone, so no other bound can bind)."""
    p, total = len(ranks).bit_length() - 1, ranks[-1]
    points = []
    for y in base_candidates(total, [min(ranks[1 << i], total) for i in range(p)]):
        sums, masks = [0], [0]  # y(J) and J over the subsets J of supp y
        for i, v in enumerate(y):
            if v:
                sums += [s + v for s in sums]
                masks += [m | 1 << i for m in masks]
        if all(s <= ranks[m] for s, m in zip(sums, masks)):
            points.append(y)
    return points


# the rank function by fresh fraction-exact elimination per subset: the
# oracle of the rank table


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


# ---------------------------------------------------------------------------
# route inputs: object -> a function that builds them afresh, each input the
# arguments of one call


def _msupps():
    """(msupp, m) of the running example and of every zero-one w in S_4."""
    return [(point_set(MSUPP_3), AMBIENT_M3), *map(msupp_of_matrix_schubert, zero_one_permutations(4))]


def _configs():
    rng = random.Random(20240817)  # the stream of acceptance criterion 08
    return [subspaces.random_config(rng.randint(2, 5), rng.randint(2, 5), rng) for _ in range(200)]


INPUTS = {
    "grothendieck": lambda: [(w,) for w in zero_one_permutations(4)],
    "hilbert": _msupps,
    "deg = -mu": lambda: [(P,) for P, _ in _msupps()],
    "g-polymatroid": lambda: [(grothendieck(w).support(),) for w in itertools.permutations(range(1, 5))],
    "rank table": lambda: [(c,) for c in _configs()],
    "base polymatroid": lambda: [(subspaces.rank_table(c),) for c in _configs()],
}

# (object, route, call, inputs, shares) for each literal oracle, and for the
# library routes of the objects that no command compares: a route as in
# cli.ROUTES, with its own inputs when they differ from the object's
ORACLES = [
    ("hilbert", "subsets", _ie_coefficients_subsets,
     lambda: [(msupp_to_ideal(P, m).primes,) for P, m in _msupps()], ""),
    ("hilbert", "bruteforce", hilbert_function_bruteforce,
     lambda: [(msupp_to_ideal(point_set(MSUPP_3), AMBIENT_M3), v) for v in itertools.product(range(3), repeat=3)],
     "lattice.as_point monomial.SquareFreeIdeal.ambient_p"),
    ("deg = -mu", "recursive", _mobius_recursive, INPUTS["deg = -mu"], ""),
    ("rank table", "rank_table", subspaces.rank_table, INPUTS["rank table"], ""),
    ("rank table", "rank_of", lambda c: [rank_of(c, members(X)) for X in range(1 << c.p)], INPUTS["rank table"], ""),
    ("base polymatroid", "base_polymatroid", polymatroid.base_polymatroid, INPUTS["base polymatroid"], ""),
    ("base polymatroid", "candidate_filter", candidate_filter, INPUTS["base polymatroid"], ""),
]
