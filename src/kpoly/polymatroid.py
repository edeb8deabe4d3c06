"""Axiom-level verifiers for base polymatroids, g-polymatroids and caves.

Every checker returns a Check whose witness pinpoints the first violated
condition (points are reported as lists, indices 1-based) so failures are
debuggable from test output and from the CLI.
"""

from __future__ import annotations

import itertools
import math
import random

from .lattice import (
    CapExceeded,
    Check,
    EmptySetError,
    PointSet,
    check_index_subset,
    homogenize,
    top,
    unit_shift,
)

G_POLY_METHODS = ("axioms", "homogenization", "paramodular")

INTEGER_POINTS_CAP = 10_000_000

# cells of the truncation grid prod(max_i + 1) that is_cave walks; the
# largest cave the tests and the benchmark check has 625
CAVE_GRID_CAP = 100_000


def is_base_polymatroid(P: PointSet) -> Check:
    """Homogeneity plus the exchange axiom for every ordered pair.

    The empty set and singletons pass vacuously.  Two exact routes answer:

    exchange loop  _exchange_check, the definition, O(|P|^2 p^2)
    support bounds a homogeneous set is a base polymatroid exactly when it is
                   a g-polymatroid (an M-natural-convex set on a hyperplane
                   y([p]) = r is M-convex; Murota, Discrete Convex Analysis,
                   2003), and by Frank's theorem (Generalized polymatroids,
                   1984) that holds exactly when its support bounds (c, b)
                   form a paramodular pair whose Q(c, b) has no integer point
                   outside P.  O(|P| 2^p + p^2 2^p)

    The loop runs when its pair count is the smaller work,
    |P|(|P| - 1) p <= (p + 1)^2 2^p, and whenever the support-bound route
    does not pass, so every witness comes from the loop: `homogeneous` with
    the lightest and heaviest points, or `exchange` with u, v and the
    1-based i.  The support-bound walk stops after |P| + 1 points and never
    dead-ends once the pair passes, so it needs no box-volume cap.
    The verdict is computed once per set and stored on P, which is immutable.
    """
    if getattr(P, "_base_check", None) is None:
        P._base_check = _base_polymatroid_check(P)
    return P._base_check


def _base_polymatroid_check(P: PointSet) -> Check:
    n, p = len(P), P.ambient_p
    if n * (n - 1) * p > (p + 1) ** 2 << p:
        c, b = _support_tables(P)
        homogeneous = c[-1] == b[-1]
        if homogeneous and _paramodular_check(c, b, p) and _table_points(c, b, p, None, n) == P:
            return Check(True)
    return _exchange_check(P)


def _exchange_check(P: PointSet) -> Check:
    """is_base_polymatroid by the definition: homogeneity, then the exchange
    axiom for every ordered pair.  The oracle, and the only route behind
    the homogenization method of is_g_polymatroid."""
    if len(P) <= 1:
        return Check(True)
    p = P.ambient_p
    sums = {sum(q) for q in P}
    if len(sums) > 1:
        lo = min(P, key=sum)
        hi = max(P, key=sum)
        return Check(False, {"condition": "homogeneous", "points": [list(lo), list(hi)]})
    for u in P:
        for v in P:
            if u == v:
                continue
            for i in range(p):
                if u[i] <= v[i]:
                    continue
                if not any(
                    u[j] < v[j] and unit_shift(u, i, j) in P for j in range(p)
                ):
                    return Check(
                        False,
                        {"condition": "exchange", "u": list(u), "v": list(v), "i": i + 1},
                    )
    return Check(True)


def check_symmetric_exchange(P: PointSet) -> Check:
    """Strengthened exchange: the swap works on both sides simultaneously.

    Holds for every base polymatroid, so this is a cross-validation property,
    not a classifier.  Raises if P is not a base polymatroid to begin with.
    """
    base = is_base_polymatroid(P)
    if not base:
        raise ValueError(f"not a base polymatroid: {base.witness}")
    # on a homogeneous set the drop and expansion branches of the g-polymatroid
    # axioms are vacuous, so their swap condition is the symmetric exchange
    chk = _axiom_check(P)
    if chk:
        return chk
    return Check(False, {**chk.witness, "condition": "symmetric-exchange"})


def _axiom_check(G: PointSet) -> Check:
    p = G.ambient_p
    for u in G:
        su = sum(u)
        for v in G:
            if u == v:
                continue
            sv = sum(v)
            for i in range(p):
                if u[i] <= v[i]:
                    continue
                swap = any(
                    u[j] < v[j]
                    and unit_shift(u, i, j) in G
                    and unit_shift(v, j, i) in G
                    for j in range(p)
                )
                drop = (
                    su > sv
                    and unit_shift(u, i, None) in G
                    and unit_shift(v, None, i) in G
                )
                if not (swap or drop):
                    return Check(
                        False,
                        {"condition": "exchange", "u": list(u), "v": list(v), "i": i + 1},
                    )
            if su < sv:
                if not any(
                    u[j] < v[j]
                    and unit_shift(u, None, j) in G
                    and unit_shift(v, j, None) in G
                    for j in range(p)
                ):
                    return Check(
                        False,
                        {"condition": "expansion", "u": list(u), "v": list(v)},
                    )
    return Check(True)


def is_g_polymatroid(G: PointSet, method: str = "axioms") -> Check:
    """Generalized-polymatroid test via one of three exact routes.

    axioms            direct Exchange + Expansion over all ordered pairs; the
                      definition, O(|G|^2 p^2)
    homogenization    append the slack coordinate, then base-polymatroid exchange
    paramodular       the support bounds (c, b) form a paramodular pair and G
                      is the set of integer points of Q(c, b).  Exact by
                      Frank's theorem (Generalized polymatroids, 1984): the
                      integral g-polymatroids are the polyhedra Q(c, b) of
                      integral paramodular pairs, and the support bounds of
                      such a Q are (c, b) themselves.
                      O(|G| 2^p + p^2 2^p) plus the integer-point walk,
                      which never dead-ends once the pair passes and stops
                      after |G| + 1 points, so it needs no box-volume cap;
                      a failure lists the points outside G among those.
    """
    if method not in G_POLY_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {G_POLY_METHODS}")
    if len(G) == 0:
        return Check(True)
    if method == "axioms":
        return _axiom_check(G)
    if method == "homogenization":
        res = _exchange_check(homogenize(G))
        if res:
            return res
        w = dict(res.witness)
        w["condition"] = "homogenized-" + w["condition"]
        return Check(False, w)
    p = G.ambient_p
    c, b = _support_tables(G)
    chk = _paramodular_check(c, b, p)
    if not chk:
        return chk
    Z = _table_points(c, b, p, None, len(G))
    if Z == G:
        return Check(True)
    extra = [list(q) for q in Z if q not in G]
    return Check(False, {"condition": "integer-points", "extra_points": extra})


class GPolyInequalitySystem:
    """Lower/upper bounds c(J) <= sum_{j in J} y_j <= b(J) for all nonempty J."""

    __slots__ = ("ambient_p", "lower", "upper")

    def __init__(self, ambient_p: int, lower: dict, upper: dict):
        self.ambient_p = ambient_p
        self.lower = {frozenset(check_index_subset(J, ambient_p)): int(c) for J, c in lower.items()}
        self.upper = {frozenset(check_index_subset(J, ambient_p)): int(b) for J, b in upper.items()}
        if set(self.lower) != set(self.upper):
            raise ValueError("lower and upper bounds must cover the same subsets")

    def subsets(self):
        return sorted(self.lower, key=lambda J: (len(J), sorted(J)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GPolyInequalitySystem)
            and self.ambient_p == other.ambient_p
            and self.lower == other.lower
            and self.upper == other.upper
        )

    def __repr__(self) -> str:
        rows = ", ".join(
            f"{self.lower[J]}<=sum{sorted(J)}<={self.upper[J]}" for J in self.subsets()
        )
        return f"GPolyInequalitySystem(p={self.ambient_p}, {rows})"


def _support_tables(A: PointSet) -> tuple[list[int], list[int]]:
    """(c, b): the min and max over A of sum_{j in X} a_j for every bitmask X
    (bit j - 1 stands for index j), in one pass per point: the subset sums
    of a point double from the sums over its first coordinates."""
    lower = upper = None
    for q in A:
        sums = [0]
        for x in q:
            sums += [s + x for s in sums]
        lower = sums if lower is None else list(map(min, lower, sums))
        upper = sums if upper is None else list(map(max, upper, sums))
    return lower, upper


def inequality_system(A: PointSet) -> GPolyInequalitySystem:
    """Support bounds of A over all 2^p - 1 nonempty index subsets."""
    if not A:
        raise EmptySetError("inequality system of an empty set")
    p = A.ambient_p
    lower, upper = _support_tables(A)
    subsets = [tuple(j + 1 for j in range(p) if X >> j & 1) for X in range(1 << p)]
    return GPolyInequalitySystem(
        p,
        {subsets[X]: lower[X] for X in range(1, 1 << p)},
        {subsets[X]: upper[X] for X in range(1, 1 << p)},
    )


def _paramodular_check(c: list[int], b: list[int], p: int) -> Check:
    """Whether bound tables indexed by bitmask (bit j - 1 stands for index j),
    with c = b = 0 on the empty set, form a paramodular pair: b submodular, c
    supermodular, and the cross inequality b(X) - c(Y) >= b(X - Y) - c(Y - X)
    for all X, Y.

    The three families are exactly the submodular inequalities of one set
    function rho on the subsets of [p] plus a slack element s: rho(X) = b(X)
    and rho(X + s) = -c([p] - X).  A set function is submodular when
    rho(W + i) + rho(W + j) >= rho(W + i + j) + rho(W) for every W and
    i != j outside W, so p(p + 1) 2^(p - 2) local checks replace the 4^p
    pairs.  The witness names the violated family and its 1-based X and Y.
    """
    full = (1 << p) - 1
    rho = b + [-c[full ^ X] for X in range(full + 1)]
    for e, f in itertools.combinations([1 << i for i in range(p + 1)], 2):
        ef = e | f
        for W in range(len(rho)):
            if not W & ef and rho[W | e] + rho[W | f] < rho[W | ef] + rho[W]:
                return _paramodular_witness(W | e, W | f, p)
    return Check(True)


def _paramodular_witness(A: int, B: int, p: int) -> Check:
    """Translate a violated rho inequality on masks A, B back to (c, b)."""
    s, full = 1 << p, (1 << p) - 1
    if A & s > B & s:
        A, B = B, A
    if not B & s:
        condition = "submodular"
    elif A & s:
        condition, A, B = "supermodular", full & ~A, full & ~B
    else:
        condition, B = "cross", full & ~B
    return Check(False, {
        "condition": condition,
        "X": [i + 1 for i in range(p) if A >> i & 1],
        "Y": [i + 1 for i in range(p) if B >> i & 1],
    })


def integer_points(sys_: GPolyInequalitySystem, cap: int = INTEGER_POINTS_CAP) -> PointSet:
    """All lattice points y >= 0 satisfying every double inequality.

    The points lie in the box 0 <= y_i <= b({i}), whose volume is checked
    against cap before any work.  The walk fixes y_1, y_2, ... in turn; once
    y_k is the last coordinate of a subset J, the bounds on J confine y_k to
    [c(J) - y(J - k), b(J) - y(J - k)], so only values inside every such
    interval are tried and no failed prefix is extended.
    """
    p = sys_.ambient_p
    rows = [[] for _ in range(p)]
    for J in sys_.lower:
        k = max(J) - 1
        rest = sum(1 << (j - 1) for j in J) ^ (1 << k)
        rows[k].append((rest, sys_.lower[J], sys_.upper[J]))
    return _integer_points([sys_.upper[frozenset({i})] for i in range(1, p + 1)], rows, cap)


def _table_points(c: list[int], b: list[int], p: int, cap=INTEGER_POINTS_CAP, limit=math.inf):
    """integer_points on bound tables indexed by bitmask."""
    rows = [[(X ^ (1 << k), c[X], b[X]) for X in range(1 << k, 2 << k)] for k in range(p)]
    return _integer_points([b[1 << k] for k in range(p)], rows, cap, limit)


def _integer_points(boxes: list[int], rows: list[list], cap, limit=math.inf) -> PointSet:
    """integer_points on y_{k+1} <= boxes[k] and the rows[k] of (mask of
    J - {k + 1}, c(J), b(J)) for the subsets J whose largest index is k + 1.
    cap None skips the box-volume check; the walk stops once it has found
    more than limit points."""
    p = len(boxes)
    if any(b < 0 for b in boxes):
        return PointSet._raw(p, ())
    volume = math.prod(b + 1 for b in boxes)
    if cap is not None and volume > cap:
        raise CapExceeded(f"integer-point box has {volume} cells (cap {cap})")
    points = []

    def walk(y, sums):  # sums[X] = y(X) for every X within the fixed prefix
        k = len(y)
        if k == p:
            points.append(y)
            return len(points) > limit
        lo, hi = 0, boxes[k]
        for rest, c, b in rows[k]:
            lo = max(lo, c - sums[rest])
            hi = min(hi, b - sums[rest])
        for v in range(lo, hi + 1):
            if walk(y + (v,), sums + [s + v for s in sums]):
                return True
        return False

    walk((), [0])
    return PointSet._raw(p, points)


def system_to_json(sys_: GPolyInequalitySystem) -> dict:
    return {
        "p": sys_.ambient_p,
        "bounds": [
            {"J": sorted(J), "c": sys_.lower[J], "b": sys_.upper[J]}
            for J in sys_.subsets()
        ],
    }


def axis_orders(p: int, policy):
    """Resolve an order policy to a list of 1-based axis orders.

    policy: "natural", "all", or ("sample", k, seed).  Exhausting all p!
    orders is only allowed for p <= 6; beyond that a sample policy with an
    explicit seed is required.
    """
    if policy == "natural":
        return [tuple(range(1, p + 1))]
    if policy == "all":
        if p > 6:
            raise ValueError(
                f"all-orders policy would enumerate {p}! orders; pass ('sample', k, seed)"
            )
        return [tuple(o) for o in itertools.permutations(range(1, p + 1))]
    if isinstance(policy, tuple) and len(policy) == 3 and policy[0] == "sample":
        _, k, seed = policy
        rng = random.Random(seed)
        return list(dict.fromkeys(tuple(rng.sample(range(1, p + 1), p)) for _ in range(int(k))))
    raise ValueError(f"unknown order policy {policy!r}")


def is_cave(C: PointSet, order_policy="all") -> Check:
    """Cave test: every nonempty truncation must have a polymatroid top,
    satisfy the stalactite-union formula for every requested axis order,
    and (off the origin) be a g-polymatroid.  A failure names its condition
    and a truncation cell b; the failed top or g-polymatroid check's own
    witness is nested under "cause".  Raises CapExceeded before the walk
    when the truncation grid prod(max_i + 1) exceeds CAVE_GRID_CAP.

    Truncations are bitmasks over the points of C: one mask per axis i and
    value v marks the points with q_i >= v, and the truncation at b is the
    AND of the masks of b_i, formed one axis at a time in grid order.  Only
    the distinct truncations become point sets."""
    from .stalactite import _stalactite_walk

    if not C:
        raise EmptySetError("cave test on an empty set")
    p = C.ambient_p
    orders = axis_orders(p, order_policy)
    maxes = [max(q[i] for q in C) for i in range(p)]
    cells = math.prod(m + 1 for m in maxes)
    if cells > CAVE_GRID_CAP:
        raise CapExceeded(f"truncation grid has {cells} cells (cap {CAVE_GRID_CAP})")

    masks = [(1 << len(C)) - 1]
    for i, m in enumerate(maxes):
        axis = [sum(1 << k for k, q in enumerate(C.points) if q[i] >= v) for v in range(m + 1)]
        masks = [x & y for x in masks for y in axis]
    # distinct truncations, each with the first cell b that produces it, or
    # the first nonzero one if there is one: only those need the g-polymatroid
    # check, and a failure names that cell
    trunc = {}
    for mask, b in zip(masks, itertools.product(*(range(m + 1) for m in maxes))):
        if mask and (mask not in trunc or not any(trunc[mask])):
            trunc[mask] = b

    for mask, b in trunc.items():
        A = PointSet._raw(p, (q for k, q in enumerate(C.points) if mask >> k & 1))
        T = top(A)
        chk = is_base_polymatroid(T)
        if not chk:
            return Check(
                False,
                {"condition": "top-polymatroid", "truncation": list(b), "cause": chk.witness},
            )
        if any(b):
            chk = is_g_polymatroid(A, "paramodular")
            if not chk:
                return Check(
                    False,
                    {
                        "condition": "truncation-g-polymatroid",
                        "truncation": list(b),
                        "cause": chk.witness,
                    },
                )
        for order in orders:
            covered = set()
            for _, st in _stalactite_walk(T, order):
                covered.update(st)
            if covered != A._set:
                return Check(
                    False,
                    {
                        "condition": "stalactite-union",
                        "truncation": list(b),
                        "order": list(order),
                        "missing": [list(q) for q in sorted(A._set - covered)],
                        "extra": [list(q) for q in sorted(covered - A._set)],
                    },
                )
    return Check(True)
