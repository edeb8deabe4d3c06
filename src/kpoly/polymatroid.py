"""Axiom-level verifiers for base polymatroids, g-polymatroids and caves.

Every checker returns a Check whose witness pinpoints the first violated
condition (points are reported as lists, indices 1-based) so failures are
debuggable from test output and from the CLI.

A set function on [p] (support bounds, rank functions, the bounds of an
inequality system) is a table indexed by bitmask: bit j - 1 stands for
index j, entry 0 is the empty set, and lattice.members decodes a mask.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import itemgetter, mul, sub

from .lattice import (
    GRID_CAP,
    CapExceeded,
    Check,
    EmptySetError,
    PointSet,
    Record,
    _cube_coding,
    _order_masks,
    _stalactite_walk,
    axis_values,
    check_subset_table,
    class_floors,
    homogenize,
    members,
    top,
    truncation_masks,
)

G_POLY_METHODS = ("axioms", "homogenization", "paramodular")

INTEGER_POINTS_CAP = 10_000_000

# points base_polymatroid may return, bounded by stars and bars:
# C(r + p - 1, p - 1) for rank r on [p]; the largest bound the tests, the CI
# steps and the benchmark reach is 462 (the matroids on 6 elements), and
# --random 10,10 --seed 1, bound 92 378, takes about 3.3 s on a 2-CPU x86 host
BASE_CANDIDATE_CAP = 100_000

# cells of is_cave's truncation grid, one per tuple of axis values; the
# largest cave the tier-1 tests and the benchmark check has 96, the largest
# of the S_6 cave battery in CI 600
CAVE_GRID_CAP = 100_000


def is_base_polymatroid(P: PointSet) -> Check:
    """Homogeneity plus the exchange axiom for every ordered pair, by
    _exchange_check: O(|P| a^2) operations on |P|-bit integers, a <= p the
    number of axes where the points differ.

    The empty set and singletons pass vacuously.  A failure names
    `homogeneous` with the lightest and heaviest points, or `exchange` with
    the first failing u, v and 1-based i of the pair loops.  No support
    table is built, so no cap on p applies and the verdict stays
    independent of the paramodular method of is_g_polymatroid.
    The verdict is computed once per set and stored on P, which is immutable;
    base_polymatroid stores a passed one on its output.
    """
    if getattr(P, "_base_check", None) is None:
        P._base_check = _exchange_check(P)
    return P._base_check


def _exchange_check(P: PointSet) -> Check:
    """is_base_polymatroid by the definition: homogeneity, then for every
    ordered pair (u, v) and i with u_i > v_i some j with u_j < v_j and
    u - e_i + e_j in P.  The only route behind is_base_polymatroid and the
    homogenization method of is_g_polymatroid.  On the bitmasks of
    _point_masks, the v failing at u and i are those below u on axis i and
    above u on no axis j with u - e_i + e_j in P; the witness is the pair
    loops' first failure."""
    if len(P) <= 1:
        return Check(True)
    sums = {sum(q) for q in P}
    if len(sums) > 1:
        lo = min(P, key=sum)
        hi = max(P, key=sum)
        return Check(False, {"condition": "homogeneous", "points": [list(lo), list(hi)]})
    axes, strides, proj, codes, below, above = _point_masks(P)
    inP = set(codes)
    for u, q, cu in zip(P.points, proj, codes):
        ups = [(t, hi) for t, ab, x in zip(strides, above, q) if (hi := ab[x])]
        bad = []
        for i, s, bl, x in zip(axes, strides, below, q):
            if lo := bl[x]:
                for t, hi in ups:
                    if lo & hi and cu - s + t in inP:
                        lo &= ~hi
                if lo:
                    bad.append((i, lo))
        if bad:
            return _first_failure(P.points, u, bad)
    return Check(True)


def _point_masks(P: PointSet):
    """(axes, strides, proj, codes, below, above) of a P of two or more
    points; bit k of a mask stands for P.points[k], the k-th in lex order.
    axes: the 0-based axes where the points differ; proj: the points on
    them; codes: their _cube_coding codes of radix the largest coordinate
    plus 2, so q - e_axes[a] + e_axes[b] has the code code - strides[a] +
    strides[b] when q_axes[a] > 0; below[a] and above[a]: _order_masks of
    the values on axes[a], keyed by the values present, never sized by one."""
    n, axes, cols = len(P), [], []
    for i, col in enumerate(zip(*P.points)):
        if col.count(col[0]) < n:
            axes.append(i)
            cols.append(col)
    strides, _ = _cube_coding(max(map(max, cols)) + 2, len(cols))
    proj = list(zip(*cols))
    below, above = zip(*map(_order_masks, cols))
    return axes, strides, proj, [sum(map(mul, q, strides)) for q in proj], below, above


def _first_failure(points, u, bad) -> Check:
    """The failure the pair loops report first at u, from bad, a list of
    (i, mask of failing v) in the order the loops test a pair: 0-based axes
    i of the exchange axiom, then None for expansion.  v is the lex-first
    point in any mask, the failure the first entry whose mask holds v."""
    bit = min(mask & -mask for _, mask in bad)
    v = list(points[bit.bit_length() - 1])
    i = next(i for i, mask in bad if mask & bit)
    if i is None:
        return Check(False, {"condition": "expansion", "u": list(u), "v": v})
    return Check(False, {"condition": "exchange", "u": list(u), "v": v, "i": i + 1})


def rank_functions(p: int, K: int):
    """Every integer polymatroid rank function on [p] with singleton ranks at
    most K: each f with f(empty) = 0 and 0 <= f({i}) <= K that is monotone and
    submodular, as a tuple indexed by bitmask (bit j - 1 stands for index j).

    One depth-first walk fixes f(S) for S = 1, 2, ... in bitmask order.  For
    |S| >= 2, f(S) ranges from max_i f(S - i) up to the least
    f(S - i) + f(S - j) - f(S - i - j) over i < j in S; monotone steps and
    these local submodular inequalities give a monotone submodular f.  A
    prefix whose range is empty is dropped.  K = 1 yields the rank functions
    of the matroids on [p] (OEIS A058673 counts them)."""
    n, bits = 1 << p, [1 << i for i in range(p)]
    f, hi = [-1] * n, [0] * n  # f[S] goes up by one before each use
    S = 0
    while S >= 0:
        f[S] += 1
        if f[S] > hi[S]:
            S -= 1
        elif S == n - 1:
            yield tuple(f)
        else:
            S += 1
            below = [S ^ b for b in bits if S & b]
            if len(below) == 1:
                f[S], hi[S] = -1, K
            else:
                f[S] = max(f[A] for A in below) - 1
                hi[S] = min(f[A] + f[B] - f[A & B] for A, B in itertools.combinations(below, 2))


def check_base_candidates(total: int, p: int) -> None:
    """CapExceeded when C(total + p - 1, p - 1), the y >= 0 with y([p]) = total, exceeds BASE_CANDIDATE_CAP."""
    bound = math.comb(total + p - 1, p - 1) if p else 1
    if bound > BASE_CANDIDATE_CAP:
        raise CapExceeded(f"base polymatroid has up to {bound} candidate points (cap {BASE_CANDIDATE_CAP})")


def base_polymatroid(ranks) -> PointSet:
    """The base polymatroid of a rank function f given as a sequence indexed
    by bitmask (bit j - 1 stands for index j), such as rank_functions yields:
    the lattice points y with y(J) <= f(J) for every J and y([p]) = f([p]),
    that is Q(c, f) for c(X) = f([p]) - f([p] - X) (Edmonds 1970; Frank,
    Generalized polymatroids, 1984).  (c, f) is paramodular exactly when f
    is submodular, and then the walk of _integer_points has no dead ends; f
    is then monotone exactly when every c({i}) >= 0, so Q(c, f) lies in
    y >= 0.  ValueError when the table does not have 2^p entries, f(empty)
    != 0, or f is not submodular (by _submodular_violation, naming X and Y)
    or not monotone; then trusted_base_polymatroid walks Q(c, f)."""
    n = len(ranks)
    if not n or n & (n - 1):
        raise ValueError(f"rank table has {n} entries, expected one per subset of [p]")
    if ranks[0]:
        raise ValueError(f"rank table has f(empty) = {ranks[0]}, expected 0")
    p, total = n.bit_length() - 1, ranks[-1]
    if XY := _submodular_violation(ranks):
        raise ValueError("rank table is not submodular: f(X) + f(Y) < f(X | Y) + f(X & Y) "
                         f"for X = {members(XY[0])}, Y = {members(XY[1])}")
    if low := [i + 1 for i in range(p) if ranks[~(1 << i)] > total]:  # ranks[~X] = f([p] - X)
        raise ValueError(f"rank table is not monotone: f([p]) < f([p] - {{{low[0]}}})")
    return trusted_base_polymatroid(ranks)


def trusted_base_polymatroid(ranks) -> PointSet:
    """base_polymatroid without its scans of the table, for a rank table
    that is monotone and submodular by construction (rank_functions, the rank
    function of a subspace configuration): check_base_candidates refuses
    f([p]), then the walk of Q(c, f) runs; c is built last.  The output
    carries its passed verdict for is_base_polymatroid."""
    p, total = len(ranks).bit_length() - 1, ranks[-1]
    check_base_candidates(total, p)
    c = [total - r for r in reversed(ranks)]
    out = PointSet._raw(p, _integer_points(c, ranks, p))
    out._base_check = Check(True)
    return out


def _axiom_check(G: PointSet) -> Check:
    """The g-polymatroid axioms for every ordered pair (u, v) of G: for each
    i with u_i > v_i, some j with u_j < v_j has u - e_i + e_j and
    v - e_j + e_i in G, or y(u) > y(v) and u - e_i, v + e_i are in G
    (exchange); if y(u) < y(v), some j with u_j < v_j has u + e_j and
    v - e_j in G (expansion).  Decided as _exchange_check is, with masks of
    the v having v - e_j + e_i, v + e_i or v - e_j in G and of the lighter
    and heavier points; the witness is the pair loops' first failure."""
    if len(G) <= 1:
        return Check(True)
    axes, strides, proj, codes, below, above = _point_masks(G)
    inG = set(codes)
    # masks[d]: the points q with code(q) + d in G, for the shifts d of
    # v - e_j + e_i, v + e_i and v - e_j; a code less strides[b] is the
    # code of q - e_axes[b] only if q_axes[b] > 0, which holds wherever such
    # a mask is read, under hi: v_j > u_j >= 0
    masks = dict.fromkeys([s - t for s in strides for t in strides] + strides + [-t for t in strides], 0)
    for k, c in enumerate(codes):
        for d in masks:
            if c + d in inG:
                masks[d] |= 1 << k
    sums = list(map(sum, G.points))
    lighter, heavier = _order_masks(sums)
    for u, q, cu, su in zip(G.points, proj, codes, sums):
        ups = [(t, hi) for t, ab, x in zip(strides, above, q) if (hi := ab[x])]
        light = lighter[su]
        bad = []
        for i, s, bl, x in zip(axes, strides, below, q):
            if lo := bl[x]:
                for t, hi in ups:
                    if lo & (m := hi & masks[s - t]) and cu - s + t in inG:
                        lo &= ~m
                if lo & (m := light & masks[s]) and cu - s in inG:
                    lo &= ~m
                if lo:
                    bad.append((i, lo))
        if heavy := heavier[su]:
            for t, hi in ups:
                if heavy & (m := hi & masks[-t]) and cu + t in inG:
                    heavy &= ~m
            if heavy:
                bad.append((None, heavy))
        if bad:
            return _first_failure(G.points, u, bad)
    return Check(True)


def is_g_polymatroid(G: PointSet, method: str = "axioms") -> Check:
    """Generalized-polymatroid test via one of three exact routes.

    axioms            direct Exchange + Expansion over all ordered pairs; the
                      definition decided on bitmasks over the points
                      (_axiom_check), O(|G| a^2) operations on |G|-bit
                      integers, a <= p the number of axes where G varies
    homogenization    append the slack coordinate, then the base-polymatroid
                      exchange check, at the same cost
    paramodular       the support bounds (c, b) form a paramodular pair and G
                      is the set of integer points of Q(c, b).  Exact by
                      Frank's theorem (Generalized polymatroids, 1984): the
                      integral g-polymatroids are the polyhedra Q(c, b) of
                      integral paramodular pairs, and the support bounds of
                      such a Q are (c, b) themselves.
                      O(|G| 2^p + p^2 2^p) plus the integer-point walk,
                      which never dead-ends once the pair passes and stops
                      after |G| + 1 points, so it needs no box-volume cap;
                      G lies in Q(c, b), so |Q| = |G| decides, and a failure
                      lists the points outside G among those.  CapExceeded
                      when 2^p exceeds GRID_CAP.
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
    return _paramodular_verdict(G, *_support_tables(G))


def _paramodular_verdict(G: PointSet, c: list[int], b: list[int]) -> Check:
    """is_g_polymatroid(G, "paramodular") on the given _support_tables(G)."""
    p = G.ambient_p
    chk = _paramodular_check(c, b, p)
    if not chk:
        return chk
    Z = _integer_points(c, b, p, len(G))
    if len(Z) == len(G):
        return Check(True)
    extra = [list(q) for q in Z if q not in G]
    return Check(False, {"condition": "integer-points", "extra_points": extra})


class GPolyInequalitySystem(Record):
    """Lower/upper bounds c(X) <= sum_{j in X} y_j <= b(X) for every subset X
    of [p], as two tables indexed by bitmask (bit j - 1 stands for index j;
    entry 0 is the empty set), stored as tuples."""

    __slots__ = ("ambient_p", "lower", "upper")

    def __init__(self, ambient_p: int, lower: tuple[int, ...], upper: tuple[int, ...]):
        tables = []
        for name, table in (("lower", lower), ("upper", upper)):
            table = tuple(table)
            if len(table) != 1 << ambient_p:
                raise ValueError(f"{name} table has {len(table)} entries, expected one per subset of [{ambient_p}]")
            tables.append(table)
        super().__init__(ambient_p, *tables)

    def subsets(self) -> list[int]:
        """The nonempty masks, by size, then by their sorted members."""
        return sorted(range(1, 1 << self.ambient_p), key=lambda X: (X.bit_count(), members(X)))


def _support_tables(A: PointSet) -> tuple[list[int], list[int]]:
    """(c, b): the min and max over A of sum_{j in X} a_j for every bitmask X
    (bit j - 1 stands for index j).  A point's subset sums double from the
    sums over its first coordinates; one transposition of the rows, taken in
    blocks of at most GRID_CAP entries and joined by the tables so far
    (c <= b moves neither min nor max), gives both tables.  CapExceeded
    before any work when 2^p exceeds GRID_CAP."""
    p = A.ambient_p
    check_subset_table(p, "support tables have", GRID_CAP)
    tables, points = [], iter(A)
    while block := list(itertools.islice(points, GRID_CAP >> p)):
        rows = []
        for q in block:
            sums = [0]
            for x in q:
                sums += [s + x for s in sums] if x else sums
            rows.append(sums)
        cols = list(zip(*rows, *tables))
        tables = [list(map(min, cols)), list(map(max, cols))]
    return tables[0], tables[1]


def inequality_system(A: PointSet) -> GPolyInequalitySystem:
    """Support bounds of A over all 2^p subsets (CapExceeded when 2^p
    exceeds GRID_CAP)."""
    if not A:
        raise EmptySetError("inequality system of an empty set")
    return GPolyInequalitySystem(A.ambient_p, *_support_tables(A))


def theorem_a_report(A: PointSet) -> tuple[GPolyInequalitySystem, Check]:
    """inequality_system(A) and is_g_polymatroid(A, "paramodular"), Theorem
    A's verdict on a support, from one build of the support tables."""
    sys_ = inequality_system(A)
    return sys_, _paramodular_verdict(A, sys_.lower, sys_.upper)


def _paramodular_check(c: list[int], b: list[int], p: int) -> Check:
    """Whether bound tables indexed by bitmask (bit j - 1 stands for index j),
    with c = b = 0 on the empty set, form a paramodular pair: b submodular, c
    supermodular, and the cross inequality b(X) - c(Y) >= b(X - Y) - c(Y - X)
    for all X, Y.

    The three families are exactly the submodular inequalities of one set
    function rho on the subsets of [p] plus a slack element s: rho(X) = b(X)
    and rho(X + s) = -c([p] - X); _submodular_violation scans them.  The
    witness names the violated family and its 1-based X and Y.
    """
    full = (1 << p) - 1
    rho = list(b) + [-c[full ^ X] for X in range(full + 1)]
    AB = _submodular_violation(rho)
    return _paramodular_witness(*AB, p) if AB else Check(True)


def _submodular_violation(t) -> tuple[int, int] | None:
    """The first masks (W + i, W + j) with t(W + i) + t(W + j) < t(W + i + j)
    + t(W) for a table t on [n] indexed by bitmask, or None: t is submodular
    exactly when none exists, so n(n - 1) 2^(n - 3) local checks replace the
    4^n pairs.  Pairs i < j come in combinations order, then the W without
    i and j in increasing order."""
    n = len(t).bit_length() - 1
    for e, f in itertools.combinations([1 << i for i in range(n)], 2):
        ef, W = e | f, 0
        while W < len(t):
            if t[W | e] + t[W | f] < t[W | ef] + t[W]:
                return W | e, W | f
            W = (W | ef) + 1 & ~ef
    return None


def _paramodular_witness(A: int, B: int, p: int) -> Check:
    """Translate a violated rho inequality on masks A, B back to (c, b)."""
    s, full = 1 << p, (1 << p) - 1
    # A = W | e, B = W | f with e < f, so A holds the slack bit s only if B does
    if not B & s:
        condition = "submodular"
    elif A & s:
        condition, A, B = "supermodular", full & ~A, full & ~B
    else:
        condition, B = "cross", full & ~B
    return Check(False, {"condition": condition, "X": members(A), "Y": members(B)})


def integer_points(sys_: GPolyInequalitySystem) -> PointSet:
    """All lattice points y >= 0 satisfying every double inequality, by the
    table walk of _integer_points.  The points lie in the box 0 <= y_i <=
    b({i}); CapExceeded before any work when 2^p exceeds GRID_CAP or the box
    has more than INTEGER_POINTS_CAP cells."""
    p = sys_.ambient_p
    check_subset_table(p, "support tables have", GRID_CAP)
    volume = math.prod(max(0, sys_.upper[1 << i] + 1) for i in range(p))
    if volume > INTEGER_POINTS_CAP:
        raise CapExceeded(f"integer-point box has {volume} cells (cap {INTEGER_POINTS_CAP})")
    return PointSet._raw(p, _integer_points(sys_.lower, sys_.upper, p))


def _integer_points(c: list[int], b: list[int], p: int, limit=math.inf) -> list:
    """The points y >= 0 with c(X) <= y(X) <= b(X) for bound tables indexed by
    bitmask, in lex order; the walk stops after more than limit points.  It
    fixes y_1, y_2, ... in turn: the masks with largest bit k are 2^k + X for
    X < 2^k, so against a node's prefix sums y(X) their bounds are the slices
    c[2^k:2^(k+1)] and b[2^k:2^(k+1)], and y_(k+1) runs from max(0, c - sums)
    to min(b - sums).  No failed prefix is extended; the last coordinate
    fills the point list."""
    if p == 0:
        return [()]
    lows, highs = ([t[1 << k:2 << k] for k in range(p)] for t in (c, b))
    points = []

    def walk(y, sums):  # sums[X] = y(X) for every X within the fixed prefix
        k = len(y)
        lo = max(0, max(map(sub, lows[k], sums)))
        hi = min(map(sub, highs[k], sums))
        if k == p - 1:
            points.extend(y + (v,) for v in range(lo, min(hi + 1, lo + limit + 1 - len(points))))
            return len(points) > limit
        for v in range(lo, hi + 1):
            if walk(y + (v,), sums + ([s + v for s in sums] if v else sums)):
                return True
        return False

    walk((), [0])
    return points


def system_to_json(sys_: GPolyInequalitySystem) -> dict:
    return {
        "p": sys_.ambient_p,
        "bounds": [
            {"J": members(X), "c": sys_.lower[X], "b": sys_.upper[X]}
            for X in sys_.subsets()
        ],
    }


def axis_orders(p: int, policy):
    """Resolve an order policy to a list of 1-based axis orders.

    policy: "natural", "all", or ("sample", k, seed).  Exhausting all p!
    orders is only allowed for p <= 6; beyond that a sample policy with an
    explicit seed is required.  A sample draws 1 to 720 = 6! orders: k < 1
    raises ValueError and k > 720 raises CapExceeded, before any draw.
    """
    if policy == "natural":
        return [tuple(range(1, p + 1))]
    if policy == "all":
        if p > 6:
            raise ValueError(
                f"all-orders policy would enumerate {p}! orders; pass ('sample', k, seed), "
                "or --orders sample:K:SEED on the command line"
            )
        return [tuple(o) for o in itertools.permutations(range(1, p + 1))]
    if isinstance(policy, tuple) and len(policy) == 3 and policy[0] == "sample":
        _, k, seed = policy
        k = int(k)
        if k < 1:
            raise ValueError(f"sample policy needs at least one order, got {k}")
        if k > 720:
            raise CapExceeded(f"sample policy draws {k} orders (cap 720)")
        rng = random.Random(seed)
        return list(dict.fromkeys(tuple(rng.sample(range(1, p + 1), p)) for _ in range(k)))
    raise ValueError(f"unknown order policy {policy!r}")


def is_cave(C: PointSet, order_policy="all") -> Check:
    """Cave test: every nonempty truncation must have a polymatroid top,
    satisfy the stalactite-union formula for every requested axis order,
    and (off the origin) be a g-polymatroid.  A failure names its condition
    and a truncation cell b; the failed top or g-polymatroid check's own
    witness is nested under "cause".  Raises CapExceeded before the walk
    when the truncation grid, one cell per tuple of axis_values(C), exceeds
    CAVE_GRID_CAP, and in the g-polymatroid check when 2^p exceeds GRID_CAP.

    On axis i the b_i above one value of C (or from 0) up to the next value
    keep the same points; a cell names that class by its least b_i
    (class_floors).  Truncations are bitmasks over the points
    (truncation_masks); each distinct one is checked at its first cell in
    grid order, except C, first met at the origin: it is named at the first
    nonzero integer cell that keeps it, e_k for the last axis k with a
    positive minimum, if any, so it too is checked as a g-polymatroid.
    Each top is walked on cube codes once per distinct projection of the
    orders onto the axes where its points differ; a failure names the first
    such order.

    When 2^p <= GRID_CAP, C itself is first checked once by
    is_g_polymatroid(C, "paramodular").  If it passes, the top and
    g-polymatroid checks of every truncation pass too, and the loop runs
    only the stalactite-union check: a g-polymatroid meets an integral box
    in an integral g-polymatroid (Frank and Tardos 1988; an M-natural-convex
    set restricted to an interval stays M-natural-convex, Murota 2003), and
    the face of a g-polymatroid that maximises y([p]) is a base polyhedron.
    If C fails, or 2^p exceeds GRID_CAP (where the loop may decide without
    building any support table, as for a lone point), every check runs on
    every truncation as described above, so the verdict, the witness and
    the CapExceeded cases do not depend on the shortcut."""
    if not C:
        raise EmptySetError("cave test on an empty set")
    p = C.ambient_p
    orders = axis_orders(p, order_policy)
    values = axis_values(C)
    cells = math.prod(map(len, values))
    if cells > CAVE_GRID_CAP:
        raise CapExceeded(f"truncation grid has {cells} cells (cap {CAVE_GRID_CAP})")

    masks = truncation_masks(C.points)
    trunc = {}  # distinct truncation -> the first cell that produces it
    for mask, b in zip(masks, itertools.product(*class_floors(values))):
        if mask:
            trunc.setdefault(mask, b)
    if positive := [i for i, vs in enumerate(values) if vs[0]]:
        trunc[masks[0]] = tuple(int(i == positive[-1]) for i in range(p))  # the origin keeps all of C

    def fail(condition, **witness):  # at the truncation cell b of the loop below
        return Check(False, {"condition": condition, "truncation": list(b), **witness})

    implied = 1 << p <= GRID_CAP and is_g_polymatroid(C, "paramodular")
    strides, decode = _cube_coding(max((vs[-1] for vs in values), default=0) + 1, p)
    for mask, b in trunc.items():
        A = PointSet._raw(p, (q for k, q in enumerate(C.points) if mask >> k & 1))
        T = top(A)
        if not implied:
            if not (chk := is_base_polymatroid(T)):
                return fail("top-polymatroid", cause=chk.witness)
            if any(b) and not (chk := is_g_polymatroid(A, "paramodular")):
                return fail("truncation-g-polymatroid", cause=chk.witness)
        want = {sum(map(mul, q, strides)) for q in A}
        varying = [len(set(col)) > 1 for col in zip(*T.points)]
        firsts = {}  # projection (0-based axes) -> the first order that has it
        for order in orders:
            firsts.setdefault(tuple(i - 1 for i in order if varying[i - 1]), order)
        for proj, order in firsts.items():
            pts = sorted(T.points, key=itemgetter(*proj)) if proj else T.points
            covered = set(itertools.chain.from_iterable(_stalactite_walk(pts, strides)))
            if covered != want:
                return fail("stalactite-union", order=list(order),
                            missing=[list(decode(x)) for x in sorted(want - covered)],
                            extra=[list(decode(x)) for x in sorted(covered - want)])
    return Check(True)
