import collections
import functools
import itertools
import math
import random

import pytest

from kpoly import polymatroid
from kpoly.lattice import (
    EmptySetError,
    PointSet,
    homogenize,
    lex_compare,
    point_set,
    support_bounds,
    top,
    truncate,
)
from kpoly.mobius import mu_support, random_base_polymatroid
from kpoly.stalactite import neighbor_directions, stalactite
from kpoly.polymatroid import (
    G_POLY_METHODS,
    INTEGER_POINTS_CAP,
    GPolyInequalitySystem,
    _exchange_check,
    _paramodular_check,
    _support_tables,
    axis_orders,
    check_symmetric_exchange,
    inequality_system,
    integer_points,
    is_base_polymatroid,
    is_cave,
    is_g_polymatroid,
)
from kpoly.schubert import grothendieck, zero_one_permutations
from kpoly.subspaces import linear_polymatroid, random_config
from running_example import HILBERT_3, INEQUALITIES, KPOLY_3, MSUPP_3


def all_subsets_of_box(p, coord_max, max_size):
    """Every nonempty subset of the box of the given size, small ones first."""
    cells = list(itertools.product(range(coord_max + 1), repeat=p))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(cells, size):
            yield PointSet(p, combo)


def test_running_example_msupp_is_polymatroid():
    assert is_base_polymatroid(point_set(MSUPP_3))


def test_non_homogeneous_rejected():
    chk = is_base_polymatroid(point_set([(1, 0), (0, 2)]))
    assert not chk
    assert chk.witness["condition"] == "homogeneous"


def test_exchange_failure_witness():
    chk = is_base_polymatroid(point_set([(2, 0), (0, 2)]))
    assert not chk
    assert chk.witness["condition"] == "exchange"
    # the failing pair is reported with a 1-based index
    assert chk.witness["i"] in (1, 2)


def test_empty_and_singleton_pass():
    assert is_base_polymatroid(PointSet(3))
    assert is_base_polymatroid(point_set([(5, 0, 1)]))


def test_symmetric_exchange_on_running_example():
    assert check_symmetric_exchange(point_set(MSUPP_3))


def test_symmetric_exchange_requires_polymatroid():
    with pytest.raises(ValueError):
        check_symmetric_exchange(point_set([(2, 0), (0, 2)]))


def test_symmetric_exchange_never_fails_exhaustive():
    # Herzog-Hibi: every base polymatroid satisfies the symmetric version.
    for P in all_subsets_of_box(3, 2, 6):
        if is_base_polymatroid(P):
            assert check_symmetric_exchange(P)


def test_g_polymatroid_examples():
    assert is_g_polymatroid(point_set(list(HILBERT_3)))
    chk = is_g_polymatroid(point_set([(0, 0), (1, 1)]))
    assert not chk
    assert chk.witness["condition"] == "expansion"
    # any base polymatroid is a g-polymatroid
    assert is_g_polymatroid(point_set(MSUPP_3))


def test_g_polymatroid_methods_on_true_inputs():
    G = point_set(list(HILBERT_3))
    for method in G_POLY_METHODS:
        assert is_g_polymatroid(G, method), method


def test_axioms_equal_homogenization_exhaustive_small():
    for P in all_subsets_of_box(2, 2, 4):
        a = bool(is_g_polymatroid(P, "axioms"))
        h = bool(is_g_polymatroid(P, "homogenization"))
        assert a == h, list(P)


def test_axioms_equal_homogenization_randomized():
    rng = random.Random(31)
    cells3 = list(itertools.product(range(4), repeat=3))
    cells4 = list(itertools.product(range(3), repeat=4))
    for _ in range(400):
        p, cells = rng.choice([(3, cells3), (4, cells4)])
        P = PointSet(p, rng.sample(cells, rng.randint(1, 7)))
        assert bool(is_g_polymatroid(P, "axioms")) == bool(
            is_g_polymatroid(P, "homogenization")
        )


def test_g_polymatroid_implies_integer_point_fixed_point():
    rng = random.Random(32)
    cells = list(itertools.product(range(4), repeat=3))
    hits = 0
    for _ in range(600):
        P = PointSet(3, rng.sample(cells, rng.randint(1, 6)))
        if is_g_polymatroid(P, "axioms"):
            hits += 1
            assert integer_points(inequality_system(P)) == P, list(P)
    assert hits > 20


def test_integer_point_fixed_point_does_not_imply_exchange():
    # Two opposite diagonal points of a 4-cube: the pairwise support bounds
    # pin down exactly these two integer points, yet the exchange axiom
    # fails, so the fixed-point test alone is weaker than the axioms; the
    # paramodular method rejects the set on its bounds.
    G = point_set([(1, 1, 0, 0), (0, 0, 1, 1)])
    assert not is_g_polymatroid(G, "axioms")
    assert not is_g_polymatroid(G, "homogenization")
    assert not is_g_polymatroid(G, "paramodular")
    assert integer_points(inequality_system(G)) == G


def test_paramodular_agrees_with_axioms_randomized():
    rng = random.Random(41)
    boxes = {p: list(itertools.product(range(3), repeat=p)) for p in range(1, 5)}
    positives = 0
    for _ in range(4000):
        p = rng.randint(1, 4)
        P = PointSet(p, rng.sample(boxes[p], rng.randint(1, min(6, len(boxes[p])))))
        a = bool(is_g_polymatroid(P, "axioms"))
        assert bool(is_g_polymatroid(P, "paramodular")) == a, list(P)
        positives += a
    assert positives > 500


def test_paramodular_agrees_with_axioms_on_mu_supports():
    rng = random.Random(43)
    tested = 0
    while tested < 150:
        P = random_base_polymatroid(rng, rng.randint(2, 4), 3)
        if P is None:
            continue
        tested += 1
        supp = mu_support(P)
        assert bool(is_g_polymatroid(supp, "paramodular")) == bool(
            is_g_polymatroid(supp, "axioms")
        ), list(P)


def _bound(A, X, which):
    return support_bounds(A, X)[which] if X else 0


def test_paramodular_rejects_opposite_diagonals_with_a_witness():
    G = point_set([(1, 1, 0, 0), (0, 0, 1, 1)])
    chk = is_g_polymatroid(G, "paramodular")
    assert not chk
    w = chk.witness
    X, Y = set(w["X"]), set(w["Y"])
    b = lambda Z: _bound(G, sorted(Z), 1)  # noqa: E731
    c = lambda Z: _bound(G, sorted(Z), 0)  # noqa: E731
    if w["condition"] == "submodular":
        assert b(X) + b(Y) < b(X | Y) + b(X & Y)
    else:
        assert w["condition"] == "cross"
        assert b(X) - c(Y) < b(X - Y) - c(Y - X)


def _literal_paramodular(sys_):
    """Oracle: every one of the 4^p pairs (X, Y) of subsets, literally."""
    p = sys_.ambient_p
    subsets = [frozenset(J) for r in range(p + 1) for J in itertools.combinations(range(1, p + 1), r)]
    b = {J: sys_.upper[J] if J else 0 for J in subsets}
    c = {J: sys_.lower[J] if J else 0 for J in subsets}
    return all(
        b[X] + b[Y] >= b[X | Y] + b[X & Y]
        and c[X] + c[Y] <= c[X | Y] + c[X & Y]
        and b[X] - c[Y] >= b[X - Y] - c[Y - X]
        for X in subsets
        for Y in subsets
    )


def _bound_tables(sys_):
    """(c, b) of a complete system as tables indexed by bitmask."""
    c, b = [0] * (1 << sys_.ambient_p), [0] * (1 << sys_.ambient_p)
    for J in sys_.lower:
        X = sum(1 << (j - 1) for j in J)
        c[X], b[X] = sys_.lower[J], sys_.upper[J]
    return c, b


def _random_system(rng, p, spread):
    lower, upper = {}, {}
    for r in range(1, p + 1):
        for J in itertools.combinations(range(1, p + 1), r):
            lo = rng.randint(0, spread * r)
            lower[J], upper[J] = lo, lo + rng.randint(-1, spread * r)
    return GPolyInequalitySystem(p, lower, upper)


def test_paramodular_check_matches_the_literal_pair_oracle():
    rng = random.Random(47)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        p = rng.randint(1, 4)
        if rng.random() < 0.5:
            cells = list(itertools.product(range(3), repeat=p))
            A = PointSet(p, rng.sample(cells, rng.randint(1, min(5, len(cells)))))
            sys_, tables = inequality_system(A), _support_tables(A)
        else:
            sys_ = _random_system(rng, p, 1)
            tables = _bound_tables(sys_)
        chk = _paramodular_check(*tables, p)
        assert bool(chk) == _literal_paramodular(sys_), sys_
        verdicts[bool(chk)] += 1
        if not chk:
            X, Y = frozenset(chk.witness["X"]), frozenset(chk.witness["Y"])
            b = lambda Z: sys_.upper[Z] if Z else 0  # noqa: E731
            c = lambda Z: sys_.lower[Z] if Z else 0  # noqa: E731
            assert {
                "submodular": b(X) + b(Y) < b(X | Y) + b(X & Y),
                "supermodular": c(X) + c(Y) > c(X | Y) + c(X & Y),
                "cross": b(X) - c(Y) < b(X - Y) - c(Y - X),
            }[chk.witness["condition"]], (sys_, chk)
    assert min(verdicts.values()) > 100


def test_inequality_system_running_example():
    sys_ = inequality_system(point_set(list(KPOLY_3)))
    assert len(sys_.lower) == 7
    for J, (lo, hi) in INEQUALITIES.items():
        assert sys_.lower[frozenset(J)] == lo
        assert sys_.upper[frozenset(J)] == hi


def test_inequality_system_singleton():
    sys_ = inequality_system(point_set([(2, 1)]))
    for J in sys_.subsets():
        assert sys_.lower[J] == sys_.upper[J]


def test_inequality_system_homogeneous_top_slice():
    sys_ = inequality_system(point_set(MSUPP_3))
    full = frozenset({1, 2, 3})
    assert sys_.lower[full] == sys_.upper[full] == 8


def test_integer_points_running_example():
    supp = point_set(list(KPOLY_3))
    assert integer_points(inequality_system(supp)) == supp


def test_integer_points_interval_and_empty():
    sys_ = inequality_system(point_set([(2,), (4,)]))
    assert integer_points(sys_) == point_set([(2,), (3,), (4,)])
    # infeasible: force c > b by hand
    from kpoly.polymatroid import GPolyInequalitySystem

    bad = GPolyInequalitySystem(1, {(1,): 3}, {(1,): 2})
    assert len(integer_points(bad)) == 0


def _box_filter(sys_):
    """Oracle: every cell of the box 0 <= y_i <= b({i}) that meets every bound."""
    p = sys_.ambient_p
    boxes = [sys_.upper[frozenset({i})] for i in range(1, p + 1)]
    return PointSet(p, (
        y for y in itertools.product(*(range(b + 1) for b in boxes))
        if all(sys_.lower[J] <= sum(y[j - 1] for j in J) <= sys_.upper[J] for J in sys_.lower)
    ))


def test_integer_points_walk_matches_the_box_filter():
    rng = random.Random(53)
    nonempty = 0
    for _ in range(300):
        p = rng.randint(1, 4)
        if rng.random() < 0.5:
            cells = list(itertools.product(range(4), repeat=p))
            sys_ = inequality_system(PointSet(p, rng.sample(cells, rng.randint(1, min(6, len(cells))))))
        else:
            sys_ = _random_system(rng, p, 2)
        Z = integer_points(sys_)
        assert Z == _box_filter(sys_), sys_
        nonempty += bool(Z)
    assert nonempty > 150


def test_fixed_point_characterizes_g_polymatroids_on_g_inputs():
    # integer_points(inequality_system(G)) == G whenever G is a g-polymatroid
    rng = random.Random(77)
    cells = list(itertools.product(range(3), repeat=3))
    for _ in range(500):
        P = PointSet(3, rng.sample(cells, rng.randint(1, 8)))
        if is_g_polymatroid(P, "axioms"):
            assert integer_points(inequality_system(P)) == P


def test_axis_orders_policies():
    assert axis_orders(3, "natural") == [(1, 2, 3)]
    assert len(axis_orders(3, "all")) == 6
    sampled = axis_orders(5, ("sample", 10, 42))
    assert all(sorted(o) == [1, 2, 3, 4, 5] for o in sampled)
    assert axis_orders(5, ("sample", 10, 42)) == sampled  # deterministic
    with pytest.raises(ValueError):
        axis_orders(7, "all")


def test_cave_running_example_all_orders():
    C = point_set(list(HILBERT_3))
    assert is_cave(C, "all")


def test_cave_singleton():
    assert is_cave(point_set([(1, 1)]), "all")


def test_bare_polymatroid_is_not_a_cave():
    # the union formula at b = 0 demands the lower stalactite layers
    chk = is_cave(point_set(MSUPP_3), "natural")
    assert not chk
    assert chk.witness["condition"] == "stalactite-union"


def test_cave_gap_fails():
    chk = is_cave(point_set([(0, 0), (2, 0)]), "natural")
    assert not chk


def test_cave_empty_errors():
    with pytest.raises(EmptySetError):
        is_cave(PointSet(2))


def test_cave_implies_g_polymatroid_randomized():
    # gluing theorem: every cave is a g-polymatroid
    rng = random.Random(5150)
    cells = list(itertools.product(range(3), repeat=3))
    caves = 0
    for _ in range(400):
        P = PointSet(3, rng.sample(cells, rng.randint(1, 6)))
        if is_cave(P, "all"):
            caves += 1
            assert is_g_polymatroid(P, "axioms"), list(P)
    assert caves > 10


def _above_the_rule(P):
    n, p = len(P), P.ambient_p
    return n * (n - 1) * p > (p + 1) ** 2 << p


def _without_a_midpoint(P):
    """P minus its first point q with q + d and q - d in P for a step d =
    e_i - e_j or e_i, which no g-polymatroid (hole-free) allows; None if
    there is none."""
    p = P.ambient_p
    units = [tuple(int(k == i) for k in range(p)) for i in range(p)]
    steps = units + [tuple(a - b for a, b in zip(u, v)) for u in units for v in units if u != v]
    for q in P:
        for d in steps:
            if tuple(x + y for x, y in zip(q, d)) in P and tuple(x - y for x, y in zip(q, d)) in P:
                return PointSet(p, (r for r in P if r != q))
    return None


def test_base_polymatroid_routes_agree_with_the_exchange_loop():
    # linear polymatroids, the same with a midpoint dropped or an off-level
    # point added, their mu-supports (g-polymatroids off one level), and
    # random_base_polymatroid draws; the verdict and every witness must be
    # the loop's on both sides of the size rule
    rng = random.Random(59)
    inputs = []
    for _ in range(80):
        P = linear_polymatroid(random_config(rng.randint(2, 5), rng.randint(2, 5), rng))
        q = P.points[0]
        inputs += [P, PointSet(P.ambient_p, list(P) + [(q[0] + 1,) + q[1:]]), mu_support(P)]
        holed = _without_a_midpoint(P)
        if holed is not None:
            inputs.append(holed)
    drawn = 0
    while drawn < 150:
        P = random_base_polymatroid(rng, rng.randint(2, 4), 4)
        if P is not None:
            drawn += 1
            inputs.append(P)
    counts = {}
    for P in inputs:
        # a fresh copy: linear_polymatroid and random_base_polymatroid have
        # already stored a verdict on the sets they return
        fast, loop = is_base_polymatroid(PointSet(P.ambient_p, P)), _exchange_check(P)
        assert bool(fast) == bool(loop), list(P)
        assert fast.witness == loop.witness, list(P)
        key = (_above_the_rule(P), bool(loop))
        counts[key] = counts.get(key, 0) + 1
    assert counts[True, True] > 40 and counts[True, False] > 100
    assert counts[False, True] > 100 and counts[False, False] > 30


def test_base_polymatroid_verdict_is_computed_once_per_set(monkeypatch):
    real, evaluated = polymatroid._base_polymatroid_check, []

    def counted(P):
        evaluated.append(P)
        return real(P)

    monkeypatch.setattr(polymatroid, "_base_polymatroid_check", counted)
    good, bad = point_set(MSUPP_3), point_set([(2, 0), (0, 2)])
    for _ in range(3):
        assert is_base_polymatroid(good) and not is_base_polymatroid(bad)
    assert evaluated == [good, bad]
    assert is_base_polymatroid(bad).witness == _exchange_check(bad).witness
    # an equal set built afresh is evaluated afresh
    assert not is_base_polymatroid(point_set([(0, 2), (2, 0)]))
    assert len(evaluated) == 3


def test_homogenization_never_enters_the_paramodular_code(monkeypatch):
    def forbidden(*args):
        raise AssertionError("homogenization reached the paramodular check")

    # criterion 07's Grothendieck supports and some larger mu-supports of
    # linear polymatroids, each also with a midpoint dropped
    rng = random.Random(61)
    sets = [grothendieck(w).support() for w in zero_one_permutations(5)]
    sets += [mu_support(linear_polymatroid(random_config(4, 3, rng))) for _ in range(20)]
    sets += [H for H in map(_without_a_midpoint, sets) if H is not None]
    monkeypatch.setattr(polymatroid, "_paramodular_check", forbidden)
    verdicts = {True: 0, False: 0}
    for G in sets:
        h = bool(is_g_polymatroid(G, "homogenization"))
        assert h == bool(is_g_polymatroid(G, "axioms")), list(G)
        verdicts[h] += 1
    assert min(verdicts.values()) > 30
    assert sum(_above_the_rule(homogenize(G)) for G in sets) > 20


def test_sparse_base_polymatroid_above_the_rule_needs_no_box_cap(monkeypatch):
    # the box 0 <= y_i <= b({i}) holds about 10^9 cells, far above the
    # integer-point cap, yet the walk stops after |P| + 1 points
    walked, walk = [], polymatroid._integer_points

    def counted_walk(*args):
        Z = walk(*args)
        walked.append(len(Z))
        return Z

    monkeypatch.setattr(polymatroid, "_integer_points", counted_walk)
    line = [(1000 - k, 1000 + k, 1000) for k in range(8)]
    P = point_set(line)
    assert _above_the_rule(P)
    assert math.prod(max(q[i] for q in P) + 1 for i in range(3)) > INTEGER_POINTS_CAP
    assert is_base_polymatroid(P)
    # a gap at k = 8: Q(c, b) holds the 10 points k = 0..9, the walk stops at 9
    gap = point_set(line[:7] + [(991, 1009, 1000)])
    chk = is_base_polymatroid(gap)
    assert not chk
    assert chk.witness["condition"] == "exchange"
    assert chk.witness == _exchange_check(gap).witness
    assert walked == [8, 9]


def test_cave_witness_keeps_its_condition_and_names_a_nonzero_truncation():
    rng = random.Random(7)
    cells = list(itertools.product(range(3), repeat=3))
    gpoly_failures = 0
    for _ in range(1000):
        C = PointSet(3, rng.sample(cells, rng.randint(1, 6)))
        chk = is_cave(C, "natural")
        if chk or chk.witness["condition"] == "stalactite-union":
            continue
        w = chk.witness
        A = truncate(C, w["truncation"])
        if w["condition"] == "top-polymatroid":
            assert w["cause"] == is_base_polymatroid(top(A)).witness
        else:
            assert w["condition"] == "truncation-g-polymatroid"
            assert any(w["truncation"])
            assert w["cause"] == is_g_polymatroid(A, "paramodular").witness
            gpoly_failures += 1
    assert gpoly_failures > 20


def literal_cave_witness(C, order_policy):
    """is_cave's witness (None when it passes) by the definition: truncate at
    every grid cell, keep each distinct truncation with its first cell (or its
    first nonzero one), then test its top, the truncation itself off the origin,
    and the union of literal stalactites under every order."""
    p = C.ambient_p
    trunc = {}
    for b in itertools.product(*(range(max(q[i] for q in C) + 1) for i in range(p))):
        A = truncate(C, b)
        if A and (A not in trunc or not any(trunc[A])):
            trunc[A] = b
    for A, b in trunc.items():
        T = top(A)
        chk = is_base_polymatroid(T)
        if not chk:
            return {"condition": "top-polymatroid", "truncation": list(b), "cause": chk.witness}
        if any(b) and not is_g_polymatroid(A, "paramodular"):
            return {"condition": "truncation-g-polymatroid", "truncation": list(b),
                    "cause": is_g_polymatroid(A, "paramodular").witness}
        for order in axis_orders(p, order_policy):
            ranked = sorted(T, key=functools.cmp_to_key(lambda u, v: lex_compare(u, v, order)))
            covered = set()
            for k, a in enumerate(ranked):
                covered.update(stalactite(a, neighbor_directions(a, PointSet(p, ranked[:k]))))
            if covered != set(A):
                return {"condition": "stalactite-union", "truncation": list(b),
                        "order": list(order),
                        "missing": [list(q) for q in sorted(set(A) - covered)],
                        "extra": [list(q) for q in sorted(covered - set(A))]}
    return None


def test_cave_test_matches_the_literal_oracle():
    # seeded random sets in small boxes, under the three order policies;
    # the verdict and the whole witness must be the oracle's
    rng = random.Random(2718)
    seen = collections.Counter()
    for k in range(600):
        p = rng.choice((1, 2, 3, 3, 4))
        cells = list(itertools.product(range(rng.choice((2, 3, 4)) if p < 4 else 2), repeat=p))
        C = PointSet(p, rng.sample(cells, rng.randint(1, min(len(cells), 9))))
        policy = rng.choice(("all", "natural", ("sample", 3, k)))
        chk = is_cave(C, policy)
        assert (None if chk else chk.witness) == literal_cave_witness(C, policy), (list(C), policy)
        seen["pass" if chk else chk.witness["condition"]] += 1
    assert min(seen[c] for c in ("pass", "top-polymatroid", "truncation-g-polymatroid")) >= 15
    assert seen["stalactite-union"] > 200
