import collections
import functools
import itertools
import math
import random
import tracemalloc

import pytest

from kpoly import polymatroid
from kpoly.lattice import (
    GRID_CAP,
    CapExceeded,
    Check,
    EmptySetError,
    PointSet,
    axis_values,
    homogenize,
    lex_compare,
    members,
    point_set,
    support_bounds,
    top,
    truncate,
    unit_shift,
)
from kpoly.mobius import mu_support
from kpoly.stalactite import collapse_fixed_components, hsupp_from_msupp, neighbor_directions, stalactite
from kpoly.polymatroid import (
    G_POLY_METHODS,
    INTEGER_POINTS_CAP,
    GPolyInequalitySystem,
    _axiom_check,
    _exchange_check,
    _paramodular_check,
    _paramodular_witness,
    _submodular_violation,
    _support_tables,
    axis_orders,
    base_polymatroid,
    check_symmetric_exchange,
    inequality_system,
    integer_points,
    is_base_polymatroid,
    is_cave,
    is_g_polymatroid,
    rank_functions,
)
from kpoly.schubert import grothendieck, msupp_of_matrix_schubert, zero_one_permutations
from kpoly.subspaces import linear_polymatroid, random_config, rank_table
from running_example import HILBERT_3, INEQUALITIES, KPOLY_3, MSUPP_3


def all_subsets_of_box(p, coord_max, max_size):
    """Every nonempty subset of the box of the given size, small ones first."""
    cells = list(itertools.product(range(coord_max + 1), repeat=p))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(cells, size):
            yield PointSet(p, combo)


def exchange_loop(P: PointSet) -> Check:
    """_exchange_check by its literal loops, every ordered pair (u, v) and
    every i, with a membership test per candidate j: the oracle of the
    bitmask kernel, which must report the same first failure."""
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


def axiom_loop(G: PointSet) -> Check:
    """_axiom_check by its literal loops, the oracle of the bitmask kernel."""
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


def check_bitsets_against_the_loops(sets) -> tuple[int, int]:
    """Assert that _axiom_check, _exchange_check and _exchange_check of the
    homogenization give the literal loops' verdict and whole witness on each
    nonempty set; returns how many sets ran and how many checks failed."""
    n = failed = 0
    for G in sets:
        H = homogenize(G)
        for kernel, loop, A in ((_axiom_check, axiom_loop, G), (_exchange_check, exchange_loop, G),
                                (_exchange_check, exchange_loop, H)):
            got, want = kernel(A), loop(A)
            assert (got.ok, got.witness) == (want.ok, want.witness), (kernel.__name__, list(A))
            failed += not want
        n += 1
    return n, failed


def _near_simplices(rng):
    """The points y >= 0 with y([p]) <= d, and the face y([p]) = d, for p <= 4
    and d <= 3, each whole and with one to three random points dropped."""
    for p, d in itertools.product(range(1, 5), range(1, 4)):
        ball = [y for y in itertools.product(range(d + 1), repeat=p) if sum(y) <= d]
        for cells in (ball, [y for y in ball if sum(y) == d]):
            yield PointSet(p, cells)
            for drop in (1, 2, 3):
                if drop < len(cells):
                    yield PointSet(p, rng.sample(cells, len(cells) - drop))


def _random_point_sets(rng, count):
    """Sets of 1 to 10 points for p = 0..6: in a small box, the same box
    moved by 10^12 on every axis, or with coordinates anywhere up to 10^12."""
    for _ in range(count):
        p, n = rng.randint(0, 6), rng.randint(1, 10)
        side, shift = rng.choice((1, 2, 3)), rng.choice((0, 0, 10**12))
        if rng.random() < 0.1:
            yield PointSet(p, [[rng.randint(0, 10**12) for _ in range(p)] for _ in range(n)])
        else:
            yield PointSet(p, [[shift + rng.randint(0, side) for _ in range(p)] for _ in range(n)])


def test_bitset_checks_give_the_literal_loops_verdicts_and_witnesses():
    # every family is checked by axioms, the exchange check and the exchange
    # check of its homogenization
    rng = random.Random(31)
    families = {
        "box subsets": itertools.chain(all_subsets_of_box(2, 2, 5), all_subsets_of_box(3, 1, 8)),
        "random sets": _random_point_sets(rng, 800),
        "near-simplices": _near_simplices(rng),
        "bases of rank_functions(3, 2)": map(base_polymatroid, rank_functions(3, 2)),
        "Grothendieck supports of S_5": (grothendieck(w).support() for w in itertools.permutations(range(1, 6))),
    }
    counts = {name: check_bitsets_against_the_loops(sets) for name, sets in families.items()}
    # (sets, failing checks); on S_5 only the exchange checks of supports
    # spanning more than one degree fail
    assert counts == {"box subsets": (636, 1628), "random sets": (800, 1544), "near-simplices": (79, 118),
                      "bases of rank_functions(3, 2)": (115, 0), "Grothendieck supports of S_5": (120, 78)}


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
    for G, method in itertools.product((point_set(list(HILBERT_3)), PointSet(3)), G_POLY_METHODS):
        assert is_g_polymatroid(G, method), (G, method)


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
    # every rank function on p <= 3 with singleton ranks <= 3, and every
    # 20th on p = 4 with singleton ranks <= 2
    ranks = [f for p in (2, 3) for f in rank_functions(p, 3)]
    ranks += itertools.islice(rank_functions(4, 2), 0, None, 20)
    for f in ranks:
        P = base_polymatroid(f)
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
    b, c = sys_.upper, sys_.lower
    return all(
        b[X] + b[Y] >= b[X | Y] + b[X & Y]
        and c[X] + c[Y] <= c[X | Y] + c[X & Y]
        and b[X] - c[Y] >= b[X & ~Y] - c[Y & ~X]
        for X in range(len(b))
        for Y in range(len(b))
    )


def _random_system(rng, p, spread):
    """Random bounds with c = b = 0 on the empty set, drawn by size, then by members."""
    lower, upper = [0] * (1 << p), [0] * (1 << p)
    for r in range(1, p + 1):
        for J in itertools.combinations(range(p), r):
            X = sum(1 << j for j in J)
            lo = rng.randint(0, spread * r)
            lower[X], upper[X] = lo, lo + rng.randint(-1, spread * r)
    return GPolyInequalitySystem(p, lower, upper)


def test_paramodular_check_matches_the_literal_pair_oracle():
    rng = random.Random(47)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        p = rng.randint(1, 4)
        if rng.random() < 0.5:
            cells = list(itertools.product(range(3), repeat=p))
            A = PointSet(p, rng.sample(cells, rng.randint(1, min(5, len(cells)))))
            sys_ = inequality_system(A)
            assert (list(sys_.lower), list(sys_.upper)) == _support_tables(A)
        else:
            sys_ = _random_system(rng, p, 1)
        chk = _paramodular_check(sys_.lower, sys_.upper, p)
        assert bool(chk) == _literal_paramodular(sys_), sys_
        verdicts[bool(chk)] += 1
        if not chk:
            X, Y = (sum(1 << (j - 1) for j in chk.witness[k]) for k in "XY")
            assert (members(X), members(Y)) == (chk.witness["X"], chk.witness["Y"])
            b, c = sys_.upper, sys_.lower
            assert {
                "submodular": b[X] + b[Y] < b[X | Y] + b[X & Y],
                "supermodular": c[X] + c[Y] > c[X | Y] + c[X & Y],
                "cross": b[X] - c[Y] < b[X & ~Y] - c[Y & ~X],
            }[chk.witness["condition"]], (sys_, chk)
    assert min(verdicts.values()) > 100


def _first_violation_full_range(t):
    """Oracle for _submodular_violation, literally: for each pair of bits in
    combinations order, every mask W of the table in turn, skipping those
    that hold either bit."""
    n = len(t).bit_length() - 1
    for e, f in itertools.combinations([1 << i for i in range(n)], 2):
        ef = e | f
        for W in range(len(t)):
            if not W & ef and t[W | e] + t[W | f] < t[W | ef] + t[W]:
                return W | e, W | f
    return None


def _random_submodular(rng, n):
    """A random submodular table on [n] with t(empty) = 0: a weighted
    coverage function (monotone) plus a random cut function (not)."""
    sets = [rng.getrandbits(6) for _ in range(n)]
    weights = [rng.randint(0, 3) for _ in range(6)]
    edges = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 2)) for _ in range(rng.randint(0, 2 * n))]
    table = []
    for X in range(1 << n):
        covered = functools.reduce(int.__or__, (sets[i] for i in range(n) if X >> i & 1), 0)
        cut = sum(w for i, j, w in edges if (X >> i ^ X >> j) & 1)
        table.append(sum(w for k, w in enumerate(weights) if covered >> k & 1) + cut)
    return table


def _random_tables(rng, count):
    """Random tables on [n] for n <= 6: submodular ones, and ones with one
    entry other than t(empty) moved by a nonzero amount."""
    for _ in range(count):
        n = rng.randint(0, 6)
        t = _random_submodular(rng, n)
        if n and rng.random() < 0.7:
            t[rng.randrange(1, 1 << n)] += rng.choice([-2, -1, 1, 2])
        yield t


def test_submodular_violation_matches_the_full_range_oracle():
    rng = random.Random(2718)
    found = {True: 0, False: 0}
    for t in _random_tables(rng, 1500):
        want = _first_violation_full_range(t)
        assert _submodular_violation(t) == want, t
        assert _submodular_violation(tuple(t)) == want, t
        found[want is None] += 1
    assert min(found.values()) > 300


def test_paramodular_check_witness_is_the_oracle_s_first_violation():
    # rho as _paramodular_check builds it from (c, b); its first violation
    # by the full-range oracle, translated back, is the check's witness
    rng = random.Random(3141)
    verdicts = {True: 0, False: 0}
    for _ in range(800):
        p = rng.randint(1, 5)
        sys_ = _random_system(rng, p, rng.randint(1, 2))
        c, b, full = sys_.lower, sys_.upper, (1 << p) - 1
        AB = _first_violation_full_range(list(b) + [-c[full ^ X] for X in range(full + 1)])
        chk = _paramodular_check(c, b, p)
        want = _paramodular_witness(*AB, p) if AB else Check(True)
        assert (bool(chk), chk.witness) == (bool(want), want.witness), sys_
        verdicts[bool(chk)] += 1
    assert min(verdicts.values()) > 100


def test_base_polymatroid_names_the_oracle_s_first_violation():
    rng = random.Random(1618)
    refused = 0
    for t in _random_tables(rng, 1500):
        AB = _first_violation_full_range(t)
        if AB is None:
            continue
        X, Y = map(members, AB)
        message = f"rank table is not submodular: f(X) + f(Y) < f(X | Y) + f(X & Y) for X = {X}, Y = {Y}"
        with pytest.raises(ValueError) as err:
            base_polymatroid(t)
        assert str(err.value) == message, t
        refused += 1
    assert refused > 400


def test_inequality_system_running_example():
    sys_ = inequality_system(point_set(list(KPOLY_3)))
    assert len(sys_.subsets()) == 7
    for X in sys_.subsets():
        assert (sys_.lower[X], sys_.upper[X]) == INEQUALITIES[tuple(members(X))]


def test_inequality_system_singleton():
    sys_ = inequality_system(point_set([(2, 1)]))
    for J in sys_.subsets():
        assert sys_.lower[J] == sys_.upper[J]


def test_inequality_system_homogeneous_top_slice():
    sys_ = inequality_system(point_set(MSUPP_3))
    full = 0b111
    assert sys_.lower[full] == sys_.upper[full] == 8


def test_integer_points_running_example():
    supp = point_set(list(KPOLY_3))
    assert integer_points(inequality_system(supp)) == supp


def test_integer_points_interval_and_empty():
    sys_ = inequality_system(point_set([(2,), (4,)]))
    assert integer_points(sys_) == point_set([(2,), (3,), (4,)])
    # infeasible: force c > b by hand
    bad = GPolyInequalitySystem(1, [0, 3], [0, 2])
    assert len(integer_points(bad)) == 0


def _box_filter(sys_):
    """Oracle: every cell of the box 0 <= y_i <= b({i}) that meets every bound."""
    p = sys_.ambient_p
    boxes = [sys_.upper[1 << i] for i in range(p)]
    return PointSet(p, (
        y for y in itertools.product(*(range(b + 1) for b in boxes))
        if all(
            sys_.lower[X] <= sum(y[j - 1] for j in members(X)) <= sys_.upper[X]
            for X in sys_.subsets()
        )
    ))


def test_integer_points_walk_matches_the_box_filter():
    rng = random.Random(53)
    nonempty = 0
    for _ in range(300):
        p = rng.randint(1, 4)
        if rng.random() < 0.5:
            cells = list(itertools.product(range(4), repeat=p))
            sys_ = inequality_system(PointSet(p, rng.sample(cells, rng.randint(1, min(6, len(cells))))))
            order = range(1, 1 << p)
        else:
            sys_ = _random_system(rng, p, 2)
            order = sys_.subsets()
        if rng.random() < 0.3:
            # a "partial" system: the singletons and a random share of the
            # rest keep their bounds, each other subset gets c = 0 and b = the
            # sum of the singleton boxes, which no point of the box breaks
            lower, upper = list(sys_.lower), list(sys_.upper)
            for X in order:
                if X.bit_count() > 1 and rng.random() >= 0.5:
                    lower[X], upper[X] = 0, sum(upper[1 << i] for i in range(p))
            sys_ = GPolyInequalitySystem(p, lower, upper)
        Z = integer_points(sys_)
        assert Z == _box_filter(sys_), sys_
        nonempty += bool(Z)
    assert nonempty > 150


def test_base_polymatroid_refuses_candidates_above_its_cap_before_the_enumeration(monkeypatch):
    # the uniform matroid U_{4,5}: rank 4 on [5] bounds the candidate points
    # by C(4 + 4, 4) = 70
    ranks = [min(X.bit_count(), 4) for X in range(1 << 5)]
    monkeypatch.setattr(polymatroid, "BASE_CANDIDATE_CAP", 69)
    monkeypatch.setattr(polymatroid, "_integer_points", lambda *args: pytest.fail("enumeration before the cap"))
    with pytest.raises(CapExceeded, match=r"^base polymatroid has up to 70 candidate points \(cap 69\)$"):
        base_polymatroid(ranks)


def test_integer_points_refuses_a_box_above_its_cap_before_the_walk(monkeypatch):
    # the box 0 <= y_i <= 2 in three coordinates holds 27 cells
    sys_ = GPolyInequalitySystem(3, [0] * 8, [0, 2, 2, 6, 2, 6, 6, 6])
    monkeypatch.setattr(polymatroid, "INTEGER_POINTS_CAP", 26)
    monkeypatch.setattr(polymatroid, "_integer_points", lambda *args: pytest.fail("walk before the cap"))
    with pytest.raises(CapExceeded, match=r"^integer-point box has 27 cells \(cap 26\)$"):
        integer_points(sys_)


def test_inequality_system_needs_one_bound_per_subset():
    with pytest.raises(ValueError, match=r"^lower table has 7 entries, expected one per subset of \[3\]$"):
        GPolyInequalitySystem(3, [0] * 7, [0] * 8)
    with pytest.raises(ValueError, match=r"^upper table has 2 entries, expected one per subset of \[0\]$"):
        GPolyInequalitySystem(0, [0], [0, 1])
    sys_ = GPolyInequalitySystem(2, [0, 1, 2, 3], range(4))
    assert sys_ == GPolyInequalitySystem(2, (0, 1, 2, 3), [0, 1, 2, 3])
    assert (sys_.lower, sys_.upper) == ((0, 1, 2, 3), (0, 1, 2, 3))


def test_subsets_come_by_size_then_by_sorted_members():
    for p in range(6):
        sys_ = GPolyInequalitySystem(p, [0] * (1 << p), [0] * (1 << p))
        subsets = [list(J) for r in range(1, p + 1) for J in itertools.combinations(range(1, p + 1), r)]
        assert [members(X) for X in sys_.subsets()] == sorted(subsets, key=lambda J: (len(J), J))


def _literal_support_tables(A):
    """Oracle: min and max of y(X) over A for every bitmask X, one subset at a time."""
    p = A.ambient_p
    sums = [[sum(q[j] for j in range(p) if X >> j & 1) for q in A] for X in range(1 << p)]
    return [min(s) for s in sums], [max(s) for s in sums]


@pytest.mark.parametrize("grid_cap", [GRID_CAP, 16])
def test_support_tables_match_the_literal_subset_min_max(monkeypatch, grid_cap):
    # at a grid cap of 16 the rows come in blocks of 16 >> p points
    monkeypatch.setattr(polymatroid, "GRID_CAP", grid_cap)
    rng = random.Random(89)
    sizes = collections.Counter()
    for _ in range(300):
        p = rng.randint(1, 4)
        cells = list(itertools.product(range(4), repeat=p))
        A = PointSet(p, rng.sample(cells, rng.choice([1, rng.randint(1, min(20, len(cells)))])))
        assert _support_tables(A) == _literal_support_tables(A), list(A)
        sizes[p, len(A) == 1] += 1
    assert min(sizes[p, single] for p in range(1, 5) for single in (True, False)) > 10


def test_support_tables_hold_one_block_of_rows_at_a_time(monkeypatch):
    # 2000 points in 8 coordinates whose subset sums are all distinct int
    # objects: their 2^8-entry rows take about 18 MB at once, a block of
    # GRID_CAP >> 8 = 4 rows about 40 kB
    rng = random.Random(3)
    A = PointSet(8, {tuple(rng.randrange(300, 600) for _ in range(8)) for _ in range(2000)})
    one_block = _support_tables(A)
    monkeypatch.setattr(polymatroid, "GRID_CAP", 1 << 10)
    tracemalloc.start()
    try:
        tables = _support_tables(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables == one_block
    assert peak < 1 << 20, peak


def test_paramodular_witness_lists_the_first_extra_points_of_q():
    # a failing integer-point check lists, among the first |G| + 1 points of
    # Q(c, b) in lex order, those outside G
    rng = random.Random(97)
    failures = 0
    for _ in range(400):
        p = rng.randint(1, 3)
        cells = list(itertools.product(range(4), repeat=p))
        G = PointSet(p, rng.sample(cells, rng.randint(1, min(6, len(cells)))))
        chk = is_g_polymatroid(G, "paramodular")
        if chk or chk.witness["condition"] != "integer-points":
            continue
        Q = _box_filter(inequality_system(G))
        assert chk.witness["extra_points"] == [list(q) for q in list(Q)[:len(G) + 1] if q not in G]
        failures += 1
    assert failures > 50


def test_support_tables_refuse_2_to_the_p_above_the_grid_cap(monkeypatch):
    # the 2^p tables are refused before they are allocated
    P = point_set([(6000 - k, 1000 + k, 1000) for k in range(5000)])
    monkeypatch.setattr(polymatroid, "GRID_CAP", 4)
    for call in (_support_tables, inequality_system, lambda A: is_g_polymatroid(A, "paramodular")):
        with pytest.raises(CapExceeded, match=r"support tables have 8 subsets \(cap 4\)"):
            call(P)
    with pytest.raises(CapExceeded, match="support tables have 8 subsets"):
        integer_points(GPolyInequalitySystem(3, [0] * 8, [0] * 8))


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
    assert len(axis_orders(3, ("sample", 720, 1))) == 6
    for k in (0, -3):
        with pytest.raises(ValueError, match="at least one order"):
            axis_orders(2, ("sample", k, 1))
    for k in (721, 100_000_000_000):
        with pytest.raises(CapExceeded, match=f"draws {k} orders"):
            axis_orders(2, ("sample", k, 1))


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


LARGE_SET = 960  # points; the literal exchange loop is too slow above


def _capped_simplices(rng, count):
    """count base polymatroids of LARGE_SET points or more: the y >= 0 with
    y([p]) = d and y_i <= u_i, for p = 3 or 4 and random d and caps u."""
    while count:
        p = rng.choice((3, 4))
        d = rng.randint(45, 50) if p == 3 else rng.randint(16, 18)
        caps = [rng.randint(d * 7 // 8, d) for _ in range(p)]
        cells = itertools.product(*(range(u + 1) for u in caps[:-1]))
        P = PointSet(p, [y + (d - sum(y),) for y in cells if 0 <= d - sum(y) <= caps[-1]])
        if len(P) >= LARGE_SET:
            count -= 1
            yield P


def test_base_polymatroid_routes_agree_with_the_exchange_loop():
    # linear polymatroids and capped simplices, the same with a midpoint
    # dropped or an off-level point added, the linear ones' mu-supports
    # (g-polymatroids off one level), and the bases of every 20th rank
    # function on p = 4 with singleton ranks <= 2; the verdict and every
    # witness must be the literal loop's below LARGE_SET points, and the
    # verdict above it homogeneity and paramodular's (Murota 2003), a route
    # that shares no kernel with the exchange check
    rng = random.Random(59)
    linear = [linear_polymatroid(random_config(rng.randint(2, 5), rng.randint(2, 5), rng)) for _ in range(80)]
    inputs = list(map(mu_support, linear))
    for P in linear + list(_capped_simplices(rng, 51)):
        q = P.points[0]
        inputs += [P, PointSet(P.ambient_p, list(P) + [(q[0] + 1,) + q[1:]])]
        holed = _without_a_midpoint(P)
        if holed is not None:
            inputs.append(holed)
    inputs += map(base_polymatroid, itertools.islice(rank_functions(4, 2), 0, None, 20))
    counts = collections.Counter()
    for P in inputs:
        # a fresh copy: base_polymatroid has already stored a verdict on the
        # sets it returns
        fast = is_base_polymatroid(PointSet(P.ambient_p, P))
        if large := len(P) >= LARGE_SET:
            assert bool(fast) == (len({sum(q) for q in P}) == 1 and bool(is_g_polymatroid(P, "paramodular"))), list(P)
        else:
            want = exchange_loop(P)
            assert (bool(fast), fast.witness) == (bool(want), want.witness), list(P)
        counts[large, bool(fast)] += 1
    assert counts[True, True] > 40 and counts[True, False] > 100
    assert counts[False, True] > 100 and counts[False, False] > 30


def test_rank_functions_count_the_labelled_matroids():
    # OEIS A058673: labelled matroids on 1..6 elements
    counts = [sum(1 for _ in rank_functions(p, 1)) for p in range(1, 7)]
    assert counts == [2, 5, 16, 68, 406, 3807]


def test_rank_functions_match_the_brute_force_filter():
    # every table with f(empty) = 0 and values up to p * K, kept when it
    # meets the singleton bound and every monotone and submodular inequality
    for p, K in ((1, 3), (2, 3), (3, 1)):
        n = 1 << p
        want = [
            f for f in itertools.product(range(p * K + 1), repeat=n - 1)
            for f in [(0,) + f]
            if all(f[1 << i] <= K for i in range(p))
            and all(f[A] <= f[A | B] for A in range(n) for B in range(n))
            and all(f[A] + f[B] >= f[A | B] + f[A & B] for A in range(n) for B in range(n))
        ]
        assert sorted(rank_functions(p, K)) == want, (p, K)


def test_base_polymatroid_has_its_rank_function_as_upper_bounds():
    # max over the bases of y(J) is rank(J) for every J
    for p in range(1, 4):
        for f in rank_functions(p, 2):
            assert _support_tables(base_polymatroid(f))[1] == list(f), f


def test_base_polymatroid_matches_the_literal_box_filter():
    # every point of the product box, kept when it meets every rank bound
    ranks = [f for p in (1, 2, 3) for f in rank_functions(p, 3)]
    ranks += itertools.islice(rank_functions(4, 2), 0, None, 20)
    for f in ranks:
        p, total = len(f).bit_length() - 1, f[-1]
        want = [
            y for y in itertools.product(range(total + 1), repeat=p)
            if sum(y) == total
            and all(sum(y[j] for j in range(p) if J >> j & 1) <= r for J, r in enumerate(f))
        ]
        assert base_polymatroid(f) == PointSet(p, want), f


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


def check_walk_against_the_candidate_filter(ranks) -> int:
    """Assert that base_polymatroid returns the candidate filter's points in
    its order, and that each output passes the exchange check, the evidence
    for the verdict base_polymatroid stores; returns how many tables ran."""
    n = 0
    for f in ranks:
        P = base_polymatroid(f)
        assert list(P.points) == candidate_filter(f), f
        assert _exchange_check(P), f
        n += 1
    return n


def test_base_polymatroid_walk_matches_the_candidate_filter():
    # every rank function of six (p, K) families and the rank tables of the
    # criterion-08 configs
    families = ((2, 3), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1))
    assert check_walk_against_the_candidate_filter(f for p, K in families for f in rank_functions(p, K)) == 3195
    rng = random.Random(20240817)  # the stream of acceptance criterion 08
    configs = [random_config(rng.randint(2, 5), rng.randint(2, 5), rng) for _ in range(200)]
    assert check_walk_against_the_candidate_filter(map(rank_table, configs)) == 200


def test_base_polymatroid_refuses_a_bad_table_before_the_walk(monkeypatch):
    monkeypatch.setattr(polymatroid, "_integer_points", lambda *args: pytest.fail("walk on a bad table"))
    for ranks, message in (
        ([0, 1, 1, 3], r"^rank table is not submodular: f\(X\) \+ f\(Y\) < f\(X \| Y\) \+ f\(X & Y\) "
                       r"for X = \[1\], Y = \[2\]$"),
        ([0, 1, 1], r"^rank table has 3 entries, expected one per subset of \[p\]$"),
        ([], r"^rank table has 0 entries, expected one per subset of \[p\]$"),
        ([1, 1, 1, 2], r"^rank table has f\(empty\) = 1, expected 0$"),
        ([0, 2, 0, 1], r"^rank table is not monotone: f\(\[p\]\) < f\(\[p\] - \{2\}\)$"),
    ):
        with pytest.raises(ValueError, match=message):
            base_polymatroid(ranks)


def test_base_polymatroid_stores_its_verdict(monkeypatch):
    monkeypatch.setattr(polymatroid, "_exchange_check", lambda P: pytest.fail("recheck of a stored verdict"))
    for f in rank_functions(3, 2):
        assert is_base_polymatroid(base_polymatroid(f))


def test_base_polymatroid_verdict_is_computed_once_per_set(monkeypatch):
    real, evaluated = polymatroid._exchange_check, []

    def counted(P):
        evaluated.append(P)
        return real(P)

    monkeypatch.setattr(polymatroid, "_exchange_check", counted)
    good, bad = point_set(MSUPP_3), point_set([(2, 0), (0, 2)])
    for _ in range(3):
        assert is_base_polymatroid(good) and not is_base_polymatroid(bad)
    assert evaluated == [good, bad]
    assert is_base_polymatroid(bad).witness == exchange_loop(bad).witness
    # an equal set built afresh is evaluated afresh
    assert not is_base_polymatroid(point_set([(0, 2), (2, 0)]))
    assert len(evaluated) == 3


def test_homogenization_never_enters_the_paramodular_code(monkeypatch):
    def forbidden(*args):
        raise AssertionError("homogenization reached the paramodular code")

    # criterion 07's Grothendieck supports and some larger mu-supports of
    # linear polymatroids, each also with a midpoint dropped
    rng = random.Random(61)
    sets = [grothendieck(w).support() for w in zero_one_permutations(5)]
    sets += [mu_support(linear_polymatroid(random_config(4, 3, rng))) for _ in range(20)]
    # boxes in the plane of 1140 to 2009 points
    sets += [PointSet(2, itertools.product(range(a), range(b))) for a in range(30, 42) for b in (a + 8, 2000 // a)]
    sets += [H for H in map(_without_a_midpoint, sets) if H is not None]
    monkeypatch.setattr(polymatroid, "_paramodular_check", forbidden)
    monkeypatch.setattr(polymatroid, "_support_tables", forbidden)
    verdicts = {True: 0, False: 0}
    for G in sets:
        h = bool(is_g_polymatroid(G, "homogenization"))
        assert h == bool(is_g_polymatroid(G, "axioms")) == bool(is_base_polymatroid(homogenize(G))), list(G)
        verdicts[h] += 1
    assert min(verdicts.values()) > 30
    assert sum(len(homogenize(G)) >= 1000 for G in sets) > 20


def test_sparse_base_polymatroid_needs_no_box_cap(monkeypatch):
    # the box 0 <= y_i <= b({i}) holds about 10^9 cells, far above the
    # integer-point cap, yet the paramodular walk stops after |G| + 1 points,
    # and the base check walks no box at all
    walked, walk = [], polymatroid._integer_points

    def counted_walk(*args):
        Z = walk(*args)
        walked.append(len(Z))
        return Z

    monkeypatch.setattr(polymatroid, "_integer_points", counted_walk)
    line = [(6000 - k, 1000 + k, 1000) for k in range(5000)]
    P = point_set(line)
    assert math.prod(max(q[i] for q in P) + 1 for i in range(3)) > INTEGER_POINTS_CAP
    # a gap at k = 4999: u - e_2 + e_1 leaves the set
    gap = point_set(line[:-1] + [(1000, 6000, 1000)])
    assert is_base_polymatroid(P)
    chk = is_base_polymatroid(gap)
    assert chk.witness == {"condition": "exchange", "u": [1000, 6000, 1000], "v": [1002, 5998, 1000], "i": 2}
    assert walked == []
    # Q(c, b) of the gap set holds the 5001 points k = 0..5000, the walk stops at 5001
    assert is_g_polymatroid(P, "paramodular") and not is_g_polymatroid(gap, "paramodular")
    assert walked == [5000, 5001]


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
        if not chk and chk.witness.get("order") not in (None, list(range(1, p + 1))):
            seen["reordered"] += 1
    assert min(seen[c] for c in ("pass", "top-polymatroid", "truncation-g-polymatroid")) >= 15
    assert seen["stalactite-union"] > 200
    # stalactite-union failures reported under an order other than (1..p).
    # The union over a base-polymatroid top comes out the same under every
    # order in these sets, so "all" fails at its first order, (1..p), and
    # only the samples, which start elsewhere, report other orders
    assert seen["reordered"] > 40
    # the same kind of sets scaled per axis and translated, so their values
    # have gaps and a positive least value on some axes, which the oracle
    # still truncates at every cell of the grid from the origin
    moved = collections.Counter()
    for k in range(300):
        p = rng.choice((1, 2, 3, 3, 4))
        cells = list(itertools.product(range(rng.choice((2, 3)) if p < 4 else 2), repeat=p))
        scale = [rng.randint(1, 3) for _ in range(p)]
        lo = [rng.randint(0, 2) for _ in range(p)]
        base = rng.sample(cells, rng.randint(1, min(len(cells), 9)))
        C = PointSet(p, [tuple(a + s * x for a, s, x in zip(lo, scale, q)) for q in base])
        policy = rng.choice(("all", "natural", ("sample", 3, k)))
        chk = is_cave(C, policy)
        assert (None if chk else chk.witness) == literal_cave_witness(C, policy), (list(C), policy)
        moved["pass" if chk else chk.witness["condition"]] += 1
        b = [] if chk else chk.witness["truncation"]
        moved["C at a unit cell"] += any(b) and truncate(C, b) == C
    conditions = ("pass", "top-polymatroid", "truncation-g-polymatroid", "stalactite-union")
    assert min(moved[c] for c in conditions) >= 15
    # a failure at C itself off the origin names e_k, k the last positive axis
    assert moved["C at a unit cell"] > 100


def test_cave_names_each_truncation_at_its_first_nonzero_integer_cell(monkeypatch):
    # a translated cave passes every check, so failing the g-polymatroid
    # check of one truncation at a time shows the cell that names it: the
    # first nonzero cell of the integer grid from the origin that gives it.
    # The first call is is_cave's verdict on C itself; it fails too, so the
    # loop checks each truncation instead of taking them as implied
    C = PointSet(3, [(a + 1, b, c + 2) for a, b, c in HILBERT_3])
    assert is_cave(C, "natural")
    first = {}
    for b in itertools.product(*(range(max(q[i] for q in C) + 1) for i in range(3))):
        if any(b):
            first.setdefault(truncate(C, b), list(b))
    del first[PointSet(3)]
    real = polymatroid.is_g_polymatroid
    for T, b in first.items():
        calls = []

        def failing(A, method, T=T, calls=calls):
            calls.append(A)
            return Check(False, {}) if A == T or len(calls) == 1 else real(A, method)

        monkeypatch.setattr(polymatroid, "is_g_polymatroid", failing)
        assert is_cave(C, "natural").witness["truncation"] == b, list(T)
        assert calls[0] == C
    assert len(first) == 16


def _box_truncations(C):
    """The distinct nonempty C intersected with an integral box lo <= y <= hi;
    lo and hi may be taken among the values of C on each axis."""
    boxes = itertools.product(*([(lo, hi) for lo in vs for hi in vs if lo <= hi] for vs in axis_values(C)))
    return {PointSet(C.ambient_p, (q for q in C if all(lo <= x <= hi for x, (lo, hi) in zip(q, box))))
            for box in boxes} - {PointSet(C.ambient_p)}


def test_g_polymatroid_box_truncations_and_their_tops_pass_the_definitions():
    # the two theorems behind is_cave's verdict on C, checked by the
    # definitions alone: a g-polymatroid meets an integral box in a
    # g-polymatroid (Frank and Tardos 1988), and the face of a g-polymatroid
    # that maximises y([p]) is a base polymatroid
    sets = []
    for w in zero_one_permutations(5):
        msupp, m = msupp_of_matrix_schubert(w)
        small, _, _ = collapse_fixed_components(msupp, m)
        sets.append(hsupp_from_msupp(small).support())
    rng = random.Random(1988)
    for _ in range(400):
        p = rng.randint(1, 4)
        cells = list(itertools.product(range(3 if p < 4 else 2), repeat=p))
        sets.append(PointSet(p, rng.sample(cells, rng.randint(1, min(len(cells), 8)))))
    passed = truncations = 0
    for C in sets:
        if not is_g_polymatroid(C, "axioms"):
            continue
        passed += 1
        for A in _box_truncations(C):
            truncations += 1
            assert is_g_polymatroid(A, "axioms"), (list(C), list(A))
            assert _exchange_check(top(A)), (list(C), list(A))
    assert len(sets) == 515 and passed > 200 and truncations > 3000


def test_a_passing_cave_builds_its_support_tables_once(monkeypatch):
    # C passes the paramodular check, so is_cave takes every truncation's
    # top and g-polymatroid checks as implied and checks no top
    builds, tops = [], []
    support_tables, base = polymatroid._support_tables, polymatroid.is_base_polymatroid
    monkeypatch.setattr(polymatroid, "_support_tables", lambda A: builds.append(A) or support_tables(A))
    monkeypatch.setattr(polymatroid, "is_base_polymatroid", lambda T: tops.append(T) or base(T))
    for C in (point_set(HILBERT_3), PointSet(3, [(a + 1, b, c + 2) for a, b, c in HILBERT_3])):
        builds.clear()
        assert is_cave(C, "all")
        assert builds == [C] and not tops
    # C fails, so the loop checks the truncations one by one, from C on
    C = point_set([(0, 0), (2, 0)])
    builds.clear()
    assert not is_cave(C, "natural")
    assert builds[0] == C and tops


def _cave_truncations(C):
    """The distinct nonempty truncations of C, literally."""
    grid = itertools.product(*(range(max(q[i] for q in C) + 1) for i in range(C.ambient_p)))
    return {truncate(C, b) for b in grid} - {PointSet(C.ambient_p)}


def test_cave_walks_once_per_distinct_projection(monkeypatch):
    # the lex order of an axis order on a top T depends only on the order's
    # projection onto the axes where the points of T differ, so is_cave walks
    # once per distinct (truncation, projection) instead of p! times per
    # truncation, and the walks cover every distinct lex sequence of each top
    walked, walk = [], polymatroid._stalactite_walk

    def counted_walk(pts, strides):
        walked.append(tuple(pts))
        return walk(pts, strides)

    monkeypatch.setattr(polymatroid, "_stalactite_walk", counted_walk)
    C = point_set(HILBERT_3)
    assert is_cave(C, "all")
    p = C.ambient_p
    orders = list(itertools.permutations(range(p)))
    truncations, projections, sequences = _cave_truncations(C), 0, set()
    for A in truncations:
        T = top(A)
        varying = {i for i in range(p) if len({q[i] for q in T}) > 1}
        projections += len({tuple(i for i in o if i in varying) for o in orders})
        sequences |= {tuple(sorted(T, key=lambda q: [q[i] for i in o])) for o in orders}
    assert len(walked) == projections < math.factorial(p) * len(truncations)
    assert set(walked) == sequences


def test_cave_reports_the_first_failing_order(monkeypatch):
    # a walk that drops the first stalactite of every sequence out of natural
    # lex order fails exactly the orders whose lex order on the top differs
    # from the natural one; the witness must name the first such order
    walk = polymatroid._stalactite_walk

    def broken_walk(pts, strides):
        stalactites = walk(pts, strides)
        if list(pts) != sorted(pts):
            next(stalactites)
        return stalactites

    monkeypatch.setattr(polymatroid, "_stalactite_walk", broken_walk)
    # the running example, and the same cave lifted by a constant first
    # coordinate, on which orders that differ only in where they put axis 1
    # share a walk
    for C, policy in itertools.product(
        (point_set(HILBERT_3), point_set([(1, *q) for q in HILBERT_3])),
        ("all", *(("sample", 3, seed) for seed in range(20))),
    ):
        T = top(C)
        orders = axis_orders(C.ambient_p, policy)
        naturally = [sorted(T, key=lambda q: [q[i - 1] for i in o]) == list(T) for o in orders]
        chk = is_cave(C, policy)
        if all(naturally):
            assert chk, policy
        else:
            # C itself is the first truncation walked; it is reported at
            # its first nonzero cell
            assert truncate(C, chk.witness["truncation"]) == C, policy
            order = chk.witness["order"]
            assert order == list(orders[naturally.index(False)]), policy
            assert chk.witness["missing"] == [list(min(T, key=lambda q: [q[i - 1] for i in order]))]
