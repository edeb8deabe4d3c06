import functools
import itertools
import random

import pytest

from kpoly.lattice import IntPolynomial, PointSet, dominates, lex_compare, point_set, top
from kpoly.stalactite import (
    collapse_fixed_components,
    dominance_sums,
    embed_signed_support,
    facet_of,
    facets_from_msupp,
    hilbert_eval,
    hilbert_text,
    hsupp_from_msupp,
    increasing_path_check,
    mobius_sum_check,
    neighbor_directions,
    stalactite,
    stalactite_union,
    verify_mobius_sums,
    verify_shelling,
)
from running_example import (
    AMBIENT_M3,
    AMBIENT_M5,
    HILBERT_3,
    HILBERT_5,
    MSUPP_3,
    MSUPP_5,
    STALACTITES_312,
    STALACTITES_NATURAL,
)


def test_stalactite_of_233():
    assert stalactite((2, 3, 3), (1, 2)) == point_set(
        [(2, 3, 3), (1, 3, 3), (2, 2, 3), (1, 2, 3)]
    )


def test_stalactite_empty_indices():
    assert stalactite((2, 3, 3), ()) == point_set([(2, 3, 3)])


def test_stalactite_cardinality_is_power_of_two():
    assert len(stalactite((3, 2, 3), (1, 2))) == 4
    assert len(stalactite((1, 1, 1), (1, 2, 3))) == 8


def test_stalactite_rejects_bad_indices():
    with pytest.raises(ValueError):
        stalactite((2, 0, 3), (2,))  # zero coordinate
    with pytest.raises(ValueError):
        stalactite((2, 1, 3), (1, 1))  # duplicates


def test_neighbor_directions_example():
    V = point_set([(1, 3, 4), (1, 4, 3), (2, 2, 4)])
    assert neighbor_directions((2, 3, 3), V) == (1, 2)
    assert neighbor_directions((1, 3, 4), PointSet(3)) == ()


def test_stalactite_tables_both_orders():
    T = point_set(MSUPP_3)
    for order, table in ((None, STALACTITES_NATURAL), ((3, 1, 2), STALACTITES_312)):
        entries = stalactite_union(T, order)
        got = {a: set(st) for a, st in entries}
        assert got == table
    nat = set().union(*STALACTITES_NATURAL.values())
    alt = set().union(*STALACTITES_312.values())
    assert nat == alt == set(HILBERT_3)


def test_hsupp_running_example_3_and_5_coords():
    H3 = hsupp_from_msupp(point_set(MSUPP_3))
    assert H3.terms == HILBERT_3
    H5 = hsupp_from_msupp(point_set(MSUPP_5))
    assert H5.terms == HILBERT_5


def test_hsupp_singleton():
    H = hsupp_from_msupp(point_set([(2, 1, 0)]))
    assert H.terms == {(2, 1, 0): 1}


def test_hsupp_requires_polymatroid():
    with pytest.raises(ValueError):
        hsupp_from_msupp(point_set([(2, 0), (0, 2)]))
    with pytest.raises(ValueError):
        hsupp_from_msupp(point_set([(1, 0), (0, 2)]))


def test_sign_alternation():
    H = hsupp_from_msupp(point_set(MSUPP_3))
    D = 8
    for n, c in H.terms.items():
        assert (c > 0) == ((D - sum(n)) % 2 == 0)


def test_hilbert_eval_at_zero_is_one():
    H = hsupp_from_msupp(point_set(MSUPP_3))
    assert hilbert_eval(H, (0, 0, 0)) == 1


def test_hilbert_eval_constant():
    H = IntPolynomial(3, {(0, 0, 0): 7})
    for t in itertools.product(range(-1, 3), repeat=3):
        assert hilbert_eval(H, t) == 7


def test_hilbert_text_mentions_binomials():
    H = IntPolynomial(2, {(1, 0): 1, (0, 0): -2})
    assert hilbert_text(H) == "-2*C(t1+0,0)*C(t2+0,0)+1*C(t1+1,1)*C(t2+0,0)"


def test_facet_formula():
    F = facet_of((1,), (2,))
    assert F == frozenset({(1, 1), (1, 2)})
    facets = facets_from_msupp(point_set(MSUPP_5), AMBIENT_M5)
    assert len(facets) == 7
    assert all(len(F) == 16 + 5 for F in facets)


def test_facet_intersection_is_min_facet():
    rng = random.Random(11)
    m = (4, 3, 5)
    for _ in range(100):
        s = tuple(rng.randint(0, mi) for mi in m)
        n = tuple(rng.randint(0, mi) for mi in m)
        lhs = facet_of(s, m) & facet_of(n, m)
        assert lhs == facet_of(tuple(map(min, s, n)), m)


def test_facets_require_bound():
    with pytest.raises(ValueError):
        facets_from_msupp(point_set([(3, 0)]), (2, 2))


def test_shelling_running_example():
    facets = facets_from_msupp(point_set(MSUPP_5), AMBIENT_M5)
    assert verify_shelling(facets)


def test_shelling_single_facet():
    assert verify_shelling([frozenset({(1, 0), (1, 1)})])


def test_shelling_negative_control():
    # order F_{(1,3)}, F_{(3,1)}, F_{(2,2)} on the ambient (3,3): the first
    # two facets overlap in codimension two with nothing to fill the gap
    msupp = point_set([(1, 3), (2, 2), (3, 1)])
    facets = facets_from_msupp(msupp, (3, 3))
    assert verify_shelling(facets)
    bad = [facets[0], facets[2], facets[1]]
    chk = verify_shelling(bad)
    assert not chk
    assert chk.witness == {"condition": "shelling", "i": 2, "j": 1}


def test_shelling_purity_error():
    with pytest.raises(ValueError):
        verify_shelling([frozenset({(1, 0)}), frozenset({(1, 0), (1, 1)})])


def test_increasing_paths():
    H = hsupp_from_msupp(point_set(MSUPP_3))
    assert increasing_path_check(H)
    gap = IntPolynomial(2, {(0, 0): 1, (2, 0): 1})
    chk = increasing_path_check(gap)
    assert not chk and chk.witness["stuck"] == [[0, 0]]
    assert increasing_path_check(IntPolynomial(2, {(1, 1): 1}))


def test_mobius_sum_check_values():
    H = hsupp_from_msupp(point_set(MSUPP_3))
    assert mobius_sum_check(H, (1, 2, 3)) == 1
    assert mobius_sum_check(H, (4, 1, 3)) == 1  # a top point itself
    assert mobius_sum_check(H, (0, 0, 0)) == 1  # the full coefficient sum
    with pytest.raises(ValueError):
        mobius_sum_check(H, (4, 4, 4))


def test_dominance_sums_match_pointwise_check():
    H = hsupp_from_msupp(point_set(MSUPP_3))
    sums = dominance_sums(H)
    tops = MSUPP_3
    for n, s in sums.items():
        if any(all(w[i] >= n[i] for i in range(3)) for w in tops):
            assert s == mobius_sum_check(H, n)
    assert verify_mobius_sums(H)
    with pytest.raises(ValueError):
        dominance_sums(IntPolynomial(3))


def literal_dominance_witness(H):
    """verify_mobius_sums's witness by the literal loop over the box from the
    origin to the support's maximum, in natural lex order; None on a pass."""
    tops = top(H.support())
    for n in itertools.product(*(range(max(col) + 1) for col in zip(*H.terms))):
        if any(dominates(w, n) for w in tops):
            s = sum(c for w, c in H.terms.items() if dominates(w, n))
            if s != 1:
                return {"condition": "dominance-sum", "n": list(n), "sum": s}
    return None


def test_dominance_sums_and_witnesses_match_the_literal_origin_box():
    rng = random.Random(19)
    supports = []
    # gaps between the values, lo != 0 and negative coefficients
    for _ in range(300):
        p = rng.randint(1, 3)
        lo = [rng.randint(0, 3) for _ in range(p)]
        scale = [rng.randint(1, 3) for _ in range(p)]
        pts = [tuple(a + k * rng.randint(0, 3) for a, k in zip(lo, scale)) for _ in range(rng.randint(1, 5))]
        supports.append(IntPolynomial(p, {q: rng.choice((-2, -1, 1, 1, 2)) for q in pts}))
    # Hilbert supports, which pass, and their translates by (1, 2, 3, ...)
    for msupp in ([(2, 0, 1), (1, 1, 1), (0, 2, 1), (1, 2, 0), (2, 1, 0)], MSUPP_3):
        H = hsupp_from_msupp(point_set(msupp))
        supports.append(H)
        supports.append(IntPolynomial(3, {tuple(c + k for k, c in enumerate(q, 1)): v for q, v in H.terms.items()}))
    failed = 0
    for H in supports:
        literal = {}  # class floor -> the literal sum at every n of its class
        cols = list(zip(*H.terms))
        for n in itertools.product(*(range(max(col) + 1) for col in cols)):
            floor = tuple(max([0] + [v + 1 for v in col if v < x]) for col, x in zip(cols, n))
            s = sum(c for w, c in H.terms.items() if dominates(w, n))
            assert literal.setdefault(floor, s) == s
        assert dominance_sums(H) == literal
        chk = verify_mobius_sums(H)
        assert chk.witness == literal_dominance_witness(H)
        failed += not chk
    assert 200 < failed < len(supports) - 3


def test_dominance_sums_run_on_the_value_grid_far_from_the_origin():
    # the box from the origin to (1001, 1001, 1001) holds more than GRID_CAP
    # cells; the values 1000 and 1001 on each axis give 8 classes
    P = point_set([(1000, 1000, 1001), (1000, 1001, 1000), (1001, 1000, 1000)])
    H = hsupp_from_msupp(P)
    assert len(H.terms) == 4
    assert verify_mobius_sums(H)
    sums = dominance_sums(H)
    assert len(sums) == 8
    assert sums[(0, 0, 0)] == sums[(1001, 0, 0)] == 1 and sums[(1001, 1001, 1001)] == 0


def test_collapse_and_embed():
    msupp5 = point_set(MSUPP_5)
    small, m_small, keep = collapse_fixed_components(msupp5, AMBIENT_M5)
    assert keep == (1, 2, 3)
    assert m_small == AMBIENT_M3
    assert small == point_set(MSUPP_3)
    H3 = hsupp_from_msupp(small)
    H5 = embed_signed_support(H3, keep, AMBIENT_M5)
    assert H5.terms == HILBERT_5


def test_stalactite_union_is_the_same_under_every_axis_order():
    from collections import Counter

    from kpoly.polymatroid import base_polymatroid, rank_functions

    # every rank function on p <= 3 with singleton ranks <= 3, and every
    # 20th on p = 4 with singleton ranks <= 2; bases of at least 3 points
    ranks = [f for p in (2, 3) for f in rank_functions(p, 3)]
    ranks += itertools.islice(rank_functions(4, 2), 0, None, 20)
    for P in map(base_polymatroid, ranks):
        if len(P) < 3:
            continue
        H = hsupp_from_msupp(P)
        D = sum(P.points[0])
        for order in itertools.permutations(range(1, P.ambient_p + 1)):
            counts = Counter()
            for _, st in stalactite_union(P, order):
                counts.update(st)
            signed = {n: (-1) ** (D - sum(n)) * c for n, c in counts.items()}
            assert IntPolynomial(P.ambient_p, signed) == H, (P, order)


def literal_stalactite_union(T, order):
    """(a, stalactite(a, neighbor_directions(a, predecessors))) for the points
    of T sorted by lex_compare along the 1-based order."""
    ranked = sorted(T, key=functools.cmp_to_key(lambda u, v: lex_compare(u, v, order)))
    return [
        (a, stalactite(a, neighbor_directions(a, PointSet(T.ambient_p, ranked[:k]))))
        for k, a in enumerate(ranked)
    ]


def test_stalactite_union_matches_the_literal_stalactites():
    # seeded random sets of every shape, not only base polymatroids, under
    # every axis order, plus the natural order by default
    rng = random.Random(1729)
    doubled = 0
    for _ in range(250):
        p = rng.randint(1, 4)
        cells = list(itertools.product(range(3), repeat=p))
        T = PointSet(p, rng.sample(cells, rng.randint(1, min(8, len(cells)))))
        assert stalactite_union(T) == literal_stalactite_union(T, range(1, p + 1))
        for order in itertools.permutations(range(1, p + 1)):
            entries = stalactite_union(T, order)
            assert entries == literal_stalactite_union(T, order), (list(T), order)
            doubled += sum(len(st) > 1 for _, st in entries)
    assert doubled > 1000
