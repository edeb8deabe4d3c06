import itertools
import random

import pytest

from kpoly.lattice import PointSet, point_set
from kpoly.mobius import (
    Matroid,
    coloops,
    contraction,
    downset,
    independent_sets,
    kpoly_from_mobius,
    matroid_from_json,
    matroid_to_json,
    matroids_on_ground,
    mobius_to_top,
    mu_support,
    mu_support_survey,
    random_base_polymatroid,
    reduced_euler_characteristic,
    verify_deg_equals_neg_mobius,
    verify_matroid_mu_theorem,
)
from kpoly.stalactite import hsupp_from_msupp
from running_example import AMBIENT_M3, KPOLY_3, MSUPP_3


def uniform_matroid(r, p):
    bases = [
        tuple(1 if i in S else 0 for i in range(p))
        for S in map(set, itertools.combinations(range(p), r))
    ]
    return Matroid(p, PointSet(p, bases))


def test_downset_box():
    assert downset(point_set([(1, 1)])) == point_set([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_downset_of_running_example_covers_hsupp():
    ds = downset(point_set(MSUPP_3))
    H = hsupp_from_msupp(point_set(MSUPP_3))
    assert all(q in ds for q in H.terms)
    assert len(ds) >= len(point_set(MSUPP_3))


def test_mobius_top_points_give_minus_one():
    MU = mobius_to_top(point_set(MSUPP_3))
    for n in MSUPP_3:
        assert MU.coeff(n) == -1


def test_mobius_running_example_value():
    MU = mobius_to_top(point_set(MSUPP_3))
    assert MU.coeff((1, 3, 3)) == 2  # deg = -mu with deg^(133) = -2


def test_mobius_methods_agree_running_example():
    P = point_set(MSUPP_3)
    assert mobius_to_top(P, "closed") == mobius_to_top(P, "recursive")


def test_mobius_methods_agree_on_all_matroids_up_to_5():
    for p in range(1, 6):
        for M in matroids_on_ground(p):
            closed = mobius_to_top(M.bases, "closed")
            rec = mobius_to_top(M.bases, "recursive")
            assert closed == rec, list(M.bases)


def test_mobius_methods_agree_on_random_polymatroids():
    rng = random.Random(4711)
    tested = 0
    while tested < 60:
        P = random_base_polymatroid(rng, rng.randint(2, 4), 3)
        if P is None:
            continue
        tested += 1
        assert mobius_to_top(P, "closed") == mobius_to_top(P, "recursive"), P


def test_mobius_requires_polymatroid():
    with pytest.raises(ValueError):
        mobius_to_top(point_set([(2, 0), (0, 2)]))


def test_deg_equals_neg_mobius():
    assert verify_deg_equals_neg_mobius(point_set(MSUPP_3))
    assert verify_deg_equals_neg_mobius(point_set([(2, 1, 0)]))


def test_deg_equals_neg_mobius_randomized():
    rng = random.Random(3)
    from kpoly.polymatroid import is_base_polymatroid

    cells = list(itertools.product(range(3), repeat=3))
    hits = 0
    for _ in range(250):
        P = PointSet(3, rng.sample(cells, rng.randint(1, 6)))
        if is_base_polymatroid(P):
            hits += 1
            assert verify_deg_equals_neg_mobius(P)
    assert hits > 20


def test_kpoly_from_mobius_running_example():
    K = kpoly_from_mobius(point_set(MSUPP_3), AMBIENT_M3)
    assert K.terms == KPOLY_3


def test_kpoly_from_mobius_ambient_space():
    K = kpoly_from_mobius(point_set([(2, 2)]), (2, 2))
    assert K.terms == {(0, 0): 1}


def test_mu_support_running_example():
    P = point_set(MSUPP_3)
    assert mu_support(P) == hsupp_from_msupp(P).support()


def test_sign_alternation_of_mu():
    P = point_set(MSUPP_3)
    MU = mobius_to_top(P)
    D = 8
    for u, c in MU.terms.items():
        assert (c > 0) == ((D - sum(u) + 1) % 2 == 0)


def test_coloops():
    assert coloops(uniform_matroid(2, 3)) == ()
    free = Matroid(3, point_set([(1, 1, 0)]))
    assert coloops(free) == (1, 2)
    direct_sum = Matroid(3, point_set([(1, 1, 0), (1, 0, 1)]))
    assert coloops(direct_sum) == (1,)


def test_contraction():
    M = uniform_matroid(2, 3)
    assert contraction(M, (0, 0, 0)).bases == M.bases
    C = contraction(M, (1, 0, 0))
    assert C.ground == 2 and C.bases == point_set([(1, 0), (0, 1)])
    full = contraction(M, (1, 1, 0))
    assert full.ground == 1 and full.bases == PointSet(1, [(0,)])
    with pytest.raises(ValueError):
        contraction(Matroid(2, point_set([(1, 0)])), (0, 1))


def test_contract_whole_basis_to_rank_zero():
    M = Matroid(2, point_set([(1, 1)]))
    Z = contraction(M, (1, 1))
    assert Z.ground == 0 and Z.rank == 0
    assert list(Z.bases) == [()]


def test_euler_characteristic():
    # independence complex of U_{2,3} is the boundary of a triangle
    assert reduced_euler_characteristic(uniform_matroid(2, 3)) == -1
    assert reduced_euler_characteristic(Matroid(1, PointSet(1, [(1,)]))) == 0
    assert reduced_euler_characteristic(Matroid(2, point_set([(1, 0), (0, 1)]))) == 1


def test_mu_support_uniform_and_coloop():
    u11 = Matroid(1, PointSet(1, [(1,)]))
    assert mu_support(u11.bases) == PointSet(1, [(1,)])
    u23 = uniform_matroid(2, 3)
    assert mu_support(u23.bases) == independent_sets(u23)


def test_matroid_validation():
    with pytest.raises(ValueError):
        Matroid(3, point_set([(1, 2, 0)]))
    with pytest.raises(ValueError):
        Matroid(4, point_set([(1, 1, 0, 0), (0, 0, 1, 1)]))  # exchange fails


def test_matroid_mu_theorem_uniform():
    for r in range(0, 4):
        for p in range(max(r, 1), 5):
            assert verify_matroid_mu_theorem(uniform_matroid(r, p) if r else Matroid(p, PointSet(p, [(0,) * p])))


def test_matroid_mu_theorem_exhaustive_small():
    # labeled matroid counts on 1..4 elements are 2, 5, 16, 68
    per_ground = {}
    for p in range(1, 5):
        for M in matroids_on_ground(p):
            per_ground[p] = per_ground.get(p, 0) + 1
            assert verify_matroid_mu_theorem(M), list(M.bases)
    assert per_ground == {1: 2, 2: 5, 3: 16, 4: 68}


def test_matroid_json_roundtrip():
    M = uniform_matroid(2, 4)
    assert matroid_from_json(matroid_to_json(M)).bases == M.bases


def test_survey_reports_and_never_raises():
    report = mu_support_survey(25, 4, 3, seed=11)
    assert report["tested"] == 25
    assert report["g_polymatroid"] + len(report["failures"]) == 25
