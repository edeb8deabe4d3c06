import inspect
import itertools
import json
import math
import random

import pytest

from kpoly import cli, mobius, stalactite
from kpoly.lattice import CapExceeded, Check, IntPolynomial, PointSet, point_set
from kpoly.mobius import (
    Matroid,
    _reduced_euler,
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
    verify_matroid_mu_theorem,
)
from kpoly.polymatroid import base_polymatroid, rank_functions
from kpoly.stalactite import hsupp_from_msupp
from kpoly.subspaces import linear_polymatroid, random_config
import oracles
from oracles import _ie_coefficients_subsets, _mobius_recursive
from running_example import AMBIENT_M3, KPOLY_3, MSUPP_3
from test_routes import _kpoly_functions, _reached


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
    assert mobius_to_top(P) == _mobius_recursive(P)


def test_mobius_methods_agree_on_all_matroids_up_to_5():
    for p in range(1, 6):
        for M in matroids_on_ground(p):
            closed = mobius_to_top(M.bases)
            rec = _mobius_recursive(M.bases)
            assert closed == rec, list(M.bases)


def test_mobius_methods_agree_on_enumerated_polymatroids():
    # every rank function on p <= 3 with singleton ranks <= 3, and every
    # 20th on p = 4 with singleton ranks <= 2
    ranks = [f for p in (2, 3) for f in rank_functions(p, 3)]
    ranks += itertools.islice(rank_functions(4, 2), 0, None, 20)
    for f in ranks:
        P = base_polymatroid(f)
        assert mobius_to_top(P) == _mobius_recursive(P), P


def test_mobius_methods_agree_on_zero_one_s4_supports():
    from kpoly.schubert import msupp_of_matrix_schubert, zero_one_permutations

    perms = zero_one_permutations(4)
    assert len(perms) == 24  # every permutation in S_4 is zero-one
    for w in perms:
        msupp, _ = msupp_of_matrix_schubert(w)
        assert mobius_to_top(msupp) == _mobius_recursive(msupp), w


def test_mobius_methods_agree_where_the_box_dwarfs_the_downset():
    # U_{1,n} has a 2^n-cell bounding box and an (n + 1)-cell downset; the
    # degree-k simplex a (k + 1)^p box and a C(k + p, p)-cell downset
    sparse = [uniform_matroid(1, n).bases for n in (6, 10, 14)]
    for k, p in ((4, 3), (7, 3), (3, 4)):
        pts = [u for u in itertools.product(range(k + 1), repeat=p) if sum(u) == k]
        sparse.append(PointSet(p, pts))
    for P in sparse:
        assert 3 * len(downset(P)) < math.prod(max(col) + 1 for col in zip(*P))
        assert mobius_to_top(P) == _mobius_recursive(P), P


def test_mobius_methods_agree_on_translated_polymatroids():
    # a translate of a base polymatroid is one; its points have a positive
    # minimum on the translated axes, where the closed form shifts its box
    rng = random.Random(16)
    translated = [PointSet(3, [tuple(a + b for a, b in zip(u, (1, 2, 0))) for u in MSUPP_3])]
    # U_{2,3} with two coloops appended: lo is 1 on the coloops only
    translated.append(PointSet(5, [b + (1, 1) for b in uniform_matroid(2, 3).bases]))
    for f in itertools.islice(rank_functions(3, 2), 0, None, 3):
        lo = [rng.choice((0, rng.randint(1, 3))) for _ in range(3)]
        translated.append(PointSet(3, [tuple(a + b for a, b in zip(u, lo)) for u in base_polymatroid(f)]))
    assert sum(any(map(min, zip(*P))) for P in translated) > len(translated) // 2
    for P in translated:
        assert mobius_to_top(P) == _mobius_recursive(P), P


def test_mobius_on_u_1_a_across_the_lane_widths():
    # U_{1,a} for a = 1..19: a grid of 2^a cells on 8-bit lanes up to a = 7,
    # 16-bit lanes up to a = 15 and 32-bit lanes above
    for a in range(1, 20):
        P = uniform_matroid(1, a).bases
        expected = {e: -1 for e in P}
        if a > 1:
            expected[(0,) * a] = a - 1
        assert mobius_to_top(P).terms == expected, a


def test_mobius_methods_agree_on_the_theorem_c_linear_polymatroids():
    # the 200 linear polymatroids of acceptance criterion 08, which the
    # theorem_c benchmark workload draws too
    rng = random.Random(20240817)
    largest = 0
    for _ in range(200):
        P = linear_polymatroid(random_config(rng.randint(2, 5), rng.randint(2, 5), rng))
        assert mobius_to_top(P) == _mobius_recursive(P), list(P)
        largest = max(largest, len(downset(P)))
    assert largest == 238


def test_literal_oracles_never_enter_the_grid_kernel(monkeypatch):
    from kpoly import lattice, monomial
    from kpoly.monomial import SquareFreeIdeal

    expected_mu = mobius_to_top(point_set(MSUPP_3))
    J = SquareFreeIdeal((4, 4), ((0, 3), (1, 2), (3, 0)))
    expected_ie = _ie_coefficients_subsets(J.primes)

    def refuse(*args):
        raise AssertionError("grid kernel called")

    # every module that binds the one grid kernel; a missing name raises
    for module in (lattice, mobius, monomial):
        monkeypatch.setattr(module, "downset_difference", refuse)
    with pytest.raises(AssertionError):
        mobius_to_top(point_set(MSUPP_3))
    with pytest.raises(AssertionError):
        monomial.hilbert_poly_ie(J)
    assert _mobius_recursive(point_set(MSUPP_3)) == expected_mu
    assert _ie_coefficients_subsets(J.primes) == expected_ie
    assert _reduced_euler(independent_sets(uniform_matroid(2, 4))) == -3


def test_base_polymatroid_checks_its_table_without_the_paramodular_pair():
    # the rank table goes to the local-submodularity scan as given: no slack
    # element table, so neither the pair check nor its witness translation
    tables = [*rank_functions(3, 2), [0, 1, 1, 3], [0, 2, 0, 1], [0, 1, 1, 1, 1, 2, 2, 3]]

    def route(f):
        try:
            base_polymatroid(f)
        except ValueError:
            pass

    reached = _reached(route, tables)
    assert "kpoly.polymatroid._submodular_violation" in reached
    assert not reached & {"kpoly.polymatroid._paramodular_check", "kpoly.polymatroid._paramodular_witness"}


def test_only_is_g_polymatroid_takes_a_method():
    # every other route has one production kernel; its literal oracle is a
    # function of its own, not a switch
    takers = [f"{f.__module__}.{f.__qualname__}" for f in _kpoly_functions().values()
              if "method" in inspect.signature(f).parameters]
    assert takers == ["kpoly.polymatroid.is_g_polymatroid"]


def test_recursive_oracle_refuses_a_downset_above_its_cap(monkeypatch):
    # the running example's downset has 89 elements; the closed route has no
    # such cap
    P = point_set(MSUPP_3)
    expected = mobius_to_top(P)
    monkeypatch.setattr(oracles, "RECURSIVE_CAP", 88)
    with pytest.raises(CapExceeded, match=r"^downset has 89 elements \(recursive cap 88\)$"):
        _mobius_recursive(P)
    assert mobius_to_top(P) == expected
    monkeypatch.setattr(oracles, "RECURSIVE_CAP", 89)
    assert _mobius_recursive(P) == expected


def test_mobius_requires_polymatroid():
    with pytest.raises(ValueError):
        mobius_to_top(point_set([(2, 0), (0, 2)]))


def deg_vs_mu(tmp_path, P: PointSet):
    """The witness of `kpoly mobius --check` on P, None when deg = -mu holds."""
    path = tmp_path / "msupp.json"
    path.write_text(json.dumps([list(q) for q in P]))
    args = cli.build_parser().parse_args(["mobius", str(path), "--check"])
    payload, _, chk = args.func(args)
    assert payload["deg_equals_neg_mu"] == bool(chk)
    return chk.witness


def test_deg_equals_neg_mobius(tmp_path):
    assert deg_vs_mu(tmp_path, point_set(MSUPP_3)) is None
    assert deg_vs_mu(tmp_path, point_set([(2, 1, 0)])) is None


def test_deg_vs_mobius_witness_is_the_first_differing_point(monkeypatch, tmp_path):
    # a coefficient changed at (2, 2, 3) and a point added at (5, 5, 5): the
    # witness is the lex-first of the two, inside the support or not
    def perturbed(msupp):
        H = hsupp_from_msupp(msupp)
        return IntPolynomial(H.num_vars, {**H.terms, (2, 2, 3): H.coeff((2, 2, 3)) + 7, (5, 5, 5): 1})

    monkeypatch.setattr(stalactite, "hsupp_from_msupp", perturbed)
    witness = deg_vs_mu(tmp_path, point_set(MSUPP_3))
    assert witness == {"condition": "route-mismatch", "exp": [2, 2, 3], "coeffs": {"deg": 5, "neg_mu": -2}}


def test_deg_equals_neg_mobius_randomized(tmp_path):
    rng = random.Random(3)
    from kpoly.polymatroid import is_base_polymatroid

    cells = list(itertools.product(range(3), repeat=3))
    hits = 0
    for _ in range(250):
        P = PointSet(3, rng.sample(cells, rng.randint(1, 6)))
        if is_base_polymatroid(P):
            hits += 1
            assert deg_vs_mu(tmp_path, P) is None
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
    assert Z.ground == 0 and sum(Z.bases.points[0]) == 0  # rank 0
    assert list(Z.bases) == [()]


def test_euler_characteristic():
    # independence complex of U_{2,3} is the boundary of a triangle
    for M, chi in ((uniform_matroid(2, 3), -1), (Matroid(1, PointSet(1, [(1,)])), 0),
                   (Matroid(2, point_set([(1, 0), (0, 1)])), 1)):
        assert _reduced_euler(independent_sets(M)) == chi


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


def test_matroid_mu_theorem_nests_the_g_polymatroid_witness(monkeypatch):
    # (d) never fails on a real matroid, so stand in a failing classifier
    inner = {"condition": "cross", "X": [1], "Y": [2]}
    monkeypatch.setattr(mobius, "is_g_polymatroid", lambda G, method: Check(False, dict(inner)))
    chk = verify_matroid_mu_theorem(uniform_matroid(2, 4))
    assert not chk
    assert chk.witness == {"condition": "mu-support-g-polymatroid", "cause": inner}


def test_matroid_json_roundtrip():
    M = uniform_matroid(2, 4)
    assert matroid_from_json(matroid_to_json(M)).bases == M.bases


def test_survey_reports_and_never_raises():
    # 23 loopless polymatroids on 2 elements and 457 on 3 with singleton
    # ranks <= 3
    report = mu_support_survey(3, 3)
    assert report["tested"] == 23 + 457
    assert report["g_polymatroid"] + len(report["failures"]) == 23 + 457


def test_survey_cap_is_checked_before_any_mu_support(monkeypatch):
    # p = 2, 3 with singleton ranks <= 3 visit 30 + 536 rank functions
    monkeypatch.setattr(mobius, "SURVEY_CAP", 565)
    monkeypatch.setattr(mobius, "mu_support", lambda P: pytest.fail("mu-support before the cap"))
    with pytest.raises(CapExceeded, match="more than 565 rank functions"):
        mu_support_survey(3, 3)


def test_survey_refuses_seven_elements_before_the_walk(monkeypatch):
    monkeypatch.setattr(mobius, "rank_functions", lambda p, K: pytest.fail("walk before the cap"))
    for max_p in (7, 8):
        with pytest.raises(CapExceeded, match=f"survey on {max_p} elements visits more than 50000"):
            mu_support_survey(max_p, 1)


def test_matroid_mu_theorem_builds_each_downset_once(monkeypatch):
    # with a coloop too: the description is read off the faces, so no
    # contraction and no second downset is built
    calls = []

    def counted(P):
        calls.append(P)
        return downset(P)

    monkeypatch.setattr(mobius, "downset", counted)
    for M in (uniform_matroid(2, 3), Matroid(3, point_set([(1, 1, 0), (1, 0, 1)]))):
        calls.clear()
        assert verify_matroid_mu_theorem(M)
        assert len(calls) == 1
