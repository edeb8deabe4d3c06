"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""

import itertools
import random
import time

from kpoly.lattice import PointSet, axis_values, class_floors, members, point_set, top
from kpoly.mobius import (
    kpoly_from_mobius,
    matroids_on_ground,
    mu_support,
    verify_matroid_mu_theorem,
)
from kpoly.monomial import _ie_coefficients_subsets, hilbert_poly_ie, msupp_to_ideal
from kpoly.polymatroid import (
    G_POLY_METHODS,
    _exchange_check,
    inequality_system,
    integer_points,
    is_cave,
    is_g_polymatroid,
)
from kpoly.schubert import (
    count_zero_one,
    grothendieck,
    grothendieck_via_stalactites,
    msupp_of_matrix_schubert,
    zero_one_permutations,
)
from kpoly.stalactite import (
    collapse_fixed_components,
    facets_from_msupp,
    hilbert_eval,
    hsupp_from_msupp,
    stalactite_union,
    verify_shelling,
)
from kpoly.subspaces import linear_polymatroid, random_config
from running_example import (
    AMBIENT_M3,
    AMBIENT_M5,
    HILBERT_5,
    INEQUALITIES,
    KPOLY_3,
    KPOLY_5,
    MSUPP_3,
    MSUPP_5,
    STALACTITES_312,
    STALACTITES_NATURAL,
    W,
)
from oracles import hilbert_function_bruteforce, increasing_path_check, inversions, truncate, verify_mobius_sums


def report(n, text):
    line = f"ACCEPTANCE {n:02d}: PASS - {text}"
    print("\n" + line)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)


def check_three_routes(p: int) -> int:
    """For every zero-one w in S_p: divided differences, stalactites and
    Mobius give the same K-polynomial; inclusion-exclusion over the Borel
    primes (hilbert_poly_ie) gives the stalactite route's Hilbert
    polynomial (hsupp_from_msupp); and that Hilbert support passes the
    dominance-sum check verify_mobius_sums.  Asserts with the failing w;
    returns how many permutations ran."""
    perms = zero_one_permutations(p)
    for w in perms:
        G = grothendieck(w)
        assert grothendieck_via_stalactites(w) == G, w
        msupp, m = msupp_of_matrix_schubert(w)
        assert kpoly_from_mobius(msupp, m) == G, w
        H = hsupp_from_msupp(msupp)
        assert hilbert_poly_ie(msupp_to_ideal(msupp, m)) == H, w
        assert verify_mobius_sums(H), w
    return len(perms)


def check_mty(p: int) -> tuple[int, dict]:
    """For every w in S_p: each coefficient of G_w has the sign
    (-1)^(|a| - l(w)) (Fomin-Kirillov 1994; Brion 2002), and supp(G_w)
    passes is_g_polymatroid by each of G_POLY_METHODS (the Monical-Tokcan-
    Yong conjecture).  Asserts with the failing w and method; returns how
    many permutations ran and the seconds each method took over all of
    them."""
    perms = list(itertools.permutations(range(1, p + 1)))
    supports = []
    for w in perms:
        G = grothendieck(w)
        length = inversions(w)
        assert all(c * (-1) ** (sum(a) - length) > 0 for a, c in G.terms.items()), w
        supports.append(G.support())
    seconds = {}
    for method in G_POLY_METHODS:
        t0 = time.perf_counter()
        for w, supp in zip(perms, supports):
            assert is_g_polymatroid(supp, method), (w, method)
        seconds[method] = time.perf_counter() - t0
    return len(perms), seconds


def check_caves(p: int) -> tuple[int, int]:
    """For every zero-one w in S_p, with H the Hilbert support of its matrix
    Schubert variety, constant coordinates dropped: H passes is_cave(H,
    "all") and is_g_polymatroid by axioms and by paramodular; H translated
    by (2, ..., 2) passes is_cave(..., "all"); and every distinct nonempty
    truncation of H passes paramodular and its top the exchange check, the
    premise on which is_cave takes those checks as implied by its verdict on
    H.  Asserts with the failing w (and truncation); returns how many
    permutations and how many distinct truncations ran."""
    perms = zero_one_permutations(p)
    truncations = 0
    for w in perms:
        msupp, m = msupp_of_matrix_schubert(w)
        small, _, _ = collapse_fixed_components(msupp, m)
        supp = hsupp_from_msupp(small).support()
        assert is_cave(supp, "all"), w
        assert is_g_polymatroid(supp, "axioms") and is_g_polymatroid(supp, "paramodular"), w
        assert is_cave(PointSet(supp.ambient_p, [[c + 2 for c in q] for q in supp]), "all"), w
        grid = itertools.product(*class_floors(axis_values(supp)))
        for A in {truncate(supp, b) for b in grid} - {PointSet(supp.ambient_p)}:
            truncations += 1
            assert is_g_polymatroid(A, "paramodular") and _exchange_check(top(A)), (w, list(A))
    return len(perms), truncations


def check_matroid_mu(p: int) -> int:
    """Every matroid on p elements passes verify_matroid_mu_theorem: mu(0, 1)
    equals the reduced Euler characteristic of the independence complex and
    vanishes exactly when a coloop exists, the mu-support is the coloops
    plus the independent sets of the contraction by them, and it passes
    paramodular.  Asserts with the failing bases; returns how many matroids
    ran."""
    n = 0
    for M in matroids_on_ground(p):
        assert verify_matroid_mu_theorem(M), list(M.bases)
        n += 1
    return n


def test_criterion_01_running_example_kpolynomial_three_routes():
    t0 = time.perf_counter()
    via_dd = grothendieck(W)
    via_st = grothendieck_via_stalactites(W)
    msupp, m = msupp_of_matrix_schubert(W)
    via_mu = kpoly_from_mobius(msupp, m)
    elapsed = time.perf_counter() - t0
    assert via_dd.terms == KPOLY_5
    assert via_st == via_dd
    assert via_mu == via_dd
    assert elapsed < 1.0
    report(1, f"14-term twisted K-polynomial, three routes agree ({elapsed:.3f}s)")


def test_criterion_02_running_example_hilbert_polynomial():
    t0 = time.perf_counter()
    H = hsupp_from_msupp(point_set(MSUPP_5))
    elapsed = time.perf_counter() - t0
    assert H.terms == HILBERT_5
    assert H.coeff((1, 3, 3, 4, 4)) == -2
    assert H.coeff((2, 2, 3, 4, 4)) == -2
    assert H.coeff((3, 1, 3, 4, 4)) == -2
    assert H.coeff((1, 2, 3, 4, 4)) == 1
    assert H.coeff((2, 1, 3, 4, 4)) == 1
    assert elapsed < 1.0
    report(2, f"all 14 Hilbert coefficients exact ({elapsed:.3f}s)")


def test_criterion_03_inequality_description():
    supp = point_set(list(KPOLY_3))
    sys_ = inequality_system(supp)
    assert len(sys_.subsets()) == 7
    for X in sys_.subsets():
        assert (sys_.lower[X], sys_.upper[X]) == INEQUALITIES[tuple(members(X))], X
    assert integer_points(sys_) == supp
    # the full 5-variable support passes the same fixed-point test
    supp5 = point_set(list(KPOLY_5))
    assert integer_points(inequality_system(supp5)) == supp5
    report(3, "seven double inequalities reproduced; integer points = support")


def test_criterion_04_zero_one_census():
    t0 = time.perf_counter()
    counts = [count_zero_one(p) for p in range(1, 8)]
    elapsed = time.perf_counter() - t0
    assert counts == [1, 2, 6, 24, 115, 605, 3343]
    assert elapsed < 120.0
    t0 = time.perf_counter()
    c8 = count_zero_one(8)
    assert c8 == 19038
    elapsed8 = time.perf_counter() - t0
    t0 = time.perf_counter()
    c9 = count_zero_one(9)
    assert c9 == 110809
    elapsed9 = time.perf_counter() - t0
    report(4, f"census 1..7 = {counts} ({elapsed:.1f}s); p=8 = {c8} ({elapsed8:.1f}s); p=9 = {c9} ({elapsed9:.1f}s)")


def test_criterion_05_stalactite_tables_two_orders():
    T = point_set(MSUPP_3)
    nat = {a: set(st) for a, st in stalactite_union(T, None)}
    assert nat == STALACTITES_NATURAL
    alt = {a: set(st) for a, st in stalactite_union(T, (3, 1, 2))}
    assert alt == STALACTITES_312
    union_nat = set().union(*nat.values())
    union_alt = set().union(*alt.values())
    assert union_nat == union_alt
    report(5, "per-point stalactites match for orders 1<2<3 and 3<1<2; unions equal")


def test_criterion_06_oracle_equivalence_s5():
    t0 = time.perf_counter()
    assert (check_three_routes(5), check_three_routes(6)) == (115, 605)
    # the lattice IE route runs the Mobius kernel; the literal subset sum
    # shares no code with divided differences
    for w in zero_one_permutations(5):
        msupp, m = msupp_of_matrix_schubert(w)
        assert _ie_coefficients_subsets(msupp_to_ideal(msupp, m).primes) == grothendieck(w).terms, w
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(6, f"all 115 zero-one S_5 and 605 zero-one S_6: stalactite, Mobius and IE oracles agree and the "
              f"dominance sums hold, S_5 also by the literal subset sum ({elapsed:.1f}s)")


def test_criterion_07_theorem_b_s5():
    for w in zero_one_permutations(5):
        supp = grothendieck(w).support()
        verdicts = {
            m: bool(is_g_polymatroid(supp, m))
            for m in ("axioms", "homogenization", "paramodular")
        }
        assert all(verdicts.values()), (w, verdicts)
        assert integer_points(inequality_system(supp)) == supp, w
    report(7, "supp(Grothendieck) is a g-polymatroid for all 115 zero-one S_5, 3 methods "
              "agree, and it equals the integer points of its support-bound system")


def test_criterion_08_theorem_c_battery():
    rng = random.Random(20240817)
    failures = 0
    for _ in range(200):
        p = rng.randint(2, 5)
        q = rng.randint(2, 5)
        config = random_config(p, q, rng)
        P = linear_polymatroid(config)
        supp = mu_support(P)
        verdict = bool(is_g_polymatroid(supp, "axioms"))
        if not verdict:
            failures += 1
        assert bool(is_g_polymatroid(supp, "paramodular")) == verdict, config
    assert failures == 0
    report(8, "mu-support of 200 seeded linear polymatroids: all g-polymatroids, "
              "axioms and paramodular agree")


def test_criterion_09_matroid_mobius_theorem():
    t0 = time.perf_counter()
    counts = [check_matroid_mu(p) for p in range(1, 6)]
    elapsed = time.perf_counter() - t0
    assert counts == [2, 5, 16, 68, 406]  # OEIS A058673
    assert elapsed < 120.0
    report(9, f"all {sum(counts)} matroids on <= 5 elements pass the mu theorem ({elapsed:.1f}s)")


def test_criterion_10_hilbert_function_equals_polynomial():
    # running example, collapsed coordinates: every v in [0,3]^3
    msupp3 = point_set(MSUPP_3)
    H3 = hsupp_from_msupp(msupp3)
    J3 = msupp_to_ideal(msupp3, AMBIENT_M3)
    IE3 = hilbert_poly_ie(J3)
    for v in itertools.product(range(4), repeat=3):
        assert hilbert_function_bruteforce(J3, v) == hilbert_eval(H3, v) == hilbert_eval(IE3, v)
    # running example, full 5-coordinate form on the small box
    msupp5 = point_set(MSUPP_5)
    H5 = hsupp_from_msupp(msupp5)
    J5 = msupp_to_ideal(msupp5, AMBIENT_M5)
    IE5 = hilbert_poly_ie(J5)
    for v in itertools.product(range(2), repeat=5):
        assert hilbert_function_bruteforce(J5, v) == hilbert_eval(H5, v) == hilbert_eval(IE5, v)
    # 50 seeded random zero-one S_4 instances, collapsed where constant
    rng = random.Random(41)
    s4 = zero_one_permutations(4)
    for _ in range(50):
        w = rng.choice(s4)
        msupp, m = msupp_of_matrix_schubert(w)
        small, m_small, _ = collapse_fixed_components(msupp, m)
        H = hsupp_from_msupp(small)
        J = msupp_to_ideal(small, m_small)
        IE = hilbert_poly_ie(J)
        for v in itertools.product(range(4), repeat=small.ambient_p):
            assert hilbert_function_bruteforce(J, v) == hilbert_eval(H, v) == hilbert_eval(IE, v), (w, v)
    report(10, "brute-force count = hilbert_eval of the stalactite and IE polynomials on [0,3]^p "
               "for running example and 50 S_4 draws")


def test_criterion_11_shelling_paths_sums_s5():
    t0 = time.perf_counter()
    for p, count in ((5, 115), (6, 605)):
        perms = zero_one_permutations(p)
        assert len(perms) == count
        for w in perms:
            msupp, m = msupp_of_matrix_schubert(w)
            facets = facets_from_msupp(msupp, m)
            assert verify_shelling(facets), w
            H = hsupp_from_msupp(msupp)
            assert increasing_path_check(H), w
            assert sum(H.terms.values()) == 1, w
    elapsed = time.perf_counter() - t0
    report(11, f"lex shelling, increasing paths, sum = 1 for all zero-one S_5 and S_6 (the dominance sums: "
               f"criterion 06) ({elapsed:.1f}s)")


def test_criterion_12_cave_implies_g_polymatroid():
    perms, truncations = check_caves(5)
    assert (perms, truncations) == (115, 691)
    # plus 100 seeded random small sets that happen to pass the cave test
    rng = random.Random(88)
    cells = list(itertools.product(range(4), repeat=3))
    passed = 0
    attempts = 0
    while passed < 100:
        attempts += 1
        assert attempts < 40_000, "random cave generation stalled"
        P = PointSet(3, rng.sample(cells, rng.randint(1, 6)))
        if is_cave(P, "all"):
            passed += 1
            assert is_g_polymatroid(P, "axioms"), list(P)
    report(12, f"caves are g-polymatroids: 115 S_5 Hilbert supports, also translated, with their {truncations} "
               f"distinct truncations, + {passed} random passers")


def test_criterion_13_mty_conjecture_beyond_zero_one_s6():
    # Monical-Tokcan-Yong beyond the zero-one w of criterion 07, and the
    # coefficient signs, a known value for the divided-difference route
    t0 = time.perf_counter()
    assert check_mty(6)[0] == 720
    elapsed = time.perf_counter() - t0
    report(13, f"supp(Grothendieck) is a g-polymatroid for all 720 w in S_6 by each of the three "
               f"methods, coefficient signs alternate with degree ({elapsed:.1f}s)")
