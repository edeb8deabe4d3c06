import itertools
import math
import random

import pytest

from operator import sub

from kpoly import monomial
from kpoly.lattice import CapExceeded, IntPolynomial, Point, point_set
from kpoly.monomial import (
    _ie_coefficients_lattice,
    SquareFreeIdeal,
    hilbert_poly_ie,
    msupp_to_ideal,
)
from kpoly.stalactite import hilbert_eval, hsupp_from_msupp
import oracles
from oracles import _ie_coefficients_subsets, count_monomials, hilbert_function_bruteforce
from running_example import AMBIENT_M3, HILBERT_3, KPOLY_3, MSUPP_3
from test_lattice import literal_downset_difference

# the K-polynomial of the lattice route, and an oracle the library does not
# run: the per-facet shellable refinement


def k_poly_ie(J: SquareFreeIdeal) -> IntPolynomial:
    """Inclusion-exclusion twisted K-polynomial: the prime p_a contributes z^a."""
    return IntPolynomial._raw(J.ambient_p, _ie_coefficients_lattice(J.primes))


def hilbert_poly_shellable(J: SquareFreeIdeal) -> IntPolynomial:
    """Per-facet refinement of the IE formula for a shelling order.

    Assumes the primes of J are listed in a shelling order of the associated
    facets (msupp_to_ideal produces one).  Each facet contributes its own
    term minus an inclusion-exclusion over the codimension-(c+1) pairwise
    sums with its predecessors; each such sum dominates the facet's prime
    and exceeds its codimension c by one, so it is that prime plus a single
    variable.
    """
    codims = {sum(a) for a in J.primes}
    if len(codims) > 1:
        raise ValueError("shellable refinement needs primes of equal codimension")
    c = codims.pop()
    acc: dict[Point, int] = {}

    def add(n: Point, delta: int):
        v = acc.get(n, 0) + delta
        if v:
            acc[n] = v
        else:
            acc.pop(n, None)

    for j, aj in enumerate(J.primes):
        add(tuple(map(sub, J.m, aj)), 1)
        block: list[Point] = []
        seen = set()
        for l in range(j):
            q = tuple(map(max, J.primes[l], aj))
            if sum(q) == c + 1 and q not in seen:
                seen.add(q)
                block.append(q)
        # block holds at most p primes, far below SUBSET_CAP
        for v, coeff in _ie_coefficients_subsets(block).items():
            add(tuple(map(sub, J.m, v)), -coeff)
    return IntPolynomial._raw(J.ambient_p, acc)


def running_ideal() -> SquareFreeIdeal:
    return msupp_to_ideal(point_set(MSUPP_3), AMBIENT_M3)


def hilbert_poly_subsets(J: SquareFreeIdeal) -> IntPolynomial:
    # the Hilbert polynomial from the literal subset sum, as hilbert_poly_ie
    # builds it from the lattice route
    coeffs = _ie_coefficients_subsets(J.primes)
    return IntPolynomial(J.ambient_p, {tuple(a - b for a, b in zip(J.m, v)): c for v, c in coeffs.items()})


def test_hilbert_poly_prime():
    # the ideal of one prime p_a has the single binomial-product term at m - a
    term = hilbert_poly_ie(SquareFreeIdeal((4, 4, 4), ((3, 1, 0),)))
    assert term.terms == {(1, 3, 4): 1}
    zero = hilbert_poly_ie(SquareFreeIdeal((3, 3), ((0, 0),)))
    assert zero.terms == {(3, 3): 1}
    # p = 1 line in the plane: C(t+1, 1)
    line = hilbert_poly_ie(SquareFreeIdeal((2,), ((1,),)))
    assert line.terms == {(1,): 1}


def test_msupp_to_ideal_running_example():
    J = running_ideal()
    assert len(J.primes) == 7
    assert J.primes[0] == (3, 1, 0)  # from (1,3,4), the lex-first point
    assert (0, 3, 1) in J.primes  # from (4,1,3)


def test_msupp_to_ideal_validations():
    with pytest.raises(ValueError):
        msupp_to_ideal(point_set([(1, 0), (2, 0)]), (2, 2))  # not homogeneous
    with pytest.raises(ValueError):
        msupp_to_ideal(point_set([(3, 0)]), (2, 2))  # exceeds ambient
    J = msupp_to_ideal(point_set([(2, 2)]), (2, 2))
    assert J.primes == ((0, 0),)  # the zero ideal


def test_ideal_invariants():
    with pytest.raises(ValueError):
        SquareFreeIdeal((3, 3), ())
    with pytest.raises(ValueError):
        SquareFreeIdeal((3, 3), ((1, 0), (2, 0)))  # comparable primes
    # comparable primes of different sums and duplicates, in the caller's order
    with pytest.raises(ValueError, match=r"primes \(0, 3\) and \(0, 2\) are comparable"):
        SquareFreeIdeal((3, 3), ((0, 3), (1, 1), (0, 2)))
    with pytest.raises(ValueError, match=r"primes \(1, 1\) and \(1, 1\) are comparable"):
        SquareFreeIdeal((3, 3), ((1, 1), (0, 2), (1, 1)))


def test_ideal_refuses_exactly_the_comparable_prime_lists():
    rng = random.Random(77)
    refused = 0
    for _ in range(400):
        p = rng.randint(1, 3)
        primes = [tuple(rng.randint(0, 3) for _ in range(p)) for _ in range(rng.randint(1, 6))]
        pairs = [(a, b) for a, b in itertools.combinations(primes, 2)
                 if all(x <= y for x, y in zip(a, b)) or all(x >= y for x, y in zip(a, b))]
        if not pairs:
            assert SquareFreeIdeal((3,) * p, tuple(primes)).primes == tuple(primes)
            continue
        refused += 1
        with pytest.raises(ValueError) as err:
            SquareFreeIdeal((3,) * p, tuple(primes))
        assert str(err.value) in {f"primes {a} and {b} are comparable" for a, b in pairs}
    assert 50 < refused < 350


def test_large_homogeneous_ideal_builds_before_the_ie_cap_refuses_it():
    # the degree-15 simplex in 5 variables: 3876 pairwise incomparable primes
    # of one coordinate sum, whose value grid of 16^5 cells exceeds GRID_CAP
    simplex = tuple(a + (15 - sum(a),) for a in itertools.product(range(16), repeat=4) if sum(a) <= 15)
    J = SquareFreeIdeal((15,) * 5, simplex)
    assert len(J.primes) == 3876
    with pytest.raises(CapExceeded, match="1048576 cells"):
        hilbert_poly_ie(J)


def test_hilbert_poly_ie_matches_running_example():
    J = running_ideal()
    H = hilbert_poly_subsets(J)
    assert H.terms == HILBERT_3
    assert hilbert_poly_ie(J) == H


def test_hilbert_poly_ie_single_prime():
    J = SquareFreeIdeal((3, 3), ((2, 1),))
    assert hilbert_poly_ie(J) == IntPolynomial(2, {(1, 2): 1})


def test_hilbert_poly_ie_two_disjoint_primes():
    # IE with k = 2 gives P_1 + P_2 - P_sum
    m = (2, 2)
    J = SquareFreeIdeal(m, ((1, 0), (0, 1)))
    expected = IntPolynomial(2, {(1, 2): 1, (2, 1): 1, (1, 1): -1})
    assert hilbert_poly_ie(J) == expected


def test_ie_methods_agree_randomized():
    rng = random.Random(64)
    for _ in range(120):
        p = rng.randint(1, 3)
        m = tuple(rng.randint(1, 3) for _ in range(p))
        cells = [
            a
            for a in itertools.product(*(range(mi + 1) for mi in m))
            if any(a)
        ]
        rng.shuffle(cells)
        primes = []
        for a in cells:
            if all(
                not all(x <= y for x, y in zip(a, b))
                and not all(y <= x for x, y in zip(a, b))
                for b in primes
            ):
                primes.append(a)
            if len(primes) == rng.randint(1, 5):
                break
        if not primes:
            continue
        J = SquareFreeIdeal(m, tuple(primes))
        assert hilbert_poly_subsets(J) == hilbert_poly_ie(J)
        assert _ie_coefficients_subsets(J.primes) == k_poly_ie(J).terms
    # the ideals of the 115 zero-one permutations in S_5, up to 14 primes
    from kpoly.schubert import msupp_of_matrix_schubert, zero_one_permutations

    for w in zero_one_permutations(5):
        J = msupp_to_ideal(*msupp_of_matrix_schubert(w))
        assert _ie_coefficients_subsets(J.primes) == k_poly_ie(J).terms, w


def test_lattice_route_on_large_antichains():
    # 25 primes exceed the subset oracle's default cap of 20; the antichain's
    # coefficients are +1 at each prime and -1 at each join of neighbours
    J = SquareFreeIdeal((24, 24), tuple((i, 24 - i) for i in range(25)))
    expected = {(i, 24 - i): 1 for i in range(25)}
    expected.update({(i + 1, 24 - i): -1 for i in range(24)})
    assert k_poly_ie(J).terms == expected
    # the 231-prime plane's value grid holds 21^3 cells; the grid kernel must
    # match the dict oracle differencing the literal downset of the ranked primes
    plane = tuple((a, b, 20 - a - b) for a in range(21) for b in range(21 - a))
    ranked = [tuple(20 - x for x in a) for a in plane]
    expected = {tuple(20 - r for r in u): c for u, c in literal_downset_difference(ranked).items()}
    assert k_poly_ie(SquareFreeIdeal((20, 20, 20), plane)).terms == expected
    # 101 primes with 101 distinct values on each axis: the value grid of
    # 101^3 cells exceeds GRID_CAP, and the cap fires before allocating
    line = tuple((i, 100 - i, i) for i in range(101))
    with pytest.raises(CapExceeded, match="1030301 cells"):
        k_poly_ie(SquareFreeIdeal((100, 100, 100), line))


def test_subset_cap_enforced(monkeypatch):
    J = running_ideal()
    monkeypatch.setattr(monomial, "SUBSET_CAP", 5)
    with pytest.raises(CapExceeded):
        hilbert_poly_subsets(J)
    monkeypatch.setattr(monomial, "SUBSET_CAP", 7)
    assert hilbert_poly_subsets(J).terms == HILBERT_3


def test_k_poly_ie_running_example():
    K = k_poly_ie(running_ideal())
    assert K.terms == KPOLY_3


def test_k_poly_single_prime():
    J = SquareFreeIdeal((3, 3), ((2, 1),))
    assert k_poly_ie(J) == IntPolynomial(2, {(2, 1): 1})


def test_k_poly_reflects_hilbert_poly():
    # exponent e of the K-polynomial matches the Hilbert term at m - e
    J = running_ideal()
    H = hilbert_poly_ie(J)
    K = k_poly_ie(J)
    assert {tuple(4 - x for x in e): c for e, c in K.terms.items()} == H.terms


def test_shellable_refinement_equals_ie():
    J = running_ideal()
    assert hilbert_poly_shellable(J) == hilbert_poly_ie(J)


def test_shellable_refinement_randomized_polymatroid_inputs():
    rng = random.Random(4242)
    from kpoly.polymatroid import is_base_polymatroid
    from kpoly.lattice import PointSet

    cells = list(itertools.product(range(3), repeat=3))
    tried = 0
    for _ in range(400):
        pts = rng.sample(cells, rng.randint(1, 6))
        P = PointSet(3, pts)
        if not is_base_polymatroid(P):
            continue
        m = (3, 3, 3)
        J = msupp_to_ideal(P, m)
        tried += 1
        assert hilbert_poly_shellable(J) == hilbert_poly_ie(J)
    assert tried > 20


def test_ie_matches_stalactites_on_all_s4():
    from kpoly.schubert import msupp_of_matrix_schubert, zero_one_permutations

    for w in zero_one_permutations(4):
        msupp, m = msupp_of_matrix_schubert(w)
        J = msupp_to_ideal(msupp, m)
        H = hsupp_from_msupp(msupp)
        assert hilbert_poly_ie(J) == H, w
        K = k_poly_ie(J)
        reflected = {
            tuple(mi - ei for mi, ei in zip(m, e)): c for e, c in K.terms.items()
        }
        assert reflected == H.terms, w


def test_hilbert_function_bruteforce_basics():
    J = running_ideal()
    assert hilbert_function_bruteforce(J, (0, 0, 0)) == 1
    # single prime: a polynomial subring count
    one = SquareFreeIdeal((3, 3), ((2, 1),))
    for v in itertools.product(range(4), repeat=2):
        expect = math.comb(v[0] + 1, 1) * math.comb(v[1] + 2, 2)
        assert hilbert_function_bruteforce(one, v) == expect


def test_hilbert_function_equals_polynomial_running_example():
    J = running_ideal()
    H = hsupp_from_msupp(point_set(MSUPP_3))
    IE = hilbert_poly_ie(J)
    for v in itertools.product(range(3), repeat=3):
        assert hilbert_function_bruteforce(J, v) == hilbert_eval(H, v) == hilbert_eval(IE, v)


def test_bruteforce_cap(monkeypatch):
    J = running_ideal()
    assert count_monomials((3, 3, 3), (4, 4, 4)) == 35**3
    monkeypatch.setattr(oracles, "BRUTEFORCE_CAP", 100)
    with pytest.raises(CapExceeded):
        hilbert_function_bruteforce(J, (3, 3, 3))


def test_coefficient_sum_is_one_for_polymatroid_ideals():
    rng = random.Random(9)
    from kpoly.polymatroid import is_base_polymatroid
    from kpoly.lattice import PointSet

    cells = list(itertools.product(range(3), repeat=3))
    hits = 0
    for _ in range(300):
        P = PointSet(3, rng.sample(cells, rng.randint(1, 6)))
        if not is_base_polymatroid(P):
            continue
        hits += 1
        J = msupp_to_ideal(P, (3, 3, 3))
        H = hilbert_poly_ie(J)
        assert sum(H.terms.values()) == 1
        D = sum(P.points[0])
        for n, c in H.terms.items():
            assert (c > 0) == ((D - sum(n)) % 2 == 0)
    assert hits > 20


def test_shellable_refinement_matches_ie_on_enumerated_polymatroids():
    from kpoly.polymatroid import base_polymatroid, rank_functions

    # every rank function on p <= 3 with singleton ranks <= 3, and every
    # 20th on p = 4 with singleton ranks <= 2; bases of at least 3 points
    ranks = [f for p in (2, 3) for f in rank_functions(p, 3)]
    ranks += itertools.islice(rank_functions(4, 2), 0, None, 20)
    for P in map(base_polymatroid, ranks):
        if len(P) < 3:
            continue
        J = msupp_to_ideal(P, tuple(max(col) for col in zip(*P)))
        assert hilbert_poly_shellable(J) == hilbert_poly_ie(J), P
