import random

import pytest

from kpoly.lattice import (
    DimensionError,
    EmptySetError,
    IntPolynomial,
    PointSet,
    SignedSupport,
    axis_transform,
    binomial_at,
    downset,
    homogenize,
    lex_compare,
    point_set,
    point_set_from_json,
    point_set_to_json,
    poly_from_json,
    poly_from_signed_support,
    poly_text,
    poly_to_json,
    signed_support_from_json,
    signed_support_from_poly,
    signed_support_to_json,
    support_bounds,
    top,
    truncate,
    vec_max,
)
from running_example import MSUPP_3


def test_lex_compare_first_difference_decides():
    assert lex_compare((1, 3, 4), (1, 4, 3)) == -1
    assert lex_compare((2, 2, 4), (2, 2, 4)) == 0
    assert lex_compare((1, 4, 3), (1, 3, 4)) == 1


def test_lex_compare_length_mismatch():
    with pytest.raises(DimensionError):
        lex_compare((1, 2), (1, 2, 3))


def test_lex_order_of_running_example_top():
    ordered = sorted(MSUPP_3)
    assert ordered == [
        (1, 3, 4), (1, 4, 3), (2, 2, 4), (2, 3, 3), (3, 1, 4), (3, 2, 3), (4, 1, 3),
    ]


def test_lex_compare_custom_axis_order():
    # ordering 3 < 1 < 2 compares the third coordinate first
    assert lex_compare((1, 4, 3), (1, 3, 4), axis_order=(3, 1, 2)) == -1
    with pytest.raises(ValueError):
        lex_compare((1, 2), (2, 1), axis_order=(1, 1))


def test_truncate_by_zero_is_identity():
    A = point_set(MSUPP_3)
    assert truncate(A, (0, 0, 0)) == A


def test_truncate_removes_low_first_coordinate():
    A = point_set(MSUPP_3)
    out = truncate(A, (2, 0, 0))
    assert all(q[0] >= 2 for q in out)
    assert (1, 3, 4) not in out
    assert (2, 2, 4) in out


def test_truncate_to_empty():
    assert len(truncate(point_set([(1, 3, 4)]), (2, 0, 0))) == 0


def test_truncate_composes_to_componentwise_max():
    rng = random.Random(2024)
    for _ in range(200):
        p = rng.randint(1, 4)
        A = PointSet(p, [tuple(rng.randint(0, 4) for _ in range(p)) for _ in range(rng.randint(0, 8))])
        b1 = tuple(rng.randint(0, 3) for _ in range(p))
        b2 = tuple(rng.randint(0, 3) for _ in range(p))
        assert truncate(truncate(A, b1), b2) == truncate(A, vec_max(b1, b2))


def test_homogenize_already_homogeneous():
    assert homogenize(point_set([(1, 0), (0, 1)])) == point_set([(1, 0, 0), (0, 1, 0)])


def test_homogenize_fills_slack():
    assert homogenize(point_set([(2, 0), (1, 0)])) == point_set([(2, 0, 0), (1, 0, 1)])


def test_homogenize_output_is_homogeneous():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.randint(1, 4)
        pts = [tuple(rng.randint(0, 5) for _ in range(p)) for _ in range(rng.randint(1, 8))]
        out = homogenize(PointSet(p, pts))
        assert len({sum(q) for q in out}) == 1
        assert len(out) == len(PointSet(p, pts))


def test_homogenize_empty_errors():
    with pytest.raises(EmptySetError):
        homogenize(PointSet(2))


def test_top_basics():
    assert top(point_set([(1, 1)])) == point_set([(1, 1)])
    A = point_set([(2, 0), (0, 2), (1, 0)])
    assert top(A) == point_set([(2, 0), (0, 2)])
    with pytest.raises(EmptySetError):
        top(PointSet(3))


def test_top_is_subset():
    rng = random.Random(99)
    for _ in range(100):
        p = rng.randint(1, 4)
        pts = [tuple(rng.randint(0, 5) for _ in range(p)) for _ in range(rng.randint(1, 8))]
        A = PointSet(p, pts)
        T = top(A)
        assert len(T) >= 1
        assert all(q in A for q in T)


def test_support_bounds_on_kpoly_support():
    supp = point_set(list({(3, 1, 0), (3, 0, 1), (2, 2, 0), (2, 1, 1), (1, 3, 0),
                           (1, 2, 1), (0, 3, 1), (3, 2, 0), (3, 1, 1), (2, 3, 0),
                           (2, 2, 1), (1, 3, 1), (3, 2, 1), (2, 3, 1)}))
    assert support_bounds(supp, (1, 2, 3)) == (4, 6)
    assert support_bounds(supp, (3,)) == (0, 1)


def test_support_bounds_singleton():
    assert support_bounds(point_set([(2, 3, 1)]), (1, 3)) == (3, 3)


def test_support_bounds_errors():
    with pytest.raises(EmptySetError):
        support_bounds(PointSet(2), (1,))
    with pytest.raises(ValueError):
        support_bounds(point_set([(1, 1)]), ())


def test_signed_support_roundtrip_poly():
    S = SignedSupport(3, {(3, 1, 0): 1, (0, 0, 0): -2})
    f = poly_from_signed_support(S)
    assert signed_support_from_poly(f) == S
    assert poly_text(f) == "-2+1*z1^3*z2"


def test_zero_roundtrip():
    S = SignedSupport(2)
    f = poly_from_signed_support(S)
    assert not f
    assert poly_text(f) == "0"
    assert signed_support_from_poly(f) == S


def test_signed_support_drops_zero_coefficients():
    S = SignedSupport(2, [((1, 1), 2), ((1, 1), -2), ((0, 1), 3)])
    assert len(S) == 1
    assert S.coeff((1, 1)) == 0
    assert S.coeff((0, 1)) == 3


def test_polynomial_ring_laws_randomized():
    rng = random.Random(1234)

    def rand_poly(nv):
        n_terms = rng.randint(0, 6)
        return IntPolynomial(
            nv,
            [
                (tuple(rng.randint(0, 3) for _ in range(nv)), rng.randint(-10**6, 10**6))
                for _ in range(n_terms)
            ],
        )

    for _ in range(60):
        nv = rng.randint(1, 6)
        f, g, h = rand_poly(nv), rand_poly(nv), rand_poly(nv)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f - f == IntPolynomial.zero(nv)
        assert 1 * f == f


def test_poly_text_canonical_forms():
    f = IntPolynomial(2, {(1, 0): 1})
    assert poly_text(f) == "+1*z1"
    g = IntPolynomial(2, {(0, 0): 1})
    assert poly_text(g) == "+1"
    h = IntPolynomial(3, {(3, 1, 0): 1, (0, 1, 0): -4})
    assert poly_text(h) == "-4*z2+1*z1^3*z2"


def test_binomial_at_matches_comb_and_extends():
    import math

    for t in range(0, 8):
        for n in range(0, 6):
            assert binomial_at(t, n) == math.comb(t + n, n)
    assert binomial_at(-1, 3) == 0
    assert binomial_at(-2, 1) == -1
    assert binomial_at(5, 0) == 1


def test_axis_transform_round_trip_on_downsets():
    rng = random.Random(2022)
    for _ in range(200):
        p = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(p)) for _ in range(rng.randint(1, 4))]
        f = {u: rng.randint(-3, 3) for u in downset(PointSet(p, gens))}
        zeta = axis_transform(f, 1)
        assert set(zeta) == set(f)
        for u, s in zeta.items():
            assert s == sum(c for w, c in f.items() if all(a >= b for a, b in zip(w, u)))
        assert axis_transform(zeta, -1) == f


def test_json_roundtrips():
    A = point_set(MSUPP_3)
    assert point_set_from_json(point_set_to_json(A)) == A
    S = SignedSupport(2, {(1, 0): -3, (0, 2): 5})
    assert signed_support_from_json(signed_support_to_json(S)) == S
    f = poly_from_signed_support(S)
    assert poly_from_json(poly_to_json(f)) == f


def test_point_validation():
    with pytest.raises(ValueError):
        PointSet(2, [(1, -1)])
    with pytest.raises(DimensionError):
        PointSet(2, [(1, 1, 1)])
    with pytest.raises(ValueError):
        PointSet(2, [(1.5, 0)])
