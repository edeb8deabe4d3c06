import copy
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from kpoly import lattice
from kpoly.lattice import (
    CapExceeded,
    DimensionError,
    EmptySetError,
    IntPolynomial,
    PointSet,
    Record,
    Point,
    axis_values,
    binomial_at,
    check_axis_order,
    class_floors,
    downset,
    downset_difference,
    dominates,
    grid_strides,
    homogenize,
    point_set,
    point_set_from_json,
    point_set_to_json,
    poly_text,
    poly_to_json,
    top,
    truncation_masks,
)
from kpoly.mobius import Matroid
from kpoly.monomial import SquareFreeIdeal
from kpoly.polymatroid import GPolyInequalitySystem
from kpoly.subspaces import SubspaceConfig
from oracles import check_index_subset, truncate
from running_example import MSUPP_3


# literal lattice operations that only the tests' oracles use


def lex_compare(u: Point, v: Point, axis_order=None) -> int:
    """-1, 0 or +1: lexicographic comparison along axis_order (1-based; None
    is the natural order); first strict difference decides."""
    if len(u) != len(v):
        raise DimensionError(f"cannot compare {u} and {v}")
    if axis_order is not None:
        order = check_axis_order(axis_order, len(u))
        u, v = (tuple(w[i - 1] for i in order) for w in (u, v))
    return (u > v) - (u < v)


def support_bounds(A: PointSet, J) -> tuple[int, int]:
    """(min, max) of sum_{j in J} a_j over a in A, indices 1-based."""
    if not A:
        raise EmptySetError("support_bounds of an empty set")
    idx = [j - 1 for j in check_index_subset(J, A.ambient_p)]
    sums = [sum(q[i] for i in idx) for q in A]
    return min(sums), max(sums)


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
        assert truncate(truncate(A, b1), b2) == truncate(A, tuple(map(max, b1, b2)))


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


def poly_from_json(num_vars, data) -> IntPolynomial:
    return IntPolynomial(num_vars, [(t["exp"], t["coeff"]) for t in data])


def test_signed_support_roundtrip_poly():
    S = IntPolynomial(3, {(3, 1, 0): 1, (0, 0, 0): -2})
    assert poly_to_json(S) == [{"exp": [0, 0, 0], "coeff": -2}, {"exp": [3, 1, 0], "coeff": 1}]
    assert poly_from_json(3, poly_to_json(S)) == S
    assert poly_text(S) == "-2+1*z1^3*z2"


def test_zero_roundtrip():
    S = IntPolynomial(2)
    assert not S
    assert poly_text(S) == "0"
    assert poly_to_json(S) == []
    assert poly_from_json(2, []) == S


def test_signed_support_drops_zero_coefficients():
    S = IntPolynomial(2, [((1, 1), 2), ((1, 1), -2), ((0, 1), 3)])
    assert len(S.terms) == 1
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


def literal_downset_difference(points):
    """The indicator of the literal downset differenced by a dict loop: for
    each axis i in turn g(u) -= g(u + e_i) over the downset, visited in
    increasing lex order, so each u reads g(u + e_i) before it changes."""
    pts = list(points)
    g = dict.fromkeys(downset(PointSet(len(pts[0]), pts)).points, 1)
    order = sorted(g)
    for i in range(len(pts[0])):
        for u in order:
            g[u] -= g.get(u[:i] + (u[i] + 1,) + u[i + 1:], 0)
    return {u: c for u, c in g.items() if c}


def test_downset_difference_matches_the_literal_downset():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(p)) for _ in range(rng.randint(1, 4))]
        assert downset_difference(gens) == literal_downset_difference(gens)
    # the same kind of sets translated by a random lo, zero on some axes and
    # positive on others
    shifted = 0
    for _ in range(200):
        p = rng.randint(1, 4)
        lo = [rng.choice((0, rng.randint(1, 4))) for _ in range(p)]
        gens = [tuple(a + rng.randint(0, 3) for a in lo) for _ in range(rng.randint(1, 4))]
        shifted += any(map(min, zip(*gens)))
        assert downset_difference(gens) == literal_downset_difference(gens)
    assert shifted > 100
    # scaled per axis and translated: gaps between the values and lo != 0
    gapped = 0
    for _ in range(150):
        p = rng.randint(1, 4)
        scale = [rng.randint(1, 3) for _ in range(p)]
        lo = [rng.randint(0, 3) for _ in range(p)]
        gens = [tuple(a + k * rng.randint(0, 2) for a, k in zip(lo, scale)) for _ in range(rng.randint(1, 4))]
        gapped += any(vs[-1] - vs[0] >= len(vs) for vs in axis_values(gens)) and any(map(min, zip(*gens)))
        assert downset_difference(gens) == literal_downset_difference(gens)
    assert gapped > 50
    # sparse generators in a large box: U_{1,12}, the degree-6 simplex in 3
    # variables and both lifted by (2, 1, 0, ...) decode their few cells correctly
    unit = [tuple(int(i == j) for j in range(12)) for i in range(12)]
    simplex = [(a, b, 6 - a - b) for a in range(7) for b in range(7 - a)]
    for gens in (unit, simplex):
        assert downset_difference(gens) == literal_downset_difference(gens)
        lifted = [(u[0] + 2, u[1] + 1) + u[2:] for u in gens]
        assert downset_difference(lifted) == literal_downset_difference(lifted)


def test_downset_difference_on_the_skeleta_of_cubes_with_8_and_16_bit_lanes():
    # the 0/1 points with k ones in a = 6..11 axes: a <= 7 runs on 8-bit lanes,
    # a >= 8 on 16-bit lanes, and the value (-1)^k C(a - 1, k) at the origin
    # reaches 252 > 127 at a = 11, k = 5
    for a in range(6, 12):
        for k in range(a + 1):
            gens = [tuple(int(i in ones) for i in range(a)) for ones in itertools.combinations(range(a), k)]
            assert downset_difference(gens) == literal_downset_difference(gens), (a, k)


def test_downset_difference_refuses_u_1_20_before_allocating():
    # 2^20 cells of 32-bit lanes would take 4 MB
    gens = [tuple(int(i == j) for j in range(20)) for i in range(20)]
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="box grid has 1048576 cells"):
            downset_difference(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_downset_difference_grid_has_one_cell_per_tuple_of_axis_values(monkeypatch):
    gens = [(0, 7, 3), (5, 2, 3), (9, 2, 3)]
    assert axis_values(gens) == [[0, 5, 9], [2, 7], [3]]
    dims = []

    def recorded(d):
        dims.append(list(d))
        return grid_strides(d)

    monkeypatch.setattr(lattice, "grid_strides", recorded)
    assert downset_difference(gens) == literal_downset_difference(gens)
    assert dims == [[3, 2, 1]]


def test_truncation_masks_match_the_definition_on_every_value_class():
    from kpoly.schubert import msupp_of_matrix_schubert, zero_one_permutations
    from kpoly.stalactite import collapse_fixed_components, hsupp_from_msupp

    assert class_floors([[0, 5, 9], [2, 7], [3]]) == [[0, 1, 6], [0, 3], [0]]
    rng = random.Random(19)
    sets = []
    for _ in range(200):
        p = rng.randint(1, 3)
        lo = [rng.randint(0, 3) for _ in range(p)]
        scale = [rng.randint(1, 3) for _ in range(p)]
        sets.append(list({tuple(a + k * rng.randint(0, 3) for a, k in zip(lo, scale)) for _ in range(rng.randint(1, 5))}))
    # the 720 inputs of the cave battery: the zero-one Hilbert supports of S_5
    # and S_6, constant coordinates dropped
    for w in zero_one_permutations(5) + zero_one_permutations(6):
        small, _, _ = collapse_fixed_components(*msupp_of_matrix_schubert(w))
        sets.append(list(hsupp_from_msupp(small).terms))
    assert len(sets) == 920
    for pts in sets:
        values = axis_values(pts)
        masks = truncation_masks(pts)
        assert len(masks) == math.prod(map(len, values))
        for b, u, mask in zip(itertools.product(*class_floors(values)), itertools.product(*values), masks):
            # from its floor b up to its values u, a class lies below the same points
            assert mask == sum(1 << k for k, q in enumerate(pts) if dominates(q, b))
            assert mask == sum(1 << k for k, q in enumerate(pts) if dominates(q, u))


def test_every_zeta_runs_on_the_value_grid(monkeypatch):
    from kpoly.polymatroid import is_cave
    from oracles import dominance_sums, verify_mobius_sums

    # the box from the origin holds 1002^3 cells; the value grid holds 8
    far = [(1000, 1000, 1001), (1000, 1001, 1000), (1001, 1000, 1000)]
    dims = []

    def recorded(d):
        dims.append(list(d))
        return grid_strides(d)

    monkeypatch.setattr(lattice, "grid_strides", recorded)
    downset_difference(far)
    dominance_sums(IntPolynomial(3, dict.fromkeys(far, 1)))
    verify_mobius_sums(IntPolynomial(3, dict.fromkeys(far, 1)))  # the sums and the tops' hits, one grid
    is_cave(PointSet(3, far))
    assert dims == [[2, 2, 2]] * 4


def test_dominance_sum_grid_cap_fires_before_allocating():
    from oracles import dominance_sums

    # 101 values on each axis: 101^3 cells of the value grid exceed GRID_CAP,
    # and masks of 101 bits would take over 30 MB
    line = IntPolynomial(3, dict.fromkeys(((i, 100 - i, i) for i in range(101)), 1))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="box grid has 1030301 cells"):
            dominance_sums(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_json_roundtrips():
    A = point_set(MSUPP_3)
    assert point_set_from_json(point_set_to_json(A)) == A


def test_point_validation():
    with pytest.raises(ValueError):
        PointSet(2, [(1, -1)])
    with pytest.raises(DimensionError):
        PointSet(2, [(1, 1, 1)])
    with pytest.raises(ValueError):
        PointSet(2, [(1.5, 0)])


@pytest.mark.parametrize("bad", [(True, 0), (1, -1), (1.5, 0), ("1", 0), (1, 1, 1), (1,)])
def test_public_constructors_and_json_loader_check_every_point(bad):
    with pytest.raises(ValueError):
        PointSet(2, [(0, 0), bad])
    with pytest.raises(ValueError):
        point_set([(0, 0), bad])
    with pytest.raises(ValueError):
        point_set_from_json([[0, 0], list(bad)])
    with pytest.raises(ValueError):
        point_set_from_json([list(bad)], 2)


def assert_checked(X, p, points):
    """X equals the same points passed through the checked constructor, down
    to its membership set."""
    Y = PointSet(p, points)
    assert X == Y and X._set == Y._set and hash(X) == hash(Y)


def test_derived_sets_equal_their_checked_construction():
    # truncate, top, homogenize, downset and support build their results with
    # the trusted constructor; each must be what the checked one builds
    rng = random.Random(4096)
    for _ in range(300):
        p = rng.randint(1, 4)
        pts = [tuple(rng.randint(0, 3) for _ in range(p)) for _ in range(rng.randint(1, 8))]
        A = PointSet(p, pts)
        b = tuple(rng.randint(0, 2) for _ in range(p))
        assert_checked(truncate(A, b), p, [q for q in pts if dominates(q, b)])
        mx = max(map(sum, pts))
        assert_checked(top(A), p, [q for q in pts if sum(q) == mx])
        assert_checked(homogenize(A), p + 1, [q + (mx - sum(q),) for q in pts])
        assert_checked(downset(A), p, [u for u in itertools.product(range(4), repeat=p)
                                       if any(dominates(q, u) for q in pts)])
        f = IntPolynomial(p, [(q, rng.choice((-2, -1, 1, 2))) for q in pts])
        assert_checked(f.support(), p, list(f.terms))


# each record class by keyword arguments, and the repr the frozen dataclass it
# replaces printed for it
RECORDS = [
    (SquareFreeIdeal, {"m": (3, 3), "primes": [(1, 0), [0, 1]]},
     "SquareFreeIdeal(m=(3, 3), primes=((1, 0), (0, 1)))"),
    (GPolyInequalitySystem, {"ambient_p": 2, "lower": [0, 1, 2, 3], "upper": range(4)},
     "GPolyInequalitySystem(ambient_p=2, lower=(0, 1, 2, 3), upper=(0, 1, 2, 3))"),
    (Matroid, {"ground": 2, "bases": PointSet(2, [(1, 0), (0, 1)])},
     "Matroid(ground=2, bases=PointSet(p=2, [(0, 1), (1, 0)]))"),
    (SubspaceConfig, {"q": 2, "subspaces": (((Fraction(1), Fraction(0)),), ((Fraction(1, 2), Fraction(-3)),))},
     "SubspaceConfig(q=2, subspaces=(((Fraction(1, 1), Fraction(0, 1)),), ((Fraction(1, 2), Fraction(-3, 1)),)))"),
]


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_behaves_as_the_frozen_dataclass_it_replaces(cls, kwargs, text):
    r = cls(**kwargs)
    assert repr(r) == text
    assert r == cls(*kwargs.values()) and hash(r) == hash(cls(*kwargs.values()))
    values = tuple(getattr(r, name) for name in cls.__slots__)
    assert tuple(kwargs) == cls.__slots__ and hash(r) == hash(values)
    assert not hasattr(r, "__dict__")
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is cls and twin == r and hash(twin) == hash(r) and repr(twin) == text


def test_records_of_different_classes_never_compare_equal():
    class Twin(Record):
        __slots__ = ("m", "primes")

    ideal = SquareFreeIdeal((4, 4), ((3, 1), (1, 2)))
    twin = Twin((4, 4), ((3, 1), (1, 2)))
    assert twin._values() == ideal._values() and hash(twin) == hash(ideal)
    assert twin != ideal and ideal != twin and len({twin, ideal}) == 2
    records = [cls(**kwargs) for cls, kwargs, _ in RECORDS]
    assert all((x == y) == (x is y) for x in records for y in records)
    assert ideal != (ideal.m, ideal.primes)
