import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from kpoly import polymatroid, subspaces
from kpoly.lattice import CapExceeded, members, point_set
from kpoly.mobius import mu_support
from kpoly.polymatroid import is_base_polymatroid, is_g_polymatroid
from kpoly.subspaces import (
    SubspaceConfig,
    config_from_json,
    config_to_json,
    linear_polymatroid,
    random_config,
    rank_table,
)
from oracles import base_candidates, matrix_rank, rank_of

F = Fraction


def lines(*vecs):
    return SubspaceConfig(len(vecs[0]), tuple((tuple(map(F, v)),) for v in vecs))


def test_matrix_rank_exact():
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[F(1, 3), F(0)], [F(0), F(5, 7)]]) == 2
    # a matrix that misbehaves under floating point pivoting
    rows = [
        [F(1, 10**12), F(1)],
        [F(1), F(10**12)],
    ]
    assert matrix_rank(rows) == 1


def test_rank_of_independent_lines():
    config = lines((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert rank_of(config, (1, 2, 3)) == 3
    assert rank_of(config, ()) == 0
    assert rank_of(config, (2,)) == 1


def test_rank_duplicated_subspace():
    config = lines((1, 1), (1, 1), (0, 1))
    assert rank_of(config, (1, 2)) == rank_of(config, (1,)) == 1
    assert rank_of(config, (1, 2, 3)) == 2


def test_rank_generic_line_pairs():
    config = lines((1, 0), (0, 1), (1, 1))
    for pair in itertools.combinations((1, 2, 3), 2):
        assert rank_of(config, pair) == 2


def test_rank_submodularity_randomized():
    rng = random.Random(21)
    for _ in range(60):
        p, q = rng.randint(2, 4), rng.randint(2, 4)
        config = random_config(p, q, rng)
        table = rank_table(config)
        subsets = range(len(table))
        for _ in range(20):
            A, B = rng.choice(subsets), rng.choice(subsets)
            assert table[A] + table[B] >= table[A | B] + table[A & B]
        # monotone and bounded
        for r in table:
            assert 0 <= r <= config.q


def oracle_table(config):
    """rank_of (fraction-exact elimination, one subset at a time) on every
    bitmask X."""
    return [rank_of(config, members(X)) for X in range(1 << config.p)]


def test_rank_table_matches_oracle_on_criterion_08_stream():
    rng = random.Random(20240817)  # the stream of acceptance criterion 08
    for _ in range(200):
        p, q = rng.randint(2, 5), rng.randint(2, 5)
        config = random_config(p, q, rng)
        assert rank_table(config) == oracle_table(config), config


def test_rank_tables_of_the_criterion_08_stream_satisfy_ingleton():
    # r(A) + r(B) + r(A+B+C) + r(A+B+D) + r(C+D) <= r(A+B) + r(A+C) + r(A+D) + r(B+C) + r(B+D)
    # holds for every arrangement of subspaces (Ingleton 1971), here on every
    # ordered 4-tuple of distinct subspaces
    rng = random.Random(20240817)  # the stream of acceptance criterion 08
    checks = 0
    for _ in range(200):
        p, q = rng.randint(2, 5), rng.randint(2, 5)
        config = random_config(p, q, rng)
        r = rank_table(config)
        for A, B, C, D in itertools.permutations([1 << i for i in range(p)], 4):
            assert (r[A] + r[B] + r[A | B | C] + r[A | B | D] + r[C | D]
                    <= r[A | B] + r[A | C] + r[A | D] + r[B | C] + r[B | D]), (config, A, B, C, D)
            checks += 1
    assert checks == 6000


@pytest.mark.parametrize(
    "q, subspaces, full",
    [
        # fractional entries: a plane spanned by (1/3, 0, 0), (0, 5/7, 0)
        (3, [[(F(1, 3), 0, 0), (0, F(5, 7), 0)], [(F(2, 3), F(-5, 7), 0)], [(0, 0, F(1, 9))]], 3),
        # negative entries; subspace 2 is the negative of subspace 1
        (2, [[(-1, 2)], [(1, -2)], [(-3, -4)]], 2),
        # a zero generator beside a nonzero one, and a zero-only subspace
        (3, [[(0, 0, 0), (1, 1, 0)], [(0, 0, 0)], [(1, 1, 0), (2, 2, 0)]], 1),
        # a subspace with no generators
        (2, [[], [(1, 0)], [(0, 1)]], 2),
        # a repeated subspace (a plane, twice) and a line inside it
        (3, [[(1, 0, 1), (0, 1, 1)], [(1, 0, 1), (0, 1, 1)], [(1, 1, 2)]], 2),
        # the 10^12-scale rows of test_matrix_rank_exact span one line
        (2, [[(F(1, 10**12), 1)], [(1, 10**12)]], 1),
    ],
)
def test_rank_table_hand_cases(q, subspaces, full):
    config = SubspaceConfig(q, tuple(tuple(tuple(map(F, g)) for g in gens) for gens in subspaces))
    table = rank_table(config)
    assert table == oracle_table(config)
    assert table[-1] == full


@pytest.mark.parametrize("n, r", [(4, 2), (5, 3), (6, 2), (7, 4)])
def test_generic_lines_give_the_uniform_matroid(n, r):
    # n lines through Vandermonde rows (1, t, ..., t^(r-1)), t = 1..n: any r of
    # them are independent, so the polymatroid is the 0/1 points with sum r
    config = lines(*[[t**k for k in range(r)] for t in range(1, n + 1)])
    table = rank_table(config)
    assert all(rank == min(X.bit_count(), r) for X, rank in enumerate(table))
    P = linear_polymatroid(config)
    assert len(P) == math.comb(n, r)
    assert P == point_set([y for y in itertools.product((0, 1), repeat=n) if sum(y) == r])


def test_linear_polymatroid_refuses_candidates_above_the_cap_before_the_rank_table(monkeypatch):
    # five generic lines in Q^4, the uniform matroid U_{4,5}: rank 4 on [5]
    # bounds the candidate points by C(4 + 4, 4) = 70
    config = lines(*[[t**k for k in range(4)] for t in range(1, 6)])
    monkeypatch.setattr(polymatroid, "BASE_CANDIDATE_CAP", 69)
    monkeypatch.setattr(subspaces, "rank_table", lambda *args: pytest.fail("rank table before the cap"))
    with pytest.raises(CapExceeded, match=r"^base polymatroid has up to 70 candidate points \(cap 69\)$"):
        linear_polymatroid(config)


def test_linear_polymatroid_converts_each_generator_once(monkeypatch):
    # the rank([p]) pass and the rank table share one integer row per generator
    converted, convert = [], subspaces._integer_row

    def counted(g):
        converted.append(g)
        return convert(g)

    monkeypatch.setattr(subspaces, "_integer_row", counted)
    rng = random.Random(20240817)  # the stream of acceptance criterion 08
    for _ in range(20):
        config = random_config(rng.randint(2, 5), rng.randint(2, 5), rng)
        converted.clear()
        linear_polymatroid(config)
        assert sorted(converted) == sorted(g for gens in config.subspaces for g in gens), config


def test_linear_polymatroid_matches_the_literal_box_filter():
    # every point of the product box, kept when it meets every rank_of bound
    rng = random.Random(4242)
    for _ in range(30):
        config = random_config(rng.randint(1, 5), rng.randint(1, 4), rng)
        table = oracle_table(config)
        total = table[-1]
        box = itertools.product(range(total + 1), repeat=config.p)
        want = [
            y for y in box
            if sum(y) == total
            and all(sum(y[j - 1] for j in members(X)) <= r for X, r in enumerate(table))
        ]
        assert linear_polymatroid(config) == point_set(want, config.p), config


def all_bounds_filter(config):
    """The candidates of linear_polymatroid kept when they meet all 2^p rank
    bounds y(J) <= rank(J), every J read from rank_table by its bitmask."""
    p, ranks = config.p, rank_table(config)
    total = ranks[-1]
    kept = []
    for y in base_candidates(total, [min(ranks[1 << i], total) for i in range(p)]):
        sums = [0]  # y(J) for every bitmask J
        for v in y:
            sums += [s + v for s in sums]
        if all(map(operator.le, sums, ranks)):
            kept.append(y)
    return point_set(kept, p)


def test_support_bounds_filter_equals_the_all_bounds_filter():
    # the criterion-08 stream and `linear-polymatroid --random 16,2 --seed 1`;
    # linear_polymatroid reads the rank table, a list indexed by bitmask
    rng = random.Random(20240817)
    configs = [random_config(rng.randint(2, 5), rng.randint(2, 5), rng) for _ in range(200)]
    configs.append(random_config(16, 2, random.Random(1)))
    for config in configs:
        assert len(rank_table(config)) == 1 << config.p
        P = linear_polymatroid(config)
        assert P == all_bounds_filter(config), config
    assert len(P) == 121


def test_linear_polymatroid_independent_lines():
    config = lines((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert linear_polymatroid(config) == point_set([(1, 1, 1)])


def test_linear_polymatroid_duplicate_line():
    config = lines((2, 3), (2, 3))
    assert linear_polymatroid(config) == point_set([(1, 0), (0, 1)])


def test_linear_polymatroid_three_generic_lines_in_plane():
    config = lines((1, 0), (0, 1), (1, 1))
    assert linear_polymatroid(config) == point_set([(1, 1, 0), (1, 0, 1), (0, 1, 1)])


def test_linear_polymatroid_mixed_dimensions():
    config = SubspaceConfig(
        3,
        (
            ((F(1), F(0), F(0)), (F(0), F(1), F(0))),  # a plane
            ((F(1), F(1), F(1)),),                      # a line inside general position
        ),
    )
    P = linear_polymatroid(config)
    assert is_base_polymatroid(P)
    assert all(sum(y) == 3 for y in P)


def test_output_always_base_polymatroid_randomized():
    rng = random.Random(1001)
    for _ in range(80):
        config = random_config(rng.randint(1, 4), rng.randint(1, 4), rng)
        P = linear_polymatroid(config)
        assert is_base_polymatroid(P)


def test_theorem_c_battery_small():
    rng = random.Random(555)
    for _ in range(40):
        config = random_config(rng.randint(2, 4), rng.randint(2, 4), rng)
        P = linear_polymatroid(config)
        assert is_g_polymatroid(mu_support(P), "axioms")


def test_config_validation():
    with pytest.raises(ValueError):
        SubspaceConfig(2, (((F(0), F(0)),),))  # all zero
    with pytest.raises(ValueError):
        SubspaceConfig(2, (((F(1),),),))  # wrong length


def test_config_json_roundtrip():
    rng = random.Random(8)
    config = random_config(3, 3, rng)
    assert config_from_json(config_to_json(config)) == config


@pytest.mark.parametrize("data, message", [
    ({"q": 2, "subspaces": [[[[1, 1], [True, 1]]]]}, "$.subspaces[0][0][1][0] must be an int, got True"),
    ({"q": 2, "subspaces": [[[[1, 1], [0, 1]]], [[[1, 0], [1, 1]]]]},
     "$.subspaces[1][0][0][1] must be a nonzero int, got 0"),
    ({"q": 2, "subspaces": [[[[1, 1, 1], [0, 1]]]]},
     "$.subspaces[0][0][0] must be a [numerator, denominator] pair, got [1, 1, 1]"),
    ({"q": 2, "subspaces": [[[[1.5, 1], [0, 1]]]]}, "$.subspaces[0][0][0][0] must be an int, got 1.5"),
    ({"q": 2, "subspaces": [[[[1, 1], [0, 1], [0, 1]]]]},
     "$.subspaces[0][0] must be a generator of 2 entries, got [[1, 1], [0, 1], [0, 1]]"),
    ({"q": 2, "subspaces": [[[[1, 1], [0, 1]]], 5]}, "$.subspaces[1] must be an array of generators, got 5"),
    ({"q": True, "subspaces": []}, "$.q must be a positive int, got True"),
    ({"subspaces": []}, "$ is missing the key 'q'"),
    ([1], '$ must be an object {"q": int, "subspaces": [...]}, got [1]'),
])
def test_config_from_json_names_the_path_of_a_malformed_element(data, message):
    with pytest.raises(ValueError) as exc:
        config_from_json(data)
    assert str(exc.value) == message


def test_config_from_json_reads_a_valid_config_without_the_path_walk(monkeypatch):
    def refuse(data):
        raise AssertionError("path walk on a valid config")

    monkeypatch.setattr(subspaces, "_checked_config", refuse)
    rng = random.Random(28)
    configs = [random_config(rng.randint(1, 5), rng.randint(1, 5), rng) for _ in range(50)]
    assert [config_from_json(config_to_json(c)) for c in configs] == configs
    # fractions, a negative denominator, a subspace with no generators, a big int
    data = {"q": 3, "subspaces": [[[[1, 3], [-2, -5], [0, 7]]], [], [[[4, -6], [0, 1], [10**30, 1]]]]}
    assert config_from_json(data) == SubspaceConfig(3, (
        ((F(1, 3), F(2, 5), F(0)),), (), ((F(-2, 3), F(0), F(10**30)),)))
