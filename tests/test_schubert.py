import _posixsubprocess
import itertools
import os
import random
import tracemalloc
from operator import mul

import pytest

from kpoly import schubert as schubert_mod
from kpoly.lattice import CapExceeded, IntPolynomial, _cube_coding, point_set, poly_text
from kpoly.schubert import (
    CENSUS_CAP,
    ascent_positions,
    count_zero_one,
    grothendieck,
    grothendieck_via_mobius,
    grothendieck_via_stalactites,
    is_zero_one,
    longest_perm,
    lowest_degree_part,
    msupp_of_matrix_schubert,
    parse_perm,
    rothe_diagram,
    schubert,
    swap_adjacent,
    zero_one_permutations,
)
from oracles import inversions
from running_example import KPOLY_5, MSUPP_5, W
from test_lattice import support_bounds


def swap_vars(f: IntPolynomial, j: int) -> IntPolynomial:
    """s_j f: f with z_j and z_{j+1} exchanged (j is 1-based)."""
    return IntPolynomial._raw(f.num_vars, {e[:j - 1] + (e[j], e[j - 1]) + e[j + 1:]: c for e, c in f.terms.items()})


# the divided-difference operators on polynomials, run on the code kernels
# that the Grothendieck recursion and the census walk use


def _on_codes(kernel, f: IntPolynomial, j: int) -> IntPolynomial:
    # a code kernel of schubert as an operator on polynomials, at radix the
    # largest exponent + 2: the (1 - z_{j+1}) step raises one exponent by 1
    if not 1 <= j <= f.num_vars - 1:
        raise ValueError(f"operator index {j} outside 1..{f.num_vars - 1}")
    strides, decode = _cube_coding(max(itertools.chain(*f.terms), default=0) + 2, f.num_vars)
    codes = [(sum(map(mul, e, strides)), c) for e, c in f.terms.items()]
    return IntPolynomial._raw(f.num_vars, {decode(x): c for x, c in kernel(codes, j, strides).items()})


def divided_difference(f: IntPolynomial, j: int) -> IntPolynomial:
    """(f - f with z_j, z_{j+1} swapped) / (z_j - z_{j+1}), exactly."""
    return _on_codes(schubert_mod._divided_difference_codes, f, j)


def isobaric_divided_difference(f: IntPolynomial, j: int) -> IntPolynomial:
    """Divided difference of (1 - z_{j+1}) * f."""
    return _on_codes(schubert_mod._isobaric_codes, f, j)


def rand_poly(rng, nv, max_exp=3, n_terms=5):
    return IntPolynomial(
        nv,
        [
            (tuple(rng.randint(0, max_exp) for _ in range(nv)), rng.randint(-9, 9))
            for _ in range(n_terms)
        ],
    )


def divided_difference_literal(terms: dict, j: int) -> dict:
    """The literal oracle of the code kernel: d_j on {exponent tuple: coeff}.
    With i = j - 1, a = e[i] and b = e[i+1], a monomial c * z^e contributes
    nothing when a = b and otherwise sign(a - b) * c * z_i^k z_{i+1}^(a+b-1-k)
    for each k from min(a, b) to max(a, b) - 1."""
    i = j - 1
    out = {}
    for e, c in terms.items():
        a, b = e[i], e[i + 1]
        if a == b:
            continue
        if a < b:
            a, b, c = b, a, -c
        head, tail = e[:i], e[i + 2 :]
        for k in range(b, a):
            key = head + (k, a + b - 1 - k) + tail
            out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


def isobaric_literal(terms: dict, j: int) -> dict:
    # (1 - z_{j+1}) * f, then the literal divided difference
    shifted = dict(terms)
    for e, c in terms.items():
        e2 = e[:j] + (e[j] + 1,) + e[j + 1 :]
        shifted[e2] = shifted.get(e2, 0) - c
    return divided_difference_literal({e: c for e, c in shifted.items() if c}, j)


def literal_children(w, terms):
    """_ascent_children on exponent tuples with the literal kernel."""
    j = 1
    while j < len(w) and w[j - 1] > w[j]:
        yield swap_adjacent(w, j), divided_difference_literal(terms, j)
        j += 1
    if j + 1 < len(w) and w[j - 1] > w[j + 1] < w[j]:
        yield swap_adjacent(w, j + 1), divided_difference_literal(terms, j + 1)


def literal_zero_one_walk(w, terms):
    if all(c == 1 for c in terms.values()):
        yield w
    for child in literal_children(w, terms):
        yield from literal_zero_one_walk(*child)


def staircase(p):
    return {tuple(range(p - 1, -1, -1)): 1}


def schubert_direct(w):
    """Independent oracle: ordinary divided differences from the staircase."""
    p = len(w)
    if w == longest_perm(p):
        return IntPolynomial(p, staircase(p))
    j = ascent_positions(w)[-1]
    return divided_difference(schubert_direct(swap_adjacent(w, j)), j)


def grothendieck_chain(w, pick):
    """Grothendieck recursion along the ascent chosen by `pick`."""
    p = len(w)
    if w == longest_perm(p):
        return IntPolynomial(p, staircase(p))
    j = pick(ascent_positions(w))
    return isobaric_divided_difference(grothendieck_chain(swap_adjacent(w, j), pick), j)


def test_parse_perm():
    assert parse_perm("1,5,3,2,4") == (1, 5, 3, 2, 4)
    assert parse_perm("[1,5,3,2,4]") == (1, 5, 3, 2, 4)
    with pytest.raises(ValueError):
        parse_perm("1,1,2")


def test_rothe_diagram():
    assert rothe_diagram((1, 2, 3)) == frozenset()
    assert rothe_diagram((3, 2, 1)) == frozenset({(1, 1), (1, 2), (2, 1)})
    cells = rothe_diagram(W)
    assert len(cells) == inversions(W) == 4


def test_rothe_diagram_cardinality_random():
    rng = random.Random(17)
    for _ in range(50):
        p = rng.randint(1, 6)
        w = tuple(rng.sample(range(1, p + 1), p))
        assert len(rothe_diagram(w)) == inversions(w)


def test_divided_difference_basics():
    z1 = IntPolynomial(2, {(1, 0): 1})
    assert divided_difference(z1, 1) == IntPolynomial.constant(2, 1)
    z1z2 = IntPolynomial(2, {(1, 1): 1})
    assert not divided_difference(z1z2, 1)
    z1sq = IntPolynomial(2, {(2, 0): 1})
    assert divided_difference(z1sq, 1) == IntPolynomial(2, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        divided_difference(z1, 2)


def test_divided_difference_matches_its_definition():
    # (z_j - z_{j+1}) * d_j f == f - s_j f, built from ring operations only
    rng = random.Random(31)
    for _ in range(200):
        nv = rng.randint(2, 4)
        f = rand_poly(rng, nv, max_exp=4, n_terms=rng.randint(1, 8))
        j = rng.randint(1, nv - 1)
        zj = IntPolynomial(nv, {tuple(int(k == j - 1) for k in range(nv)): 1})
        zj1 = IntPolynomial(nv, {tuple(int(k == j) for k in range(nv)): 1})
        assert (zj - zj1) * divided_difference(f, j) == f - swap_vars(f, j)


def test_code_kernels_match_the_literal_kernels():
    # through the public operators, whose radix is the largest exponent + 2:
    # the monomial with every exponent at that largest value meets the edge
    rng = random.Random(61)
    for _ in range(300):
        nv = rng.randint(2, 5)
        edge = rng.randint(0, 5)
        f = rand_poly(rng, nv, max_exp=edge, n_terms=rng.randint(0, 8))
        f = f + IntPolynomial(nv, [((edge,) * nv, rng.choice((-2, -1, 1, 3)))])
        j = rng.randint(1, nv - 1)
        assert divided_difference(f, j).terms == divided_difference_literal(f.terms, j)
        assert isobaric_divided_difference(f, j).terms == isobaric_literal(f.terms, j)
    for op in (divided_difference, isobaric_divided_difference):
        with pytest.raises(ValueError, match="outside 1..0"):
            op(IntPolynomial(1, {(3,): 1}), 1)
    # the kernels themselves at radix r, every digit up to r - 1 (up to r - 2
    # at z_{j+1} for the isobaric one, whose shift raises it by 1)
    for _ in range(300):
        nv, r = rng.randint(2, 5), rng.randint(2, 7)
        strides, decode = _cube_coding(r, nv)
        j = rng.randint(1, nv - 1)
        for kernel, literal, cap in (
            (schubert_mod._divided_difference_codes, divided_difference_literal, r - 1),
            (schubert_mod._isobaric_codes, isobaric_literal, r - 2),
        ):
            f = IntPolynomial(nv, [
                (tuple(rng.choice((0, cap, rng.randint(0, cap))) if k == j else rng.randint(0, r - 1)
                       for k in range(nv)), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 12))
            ])
            codes = {sum(x * s for x, s in zip(e, strides)): c for e, c in f.terms.items()}
            got = {decode(x): c for x, c in kernel(codes.items(), j, strides).items()}
            assert got == literal(f.terms, j)


def test_divided_difference_kills_symmetric_parts():
    rng = random.Random(23)
    for _ in range(50):
        nv = rng.randint(2, 4)
        f = rand_poly(rng, nv)
        j = rng.randint(1, nv - 1)
        sym = f * swap_vars(f, j)  # symmetric in z_j, z_{j+1}
        assert not divided_difference(sym, j)
        # Leibniz-like: d_j(sym * g) = sym * d_j(g)
        g = rand_poly(rng, nv)
        assert divided_difference(sym * g, j) == sym * divided_difference(g, j)


def test_isobaric_basics():
    z1 = IntPolynomial(2, {(1, 0): 1})
    assert isobaric_divided_difference(z1, 1) == IntPolynomial.constant(2, 1)
    one = IntPolynomial.constant(3, 1)
    assert isobaric_divided_difference(one, 2) == one


def test_isobaric_idempotent_commutation_braid():
    rng = random.Random(29)
    for _ in range(40):
        nv = 4
        f = rand_poly(rng, nv)
        for j in range(1, nv):
            dj = isobaric_divided_difference(f, j)
            assert isobaric_divided_difference(dj, j) == dj
        a, b = 1, 3
        ab = isobaric_divided_difference(isobaric_divided_difference(f, a), b)
        ba = isobaric_divided_difference(isobaric_divided_difference(f, b), a)
        assert ab == ba
        for i in (1, 2):
            lhs = isobaric_divided_difference(
                isobaric_divided_difference(isobaric_divided_difference(f, i), i + 1), i
            )
            rhs = isobaric_divided_difference(
                isobaric_divided_difference(isobaric_divided_difference(f, i + 1), i), i + 1
            )
            assert lhs == rhs


def test_grothendieck_base_cases():
    assert grothendieck((1,)) == IntPolynomial.constant(1, 1)
    assert grothendieck((1, 2)) == IntPolynomial.constant(2, 1)
    assert poly_text(grothendieck((2, 1))) == "+1*z1"
    assert grothendieck((3, 2, 1)) == IntPolynomial(3, {(2, 1, 0): 1})


def test_grothendieck_s3_values():
    # classical S_3 table
    assert grothendieck((1, 3, 2)).terms == {(0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 0): -1}
    assert grothendieck((2, 1, 3)).terms == {(1, 0, 0): 1}
    assert grothendieck((2, 3, 1)).terms == {(1, 1, 0): 1}
    assert grothendieck((3, 1, 2)).terms == {(2, 0, 0): 1}


def test_grothendieck_is_one_at_all_ones_on_s6():
    # a known value: G_w(1, ..., 1) = 1 for every permutation w
    perms = list(itertools.permutations(range(1, 7)))
    assert len(perms) == 720
    assert [w for w in perms if sum(grothendieck(w).terms.values()) != 1] == []


def check_grothendieck_against_the_literal_kernel(p: int) -> int:
    """Every G_w of S_p against the first-ascent recursion with the literal
    isobaric kernel; returns the number of permutations checked."""
    literal = {longest_perm(p): staircase(p)}
    for w in sorted(itertools.permutations(range(1, p + 1)), key=inversions, reverse=True):
        if w not in literal:
            j = ascent_positions(w)[0]
            literal[w] = isobaric_literal(literal[swap_adjacent(w, j)], j)
        assert grothendieck(w).terms == literal[w], w
    return len(literal)


def check_census_walk_against_the_literal_kernel(p: int) -> tuple[int, list]:
    """Every node of the unpruned census walk of S_p against the literal d_j
    of its parent; returns the number of nodes checked and, in lex order, the
    nodes whose literal polynomial is zero-one."""
    _, decode = _cube_coding(p, p)
    stack, seen, zero_one = [(schubert_mod._census_root(p), staircase(p))], 0, []
    while stack:
        node, terms = stack.pop()
        assert {decode(x): c for x, c in node[1].items()} == terms, node[0]
        seen += 1
        if all(c == 1 for c in terms.values()):
            zero_one.append(node[0])
        children = zip(schubert_mod._ascent_children(*node), literal_children(node[0], terms))
        stack += [(child, t) for child, (_, t) in children]
    return seen, sorted(zero_one)


def test_every_polynomial_of_s6_matches_the_literal_kernels():
    assert check_grothendieck_against_the_literal_kernel(6) == 720
    # every node of S_6, so the zero-one ones also check the pruned walk
    assert check_census_walk_against_the_literal_kernel(6) == (720, zero_one_permutations(6))


def test_code_kernels_match_the_literal_kernels_on_mixed_signs():
    # pair lists as the recursions feed them: codes may repeat and signs mix,
    # so sums cancel; the literal kernels see the merged dict
    rng = random.Random(25)
    for _ in range(400):
        nv, r = rng.randint(2, 5), rng.randint(2, 6)
        strides, decode = _cube_coding(r, nv)
        j = rng.randint(1, nv - 1)
        for kernel, literal, cap in (
            (schubert_mod._divided_difference_codes, divided_difference_literal, r - 1),
            (schubert_mod._isobaric_codes, isobaric_literal, r - 2),
        ):
            exps = [tuple(rng.randint(0, cap if k == j else r - 1) for k in range(nv))
                    for _ in range(rng.randint(1, 4))]
            pairs = [(rng.choice(exps), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 10))]
            merged = {}
            for e, c in pairs:
                merged[e] = merged.get(e, 0) + c
            codes = [(sum(x * s for x, s in zip(e, strides)), c) for e, c in pairs]
            got = {decode(x): c for x, c in kernel(codes, j, strides).items()}
            assert got == literal({e: c for e, c in merged.items() if c}, j)
    # d_1 of z_1^2 z_2 is z_1 z_2 (|a - b| = 1): the term with c < 0 cancels the
    # sum to zero, alone after an equal term or after a d = -1 term of z_1 z_2^2
    strides = (3, 1)
    for pairs in ([(7, 1), (7, -1)], [(5, -1), (7, -1)]):
        assert schubert_mod._divided_difference_codes(pairs, 1, strides) == {}


def test_grothendieck_running_example():
    assert grothendieck(W).terms == KPOLY_5


def test_ascent_choice_independence_s4():
    for w in itertools.permutations((1, 2, 3, 4)):
        first = grothendieck_chain(w, lambda asc: asc[0])
        last = grothendieck_chain(w, lambda asc: asc[-1])
        assert first == last == grothendieck(w)


def test_schubert_lowest_degree_and_direct_recursion_agree():
    for p in (2, 3, 4):
        for w in itertools.permutations(range(1, p + 1)):
            assert schubert(w) == schubert_direct(w)


def test_schubert_running_example():
    S = schubert(W)
    expected = {
        (3, 1, 0, 0, 0): 1, (3, 0, 1, 0, 0): 1, (2, 2, 0, 0, 0): 1,
        (2, 1, 1, 0, 0): 1, (1, 3, 0, 0, 0): 1, (1, 2, 1, 0, 0): 1,
        (0, 3, 1, 0, 0): 1,
    }
    assert S.terms == expected
    assert min(sum(e) for e in S.terms) == inversions(W)


def test_schubert_homogeneous_of_degree_length():
    rng = random.Random(41)
    for _ in range(30):
        p = rng.randint(2, 5)
        w = tuple(rng.sample(range(1, p + 1), p))
        S = schubert(w)
        degs = {sum(e) for e in S.terms}
        assert degs == {inversions(w)}


def test_is_zero_one():
    assert is_zero_one(W)
    assert all(is_zero_one(w) for w in itertools.permutations((1, 2, 3, 4)))
    non_zero_one = [
        w for w in itertools.permutations((1, 2, 3, 4, 5)) if not is_zero_one(w)
    ]
    assert len(non_zero_one) == 5
    for w in non_zero_one:
        assert max(schubert(w).terms.values()) > 1


def test_census_small_values():
    assert [count_zero_one(p) for p in range(1, 6)] == [1, 2, 6, 24, 115]
    with pytest.raises(CapExceeded, match=f"p = {CENSUS_CAP + 1} exceeds the cap {CENSUS_CAP}"):
        count_zero_one(CENSUS_CAP + 1)


def test_census_jobs_agree(monkeypatch):
    # every jobs value walks serially in this process: each way Python
    # starts a process on POSIX refuses
    def refuse(*args, **kwargs):
        raise AssertionError("the census started a process")

    for module, name in ((os, "fork"), (os, "posix_spawn"), (_posixsubprocess, "fork_exec")):
        monkeypatch.setattr(module, name, refuse)
    for p, count in ((3, 6), (5, 115), (6, 605)):
        assert [count_zero_one(p, jobs=jobs) for jobs in (1, 2, 100_000)] == [count] * 3


def test_census_walk_keeps_only_the_current_chain():
    # the walk holds the polynomials of one chain, at most 22 in S_7; a walk
    # that keeps two whole length levels of S_7 peaks at about 5.5 MB
    tracemalloc.start()
    try:
        assert len(zero_one_permutations(7)) == 3343
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_zero_one_permutations_checks_p_before_any_walk(monkeypatch):
    monkeypatch.setattr(schubert_mod, "_zero_one_walk", lambda *args: pytest.fail("walk before the checks"))
    for p in (0, -2):
        with pytest.raises(ValueError, match="p must be positive"):
            zero_one_permutations(p)
    with pytest.raises(CapExceeded, match=f"p = {CENSUS_CAP + 1} exceeds the cap {CENSUS_CAP}"):
        zero_one_permutations(CENSUS_CAP + 1)


def test_census_walk_matches_the_literal_tuple_walk():
    # the literal walk expands every node, so it also checks the pruning
    for p in range(1, 8):
        assert zero_one_permutations(p) == sorted(literal_zero_one_walk(longest_perm(p), staircase(p)))


def test_census_walk_expands_only_zero_one_nodes(monkeypatch):
    expanded, children = [], []
    ascent_children = schubert_mod._ascent_children

    def spy(w, terms, strides):
        expanded.append(w)
        for child in ascent_children(w, terms, strides):
            children.append(child[0])
            yield child

    monkeypatch.setattr(schubert_mod, "_ascent_children", spy)
    zero_one = zero_one_permutations(7)
    assert sorted(expanded) == zero_one
    assert 1 + len(children) == 3897  # of the 5040 nodes of S_7


FMS_PATTERNS = [
    (1, 2, 5, 4, 3), (1, 3, 2, 5, 4), (1, 3, 5, 2, 4), (1, 3, 5, 4, 2),
    (2, 1, 5, 4, 3), (1, 2, 5, 3, 6, 4), (1, 2, 5, 6, 3, 4), (2, 1, 5, 3, 6, 4),
    (2, 1, 5, 6, 3, 4), (3, 1, 5, 2, 6, 4), (3, 1, 5, 6, 2, 4), (3, 1, 5, 6, 4, 2),
]


def contains_pattern(w, pattern):
    pairs = list(itertools.combinations(range(len(pattern)), 2))
    return any(
        all((w[pos[x]] < w[pos[y]]) == (pattern[x] < pattern[y]) for x, y in pairs)
        for pos in itertools.combinations(range(len(w)), len(pattern))
    )


def fms_avoiders(max_p: int):
    """Yield the avoiders of FMS_PATTERNS in S_1, ..., S_max_p in lex order,
    by a generating tree: avoidance is closed under deleting the entry p, so
    w in S_p avoids the patterns iff w without p does and no occurrence uses
    p.  p can only play a pattern's largest entry, so each pattern is tested
    by the choices of entries on either side of p whose values are ordered
    as the pattern's other entries."""
    shapes = []
    for pat in FMS_PATTERNS:
        m = pat.index(len(pat))
        rest = pat[:m] + pat[m + 1 :]
        shapes.append((m, len(rest) - m, sorted(range(len(rest)), key=rest.__getitem__)))

    def occurs(left, right, m, n, order):
        for lv in itertools.combinations(left, m):
            for rv in itertools.combinations(right, n):
                v = lv + rv
                if all(v[x] < v[y] for x, y in zip(order, order[1:])):
                    return True
        return False

    level = [()]
    for p in range(1, max_p + 1):
        level = sorted(
            u[:pos] + (p,) + u[pos:]
            for u in level
            for pos in range(p)
            if not any(m <= pos and n <= p - 1 - pos and occurs(u[:pos], u[pos:], m, n, order)
                       for m, n, order in shapes)
        )
        yield level


def test_no_pattern_occurrence_dissolves_below_a_node():
    # the finite half of the argument in _zero_one_walk's docstring: a pattern
    # pi on both positions j, j+1 of the child u = w s_j, j the first ascent of
    # u, has them at consecutive entries k, k+1 with pi(1) > ... > pi(k-1) and
    # pi(k+1) below every earlier entry; each such pi s_k contains a pattern
    cases = [
        (pi, k) for pi in FMS_PATTERNS for k in range(1, len(pi))
        if all(a > b for a, b in zip(pi[:k - 1], pi[1:k - 1])) and pi[k] < min(pi[:k])
    ]
    assert cases == [
        ((2, 1, 5, 4, 3), 1), ((2, 1, 5, 3, 6, 4), 1), ((2, 1, 5, 6, 3, 4), 1),
        ((3, 1, 5, 2, 6, 4), 1), ((3, 1, 5, 6, 2, 4), 1), ((3, 1, 5, 6, 4, 2), 1),
    ]
    for pi, k in cases:
        assert any(contains_pattern(swap_adjacent(pi, k), pat) for pat in FMS_PATTERNS), pi


def test_zero_one_census_matches_the_generating_tree():
    # Fink-Meszaros-St. Dizier, a route that computes no polynomial
    counts = []
    for p, avoiders in enumerate(fms_avoiders(7), start=1):
        assert zero_one_permutations(p) == avoiders
        counts.append(len(avoiders))
    assert counts == [1, 2, 6, 24, 115, 605, 3343]


def test_zero_one_census_matches_independent_oracles():
    # Fink-Meszaros-St. Dizier: w is zero-one iff it avoids the twelve patterns
    for p in range(1, 7):
        avoiders = [
            w
            for w in itertools.permutations(range(1, p + 1))
            if not any(contains_pattern(w, pat) for pat in FMS_PATTERNS)
        ]
        assert zero_one_permutations(p) == avoiders
    # the Grothendieck route reads the same coefficients off the lowest degree
    s6 = itertools.permutations(range(1, 7))
    assert zero_one_permutations(6) == [w for w in s6 if is_zero_one(w)]


def test_zero_one_permutations_list():
    zo = zero_one_permutations(4)
    assert len(zo) == 24
    zo5 = zero_one_permutations(5)
    assert len(zo5) == 115
    assert W in zo5


def test_msupp_of_matrix_schubert_running_example():
    msupp, m = msupp_of_matrix_schubert(W)
    assert m == (4, 4, 4, 4, 4)
    assert msupp == point_set(MSUPP_5)


def test_msupp_identity_and_size():
    msupp, m = msupp_of_matrix_schubert((1, 2, 3))
    assert msupp == point_set([(2, 2, 2)])
    rng = random.Random(53)
    for _ in range(20):
        p = rng.randint(2, 5)
        w = tuple(rng.sample(range(1, p + 1), p))
        if not is_zero_one(w):
            continue
        msupp, _ = msupp_of_matrix_schubert(w)
        assert len(msupp) == len(schubert(w).terms)


def test_msupp_rejects_non_zero_one():
    bad = next(
        w for w in itertools.permutations((1, 2, 3, 4, 5)) if not is_zero_one(w)
    )
    with pytest.raises(ValueError):
        msupp_of_matrix_schubert(bad)


def test_pipeline_routes_running_example():
    G = grothendieck(W)
    assert grothendieck_via_stalactites(W) == G
    assert grothendieck_via_mobius(W) == G


def test_grothendieck_exponents_bounded_by_ambient():
    # no variable exponent may reach p (the twisted coefficients vanish there)
    for w in itertools.permutations((1, 2, 3, 4)):
        G = grothendieck(w)
        assert all(e < 4 for exp in G.terms for e in exp)


def test_sign_alternation_by_degree_parity():
    for w in zero_one_permutations(4):
        G = grothendieck(w)
        l = inversions(w)
        for e, c in G.terms.items():
            assert (c > 0) == ((sum(e) - l) % 2 == 0)


def test_degree_bounds_match_support_bounds():
    # b(J) is the z_J-degree of the Grothendieck polynomial by definition;
    # c(J) must agree with the minimal z_J-degree of the Schubert part
    for w in zero_one_permutations(4):
        G = grothendieck(w)
        S = lowest_degree_part(G)
        gsupp = G.support()
        ssupp = S.support()
        p = len(w)
        for r in range(1, p + 1):
            for J in itertools.combinations(range(1, p + 1), r):
                lo_g, hi_g = support_bounds(gsupp, J)
                lo_s, _ = support_bounds(ssupp, J)
                assert lo_g == lo_s
