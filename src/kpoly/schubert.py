"""Permutations, divided differences, and Grothendieck/Schubert polynomials.

Both recursions walk down at ascents from the staircase monomial at the longest
permutation with one closed-form divided-difference kernel on cube codes of
radix p (lattice._cube_coding; for w in S_p every exponent at z_i stays <= p - i,
also after the (1 - z_{j+1}) step).  The Grothendieck recursion is isobaric and
`schubert` reads off its lowest-degree part; the zero-one census walks the
Schubert polynomials with the ordinary operator, depth first down the tree with
parent map w -> w s_j, j the first ascent of w, so the Grothendieck route checks
it independently, and hands each zero-one node to a callback.  num_vars = p
lines the exponents up with the matrix-Schubert reflection n -> m - n.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from multiprocessing import Pool
from operator import mul

from .lattice import (
    CapExceeded,
    IntPolynomial,
    Point,
    PointSet,
    _cube_coding,
    parse_vector,
)
from .mobius import kpoly_from_mobius
from .stalactite import hsupp_from_msupp

Perm = tuple[int, ...]

CENSUS_CAP = 8
_ONE = frozenset((1,))  # the coefficients of a zero-one polynomial

# largest p grothendieck accepts: through the CLI, 6,1,10,3,8,2,9,4,7,5 takes
# 4-6 s and 341 MB peak RSS on a 2-CPU x86 host
GROTHENDIECK_CAP = 10


def as_perm(values) -> Perm:
    w = tuple(int(v) for v in values)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{len(w)}")
    return w


def parse_perm(text: str) -> Perm:
    """Accept "1,5,3,2,4" and bracketed "[1,5,3,2,4]"."""
    return as_perm(parse_vector(text))


def inversions(w: Perm) -> int:
    return sum(a > b for a, b in itertools.combinations(w, 2))


def longest_perm(p: int) -> Perm:
    return tuple(range(p, 0, -1))


def rothe_diagram(w: Perm) -> frozenset[tuple[int, int]]:
    """Cells D(w) = {(i, j) : w(i) > j and w^{-1}(j) > i}, 1-based."""
    return frozenset((i, j) for i, v in enumerate(w, 1) for j in range(1, v) if j not in w[:i])


def ascent_positions(w: Perm) -> list[int]:
    return [j for j in range(1, len(w)) if w[j - 1] < w[j]]


def swap_adjacent(w: Perm, j: int) -> Perm:
    """Exchange the entries in positions j and j+1 (1-based)."""
    return w[:j - 1] + (w[j], w[j - 1]) + w[j + 1:]


# ---------------------------------------------------------------------------
# divided-difference kernels on (cube code, coeff) pairs; a code may repeat

def _divided_difference_codes(terms, j: int, strides) -> dict:
    """d_j in closed form.  With a and b the digits of z_j and z_{j+1} (strides s_j,
    s_{j+1}), c * z^e gives sign(a - b) * c * z_j^k z_{j+1}^(a+b-1-k) for k from min(a, b)
    to max(a, b) - 1: |a - b| codes in steps of s_j - s_{j+1}, the last below code - s_{j+1}
    when a > b, the first at it when a < b, written directly when |a - b| = 1.  Only a
    negative contribution can cancel a sum, so zeros are filtered only after one."""
    sa, sb = strides[j - 1], strides[j]
    r, step = sa // sb, sa - sb
    out, neg = {}, False
    get = out.get
    for code, c in terms:
        if d := code // sa % r - code // sb % r:
            if d == 1:
                x = code - sa
                out[x] = get(x, 0) + c
            elif d == -1:
                x, c = code - sb, -c
                out[x] = get(x, 0) + c
            else:
                end = code - sb
                if d < 0:
                    c, d, end = -c, -d, end - d * step
                for x in range(end - d * step, end, step):
                    out[x] = get(x, 0) + c
            neg = neg or c < 0
    return {x: c for x, c in out.items() if c} if neg else out


def _isobaric_codes(terms, j: int, strides) -> dict:
    # d_j of (1 - z_{j+1}) * f; terms are iterated twice
    shifted = [(code + strides[j], -c) for code, c in terms]
    return _divided_difference_codes(itertools.chain(terms, shifted), j, strides)


def _on_codes(kernel, f: IntPolynomial, j: int) -> IntPolynomial:
    # radix max exponent + 2: the (1 - z_{j+1}) step raises one exponent by 1
    if not 1 <= j <= f.num_vars - 1:
        raise ValueError(f"operator index {j} outside 1..{f.num_vars - 1}")
    strides, decode = _cube_coding(max(itertools.chain(*f.terms), default=0) + 2, f.num_vars)
    codes = [(sum(map(mul, e, strides)), c) for e, c in f.terms.items()]
    return IntPolynomial._raw(f.num_vars, {decode(x): c for x, c in kernel(codes, j, strides).items()})


def divided_difference(f: IntPolynomial, j: int) -> IntPolynomial:
    """(f - f with z_j, z_{j+1} swapped) / (z_j - z_{j+1}), exactly."""
    return _on_codes(_divided_difference_codes, f, j)


def isobaric_divided_difference(f: IntPolynomial, j: int) -> IntPolynomial:
    """Divided difference of (1 - z_{j+1}) * f."""
    return _on_codes(_isobaric_codes, f, j)


# ---------------------------------------------------------------------------
# Grothendieck and Schubert polynomials

@lru_cache(maxsize=None)
def _perm_coding(p: int):
    # the cube coding of radix p, its decode memoized: the G_w of S_p share monomials
    strides, decode = _cube_coding(p, p)
    return strides, lru_cache(maxsize=None)(decode)


def _staircase(p: int) -> dict:
    # z_1^(p-1) ... z_p^0 at radix p: the exponent k has the stride p^k
    return {sum(k * p ** k for k in range(p)): 1}


@lru_cache(maxsize=None)
def _grothendieck_codes(w: Perm) -> dict:
    p = len(w)
    if w == longest_perm(p):
        return _staircase(p)
    j = ascent_positions(w)[0]
    return _isobaric_codes(_grothendieck_codes(swap_adjacent(w, j)).items(), j, _perm_coding(p)[0])


def grothendieck(w) -> IntPolynomial:
    """Grothendieck polynomial, memoized along the ascent chain up to the
    longest permutation; the result is independent of the ascent choices.
    CapExceeded above p = GROTHENDIECK_CAP, before any work."""
    w = as_perm(w)
    if len(w) > GROTHENDIECK_CAP:
        raise CapExceeded(f"Grothendieck polynomial for p = {len(w)} exceeds the cap {GROTHENDIECK_CAP}")
    decode = _perm_coding(len(w))[1]
    return IntPolynomial._raw(len(w), {decode(x): c for x, c in _grothendieck_codes(w).items()})


def lowest_degree_part(f: IntPolynomial) -> IntPolynomial:
    lo = min(map(sum, f.terms), default=0)
    return IntPolynomial._raw(f.num_vars, {e: c for e, c in f.terms.items() if sum(e) == lo})


def schubert(w) -> IntPolynomial:
    """Sum of the lowest-degree terms of the Grothendieck polynomial."""
    return lowest_degree_part(grothendieck(w))


def is_zero_one(w) -> bool:
    """True when every Schubert coefficient lies in {0, 1}."""
    return all(c == 1 for c in schubert(w).terms.values())


# ---------------------------------------------------------------------------
# zero-one census

def _ascent_children(w: Perm, terms: dict, strides):
    """The children of w in the ascent tree, with their Schubert codes.

    The parent of u != w0 is u s_j, j the first ascent of u, so the children
    of w are the w s_j for the descents j of w where w s_j has no ascent
    before j: every j below the first ascent a of w, and a + 1 when
    w(a+2) < w(a) < w(a+1).  The Schubert polynomial of w s_j is d_j of
    that of w."""
    j = 1
    while j < len(w) and w[j - 1] > w[j]:
        yield swap_adjacent(w, j), _divided_difference_codes(terms.items(), j, strides), strides
        j += 1
    if j + 1 < len(w) and w[j - 1] > w[j + 1] < w[j]:
        yield swap_adjacent(w, j + 1), _divided_difference_codes(terms.items(), j + 1, strides), strides


def _zero_one_walk(w: Perm, terms: dict, strides, emit) -> None:
    """emit(u) for each zero-one permutation u of the ascent subtree under w,
    depth first, so only the polynomials on the current chain stay alive."""
    if _ONE.issuperset(terms.values()):
        emit(w)
    for child in _ascent_children(w, terms, strides):
        _zero_one_walk(*child, emit)


def _count_walk(node) -> int:
    hits = itertools.count()
    _zero_one_walk(*node, lambda w: next(hits))
    return next(hits)


def _census_root(p: int):
    """(w0, its staircase, the strides of radix p), after the checks on p."""
    if p < 1:
        raise ValueError("p must be positive")
    if p > CENSUS_CAP:
        raise CapExceeded(f"census for p = {p} exceeds the cap {CENSUS_CAP}")
    return longest_perm(p), _staircase(p), _perm_coding(p)[0]


def count_zero_one(p: int, jobs: int = 1) -> int:
    """Number of permutations in S_p with a zero-one Schubert polynomial,
    after the checks of zero_one_permutations.  With jobs > 1 a pool of at
    most p - 1 processes walks the root's subtrees; w0 itself counts as 1."""
    root = _census_root(p)
    if jobs <= 1 or p <= 3:
        return _count_walk(root)
    with Pool(processes=min(jobs, p - 1)) as pool:
        return 1 + sum(pool.map(_count_walk, list(_ascent_children(*root))))


def zero_one_permutations(p: int) -> list[Perm]:
    """All w in S_p with zero-one Schubert polynomial, in lex order, by the
    depth-first ascent walk from the staircase monomial at w0.  ValueError
    for p < 1 and CapExceeded above p = CENSUS_CAP, before the walk."""
    found = []
    _zero_one_walk(*_census_root(p), found.append)
    return sorted(found)


# ---------------------------------------------------------------------------
# matrix-Schubert pipeline

def msupp_of_matrix_schubert(w) -> tuple[PointSet, Point]:
    """Multidegree support of the matrix Schubert variety inside the product
    of p projective (p-1)-spaces: m = (p-1, ..., p-1) and the support is the
    reflection of the Schubert support.  Requires a zero-one permutation."""
    S = schubert(w)
    if any(c != 1 for c in S.terms.values()):
        raise ValueError(f"{as_perm(w)} is not zero-one; its multidegrees exceed 1")
    m = (S.num_vars - 1,) * S.num_vars
    return PointSet._raw(S.num_vars, (tuple(mi - ei for mi, ei in zip(m, e)) for e in S.terms)), m


def grothendieck_via_stalactites(w) -> IntPolynomial:
    """Grothendieck polynomial through the stalactite route: reconstruct the
    signed Hilbert support from the multidegree support and reflect it."""
    msupp, m = msupp_of_matrix_schubert(w)
    H = hsupp_from_msupp(msupp)
    terms = {tuple(mi - ni for mi, ni in zip(m, n)): c for n, c in H.terms.items()}
    return IntPolynomial._raw(len(m), terms)


def grothendieck_via_mobius(w) -> IntPolynomial:
    """Grothendieck polynomial through the Mobius route on the downset poset."""
    msupp, m = msupp_of_matrix_schubert(w)
    return kpoly_from_mobius(msupp, m)
