"""Permutations, divided differences, and Grothendieck/Schubert polynomials.

Both recursions start from the staircase monomial at the longest permutation
and walk down at ascents, applying one closed-form divided-difference kernel
term by term.  The Grothendieck recursion uses the isobaric operator and
`schubert` reads off its lowest-degree part; the zero-one census walks the
Schubert polynomials directly with the ordinary operator, depth first down
the tree whose parent map is w -> w s_j at the first ascent j of w, so the
Grothendieck route stays an independent check on it.  All polynomials use
num_vars = p so that exponent vectors line up with the reflection
n -> m - n used by the matrix-Schubert pipeline.
"""

from __future__ import annotations

from functools import lru_cache
from multiprocessing import Pool

from .lattice import (
    CapExceeded,
    IntPolynomial,
    Point,
    PointSet,
    parse_vector,
)

Perm = tuple[int, ...]

CENSUS_CAP = 8

# largest p grothendieck accepts: through the CLI, 6,1,10,3,8,2,9,4,7,5 takes
# about 6 s and 333 MB peak RSS on a 2-CPU x86 host
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
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def longest_perm(p: int) -> Perm:
    return tuple(range(p, 0, -1))


def rothe_diagram(w: Perm) -> frozenset[tuple[int, int]]:
    """Cells D(w) = {(i, j) : w(i) > j and w^{-1}(j) > i}, 1-based."""
    p = len(w)
    winv = [0] * (p + 1)
    for i, v in enumerate(w, start=1):
        winv[v] = i
    return frozenset(
        (i, j)
        for i in range(1, p + 1)
        for j in range(1, w[i - 1])
        if winv[j] > i
    )


def ascent_positions(w: Perm) -> list[int]:
    return [j for j in range(1, len(w)) if w[j - 1] < w[j]]


def swap_adjacent(w: Perm, j: int) -> Perm:
    """Exchange the entries in positions j and j+1 (1-based)."""
    u = list(w)
    u[j - 1], u[j] = u[j], u[j - 1]
    return tuple(u)


# ---------------------------------------------------------------------------
# divided-difference kernels on raw {exponent tuple: coeff} dicts

def _divided_difference_raw(terms: dict, j: int) -> dict:
    """d_j term by term, in closed form.  With i = j - 1, a = e[i] and
    b = e[i+1], a monomial c * z^e contributes nothing when a = b and
    otherwise sign(a - b) * c * z_i^k z_{i+1}^(a+b-1-k) for each k from
    min(a, b) to max(a, b) - 1."""
    i = j - 1
    out: dict[Point, int] = {}
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


def _isobaric_raw(terms: dict, j: int) -> dict:
    # (1 - z_{j+1}) * f, then the ordinary divided difference
    shifted: dict[Point, int] = dict(terms)
    for e, c in terms.items():
        e2 = list(e)
        e2[j] += 1
        e2 = tuple(e2)
        v = shifted.get(e2, 0) - c
        if v:
            shifted[e2] = v
        else:
            del shifted[e2]
    return _divided_difference_raw(shifted, j)


def divided_difference(f: IntPolynomial, j: int) -> IntPolynomial:
    """(f - f with z_j, z_{j+1} swapped) / (z_j - z_{j+1}), exactly."""
    if not 1 <= j <= f.num_vars - 1:
        raise ValueError(f"operator index {j} outside 1..{f.num_vars - 1}")
    return IntPolynomial._raw(f.num_vars, _divided_difference_raw(f.terms, j))


def isobaric_divided_difference(f: IntPolynomial, j: int) -> IntPolynomial:
    """Divided difference of (1 - z_{j+1}) * f."""
    if not 1 <= j <= f.num_vars - 1:
        raise ValueError(f"operator index {j} outside 1..{f.num_vars - 1}")
    return IntPolynomial._raw(f.num_vars, _isobaric_raw(f.terms, j))


# ---------------------------------------------------------------------------
# Grothendieck and Schubert polynomials

def staircase_terms(p: int) -> dict:
    return {tuple(range(p - 1, -1, -1)): 1}


@lru_cache(maxsize=None)
def _grothendieck_terms(w: Perm):
    p = len(w)
    if w == longest_perm(p):
        return staircase_terms(p)
    j = ascent_positions(w)[0]
    return _isobaric_raw(_grothendieck_terms(swap_adjacent(w, j)), j)


def grothendieck(w) -> IntPolynomial:
    """Grothendieck polynomial, memoized along the ascent chain up to the
    longest permutation; the result is independent of the ascent choices.
    CapExceeded above p = GROTHENDIECK_CAP, before any work."""
    w = as_perm(w)
    if len(w) > GROTHENDIECK_CAP:
        raise CapExceeded(f"Grothendieck polynomial for p = {len(w)} exceeds the cap {GROTHENDIECK_CAP}")
    return IntPolynomial._raw(len(w), dict(_grothendieck_terms(w)))


def lowest_degree_part(f: IntPolynomial) -> IntPolynomial:
    if not f.terms:
        return f
    lo = min(sum(e) for e in f.terms)
    return IntPolynomial._raw(
        f.num_vars, {e: c for e, c in f.terms.items() if sum(e) == lo}
    )


def schubert(w) -> IntPolynomial:
    """Sum of the lowest-degree terms of the Grothendieck polynomial."""
    return lowest_degree_part(grothendieck(w))


def is_zero_one(w) -> bool:
    """True when every Schubert coefficient lies in {0, 1}."""
    return all(c == 1 for c in schubert(w).terms.values())


# ---------------------------------------------------------------------------
# zero-one census

def _ascent_children(w: Perm, terms: dict):
    """The children of w in the ascent tree, with their Schubert terms.

    The parent of u != w0 is u s_j, j the first ascent of u, so the children
    of w are the w s_j for the descents j of w where w s_j has no ascent
    before j: every j below the first ascent a of w, and a + 1 when
    w(a+2) < w(a) < w(a+1).  The Schubert polynomial of w s_j is d_j of
    that of w."""
    j = 1
    while j < len(w) and w[j - 1] > w[j]:
        yield swap_adjacent(w, j), _divided_difference_raw(terms, j)
        j += 1
    if j + 1 < len(w) and w[j - 1] > w[j + 1] < w[j]:
        yield swap_adjacent(w, j + 1), _divided_difference_raw(terms, j + 1)


def _zero_one_walk(w: Perm, terms: dict):
    """Yield the zero-one permutations of the ascent subtree under w, depth
    first, so only the polynomials on the current chain stay alive."""
    if all(c == 1 for c in terms.values()):
        yield w
    for child in _ascent_children(w, terms):
        yield from _zero_one_walk(*child)


def _count_walk(node) -> int:
    return sum(1 for _ in _zero_one_walk(*node))


def count_zero_one(p: int, jobs: int = 1) -> int:
    """Number of permutations in S_p with a zero-one Schubert polynomial.

    With jobs > 1 the root's p - 1 subtrees are walked by a pool of at most
    p - 1 processes; the root w0 itself, with the staircase monomial, counts
    as 1.  CapExceeded above p = CENSUS_CAP, before the walk."""
    if p < 1:
        raise ValueError("p must be positive")
    if p > CENSUS_CAP:
        raise CapExceeded(f"census for p = {p} exceeds the cap {CENSUS_CAP}")
    root = (longest_perm(p), staircase_terms(p))
    if jobs <= 1 or p <= 3:
        return _count_walk(root)
    with Pool(processes=min(jobs, p - 1)) as pool:
        return 1 + sum(pool.map(_count_walk, list(_ascent_children(*root))))


def zero_one_permutations(p: int) -> list[Perm]:
    """All w in S_p with zero-one Schubert polynomial, in lex order: the
    depth-first ascent walk down from the staircase monomial at w0."""
    return sorted(_zero_one_walk(longest_perm(p), staircase_terms(p)))


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
    from .stalactite import hsupp_from_msupp

    msupp, m = msupp_of_matrix_schubert(w)
    H = hsupp_from_msupp(msupp)
    return IntPolynomial._raw(
        len(m),
        {tuple(mi - ni for mi, ni in zip(m, n)): c for n, c in H.terms.items()},
    )


def grothendieck_via_mobius(w) -> IntPolynomial:
    """Grothendieck polynomial through the Mobius route on the downset poset."""
    from .mobius import kpoly_from_mobius

    msupp, m = msupp_of_matrix_schubert(w)
    return kpoly_from_mobius(msupp, m)
