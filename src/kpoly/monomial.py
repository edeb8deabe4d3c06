"""Brute-force and closed-form oracles for square-free ideals generated by
Borel-fixed monomial primes: inclusion-exclusion Hilbert and K-polynomials,
the shellable per-facet refinement, and direct Hilbert-function counting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .lattice import (
    CapExceeded,
    IntPolynomial,
    Point,
    PointSet,
    as_point,
    dominates,
    downset_difference,
    vec_max,
    vec_sub,
)

DEFAULT_SUBSET_CAP = 20


def subset_cap(cap: int | None = None) -> int:
    """The subset route's prime cap: cap, or DEFAULT_SUBSET_CAP when None."""
    return DEFAULT_SUBSET_CAP if cap is None else cap


@dataclass(frozen=True)
class BorelPrime:
    """Monomial prime generated by the first a_i variables of each component,
    inside the ambient with m_i + 1 variables of each degree e_i."""

    a: Point
    m: Point

    def __post_init__(self):
        a = as_point(self.a)
        m = as_point(self.m, len(a))
        if not dominates(m, a):
            raise ValueError(f"prime vector {a} exceeds ambient {m}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class SquareFreeIdeal:
    """Intersection of pairwise incomparable Borel primes, stored as the
    tuple of a-vectors in the caller's order (the order matters for the
    shellable refinement)."""

    m: Point
    primes: tuple[Point, ...]

    def __post_init__(self):
        m = as_point(self.m)
        primes = tuple(as_point(a, len(m)) for a in self.primes)
        if not primes:
            raise ValueError("an ideal needs at least one minimal prime")
        for a in primes:
            if not dominates(m, a):
                raise ValueError(f"prime vector {a} exceeds ambient {m}")
        # a prime strictly above another has the larger coordinate sum, so
        # equal sums need only an equality test and dominates runs across sums
        levels: dict[int, dict[Point, int]] = {}  # sum -> {prime: first index}
        for k, a in enumerate(primes):
            if levels.setdefault(sum(a), {}).setdefault(a, k) != k:
                raise ValueError(f"primes {a} and {a} are comparable")
        for s, t in itertools.combinations(sorted(levels), 2):
            for (a, k), (b, l) in itertools.product(levels[s].items(), levels[t].items()):
                if dominates(b, a):
                    a, b = (a, b) if k < l else (b, a)
                    raise ValueError(f"primes {a} and {b} are comparable")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "primes", primes)

    @classmethod
    def _raw(cls, m: Point, primes: tuple[Point, ...]) -> "SquareFreeIdeal":
        """Trusted constructor for an ideal derived from checked data."""
        J = object.__new__(cls)
        vars(J).update(m=m, primes=primes)
        return J

    @property
    def ambient_p(self) -> int:
        return len(self.m)

    def borel_primes(self) -> list[BorelPrime]:
        return [BorelPrime(a, self.m) for a in self.primes]


def prime_sum(primes) -> BorelPrime:
    """Sum of Borel primes = componentwise max of their a-vectors."""
    primes = list(primes)
    if not primes:
        raise ValueError("sum of an empty prime list")
    m = primes[0].m
    a = primes[0].a
    for q in primes[1:]:
        if q.m != m:
            raise ValueError("primes live in different ambients")
        a = vec_max(a, q.a)
    return BorelPrime(a, m)


def hilbert_poly_prime(q: BorelPrime) -> IntPolynomial:
    """Single binomial-product term at n = m - a with coefficient 1."""
    return IntPolynomial._raw(len(q.m), {vec_sub(q.m, q.a): 1})


def _ie_coefficients_subsets(gens: list[Point], cap: int) -> dict[Point, int]:
    """Signed subset sums grouped by join, by Gray-code iteration over 2^k - 1
    nonempty subsets (incremental max on insert, recompute on removal)."""
    k = len(gens)
    if k > cap:
        raise CapExceeded(
            f"inclusion-exclusion over {k} primes exceeds the 2^{cap} subset cap"
        )
    coeffs: dict[Point, int] = {}
    members: list[bool] = [False] * k
    size = 0
    current: Point | None = None
    prev_gray = 0
    for g in range(1, 1 << k):
        gray = g ^ (g >> 1)
        bit = (gray ^ prev_gray).bit_length() - 1
        prev_gray = gray
        if members[bit]:
            members[bit] = False
            size -= 1
            current = None
            for i in range(k):
                if members[i]:
                    current = gens[i] if current is None else vec_max(current, gens[i])
        else:
            members[bit] = True
            size += 1
            current = gens[bit] if current is None else vec_max(current, gens[bit])
        if size == 0:
            continue
        sign = 1 if (size - 1) % 2 == 0 else -1
        coeffs[current] = coeffs.get(current, 0) + sign
    return {v: c for v, c in coeffs.items() if c}


def _ie_coefficients_lattice(gens: list[Point]) -> dict[Point, int]:
    """Same signed sums by Mobius inversion: sum_{w <= v} c_w is 1 exactly on
    the up-set of the generators, so c is that indicator differenced along
    every axis.  Only the generators' coordinate values matter; ranking each
    axis by descending value turns the up-set into the downset of the ranked
    generators, which lattice.downset_difference differences on the rank grid
    (CapExceeded above GRID_CAP cells, checked before allocating)."""
    p = len(gens[0])
    values = [sorted({g[i] for g in gens}, reverse=True) for i in range(p)]
    ranks = [{x: r for r, x in enumerate(vs)} for vs in values]
    ranked = [tuple(rk[x] for rk, x in zip(ranks, g)) for g in gens]
    diff = downset_difference(ranked)
    return {tuple(vs[r] for vs, r in zip(values, u)): c for u, c in diff.items()}


def ie_join_coefficients(J: SquareFreeIdeal, method: str = "lattice", cap: int | None = None) -> dict[Point, int]:
    """Coefficient of each prime sum p_v in the inclusion-exclusion expansion.

    method: "lattice" (Mobius inversion on the rank grid, the production
    route) or "subsets" (the literal Gray-code sum over all 2^k - 1 subsets,
    refused above cap primes; kept as the oracle the tests compare against).
    """
    gens = list(J.primes)
    if method == "lattice":
        return _ie_coefficients_lattice(gens)
    if method == "subsets":
        return _ie_coefficients_subsets(gens, subset_cap(cap))
    raise ValueError(f"unknown IE method {method!r}")


def hilbert_poly_ie(J: SquareFreeIdeal, method: str = "lattice", cap: int | None = None) -> IntPolynomial:
    """Inclusion-exclusion Hilbert polynomial: signed binomial-product terms
    at m - join over all nonempty prime subsets, like terms combined."""
    coeffs = ie_join_coefficients(J, method, cap)
    # every join of primes lies below m
    return IntPolynomial._raw(J.ambient_p, {tuple(a - b for a, b in zip(J.m, v)): c for v, c in coeffs.items()})


def k_poly_ie(J: SquareFreeIdeal, method: str = "lattice", cap: int | None = None) -> IntPolynomial:
    """Inclusion-exclusion twisted K-polynomial: the prime p_a contributes z^a."""
    return IntPolynomial._raw(J.ambient_p, ie_join_coefficients(J, method, cap))


def msupp_to_ideal(msupp: PointSet, m) -> SquareFreeIdeal:
    """Primes p_{m - n} for n in msupp, ordered by natural lex on msupp
    (which is the shelling order of the associated facets)."""
    m = as_point(m, msupp.ambient_p)
    if not msupp:
        raise ValueError("empty multidegree support")
    sums = {sum(q) for q in msupp}
    if len(sums) > 1:
        raise ValueError("multidegree support must be homogeneous")
    for n in msupp:
        if not dominates(m, n):
            raise ValueError(f"point {n} exceeds ambient {m}")
    # distinct points of one coordinate sum give pairwise incomparable primes
    return SquareFreeIdeal._raw(m, tuple(tuple(a - b for a, b in zip(m, n)) for n in msupp))


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
        add(vec_sub(J.m, aj), 1)
        block: list[Point] = []
        seen = set()
        for l in range(j):
            q = vec_max(J.primes[l], aj)
            if sum(q) == c + 1 and q not in seen:
                seen.add(q)
                block.append(q)
        for r in range(1, len(block) + 1):
            sign = 1 if (r - 1) % 2 == 0 else -1
            for sub in itertools.combinations(block, r):
                v = sub[0]
                for q in sub[1:]:
                    v = vec_max(v, q)
                add(vec_sub(J.m, v), -sign)
    return IntPolynomial._raw(J.ambient_p, acc)


def _compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` nonnegative ints."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def count_monomials(v: Point, m: Point) -> int:
    return math.prod(math.comb(vi + mi, mi) for vi, mi in zip(v, m))


def hilbert_function_bruteforce(J: SquareFreeIdeal, v, cap: int = 2_000_000) -> int:
    """Number of multidegree-v monomials outside J, computed two ways:

    * direct enumeration of all monomials of multidegree v (a monomial
      survives iff its variables avoid some minimal prime entirely), and
    * the closed form: the IE Hilbert polynomial evaluated at v.

    The two counts must agree; a mismatch is an internal error.
    """
    from .stalactite import hilbert_eval

    v = as_point(v, J.ambient_p)
    n_monomials = count_monomials(v, J.m)
    if n_monomials > cap:
        raise CapExceeded(f"{n_monomials} monomials exceed the enumeration cap {cap}")

    # A monomial avoids p_a iff, in every component i, it only uses variables
    # x_{i,j} with j >= a_i; only the smallest used index per component matters.
    per_component = []
    for vi, mi in zip(v, J.m):
        mins = []
        for comp in _compositions(vi, mi + 1):
            first = next((j for j, e in enumerate(comp) if e), None)
            mins.append(first)  # None when vi == 0: no constraint
        per_component.append(mins)

    coverage: dict[tuple, bool] = {}

    def covered(s: tuple) -> bool:
        hit = coverage.get(s)
        if hit is None:
            hit = any(
                all(si is None or si >= ai for si, ai in zip(s, a)) for a in J.primes
            )
            coverage[s] = hit
        return hit

    direct = sum(1 for s in itertools.product(*per_component) if covered(s))

    closed = hilbert_eval(hilbert_poly_ie(J), v)
    if direct != closed:
        raise RuntimeError(
            f"internal inconsistency: direct count {direct} != closed form {closed} at {v}"
        )
    return direct
