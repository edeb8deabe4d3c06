"""Square-free ideals generated by Borel-fixed monomial primes and their
inclusion-exclusion Hilbert polynomials by Mobius inversion on a lattice.
The tests compare it against the literal subset sum, capped at SUBSET_CAP
primes.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from operator import sub

from .lattice import (
    IntPolynomial,
    Point,
    PointSet,
    Record,
    as_point,
    check_ambient,
    dominates,
    downset_difference,
)

# primes the tests' literal subset oracle may take (2^k - 1 subsets)
SUBSET_CAP = 20


def subset_cap(cap: int | None = None) -> int:
    """The subset route's prime cap: cap, or SUBSET_CAP when None."""
    return SUBSET_CAP if cap is None else cap


class SquareFreeIdeal(Record):
    """Intersection of pairwise incomparable Borel primes, stored as the
    tuple of a-vectors in the caller's order (the order matters for the
    shellable refinement)."""

    __slots__ = ("m", "primes")

    def __init__(self, m: Point, primes: tuple[Point, ...]):
        m = as_point(m)
        primes = tuple(as_point(a, len(m)) for a in primes)
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
        super().__init__(m, primes)

    @classmethod
    def _raw(cls, m: Point, primes: tuple[Point, ...]) -> "SquareFreeIdeal":
        """Trusted constructor for an ideal derived from checked data."""
        J = object.__new__(cls)
        Record.__init__(J, m, primes)
        return J

    @property
    def ambient_p(self) -> int:
        return len(self.m)


def _ie_coefficients_lattice(gens: Sequence[Point]) -> dict[Point, int]:
    """Coefficient c_v of each prime sum p_v in the inclusion-exclusion
    expansion, by Mobius inversion: sum_{w <= v} c_w is 1 exactly on the
    up-set of the generators, so c is that indicator differenced along every
    axis.  Reflecting through the
    generators' componentwise max M, u -> M - u, turns the up-set into the
    downset of the reflected generators, which lattice.downset_difference,
    the Mobius kernel, differences on their value grid, one lane per cell of
    a single Python int (CapExceeded above GRID_CAP cells, checked before
    allocating)."""
    M = tuple(map(max, zip(*gens)))
    diff = downset_difference([tuple(map(sub, M, g)) for g in gens])
    return {tuple(map(sub, M, u)): c for u, c in diff.items()}


def hilbert_poly_ie(J: SquareFreeIdeal) -> IntPolynomial:
    """Inclusion-exclusion Hilbert polynomial: signed binomial-product terms
    at m - join over all nonempty prime subsets, like terms combined."""
    coeffs = _ie_coefficients_lattice(J.primes)
    # every join of primes lies below m
    return IntPolynomial._raw(J.ambient_p, {tuple(a - b for a, b in zip(J.m, v)): c for v, c in coeffs.items()})


def msupp_to_ideal(msupp: PointSet, m) -> SquareFreeIdeal:
    """Primes p_{m - n} for n in msupp, ordered by natural lex on msupp
    (which is the shelling order of the associated facets)."""
    m = check_ambient(msupp, m)
    if not msupp:
        raise ValueError("empty multidegree support")
    sums = {sum(q) for q in msupp}
    if len(sums) > 1:
        raise ValueError("multidegree support must be homogeneous")
    # distinct points of one coordinate sum give pairwise incomparable primes
    return SquareFreeIdeal._raw(m, tuple(tuple(a - b for a, b in zip(m, n)) for n in msupp))
