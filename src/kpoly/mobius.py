"""Mobius function of the poset attached to a base polymatroid (its downset
with a maximum adjoined), the deg = -mu identity, K-polynomials from mu,
and the matroid specialization via coloops and contraction.
"""

from __future__ import annotations

import itertools

from .lattice import (
    CapExceeded,
    Check,
    EmptySetError,
    IntPolynomial,
    Point,
    PointSet,
    Record,
    as_point,
    check_ambient,
    dominates,
    downset,
    downset_difference,
    first_difference,
    json_key,
    json_value,
    point_set_from_json,
)
from .polymatroid import is_base_polymatroid, is_g_polymatroid, rank_functions, trusted_base_polymatroid
from .stalactite import hsupp_from_msupp


# downset elements the recursive oracle, quadratic in them, may walk
RECURSIVE_CAP = 10_000


def mobius_to_top(P: PointSet) -> IntPolynomial:
    """mu(u, 1hat) for every u in the downset of P, as a signed support.

    Intervals inside a downset are full boxes, so mu(u, 1hat) = -sum over
    0/1 offsets s with u+s in the downset of (-1)^|s|: minus the difference
    of the downset's indicator along every axis, computed by
    lattice.downset_difference on the grid of the values P takes on each
    axis, held as one lane per cell of a single Python int (CapExceeded
    above GRID_CAP cells, checked before allocating).
    """
    chk = is_base_polymatroid(P)
    if not chk:
        raise ValueError(f"not a base polymatroid: {chk.witness}")
    if not P:
        raise EmptySetError("empty polymatroid")
    diff = downset_difference(P)
    return IntPolynomial._raw(P.ambient_p, {u: -c for u, c in diff.items()})


def _mobius_recursive(P: PointSet) -> IntPolynomial:
    """The tests' oracle for mobius_to_top on a base polymatroid P: the
    generic first-argument recursion mu(u) = -(1 + sum_{w>u} mu(w)) over the
    literal lattice.downset of at most RECURSIVE_CAP elements, sharing no
    code with mobius_to_top."""
    ds = downset(P)
    if len(ds) > RECURSIVE_CAP:
        raise CapExceeded(f"downset has {len(ds)} elements (recursive cap {RECURSIVE_CAP})")
    mu: dict[Point, int] = {}
    for u in sorted(ds, key=lambda q: (-sum(q), q)):
        mu[u] = -(1 + sum(mu[w] for w in mu if w != u and dominates(w, u)))
    return IntPolynomial._raw(P.ambient_p, {u: c for u, c in mu.items() if c})


def mu_support(P: PointSet) -> PointSet:
    """Points of the downset where mu(., 1hat) does not vanish."""
    return mobius_to_top(P).support()


def verify_deg_equals_neg_mobius(msupp: PointSet) -> Check:
    """Hilbert coefficients from stalactites must equal -mu everywhere,
    including the vanishing off the Hilbert support."""
    H = hsupp_from_msupp(msupp)
    neg = {q: -c for q, c in mobius_to_top(msupp).terms.items()}
    if neg == H.terms:
        return Check(True)
    n, coeffs = first_difference({"deg": H.terms, "neg_mu": neg})
    return Check(False, {"condition": "deg-vs-mobius", "n": n, **coeffs})


def kpoly_from_mobius(msupp: PointSet, m) -> IntPolynomial:
    """Twisted K-polynomial via order reversal: the coefficient of z^{m-u}
    is -mu(u, 1hat)."""
    m = check_ambient(msupp, m)
    MU = mobius_to_top(msupp)
    # every u lies below a point of msupp, so below m
    return IntPolynomial._raw(len(m), {tuple(a - b for a, b in zip(m, u)): -c for u, c in MU.terms.items()})


# ---------------------------------------------------------------------------
# matroids

class Matroid(Record):
    """Matroid given by its set of bases as 0/1 indicator vectors."""

    __slots__ = ("ground", "bases")

    def __init__(self, ground: int, bases: PointSet):
        if bases.ambient_p != ground:
            raise ValueError("basis vectors must have length equal to the ground size")
        if not bases and ground >= 0:
            raise ValueError("a matroid needs at least one basis")
        for b in bases:
            if any(c not in (0, 1) for c in b):
                raise ValueError(f"basis {b} is not a 0/1 vector")
        chk = is_base_polymatroid(bases)
        if not chk:
            raise ValueError(f"basis exchange fails: {chk.witness}")
        super().__init__(ground, bases)

    @property
    def rank(self) -> int:
        return sum(self.bases.points[0])


def coloops(M: Matroid) -> tuple[int, ...]:
    """1-based ground elements present in every basis."""
    return tuple(
        i + 1 for i in range(M.ground) if all(b[i] == 1 for b in M.bases)
    )


def contraction(M: Matroid, I) -> Matroid:
    """Contract an independent 0/1 vector; the result lives on the
    complementary ground elements."""
    I = as_point(I, M.ground)
    if any(c not in (0, 1) for c in I):
        raise ValueError(f"{I} is not a 0/1 vector")
    containing = [b for b in M.bases if dominates(b, I)]
    if not containing:
        raise ValueError(f"{I} is not independent (no basis contains it)")
    keep = [i for i in range(M.ground) if I[i] == 0]
    new_bases = {tuple(b[i] for i in keep) for b in containing}
    return Matroid(len(keep), PointSet(len(keep), new_bases))


def independent_sets(M: Matroid) -> PointSet:
    """Downset of the bases: all independent sets as indicator vectors."""
    return downset(M.bases)


def reduced_euler_characteristic(M: Matroid) -> int:
    """Reduced Euler characteristic of the independence complex:
    sum over faces I (including the empty one) of (-1)^(|I| - 1)."""
    return _reduced_euler(independent_sets(M))


def _reduced_euler(faces: PointSet) -> int:
    return sum(-1 if sum(I) % 2 == 0 else 1 for I in faces)


def verify_matroid_mu_theorem(M: Matroid) -> Check:
    """Check the matroid form of the mu-support description:
    (a) mu(0hat, 1hat) equals the reduced Euler characteristic,
    (b) it vanishes exactly when a coloop exists,
    (c) the mu-support is the coloop set plus the independent sets of the
        contraction by all coloops,
    (d) the mu-support is a g-polymatroid.
    """
    MU = mobius_to_top(M.bases)
    faces = independent_sets(M)
    chi = _reduced_euler(faces)
    mu0 = MU.coeff((0,) * M.ground)
    if chi != mu0:
        return Check(False, {"condition": "euler-vs-mu", "chi": chi, "mu0": mu0})
    cl = coloops(M)
    if (chi == 0) != bool(cl):
        return Check(False, {"condition": "coloop-vanishing", "chi": chi, "coloops": list(cl)})
    ones = tuple(1 if (i + 1) in cl else 0 for i in range(M.ground))
    # coloops lie in every basis, so the independent sets of the contraction
    # by them, the coloops put back, are the faces that contain them
    expected = {I for I in faces if dominates(I, ones)}
    actual = MU.support()
    if expected != actual._set:
        return Check(
            False,
            {
                "condition": "mu-support-description",
                "missing": [list(q) for q in sorted(expected - actual._set)],
                "extra": [list(q) for q in sorted(actual._set - expected)],
            },
        )
    chk = is_g_polymatroid(actual, "paramodular")
    if not chk:
        return Check(False, {"condition": "mu-support-g-polymatroid", "cause": chk.witness})
    return Check(True)


def matroids_on_ground(p: int):
    """Every matroid on ground set [p]: the bases of each rank function with
    singleton ranks at most 1."""
    for f in rank_functions(p, 1):
        yield Matroid(p, trusted_base_polymatroid(f))


def matroid_to_json(M: Matroid) -> dict:
    return {"p": M.ground, "bases": [list(b) for b in M.bases]}


def matroid_from_json(data) -> Matroid:
    json_value(data, dict, "$", 'an object {"p": int, "bases": [[...], ...]}')
    p = json_value(json_key(data, "p", "$"), int, "$.p", "a nonnegative int", minimum=0)
    return Matroid(p, point_set_from_json(json_key(data, "bases", "$"), p, "$.bases"))


# ---------------------------------------------------------------------------
# conjecture harness: is the mu-support of every base polymatroid a
# g-polymatroid?  The survey reports and never asserts.

# rank functions the survey may visit; `explore --max-p 4 --max-coord 3`
# visits 35 087
SURVEY_CAP = 50_000


def mu_support_survey(max_p: int, max_coord: int) -> dict:
    """Record whether the mu-support of every loopless base polymatroid on
    [p], p = 2..max_p, with singleton ranks at most max_coord is a
    g-polymatroid.  A failure here would be a counterexample worth
    publishing, so the survey only reports.  Raises CapExceeded before any
    mu-support when the walk visits more than SURVEY_CAP rank functions, and
    before the walk when max_p >= 7: the 75 164 matroids on 7 elements
    (OEIS A058673) alone exceed the cap."""
    if max_p >= 7:
        raise CapExceeded(f"survey on {max_p} elements visits more than {SURVEY_CAP} rank functions")
    walk = (f for p in range(2, max_p + 1) for f in rank_functions(p, max_coord))
    ranks = list(itertools.islice(walk, SURVEY_CAP + 1))
    if len(ranks) > SURVEY_CAP:
        raise CapExceeded(f"survey visits more than {SURVEY_CAP} rank functions")
    loopless = [f for f in ranks if all(f[1 << i] for i in range(len(f).bit_length() - 1))]
    failures = [[list(q) for q in P] for P in map(trusted_base_polymatroid, loopless)
                if not is_g_polymatroid(mu_support(P), "paramodular")]
    return {"tested": len(loopless), "g_polymatroid": len(loopless) - len(failures), "failures": failures}
