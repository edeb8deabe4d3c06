"""Mobius function of the poset attached to a base polymatroid (its downset
with a maximum adjoined), the deg = -mu identity, K-polynomials from mu,
and the matroid specialization via coloops and contraction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .lattice import (
    CapExceeded,
    Check,
    EmptySetError,
    IntPolynomial,
    Point,
    PointSet,
    as_point,
    dominates,
    downset,
    downset_difference,
    json_key,
    json_value,
    point_set_from_json,
)
from .polymatroid import is_base_polymatroid, is_g_polymatroid


def mobius_to_top(P: PointSet, method: str = "closed", cap: int = 10_000) -> IntPolynomial:
    """mu(u, 1hat) for every u in the downset of P, as a signed support.

    closed     uses that intervals inside a downset are full boxes, so
               mu(u, 1hat) = -sum over 0/1 offsets s with u+s in the downset
               of (-1)^|s|: minus the difference of the downset's indicator
               along every axis, computed by lattice.downset_difference on the
               bounding box of P (CapExceeded above GRID_CAP cells, checked
               before allocating)
    recursive  generic first-argument recursion mu(u) = -(1 + sum_{w>u} mu(w))
               over the literal lattice.downset, kept as a cross-check oracle
               with a size cap; it shares no code with the closed form
    """
    chk = is_base_polymatroid(P)
    if not chk:
        raise ValueError(f"not a base polymatroid: {chk.witness}")
    if not P:
        raise EmptySetError("empty polymatroid")
    if method == "closed":
        diff = downset_difference(P)
        return IntPolynomial._raw(P.ambient_p, {u: -c for u, c in diff.items()})
    if method == "recursive":
        ds = downset(P)
        if len(ds) > cap:
            raise CapExceeded(f"downset has {len(ds)} elements (recursive cap {cap})")
        by_sum_desc = sorted(ds, key=lambda q: (-sum(q), q))
        mu: dict[Point, int] = {}
        for u in by_sum_desc:
            above = sum(mu[w] for w in mu if w != u and dominates(w, u))
            mu[u] = -(1 + above)
        return IntPolynomial._raw(P.ambient_p, {u: c for u, c in mu.items() if c})
    raise ValueError(f"unknown mobius method {method!r}")


def mu_support(P: PointSet) -> PointSet:
    """Points of the downset where mu(., 1hat) does not vanish."""
    return mobius_to_top(P).support()


def verify_deg_equals_neg_mobius(msupp: PointSet) -> Check:
    """Hilbert coefficients from stalactites must equal -mu everywhere,
    including the vanishing off the Hilbert support."""
    from .stalactite import hsupp_from_msupp

    H = hsupp_from_msupp(msupp)
    MU = mobius_to_top(msupp)
    neg = {q: -c for q, c in MU.terms.items()}
    if neg == H.terms:
        return Check(True)
    bad = sorted(set(neg) ^ set(H.terms)) or sorted(
        q for q in neg if neg[q] != H.terms.get(q)
    )
    q = bad[0]
    return Check(
        False,
        {
            "condition": "deg-vs-mobius",
            "n": list(q),
            "deg": H.terms.get(q, 0),
            "neg_mu": neg.get(q, 0),
        },
    )


def kpoly_from_mobius(msupp: PointSet, m) -> IntPolynomial:
    """Twisted K-polynomial via order reversal: the coefficient of z^{m-u}
    is -mu(u, 1hat)."""
    m = as_point(m, msupp.ambient_p)
    for n in msupp:
        if not dominates(m, n):
            raise ValueError(f"point {n} exceeds ambient {m}")
    MU = mobius_to_top(msupp)
    # every u lies below a point of msupp, so below m
    return IntPolynomial._raw(len(m), {tuple(a - b for a, b in zip(m, u)): -c for u, c in MU.terms.items()})


# ---------------------------------------------------------------------------
# matroids

@dataclass(frozen=True)
class Matroid:
    """Matroid given by its set of bases as 0/1 indicator vectors."""

    ground: int
    bases: PointSet

    def __post_init__(self):
        if self.bases.ambient_p != self.ground:
            raise ValueError("basis vectors must have length equal to the ground size")
        if not self.bases and self.ground >= 0:
            raise ValueError("a matroid needs at least one basis")
        for b in self.bases:
            if any(c not in (0, 1) for c in b):
                raise ValueError(f"basis {b} is not a 0/1 vector")
        chk = is_base_polymatroid(self.bases)
        if not chk:
            raise ValueError(f"basis exchange fails: {chk.witness}")

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
    return sum(-1 if sum(I) % 2 == 0 else 1 for I in independent_sets(M))


def verify_matroid_mu_theorem(M: Matroid) -> Check:
    """Check the matroid form of the mu-support description:
    (a) mu(0hat, 1hat) equals the reduced Euler characteristic,
    (b) it vanishes exactly when a coloop exists,
    (c) the mu-support is the coloop set plus the independent sets of the
        contraction by all coloops,
    (d) the mu-support is a g-polymatroid.
    """
    MU = mobius_to_top(M.bases)
    chi = reduced_euler_characteristic(M)
    mu0 = MU.coeff((0,) * M.ground)
    if chi != mu0:
        return Check(False, {"condition": "euler-vs-mu", "chi": chi, "mu0": mu0})
    cl = coloops(M)
    if (chi == 0) != bool(cl):
        return Check(False, {"condition": "coloop-vanishing", "chi": chi, "coloops": list(cl)})
    ones = tuple(1 if (i + 1) in cl else 0 for i in range(M.ground))
    MA = contraction(M, ones) if cl else M
    keep = [i for i in range(M.ground) if ones[i] == 0]
    expected = set()
    for x in independent_sets(MA):
        full = list(ones)
        for value, i in zip(x, keep):
            full[i] = value
        expected.add(tuple(full))
    actual = set(MU.support())
    if expected != actual:
        return Check(
            False,
            {
                "condition": "mu-support-description",
                "missing": [list(q) for q in sorted(expected - actual)],
                "extra": [list(q) for q in sorted(actual - expected)],
            },
        )
    chk = is_g_polymatroid(MU.support(), "paramodular")
    if not chk:
        return Check(False, {"condition": "mu-support-g-polymatroid", "cause": chk.witness})
    return Check(True)


def matroids_on_ground(p: int):
    """Every matroid on ground set [p], enumerated by filtering all nonempty
    families of equal-weight 0/1 vectors through basis exchange."""
    for r in range(0, p + 1):
        candidates = [
            tuple(1 if i in S else 0 for i in range(p))
            for S in map(set, itertools.combinations(range(p), r))
        ]
        for size in range(1, len(candidates) + 1):
            for family in itertools.combinations(candidates, size):
                B = PointSet(p, family)
                if is_base_polymatroid(B):
                    yield Matroid(p, B)


def matroid_to_json(M: Matroid) -> dict:
    return {"p": M.ground, "bases": [list(b) for b in M.bases]}


def matroid_from_json(data) -> Matroid:
    json_value(data, dict, "$", 'an object {"p": int, "bases": [[...], ...]}')
    p = json_value(json_key(data, "p", "$"), int, "$.p", "a nonnegative int", minimum=0)
    return Matroid(p, point_set_from_json(json_key(data, "bases", "$"), p, "$.bases"))


# ---------------------------------------------------------------------------
# conjecture harness: is the mu-support of every base polymatroid a
# g-polymatroid?  The survey reports and never asserts.

def random_base_polymatroid(rng: random.Random, p: int, coord_max: int, grow_steps: int = 40) -> PointSet | None:
    """Try to produce a base polymatroid by repairing a random homogeneous
    seed set: failed exchanges get their missing targets inserted."""
    total = rng.randint(1, coord_max * p // 2 + 1)

    def random_point():
        q = [0] * p
        for _ in range(total):
            choices = [i for i in range(p) if q[i] < coord_max]
            if not choices:
                return None
            q[rng.choice(choices)] += 1
        return tuple(q)

    seeds = []
    for _ in range(rng.randint(1, 4)):
        q = random_point()
        if q is not None:
            seeds.append(q)
    if not seeds:
        return None
    pts = set(seeds)
    for _ in range(grow_steps):
        P = PointSet(p, pts)
        chk = is_base_polymatroid(P)
        if chk:
            return P
        w = chk.witness
        u, v, i = tuple(w["u"]), tuple(w["v"]), w["i"] - 1
        fixes = [
            tuple(c - (k == i) + (k == j) for k, c in enumerate(u))
            for j in range(p)
            if u[j] < v[j]
        ]
        if not fixes:
            return None
        pts.add(rng.choice(fixes))
    return None


def mu_support_survey(count: int, p: int, coord_max: int, seed: int) -> dict:
    """Generate base polymatroids and record whether each mu-support is a
    g-polymatroid.  A failure here would be a counterexample worth
    publishing, so the survey only reports."""
    rng = random.Random(seed)
    tested = 0
    attempts = 0
    failures = []
    while tested < count and attempts < count * 50:
        attempts += 1
        P = random_base_polymatroid(rng, rng.randint(2, p), coord_max)
        if P is None:
            continue
        tested += 1
        supp = mu_support(P)
        if not is_g_polymatroid(supp, "paramodular"):
            failures.append([list(q) for q in P])
    return {
        "tested": tested,
        "g_polymatroid": tested - len(failures),
        "failures": failures,
    }
