"""Stalactite reconstruction of the full signed Hilbert support from a
multidegree support, plus facet shelling, lattice paths and dominance sums.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .lattice import (
    Check,
    EmptySetError,
    IntPolynomial,
    Point,
    PointSet,
    _cube_coding,
    _stalactite_walk,
    as_point,
    binomial_at,
    check_axis_order,
    class_floors,
    dominates,
    json_key,
    json_point,
    json_value,
    point_set_from_json,
    terms_text,
    top,
    unit_shift,
    value_zeta,
)
from .polymatroid import is_base_polymatroid


def stalactite(u: Point, indices) -> PointSet:
    """The 2^m points u - sum_{i in S} e_{l_i} over subsets S of the given
    distinct 1-based indices, each of which must lie in supp(u)."""
    u = as_point(u)
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate stalactite indices {idx}")
    for l in idx:
        if not 1 <= l <= len(u):
            raise ValueError(f"index {l} outside 1..{len(u)}")
        if u[l - 1] == 0:
            raise ValueError(f"index {l} not in the support of {u}")
    pts = []
    for bits in itertools.product((0, 1), repeat=len(idx)):
        w = list(u)
        for l, used in zip(idx, bits):
            w[l - 1] -= used
        pts.append(tuple(w))
    return PointSet(len(u), pts)


def neighbor_directions(u: Point, V: PointSet) -> tuple[int, ...]:
    """All 1-based l such that u - e_l + e_j lies in V for some j."""
    u = as_point(u, V.ambient_p)
    p = len(u)
    return tuple(
        l + 1
        for l in range(p)
        if u[l] and any(j != l and unit_shift(u, l, j) in V for j in range(p))
    )


def stalactite_union(T: PointSet, axis_order=None) -> list[tuple[Point, PointSet]]:
    """Sort T by the lex order of axis_order and attach to each point the
    stalactite taken against its predecessors.  Returns (point, stalactite)
    pairs in processing order."""
    p = T.ambient_p
    order = check_axis_order(range(1, p + 1) if axis_order is None else axis_order, p)
    pts = sorted(T.points, key=lambda q: [q[i - 1] for i in order])
    strides, decode = _cube_coding(max(itertools.chain(*pts), default=0) + 1, p)
    walk = _stalactite_walk(pts, strides)
    return [(a, PointSet._raw(p, map(decode, st))) for a, st in zip(pts, walk)]


def hsupp_from_msupp(msupp: PointSet) -> IntPolynomial:
    """Signed Hilbert support reconstructed from a multidegree support.

    msupp must be a nonempty homogeneous base polymatroid.  Points are
    processed in natural lex order; the coefficient at n is
    (-1)^(D - |n|) times the number of stalactites containing n, where D is
    the common coordinate sum.
    """
    if not msupp:
        raise EmptySetError("empty multidegree support")
    chk = is_base_polymatroid(msupp)
    if not chk:
        raise ValueError(f"multidegree support is not a base polymatroid: {chk.witness}")
    D = sum(msupp.points[0])
    strides, decode = _cube_coding(D + 1, msupp.ambient_p)  # no coordinate exceeds D
    counts = Counter(itertools.chain.from_iterable(_stalactite_walk(msupp.points, strides)))
    sign = lambda n: -1 if (D - sum(n)) % 2 else 1
    terms = {decode(x): c for x, c in counts.items()}
    return IntPolynomial._raw(msupp.ambient_p, {n: sign(n) * c for n, c in terms.items()})


def hilbert_eval(H: IntPolynomial, t) -> int:
    """Exact value sum_n H(n) * prod_i C(t_i + n_i, n_i) at an integer vector t."""
    t = tuple(int(x) for x in t)
    if len(t) != H.num_vars:
        raise ValueError(f"evaluation point {t} has wrong length")
    total = 0
    for n, c in H.terms.items():
        prod = c
        for ti, ni in zip(t, n):
            prod *= binomial_at(ti, ni)
        total += prod
    return total


def hilbert_text(H: IntPolynomial) -> str:
    """Render a Hilbert polynomial in binomial-product notation,
    one "+c*C(t1+n1,n1)*...*C(tp+np,np)" term per support point."""
    return terms_text(H, lambda i, n: f"C(t{i}+{n},{n})")


Facet = frozenset


def facet_of(n: Point, m: Point) -> Facet:
    """Vertex set {x_{i,j} : m_i - n_i <= j <= m_i} encoded as (i, j) pairs."""
    if not dominates(m, n):
        raise ValueError(f"{n} is not componentwise <= {m}")
    return frozenset(
        (i + 1, j) for i in range(len(n)) for j in range(m[i] - n[i], m[i] + 1)
    )


def facets_from_msupp(msupp: PointSet, m) -> list[Facet]:
    """Facets of the associated complex, sorted by lex on their generating points."""
    m = as_point(m, msupp.ambient_p)
    return [facet_of(n, m) for n in sorted(msupp)]


def facets_from_json(data) -> list[Facet]:
    """Facets from shelling JSON {"msupp": [[...], ...], "m": [...]}; m must
    be a point as long as the points of msupp."""
    json_value(data, dict, "$", 'an object {"msupp": [[...], ...], "m": [...]}')
    msupp = point_set_from_json(json_key(data, "msupp", "$"), path="$.msupp")
    return facets_from_msupp(msupp, json_point(json_key(data, "m", "$"), "$.m", msupp.ambient_p))


def verify_shelling(facets) -> Check:
    """Standard shelling test on an ordered pure facet list: each earlier
    overlap must extend to a codimension-one overlap with some predecessor."""
    facets = list(facets)
    sizes = {len(F) for F in facets}
    if len(sizes) > 1:
        raise ValueError(f"facets must share cardinality, got sizes {sorted(sizes)}")
    for i in range(1, len(facets)):
        Fi = facets[i]
        want = len(Fi) - 1
        big = [facets[k] & Fi for k in range(i) if len(facets[k] & Fi) == want]
        for j in range(i):
            inter = facets[j] & Fi
            if len(inter) == want:
                continue
            if not any(inter <= cap for cap in big):
                return Check(False, {"condition": "shelling", "i": i + 1, "j": j + 1})
    return Check(True)


def increasing_path_check(H: IntPolynomial) -> Check:
    """Every support point must reach a top point by +e_i steps inside the support."""
    if not H:
        return Check(True)
    supp = set(H.terms)
    mx = max(sum(q) for q in supp)
    reachable = {q for q in supp if sum(q) == mx}
    for s in range(mx - 1, -1, -1):
        for q in supp:
            if sum(q) != s:
                continue
            if any(unit_shift(q, None, i) in reachable for i in range(len(q))):
                reachable.add(q)
    stuck = sorted(supp - reachable)
    if stuck:
        return Check(False, {"condition": "increasing-path", "stuck": [list(q) for q in stuck]})
    return Check(True)


def mobius_sum_check(H: IntPolynomial, n) -> int:
    """Sum of H over all support points dominating n.  Requires a dominating
    top point to exist."""
    n = as_point(n, H.num_vars)
    tops = top(H.support())
    if not any(dominates(w, n) for w in tops):
        raise ValueError(f"no top support point dominates {n}")
    return sum(c for q, c in H.terms.items() if dominates(q, n))


def dominance_sums(H: IntPolynomial) -> dict[Point, int]:
    """S(n) = sum_{w >= n} H(w) by lattice.value_zeta, keyed by class floors
    (lattice.class_floors): S is constant on each class, and the classes tile
    the box from the origin to the support's maximum."""
    if not H:
        raise EmptySetError("empty support")
    values, sums = value_zeta(H.terms)
    return dict(zip(itertools.product(*class_floors(values)), sums))


def verify_mobius_sums(H: IntPolynomial) -> Check:
    """Check sum_{w >= n} H(w) = 1 for every n dominated by some top point:
    the classes where value_zeta of the tops' indicator is nonzero.  A failure
    names the first such n in natural lex order, its class floor."""
    sums = dominance_sums(H)
    tops = top(H.support())._set
    _, below = value_zeta({u: int(u in tops) for u in H.terms})
    for (n, s), hit in zip(sums.items(), below):
        if hit and s != 1:
            return Check(False, {"condition": "dominance-sum", "n": list(n), "sum": s})
    return Check(True)


def collapse_fixed_components(msupp: PointSet, m) -> tuple[PointSet, Point, tuple[int, ...]]:
    """Drop components where every point attains the ambient bound m_i.

    Returns (collapsed set, collapsed m, kept 1-based components).  Inverse:
    embed_signed_support below.
    """
    m = as_point(m, msupp.ambient_p)
    if not msupp:
        raise EmptySetError("cannot collapse an empty set")
    keep = tuple(
        i + 1
        for i in range(msupp.ambient_p)
        if any(q[i] != m[i] for q in msupp)
    )
    small = PointSet._raw(len(keep), (tuple(q[i - 1] for i in keep) for q in msupp))
    m_small = tuple(m[i - 1] for i in keep)
    return small, m_small, keep


def embed_signed_support(H: IntPolynomial, keep, m) -> IntPolynomial:
    """Inverse of the collapse on a signed support: dropped slots get back m_i."""
    m = as_point(m)
    terms = []
    for q, c in H.terms.items():
        w = list(m)
        for value, i in zip(q, keep):
            w[i - 1] = value
        terms.append((w, c))
    return IntPolynomial(len(m), terms)
