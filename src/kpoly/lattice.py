"""Lattice-point primitives shared by every other module.

Points are plain tuples of nonnegative ints.  Finite point sets, signed
supports (point -> nonzero coefficient) and sparse integer polynomials are
small immutable wrappers around sorted tuples and dicts, so equality,
hashing and iteration order are canonical.
"""

from __future__ import annotations

import itertools
import math

Point = tuple[int, ...]


class DimensionError(ValueError):
    """Point lengths or variable counts do not match."""


class EmptySetError(ValueError):
    """Operation requires a nonempty set (max, top, homogenize, ...)."""


class CapExceeded(RuntimeError):
    """A configured resource cap (subset count, enumeration size) was hit."""


class Check:
    """Boolean verdict that carries a witness when it is False.

    Truthiness matches the verdict, so ``assert is_base_polymatroid(P)``
    works and the witness stays available for reporting.
    """

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: dict | None = None):
        self.ok = bool(ok)
        self.witness = witness

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        if self.ok:
            return "Check(ok=True)"
        return f"Check(ok=False, witness={self.witness!r})"


def as_point(coords, p: int | None = None) -> Point:
    pt = tuple(coords)
    for c in pt:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"coordinates must be ints, got {c!r}")
        if c < 0:
            raise ValueError(f"negative coordinate in {pt}")
    if p is not None and len(pt) != p:
        raise DimensionError(f"expected a point of length {p}, got {pt}")
    return pt


def dominates(u: Point, v: Point) -> bool:
    """u >= v componentwise."""
    return all(a >= b for a, b in zip(u, v))


def vec_max(u: Point, v: Point) -> Point:
    return tuple(max(a, b) for a, b in zip(u, v))


def vec_min(u: Point, v: Point) -> Point:
    return tuple(min(a, b) for a, b in zip(u, v))


def vec_sub(u: Point, v: Point) -> Point:
    out = tuple(a - b for a, b in zip(u, v))
    if any(c < 0 for c in out):
        raise ValueError(f"{u} - {v} leaves the nonnegative orthant")
    return out


def unit_shift(u: Point, minus: int | None = None, plus: int | None = None) -> Point:
    """u - e_minus + e_plus with 0-based indices; either side optional."""
    w = list(u)
    if minus is not None:
        w[minus] -= 1
    if plus is not None:
        w[plus] += 1
    return tuple(w)


def check_axis_order(axis_order, p: int) -> tuple[int, ...]:
    order = tuple(axis_order)
    if sorted(order) != list(range(1, p + 1)):
        raise ValueError(f"axis order {order} is not a permutation of 1..{p}")
    return order


def lex_key(u: Point, axis_order=None) -> Point:
    """Key tuple comparing coordinates in the sequence given by axis_order (1-based)."""
    if axis_order is None:
        return u
    order = check_axis_order(axis_order, len(u))
    return tuple(u[i - 1] for i in order)


def lex_compare(u: Point, v: Point, axis_order=None) -> int:
    """-1, 0 or +1: lexicographic comparison along axis_order; first strict difference decides."""
    if len(u) != len(v):
        raise DimensionError(f"cannot compare {u} and {v}")
    ku, kv = lex_key(u, axis_order), lex_key(v, axis_order)
    if ku < kv:
        return -1
    if ku > kv:
        return 1
    return 0


class PointSet:
    """Finite set of lattice points in N^p, stored sorted in natural lex order."""

    __slots__ = ("ambient_p", "points", "_set")

    def __init__(self, ambient_p: int, points=()):
        if not isinstance(ambient_p, int) or ambient_p < 0:
            raise DimensionError(f"bad ambient dimension {ambient_p!r}")
        pts = {as_point(q, ambient_p) for q in points}
        self.ambient_p = ambient_p
        self.points = tuple(sorted(pts))
        self._set = frozenset(pts)

    def __contains__(self, q) -> bool:
        return tuple(q) in self._set

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __bool__(self) -> bool:
        return bool(self.points)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.ambient_p == other.ambient_p
            and self.points == other.points
        )

    def __hash__(self) -> int:
        return hash((self.ambient_p, self.points))

    def __repr__(self) -> str:
        return f"PointSet(p={self.ambient_p}, {list(self.points)})"


def point_set(points, ambient_p: int | None = None) -> PointSet:
    """Build a PointSet, inferring the ambient dimension from the first point."""
    pts = [as_point(q) for q in points]
    if ambient_p is None:
        if not pts:
            raise EmptySetError("cannot infer ambient dimension of an empty set")
        ambient_p = len(pts[0])
    return PointSet(ambient_p, pts)


def truncate(A: PointSet, b) -> PointSet:
    """Points of A that dominate b componentwise (the b-truncation)."""
    bb = as_point(b, A.ambient_p)
    return PointSet(A.ambient_p, (q for q in A if dominates(q, bb)))


def max_sum(A: PointSet) -> int:
    if not A:
        raise EmptySetError("max of an empty point set")
    return max(sum(q) for q in A)


def homogenize(A: PointSet) -> PointSet:
    """Append a slack coordinate filling each point up to the maximal coordinate sum."""
    mx = max_sum(A)
    return PointSet(A.ambient_p + 1, (q + (mx - sum(q),) for q in A))


def top(A: PointSet) -> PointSet:
    """Points of maximal coordinate sum."""
    mx = max_sum(A)
    return PointSet(A.ambient_p, (q for q in A if sum(q) == mx))


def check_index_subset(J, p: int) -> tuple[int, ...]:
    """Validate a nonempty subset of 1..p; return it sorted."""
    idx = sorted(set(J))
    if not idx:
        raise ValueError("index subset must be nonempty")
    if idx[0] < 1 or idx[-1] > p:
        raise ValueError(f"index subset {idx} not inside 1..{p}")
    return tuple(idx)


def support_bounds(A: PointSet, J) -> tuple[int, int]:
    """(min, max) of sum_{j in J} a_j over a in A, indices 1-based."""
    if not A:
        raise EmptySetError("support_bounds of an empty set")
    idx = [j - 1 for j in check_index_subset(J, A.ambient_p)]
    sums = [sum(q[i] for i in idx) for q in A]
    return min(sums), max(sums)


def nonzero_components(A: PointSet) -> tuple[int, ...]:
    """1-based components where some point of A is nonzero."""
    return tuple(
        i + 1 for i in range(A.ambient_p) if any(q[i] for q in A)
    )


def project_points(A: PointSet, components) -> PointSet:
    """Restrict every point to the given 1-based components (order preserved)."""
    comps = [c - 1 for c in components]
    for c in comps:
        if c < 0 or c >= A.ambient_p:
            raise ValueError(f"component {c + 1} outside 1..{A.ambient_p}")
    return PointSet(len(comps), (tuple(q[c] for c in comps) for q in A))


def _accumulate_terms(ambient_p, terms):
    if hasattr(terms, "items"):
        items = terms.items()
    else:
        items = terms
    acc: dict[Point, int] = {}
    for q, c in items:
        q = as_point(q, ambient_p)
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"coefficients must be ints, got {c!r}")
        c = acc.get(q, 0) + c
        if c:
            acc[q] = c
        else:
            acc.pop(q, None)
    return acc


class SignedSupport:
    """Finite map from lattice points to nonzero signed integer coefficients."""

    __slots__ = ("ambient_p", "terms")

    def __init__(self, ambient_p: int, terms=()):
        if not isinstance(ambient_p, int) or ambient_p < 0:
            raise DimensionError(f"bad ambient dimension {ambient_p!r}")
        self.ambient_p = ambient_p
        self.terms = _accumulate_terms(ambient_p, terms)

    def coeff(self, q) -> int:
        return self.terms.get(tuple(q), 0)

    def items(self):
        return sorted(self.terms.items())

    def support(self) -> PointSet:
        return PointSet(self.ambient_p, self.terms)

    def __neg__(self) -> "SignedSupport":
        return SignedSupport(self.ambient_p, {q: -c for q, c in self.terms.items()})

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedSupport)
            and self.ambient_p == other.ambient_p
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"SignedSupport(p={self.ambient_p}, {dict(self.items())})"


class IntPolynomial:
    """Sparse multivariate polynomial with exact integer coefficients.

    Arithmetic is exact; Python ints never overflow, so the no-silent-
    wraparound contract holds by construction.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=()):
        if not isinstance(num_vars, int) or num_vars < 0:
            raise DimensionError(f"bad variable count {num_vars!r}")
        self.num_vars = num_vars
        self.terms = _accumulate_terms(num_vars, terms)

    @classmethod
    def _raw(cls, num_vars: int, terms: dict) -> "IntPolynomial":
        """Trusted constructor: terms must already be clean (no zeros, right lengths)."""
        f = cls.__new__(cls)
        f.num_vars = num_vars
        f.terms = terms
        return f

    @classmethod
    def zero(cls, num_vars: int) -> "IntPolynomial":
        return cls._raw(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c: int) -> "IntPolynomial":
        if c == 0:
            return cls.zero(num_vars)
        return cls._raw(num_vars, {(0,) * num_vars: c})

    @classmethod
    def monomial(cls, num_vars: int, exponent, coeff: int = 1) -> "IntPolynomial":
        return cls(num_vars, [(as_point(exponent, num_vars), coeff)])

    def coeff(self, exponent) -> int:
        return self.terms.get(tuple(exponent), 0)

    def items(self):
        return sorted(self.terms.items())

    def support(self) -> PointSet:
        return PointSet(self.num_vars, self.terms)

    def _coerce(self, other):
        if isinstance(other, IntPolynomial):
            if other.num_vars != self.num_vars:
                raise DimensionError("mixed variable counts")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return IntPolynomial.constant(self.num_vars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            c = out.get(e, 0) + c
            if c:
                out[e] = c
            else:
                del out[e]
        return IntPolynomial._raw(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial._raw(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Point, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        return IntPolynomial._raw(self.num_vars, out)

    __rmul__ = __mul__

    def swap_vars(self, j: int) -> "IntPolynomial":
        """Exchange the variables z_j and z_{j+1} (j is 1-based)."""
        if not 1 <= j <= self.num_vars - 1:
            raise ValueError(f"variable index {j} outside 1..{self.num_vars - 1}")
        i = j - 1
        out = {}
        for e, c in self.terms.items():
            w = list(e)
            w[i], w[i + 1] = w[i + 1], w[i]
            out[tuple(w)] = c
        return IntPolynomial._raw(self.num_vars, out)

    def total_degrees(self) -> tuple[int, int]:
        if not self.terms:
            raise EmptySetError("degree of the zero polynomial")
        sums = [sum(e) for e in self.terms]
        return min(sums), max(sums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntPolynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.num_vars}, {poly_text(self)!r})"


def poly_from_signed_support(S: SignedSupport) -> IntPolynomial:
    return IntPolynomial._raw(S.ambient_p, dict(S.terms))


def signed_support_from_poly(f: IntPolynomial) -> SignedSupport:
    out = SignedSupport(f.num_vars)
    out.terms = dict(f.terms)
    return out


def poly_text(f: IntPolynomial) -> str:
    """Canonical text form: terms in natural lex order on exponents,
    "+c*z1^a1*..." with zero exponents omitted and coefficient kept explicit."""
    if not f.terms:
        return "0"
    parts = []
    for e, c in f.items():
        sign = "+" if c > 0 else "-"
        factors = [str(abs(c))]
        for i, a in enumerate(e, start=1):
            if a == 1:
                factors.append(f"z{i}")
            elif a > 1:
                factors.append(f"z{i}^{a}")
        parts.append(sign + "*".join(factors))
    return "".join(parts)


def binomial_at(t: int, n: int) -> int:
    """C(t+n, n) evaluated exactly for any integer t via the product formula."""
    if n < 0:
        raise ValueError("binomial index must be nonnegative")
    num = 1
    for k in range(1, n + 1):
        num *= t + k
    return num // math.factorial(n)


def downset(P: PointSet) -> PointSet:
    """All u with u <= v for some v in P."""
    if not P:
        raise EmptySetError("downset of an empty set")
    pts = set()
    for v in P:
        pts.update(itertools.product(*(range(c + 1) for c in v)))
    return PointSet(P.ambient_p, pts)


def axis_transform(f: dict[Point, int], sign: int) -> dict[Point, int]:
    """For each axis i in turn, replace f(u) by f(u) + sign * f(u + e_i),
    keys missing from f counting as 0; the result has exactly f's keys.

    When the keys form a downset this is exact: sign +1 gives the zeta
    transform sum_{w >= u} f(w) and sign -1 its Mobius inverse, the
    difference along every axis.  Keys are visited in lex order, which puts
    u before u + e_i for every i: ascending for -1 reads the old f(u + e_i),
    descending for +1 reads the already summed one.
    """
    g = dict(f)
    order = sorted(g, reverse=sign > 0)
    for i in range(len(order[0]) if order else 0):
        for u in order:
            c = g.get(u[:i] + (u[i] + 1,) + u[i + 1:])
            if c:
                g[u] += sign * c
    return g


# ---------------------------------------------------------------------------
# canonical JSON encodings

def point_set_to_json(A: PointSet) -> list:
    return [list(q) for q in A]


def point_set_from_json(data, ambient_p: int | None = None) -> PointSet:
    if not isinstance(data, list) or not all(isinstance(q, list) for q in data):
        raise ValueError("point set JSON must be an array of arrays")
    return point_set(data, ambient_p) if data or ambient_p is None else PointSet(ambient_p)


def signed_support_to_json(S: SignedSupport) -> list:
    return [{"exp": list(q), "coeff": c} for q, c in S.items()]


def signed_support_from_json(data, ambient_p: int | None = None) -> SignedSupport:
    if not isinstance(data, list):
        raise ValueError("signed support JSON must be an array of {exp, coeff}")
    pairs = [(tuple(d["exp"]), int(d["coeff"])) for d in data]
    if ambient_p is None:
        if not pairs:
            raise EmptySetError("cannot infer ambient dimension")
        ambient_p = len(pairs[0][0])
    return SignedSupport(ambient_p, pairs)


def poly_to_json(f: IntPolynomial) -> list:
    return [{"exp": list(e), "coeff": c} for e, c in f.items()]


def poly_from_json(data, num_vars: int | None = None) -> IntPolynomial:
    S = signed_support_from_json(data, num_vars)
    return poly_from_signed_support(S)

