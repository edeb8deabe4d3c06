"""Lattice-point primitives shared by every other module.

Points are plain tuples of nonnegative ints.  Finite point sets and exact
coefficient maps (point -> nonzero int, see IntPolynomial) are small
immutable wrappers around sorted tuples and dicts, so equality, hashing and
iteration order are canonical.
"""

from __future__ import annotations

import itertools
import math
import operator
import reprlib
import sys

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


class Record:
    """Immutable record that behaves as a frozen dataclass without importing
    dataclasses: a subclass's __init__ checks its arguments and hands the
    values of its __slots__ fields, in order, to Record.__init__.  Equality
    is by class and field values, hash and repr are a frozen dataclass's, and
    copy, deepcopy and pickle rebuild a record through its constructor."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


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


def parse_vector(text: str) -> tuple[int, ...]:
    """Ints from text such as "1,5,3" or "[1 5 3]", split on commas or spaces."""
    body = text.strip().strip("[]")
    try:
        return tuple(int(tok) for tok in body.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"expected integers separated by commas or spaces, got {text!r}") from None


def dominates(u: Point, v: Point) -> bool:
    """u >= v componentwise."""
    return all(a >= b for a, b in zip(u, v))


def check_axis_order(axis_order, p: int) -> tuple[int, ...]:
    order = tuple(axis_order)
    if sorted(order) != list(range(1, p + 1)):
        raise ValueError(f"axis order {order} is not a permutation of 1..{p}")
    return order


def check_ambient(A: "PointSet", m) -> Point:
    """m as a point of A's length that dominates every point of A."""
    m = as_point(m, A.ambient_p)
    for q in A:
        if not dominates(m, q):
            raise ValueError(f"point {q} exceeds ambient {m}")
    return m


class PointSet:
    """Finite set of lattice points in N^p, stored sorted in natural lex order."""

    # _base_check: the verdict stored by polymatroid.is_base_polymatroid and base_polymatroid
    __slots__ = ("ambient_p", "points", "_set", "_base_check")

    def __init__(self, ambient_p: int, points=()):
        if not isinstance(ambient_p, int) or ambient_p < 0:
            raise DimensionError(f"bad ambient dimension {ambient_p!r}")
        pts = {as_point(q, ambient_p) for q in points}
        self.ambient_p = ambient_p
        self.points = tuple(sorted(pts))
        self._set = frozenset(pts)

    @classmethod
    def _raw(cls, ambient_p: int, points) -> "PointSet":
        """Trusted constructor for points the library derived from a checked
        set: sorts and deduplicates, re-checks nothing."""
        A = cls.__new__(cls)
        A.ambient_p = ambient_p
        A._set = frozenset(points)
        A.points = tuple(sorted(A._set))
        return A

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
    pts = [tuple(q) for q in points]
    if ambient_p is None:
        if not pts:
            raise EmptySetError("cannot infer ambient dimension of an empty set")
        ambient_p = len(pts[0])
    return PointSet(ambient_p, pts)


def max_sum(A: PointSet) -> int:
    if not A:
        raise EmptySetError("max of an empty point set")
    return max(sum(q) for q in A)


def homogenize(A: PointSet) -> PointSet:
    """Append a slack coordinate filling each point up to the maximal coordinate sum."""
    mx = max_sum(A)
    return PointSet._raw(A.ambient_p + 1, (q + (mx - sum(q),) for q in A))


def top(A: PointSet) -> PointSet:
    """Points of maximal coordinate sum."""
    mx = max_sum(A)
    return PointSet._raw(A.ambient_p, (q for q in A if sum(q) == mx))


class IntPolynomial:
    """Finite map from points of N^p to nonzero integers: a sparse
    polynomial with exact integer coefficients.

    One class holds every exact coefficient map of the library: monomial-
    basis polynomials (K-polynomials, Grothendieck polynomials), signed
    Hilbert supports in the binomial-product basis, and the values
    mu(u, 1hat).  Only the basis a caller reads the points in differs.
    Arithmetic is exact; Python ints never overflow, so the no-silent-
    wraparound contract holds by construction.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=()):
        if not isinstance(num_vars, int) or num_vars < 0:
            raise DimensionError(f"bad variable count {num_vars!r}")
        acc: dict[Point, int] = {}
        for e, c in terms.items() if hasattr(terms, "items") else terms:
            e = as_point(e, num_vars)
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be ints, got {c!r}")
            c = acc.get(e, 0) + c
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)
        self.num_vars = num_vars
        self.terms = acc

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

    def coeff(self, exponent) -> int:
        return self.terms.get(tuple(exponent), 0)

    def items(self):
        return sorted(self.terms.items())

    def support(self) -> PointSet:
        return PointSet._raw(self.num_vars, self.terms)

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


def terms_text(f: IntPolynomial, factor) -> str:
    """Signed-term text of f, one term per point in lex order: "+" or "-",
    then |c| and the nonempty factor(i, a) of each 1-based coordinate i with
    value a, joined by "*"; the zero map is "0"."""
    parts = []
    for e, c in f.items():
        factors = [str(abs(c))] + [factor(i, a) for i, a in enumerate(e, start=1)]
        parts.append(("+" if c > 0 else "-") + "*".join(filter(None, factors)))
    return "".join(parts) or "0"


def poly_text(f: IntPolynomial) -> str:
    """Canonical text form: terms in natural lex order on exponents,
    "+c*z1^a1*..." with zero exponents omitted and coefficient kept explicit."""
    return terms_text(f, lambda i, a: f"z{i}^{a}" if a > 1 else f"z{i}" if a else "")


def first_difference(named: dict):
    """The first point, in lex order, where the named term maps {point: c}
    disagree, as (point list, {name: coefficient there}); None when they
    all agree."""
    for e in sorted(set().union(*named.values())):
        coeffs = {name: terms.get(e, 0) for name, terms in named.items()}
        if len(set(coeffs.values())) > 1:
            return list(e), coeffs
    return None


def binomial_at(t: int, n: int) -> int:
    """C(t+n, n) evaluated exactly for any integer t via the product formula."""
    if n < 0:
        raise ValueError("binomial index must be nonnegative")
    num = 1
    for k in range(1, n + 1):
        num *= t + k
    return num // math.factorial(n)


# summed box volumes prod(v_i + 1) over the points v that downset may
# enumerate; the largest downset the tests and the benchmark build sums 12 200
DOWNSET_CAP = 1_000_000


def downset(P: PointSet) -> PointSet:
    """All u with u <= v for some v in P.

    Raises CapExceeded before enumerating when the boxes below the points of
    P hold more than DOWNSET_CAP cells in total.
    """
    if not P:
        raise EmptySetError("downset of an empty set")
    cells = sum(math.prod(c + 1 for c in v) for v in P)
    if cells > DOWNSET_CAP:
        raise CapExceeded(f"downset boxes hold {cells} cells (cap {DOWNSET_CAP})")
    pts = set()
    for v in P:
        pts.update(itertools.product(*(range(c + 1) for c in v)))
    return PointSet._raw(P.ambient_p, pts)


# cells of the largest grid, downset_difference's lanes or the list of
# truncation_masks, and entries of the largest subset table; the largest grid
# in the tests holds 2^19 cells (U_{1,19}), in the benchmark 2 400 (a
# theorem_c linear polymatroid)
GRID_CAP = 1_000_000


def grid_strides(dims) -> tuple[int, list[int]]:
    """(cells, C-order strides) of the box of the given side lengths;
    CapExceeded above GRID_CAP, the one check every grid passes before it is
    allocated."""
    cells = math.prod(dims)
    if cells > GRID_CAP:
        raise CapExceeded(f"box grid has {cells} cells (cap {GRID_CAP})")
    return cells, [cells // math.prod(dims[:i + 1]) for i in range(len(dims))]


def check_subset_table(p: int, table: str, cap: int) -> None:
    """CapExceeded, led by table ("rank table has"), above cap subsets of [p]."""
    if 1 << p > cap:
        raise CapExceeded(f"{table} {1 << p} subsets (cap {cap})")


def members(X: int) -> list[int]:
    """The 1-based indices of the subset with bitmask X (bit j - 1 stands for
    index j), in increasing order."""
    return [j + 1 for j in range(X.bit_length()) if X >> j & 1]


def _cube_coding(r: int, p: int):
    """(strides, decode) of the one integer coding of points, on the cube
    [0, r)^p: q has the code sum_i q_i * r^(p-1-i), last coordinate fastest,
    so codes sort as their points in natural lex order, q_i is
    code // strides[i] % r and q - e_i is code - strides[i]."""
    strides = [r ** k for k in range(p - 1, -1, -1)]
    return strides, lambda code: tuple([code // s % r for s in strides])


def _stalactite_walk(pts, strides):
    """Yield, for each point a of the ordered sequence pts, its stalactite
    against the points s before it as a list of cube codes (_cube_coding).  It
    doubles along every l with a - e_l + e_j = s for some j, that is
    a - e_l = s - e_j (j != l holds by itself, as s != a); while a_l > 0,
    a - e_l has the code code(a) - strides[l], so stalactites stay in the cube."""
    below: set[int] = set()  # codes of s - e_j over the points s before a
    for a in pts:
        code = sum(map(operator.mul, a, strides))
        downs = [code - s for x, s in zip(a, strides) if x]
        st = [code]
        for r in downs:
            if r in below:
                st += [w - code + r for w in st]
        yield st
        below.update(downs)


def axis_values(points) -> list[list[int]]:
    """The sorted distinct values the (nonempty) points take on each axis."""
    return [sorted(set(col)) for col in zip(*points)]


def class_floors(values) -> list[list[int]]:
    """The least coordinate of each value class: on an axis with sorted values
    v, the x in (v_{r-1}, v_r] lie below the same points (class 0 from 0)."""
    return [[0] + [v + 1 for v in vs[:-1]] for vs in values]


def _order_masks(values) -> tuple[dict, dict]:
    """Map each t in values, in increasing order, to the bitmask of the k
    with values[k] < t and to that of the k with values[k] > t."""
    at = {}
    for k, t in enumerate(values):
        at[t] = at.get(t, 0) | 1 << k
    keys = sorted(at)
    below, acc = {}, 0
    for t in keys:
        below[t] = acc
        acc |= at[t]
    above, acc = {}, 0
    for t in reversed(keys):
        above[t] = acc
        acc |= at[t]
    return below, above


def truncation_masks(points) -> list[int]:
    """The bitmask of the points q >= u (bit k for points[k]) at each cell u
    of the grid of axis_values(points), in C order: the AND over the axes of
    the points not below u_i on axis i.  A class of class_floors keeps the
    same points from its floor up to its values.  CapExceeded above GRID_CAP
    cells, checked before any mask is built."""
    cols = list(zip(*points))
    grid_strides([len(set(col)) for col in cols])
    masks = [(1 << len(points)) - 1]
    for col in cols:
        below = _order_masks(col)[0].values()
        masks = [m & ~b for m in masks for b in below]
    return masks


def downset_difference(points) -> dict[Point, int]:
    """{u: value} over the nonzero cells of the downset's indicator differenced
    along every axis, on one cell per tuple of the values the points take on
    each axis (CapExceeded above GRID_CAP cells, checked before allocating).
    Where u_i is no value on axis i, u_i and u_i + 1 lie below the same
    points, so the difference cancels.

    The grid is one Python int X with a lane of w = 8, 16 or 32 bits per cell
    in C order, so each step is one shift, AND or add over every cell
    (broadword arithmetic; Knuth, TAOCP 4A, 7.1.3).  Along an axis of d >= 2
    values, succ has all bits of the lanes below the top value, and X >> shift
    moves each lane's successor on the axis into it.  With the points' lanes
    set to 1, X |= X >> shift & succ, d - 1 times per axis, fills the downset.
    Then every lane holds its value plus bias = 2^(w-1), and X + (bias & succ)
    - (X >> shift & succ) differences one axis.  After k axes every |value|
    <= 2^(k-1), and w is the least width above the number of axes with two or
    more values, so no lane leaves [0, 2^w) or borrows from the next; X ^ bias
    reads back as two's-complement lanes."""
    values = axis_values(points)
    dims = list(map(len, values))
    cells, strides = grid_strides(dims)
    size, typecode = ((1, "b"), (2, "h"), (4, "i"))[sum(d > 1 for d in dims) // 8]  # bytes per lane
    offsets = [{x: r * s * size for r, x in enumerate(vs)} for vs, s in zip(values, strides)]
    lanes = bytearray(cells * size)
    for u in points:
        lanes[sum(map(operator.getitem, offsets, u))] = 1
    X = int.from_bytes(lanes, "little")
    del lanes
    axes = [(d, s * size) for d, s in zip(dims, strides) if d > 1]  # (values, bytes per layer)

    def successors(d, run):  # built where used: each mask is as large as the grid
        return int.from_bytes((b"\xff" * (run * (d - 1)) + bytes(run)) * (cells * size // (d * run)), "little")

    for d, run in axes:
        succ = successors(d, run)
        for _ in range(d - 1):
            X |= X >> 8 * run & succ
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * cells, "little")
    X |= bias
    for d, run in axes:
        succ = successors(d, run)
        X += (bias & succ) - (X >> 8 * run & succ)
    # lanes in the host's byte order, as the cast reads them; a big-endian
    # host lists them from the last cell
    diff = memoryview((X ^ bias).to_bytes(cells * size, sys.byteorder)).cast(typecode)
    if sys.byteorder == "big":
        diff = diff[::-1]
    nonzero = itertools.compress(itertools.product(*values), diff)
    return dict(zip(nonzero, filter(None, diff)))


# ---------------------------------------------------------------------------
# canonical JSON encodings

def point_set_to_json(A: PointSet) -> list:
    return [list(q) for q in A]


def json_value(data, kind: type, path: str, what: str, length=None, minimum=None):
    """data if it is a JSON `kind` (list, dict or int, a bool being no int) with
    `length` items or at least `minimum`, where given; else a ValueError that
    names path, as in "$.bases must be an array of points, got 5"."""
    if (not isinstance(data, kind) or isinstance(data, bool) or length is not None and len(data) != length
            or minimum is not None and data < minimum):
        raise ValueError(f"{path} must be {what}, got {reprlib.repr(data)}")
    return data


def json_key(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValueError(f"{path} is missing the key {key!r}")
    return obj[key]


def json_point(data, path: str, p: int) -> Point:
    json_value(data, list, path, f"a point of length {p}", p)
    return tuple(json_value(c, int, f"{path}[{j}]", "a nonnegative int", minimum=0) for j, c in enumerate(data))


def point_set_from_json(data, ambient_p: int | None = None, path: str = "$") -> PointSet:
    """PointSet from the JSON array of points at `path`, all as long as the
    first or ambient_p long; an error names the path of the bad element.
    Paths are built only once the plain check of every point fails."""
    json_value(data, list, path, "an array of points")
    if ambient_p is None:
        if not data:
            raise EmptySetError(f"{path} must be a nonempty array of points, got []")
        ambient_p = len(json_value(data[0], list, f"{path}[0]", "a point"))
    if not all(type(q) is list and len(q) == ambient_p and all(type(c) is int and c >= 0 for c in q)
               for q in data):
        data = [json_point(q, f"{path}[{i}]", ambient_p) for i, q in enumerate(data)]
    return PointSet._raw(ambient_p, map(tuple, data))


def poly_to_json(f: IntPolynomial) -> list:
    return [{"exp": list(e), "coeff": c} for e, c in f.items()]
