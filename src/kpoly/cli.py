"""Command-line front door.

Every command prints a human-readable report; ``--json`` switches stdout to
the JSON payload and ``--out PATH`` writes the JSON alongside the report.
Exit codes: 0 ok; 1 mathematical violation (failed axiom; route or method
mismatch); 2 usage or resource error, raised as an exception and reported on
stderr by ``main``.  Every command returns one result, (payload, lines,
check): its JSON payload, its report as a function that formats the lines
only when the report is printed, never when only the JSON is, and one
``Check``.  ``_emit`` alone turns a result into output: the status, and exit
1 for a failed check, whose witness goes into the payload under ``witness``
and ends the report as a ``  witness: {...}`` line, or else exit 0.  Each
command decides nothing the library already decides: it loads its input,
calls the library routes and reports their verdicts.  Every route by which a
command computes an object is one row of ROUTES, which --via and --verify,
--oracle, --check and --method read their names, choices and comparisons
from; ``_compare`` alone compares the routes' polynomials.

The parser is built once per process, with one subparser per command.
``main`` parses the arguments after a command name with that command's
parser alone, and goes through the whole parser when the first argument
names no command or the command's parser leaves arguments over, so help,
usage and every error read as the whole parser prints them.  The JSON text
is ``_json_text(payload)``, which equals ``json.dumps(payload, indent=2,
sort_keys=True)`` byte for byte: it joins a list of plain ints in one
``str.join`` where the stdlib's indenting encoder, pure Python, visits each
int.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from json.encoder import encode_basestring_ascii

from .lattice import (
    CapExceeded,
    Check,
    check_ambient,
    first_difference,
    members,
    parse_vector,
    point_set_from_json,
    point_set_to_json,
    poly_text,
    poly_to_json,
)
from . import mobius as mobius_mod
from . import monomial, polymatroid, schubert, stalactite, subspaces

def _json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value whose first
    line starts at column len(pad): dicts with str keys by sorted key, lists
    and tuples of plain ints in one join, other lists and tuples item by
    item, str and int directly, and anything else (bools, None, floats,
    other keys) through json.dumps, re-indented."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        items = sep.join(f"{encode_basestring_ascii(key)}: {_json_text(v, inner)}"
                         for key, v in sorted(value.items()))
        return f"{{\n{inner}{items}\n{pad}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            items = sep.join(map(str, value))
        else:
            items = sep.join(_json_text(x, inner) for x in value)
        return f"[\n{inner}{items}\n{pad}]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _emit(result: tuple, args) -> int:
    payload, lines, chk = result
    if not chk:
        payload["witness"] = chk.witness
    text = None
    if args.json or args.out:
        text = _json_text({"status": "ok" if chk else "violation", **payload})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text if args.json else "\n".join(lines()))
    if not (chk or args.json):
        print(f"  witness: {chk.witness}")
    return 0 if chk else 1


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests its JSON too deeply to read") from None


def _parse_orders(text: str):
    if text in ("natural", "all"):
        return text
    if sample := re.fullmatch(r"sample:(-?\d+):(-?\d+)", text):
        return ("sample", int(sample[1]), int(sample[2]))
    raise ValueError(f"bad --orders value {text!r}; use natural, all or sample:K:SEED")


# ---------------------------------------------------------------------------

# object -> {route name: (call, runs, shares)}, the routes in the order they
# run and report.  call(*args) computes the object by the route, looking its
# function up in its module at call time, so a wrapped or patched module
# attribute is the one that runs.  runs is when --verify, --oracle, --check
# or --method all runs the route: ALWAYS, or ZERO_ONE for a zero-one w only.
# shares names the kpoly functions the route may reach in common with another
# route of its object that names them too (tests/test_routes.py).  Every
# Grothendieck route still reads its input off divided differences (_CHAIN).
ALWAYS, ZERO_ONE = "always", "zero-one"
_CHAIN = ("schubert.as_perm schubert.grothendieck schubert._grothendieck_codes schubert._isobaric_codes "
          "schubert._divided_difference_codes schubert._staircase schubert._perm_coding schubert.ascent_positions "
          "schubert.swap_adjacent schubert.longest_perm lattice._cube_coding ")
_BASE_CHECK = ("polymatroid.is_base_polymatroid polymatroid._exchange_check polymatroid._point_masks "
               "lattice._order_masks lattice._cube_coding lattice.Check.__init__ lattice.Check.__bool__ ")
_MSUPP = _CHAIN + _BASE_CHECK + ("schubert.msupp_of_matrix_schubert schubert.schubert schubert.lowest_degree_part "
                                 "lattice.PointSet._raw")
_MASKS = "polymatroid._point_masks lattice._order_masks lattice._cube_coding "

ROUTES = {
    "grothendieck": {
        "divided-diff": (lambda w: schubert.grothendieck(w), ALWAYS, _CHAIN),
        "stalactites": (lambda w: schubert.grothendieck_via_stalactites(w), ZERO_ONE, _MSUPP),
        "mobius": (lambda w: schubert.grothendieck_via_mobius(w), ZERO_ONE, _MSUPP),
    },
    "hilbert": {
        "stalactites": (lambda msupp, m: stalactite.hsupp_from_msupp(msupp), ALWAYS, ""),
        "inclusion_exclusion": (lambda msupp, m: monomial.hilbert_poly_ie(monomial.msupp_to_ideal(msupp, m)), ALWAYS,
                                "lattice.as_point monomial.SquareFreeIdeal.ambient_p"),
    },
    "deg = -mu": {
        "deg": (lambda msupp: stalactite.hsupp_from_msupp(msupp), ALWAYS, _BASE_CHECK),
        "neg_mu": (lambda msupp: -mobius_mod.mobius_to_top(msupp), ALWAYS, _BASE_CHECK),
    },
    "g-polymatroid": {
        method: (lambda G, method=method: polymatroid.is_g_polymatroid(G, method), ALWAYS,
                 "polymatroid.is_g_polymatroid lattice.Check.__init__ " + shares)
        for method, shares in zip(polymatroid.G_POLY_METHODS, (_MASKS, _MASKS + "lattice.Check.__bool__",
                                                                "lattice.Check.__bool__"))
    },
}


def _run(obj: str, route: str | None, *args, zero_one: bool = True) -> dict:
    """{route: its value on args} for one route of obj, its first when None,
    or, for "all", for every route that --verify, --oracle, --check or
    --method all runs, in table order."""
    table = ROUTES[obj]
    if route != "all":
        route = route or next(iter(table))
        return {route: table[route][0](*args)}
    return {route: call(*args) for route, (call, runs, _) in table.items() if runs == ALWAYS or zero_one}


def _compare(values: dict) -> Check:
    """Whether the routes' polynomials are equal; when they are not, the
    witness names the first point where they differ and each route's
    coefficient there."""
    first = next(iter(values.values()))
    if all(f == first for f in values.values()):
        return Check(True)
    exp, coeffs = first_difference({route: f.terms for route, f in values.items()})
    return Check(False, {"condition": "route-mismatch", "exp": exp, "coeffs": coeffs})


def cmd_grothendieck(args) -> tuple:
    w = schubert.parse_perm(args.permutation)
    zero_one = schubert.is_zero_one(w)
    routes = _run("grothendieck", "all" if args.verify else args.via, w, zero_one=zero_one)
    result = next(iter(routes.values()))
    chk = _compare(routes)
    shown = schubert.lowest_degree_part(result) if args.schubert else result
    name = "Schubert" if args.schubert else "Grothendieck"
    text = poly_text(shown)

    def lines():
        yield f"{name} polynomial of {list(w)}:"
        yield f"  {text}"
        yield f"  zero-one: {zero_one}"
        if args.verify:
            yield f"  routes computed: {sorted(routes)}"
            yield f"  routes agree: {bool(chk)}"

    payload = {
        "permutation": list(w),
        "zero_one": zero_one,
        "polynomial": poly_to_json(shown),
        "text": text,
        "routes": sorted(routes),
        "routes_agree": bool(chk),
    }
    return payload, lines, chk


def cmd_census(args) -> tuple:
    count = schubert.count_zero_one(args.p)
    return {"p": args.p, "count": count}, lambda: [f"zero-one Schubert polynomials in S_{args.p}: {count}"], Check(True)


def _check_result(kind: str, chk: Check, extra: dict | None = None, details=lambda: ()) -> tuple:
    """A verify kind's result: the verdict line, then the lines details() formats."""
    payload = {"kind": kind, "verdict": bool(chk), **(extra or {})}
    return payload, lambda: [f"{kind}: {'ok' if chk else 'violation'}", *details()], chk


def _verify_gpolymatroid(args, data) -> tuple:
    G = point_set_from_json(data)
    checks = _run("g-polymatroid", args.method, G)
    chk = next(iter(checks.values()))
    if args.method != "all":
        return _check_result(args.kind, chk)
    verdicts = {m: bool(c) for m, c in checks.items()}
    if len(set(verdicts.values())) > 1:
        chk = Check(False, {"condition": "method-mismatch", "verdicts": verdicts})
    return _check_result(args.kind, chk, {"methods": verdicts})


def _verify_theorem_a(args, data) -> tuple:
    """Theorem A: the support is a g-polymatroid, which by Frank's theorem is
    the paramodular classifier's verdict; the report lists the support-bound
    inequalities."""
    sys_, chk = polymatroid.theorem_a_report(point_set_from_json(data))

    def details():
        for X in sys_.subsets():
            yield f"  {sys_.lower[X]} <= n_{{{','.join(map(str, members(X)))}}} <= {sys_.upper[X]}"

    return _check_result(args.kind, chk, {"inequalities": polymatroid.system_to_json(sys_)}, details)


def _verify_theorem_c(args, data) -> tuple:
    P = subspaces.linear_polymatroid(subspaces.config_from_json(data))
    supp = mobius_mod.mu_support(P)
    extra = {"polymatroid": point_set_to_json(P), "mu_support": point_set_to_json(supp)}
    return _check_result(args.kind, polymatroid.is_g_polymatroid(supp, "paramodular"), extra)


# verify kind -> handler(args, parsed JSON input)
VERIFY_KINDS = {
    "gpolymatroid": _verify_gpolymatroid,
    "cave": lambda args, data: _check_result(
        args.kind, polymatroid.is_cave(point_set_from_json(data), _parse_orders(args.orders))
    ),
    "shelling": lambda args, data: _check_result(
        args.kind, stalactite.verify_shelling(stalactite.facets_from_json(data))
    ),
    "matroid-mu": lambda args, data: _check_result(
        args.kind, mobius_mod.verify_matroid_mu_theorem(mobius_mod.matroid_from_json(data))
    ),
    "theorem-a": _verify_theorem_a,
    "theorem-c": _verify_theorem_c,
}


def cmd_verify(args) -> tuple:
    return VERIFY_KINDS[args.kind](args, _load_json(args.input))


def _base_polymatroid_input(args) -> tuple:
    """(msupp, m, check): the point set at args.msupp, its ambient bound,
    --ambient (checked at once, whatever the command reads of it) or else
    the componentwise max, and the set's base-polymatroid check."""
    msupp = point_set_from_json(_load_json(args.msupp))
    m = check_ambient(msupp, parse_vector(args.ambient)) if args.ambient else tuple(map(max, zip(*msupp)))
    return msupp, m, polymatroid.is_base_polymatroid(msupp)


def cmd_hilbert(args) -> tuple:
    msupp, m, chk = _base_polymatroid_input(args)
    if not chk:
        return {"verdict": False}, lambda: ["multidegree support fails the polymatroid check"], chk
    values = _run("hilbert", "all" if args.oracle else None, msupp, m)
    H = next(iter(values.values()))
    chk = _compare(values)
    text = stalactite.hilbert_text(H)
    payload = {"hilbert": poly_to_json(H), "text": text}

    def lines():
        yield "Hilbert polynomial (binomial-product basis):"
        yield f"  {text}"
        if args.oracle:
            yield f"  inclusion-exclusion oracle agrees: {bool(chk)}"
        if "eval" in payload:
            yield f"  value at t = {payload['eval']['t']}: {payload['eval']['value']}"

    if args.oracle:
        payload["oracle_agrees"] = bool(chk)
    if chk and args.eval is not None:
        t = parse_vector(args.eval)
        payload["eval"] = {"t": list(t), "value": stalactite.hilbert_eval(H, t)}
    return payload, lines, chk


def cmd_mobius(args) -> tuple:
    msupp, m, chk = _base_polymatroid_input(args)
    if not chk:
        return {"verdict": False}, lambda: ["input fails the polymatroid check"], chk
    values = _run("deg = -mu", "all" if args.check else "neg_mu", msupp)
    chk = _compare(values)
    MU = -values["neg_mu"]
    mu = poly_to_json(MU)
    supp = MU.support()
    payload = {"mu": mu, "mu_support": point_set_to_json(supp)}

    def lines():
        yield "mu(u, 1hat) over the downset (nonzero values):"
        yield f"  {mu}"
        yield f"mu-support size: {len(supp)}"
        if args.check:
            yield f"deg = -mu identity: {bool(chk)}"
        if "kpoly" in payload:
            yield f"twisted K-polynomial: {poly_text(K)}"

    if args.check:
        payload["deg_equals_neg_mu"] = bool(chk)
    if chk and args.kpoly:
        K = mobius_mod.kpoly_from_mobius(msupp, m)
        payload["kpoly"] = poly_to_json(K)
        payload["ambient"] = list(m)
    return payload, lines, chk


def cmd_linear_polymatroid(args) -> tuple:
    if args.random:
        if args.seed is None:
            raise ValueError("--random requires an explicit --seed")
        dims = parse_vector(args.random)
        if len(dims) != 2:
            raise ValueError(f"--random takes two sizes P,Q, got {args.random!r}")
        p, q = dims
        rng = random.Random(args.seed)
        config = subspaces.random_config(p, q, rng, entry_bound=args.entry_bound)
    else:
        if not args.config:
            raise ValueError("pass a config file or --random P,Q --seed S")
        config = subspaces.config_from_json(_load_json(args.config))
    P = subspaces.linear_polymatroid(config)
    points = point_set_to_json(P)
    payload = {"config": subspaces.config_to_json(config), "polymatroid": points}
    chk = Check(True)

    def lines():
        yield f"linear polymatroid on [{config.p}] with {len(P)} lattice points:"
        yield f"  {points}"
        if args.mu_supp:
            yield f"mu-support ({len(supp)} points) is a g-polymatroid: {bool(chk)}"

    if args.mu_supp:
        supp = mobius_mod.mu_support(P)
        chk = polymatroid.is_g_polymatroid(supp, "paramodular")
        payload["mu_support"] = point_set_to_json(supp)
        payload["mu_support_g_polymatroid"] = bool(chk)
    return payload, lines, chk


def cmd_explore(args) -> tuple:
    if args.max_p < 2:
        raise ValueError(f"--max-p must be at least 2, got {args.max_p}")
    if args.max_coord < 1:
        raise ValueError(f"--max-coord must be positive, got {args.max_coord}")
    report = mobius_mod.mu_support_survey(args.max_p, args.max_coord)

    def lines():
        yield (f"mu-support survey: all {report['tested']} loopless base polymatroids "
               f"on 2..{args.max_p} elements with singleton ranks <= {args.max_coord}")
        yield f"  g-polymatroid mu-supports: {report['g_polymatroid']}"
        yield f"  exceptions found: {len(report['failures'])}"
        if report["failures"]:
            yield "  counterexample candidates (report only, nothing is asserted):"
            yield from (f"    {P}" for P in report["failures"])

    return report, lines, Check(True)


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpoly",
        description="Exact combinatorics of multidegree supports: Grothendieck "
        "polynomials, Hilbert supports, polymatroid and cave verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="print the JSON payload instead of text")
        p.add_argument("--out", help="also write the JSON payload to this path")

    for name, help_ in (
        ("grothendieck", "Grothendieck/Schubert polynomial of a permutation"),
        ("schubert", "alias for grothendieck --schubert"),
    ):
        g = sub.add_parser(name, help=help_)
        g.add_argument("permutation", help='one-line notation, e.g. "1,5,3,2,4" or "[1,5,3,2,4]"')
        if name == "grothendieck":
            g.add_argument("--schubert", action="store_true", help="print the lowest-degree part")
        g.add_argument("--via", choices=list(ROUTES["grothendieck"]))
        g.add_argument("--verify", action="store_true", help="run all applicable routes and compare")
        common(g)
        g.set_defaults(func=cmd_grothendieck, schubert=name == "schubert")

    c = sub.add_parser("census", help="count zero-one Schubert polynomials in S_p")
    c.add_argument("p", type=int)
    common(c)
    c.set_defaults(func=cmd_census)

    v = sub.add_parser("verify", help="run a structural verdict on a JSON input")
    v.add_argument("kind", choices=list(VERIFY_KINDS))
    v.add_argument("input", help="path to the JSON input")
    v.add_argument("--method", choices=[*ROUTES["g-polymatroid"], "all"])
    v.add_argument("--orders", default="all", help="natural, all or sample:K:SEED")
    common(v)
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("hilbert", help="Hilbert polynomial from a multidegree support")
    h.add_argument("msupp", help="path to a point-set JSON file")
    h.add_argument("--ambient", help="ambient bound m as CSV (default: componentwise max)")
    h.add_argument("--eval", help="evaluate at an integer vector t (CSV)")
    h.add_argument("--oracle", action="store_true", help="cross-check against inclusion-exclusion")
    common(h)
    h.set_defaults(func=cmd_hilbert)

    mb = sub.add_parser("mobius", help="Mobius function of the downset poset of a polymatroid")
    mb.add_argument("msupp", help="path to a point-set JSON file")
    mb.add_argument("--check", action="store_true", help="verify deg = -mu against stalactites")
    mb.add_argument("--kpoly", action="store_true", help="emit the twisted K-polynomial")
    mb.add_argument("--ambient", help="ambient bound m for --kpoly (CSV)")
    common(mb)
    mb.set_defaults(func=cmd_mobius)

    lp = sub.add_parser("linear-polymatroid", help="lattice points of a rational subspace configuration")
    lp.add_argument("config", nargs="?", help="path to a subspace-config JSON file")
    lp.add_argument("--random", help="generate a random config, P,Q")
    lp.add_argument("--seed", type=int, help="seed for --random (mandatory)")
    lp.add_argument("--entry-bound", type=int, default=3)
    lp.add_argument("--mu-supp", action="store_true", help="also compute and verify the mu-support")
    common(lp)
    lp.set_defaults(func=cmd_linear_polymatroid)

    ex = sub.add_parser("explore", help="exhaustive mu-support conjecture survey (reports, never asserts)")
    ex.add_argument("--max-p", type=int, default=4, help="largest ground set size")
    ex.add_argument("--max-coord", type=int, default=2, help="largest singleton rank")
    common(ex)
    ex.set_defaults(func=cmd_explore)

    parser.commands = sub.choices  # command name -> its own parser, for main
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if rest:  # the whole parser names the arguments left over
            args = parser.parse_args(argv)
    try:
        return _emit(args.func(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
