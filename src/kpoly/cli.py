"""Command-line front door.

Every command prints a human-readable report; ``--json`` switches stdout to
the JSON payload and ``--out PATH`` writes the JSON alongside the report.
Exit codes: 0 ok; 1 mathematical violation (failed axiom; route, oracle or
method mismatch); 2 usage or resource error, raised as an exception and
reported on stderr by ``main``.  Every result is built by ``_result``, and
exit 1 comes only from a failed ``Check``: its witness goes into the payload
under ``witness`` and ends the report as a ``  witness: {...}`` line.  The
report is a function that formats its lines only when the report is printed,
never when only the JSON is.  Each command decides nothing the library
already decides: it loads its input, calls the library routes and reports
their verdicts.

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
from collections.abc import Callable, Iterable
from dataclasses import dataclass
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

OK, VIOLATION = "ok", "violation"
_EXIT = {OK: 0, VIOLATION: 1}


@dataclass
class CommandResult:
    status: str
    payload: dict
    lines: Callable[[], Iterable[str]]  # the report, formatted when called


def _result(payload: dict, lines: Callable[[], Iterable[str]], chk: Check | None = None) -> CommandResult:
    """A command's result, OK unless chk is a failed Check.  A failed check
    is a VIOLATION: its witness goes into the payload and ends the report."""
    if chk is None or chk:
        return CommandResult(OK, payload, lines)
    payload["witness"] = chk.witness
    return CommandResult(VIOLATION, payload, lambda: [*lines(), f"  witness: {chk.witness}"])


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


def _emit(result: CommandResult, args) -> int:
    text = None
    if args.json or args.out:
        text = _json_text({"status": result.status, **result.payload})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text if args.json else "\n".join(result.lines()))
    return _EXIT[result.status]


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

# route name -> name of the schubert function that computes it; looked up at
# call time, so a wrapped or patched module attribute is the one that runs
ROUTES = {
    "divided-diff": "grothendieck",
    "stalactites": "grothendieck_via_stalactites",
    "mobius": "grothendieck_via_mobius",
}


def cmd_grothendieck(args) -> CommandResult:
    w = schubert.parse_perm(args.permutation)
    zero_one = schubert.is_zero_one(w)
    if args.verify:
        wanted = list(ROUTES) if zero_one else ["divided-diff"]
    else:
        wanted = [args.via or "divided-diff"]
    routes = {route: getattr(schubert, ROUTES[route])(w) for route in wanted}
    result = routes[wanted[0]]
    agree = all(f == result for f in routes.values())
    shown = schubert.lowest_degree_part(result) if args.schubert else result
    name = "Schubert" if args.schubert else "Grothendieck"
    text = poly_text(shown)

    def lines():
        yield f"{name} polynomial of {list(w)}:"
        yield f"  {text}"
        yield f"  zero-one: {zero_one}"
        if args.verify:
            yield f"  routes computed: {sorted(routes)}"
            yield f"  routes agree: {agree}"

    payload = {
        "permutation": list(w),
        "zero_one": zero_one,
        "polynomial": poly_to_json(shown),
        "text": text,
        "routes": sorted(routes),
        "routes_agree": agree,
    }
    if agree:
        return _result(payload, lines)
    exp, coeffs = first_difference({route: f.terms for route, f in routes.items()})
    mismatch = Check(False, {"condition": "route-mismatch", "exp": exp, "coeffs": coeffs})
    return _result(payload, lines, mismatch)


def cmd_census(args) -> CommandResult:
    count = schubert.count_zero_one(args.p)
    return _result({"p": args.p, "count": count},
                   lambda: [f"zero-one Schubert polynomials in S_{args.p}: {count}"])


def _check_result(kind: str, chk: Check, extra: dict | None = None, details=lambda: ()) -> CommandResult:
    """A verify kind's result: the verdict line, then the lines details() formats."""
    payload = {"kind": kind, "verdict": bool(chk), **(extra or {})}
    return _result(payload, lambda: [f"{kind}: {'ok' if chk else 'violation'}", *details()], chk)


def _verify_gpolymatroid(args, data) -> CommandResult:
    G = point_set_from_json(data)
    if args.method != "all":
        return _check_result(args.kind, polymatroid.is_g_polymatroid(G, args.method))
    checks = {m: polymatroid.is_g_polymatroid(G, m) for m in polymatroid.G_POLY_METHODS}
    verdicts = {m: bool(c) for m, c in checks.items()}
    chk = checks["axioms"]
    if len(set(verdicts.values())) > 1:
        chk = Check(False, {"condition": "method-mismatch", "verdicts": verdicts})
    return _check_result(args.kind, chk, {"methods": verdicts})


def _verify_theorem_a(args, data) -> CommandResult:
    """Theorem A: the support is a g-polymatroid, which by Frank's theorem is
    the paramodular classifier's verdict; the report lists the support-bound
    inequalities."""
    sys_, chk = polymatroid.theorem_a_report(point_set_from_json(data))

    def details():
        for X in sys_.subsets():
            yield f"  {sys_.lower[X]} <= n_{{{','.join(map(str, members(X)))}}} <= {sys_.upper[X]}"

    return _check_result(args.kind, chk, {"inequalities": polymatroid.system_to_json(sys_)}, details)


def _verify_theorem_c(args, data) -> CommandResult:
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


def cmd_verify(args) -> CommandResult:
    return VERIFY_KINDS[args.kind](args, _load_json(args.input))


def _base_polymatroid_input(args, subject: str):
    """(msupp, m): the point set at args.msupp and its ambient bound, --ambient
    (checked at once, whatever the command reads of it) or else the
    componentwise max; or the violation result when the set fails the
    base-polymatroid check."""
    msupp = point_set_from_json(_load_json(args.msupp))
    m = check_ambient(msupp, parse_vector(args.ambient)) if args.ambient else tuple(map(max, zip(*msupp)))
    chk = polymatroid.is_base_polymatroid(msupp)
    if not chk:
        return _result({"verdict": False}, lambda: [f"{subject} fails the polymatroid check"], chk)
    return msupp, m


def cmd_hilbert(args) -> CommandResult:
    loaded = _base_polymatroid_input(args, "multidegree support")
    if isinstance(loaded, CommandResult):
        return loaded
    msupp, m = loaded
    H = stalactite.hsupp_from_msupp(msupp)
    text = stalactite.hilbert_text(H)
    payload = {"hilbert": poly_to_json(H), "text": text}

    def lines():
        yield "Hilbert polynomial (binomial-product basis):"
        yield f"  {text}"
        if "oracle_agrees" in payload:
            yield f"  inclusion-exclusion oracle agrees: {payload['oracle_agrees']}"
        if "eval" in payload:
            yield f"  value at t = {payload['eval']['t']}: {payload['eval']['value']}"

    if args.oracle:
        Hie = monomial.hilbert_poly_ie(monomial.msupp_to_ideal(msupp, m))
        agree = Hie == H
        payload["oracle_agrees"] = agree
        if not agree:
            n, coeffs = first_difference({"stalactites": H.terms, "inclusion_exclusion": Hie.terms})
            mismatch = Check(False, {"condition": "oracle-mismatch", "n": n, **coeffs})
            return _result(payload, lines, mismatch)
    if args.eval is not None:
        t = parse_vector(args.eval)
        payload["eval"] = {"t": list(t), "value": stalactite.hilbert_eval(H, t)}
    return _result(payload, lines)


def cmd_mobius(args) -> CommandResult:
    loaded = _base_polymatroid_input(args, "input")
    if isinstance(loaded, CommandResult):
        return loaded
    msupp, m = loaded
    MU = mobius_mod.mobius_to_top(msupp)
    mu = poly_to_json(MU)
    supp = MU.support()
    payload = {"mu": mu, "mu_support": point_set_to_json(supp)}

    def lines():
        yield "mu(u, 1hat) over the downset (nonzero values):"
        yield f"  {mu}"
        yield f"mu-support size: {len(supp)}"
        if "deg_equals_neg_mu" in payload:
            yield f"deg = -mu identity: {payload['deg_equals_neg_mu']}"
        if "kpoly" in payload:
            yield f"twisted K-polynomial: {poly_text(K)}"

    if args.check:
        deg = mobius_mod.verify_deg_equals_neg_mobius(msupp)
        payload["deg_equals_neg_mu"] = bool(deg)
        if not deg:
            return _result(payload, lines, deg)
    if args.kpoly:
        K = mobius_mod.kpoly_from_mobius(msupp, m)
        payload["kpoly"] = poly_to_json(K)
        payload["ambient"] = list(m)
    return _result(payload, lines)


def cmd_linear_polymatroid(args) -> CommandResult:
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
        return _result(payload, lines, chk)
    return _result(payload, lines)


def cmd_explore(args) -> CommandResult:
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

    return _result(report, lines)


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
        g.add_argument("--via", choices=list(ROUTES))
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
    v.add_argument("--method", default="axioms", choices=[*polymatroid.G_POLY_METHODS, "all"])
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
